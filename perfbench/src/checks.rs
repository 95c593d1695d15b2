//! Correctness checks. Each takes the program's outputs and references
//! the benchmark computed apart from the measured path, and returns one
//! line per violation (empty when the check holds).

use mdl_serve::Route;
use mdl_sim::RoundOutcome;
use std::cmp::Ordering::{Equal, Less};

/// The exp_serving bound on int8-vs-f32 argmax agreement.
pub const MIN_INT8_AGREEMENT: f64 = 0.95;

/// What one served request came back with.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Input row the request carried.
    pub row: usize,
    pub probs: Vec<f32>,
    pub argmax: usize,
    pub route: Route,
    pub batch_size: usize,
    /// `InferenceResponse.latency`: submit → deliver inside the server.
    pub server_ms: f64,
    /// Submit → the load thread holding the response; an upper bound on
    /// `server_ms`.
    pub observed_ms: f64,
}

/// The fate of one attempted request.
#[derive(Debug, Clone)]
pub enum Slot {
    /// Submitted, not answered yet.
    Pending,
    /// Submit error or dropped receiver: counted in `failed`.
    Failed,
    Answered(Answer),
}

/// Every request that did not fail was answered, and none twice.
pub fn delivered_exactly_once(slots: &[Slot], duplicates: usize) -> Vec<String> {
    let mut out = Vec::new();
    let missing: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Slot::Pending))
        .map(|(i, _)| i)
        .collect();
    if let Some(first) = missing.first() {
        out.push(format!("{} requests never answered (first: #{first})", missing.len()));
    }
    if duplicates > 0 {
        out.push(format!("{duplicates} requests answered more than once"));
    }
    out
}

/// The answered requests, in request order.
pub fn answers(slots: &[Slot]) -> impl Iterator<Item = &Answer> {
    slots.iter().filter_map(|s| match s {
        Slot::Answered(a) => Some(a),
        _ => None,
    })
}

/// Every answer ran on the batched cloud path: none was shed to the
/// early exit or answered inline.
pub fn all_batched(slots: &[Slot]) -> Vec<String> {
    let off: Vec<Route> = answers(slots).map(|a| a.route).filter(|r| *r != Route::Cloud).collect();
    match off.first() {
        None => Vec::new(),
        Some(r) => vec![format!("{} answers left the batched path (first: {r:?})", off.len())],
    }
}

/// Share of answers whose argmax matches `reference_argmax[row]`.
pub fn argmax_agreement(slots: &[Slot], reference_argmax: &[usize]) -> f64 {
    let (mut n, mut agree) = (0usize, 0usize);
    for a in answers(slots) {
        n += 1;
        agree += usize::from(a.argmax == reference_argmax[a.row]);
    }
    if n == 0 {
        0.0
    } else {
        agree as f64 / n as f64
    }
}

/// The int8 answers agree with the f32 reference often enough.
pub fn int8_agreement(agreement: f64) -> Vec<String> {
    if agreement >= MIN_INT8_AGREEMENT {
        Vec::new()
    } else {
        vec![format!("int8 argmax agreement {agreement:.4} < {MIN_INT8_AGREEMENT}")]
    }
}

/// Answers whose argmax, and whose probability vector, differ from the
/// same model run on that row alone: `(argmax flips, prob mismatches)`.
pub fn solo_differences(slots: &[Slot], solo: &[Vec<f32>]) -> (usize, usize) {
    let (mut flips, mut mismatches) = (0, 0);
    for a in answers(slots) {
        let reference = &solo[a.row];
        flips += usize::from(a.argmax != argmax(reference));
        mismatches += usize::from(!same_bits(&a.probs, reference));
    }
    (flips, mismatches)
}

/// The server-reported latency fits inside what the load thread saw.
pub fn latency_within_observed(slots: &[Slot]) -> Vec<String> {
    // NaN compares as neither: it counts as bad
    let bad = answers(slots)
        .filter(|a| !matches!(a.server_ms.partial_cmp(&a.observed_ms), Some(Less | Equal)))
        .count();
    if bad == 0 {
        Vec::new()
    } else {
        vec![format!("{bad} answers report a latency longer than the client observed")]
    }
}

/// Training made progress: finite losses, the last below the first.
pub fn loss_decreased(losses: &[f64]) -> Vec<String> {
    match (losses.first(), losses.last()) {
        _ if losses.iter().any(|l| !l.is_finite()) => vec!["training loss is not finite".into()],
        (Some(first), Some(last)) if last < first => Vec::new(),
        (Some(first), Some(last)) => vec![format!("loss did not fall: {first} -> {last}")],
        _ => vec!["no training epochs recorded".into()],
    }
}

/// Accuracy against labels beats always answering the majority class.
pub fn beats_majority(accuracy: f64, labels: &[usize], classes: usize) -> Vec<String> {
    let mut counts = vec![0usize; classes];
    for &y in labels {
        counts[y] += 1;
    }
    let majority = counts.iter().copied().max().unwrap_or(0) as f64 / labels.len().max(1) as f64;
    if accuracy > majority {
        Vec::new()
    } else {
        vec![format!("test accuracy {accuracy:.4} does not beat the majority rate {majority:.4}")]
    }
}

/// Every value is finite (catches NaN parameters and logits).
pub fn all_finite(values: &[f32], what: &str) -> Vec<String> {
    let bad = values.iter().filter(|v| !v.is_finite()).count();
    if bad == 0 {
        Vec::new()
    } else {
        vec![format!("{bad} non-finite values in {what}")]
    }
}

/// Accuracy is at least `floor`.
pub fn accuracy_at_least(accuracy: f64, floor: f64, what: &str) -> Vec<String> {
    if accuracy >= floor {
        Vec::new()
    } else {
        vec![format!("{what} accuracy {accuracy:.4} is below {floor}")]
    }
}

/// Round bookkeeping is consistent: delivered ≤ cohort ≤ eligible.
/// Quorum misses are failed operations, counted by the caller.
pub fn round_invariants(rounds: &[RoundOutcome]) -> Vec<String> {
    rounds
        .iter()
        .filter(|r| !(r.delivered <= r.cohort && r.cohort <= r.eligible))
        .map(|r| {
            format!(
                "round {}: delivered {} / cohort {} / eligible {} out of order",
                r.round, r.delivered, r.cohort, r.eligible
            )
        })
        .collect()
}

/// Index of the first largest value; a NaN is never compared larger.
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(row: usize, probs: Vec<f32>) -> Slot {
        Slot::Answered(Answer {
            row,
            argmax: argmax(&probs),
            probs,
            route: Route::Cloud,
            batch_size: 1,
            server_ms: 1.0,
            observed_ms: 1.5,
        })
    }

    fn reference() -> Vec<Vec<f32>> {
        vec![vec![0.7, 0.2, 0.1], vec![0.1, 0.3, 0.6]]
    }

    fn good_slots() -> Vec<Slot> {
        (0..100).map(|i| answer(i % 2, reference()[i % 2].clone())).collect()
    }

    #[test]
    fn clean_output_passes_every_serve_check() {
        let slots = good_slots();
        let refs = reference();
        let ref_argmax: Vec<usize> = refs.iter().map(|p| argmax(p)).collect();
        assert!(delivered_exactly_once(&slots, 0).is_empty());
        assert!(all_batched(&slots).is_empty());
        assert_eq!(argmax_agreement(&slots, &ref_argmax), 1.0);
        assert!(latency_within_observed(&slots).is_empty());
        assert_eq!(solo_differences(&slots, &refs), (0, 0));
    }

    #[test]
    fn flipped_argmax_is_caught() {
        let refs = reference();
        let ref_argmax: Vec<usize> = refs.iter().map(|p| argmax(p)).collect();
        let mut slots = good_slots();
        for slot in slots.iter_mut().take(6) {
            if let Slot::Answered(a) = slot {
                a.probs.reverse();
                a.argmax = argmax(&a.probs);
            }
        }
        let agreement = argmax_agreement(&slots, &ref_argmax);
        assert_eq!(agreement, 0.94);
        assert_eq!(int8_agreement(agreement).len(), 1);
        assert_eq!(solo_differences(&slots, &refs), (6, 6));
    }

    #[test]
    fn one_ulp_change_is_a_prob_mismatch() {
        let refs = reference();
        let mut slots = good_slots();
        if let Slot::Answered(a) = &mut slots[3] {
            a.probs[1] = f32::from_bits(a.probs[1].to_bits() + 1);
        }
        assert_eq!(solo_differences(&slots, &refs), (0, 1));
    }

    #[test]
    fn missing_and_duplicate_responses_are_caught() {
        let mut slots = good_slots();
        slots[17] = Slot::Pending;
        assert_eq!(delivered_exactly_once(&slots, 0).len(), 1);
        assert_eq!(delivered_exactly_once(&good_slots(), 1).len(), 1);
        // a failed request is counted, not a violation
        slots[17] = Slot::Failed;
        assert!(delivered_exactly_once(&slots, 0).is_empty());
    }

    #[test]
    fn early_exit_and_impossible_latency_are_caught() {
        let mut slots = good_slots();
        if let Slot::Answered(a) = &mut slots[0] {
            a.route = Route::EarlyExit;
            a.server_ms = 9.0;
        }
        assert_eq!(all_batched(&slots).len(), 1);
        assert_eq!(latency_within_observed(&slots).len(), 1);
    }

    #[test]
    fn nan_parameters_and_logits_are_caught() {
        assert!(all_finite(&[0.5, -1.0], "params").is_empty());
        assert_eq!(all_finite(&[0.5, f32::NAN], "params").len(), 1);
        assert_eq!(all_finite(&[f32::INFINITY], "logits").len(), 1);
        assert_eq!(loss_decreased(&[0.7, f64::NAN, 0.3]).len(), 1);
    }

    #[test]
    fn training_checks() {
        assert!(loss_decreased(&[0.7, 0.5, 0.4]).is_empty());
        assert_eq!(loss_decreased(&[0.5, 0.6]).len(), 1);
        assert_eq!(loss_decreased(&[]).len(), 1);
        let labels = [0, 0, 0, 1];
        assert!(beats_majority(0.8, &labels, 2).is_empty());
        assert_eq!(beats_majority(0.75, &labels, 2).len(), 1);
        assert!(accuracy_at_least(0.9, 0.5, "held-out").is_empty());
        assert_eq!(accuracy_at_least(0.3, 0.5, "held-out").len(), 1);
    }

    #[test]
    fn round_bookkeeping_out_of_order_is_caught() {
        let round = |eligible, cohort, delivered| RoundOutcome {
            round: 1,
            eligible,
            cohort,
            delivered,
            quorum_met: true,
            round_s: 1.0,
        };
        assert!(round_invariants(&[round(100, 10, 8)]).is_empty());
        assert_eq!(round_invariants(&[round(100, 10, 11)]).len(), 1);
        assert_eq!(round_invariants(&[round(5, 10, 3)]).len(), 1);
    }

    #[test]
    fn argmax_keeps_the_first_tie() {
        assert_eq!(argmax(&[0.1, 0.5, 0.5]), 1);
        assert_eq!(argmax(&[f32::NAN, 0.2, 0.1]), 0);
        assert_eq!(argmax(&[0.2, f32::NAN, 0.3]), 2);
    }
}
