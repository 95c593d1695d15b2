//! DeepMood on the paper-sized BiAffect cohort: default configuration
//! (GRU encoders, MVM fusion, 12 epochs), one thread, trained and then
//! evaluated session by session, as many times as the run allows. The
//! traced run also measures the layers under a federated round
//! (`fedavg::layers`), after the timed trainings.

use crate::report::{child, metric, peak_rss_mb, Outcome, Trace};
use crate::serve::profile_totals;
use crate::{checks, fedavg, mix, seeded, stats};
use mdl_data::biaffect::{BiAffectConfig, BiAffectDataset, MOOD_CLASSES};
use mdl_deepmood::{biaffect_view_dims, borrow_pairs, normalized_pairs, DeepMood, DeepMoodConfig};
use mdl_tensor::kernel::{self, profile};
use mdl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Set-up takes ~80 ms, so it is repeated more often than the serve
/// workload's for a steady median.
const SETUP_REPEATS: usize = 7;
/// Trainings every run completes; `accuracy` is their mean, so it does
/// not depend on how many more the host's speed allows.
const MIN_TRAININGS: usize = 5;
const TRAIN_FRACTION: f64 = 0.75;

/// The cohort and its split are one fixed dataset, the same on every
/// seed: the work of an epoch then does not move with the seed. The seed
/// draws each training's initial weights and session order.
const CORPUS_SEED: u64 = 1006;
const INIT_DOMAIN: u64 = 12;
const TRAIN_DOMAIN: u64 = 13;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(seed: u64, seconds: f64, trace: &Trace) -> Outcome {
    kernel::set_threads(1);
    let root = trace.root("bench.run");
    let mut out = Outcome::default();
    let config = DeepMoodConfig::default();
    let dims = biaffect_view_dims();

    // --- set-up: cohort, split, normalisation, model init ---
    let (mut setup_s, mut generate_ms, mut normalize_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut data = None;
    for _ in 0..SETUP_REPEATS {
        drop(data.take());
        let span = child(&root, "bench.setup");
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
        let t = Instant::now();
        let cohort = {
            let _s = child(&span, "data.biaffect_generate");
            BiAffectDataset::generate(&BiAffectConfig::default(), &mut rng)
        };
        generate_ms.push(ms_since(t));
        let (train, test) = cohort.split(TRAIN_FRACTION, &mut rng);
        let t = Instant::now();
        let (_, train_pairs, test_pairs) = {
            let _s = child(&span, "deepmood.normalize");
            normalized_pairs(&train, &test)
        };
        normalize_ms.push(ms_since(t));
        let _model = {
            let _s = child(&span, "deepmood.init");
            DeepMood::new(&dims, config.clone(), &mut seeded(seed, INIT_DOMAIN))
        };
        setup_s.push(started.elapsed().as_secs_f64());
        data = Some((train_pairs, test_pairs));
    }
    let (train_owned, test_owned) = data.expect("set-up ran");
    let train = borrow_pairs(&train_owned);
    let test = borrow_pairs(&test_owned);
    let test_labels: Vec<usize> = test.iter().map(|(_, y)| *y).collect();

    // --- measured phase: whole trainings until the time is up ---
    let measure = child(&root, "bench.measure");
    let (mut train_s, mut forward_ms, mut predict_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut accuracies = Vec::new();
    let started = Instant::now();
    while train_s.len() < MIN_TRAININGS || started.elapsed().as_secs_f64() < seconds {
        let run_seed = mix(seed, train_s.len() as u64);
        let mut model = DeepMood::new(&dims, config.clone(), &mut seeded(run_seed, INIT_DOMAIN));
        let t = Instant::now();
        let history = {
            let _s = child(&measure, "deepmood.train");
            model.train(&train, &mut seeded(run_seed, TRAIN_DOMAIN))
        };
        train_s.push(t.elapsed().as_secs_f64());
        out.attempted += (train.len() * history.len()) as u64;
        let losses: Vec<f64> = history.iter().map(|e| e.loss).collect();
        out.violations.extend(checks::loss_decreased(&losses));

        // evaluation, one session at a time: training set, then test set
        let mut timed_logits = |views: &[&Matrix]| {
            let _s = child(&measure, "deepmood.logits");
            let t = Instant::now();
            let logits = model.logits(views);
            let elapsed = ms_since(t);
            predict_ms.push(elapsed);
            (logits, elapsed)
        };
        let mut forward = 0.0;
        for (views, _) in &train {
            forward += timed_logits(views).1;
        }
        forward_ms.push(forward);
        let mut predictions = Vec::with_capacity(test.len());
        for (views, _) in &test {
            let (logits, _) = timed_logits(views);
            out.violations.extend(checks::all_finite(logits.as_slice(), "DeepMood logits"));
            predictions.push(checks::argmax(logits.row(0)));
        }
        let correct = predictions.iter().zip(&test_labels).filter(|(p, y)| p == y).count();
        let accuracy = correct as f64 / test.len() as f64;
        out.violations.extend(checks::beats_majority(accuracy, &test_labels, MOOD_CLASSES));
        accuracies.push(accuracy);
    }
    drop(measure);
    out.violations.dedup();

    // pooled over the whole run: the fastest training, or one training's
    // tail of ~40 µs predictions, is set by single bursts on the host
    let latency = stats::sorted(&predict_ms);
    let training_s: f64 = train_s.iter().sum();
    out.end_to_end = vec![
        metric("setup_s", "s", stats::median(&setup_s)),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric(
            "accuracy",
            "frac",
            accuracies[..MIN_TRAININGS].iter().sum::<f64>() / MIN_TRAININGS as f64,
        ),
        metric("ops_per_s", "1/s", out.attempted as f64 / training_s),
        metric("latency_p50_ms", "ms", stats::percentile(&latency, 50.0)),
    ];
    if trace.is_on() {
        // GEMM tallies from one extra epoch: the profile's clock reads
        // would slow the timed trainings
        let one_epoch = DeepMoodConfig { epochs: 1, ..config.clone() };
        let mut model = DeepMood::new(&dims, one_epoch, &mut seeded(seed, INIT_DOMAIN));
        profile::reset();
        profile::enable(mdl_obs::Clock::wall());
        {
            let _s = child(&root, "deepmood.profiled_epoch");
            model.train(&train, &mut seeded(seed, TRAIN_DOMAIN));
        }
        profile::disable();
        let (calls, flops) = profile_totals();
        let epoch_ms = stats::median(&train_s) * 1e3 / config.epochs as f64;
        let forward = stats::median(&forward_ms);
        let fed = fedavg::layers(seed, &root);
        out.attempted += fed.attempted;
        out.failed += fed.failed;
        out.violations.extend(fed.violations);
        out.per_layer = fed.metrics;
        out.per_layer.extend([
            metric("deepmood.predict_ms.p99", "ms", stats::percentile(&latency, 99.0)),
            metric("deepmood.forward_ms", "ms", forward),
            metric("deepmood.backward_step_ms", "ms", epoch_ms - forward),
            metric("kernel.gemm_calls", "count", calls as f64),
            metric("kernel.gemm_gflop", "GFLOP", flops as f64 / 1e9),
            metric("data.biaffect_generate_ms", "ms", stats::median(&generate_ms)),
            metric("deepmood.normalize_ms", "ms", stats::median(&normalize_ms)),
        ]);
    }
    out
}
