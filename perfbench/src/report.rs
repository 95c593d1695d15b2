//! What a run reports: the operation counts, the metrics, the result
//! line, and — in traced runs — the spans and per-layer metrics written
//! out as one canonical `mdl_obs` snapshot.

use mdl_obs::{Clock, Json, Obs, ObsSnapshot, Span};
use std::path::PathBuf;

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests, or sessions trained (and, in the
    /// traced run, the federated section's rounds).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Correctness checks that did not hold, one line each.
    pub violations: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The end-to-end metrics as `(name, unit)`, in the order every workload
/// reports them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "frac"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// The per-layer metrics as `(name, unit)`; every traced run reports all
/// of them, and a layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("serve.latency_ms.p99", "ms"),
    ("serve.submit_us.p50", "us"),
    ("serve.server_latency_ms.p50", "ms"),
    ("serve.wait_ms.p50", "ms"),
    ("serve.batch_rows.mean", "rows"),
    ("serve.plan_misses", "count"),
    ("loadgen.late_ms.max", "ms"),
    ("plan.run_us.int8.b1", "us"),
    ("plan.run_us.int8.b2", "us"),
    ("plan.run_us.int8.b4", "us"),
    ("plan.run_us.int8.b8", "us"),
    ("plan.run_us.f32.b32", "us"),
    ("plan.compile_ms", "ms"),
    ("quant.from_model_ms", "ms"),
    ("plan.arena_bytes", "bytes"),
    ("int8.solo_argmax_flips", "count"),
    ("int8.solo_prob_mismatch", "count"),
    ("deepmood.predict_ms.p99", "ms"),
    ("deepmood.forward_ms", "ms"),
    ("deepmood.backward_step_ms", "ms"),
    ("kernel.f32.gflops.m32", "GFLOP/s"),
    ("kernel.i8.gops.m8", "GOP/s"),
    ("kernel.gemm_calls", "count"),
    ("kernel.gemm_gflop", "GFLOP"),
    ("kernel.bytes_per_request", "bytes"),
    ("data.biaffect_generate_ms", "ms"),
    ("deepmood.normalize_ms", "ms"),
    ("sim.population_build_ms", "ms"),
    ("fed.local_train_us.p50", "us"),
    ("fed.local_train_share", "frac"),
    ("fed.round_ms", "ms"),
    ("fed.client_data_us.p50", "us"),
    ("sim.cohort_sample_us", "us"),
    ("agg.accumulate_us", "us"),
    ("sim.events", "count"),
    ("fed.selected", "count"),
    ("fed.delivered", "count"),
    ("fed.delivered_per_selected", "frac"),
    ("net.bytes_up", "bytes"),
    ("net.bytes_down", "bytes"),
    ("net.wasted_bytes", "bytes"),
    ("kernel.gemm_calls.round", "count"),
    ("kernel.gemm_gflop.round", "GFLOP"),
];

/// Checks that `metrics` holds exactly the `declared` names, once each,
/// in their declared units and with finite values; returns one line per
/// problem.
pub fn check_metric_set(metrics: &[Metric], declared: &[(&str, &str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, _) in declared {
        match metrics.iter().filter(|m| m.name == *name).count() {
            1 => {}
            0 => problems.push(format!("metric {name} missing")),
            n => problems.push(format!("metric {name} reported {n} times")),
        }
    }
    for m in metrics {
        match declared.iter().find(|(name, _)| *name == m.name) {
            None => problems.push(format!("metric {} is not declared", m.name)),
            Some((_, unit)) if *unit != m.unit => {
                problems.push(format!("metric {} in {}, declared in {unit}", m.name, m.unit))
            }
            Some(_) => {}
        }
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    problems
}

/// The single JSON line the run ends with. Non-finite values must be
/// filtered out before (JSON has no NaN).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let body = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::str(m.unit)),
            ]);
            (m.name.to_string(), body)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(attempted)),
        ("failed".into(), Json::u64(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Spans kept in memory by a traced run; enough for one span per request,
/// session or client update of a run.
const SPAN_CAPACITY: usize = 1 << 18;

/// The benchmark's own span recorder: spans around each call into a
/// layer, kept in memory and written out when the run ends. Untraced
/// runs carry an inert recorder.
#[derive(Clone)]
pub struct Trace(Option<Obs>);

impl Trace {
    pub fn new(on: bool) -> Self {
        Self(on.then(|| Obs::with_clock(Clock::wall(), SPAN_CAPACITY)))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a top-level span (none when tracing is off).
    pub fn root(&self, name: &'static str) -> Option<Span> {
        self.0.as_ref().map(|obs| obs.root_span(name))
    }

    /// Writes the spans, the per-layer metrics and this run's end-to-end
    /// figures (as `e2e.*` gauges) to `out/<workload>.trace.json` in the
    /// benchmark directory, then reads the file back through
    /// `ObsSnapshot::from_json` to prove it is canonical.
    pub fn write(
        &self,
        workload: &str,
        end_to_end: &[Metric],
        per_layer: &[Metric],
    ) -> Result<PathBuf, String> {
        let obs = self.0.as_ref().ok_or("tracing is off")?;
        for m in per_layer {
            obs.registry().gauge(m.name).set(m.value);
        }
        for m in end_to_end {
            obs.registry().gauge(&format!("e2e.{}", m.name)).set(m.value);
        }
        let snapshot = obs.snapshot();
        let text = snapshot.to_json();
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
        let back = std::fs::read_to_string(&path).map_err(|e| format!("read back: {e}"))?;
        let parsed = ObsSnapshot::from_json(&back).map_err(|e| format!("reparse: {e:?}"))?;
        if parsed != snapshot {
            return Err("trace file does not round-trip through mdl_obs::json".into());
        }
        Ok(path)
    }
}

/// A child of `parent`, when there is one.
pub fn child(parent: &Option<Span>, name: &'static str) -> Option<Span> {
    parent.as_ref().map(|p| p.child(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 1, &[metric("latency_p50_ms", "ms", 1.25)]);
        let doc = Json::parse(&line).expect("result line is JSON");
        let Json::Obj(members) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").and_then(|m| m.get("latency_p50_ms")).expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn metric_set_check_catches_missing_extra_misunit_and_nan() {
        let declared = [("a", "s"), ("b", "ms")];
        let ok = [metric("a", "s", 1.0), metric("b", "ms", 2.0)];
        assert!(check_metric_set(&ok, &declared).is_empty());
        assert_eq!(check_metric_set(&ok[..1], &declared).len(), 1);
        assert_eq!(check_metric_set(&ok, &declared[..1]).len(), 1);
        assert_eq!(check_metric_set(&[metric("a", "ms", 1.0)], &declared[..1]).len(), 1);
        assert_eq!(check_metric_set(&[metric("a", "s", f64::NAN)], &declared[..1]).len(), 1);
    }

    #[test]
    fn peak_rss_is_read_from_this_process() {
        let mb = peak_rss_mb();
        assert!(mb > 0.0 && mb.is_finite(), "VmHWM = {mb}");
    }
}
