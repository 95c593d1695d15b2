//! The serving workload: the int8 exp_serving MLP on one worker under
//! open-loop Poisson load at about an eighth of its capacity.
//!
//! One load thread submits every request through `ServeClient::submit`
//! and collects every answer. It waits for each request's due time by
//! polling and yielding rather than sleeping, so it submits on time
//! instead of when an idle vCPU happens to wake. A request's latency is
//! how late the load thread submitted it plus the server's own submit →
//! deliver time, `InferenceResponse.latency`; the load thread checks that
//! the latter never exceeds what it observed itself.

use crate::checks::{self, Answer, Slot};
use crate::report::{child, metric, peak_rss_mb, Outcome, Trace};
use crate::{seeded, stats};
use crossbeam::channel::{Receiver, TryRecvError};
use mdl_nn::{Activation, Dense, Plan, PlanModel, PlanOptions, QuantizedModel, Sequential};
use mdl_obs::Span;
use mdl_serve::{
    arrival_schedule, ClientProfile, DeviceClass, InferenceResponse, InferenceServer, NetworkClass,
    ServeClient, ServeConfig,
};
use mdl_tensor::kernel::{self, profile, Trans};
use mdl_tensor::quant::quantize_slice;
use mdl_tensor::stats::softmax_rows;
use mdl_tensor::{Int8Matrix, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// About 12% of one worker's int8 capacity (~1,700 rps) when the host
/// runs at full speed. Batches stay timer-driven, and a host slowdown or
/// stall adds its own length to the requests it covers without building
/// a queue that outlasts it: at 500 rps the same run's p99 ranged 6 to
/// 97 ms with the host's load.
const RPS: f64 = 200.0;
const MAX_BATCH: usize = 8;
/// The exp_serving model: 32 → 3072 → 3072 → 10, fixed weights.
const MODEL_SEED: u64 = 42;
const IN_DIM: usize = 32;
const HIDDEN: usize = 3072;
const CLASSES: usize = 10;
/// Distinct input rows; requests draw rows from them.
const INPUT_ROWS: usize = 256;
const SETUP_REPEATS: usize = 3;
/// Longest the load thread waits for any one answer.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);
/// Attempts to form each batch size during warm-up.
const WARM_ATTEMPTS: usize = 50;
/// The run's answers are cut into consecutive parts of this many (about
/// 2.5 s each), and the lower quartile of the parts' p50s is reported:
/// the host's bursts of slowness land in some parts and leave the others
/// as the program alone makes them.
const PART_ANSWERS: usize = 500;
/// Answers every run must collect: at least 40 beyond the traced run's
/// p99, in at least eight parts.
const MIN_ANSWERS: usize = 4000;

const INPUT_DOMAIN: u64 = 1;
const SCHEDULE_DOMAIN: u64 = 2;
const ROW_DOMAIN: u64 = 3;

fn mlp() -> Sequential {
    let mut rng = seeded(MODEL_SEED, 0);
    let mut net = Sequential::new();
    net.push(Dense::new(IN_DIM, HIDDEN, Activation::Relu, &mut rng));
    net.push(Dense::new(HIDDEN, HIDDEN, Activation::Relu, &mut rng));
    net.push(Dense::new(HIDDEN, CLASSES, Activation::Identity, &mut rng));
    net
}

fn quantized(model: &mut Sequential) -> QuantizedModel {
    QuantizedModel::from_model(model).expect("an all-Dense model quantizes")
}

/// A wearable on Wi-Fi: the router sends this model's requests to the
/// batched cloud path.
fn profile_of_client() -> ClientProfile {
    ClientProfile { device: DeviceClass::Wearable, network: NetworkClass::Wifi }
}

fn inputs(seed: u64) -> Matrix {
    let mut rng = seeded(seed, INPUT_DOMAIN);
    Matrix::from_fn(INPUT_ROWS, IN_DIM, |_, _| rng.gen_range(-1.0f32..1.0))
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: MAX_BATCH,
        max_wait: Duration::from_millis(2),
        queue_capacity: 4096,
        shed_queue_depth: 4096,
        kernel_threads: Some(1),
        obs: None,
    }
}

/// Per-row answers computed apart from the server: the argmax of the f32
/// model run layer by layer on that row alone, and the probabilities of
/// the dynamic int8 path on that row alone.
struct References {
    f32_argmax: Vec<usize>,
    int8_solo: Vec<Vec<f32>>,
}

fn references(model: &Sequential, q: &QuantizedModel, x: &Matrix) -> References {
    let row = |r: usize| Matrix::row_vector(x.row(r));
    let f32_argmax = (0..x.rows())
        .map(|r| {
            let logits = model.layers().iter().fold(row(r), |h, layer| layer.forward_eval(&h));
            checks::argmax(softmax_rows(&logits).row(0))
        })
        .collect();
    let int8_solo =
        (0..x.rows()).map(|r| softmax_rows(&q.forward_eval(&row(r))).row(0).to_vec()).collect();
    References { f32_argmax, int8_solo }
}

/// Submits bursts of each batch size until the one worker has served
/// (and so planned) every shape from 1 to `MAX_BATCH`.
fn warm_up(server: &InferenceServer, x: &Matrix) -> Result<(), String> {
    let client = server.client();
    for b in 1..=MAX_BATCH {
        let mut formed = false;
        for _ in 0..WARM_ATTEMPTS {
            let receivers = (0..b)
                .map(|i| client.submit(x.row(i), profile_of_client()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("warm-up submit: {e}"))?;
            let mut sizes = Vec::with_capacity(b);
            for rx in receivers {
                let resp = rx.recv_timeout(ANSWER_TIMEOUT).map_err(|_| "warm-up answer lost")?;
                sizes.push(resp.batch_size);
            }
            if sizes.iter().all(|&s| s == b) {
                formed = true;
                break;
            }
        }
        if !formed {
            return Err(format!("warm-up never formed a batch of {b}"));
        }
    }
    Ok(())
}

fn plan_misses(server: &InferenceServer) -> u64 {
    server.obs().snapshot().counter("plan.cache_misses").unwrap_or(0)
}

/// Timing of one submitted request.
#[derive(Debug, Clone, Copy)]
struct Sent {
    /// How late the load thread submitted.
    late: Duration,
    /// Time inside `submit`.
    submit: Duration,
    at: Instant,
}

/// The load thread's bookkeeping across one measured phase.
struct Phase {
    /// Draws each request's input row.
    rows: StdRng,
    /// Input row of each request.
    row: Vec<usize>,
    sent: Vec<Sent>,
    slots: Vec<Slot>,
    duplicates: usize,
    outstanding: VecDeque<(usize, Receiver<InferenceResponse>)>,
}

impl Phase {
    fn new(seed: u64) -> Self {
        Self {
            rows: seeded(seed, ROW_DOMAIN),
            row: Vec::new(),
            sent: Vec::new(),
            slots: Vec::new(),
            duplicates: 0,
            outstanding: VecDeque::new(),
        }
    }

    /// Submits the next request, due at `due`.
    fn submit(&mut self, due: Instant, client: &ServeClient, x: &Matrix, parent: &Option<Span>) {
        let row = self.rows.gen_range(0..INPUT_ROWS);
        let span = child(parent, "serve.submit");
        let at = Instant::now();
        let result = client.submit(x.row(row), profile_of_client());
        let submit = at.elapsed();
        drop(span);
        let late = at.saturating_duration_since(due);
        let i = self.slots.len();
        self.row.push(row);
        self.sent.push(Sent { late, submit, at });
        self.slots.push(match result {
            Ok(rx) => {
                self.outstanding.push_back((i, rx));
                Slot::Pending
            }
            Err(_) => Slot::Failed,
        });
    }

    fn settle(
        &mut self,
        i: usize,
        received: Result<InferenceResponse, ()>,
        rx: &Receiver<InferenceResponse>,
    ) {
        let Ok(resp) = received else {
            self.slots[i] = Slot::Failed;
            return;
        };
        if rx.try_recv().is_ok() {
            self.duplicates += 1;
        }
        self.slots[i] = Slot::Answered(Answer {
            row: self.row[i],
            argmax: checks::argmax(&resp.probs),
            probs: resp.probs,
            route: resp.route,
            batch_size: resp.batch_size,
            server_ms: ms(resp.latency),
            observed_ms: ms(self.sent[i].at.elapsed()),
        });
    }

    /// Collects every answer that has already arrived.
    fn collect_ready(&mut self) {
        let mut pending = std::mem::take(&mut self.outstanding);
        pending.retain(|(i, rx)| match rx.try_recv() {
            Ok(resp) => {
                self.settle(*i, Ok(resp), rx);
                false
            }
            Err(TryRecvError::Empty) => true,
            Err(TryRecvError::Disconnected) => {
                self.settle(*i, Err(()), rx);
                false
            }
        });
        self.outstanding = pending;
    }

    /// Waits for the oldest outstanding answer.
    fn wait_oldest(&mut self) {
        if let Some((i, rx)) = self.outstanding.pop_front() {
            let received = rx.recv_timeout(ANSWER_TIMEOUT).map_err(|_| ());
            self.settle(i, received, &rx);
        }
    }
}

/// Submits `RPS × seconds` requests on their Poisson schedule, then
/// waits for the stragglers.
fn open_loop(
    seed: u64,
    seconds: f64,
    start: Instant,
    client: &ServeClient,
    x: &Matrix,
    span: &Option<Span>,
) -> Phase {
    let n = (RPS * seconds).round().max(1.0) as usize;
    let schedule = arrival_schedule(crate::mix(seed, SCHEDULE_DOMAIN), RPS, n);
    let mut phase = Phase::new(seed);
    for &offset_ns in &schedule {
        let due = start + Duration::from_nanos(offset_ns);
        loop {
            phase.collect_ready();
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::yield_now();
        }
        phase.submit(due, client, x, span);
    }
    while !phase.outstanding.is_empty() {
        phase.wait_oldest();
    }
    phase
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(seed: u64, seconds: f64, trace: &Trace) -> Outcome {
    let root = trace.root("bench.run");
    let mut out = Outcome::default();

    // --- set-up, repeated; the last server stays up for the run ---
    let mut setup_s = Vec::new();
    let mut quant_ms = Vec::new();
    let mut refs = None;
    let mut server: Option<InferenceServer> = None;
    let mut x = Matrix::default();
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        let span = child(&root, "bench.setup");
        let started = Instant::now();
        x = inputs(seed);
        let mut model = mlp();
        let q = {
            let _s = child(&span, "quant.from_model");
            let t = Instant::now();
            let q = quantized(&mut model);
            quant_ms.push(ms(t.elapsed()));
            q
        };
        let built = started.elapsed();
        if refs.is_none() {
            let _s = child(&span, "bench.references");
            refs = Some(references(&model, &q, &x));
        }
        let started = Instant::now();
        let s = {
            let _s = child(&span, "serve.start");
            InferenceServer::start(q, None, config())
        };
        let warmed = {
            let _s = child(&span, "serve.warm_up");
            warm_up(&s, &x)
        };
        if let Err(e) = warmed {
            out.violations.push(e);
        }
        setup_s.push((built + started.elapsed()).as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("set-up ran");
    let refs = refs.expect("references computed");

    // --- measured phase ---
    let misses_before = plan_misses(&server);
    if trace.is_on() {
        profile::reset();
        profile::enable(mdl_obs::Clock::wall());
    }
    let client = server.client();
    let measure = child(&root, "bench.measure");
    let started = Instant::now();
    let phase = open_loop(seed, seconds, started, &client, &x, &measure);
    drop(measure);
    profile::disable();
    let (gemm_calls, gemm_flops) = profile_totals();
    let misses = plan_misses(&server).saturating_sub(misses_before);
    drop(client);
    server.shutdown();

    // --- correctness ---
    let slots = &phase.slots;
    out.violations.extend(checks::delivered_exactly_once(slots, phase.duplicates));
    out.violations.extend(checks::all_batched(slots));
    out.violations.extend(checks::latency_within_observed(slots));
    let accuracy = checks::argmax_agreement(slots, &refs.f32_argmax);
    out.violations.extend(checks::int8_agreement(accuracy));

    // --- end-to-end: throughput over the whole run, latency from its parts ---
    let answered: Vec<(usize, &Answer)> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            Slot::Answered(a) => Some((i, a)),
            _ => None,
        })
        .collect();
    out.attempted = slots.len() as u64;
    out.failed = slots.iter().filter(|s| matches!(s, Slot::Failed)).count() as u64;
    let latency: Vec<f64> =
        answered.iter().map(|(i, a)| ms(phase.sent[*i].late) + a.server_ms).collect();
    // when the last answer reached the load thread, in seconds from the start
    let last_done = answered
        .iter()
        .map(|(i, a)| phase.sent[*i].at.duration_since(started).as_secs_f64() + a.observed_ms / 1e3)
        .fold(0.0, f64::max);
    if latency.len() < MIN_ANSWERS {
        out.violations.push(format!(
            "{} answers are too few (at least {MIN_ANSWERS}); run longer",
            latency.len()
        ));
        return out;
    }
    let parts: Vec<&[f64]> = latency.chunks_exact(PART_ANSWERS).collect();
    out.end_to_end = vec![
        metric("setup_s", "s", stats::median(&setup_s)),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric("accuracy", "frac", accuracy),
        metric("ops_per_s", "1/s", answered.len() as f64 / last_done),
        metric(
            "latency_p50_ms",
            "ms",
            stats::lower_quartile(&stats::part_percentiles(&parts, 50.0)),
        ),
    ];
    if !trace.is_on() {
        return out;
    }

    // --- per-layer (traced runs) ---
    let server_ms = stats::sorted(&answered.iter().map(|(_, a)| a.server_ms).collect::<Vec<_>>());
    let submit_us = stats::sorted(
        &answered
            .iter()
            .map(|(i, _)| phase.sent[*i].submit.as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    );
    let late_max = phase.sent.iter().map(|s| ms(s.late)).fold(0.0, f64::max);
    let batches: f64 = answered.iter().map(|(_, a)| 1.0 / a.batch_size as f64).sum();
    let batch_rows = answered.len() as f64 / batches;
    let (flips, mismatches) = checks::solo_differences(slots, &refs.int8_solo);

    let bench = child(&root, "bench.microbench");
    let mut model = mlp();
    let q = quantized(&mut model);
    let sizes: BTreeSet<usize> =
        answered.iter().map(|(_, a)| a.batch_size).chain([1, 2, 4, 8]).collect();
    let int8_us: Vec<(usize, PlanTiming)> = sizes
        .into_iter()
        .map(|rows| (rows, time_plan(PlanModel::Int8(&q), &x, rows, 21, &bench)))
        .collect();
    let int8_at =
        |rows: usize| int8_us.iter().find(|(r, _)| *r == rows).map_or(0.0, |(_, t)| t.run_us);
    let f32_b32 = time_plan(PlanModel::F32(&model), &x, 32, 5, &bench);
    let int8_max = int8_us.iter().find(|(r, _)| *r == MAX_BATCH).map(|(_, t)| t).expect("timed");
    let wait_ms = stats::sorted(
        &answered
            .iter()
            .map(|(_, a)| a.server_ms - int8_at(a.batch_size) / 1e3)
            .collect::<Vec<_>>(),
    );
    let (f32_gflops, i8_gops) = kernel_rates(&model, &x, &bench);
    drop(bench);
    let weight_bytes = (IN_DIM * HIDDEN + HIDDEN * HIDDEN + HIDDEN * CLASSES) as f64;
    let activation_bytes = (IN_DIM + 2 * HIDDEN + CLASSES) as f64;
    let n = answered.len() as f64;

    out.per_layer = vec![
        metric("serve.latency_ms.p99", "ms", stats::percentile(&stats::sorted(&latency), 99.0)),
        metric("serve.submit_us.p50", "us", stats::percentile(&submit_us, 50.0)),
        metric("serve.server_latency_ms.p50", "ms", stats::percentile(&server_ms, 50.0)),
        metric("serve.wait_ms.p50", "ms", stats::percentile(&wait_ms, 50.0)),
        metric("serve.batch_rows.mean", "rows", batch_rows),
        metric("serve.plan_misses", "count", misses as f64),
        metric("loadgen.late_ms.max", "ms", late_max),
        metric("plan.run_us.int8.b1", "us", int8_at(1)),
        metric("plan.run_us.int8.b2", "us", int8_at(2)),
        metric("plan.run_us.int8.b4", "us", int8_at(4)),
        metric("plan.run_us.int8.b8", "us", int8_at(8)),
        metric("plan.run_us.f32.b32", "us", f32_b32.run_us),
        metric("plan.compile_ms", "ms", int8_max.compile_ms),
        metric("quant.from_model_ms", "ms", stats::median(&quant_ms)),
        metric("plan.arena_bytes", "bytes", int8_max.arena_bytes),
        metric("int8.solo_argmax_flips", "count", flips as f64),
        metric("int8.solo_prob_mismatch", "count", mismatches as f64),
        metric("kernel.f32.gflops.m32", "GFLOP/s", f32_gflops),
        metric("kernel.i8.gops.m8", "GOP/s", i8_gops),
        metric("kernel.gemm_calls", "count", gemm_calls as f64 / n),
        metric("kernel.gemm_gflop", "GFLOP", gemm_flops as f64 / 1e9 / n),
        metric("kernel.bytes_per_request", "bytes", weight_bytes / batch_rows + activation_bytes),
    ];
    out
}

/// Summed GEMM calls and FLOPs the kernel profile tallied.
pub fn profile_totals() -> (u64, u64) {
    let (tallies, _) = profile::snapshot();
    tallies.iter().fold((0, 0), |(c, f), t| (c + t.calls, f + t.total_flops()))
}

/// One plan shape, measured around `Plan::compile` and `Plan::run`.
struct PlanTiming {
    compile_ms: f64,
    /// Median of the timed runs, after one untimed run.
    run_us: f64,
    arena_bytes: f64,
}

fn time_plan(
    pm: PlanModel<'_>,
    x: &Matrix,
    rows: usize,
    reps: usize,
    parent: &Option<Span>,
) -> PlanTiming {
    let batch = Matrix::from_fn(rows, IN_DIM, |r, c| x.row(r)[c]);
    let compiled = Instant::now();
    let mut plan = {
        let _s = child(parent, "plan.compile");
        Plan::compile(pm, rows, IN_DIM, PlanOptions::default()).expect("the MLP plans")
    };
    let compile_ms = ms(compiled.elapsed());
    let mut out = Matrix::default();
    plan.run(pm, &batch, &mut out);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let _s = child(parent, "plan.run");
            let t = Instant::now();
            plan.run(pm, &batch, &mut out);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    PlanTiming {
        compile_ms,
        run_us: stats::median(&samples),
        arena_bytes: plan.stats().arena_bytes as f64,
    }
}

/// The layer-2 GEMM alone, on the ReLU-sparse layer-1 activations of the
/// workload's inputs: f32 `kernel::gemm` at 32×3072×3072 and int8
/// `Int8Matrix::gemm_into` at 8×3072×3072, medians of seven calls.
/// Returns `(f32 GFLOP/s, int8 GOP/s)`.
fn kernel_rates(model: &Sequential, x: &Matrix, parent: &Option<Span>) -> (f64, f64) {
    let layers = model.layers();
    let w2 = layers[1]
        .as_any()
        .and_then(|a| a.downcast_ref::<Dense>())
        .expect("layer 2 is Dense")
        .weight();
    let h1 = layers[0].forward_eval(&Matrix::from_fn(32, IN_DIM, |r, c| x.row(r)[c]));
    let time = |f: &mut dyn FnMut()| -> f64 {
        f();
        let samples: Vec<f64> = (0..7)
            .map(|_| {
                let _s = child(parent, "kernel.gemm");
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        stats::median(&samples)
    };
    let ops = |rows: usize| 2.0 * (rows * HIDDEN * HIDDEN) as f64;

    let mut out = vec![0.0f32; 32 * HIDDEN];
    let f32_s = time(&mut || {
        kernel::gemm(
            Trans::N,
            Trans::N,
            32,
            HIDDEN,
            HIDDEN,
            h1.as_slice(),
            w2.as_slice(),
            &mut out,
            false,
        )
    });

    let wq = Int8Matrix::quantize(w2);
    let mut xq = vec![0i8; 8 * HIDDEN];
    for (r, row) in xq.chunks_mut(HIDDEN).enumerate() {
        quantize_slice(h1.row(r), row);
    }
    let mut acc = vec![0i32; 8 * HIDDEN];
    let i8_s = time(&mut || wq.gemm_into(8, &xq, &mut acc, false));
    (ops(32) / f32_s / 1e9, ops(8) / i8_s / 1e9)
}
