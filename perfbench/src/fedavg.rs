//! The layers under one federated round, measured in the traced run of
//! `deepmood_train`: FedAvg for 20 rounds over a million-client
//! `mobile_mix` population on faulty LTE, 0.5% cohorts, driven through
//! `mdl-sim`'s `run_population` with `PopulationTask` as the trainer.
//!
//! FedAvg is not an end-to-end workload of its own: its round time and
//! client-update latencies move with the host's speed more than any
//! bound the benchmark may set (see README.md), so the federated layers
//! are read here, next to the other training workload, and checked for
//! correctness as they run.

use crate::report::{child, metric, Metric};
use crate::serve::profile_totals;
use crate::{checks, mix, stats};
use mdl_federated::PopulationTask;
use mdl_net::FaultPlan;
use mdl_obs::Span;
use mdl_sim::{
    run_population, sample_cohort, ClientTrainer, CohortSpec, Population, PopulationReport,
    PopulationSpec, ShardedAggregator, SimConfig,
};
use mdl_tensor::kernel::profile;
use std::sync::Mutex;
use std::time::Instant;

const CLIENTS: u64 = 1_000_000;
const ROUNDS: usize = 20;
/// Population builds, each timed; the median is reported.
const BUILDS: usize = 3;
/// Whole 20-round runs, each on a freshly built population; the median
/// run sets `fed.round_ms`, so the first, cold one does not.
const RUNS: usize = 3;
const TEST_EXAMPLES: usize = 1000;
/// Twice the chance level of the 4-class task.
const MIN_ACCURACY: f64 = 0.5;

const DATA_DOMAIN: u64 = 21;
const POPULATION_DOMAIN: u64 = 22;
const SIM_DOMAIN: u64 = 23;

/// exp_population's faulty-LTE engine settings at 0.5% cohorts, one
/// client trained at a time.
fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        rounds: ROUNDS,
        cohort: CohortSpec { fraction: 0.005, min_size: 32, max_size: CLIENTS as usize / 10 },
        faults: FaultPlan {
            dropout_prob: 0.1,
            straggler_prob: 0.1,
            straggler_slowdown: 2.0,
            flaky_prob: 0.05,
            flaky_loss: 0.25,
            partitions: Vec::new(),
        },
        loss_prob: 0.02,
        jitter_frac: 0.1,
        quorum_fraction: 0.5,
        wave: 1,
        seed: mix(seed, SIM_DOMAIN),
        ..SimConfig::default()
    }
}

/// `PopulationTask` with each client's local training timed and wrapped
/// in a span.
struct TimedTrainer<'a> {
    task: &'a PopulationTask,
    span: &'a Option<Span>,
    /// `(client id, local training µs)` in training order.
    samples: Mutex<Vec<(u64, f64)>>,
}

impl ClientTrainer for TimedTrainer<'_> {
    fn num_examples(&self, client: u64) -> u64 {
        self.task.num_examples(client)
    }

    fn train(&self, client: u64, seed: u64, global: &[f32]) -> Vec<f32> {
        let _s = child(self.span, "fed.local_train");
        let t = Instant::now();
        let params = self.task.train(client, seed, global);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.samples.lock().expect("no trainer panicked holding the lock").push((client, us));
        params
    }
}

/// What the federated section adds to a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Rounds run.
    pub attempted: u64,
    /// Rounds that missed quorum, or all rounds of a run that failed.
    pub failed: u64,
    pub violations: Vec<String>,
}

pub fn layers(seed: u64, parent: &Option<Span>) -> Layers {
    let root = child(parent, "fed.section");
    let mut out = Layers::default();
    let cfg = sim_config(seed);
    let spec = PopulationSpec::mobile_mix(CLIENTS, mix(seed, POPULATION_DOMAIN));
    let task = PopulationTask::blobs(mix(seed, DATA_DOMAIN));
    let test = task.test_set(TEST_EXAMPLES);

    let mut build_ms = Vec::with_capacity(BUILDS);
    let mut build = || {
        let _s = child(&root, "sim.population_build");
        let t = Instant::now();
        let population = Population::new(spec.clone());
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        population
    };
    for _ in 1..BUILDS {
        drop(build());
    }

    let mut run_s = Vec::with_capacity(RUNS);
    let mut local_us: Vec<Vec<f64>> = Vec::with_capacity(RUNS);
    let mut trained_ids = Vec::new();
    let mut last: Option<(Population, PopulationReport)> = None;
    for run in 0..RUNS {
        // a run advances every client's availability chain; start afresh
        let mut population = if run == 0 { build() } else { Population::new(spec.clone()) };
        let span = child(&root, "sim.run_population");
        let trainer = TimedTrainer { task: &task, span: &span, samples: Mutex::new(Vec::new()) };
        let t = Instant::now();
        let result = run_population(&cfg, &mut population, task.initial_params(), &trainer, None);
        run_s.push(t.elapsed().as_secs_f64());
        let samples = trainer.samples.into_inner().expect("no trainer panicked holding the lock");
        drop(span);
        local_us.push(samples.iter().map(|&(_, us)| us).collect());
        if trained_ids.is_empty() {
            trained_ids = samples.iter().map(|&(id, _)| id).collect();
        }
        out.attempted += ROUNDS as u64;
        match result {
            Ok(report) => {
                out.failed += report.rounds.iter().filter(|r| !r.quorum_met).count() as u64;
                out.violations.extend(checks::round_invariants(&report.rounds));
                if report.rounds.len() != ROUNDS {
                    out.violations.push(format!("{} of {ROUNDS} rounds ran", report.rounds.len()));
                }
                out.violations.extend(checks::all_finite(&report.final_params, "global model"));
                let model = task.spec.build_with(&report.final_params);
                let predicted = model.predict(&test.x);
                let correct = predicted.iter().zip(&test.y).filter(|(p, y)| p == y).count();
                let accuracy = correct as f64 / test.len() as f64;
                out.violations.extend(checks::accuracy_at_least(
                    accuracy,
                    MIN_ACCURACY,
                    "FedAvg held-out",
                ));
                last = Some((population, report));
            }
            Err(e) => {
                eprintln!("population run failed: {e}");
                out.failed += ROUNDS as u64;
            }
        }
    }
    out.violations.dedup();
    let Some((mut population, report)) = last else {
        out.violations.push("no population run completed".into());
        return out;
    };
    if trained_ids.is_empty() {
        out.violations.push("no client trained".into());
        return out;
    }

    let client_data_us: Vec<f64> = trained_ids
        .iter()
        .take(2000)
        .map(|&id| {
            let _s = child(&root, "fed.client_data");
            let t = Instant::now();
            let data = task.client_data(id);
            let us = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(data);
            us
        })
        .collect();
    let eligible = population.eligible_at((report.sim_clock_s * 1e9) as u64);
    let cohort_us: Vec<f64> = (1..=ROUNDS)
        .map(|round| {
            let _s = child(&root, "sim.sample_cohort");
            let t = Instant::now();
            std::hint::black_box(sample_cohort(&eligible, &cfg.cohort, cfg.seed, round));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let accumulate_us = {
        let _s = child(&root, "agg.accumulate");
        let updates = 20_000;
        let mut agg = ShardedAggregator::new(report.final_params.len(), cfg.shards);
        let t = Instant::now();
        for i in 0..updates {
            agg.accumulate(i % cfg.shards, &report.final_params, 40);
        }
        std::hint::black_box(agg.mean());
        t.elapsed().as_secs_f64() * 1e6 / updates as f64
    };
    // GEMM tallies from two extra rounds: the profile's clock reads would
    // slow the timed runs
    let profiled = SimConfig { rounds: 2, ..cfg.clone() };
    profile::reset();
    profile::enable(mdl_obs::Clock::wall());
    {
        let _s = child(&root, "sim.profiled_rounds");
        let mut fresh = Population::new(spec.clone());
        let result = run_population(&profiled, &mut fresh, task.initial_params(), &task, None);
        if let Err(e) = result {
            out.violations.push(format!("profiled rounds failed: {e}"));
        }
    }
    profile::disable();
    let (gemm_calls, gemm_flops) = profile_totals();

    let rounds = report.rounds.len().max(1) as f64;
    let selected: usize = report.rounds.iter().map(|r| r.cohort).sum();
    let delivered: usize = report.rounds.iter().map(|r| r.delivered).sum();
    let trained_us: f64 = local_us.iter().flatten().sum();
    let total_s: f64 = run_s.iter().sum();
    out.metrics = vec![
        metric("sim.population_build_ms", "ms", stats::median(&build_ms)),
        metric(
            "fed.local_train_us.p50",
            "us",
            stats::median(&stats::part_percentiles(&local_us, 50.0)),
        ),
        metric("fed.local_train_share", "frac", trained_us / 1e6 / total_s),
        metric("fed.round_ms", "ms", stats::median(&run_s) * 1e3 / ROUNDS as f64),
        metric("fed.client_data_us.p50", "us", stats::median(&client_data_us)),
        metric("sim.cohort_sample_us", "us", stats::median(&cohort_us)),
        metric("agg.accumulate_us", "us", accumulate_us),
        metric("sim.events", "count", report.events as f64 / rounds),
        metric("fed.selected", "count", selected as f64 / rounds),
        metric("fed.delivered", "count", delivered as f64 / rounds),
        metric("fed.delivered_per_selected", "frac", delivered as f64 / selected.max(1) as f64),
        metric("net.bytes_up", "bytes", report.transport.bytes_up as f64 / rounds),
        metric("net.bytes_down", "bytes", report.transport.bytes_down as f64 / rounds),
        metric("net.wasted_bytes", "bytes", report.transport.wasted_bytes as f64 / rounds),
        metric("kernel.gemm_calls.round", "count", gemm_calls as f64 / profiled.rounds as f64),
        metric(
            "kernel.gemm_gflop.round",
            "GFLOP",
            gemm_flops as f64 / 1e9 / profiled.rounds as f64,
        ),
    ];
    out
}
