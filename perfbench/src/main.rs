//! End-to-end and per-layer benchmark of the mobile-dl stack: live int8
//! serving and DeepMood training end to end, with the layers under a
//! population-scale FedAvg round read in DeepMood's traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). A traced run also writes its spans
//! and metrics to `perfbench/out/<workload>.trace.json`. The process
//! exits non-zero when any correctness check fails. See README.md.

mod checks;
mod deepmood;
mod fedavg;
mod report;
mod serve;
mod stats;

use rand::rngs::StdRng;
use rand::SeedableRng;
use report::{Outcome, Trace, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <serve_int8_poisson|deepmood_train> --seed <u64> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 2] = ["serve_int8_poisson", "deepmood_train"];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return Err(bad("not a positive number")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64 of `seed` under a domain tag: independent streams for the
/// separate inputs one seed makes.
pub fn mix(seed: u64, domain: u64) -> u64 {
    let mut z = seed ^ domain.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An RNG for one input stream of `seed`.
pub fn seeded(seed: u64, domain: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, domain))
}

fn run(args: &Args, trace: &Trace) -> Outcome {
    match args.workload.as_str() {
        "serve_int8_poisson" => serve::run(args.seed, args.seconds, trace),
        "deepmood_train" => deepmood::run(args.seed, args.seconds, trace),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let trace = Trace::new(args.trace);
    let mut outcome = run(&args, &trace);

    outcome.violations.extend(report::check_metric_set(&outcome.end_to_end, &END_TO_END));
    if args.trace {
        let idle: Vec<_> = PER_LAYER
            .iter()
            .filter(|(name, _)| !outcome.per_layer.iter().any(|m| m.name == *name))
            .map(|&(name, unit)| report::metric(name, unit, 0.0))
            .collect();
        outcome.per_layer.extend(idle);
        outcome.violations.extend(report::check_metric_set(&outcome.per_layer, &PER_LAYER));
        match trace.write(&args.workload, &outcome.end_to_end, &outcome.per_layer) {
            Ok(path) => eprintln!("trace written to {}", path.display()),
            Err(e) => outcome.violations.push(e),
        }
    }
    let shown = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    for m in shown {
        eprintln!("{:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!("attempted {} failed {}", outcome.attempted, outcome.failed);
    if !outcome.violations.is_empty() {
        for v in &outcome.violations {
            eprintln!("CHECK FAILED: {v}");
        }
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(true, outcome.attempted, outcome.failed, shown));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "deepmood_train",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            args,
            Args { workload: "deepmood_train".into(), seed: 7, seconds: 12.0, trace: true }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
            &["--workload", "deepmood_train", "--seed", "-1", "--seconds", "1", "--trace", "0"],
            &["--workload", "deepmood_train", "--seed", "1", "--seconds", "0", "--trace", "0"],
            &["--workload", "deepmood_train", "--seed", "1", "--seconds", "1", "--trace", "2"],
            &["--workload", "deepmood_train", "--seed", "1", "--seconds", "1"],
            &["--seed"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn seed_streams_are_stable_and_separate() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
