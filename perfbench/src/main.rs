//! `mics-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_compute|train_wire|plan_serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) times the layers from outside, through the public
//! calls the benchmark makes into them, and prints the per-layer metrics.
//! The last line of standard output is one JSON result object. See
//! `perfbench/README.md` for the workloads and the metric map.

mod gen;
mod plan;
mod report;
mod stats;
mod train;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["train_compute", "train_wire", "plan_serve"];

/// Kernel knobs that would make the numbers describe another program than
/// the default build.
const KNOBS: &[&str] = &["MICS_KERNEL_THREADS", "MICS_KERNEL_SIMD"];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mics-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("mics-perfbench: refusing to run with {knob} set; unset it to measure the default program");
        return ExitCode::from(2);
    }

    let transport = match args.workload.as_str() {
        "train_compute" => "local",
        "train_wire" => "socket",
        _ => "unix-socket planner",
    };
    println!(
        "host: nproc {} simd_available {} simd_active {} kernel_threads {} transport {transport}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        mics_minidl::simd_available(),
        mics_minidl::simd_active(),
        mics_minidl::kernel_threads(),
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut report = Report::default();
    match args.workload.as_str() {
        "train_compute" => train::run(
            &train::TrainJob::compute(),
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "train_wire" => {
            train::run(&train::TrainJob::wire(), args.seed, args.seconds, args.trace, &mut report)
        }
        _ => plan::run(args.seed, args.seconds, args.trace, &mut report),
    }
    let failed = report.failed as f64 / report.attempted.max(1) as f64;
    println!("metric error_rate = {failed} ({} of {} failed)", report.failed, report.attempted);
    println!("metric peak_rss_mb = {:.1} MB", report::peak_rss_mb());
    println!("{}", report.result_line(if args.trace { PER_LAYER } else { END_TO_END }));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args("--workload train_wire --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "train_wire".into(), seed: 7, seconds: 20.0, trace: true });
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads() {
        let doc = mics_core::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(mics_core::Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(mics_core::Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1",
            "--workload plan_serve --seed x",
            "--workload plan_serve --trace 2",
            "--workload plan_serve --seconds -1",
            "--workload plan_serve --seed",
            "--workload plan_serve --bogus 1",
            "--workload plan_serve --smoke",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
