//! The repository benchmark: end-to-end and per-layer figures of the
//! ElasticRec serving path and simulator, one workload per run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload rm1-sparse --seed 1 --seconds 20 --trace 0 [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the metrics: the end-to-end ones with
//! `--trace 0`, the per-layer ones with `--trace 1`. See `README.md`.

// A benchmark measures real elapsed time, which the workspace lint
// configuration keeps out of the program's deterministic paths.
#![allow(clippy::disallowed_methods)]

mod fig19;
mod host;
mod load;
mod reference;
mod report;
mod rng;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use load::Tally;
use report::{Report, PER_LAYER};
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["rm1-sparse", "rm3-dense", "fig19-elastic"];

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl RunArgs {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut smoke = false;
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of (0, 600]"));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        })
    }

    /// Where a traced run writes its spans, relative to the working
    /// directory (the repository root).
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}{}.txt",
            self.workload,
            self.seed,
            if self.smoke { "-smoke" } else { "" }
        ))
    }
}

/// Adds a phase tally to the report; an output that failed its inline
/// check makes the run incorrect.
pub fn tally_into(report: &mut Report, tally: &Tally) {
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    if tally.failed > 0 {
        report.fail(format!(
            "{} of {} requests failed their output check or were refused",
            tally.failed, tally.attempted
        ));
    }
}

/// The per-layer table, one metric a line.
pub fn layer_table(report: &Report) -> Vec<String> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = report.values.get(name).copied().unwrap_or(f64::NAN);
            format!("{name:<28} {v:>14.3} {unit}")
        })
        .collect()
}

/// Runs one workload and returns its report and, when traced, its spans.
pub fn run(args: &RunArgs) -> (Report, Option<Tracer>) {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let tracer = if args.workload == "fig19-elastic" {
        fig19::run(&fig19::spec(args.smoke), args, &mut report)
    } else {
        let spec = serving::spec(&args.workload, args.smoke).expect("workload validated");
        serving::run(&spec, args, &mut report)
    };
    // After the peak-RSS read: the copy arrays must not count there.
    let copy_mib = if args.smoke { 8 } else { 128 };
    let gbps = host::copy_gbps(copy_mib, 5);
    report.set("host.copy_gbps", gbps);
    report.notes.push(format!(
        "host: copy bandwidth {gbps:.2} GB/s (read + write, 2 x {copy_mib} MiB)"
    ));
    (report, tracer)
}

fn main() -> ExitCode {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", host::fingerprint());
    println!(
        "run: workload={} seed={} seconds={} trace={} smoke={}",
        args.workload, args.seed, args.seconds, args.trace, args.smoke
    );
    let (mut report, tracer) = run(&args);
    if let Some(tr) = tracer {
        let path = args.trace_path();
        let table = layer_table(&report);
        match tr.write(&path, &table) {
            Ok(()) => report.notes.push(format!(
                "trace: {} spans and the layer table written to {}",
                tr.spans().len(),
                path.display()
            )),
            Err(e) => report.fail(format!("writing {}: {e}", path.display())),
        }
        for line in table {
            println!("layer: {line}");
        }
    }
    let line = report.result_line(args.trace);
    for note in &report.notes {
        println!("{note}");
    }
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Report {
        let args = RunArgs {
            workload: workload.to_owned(),
            seed: 5,
            seconds: 0.4,
            trace,
            smoke: true,
        };
        let (mut report, tracer) = run(&args);
        assert_eq!(tracer.is_some(), trace);
        let line = report.result_line(trace);
        assert!(report.correct, "{workload}: {:#?}\n{line}", report.notes);
        assert!(report.attempted > 0 && report.failed == 0, "{line}");
        report
    }

    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for w in WORKLOADS {
            smoke(w, false);
            smoke(w, true);
        }
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| RunArgs::parse(s.split_whitespace().map(str::to_owned));
        assert!(parse("--workload rm1-sparse --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload rm1-sparse --seed x --seconds 2 --trace 0").is_err());
        assert!(parse("--workload rm1-sparse --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload rm1-sparse --seed 1 --trace 0").is_err());
    }
}
