//! The repository's benchmark. One run:
//!
//! ```text
//! benchmark --workload <w> --seed <n> [--seconds <s>] [--trace 0|1] [--layers]
//! ```
//!
//! prints every metric by name with its unit and ends with one JSON line
//! (`correct`, `attempted`, `failed`, `metrics`): the end-to-end metrics,
//! or with `--trace 1` / `--layers` the per-layer ones. Also:
//!
//! ```text
//! benchmark set <out.jsonl> <seed>...
//! benchmark compare <a.jsonl> <b.jsonl> --spec BENCHMARK.json
//! benchmark --smoke
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod alloc;
mod cluster_load;
mod compare;
mod hot;
mod json;
mod layers;
mod load;
mod procstat;
mod run;
mod smoke;
mod speed;
mod stats;
mod table_load;
mod trace;
mod workload;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `--seconds` when not given: `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 16;

const USAGE: &str = "usage:
  benchmark --workload <order_local|booking_cross|pm_table|failover> --seed <n> [--seconds <s>] [--trace 0|1] [--layers]
  benchmark set <out.jsonl> <seed>...
  benchmark compare <a.jsonl> <b.jsonl> --spec BENCHMARK.json
  benchmark --smoke [--spec BENCHMARK.json]";

/// The value after `flag`, if the flag is there.
fn value_of<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(at) => args
            .get(at + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn number_of(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    value_of(args, flag)?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v}: not a whole number"))
        })
        .transpose()
}

fn print_metrics(title: &str, metrics: &[run::Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn one_run(args: &[String]) -> Result<ExitCode, String> {
    let workload = value_of(args, "--workload")?.ok_or("--workload is required")?;
    if run::spec(workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = number_of(args, "--seed")?.ok_or("--seed is required")?;
    let seconds = number_of(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: must be 1 to 60"));
    }
    let trace = match value_of(args, "--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: must be 0 or 1")),
    };
    let layers = trace || args.iter().any(|a| a == "--layers");

    let report = run::run(workload, seed, seconds, layers);
    print_metrics("end to end", &report.end_to_end);
    if layers {
        print_metrics("per layer", &report.per_layer);
    }
    println!("info {}", report.info);
    let shown = if layers {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    // A violated invariant fails the run as loudly as a crash would.
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("set") => {
            let out = args.get(1).ok_or("set needs an output file")?;
            let seeds = args[2..]
                .iter()
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| format!("seed {s}: not a whole number"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            if seeds.is_empty() {
                return Err("set needs at least one seed".into());
            }
            compare::set(out, &seeds, DEFAULT_SECONDS)?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let (a, b) = (
                args.get(1).ok_or("compare needs two result sets")?,
                args.get(2).ok_or("compare needs two result sets")?,
            );
            let spec = value_of(args, "--spec")?.unwrap_or("BENCHMARK.json");
            Ok(if compare::compare(a, b, spec)? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("--smoke") => {
            let spec = value_of(args, "--spec")?
                .map(|path| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")))
                .transpose()?;
            Ok(match smoke::smoke(spec.as_deref()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(what) => {
                    eprintln!("smoke failed: {what}");
                    ExitCode::FAILURE
                }
            })
        }
        Some(_) => one_run(args),
        None => Err("nothing to do".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
