//! `benchmark --smoke`: every workload twice at `--seconds 2` with one
//! seed — once for the end-to-end metrics, once traced for the per-layer
//! ones — checking what must hold of any run.

use crate::compare::{result_and_info, run_child};
use crate::json::{self, Value};
use crate::run::SPECS;

const SEED: &str = "20070107";

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// One run; returns its metrics (name → value) and its info object.
fn run(workload: &str, trace: &str) -> Result<(Vec<(String, f64)>, Value), String> {
    let args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        SEED,
        "--seconds",
        "2",
        "--trace",
        trace,
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let lines = run_child(&args)?;
    let (result, info) = result_and_info(&lines)?;
    let (result, info) = (json::parse(result)?, json::parse(info)?);
    let who = format!("{workload} --trace {trace}");
    check(
        result.get("correct").and_then(Value::as_bool) == Some(true),
        || format!("{who}: not correct"),
    )?;
    let attempted = result
        .get("attempted")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    check(attempted >= 1.0, || format!("{who}: nothing attempted"))?;
    let mut metrics = Vec::new();
    for (name, m) in result.get("metrics").map_or(&[][..], Value::members) {
        let value = m.get("value").and_then(Value::as_f64);
        let value = value.ok_or_else(|| format!("{who}: {name} is not a finite number"))?;
        check(m.get("unit").and_then(Value::as_str).is_some(), || {
            format!("{who}: {name} has no unit")
        })?;
        metrics.push((name.clone(), value));
    }
    Ok((metrics, info))
}

fn names_in(spec: &Value, list: &str) -> Vec<String> {
    spec.get(list)
        .map_or(&[][..], Value::as_array)
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str).map(str::to_owned))
        .collect()
}

/// Runs the smoke set. With `spec` (the text of `BENCHMARK.json`), also
/// checks that every run prints exactly the metrics the file names.
pub fn smoke(spec: Option<&str>) -> Result<(), String> {
    let spec = spec.map(json::parse).transpose()?;
    if let Some(spec) = &spec {
        let listed = names_in(spec, "workloads");
        let built: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        check(listed == built, || {
            format!("BENCHMARK.json lists workloads {listed:?}, the binary has {built:?}")
        })?;
    }
    for workload in SPECS.iter().map(|s| s.name) {
        let (end_to_end, plain) = run(workload, "0")?;
        let (per_layer, traced) = run(workload, "1")?;
        for (list, metrics) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
            check(!metrics.is_empty(), || {
                format!("{workload}: no {list} metrics")
            })?;
            if let Some(spec) = &spec {
                let printed: Vec<&String> = metrics.iter().map(|(n, _)| n).collect();
                let listed = names_in(spec, list);
                check(printed.iter().copied().eq(listed.iter()), || {
                    format!("{workload}: {list} metrics printed {printed:?}, BENCHMARK.json lists {listed:?}")
                })?;
            }
        }
        for (name, value) in &end_to_end {
            check(*value > 0.0, || {
                format!("{workload}: {name} is {value}, must never be 0")
            })?;
        }
        // The journal a restart replays is a function of the seed alone.
        let lens = |info: &Value| info.get("recovery_journal_lens").cloned();
        check(
            lens(&plain).is_some() && lens(&plain) == lens(&traced),
            || {
                format!(
                    "{workload}: restarts replayed {:?} in one run and {:?} in the other",
                    lens(&plain),
                    lens(&traced)
                )
            },
        )?;
        // Steady state: the closed loop's rate does not depend on how
        // long it has been running (judged on an undisturbed run only).
        let disturbed = plain.get("disturbed").and_then(Value::as_bool) != Some(false);
        let drift = plain
            .get("closed_drift")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        check(disturbed || (drift - 1.0).abs() <= 0.10, || {
            format!("{workload}: closed-loop drift {drift} on a quiet run")
        })?;
        println!(
            "smoke {workload}: ok ({} end-to-end, {} per-layer metrics, drift {drift:.3}{})",
            end_to_end.len(),
            per_layer.len(),
            if disturbed { ", disturbed" } else { "" }
        );
    }
    Ok(())
}
