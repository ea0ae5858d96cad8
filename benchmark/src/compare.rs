//! `set` runs every workload over a list of seeds and keeps the result
//! lines; `compare` judges two such sets against the bounds fixed in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::run::SPECS;
use crate::stats;

/// Runs this program once more, as a process of its own so peak memory
/// and allocator state are one run's, and returns its output lines.
pub fn run_child(args: &[String]) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if !output.status.success() {
        return Err(format!(
            "run {args:?} exited with {}:\n{}",
            output.status,
            lines.join("\n")
        ));
    }
    Ok(lines)
}

/// The result line (last) and the info object of a run's output, as text.
pub fn result_and_info(lines: &[String]) -> Result<(&str, &str), String> {
    let result = lines.last().ok_or("a run printed nothing")?;
    let info = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("info "))
        .ok_or("a run printed no info line")?;
    Ok((result, info))
}

/// `benchmark set <out.jsonl> <seed>...`
pub fn set(out: &str, seeds: &[u64], seconds: u64) -> Result<(), String> {
    let mut file = fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
    for &seed in seeds {
        for spec in &SPECS {
            let args = [
                "--workload".to_owned(),
                spec.name.to_owned(),
                "--seed".to_owned(),
                seed.to_string(),
                "--seconds".to_owned(),
                seconds.to_string(),
            ];
            let lines = run_child(&args)?;
            let (result, info) = result_and_info(&lines)?;
            writeln!(
                file,
                "{{\"workload\":\"{}\",\"seed\":{seed},\"info\":{info},\"result\":{result}}}",
                spec.name
            )
            .and_then(|()| file.flush())
            .map_err(|e| format!("{out}: {e}"))?;
            println!("{} seed {seed}: {result}", spec.name);
        }
    }
    Ok(())
}

/// (workload, metric) → values, one per run, in file order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn read_set(path: &str) -> Result<Samples, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let row = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = row
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let metrics = row.get("result").and_then(|r| r.get("metrics"));
        for (name, metric) in metrics.map_or(&[][..], Value::members) {
            if let Some(v) = metric.get("value").and_then(Value::as_f64) {
                samples
                    .entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(samples)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` against set `a` on one metric. `change` is how much
/// worse `b`'s median is than `a`'s, as a share of `a`'s (negative =
/// better). Where `a`'s own quartiles are further apart than the bound,
/// a difference cannot be told from noise: unresolved, unless every run
/// of one side beats every run of the other.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (qa1, ma, qa3) = stats::quartiles(a);
    let (_, mb, _) = stats::quartiles(b);
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let change = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let spread = (qa3 - qa1) / ma.abs().max(f64::MIN_POSITIVE);
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
    let verdict = if spread > bound {
        if worst(b) < best(a) {
            Verdict::Better
        } else if best(b) > worst(a) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (change, verdict)
}

/// `benchmark compare <a.jsonl> <b.jsonl> --spec BENCHMARK.json`; true
/// when no metric is worse.
pub fn compare(a_path: &str, b_path: &str, spec_path: &str) -> Result<bool, String> {
    let spec_text = fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = json::parse(&spec_text)?;
    let (a, b) = (read_set(a_path)?, read_set(b_path)?);
    let mut none_worse = true;
    println!(
        "{:<14} {:<24} {:>33} {:>33} {:>8} {:>6}  verdict",
        "workload", "metric", "a q1/median/q3", "b q1/median/q3", "change", "bound"
    );
    for metric in spec.get("end_to_end").map_or(&[][..], Value::as_array) {
        let name = metric.get("name").and_then(Value::as_str).unwrap_or("?");
        let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
        let higher = metric.get("better").and_then(Value::as_str) == Some("higher");
        for workload in spec.get("workloads").map_or(&[][..], Value::as_array) {
            let workload = workload.get("name").and_then(Value::as_str).unwrap_or("?");
            let key = (workload.to_owned(), name.to_owned());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<14} {name:<24} missing from a set");
                none_worse = false;
                continue;
            };
            if va.len() < 2 || vb.len() < 2 {
                println!("{workload:<14} {name:<24} needs two runs a side");
                continue;
            }
            let (change, verdict) = judge(va, vb, higher, bound);
            let q = |v: &[f64]| {
                let (q1, m, q3) = stats::quartiles(v);
                format!("{q1:.4}/{m:.4}/{q3:.4}")
            };
            println!(
                "{workload:<14} {name:<24} {:>33} {:>33} {:>+8.4} {bound:>6}  {}",
                q(va),
                q(vb),
                change,
                verdict.as_str()
            );
            none_worse &= verdict != Verdict::Worse;
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_uses_the_bound_and_the_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&a, &slower, false, 0.10).1, Verdict::Worse);
        assert_eq!(judge(&a, &slower, true, 0.10).1, Verdict::Better);
        assert_eq!(judge(&a, &a, false, 0.10).1, Verdict::Same);
        let (change, _) = judge(&a, &slower, false, 0.10);
        assert!((change - 0.20).abs() < 1e-9);
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 140.0, 80.0, 120.0, 60.0];
        let inside = [110.0, 95.0, 105.0, 90.0, 100.0];
        assert_eq!(judge(&noisy, &inside, false, 0.10).1, Verdict::Unresolved);
        let all_faster = [50.0, 40.0, 45.0, 55.0, 42.0];
        assert_eq!(judge(&noisy, &all_faster, false, 0.10).1, Verdict::Better);
        let all_slower = [150.0, 160.0, 145.0, 155.0, 170.0];
        assert_eq!(judge(&noisy, &all_slower, false, 0.10).1, Verdict::Worse);
    }
}
