//! Runs `benchmark --smoke` against the repository's `BENCHMARK.json`:
//! all four workloads at `--seconds 2`, plain and traced. Takes about a
//! minute, nearly all of it the fixed warm-ups.

use std::process::Command;

#[test]
fn smoke() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--smoke", "--spec", spec])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}
