//! `faults` rejects a fault rate outside [0, 1] and a mesh side DB cannot
//! plan on as usage errors: a one-line message on stderr and exit 2, before
//! any simulation starts — never a panic, and never a `faults.json`
//! labelled with an impossible rate.

use std::process::{Command, Output};

fn run_faults(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_faults"))
        .arg("--quick")
        .args(args)
        .output()
        .expect("spawn faults")
}

fn expect_usage_error(args: &[&str], needle: &str) {
    let out = run_faults(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "faults {args:?} should exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "faults {args:?} stderr should contain {needle:?}, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "faults {args:?} should not panic, got: {stderr}"
    );
}

#[test]
fn rates_outside_unit_interval_are_rejected() {
    for rates in ["1.5", "-0.1", "NaN", "0,0.05,inf"] {
        expect_usage_error(
            &["--rates", rates],
            "`--rates` entry must be a probability in [0, 1]",
        );
    }
}

#[test]
fn sides_below_two_are_rejected() {
    for side in ["0", "1"] {
        expect_usage_error(&["--side", side], "`--side` must be at least 2");
    }
}

#[test]
fn boundary_values_are_accepted() {
    // Control: the smallest plannable mesh and both ends of [0, 1].
    let out = run_faults(&["--side", "2", "--rates", "0,1"]);
    assert!(
        out.status.success(),
        "faults --side 2 --rates 0,1 should run, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
