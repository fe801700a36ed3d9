//! `saturation` rejects an unknown argument and a malformed `--loads` list
//! as usage errors: a one-line message on stderr and exit 2, before any
//! simulation starts — never a panic with a backtrace.

use std::process::{Command, Output};

fn run_saturation(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_saturation"))
        .arg("--quick")
        .args(args)
        .output()
        .expect("spawn saturation")
}

fn expect_usage_error(args: &[&str], needle: &str) {
    let out = run_saturation(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "saturation {args:?} should exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.starts_with("error: ") && stderr.contains(needle),
        "saturation {args:?} stderr should be an error containing {needle:?}, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "saturation {args:?} should not panic, got: {stderr}"
    );
}

#[test]
fn unknown_arguments_are_rejected() {
    for arg in ["--help", "--bogus", "all"] {
        expect_usage_error(&[arg], "unknown argument");
    }
}

#[test]
fn bad_load_entries_are_rejected() {
    for loads in ["abc", "0.5,x", "NaN", "0.5,inf", "0", "-1", "0.5,0"] {
        expect_usage_error(
            &["--loads", loads],
            "`--loads` entry must be a positive finite number",
        );
    }
}

#[test]
fn empty_load_lists_are_rejected() {
    expect_usage_error(&["--loads", ","], "`--loads` must list at least one load");
    expect_usage_error(&["--loads"], "`--loads` needs a comma-separated list");
}

#[test]
fn loads_must_be_strictly_increasing() {
    for loads in ["4,0.5", "0.5,0.5", "0.5,4,2"] {
        expect_usage_error(&["--loads", loads], "`--loads` must be strictly increasing");
    }
}

#[test]
fn increasing_positive_loads_are_accepted() {
    // Control: a valid two-point axis runs to its claims line.
    let out = run_saturation(&["--loads", "0.5,4"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "saturation --loads 0.5,4 should run, stderr: {stderr}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("claims"));
}
