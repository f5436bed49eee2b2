//! `repro` argument handling: a mistyped flag, or a sweep flag given to an
//! experiment that does not journal, is rejected with usage on stderr and
//! exit code 2 before anything runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn assert_rejected(out: &Output, reason: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run: {:?}", out.stdout);
    assert!(stderr.contains(reason), "stderr: {stderr}");
    assert!(stderr.contains("usage: repro"), "stderr: {stderr}");
}

#[test]
fn unknown_flag_is_rejected() {
    assert_rejected(&repro(&["table2", "--quik"]), "unknown flag: --quik");
}

#[test]
fn store_without_a_journaled_sweep_is_rejected() {
    let dir = std::env::temp_dir().join(format!("repro-cli-store-{}", std::process::id()));
    let out = repro(&["table2", "--store", dir.to_str().expect("utf-8 temp dir")]);
    assert_rejected(&out, "--store and --resume apply only to");
    assert!(!dir.exists(), "a rejected run must not create the store");
}
