//! The `smoothop` front end accepts exactly what `smoothoperator::cli`
//! declares. Each row runs the real binary in an empty directory: a
//! rejected command line must fail within a second, name the offending
//! argument and write nothing, and a help request must print the usage
//! and succeed without running anything.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use smoothoperator::cli::FLAGS;

/// What one command line must do.
#[derive(Debug)]
enum Expect {
    /// Exit non-zero with this text in the error.
    Rejects(&'static str),
    /// Print the usage and exit 0.
    Usage,
}

const ROWS: &[(&[&str], Expect)] = &[
    (&["online", "--help"], Expect::Usage),
    (&["place", "dc1", "--help"], Expect::Usage),
    (&["-h"], Expect::Usage),
    (
        &["scale", "--batches", "3", "--probes", "9"],
        Expect::Rejects("`--batches`"),
    ),
    (
        &[
            "place",
            "dc1",
            "96",
            "bogus",
            "--seed",
            "3",
            "--instance",
            "5",
        ],
        Expect::Rejects("`bogus`"),
    ),
    (
        &["scenarios", "--frobnicate"],
        Expect::Rejects("`--frobnicate`"),
    ),
    (
        &["online", "--instance", "100"],
        Expect::Rejects("`--instance`"),
    ),
    (
        &["serve", "--instances", "10,20"],
        Expect::Rejects("`10,20`"),
    ),
    (&["online", "--out"], Expect::Rejects("`--out`")),
    (&["scale", "--exact"], Expect::Rejects("`--exact`")),
    (&["online", "--threads", "0"], Expect::Rejects("--threads")),
    (
        &["online", "--flight-capacity", "0"],
        Expect::Rejects("--flight-capacity"),
    ),
    (
        &["simulate", "dc1", "--faults", "bogus=1"],
        Expect::Rejects("bogus"),
    ),
];

/// A fresh empty working directory for one run.
fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smoothop-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `smoothop args` in `dir`, killing it if it outlives `deadline`.
fn run(args: &[&str], dir: &Path, deadline: Duration) -> (Output, Duration) {
    let started = Instant::now();
    let mut child = Command::new(env!("CARGO_BIN_EXE_smoothop"))
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("smoothop starts");
    while child.try_wait().unwrap().is_none() {
        if started.elapsed() > deadline {
            child.kill().unwrap();
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let output = child.wait_with_output().unwrap();
    (output, started.elapsed())
}

#[test]
fn command_lines_are_accepted_or_rejected_as_declared() {
    // Warm the binary into the page cache so the timed rows measure
    // argument handling, not the first load from disk.
    let warm = empty_dir("warm");
    run(&["help"], &warm, Duration::from_secs(60));
    std::fs::remove_dir_all(&warm).ok();
    for (row, (args, expect)) in ROWS.iter().enumerate() {
        let dir = empty_dir(&row.to_string());
        let (output, took) = run(args, &dir, Duration::from_secs(1));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(took < Duration::from_secs(1), "{args:?} took {took:?}");
        match expect {
            Expect::Rejects(needle) => {
                assert!(!output.status.success(), "{args:?} succeeded: {stdout}");
                assert!(stderr.contains(needle), "{args:?}: {stderr}");
            }
            Expect::Usage => {
                assert!(output.status.success(), "{args:?}: {stderr}");
                assert!(stdout.contains("USAGE: smoothop"), "{args:?}: {stdout}");
            }
        }
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn both_flag_spellings_run_alike() {
    let dir = empty_dir("seed");
    let deadline = Duration::from_secs(300);
    let (joined, _) = run(&["check", "48", "--seed=9"], &dir, deadline);
    let (spaced, _) = run(&["check", "48", "--seed", "9"], &dir, deadline);
    assert!(joined.status.success() && spaced.status.success());
    let stdout = String::from_utf8_lossy(&joined.stdout);
    assert!(stdout.contains("seed 9"), "{stdout}");
    assert_eq!(joined.stdout, spaced.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_lists_every_declared_flag() {
    let dir = empty_dir("help");
    let (output, _) = run(&["help"], &dir, Duration::from_secs(60));
    assert!(output.status.success());
    let usage = String::from_utf8_lossy(&output.stdout);
    for flag in FLAGS {
        let head = match flag.value {
            Some(hint) => format!("{} {hint}", flag.name),
            None => flag.name.to_string(),
        };
        assert!(usage.contains(&head), "`smoothop help` omits {head}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
