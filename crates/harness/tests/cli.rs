//! The `reproduce` command line: `--help` prints the usage and every
//! target on stdout and succeeds, and a bad argument — a malformed flag,
//! a flag the target does not read, an output it cannot write — fails on
//! stderr, naming what was wrong.

use std::process::Command;

/// Run `reproduce` in this test target's scratch directory, where the
/// relative paths below land.
fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run reproduce")
}

#[test]
fn help_prints_every_target_on_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = reproduce(&[flag]);
        assert!(out.status.success(), "{flag}: {:?}", out.status);
        assert!(out.stderr.is_empty(), "{flag} wrote to stderr");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 help");
        assert!(stdout.starts_with("usage: reproduce"), "{flag}");
        for t in harness::targets::TARGETS {
            assert!(stdout.contains(t.name), "{flag} omits target {}", t.name);
        }
        // the recording and fingerprint forms read --quick and --engine too
        for form in ["--checkpoint-every", "reproduce fingerprint"] {
            let line = stdout.lines().find(|l| l.contains(form)).unwrap_or("");
            assert!(
                line.contains("[--quick]") && line.contains("[--engine fixed|adaptive]"),
                "{flag}: the {form} line omits --quick or --engine: {line:?}"
            );
        }
    }
}

#[test]
fn a_bad_argument_fails_on_stderr() {
    // fig1's plot cannot be written where its path is a directory
    let plots = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unwritable");
    std::fs::create_dir_all(plots.join("fig1.dat")).expect("a directory named fig1.dat");
    let capsule = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/capsule_pr6_fig1_t60.json"
    );
    // each command line, and how its error starts
    let cases: [(&[&str], &str); 8] = [
        (&["--bogus"], "unexpected argument: --bogus"),
        (
            &["--engine", "turbo"],
            "--engine must be fixed|adaptive, got turbo",
        ),
        (&["fig1", "extra"], "unexpected argument: extra"),
        (
            &["fingerprint", "fig1", "--quick", "--trace", "t.json"],
            "fingerprint --via straight does not read --trace",
        ),
        (
            &[
                "resume", capsule, "--engine", "fixed", "--quick", "--trace", "t.json",
            ],
            "resume does not read --engine",
        ),
        (
            &[
                "fig4",
                "--quick",
                "--via",
                "resume",
                "--tick-ms",
                "7",
                "--dilation",
                "3",
            ],
            "fig4 does not read --via",
        ),
        (
            &[
                "fig1",
                "--quick",
                "--checkpoint-every",
                "30",
                "--capsule-dir",
                "c",
                "--trace",
                "t",
                "--dashboard",
                "d",
            ],
            "fig1 --checkpoint-every does not read --trace",
        ),
        (
            &["fig1", "--quick", "--out", "unwritable"],
            "fig1: writing its plot to unwritable",
        ),
    ];
    for (args, error) in cases {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(error), "{args:?}: {stderr}");
    }
}
