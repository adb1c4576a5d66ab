//! The `reproduce` command line: `--help` prints the usage and every
//! target on stdout and succeeds, and a bad argument still fails.

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
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
    }
}

#[test]
fn a_bad_argument_fails_on_stderr() {
    for args in [&["--bogus"][..], &["--engine", "turbo"], &["fig1", "extra"]] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(!out.stderr.is_empty(), "{args:?} explained nothing");
    }
}
