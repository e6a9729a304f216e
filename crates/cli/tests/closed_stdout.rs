//! A command whose stdout is closed fails with one `error:` line and exit
//! status 1: it never panics on the write.

use std::process::Command;

/// Runs `dprep args` with stdout the write end of a pipe whose read end is
/// already closed, and returns its exit code and stderr.
fn run_into_a_closed_pipe(args: &[&str]) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_dprep"))
        .args(args)
        .stdout(writer)
        .output()
        .expect("dprep runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    for args in [&["datasets"][..], &["help"]] {
        let (code, stderr) = run_into_a_closed_pipe(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let errors: Vec<&str> = stderr
            .lines()
            .filter(|line| line.starts_with("error:"))
            .collect();
        assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
        assert!(
            errors[0].starts_with("error: cannot write the results:"),
            "{args:?}: {stderr}"
        );
    }
}
