//! `dprep help` documents the flags and ops the commands read, on/off
//! flags read `off` as off, and `chaos` is not a command.

use std::process::{Command, Output};

fn dprep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dprep"))
        .args(args)
        .output()
        .expect("dprep runs")
}

#[test]
fn help_lists_every_flag_and_detect_all_off_prints_only_flagged_cells() {
    let help = String::from_utf8(dprep(&["help"]).stdout).expect("utf-8 help");
    for needle in [
        "--max-inflight N",
        "--max-queued N",
        "--tenant-inflight N",
        "--default-deadline SECS",
        "--max-frame-bytes N",
        "--frame-timeout SECS",
        "--idle-timeout SECS",
        "--write-timeout SECS",
        "--retry N",
        "--all on|off",
        "| drain |",
    ] {
        assert!(help.contains(needle), "dprep help misses {needle:?}");
    }
    assert!(!help.contains("chaos"), "{help}");
    let chaos = dprep(&["chaos"]);
    assert_eq!(chaos.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&chaos.stderr);
    assert!(
        stderr.starts_with("error: unknown command \"chaos\""),
        "{stderr}"
    );

    // Two clean rows: only the header unless every cell is asked for.
    let path = std::env::temp_dir().join(format!("dprep-usage-{}.csv", std::process::id()));
    std::fs::write(&path, "name,age\nalice,30\nbob,41\n").expect("write the table");
    for (all, lines) in [("off", 1), ("on", 5)] {
        let out = dprep(&["detect", "--input", path.to_str().unwrap(), "--all", all]);
        assert!(out.status.success(), "--all {all}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.lines().count(), lines, "--all {all}: {stdout}");
    }
    std::fs::remove_file(&path).ok();
}
