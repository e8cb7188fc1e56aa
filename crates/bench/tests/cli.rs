//! The `figures` binary's exit status: a figure it could not write is a
//! failed reproduction run, not a green one.

use std::process::Command;

#[test]
fn unwritable_figure_exits_nonzero() {
    let out_dir = std::env::temp_dir().join(format!("minnet_figures_cli_{}", std::process::id()));
    // A directory where the CSV should go makes opening it fail.
    std::fs::create_dir_all(out_dir.join("fig16a.csv")).expect("creating the blocking directory");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--fig", "fig16a", "--quick", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawning the figures binary");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let status = out.status;
    assert!(!status.success(), "exit {status:?}, stderr: {stderr}");
    assert!(stderr.contains("error: opening"), "stderr: {stderr}");
}
