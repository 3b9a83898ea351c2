//! An unwritable `$DEDUP_OBS_DIR` must not fail a figure run: the binary
//! reports the skipped sidecars, writes nothing and exits successfully.

use std::process::Command;

#[test]
fn obs_dir_pointing_at_a_file_skips_sidecars() {
    let blocker = std::env::temp_dir().join(format!("dedup-obs-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("create blocker file");
    let out = Command::new(env!("CARGO_BIN_EXE_fig03_local_vs_global"))
        .env("DEDUP_OBS_DIR", &blocker)
        .output()
        .expect("run fig03");
    let contents = std::fs::read(&blocker).expect("blocker still readable");
    let _ = std::fs::remove_file(&blocker);

    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fig03 failed: {stderr}");
    assert!(
        stderr.contains("sidecars skipped"),
        "skip not reported: {stderr}"
    );
    assert!(!stdout.contains("sidecar:"), "claimed a write: {stdout}");
    assert_eq!(contents, b"not a directory", "blocker file was touched");
}
