//! `scu_serve` refuses the shared harness flags it does not read: each
//! exits 2 with a one-line error naming the flag, before the daemon
//! binds a port — never a silently ignored flag on a running server.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn scu_serve_rejects_harness_flags_it_does_not_read_before_binding() {
    let dir = std::env::temp_dir().join(format!("scu-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for flag in [
        &["--filter", "zzz"][..],
        &["--timeout-secs", "0.001"],
        &["--resume"],
        &["--strict-resume"],
        &["--trace", "x.json"],
        &["--retries", "2"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_scu_serve"))
            .args(["--port", "0"])
            .args(flag)
            .env("SCU_SCALE", "0.0078125")
            .current_dir(&dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("scu_serve spawns");
        // A daemon that accepted the flag would serve forever: give it
        // a bounded time to exit, then stop it and fail.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().unwrap().is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        if child.try_wait().unwrap().is_none() {
            let _ = child.kill();
        }
        let out = child.wait_with_output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: stderr {stderr}");
        assert!(!stdout.contains("listening"), "{flag:?} bound a port");
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(first, format!("unexpected argument '{}'", flag[0]));
    }
    assert!(!dir.join("x.json").exists() && !dir.join("results").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
