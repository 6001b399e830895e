//! Response provenance names the revision the server was built from,
//! wherever it is launched.

use std::io::Write;
use std::process::{Command, Stdio};

/// `git rev-parse --short HEAD` of this checkout, or `unknown` outside
/// one (the same fallback the build-time stamp uses).
fn checkout_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[test]
fn stdin_server_launched_outside_the_checkout_stamps_the_build_revision() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_focal-serve"))
        .arg("--stdin")
        .current_dir("/")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("focal-serve starts");
    child
        .stdin
        .take()
        .expect("stdin pipe")
        .write_all(b"{\"ping\": true}\n")
        .expect("request written");
    let out = child.wait_with_output().expect("focal-serve exits");
    assert!(out.status.success(), "{:?}", out.status);
    let pong = String::from_utf8(out.stdout).expect("utf-8 response");
    let parsed = focal_serve::json::JsonValue::parse(pong.trim()).expect("pong parses");
    let rev = parsed
        .get("ping")
        .and_then(|p| p.get("git_rev"))
        .and_then(focal_serve::json::JsonValue::as_str);
    assert_eq!(rev, Some(checkout_rev().as_str()), "{pong}");
}
