//! Stamps the source revision into the build as `FOCAL_GIT_REV`
//! (`git rev-parse --short HEAD` of the checkout being built, or
//! `unknown` outside a git checkout), so provenance never depends on the
//! directory a binary is launched from.

use std::path::Path;
use std::process::Command;

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|s| !s.is_empty())
}

fn main() {
    let rev = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=FOCAL_GIT_REV={rev}");
    // Re-stamp when HEAD moves: HEAD itself (branch switch, detached
    // checkout), the branch ref it points at, and packed refs.
    if let Some(git_dir) = git(&["rev-parse", "--absolute-git-dir"]) {
        let git_dir = Path::new(&git_dir);
        let mut watched = vec![git_dir.join("HEAD"), git_dir.join("packed-refs")];
        if let Some(head_ref) = git(&["symbolic-ref", "-q", "HEAD"]) {
            watched.push(git_dir.join(head_ref));
        }
        for path in watched.iter().filter(|p| p.exists()) {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
}
