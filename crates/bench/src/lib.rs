//! # focal-bench — the FOCAL reproduction harness
//!
//! One binary per paper figure (`fig1`, `fig3`, … `fig9`), a `findings`
//! binary that recomputes all 17 findings (+ the §7 case study) with
//! paper-vs-measured tables, and ablation binaries for the design choices
//! DESIGN.md calls out. The `bench` binary times the model kernels and
//! every suite stage.
//!
//! Every binary prints the figure's series as an ASCII chart plus a CSV
//! dump on stdout, so `cargo run -p focal-bench --bin fig3 > fig3.csv`
//! captures machine-readable data.

#![warn(missing_docs)]

pub mod dump;
pub mod micro;
pub mod suite;

// focal-serve escapes its responses through this re-export: the locked
// perfbench manifest pins serve's dependency list, which has no focal-report.
pub use focal_report::json_escape;

/// `git rev-parse --short HEAD` of the checkout this crate was built
/// from (`unknown` outside a git checkout), stamped at build time. Bench
/// records and serve responses carry it as their provenance revision.
pub const GIT_REV: &str = env!("FOCAL_GIT_REV");

use focal_studies::Figure;

/// Prints a regenerated figure in the harness's standard format: caption,
/// ASCII charts, then the CSV block.
pub fn print_figure(fig: &Figure) {
    println!("==================================================================");
    println!("{}: {}", fig.id, fig.caption);
    println!("==================================================================\n");
    for panel in &fig.panels {
        println!("{}", panel.to_chart(64, 16).render());
    }
    println!("--- CSV ---");
    print!("{}", fig.to_csv());
}

/// Prints a one-line reproduction summary for a set of findings and
/// returns how many reproduced.
pub fn print_findings_summary(findings: &[focal_studies::Finding]) -> usize {
    let ok = findings.iter().filter(|f| f.reproduces()).count();
    println!(
        "\n{ok}/{} findings reproduce the paper's numbers and verdicts.",
        findings.len()
    );
    ok
}

/// Process exit code for a findings run: `0` only if *every* finding
/// reproduces the paper, `1` otherwise — so CI can gate on the `findings`
/// binary (and the `suite` binary) directly.
///
/// An empty slice is a failure: it means the registry produced nothing,
/// which must never read as success.
#[must_use]
pub fn findings_exit_code(findings: &[focal_studies::Finding]) -> i32 {
    if !findings.is_empty() && findings.iter().all(|f| f.reproduces()) {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_figure_smoke() {
        let fig = focal_studies::wafer_figure::figure1().unwrap();
        // Just exercise the printing path.
        print_figure(&fig);
    }

    #[test]
    fn summary_counts_reproductions() {
        let findings = focal_studies::all_findings().unwrap();
        assert_eq!(print_findings_summary(&findings), findings.len());
    }
}
