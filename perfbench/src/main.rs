//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --rate-cold-distinct <req/s> --rate-hit-respell <req/s> \
//!     --workload <cold-distinct|hit-respell|reproduce> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Serving workloads build and spawn the
//! release `focal-serve`; `reproduce` runs the suite in-process. Human
//! detail goes to stdout first; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`).
//! Exit status: 0 when a result was printed, 2 on a usage error or when
//! the repository or the server build is missing.

mod check;
mod client;
mod gen;
mod metrics;
mod mirror;
mod reproduce;
mod serving;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Work items attempted (requests or suite runs).
    pub attempted: usize,
    /// Failed or incorrect items.
    pub failed: usize,
    /// Problems that make the run incorrect beyond per-item failures.
    pub notes: Vec<String>,
    /// Human-readable context lines (sample counts, phase sizes).
    pub details: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a problem; the run is then not correct.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records a context line.
    pub fn detail(&mut self, line: String) {
        self.details.push(line);
    }

    /// A run that could not proceed.
    #[must_use]
    pub fn fail(mut self, note: String) -> Outcome {
        self.note(note);
        self
    }

    /// Records the slice-median metrics: `throughput_rps` from each
    /// slice's rate, `latency_p50_us` and `latency_p90_us` from each
    /// slice's latencies. A percentile without ten samples beyond it in
    /// its slice is a problem, not a number. The whole run's p99 is
    /// printed with its sample counts but not gated: on a shared
    /// two-core host it moves with every scheduling hiccup.
    pub fn sliced(&mut self, rates: &[f64], latencies: &[Vec<f64>]) {
        self.metric("throughput_rps", stats::median(rates));
        for (name, p) in [("latency_p50_us", 50.0), ("latency_p90_us", 90.0)] {
            let mut per_slice = Vec::new();
            for slice in latencies {
                match stats::percentile(&stats::sorted(slice), p) {
                    Some(q) => per_slice.push(q.value),
                    None => self.note(format!(
                        "{name}: p{p} needs ten samples beyond it, a slice has n = {}",
                        slice.len()
                    )),
                }
            }
            self.metric(name, stats::median(&per_slice));
        }
        let all = stats::sorted(&latencies.concat());
        let line = match stats::percentile(&all, 99.0) {
            Some(q) => format!(
                "latency_p99_us = {} us (p99 of n = {} samples, {} beyond; not gated)",
                q.value, q.n, q.beyond
            ),
            None => format!(
                "latency_p99_us: p99 needs ten samples beyond it, n = {}",
                all.len()
            ),
        };
        self.detail(line);
        self.detail(format!(
            "throughput and latencies are medians over {} slices of ~{} samples",
            latencies.len(),
            all.len() / latencies.len().max(1)
        ));
    }

    fn correct(&self) -> bool {
        self.notes.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rates: BTreeMap<String, f64>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --rate-cold-distinct <r> --rate-hit-respell <r> \
         --workload <cold-distinct|hit-respell|reproduce> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument `{flag}`"));
        };
        let Some(value) = it.next() else {
            usage(&format!("`{flag}` needs a value"));
        };
        map.insert(name.to_string(), value.clone());
    }
    let mut take = |name: &str| {
        map.remove(name)
            .unwrap_or_else(|| usage(&format!("missing --{name}")))
    };
    let workload = take("workload");
    let seed = take("seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be a non-negative integer"));
    let seconds: f64 = take("seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds must be a number"));
    let trace = match take("trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let mut rates = BTreeMap::new();
    for w in ["cold-distinct", "hit-respell"] {
        let rate: f64 = take(&format!("rate-{w}"))
            .parse()
            .unwrap_or_else(|_| usage("rates must be numbers"));
        rates.insert(w.to_string(), rate);
    }
    if let Some(extra) = map.keys().next() {
        usage(&format!("unknown flag --{extra}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
        rates,
    }
}

/// Builds the release server from the checkout and returns its path.
fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--locked",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "focal-serve",
            "--bin",
            "focal-serve",
            "--message-format",
            "json",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building focal-serve failed ({})", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| focal_serve::json::JsonValue::parse(l).ok())
        .filter(|v| {
            v.get("target")
                .and_then(|t| t.get("name"))
                .and_then(focal_serve::json::JsonValue::as_str)
                == Some("focal-serve")
        })
        .find_map(|v| {
            v.get("executable")
                .and_then(focal_serve::json::JsonValue::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no focal-serve executable".to_string())
}

fn main() {
    let args = parse_args();
    if !Path::new("Cargo.toml").is_file() || !Path::new("data/scenarios").is_dir() {
        eprintln!("perfbench: run from the repository root (Cargo.toml and data/scenarios)");
        std::process::exit(2);
    }
    let out_dir = Path::new("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: creating {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let serving = match args.workload.as_str() {
        "cold-distinct" => Some(serving::Kind::Cold),
        "hit-respell" => Some(serving::Kind::Hit),
        "reproduce" => None,
        other => usage(&format!("unknown workload `{other}`")),
    };
    let mut outcome = match serving {
        Some(kind) => {
            let bin = build_server().unwrap_or_else(|e| {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            });
            let rate = args.rates[&args.workload];
            if args.trace {
                let spans = out_dir.join(format!("{}.spans.tsv", args.workload));
                serving::traced(kind, &bin, args.seed, args.seconds, rate, &spans)
            } else {
                serving::run(kind, &bin, args.seed, args.seconds, rate)
            }
        }
        None => reproduce::run(args.seconds, args.trace),
    };
    if let Some(mb) = client::vm_hwm_mb("/proc/self/status") {
        outcome.detail(format!("benchmark process peak RSS: {mb} MiB"));
    }
    print!("{}", render(&args, &outcome));
}

/// The human report followed by the JSON result line.
fn render(args: &Args, out: &Outcome) -> String {
    let list = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut text = format!(
        "perfbench {} seed {} ({} s, trace {})\n",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &out.details {
        let _ = writeln!(text, "  {line}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let _ = writeln!(
        text,
        "  failed_frac = {failed_frac} ({} of {} attempted)",
        out.failed, out.attempted
    );
    let mut notes = out.notes.clone();
    let mut json_metrics = Vec::new();
    for m in list {
        let value = match out.metrics.get(m.name) {
            Some(v) => *v,
            // A layer the workload bypasses did no work.
            None if args.trace => 0.0,
            None => {
                notes.push(format!("{} was not measured", m.name));
                0.0
            }
        };
        let value = if value.is_finite() { value } else { f64::MAX };
        let _ = writeln!(text, "  {} = {value} {}", m.name, m.unit);
        json_metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    for note in &notes {
        let _ = writeln!(text, "  problem: {note}");
    }
    let correct = notes.is_empty() && out.correct();
    let _ = writeln!(
        text,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics.join(", ")
    );
    text
}
