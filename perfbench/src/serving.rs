//! The serving workloads, `cold-distinct` and `hit-respell`: the
//! untraced run against the release server, and the traced run.

use crate::check::{count_failures, reference_digests};
use crate::client::{closed_loop, open_loop, Closed, Server};
use crate::gen::{self, Inputs, Req};
use crate::mirror::{names, Mirror};
use crate::span::{totals, Recorder};
use crate::stats::{median, percentile, sorted};
use crate::Outcome;
use focal_engine::Engine;
use focal_serve::{Limits, ServeCore, ServeOptions};
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests in flight in the closed-loop phase (a sweep client that
/// pipelines this many queries and waits for replies).
pub const WINDOW: usize = 32;
/// Server start-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Distinct warm-up scenarios sent in `cold-distinct`'s set-up.
pub const COLD_WARM: usize = 64;
/// `hit-respell`'s working set, evaluated in set-up.
pub const WORKING_SET: usize = 300;
/// The untraced run alternates this many open-loop and closed-loop
/// slices, so every metric samples the whole run rather than one stretch
/// of it; each metric is the median over the slices.
pub const SLICES: usize = 10;
/// Share of the nominal run time in closed-loop slices; the open-loop
/// slices take the rest.
const CLOSED_SHARE: f64 = 0.6;
/// Closed-phase requests the traced run sends and replays in-process:
/// plenty for per-call means, and it bounds the traced run's memory.
pub const REPLAY_CAP: usize = 50_000;
/// Window-1 round trips the traced run times for `serve.transport_us`.
pub const PING_COUNT: usize = 5_000;

/// A serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every request a never-seen scenario.
    Cold,
    /// Warm working set, exact repeats and fresh spellings.
    Hit,
}

impl Kind {
    /// Closed-loop rate used only to size the closed-loop work: the run
    /// sends a fixed request stream (so every run of a seed serves the
    /// same requests and ends with the same cache), which takes about
    /// `CLOSED_SHARE * seconds` at this rate on two cores.
    fn nominal_rps(self) -> f64 {
        match self {
            Kind::Cold => 16_000.0,
            Kind::Hit => 65_000.0,
        }
    }

    fn inputs(self, seed: u64, closed: usize, open: usize) -> Inputs {
        match self {
            Kind::Cold => gen::cold_distinct(seed, COLD_WARM, closed, open),
            Kind::Hit => gen::hit_respell(seed, WORKING_SET, closed, open),
        }
    }
}

/// The in-process engine: as many threads as the server's.
fn engine() -> Engine {
    Engine::with_threads(2)
}

/// Starts a server and sends the set-up traffic; returns it with the
/// time that took and the set-up responses.
fn start_and_warm(bin: &Path, inputs: &Inputs) -> Result<(Server, f64, Closed), String> {
    let t = Instant::now();
    let server = Server::start(bin).map_err(|e| format!("starting focal-serve: {e}"))?;
    let warm = closed_loop(&server.stream, inputs, &inputs.warm, WINDOW);
    Ok((server, t.elapsed().as_secs_f64(), warm))
}

/// Number of failed requests among `flags`.
fn failed(flags: &[bool]) -> usize {
    flags.iter().filter(|f| **f).count()
}

/// Part `i` of `SLICES` equal parts of `reqs`.
fn slice(reqs: &[Req], i: usize) -> &[Req] {
    &reqs[i * reqs.len() / SLICES..(i + 1) * reqs.len() / SLICES]
}

/// The untraced run: end-to-end metrics from the release server. After
/// set-up, `SLICES` times: an open-loop slice at `rate` (latencies), then
/// a closed-loop slice (throughput). Responses are checked after each
/// slice, outside its timing. The peak resident set is read just before
/// shutdown; the request stream is fixed, so it measures fixed work.
pub fn run(kind: Kind, bin: &Path, seed: u64, seconds: f64, rate: f64) -> Outcome {
    let mut out = Outcome::default();
    let open_n = (rate * seconds * (1.0 - CLOSED_SHARE)) as usize;
    let closed_n = (kind.nominal_rps() * seconds * CLOSED_SHARE) as usize;
    let inputs = kind.inputs(seed, closed_n, open_n);
    let all: [&[Req]; 3] = [&inputs.warm, &inputs.closed, &inputs.open];
    let reference = reference_digests(&inputs, &all, &engine());

    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (server, secs, warm) = match start_and_warm(bin, &inputs) {
            Ok(s) => s,
            Err(e) => return out.fail(e),
        };
        setups.push(secs);
        out.failed += failed(&count_failures(
            &inputs.warm,
            &warm.responses,
            &inputs,
            &reference,
        ));
        if let Some(e) = &warm.error {
            out.note(format!("set-up connection error: {e}"));
        }
        if i + 1 < SETUPS {
            if let Err(e) = server.finish() {
                return out.fail(format!("set-up server: {e}"));
            }
        } else {
            kept = Some(server);
        }
    }
    let server = kept.expect("SETUPS > 0");

    let (mut rates, mut latencies) = (Vec::new(), Vec::new());
    for i in 0..SLICES {
        let reqs = slice(&inputs.open, i);
        let open = open_loop(&server.stream, &inputs, reqs, rate);
        let bad = count_failures(reqs, &open.responses, &inputs, &reference);
        // A failed or missing request misses any latency limit.
        latencies.push(
            open.latency_us
                .iter()
                .zip(&bad)
                .map(|(l, bad)| l.filter(|_| !bad).unwrap_or(f64::INFINITY))
                .collect(),
        );
        out.attempted += reqs.len();
        out.failed += failed(&bad);

        let reqs = slice(&inputs.closed, i);
        let closed = closed_loop(&server.stream, &inputs, reqs, WINDOW);
        rates.push(closed.responses.len() as f64 / closed.elapsed.as_secs_f64());
        out.attempted += reqs.len();
        out.failed += failed(&count_failures(
            reqs,
            &closed.responses,
            &inputs,
            &reference,
        ));
        for e in [&open.error, &closed.error].into_iter().flatten() {
            out.note(format!("connection error: {e}"));
        }
    }
    let peak = server.peak_rss_mb();
    if let Err(e) = server.finish() {
        out.note(format!("server shutdown: {e}"));
    }

    out.sliced(&rates, &latencies);
    match peak {
        Some(mb) => out.metric("peak_rss_mb", mb),
        None => out.note("server VmHWM unreadable".to_string()),
    }
    out.metric("setup_s", median(&setups));
    out.detail(format!(
        "closed loop: {} requests, window {WINDOW}; open loop: {} requests at {rate} req/s",
        inputs.closed.len(),
        inputs.open.len()
    ));
    out.detail(format!(
        "setup_s: median of {SETUPS} server start-ups {setups:?}"
    ));
    out
}

/// A fresh in-process core configured like the server.
fn core() -> ServeCore {
    ServeCore::new(ServeOptions {
        engine: engine(),
        cache: true,
        dump_dir: None,
        dump_prefix: String::new(),
        git_rev: GIT_REV.to_string(),
        limits: Limits::default(),
    })
}

/// The provenance revision both in-process replays stamp.
const GIT_REV: &str = "perfbench";

/// Feeds `reqs` to `handle` in batches of `size` (the closed-loop window,
/// so batches look like the server's), lines numbered from `first`.
/// Each batch's lines are built outside the timed call. Returns the
/// FNV-64 digest of every batch's response bytes and the seconds spent
/// inside `handle`.
fn replay(
    inputs: &Inputs,
    reqs: &[Req],
    first: usize,
    size: usize,
    mut handle: impl FnMut(&[(usize, String)]) -> Vec<String>,
) -> (Vec<u64>, f64) {
    let mut digests = Vec::with_capacity(reqs.len().div_ceil(size));
    let mut busy = Duration::ZERO;
    for (b, chunk) in reqs.chunks(size).enumerate() {
        let lines: Vec<(usize, String)> = chunk
            .iter()
            .enumerate()
            .map(|(i, r)| (first + b * size + i, inputs.line(r)))
            .collect();
        let t = Instant::now();
        let responses = handle(&lines);
        busy += t.elapsed();
        digests.push(focal_scenario::fnv64(responses.join("\n").as_bytes()));
    }
    (digests, busy.as_secs_f64())
}

/// The traced run. Against the server: set-up, a closed-loop phase, a
/// window-1 ping-pong segment (round trip per request) and an open-loop
/// phase (sender lag). In-process, from the same cache state: the
/// closed-phase requests through `ServeCore::handle_lines` (untraced)
/// and through the mirror (traced, every batch's bytes compared), then
/// the ping-pong requests one at a time through `handle_lines`, whose
/// time per request is subtracted from the round trip.
pub fn traced(
    kind: Kind,
    bin: &Path,
    seed: u64,
    seconds: f64,
    rate: f64,
    spans_out: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let open_n = (rate * seconds * 0.3) as usize;
    let inputs = kind.inputs(seed, REPLAY_CAP + PING_COUNT, open_n);

    let (server, _, warm) = match start_and_warm(bin, &inputs) {
        Ok(s) => s,
        Err(e) => return out.fail(e),
    };
    let (replayed, pinged) = inputs.closed.split_at(REPLAY_CAP);
    let closed = closed_loop(&server.stream, &inputs, replayed, WINDOW);
    let ping = closed_loop(&server.stream, &inputs, pinged, 1);
    let open = open_loop(&server.stream, &inputs, &inputs.open, rate);
    if let Err(e) = server.finish() {
        out.note(format!("server shutdown: {e}"));
    }
    for e in [&warm.error, &closed.error, &ping.error, &open.error]
        .into_iter()
        .flatten()
    {
        out.note(format!("connection error: {e}"));
    }
    let all: [&[Req]; 3] = [&inputs.warm, &inputs.closed, &inputs.open];
    let reference = reference_digests(&inputs, &all, &engine());
    for (reqs, responses) in [
        (&inputs.warm[..], &warm.responses),
        (replayed, &closed.responses),
        (pinged, &ping.responses),
        (&inputs.open[..], &open.responses),
    ] {
        out.attempted += reqs.len();
        out.failed += failed(&count_failures(reqs, responses, &inputs, &reference));
    }

    let first = inputs.warm.len() + 1;
    let n = replayed.len() as f64;

    let mut real = core();
    replay(&inputs, &inputs.warm, 1, WINDOW, |b| real.handle_lines(b));
    let (expected, untraced_s) = replay(&inputs, replayed, first, WINDOW, |b| real.handle_lines(b));
    let singles_first = first + replayed.len();
    let (_, singles_s) = replay(&inputs, pinged, singles_first, 1, |b| real.handle_lines(b));

    let mut mirror = Mirror::new(engine(), GIT_REV);
    let mut scratch = Recorder::new();
    replay(&inputs, &inputs.warm, 1, WINDOW, |b| {
        mirror.handle(b, &mut scratch)
    });
    let (text0, digest0, fan0) = (
        mirror.cache().text_stats(),
        mirror.cache().digest_stats(),
        mirror.fan,
    );
    let mut rec = Recorder::new();
    let (got, traced_s) = replay(&inputs, replayed, first, WINDOW, |b| {
        mirror.handle(b, &mut rec)
    });
    let mismatched = got.iter().zip(&expected).filter(|(a, b)| a != b).count();
    if mismatched > 0 {
        out.note(format!(
            "{mismatched} mirrored batches differ from ServeCore::handle_lines"
        ));
    }
    out.attempted += got.len();
    out.failed += mismatched;

    if let Err(e) = std::fs::File::create(spans_out)
        .and_then(|f| rec.write_tsv(&mut std::io::BufWriter::new(f)))
    {
        out.note(format!("writing spans: {e}"));
    }

    let t = totals(rec.spans());
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let text = mirror.cache().text_stats();
    let digest = mirror.cache().digest_stats();
    for (metric, span) in [
        ("serve.proto.parse_us", names::PARSE),
        ("serve.proto.render_us", names::RENDER),
        ("serve.cache.text.lookup_us", names::TEXT_LOOKUP),
        ("serve.cache.digest.lookup_us", names::DIGEST_LOOKUP),
        ("serve.cache.insert_us", names::INSERT),
        ("scenario.toml.parse_us", names::TOML),
        ("scenario.schema.build_us", names::SCHEMA),
        ("scenario.canonical.canonicalize_us", names::CANONICALIZE),
        ("scenario.canonical.digest_us", names::DIGEST),
        ("scenario.evaluate.figure_us", names::EVAL_FIGURE),
        ("scenario.evaluate.finding_us", names::EVAL_FINDING),
        ("scenario.output.encode_us", names::ENCODE),
        ("engine.fanout.wall_us", names::FANOUT),
    ] {
        out.metric(metric, get(span).mean_us());
    }
    out.metric(
        "serve.cache.text.hit_ratio",
        ratio(text.hits - text0.hits, text.misses - text0.misses),
    );
    out.metric(
        "serve.cache.digest.hit_ratio",
        ratio(digest.hits - digest0.hits, digest.misses - digest0.misses),
    );
    out.metric("serve.cache.entries", mirror.cache().entries() as f64);
    let fan_calls = mirror.fan.calls - fan0.calls;
    let fan_items = mirror.fan.items - fan0.items;
    out.metric(
        "engine.fanout.batch_size",
        if fan_calls == 0 {
            0.0
        } else {
            fan_items as f64 / fan_calls as f64
        },
    );
    let busy = get(names::EVAL_FIGURE).total_ns + get(names::EVAL_FINDING).total_ns;
    let fan_wall = get(names::FANOUT).total_ns;
    out.metric(
        "engine.fanout.efficiency",
        if fan_wall == 0 {
            0.0
        } else {
            busy as f64 / (fan_wall as f64 * engine().threads() as f64)
        },
    );
    out.metric(
        "serve.service.self_us",
        get(names::SERVICE).self_ns as f64 / n / 1000.0,
    );
    let singles_n = pinged.len() as f64;
    let round_trip_us = ping.elapsed.as_secs_f64() * 1e6 / singles_n;
    out.metric(
        "serve.transport_us",
        round_trip_us - singles_s * 1e6 / singles_n,
    );
    match percentile(&sorted(&open.lag_us), 99.0) {
        Some(q) => out.metric("loadgen.lag_p99_us", q.value),
        None => out.note(format!(
            "loadgen.lag_p99_us: too few samples ({})",
            open.lag_us.len()
        )),
    }
    out.metric("trace.untraced_rps", n / untraced_s);
    out.metric("trace.traced_rps", n / traced_s);
    out.detail(format!(
        "traced replay: {} requests in {} batches of {WINDOW}, {} spans",
        replayed.len(),
        got.len(),
        rec.spans().len()
    ));
    out.detail(format!(
        "transport: {} window-1 round trips, {round_trip_us:.3} us each",
        pinged.len()
    ));
    out
}
