//! The `reproduce` workload: the reproduction suite in-process, with the
//! sweep memo and the shipped scenario corpus, run back to back.
//!
//! The traced run times each suite stage around the same public call the
//! suite makes, and the Monte-Carlo kernel's sampling, summary and
//! two-thread speed-up on one robustness experiment.

use crate::client::vm_hwm_mb;
use crate::span::{Recorder, NO_REQ};
use crate::stats::median;
use crate::Outcome;
use focal_bench::suite::{
    run_suite_with_options, SuiteOptions, DEFECT_SIM_DENSITY, DEFECT_SIM_SEED, DEFECT_SIM_WAFERS,
    ROBUSTNESS_JITTER, ROBUSTNESS_SAMPLES, ROBUSTNESS_SEED,
};
use focal_core::{
    alpha_crossover_batch_memo, classify_over_range_memo_on, DesignPoint, E2oRange, MonteCarloNcf,
    Scenario, SweepMemo,
};
use focal_engine::Engine;
use focal_serve::json::JsonValue;
use focal_wafer::{DefectDistribution, DefectSimulator, DiePlacement, Wafer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed suite runs come in this many slices of equal size; each metric
/// is the median over slices.
const SLICES: usize = 5;
/// Suite runs per second used only to size the timed work, so a run of
/// `seconds` does a fixed number of suite runs (at least 100 per slice at
/// 20 s, enough for a slice's p90 to have ten runs beyond it).
const NOMINAL_RUNS_PER_S: f64 = 40.0;

/// The suite configuration every `reproduce` run uses.
#[must_use]
pub fn options() -> SuiteOptions {
    SuiteOptions {
        scenarios_dir: Some(PathBuf::from("data/scenarios")),
        memo: true,
        ..SuiteOptions::default()
    }
}

/// One suite run: wall time and whether it was `ok()` with the expected
/// deterministic bytes.
pub struct SuiteRun {
    /// Wall time, µs.
    pub wall_us: f64,
    /// `--no-timings` JSON of the run.
    pub json: String,
    /// `SuiteReport::ok()`.
    pub ok: bool,
}

/// Runs the suite once, timed.
#[must_use]
pub fn run_once(engine: &Engine) -> SuiteRun {
    let opts = options();
    let start = Instant::now();
    let report = run_suite_with_options(engine, &opts);
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    SuiteRun {
        wall_us,
        json: report.to_json(false),
        ok: report.ok(),
    }
}

/// Stage span names, in suite order.
pub const STAGES: [(&str, &str); 6] = [
    ("suite.figures", "suite.figures_ms"),
    ("suite.findings", "suite.findings_ms"),
    ("suite.robustness", "suite.robustness_ms"),
    ("suite.crossovers", "suite.crossovers_ms"),
    ("suite.defect_sim", "suite.defect_sim_ms"),
    ("suite.scenarios", "suite.scenarios_ms"),
];

/// The mechanism pairs of the suite's crossover stage.
fn crossover_pairs() -> focal_core::Result<Vec<(DesignPoint, DesignPoint)>> {
    use focal_uarch::{
        Accelerator, CoreMicroarch, DarkSiliconSoc, PipelineGating, PreciseRunahead,
    };
    let reference = DesignPoint::reference();
    let shrink = focal_scaling::DieShrink::next_node(focal_scaling::ScalingRegime::PostDennard)
        .design_points()?
        .0;
    Ok(vec![
        (
            CoreMicroarch::ForwardSlice.design_point()?,
            CoreMicroarch::OutOfOrder.design_point()?,
        ),
        (
            CoreMicroarch::OutOfOrder.design_point()?,
            CoreMicroarch::InOrder.design_point()?,
        ),
        (PreciseRunahead::PAPER.design_point()?, reference),
        (PipelineGating::PAPER.design_point()?, reference),
        (Accelerator::HAMEED_H264.design_point(0.3)?, reference),
        (DarkSiliconSoc::PAPER.design_point(0.3)?, reference),
        (shrink, reference),
    ])
}

/// One traced pass over the suite's stages, each timed around its
/// public entry point, sharing one memo as the suite does. Returns the
/// memo's hit ratio and the figure digest entries (checked against the
/// suite's own report).
///
/// # Errors
///
/// Any stage's model error.
pub fn traced_pass(
    engine: &Engine,
    rec: &mut Recorder,
) -> focal_core::Result<(f64, Vec<(String, String)>)> {
    let mut memo = SweepMemo::new();
    let pass = rec.begin("suite", None, NO_REQ);

    let span = rec.begin(STAGES[0].0, Some(pass), NO_REQ);
    let figures = focal_studies::all_figures_on(engine)?;
    rec.end(span);
    let mut figure_entries: Vec<(String, String)> = figures
        .iter()
        .map(|f| {
            (
                f.id.to_string(),
                focal_scenario::digest_entry(f.to_csv().as_bytes()),
            )
        })
        .collect();
    figure_entries.sort();

    let span = rec.begin(STAGES[1].0, Some(pass), NO_REQ);
    let findings = focal_studies::all_findings_on(engine)?;
    rec.end(span);
    std::hint::black_box(&findings);

    let span = rec.begin(STAGES[2].0, Some(pass), NO_REQ);
    let robustness = focal_studies::robustness::verdict_robustness_with(
        engine,
        ROBUSTNESS_JITTER,
        ROBUSTNESS_SAMPLES,
        ROBUSTNESS_SEED,
        &mut Some(&mut memo),
    )?;
    rec.end(span);
    std::hint::black_box(&robustness);

    let pairs = crossover_pairs()?;
    let span = rec.begin(STAGES[3].0, Some(pass), NO_REQ);
    let fw = alpha_crossover_batch_memo(engine, &pairs, Scenario::FixedWork, &mut memo);
    let ft = alpha_crossover_batch_memo(engine, &pairs, Scenario::FixedTime, &mut memo);
    for (x, y) in &pairs {
        std::hint::black_box(classify_over_range_memo_on(
            engine,
            x,
            y,
            E2oRange::FULL,
            101,
            &mut memo,
        )?);
    }
    rec.end(span);
    std::hint::black_box((fw, ft));

    let span = rec.begin(STAGES[4].0, Some(pass), NO_REQ);
    let placement = DiePlacement::square(10.0);
    for distribution in [
        DefectDistribution::Uniform,
        DefectDistribution::Clustered {
            mean_cluster_size: 8.0,
            cluster_radius_mm: 2.0,
        },
    ] {
        std::hint::black_box(
            DefectSimulator::new(Wafer::W300MM, distribution, DEFECT_SIM_SEED).run(
                &placement,
                DEFECT_SIM_DENSITY,
                DEFECT_SIM_WAFERS,
            )?,
        );
    }
    rec.end(span);

    let span = rec.begin(STAGES[5].0, Some(pass), NO_REQ);
    let scenarios = focal_scenario::load_dir(&PathBuf::from("data/scenarios")).map_err(|_| {
        focal_core::ModelError::Inconsistent {
            constraint: "the scenario corpus under data/scenarios must load",
        }
    })?;
    let results = focal_scenario::evaluate_all_memo_on(engine, &scenarios, &mut memo)?;
    rec.end(span);
    std::hint::black_box(results);

    rec.end(pass);
    Ok((memo.stats().hit_rate(), figure_entries))
}

/// Monte-Carlo kernel timings on one robustness experiment (the
/// out-of-order core against the reference, embodied-dominated α, the
/// suite's jitter, seed and sample count): medians over repeated calls.
#[derive(Debug, Clone, Copy)]
pub struct McTimings {
    /// `sample_values_on` per sample, ns (two threads).
    pub sample_ns: f64,
    /// `run_on` minus `sample_values_on`, ns per call (two threads).
    pub summarize_ns: f64,
    /// Serial `run_on` over two-thread `run_on`.
    pub speedup_2t: f64,
    /// Serial and two-thread summaries agree.
    pub deterministic: bool,
}

/// Measures [`McTimings`] for at most `budget`.
///
/// # Errors
///
/// Any model error from the sampler.
pub fn mc_timings(budget: Duration) -> focal_core::Result<McTimings> {
    let x = focal_uarch::CoreMicroarch::OutOfOrder.design_point()?;
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(
        E2oRange::EMBODIED_DOMINATED,
        ROBUSTNESS_JITTER,
        ROBUSTNESS_SEED,
    )?;
    let two = Engine::with_threads(2);
    let one = Engine::serial();
    let samples = ROBUSTNESS_SAMPLES;
    let (mut sample, mut run2, mut run1) = (Vec::new(), Vec::new(), Vec::new());
    let mut deterministic = true;
    let start = Instant::now();
    while sample.len() < 5 || (start.elapsed() < budget && sample.len() < 400) {
        let t = Instant::now();
        std::hint::black_box(mc.sample_values_on(&two, &x, &y, Scenario::FixedWork, samples)?);
        sample.push(t.elapsed().as_secs_f64() * 1e9);
        let t = Instant::now();
        let a = mc.run_on(&two, &x, &y, Scenario::FixedWork, samples)?;
        run2.push(t.elapsed().as_secs_f64() * 1e9);
        let t = Instant::now();
        let b = mc.run_on(&one, &x, &y, Scenario::FixedWork, samples)?;
        run1.push(t.elapsed().as_secs_f64() * 1e9);
        deterministic &= a == b;
    }
    let sample_med = median(&sample);
    Ok(McTimings {
        sample_ns: sample_med / samples as f64,
        summarize_ns: median(&run2) - sample_med,
        speedup_2t: median(&run1) / median(&run2),
        deterministic,
    })
}

/// Median stage time (ms) per stage metric name, from traced passes.
#[must_use]
pub fn stage_medians(rec: &Recorder) -> BTreeMap<&'static str, f64> {
    STAGES
        .iter()
        .map(|(span, metric)| {
            let times: Vec<f64> = rec
                .spans()
                .iter()
                .filter(|s| s.name == *span)
                .map(|s| (s.end - s.start) as f64 / 1e6)
                .collect();
            (*metric, median(&times))
        })
        .collect()
}

/// A `reproduce` run: three untimed suite runs (`setup_s`, and the
/// reference bytes), then either back-to-back timed suite runs for
/// `seconds` or, traced, the stage and Monte-Carlo timings.
pub fn run(seconds: f64, trace: bool) -> Outcome {
    let engine = Engine::with_threads(2);
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(seconds);
    let mut setups = Vec::new();
    let mut reference: Option<String> = None;
    for _ in 0..3 {
        let run = run_once(&engine);
        setups.push(run.wall_us / 1e6);
        if !run.ok || reference.get_or_insert_with(|| run.json.clone()) != &run.json {
            out.failed += 1;
        }
    }
    let reference = reference.expect("three set-up runs");
    if trace {
        let mut rec = Recorder::new();
        let start = Instant::now();
        let mut memo_hit = 0.0;
        let mut passes = 0;
        let suite_figures = suite_figure_entries(&reference);
        while passes < 3 || start.elapsed() < budget / 2 {
            passes += 1;
            out.attempted += 1;
            match traced_pass(&engine, &mut rec) {
                Ok((hit, figures)) => {
                    memo_hit = hit;
                    if figures != suite_figures {
                        out.failed += 1;
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.note(format!("traced pass: {e}"));
                }
            }
        }
        for (name, ms) in stage_medians(&rec) {
            out.metric(name, ms);
        }
        out.metric("core.memo.hit_ratio", memo_hit);
        match mc_timings(budget / 3) {
            Ok(mc) => {
                out.metric("core.mc.sample_ns", mc.sample_ns);
                out.metric("core.mc.summarize_ns", mc.summarize_ns);
                out.metric("core.mc.speedup_2t", mc.speedup_2t);
                if !mc.deterministic {
                    out.failed += 1;
                    out.note("serial and two-thread Monte-Carlo summaries differ".to_string());
                }
            }
            Err(e) => out.note(format!("Monte-Carlo timing: {e}")),
        }
        out.detail(format!("traced suite passes: {passes}"));
        return out;
    }
    let per_slice = (NOMINAL_RUNS_PER_S * seconds / SLICES as f64).ceil() as usize;
    let (mut rates, mut slices) = (Vec::new(), Vec::new());
    for _ in 0..SLICES {
        let start = Instant::now();
        let mut times = Vec::with_capacity(per_slice);
        for _ in 0..per_slice {
            let run = run_once(&engine);
            out.attempted += 1;
            if !run.ok || run.json != reference {
                out.failed += 1;
            }
            times.push(run.wall_us);
        }
        rates.push(per_slice as f64 / start.elapsed().as_secs_f64());
        slices.push(times);
    }
    out.sliced(&rates, &slices);
    out.detail(format!(
        "suite_ms = {} (median of {} runs)",
        median(&slices.concat()) / 1000.0,
        SLICES * per_slice
    ));
    match vm_hwm_mb("/proc/self/status") {
        Some(mb) => out.metric("peak_rss_mb", mb),
        None => out.note("own VmHWM unreadable".to_string()),
    }
    out.metric("setup_s", median(&setups));
    out.detail("setup_s: median of 3 untimed suite runs".to_string());
    out
}

/// The figures stage entries of a suite `--no-timings` JSON report.
fn suite_figure_entries(json: &str) -> Vec<(String, String)> {
    let parsed = JsonValue::parse(json).ok();
    let stage = parsed.as_ref().and_then(|v| {
        v.get("stages")?
            .as_array()?
            .iter()
            .find(|s| s.get("name").and_then(JsonValue::as_str) == Some("figures"))
    });
    let mut entries: Vec<(String, String)> = stage
        .and_then(|s| s.get("entries"))
        .and_then(JsonValue::as_object)
        .map(|obj| {
            obj.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect()
        })
        .unwrap_or_default();
    entries.sort();
    entries
}
