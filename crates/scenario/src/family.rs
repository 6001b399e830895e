//! The study-family table: one [`FamilyDesc`] row per family of the
//! scenario DSL, each with the resolve function that builds the family's
//! [`StudySpec`] from a scenario's inputs and records its `[resolved]`
//! entries.
//!
//! Adding a family is one row of [`FAMILIES`], one resolve function, one
//! [`StudySpec`] variant and its evaluation arm in [`crate::compile`].
//! Keys come from [`crate::schema::KEYS`]; defaults come from the
//! studies' own constants and `Default`/`paper()` impls.

use std::fmt;

use crate::canonical::{list, Cx, StudySpec};
use crate::error::Result;
use focal_cache::{CacheSize, CactiLite, MemoryBoundWorkload, MissRateModel};
use focal_perf::{LeakageFraction, ParallelFraction, PollackRule};
use focal_studies::accelerator::AcceleratorStudy;
use focal_studies::asymmetric::AsymmetricStudy;
use focal_studies::caching::CachingStudy;
use focal_studies::case_study::CaseStudy;
use focal_studies::dark_silicon::DarkSiliconStudy;
use focal_studies::dvfs::DvfsStudy;
use focal_studies::gating::GatingStudy;
use focal_studies::multicore::MulticoreStudy;
use focal_studies::speculation::SpeculationStudy;
use focal_uarch::{
    Accelerator, BranchPredictor, DarkSiliconSoc, DvfsCore, PipelineGating, PreciseRunahead,
    TurboBoost,
};
use focal_wafer::{DefectDensity, Wafer, YieldModel};

/// One study family of the DSL.
pub struct FamilyDesc {
    /// The DSL spelling (`study = "…"`).
    pub name: &'static str,
    /// The registry figure a `kind = "figure"` scenario compiles to.
    pub figure: Option<&'static str>,
    /// The finding indices a `kind = "finding"` scenario may name.
    pub findings: &'static [u32],
    /// The `[params]` keys the family accepts (a key's unit alias is
    /// accepted with it).
    pub params: &'static [&'static str],
    /// The `[sweep]` keys the family accepts.
    pub sweep: &'static [&'static str],
    /// The `[assumptions]` keys the family accepts; `act` stands for the
    /// whole `[assumptions.act]` table.
    pub assumptions: &'static [&'static str],
    /// Builds the spec and records the `[resolved]` entries.
    pub(crate) resolve: fn(&mut Cx<'_>) -> Result<StudySpec>,
}

impl fmt::Debug for FamilyDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FamilyDesc({})", self.name)
    }
}

impl PartialEq for FamilyDesc {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

const ALPHA: &[&str] = &["alpha", "act"];
const BANDS: &[&str] = &["alpha_center", "alpha_half_width"];
const NONE: &[&str] = &[];

/// Every study family, in the order the "unknown study" error lists them.
pub static FAMILIES: &[FamilyDesc] = &[
    // Figure 1 — embodied footprint vs. die size (yield substrate).
    FamilyDesc {
        name: "wafer",
        figure: Some("fig1"),
        findings: &[],
        resolve: wafer,
        params: &[
            "wafer_diameter_mm",
            "defect_density_per_cm2",
            "yield_models",
        ],
        sweep: &["die_min_mm2", "die_max_mm2", "die_steps", "reference_mm2"],
        assumptions: NONE,
    },
    // §5.1 symmetric multicore.
    FamilyDesc {
        name: "multicore",
        figure: Some("fig3"),
        findings: &[1, 2, 3],
        resolve: multicore,
        params: &["gamma", "pollack_exponent"],
        sweep: &["bce", "parallel_fraction"],
        assumptions: ALPHA,
    },
    // §5.2 asymmetric multicore.
    FamilyDesc {
        name: "asymmetric",
        figure: Some("fig4"),
        findings: &[4, 5],
        resolve: asymmetric,
        params: &["gamma", "pollack_exponent", "big_core_bce"],
        sweep: &["bce", "parallel_fraction"],
        assumptions: ALPHA,
    },
    // §5.3 hardware acceleration.
    FamilyDesc {
        name: "accelerator",
        figure: Some("fig5a"),
        findings: &[6],
        resolve: accelerator,
        params: &["area_overhead", "energy_advantage"],
        sweep: &["utilization_steps"],
        assumptions: BANDS,
    },
    // §5.4 dark silicon.
    FamilyDesc {
        name: "dark-silicon",
        figure: Some("fig5b"),
        findings: &[7],
        resolve: dark_silicon,
        params: &["accelerator_area_fraction", "energy_advantage"],
        sweep: &["utilization_steps"],
        assumptions: BANDS,
    },
    // §5.5 caching.
    FamilyDesc {
        name: "caching",
        figure: Some("fig6"),
        findings: &[8],
        resolve: caching,
        params: &[
            "stall_fraction",
            "memory_energy_fraction",
            "cache_energy_fraction",
            "base_mib",
            "miss_exponent",
        ],
        sweep: &["llc_mib"],
        assumptions: ALPHA,
    },
    // §5.6 core microarchitecture.
    FamilyDesc {
        name: "microarch",
        figure: Some("fig7"),
        findings: &[9, 10, 11],
        resolve: |cx| {
            Ok(StudySpec::Microarch {
                alphas: cx.alphas()?,
            })
        },
        params: NONE,
        sweep: NONE,
        assumptions: ALPHA,
    },
    // §5.7 speculation.
    FamilyDesc {
        name: "speculation",
        figure: Some("fig8"),
        findings: &[12, 13],
        resolve: speculation,
        params: &[
            "predictor_energy_ratio",
            "predictor_performance_ratio",
            "runahead_performance_ratio",
            "runahead_energy_ratio",
            "runahead_area_overhead",
        ],
        sweep: &["area_steps", "max_predictor_area"],
        assumptions: ALPHA,
    },
    // §5.8 DVFS.
    FamilyDesc {
        name: "dvfs",
        figure: None,
        findings: &[14, 15],
        resolve: dvfs,
        params: &[
            "dynamic_power_fraction",
            "regulator_area_overhead",
            "turbo_area_overhead",
            "downscale",
            "boost",
        ],
        sweep: NONE,
        assumptions: NONE,
    },
    // §5.9 pipeline gating.
    FamilyDesc {
        name: "gating",
        figure: None,
        findings: &[16],
        resolve: gating,
        params: &[
            "gating_energy_ratio",
            "gating_performance_ratio",
            "gating_area_overhead",
        ],
        sweep: NONE,
        assumptions: NONE,
    },
    // §6 die shrink (no parameters).
    FamilyDesc {
        name: "die-shrink",
        figure: None,
        findings: &[17],
        resolve: |_| Ok(StudySpec::DieShrink),
        params: NONE,
        sweep: NONE,
        assumptions: NONE,
    },
    // §7 case study.
    FamilyDesc {
        name: "case-study",
        figure: Some("fig9"),
        findings: &[18],
        resolve: case_study,
        params: &["parallel_fraction", "base_cores", "gamma"],
        sweep: NONE,
        assumptions: ALPHA,
    },
    // §3.5 taxonomy verdict robustness (Monte-Carlo).
    FamilyDesc {
        name: "taxonomy",
        figure: None,
        findings: &[],
        resolve: taxonomy,
        params: NONE,
        sweep: NONE,
        assumptions: NONE,
    },
];

fn wafer(cx: &mut Cx<'_>) -> Result<StudySpec> {
    use focal_studies::wafer_figure::{DIE_MAX_MM2, DIE_MIN_MM2, DIE_STEPS, REFERENCE_MM2};
    let wafer = cx.model_or("wafer_diameter_mm", Wafer::new, Wafer::W300MM)?;
    let defect_density = cx.model_or(
        "defect_density_per_cm2",
        DefectDensity::per_cm2,
        DefectDensity::TSMC_VOLUME,
    )?;
    let yield_models = cx
        .each(cx.strs("yield_models")?, "model", |s| YieldModel::parse(s))?
        .unwrap_or_else(|| vec![YieldModel::Perfect, YieldModel::Murphy]);
    let die_min_mm2 = cx.num_or("die_min_mm2", DIE_MIN_MM2)?;
    let die_max_mm2 = cx.num_or("die_max_mm2", DIE_MAX_MM2)?;
    if die_min_mm2 >= die_max_mm2 {
        let message = format!(
            "inverted die sweep: die_min_mm2 ({die_min_mm2}) must be below \
             die_max_mm2 ({die_max_mm2})"
        );
        let line = cx.line_of(&["die_min_mm2", "die_max_mm2"]);
        return Err(cx.err(line, "die_min_mm2", message));
    }
    cx.positive("die_min_mm2", die_min_mm2, "die sizes must be positive")?;
    let reference_mm2 = cx.num_or("reference_mm2", REFERENCE_MM2)?;
    let what = "the reference die must be positive";
    let reference_mm2 = cx.positive("reference_mm2", reference_mm2, what)?;
    let die_steps = cx.steps("die_steps", DIE_STEPS)?;
    let specs = yield_models.iter().map(|&m| format!("{:?}", yield_spec(m)));
    cx.put("yield_models", list(specs));
    cx.put("defect_density_per_cm2", defect_density.get_per_cm2());
    cx.put("die_max_mm2", die_max_mm2);
    cx.put("die_min_mm2", die_min_mm2);
    cx.put("reference_mm2", reference_mm2);
    cx.put("wafer_diameter_mm", wafer.diameter_mm());
    Ok(StudySpec::Wafer {
        wafer,
        defect_density,
        yield_models,
        die_min_mm2,
        die_max_mm2,
        die_steps,
        reference_mm2,
    })
}

/// The `YieldModel::parse` spelling of a yield model.
fn yield_spec(model: YieldModel) -> String {
    match model {
        YieldModel::BoseEinstein { critical_layers } => {
            format!("bose-einstein:{critical_layers}")
        }
        YieldModel::NegativeBinomial { alpha } => format!("negative-binomial:{alpha}"),
        other => other.label().to_string(),
    }
}

/// The BCE sweep, or `default`; recorded.
fn bces(cx: &mut Cx<'_>, default: &[u32]) -> Result<Vec<u32>> {
    let bces = cx.each(cx.u32s("bce")?, "chip size", |&b| Ok(b))?;
    let bces = bces.unwrap_or_else(|| default.to_vec());
    cx.put("bce", list(&bces));
    Ok(bces)
}

fn multicore(cx: &mut Cx<'_>) -> Result<StudySpec> {
    let d = MulticoreStudy::default();
    let study = MulticoreStudy {
        gamma: cx.model_or("gamma", LeakageFraction::new, d.gamma)?,
        pollack: cx.model_or("pollack_exponent", PollackRule::new, d.pollack)?,
    };
    let bces = bces(cx, &focal_studies::multicore::BCE_SWEEP)?;
    let fs = cx.each(cx.nums("parallel_fraction")?, "value", |&f| {
        ParallelFraction::new(f)
    })?;
    let fs = fs.unwrap_or_else(ParallelFraction::paper_sweep);
    let alphas = cx.alphas()?;
    cx.put("gamma", study.gamma.get());
    cx.put("parallel_fraction", list(fs.iter().map(|f| f.parallel())));
    cx.put("pollack_exponent", study.pollack.exponent());
    Ok(StudySpec::Multicore {
        study,
        bces,
        fs,
        alphas,
    })
}

fn asymmetric(cx: &mut Cx<'_>) -> Result<StudySpec> {
    let d = AsymmetricStudy::default();
    let big_core_bce = cx.num_or("big_core_bce", d.big_core_bce)?;
    let what = "the big core needs positive area";
    let study = AsymmetricStudy {
        big_core_bce: cx.positive("big_core_bce", big_core_bce, what)?,
        gamma: cx.model_or("gamma", LeakageFraction::new, d.gamma)?,
        pollack: cx.model_or("pollack_exponent", PollackRule::new, d.pollack)?,
    };
    let bces = bces(cx, &focal_studies::asymmetric::BCE_SWEEP)?;
    // The study sweeps raw fractions; validate them through the typed
    // constructor all the same.
    let fs = cx.each(cx.nums("parallel_fraction")?, "value", |&f| {
        ParallelFraction::new(f).map(|_| f)
    })?;
    let fs = fs.unwrap_or_else(|| focal_studies::asymmetric::F_SWEEP.to_vec());
    let alphas = cx.alphas()?;
    cx.put("big_core_bce", study.big_core_bce);
    cx.put("gamma", study.gamma.get());
    cx.put("parallel_fraction", list(&fs));
    cx.put("pollack_exponent", study.pollack.exponent());
    Ok(StudySpec::Asymmetric {
        study,
        bces,
        fs,
        alphas,
    })
}

fn accelerator(cx: &mut Cx<'_>) -> Result<StudySpec> {
    let d = AcceleratorStudy::default().accelerator;
    let area = cx.num_or("area_overhead", d.area_overhead())?;
    let energy = cx.num_or("energy_advantage", d.energy_advantage())?;
    let line = cx.line_of(&["area_overhead", "energy_advantage"]);
    let accelerator = cx.model("area_overhead", line, Accelerator::new(area, energy))?;
    let steps = cx.steps(
        "utilization_steps",
        focal_studies::accelerator::UTILIZATION_STEPS,
    )?;
    let ranges = cx.ranges()?;
    cx.put("area_overhead", accelerator.area_overhead());
    cx.put("energy_advantage", accelerator.energy_advantage());
    Ok(StudySpec::Accelerator {
        study: AcceleratorStudy { accelerator },
        steps,
        ranges,
    })
}

fn dark_silicon(cx: &mut Cx<'_>) -> Result<StudySpec> {
    let d = DarkSiliconStudy::default().soc;
    let fraction = cx.num_or("accelerator_area_fraction", d.accelerator_area_fraction())?;
    let energy = cx.num_or("energy_advantage", d.energy_advantage())?;
    let line = cx.line_of(&["accelerator_area_fraction", "energy_advantage"]);
    let soc = DarkSiliconSoc::new(fraction, energy);
    let soc = cx.model("accelerator_area_fraction", line, soc)?;
    let steps = cx.steps(
        "utilization_steps",
        focal_studies::dark_silicon::UTILIZATION_STEPS,
    )?;
    let ranges = cx.ranges()?;
    cx.put("accelerator_area_fraction", soc.accelerator_area_fraction());
    cx.put("energy_advantage", soc.energy_advantage());
    Ok(StudySpec::DarkSilicon {
        study: DarkSiliconStudy { soc },
        steps,
        ranges,
    })
}

fn caching(cx: &mut Cx<'_>) -> Result<StudySpec> {
    let paper = cx
        .model("study", cx.def.study_line, CachingStudy::paper())?
        .workload;
    let stall = cx.num_or("stall_fraction", paper.stall_fraction())?;
    let memory = cx.num_or("memory_energy_fraction", paper.memory_energy_fraction())?;
    let cache = cx.num_or("cache_energy_fraction", paper.cache_energy_fraction())?;
    let miss_model = cx.model_or("miss_exponent", MissRateModel::new, paper.miss_model())?;
    let base_size = cx.model_or("base_mib", CacheSize::from_mib, paper.base_size())?;
    let line = cx.line_of(&[
        "stall_fraction",
        "memory_energy_fraction",
        "cache_energy_fraction",
    ]);
    let workload = MemoryBoundWorkload::new(
        CactiLite::paper_65nm(),
        miss_model,
        base_size,
        stall,
        memory,
        cache,
    );
    let workload = cx.model("stall_fraction", line, workload)?;
    let sizes = cx.each(cx.nums("llc_mib")?, "size", |&v| CacheSize::from_mib(v))?;
    let sizes = sizes.unwrap_or_else(CacheSize::paper_sweep);
    let alphas = cx.alphas()?;
    cx.put("base_mib", workload.base_size().mib());
    cx.put("cache_energy_fraction", workload.cache_energy_fraction());
    cx.put("llc_mib", list(sizes.iter().map(|s| s.mib())));
    cx.put("memory_energy_fraction", workload.memory_energy_fraction());
    cx.put("miss_exponent", workload.miss_model().exponent());
    cx.put("stall_fraction", workload.stall_fraction());
    Ok(StudySpec::Caching {
        study: CachingStudy { workload },
        sizes,
        alphas,
    })
}

fn speculation(cx: &mut Cx<'_>) -> Result<StudySpec> {
    let SpeculationStudy {
        predictor: p,
        runahead: r,
    } = SpeculationStudy::default();
    let energy = cx.num_or("predictor_energy_ratio", p.energy_ratio())?;
    let performance = cx.num_or("predictor_performance_ratio", p.performance_ratio())?;
    let line = cx.line_of(&["predictor_energy_ratio", "predictor_performance_ratio"]);
    let predictor = BranchPredictor::new(energy, performance);
    let predictor = cx.model("predictor_energy_ratio", line, predictor)?;
    let performance = cx.num_or("runahead_performance_ratio", r.performance_ratio)?;
    let energy = cx.num_or("runahead_energy_ratio", r.energy_ratio)?;
    let area = cx.num_or("runahead_area_overhead", r.area_overhead)?;
    let line = cx.line_of(&[
        "runahead_performance_ratio",
        "runahead_energy_ratio",
        "runahead_area_overhead",
    ]);
    let runahead = PreciseRunahead::new(performance, energy, area);
    let runahead = cx.model("runahead_performance_ratio", line, runahead)?;
    let max_area = cx.num_or(
        "max_predictor_area",
        focal_studies::speculation::MAX_PREDICTOR_AREA,
    )?;
    let what = "the predictor-area ceiling must be positive";
    let max_area = cx.positive("max_predictor_area", max_area, what)?;
    let steps = cx.steps("area_steps", focal_studies::speculation::AREA_STEPS)?;
    let alphas = cx.alphas()?;
    cx.put("max_predictor_area", max_area);
    cx.put("predictor_energy_ratio", predictor.energy_ratio());
    cx.put("predictor_performance_ratio", predictor.performance_ratio());
    cx.put("runahead_area_overhead", runahead.area_overhead);
    cx.put("runahead_energy_ratio", runahead.energy_ratio);
    cx.put("runahead_performance_ratio", runahead.performance_ratio);
    Ok(StudySpec::Speculation {
        study: SpeculationStudy {
            predictor,
            runahead,
        },
        steps,
        max_area,
        alphas,
    })
}

fn dvfs(cx: &mut Cx<'_>) -> Result<StudySpec> {
    let d = DvfsStudy::default();
    let dynamic = cx.num_or("dynamic_power_fraction", d.core.dynamic_power_fraction())?;
    let regulator = cx.num_or("regulator_area_overhead", d.core.regulator_area_overhead())?;
    let line = cx.line_of(&["dynamic_power_fraction", "regulator_area_overhead"]);
    let core = DvfsCore::new(dynamic, regulator);
    let core = cx.model("dynamic_power_fraction", line, core)?;
    let turbo_area = cx.num_or("turbo_area_overhead", d.turbo.turbo_area_overhead())?;
    let line = cx.line_of(&["turbo_area_overhead"]);
    let turbo = TurboBoost::new(core, turbo_area);
    let turbo = cx.model("turbo_area_overhead", line, turbo)?;
    cx.put("dynamic_power_fraction", core.dynamic_power_fraction());
    cx.put("regulator_area_overhead", core.regulator_area_overhead());
    cx.put("turbo_area_overhead", turbo.turbo_area_overhead());
    let study = DvfsStudy {
        core,
        turbo,
        downscale: cx.num_or("downscale", d.downscale)?,
        boost: cx.num_or("boost", d.boost)?,
    };
    cx.put("boost", study.boost);
    cx.put("downscale", study.downscale);
    Ok(StudySpec::Dvfs { study })
}

fn gating(cx: &mut Cx<'_>) -> Result<StudySpec> {
    let d = GatingStudy::default().gating;
    let energy = cx.num_or("gating_energy_ratio", d.energy_ratio)?;
    let performance = cx.num_or("gating_performance_ratio", d.performance_ratio)?;
    let area = cx.num_or("gating_area_overhead", d.area_overhead)?;
    let line = cx.line_of(&[
        "gating_energy_ratio",
        "gating_performance_ratio",
        "gating_area_overhead",
    ]);
    let gating = PipelineGating::new(energy, performance, area);
    let gating = cx.model("gating_energy_ratio", line, gating)?;
    cx.put("gating_area_overhead", gating.area_overhead);
    cx.put("gating_energy_ratio", gating.energy_ratio);
    cx.put("gating_performance_ratio", gating.performance_ratio);
    Ok(StudySpec::Gating {
        study: GatingStudy { gating },
    })
}

fn case_study(cx: &mut Cx<'_>) -> Result<StudySpec> {
    let d = cx.model("study", cx.def.study_line, CaseStudy::paper())?;
    let f = cx.model_or("parallel_fraction", ParallelFraction::new, d.f)?;
    let base_cores = match cx.int("base_cores")? {
        None => d.base_cores,
        Some(c) => match u32::try_from(c.value) {
            Ok(n) if n > 0 => n,
            _ => {
                let message = "`base_cores` must be positive".to_string();
                return Err(cx.err(c.line, "base_cores", message));
            }
        },
    };
    let study = CaseStudy {
        f,
        gamma: cx.model_or("gamma", LeakageFraction::new, d.gamma)?,
        base_cores,
        trend: d.trend,
    };
    let alphas = cx.alphas()?;
    cx.put("base_cores", study.base_cores);
    cx.put("gamma", study.gamma.get());
    cx.put("parallel_fraction", study.f.parallel());
    Ok(StudySpec::CaseStudy { study, alphas })
}

fn taxonomy(cx: &mut Cx<'_>) -> Result<StudySpec> {
    let mc = (cx.int("samples")?, cx.int("seed")?, cx.num("jitter")?);
    let (Some(samples), Some(seed), Some(jitter)) = mc else {
        let message = "robustness scenarios need a `[monte_carlo]` table (samples, seed, jitter)";
        return Err(cx.err(cx.def.study_line, "monte_carlo", message.to_string()));
    };
    if !(0.0..1.0).contains(&jitter.value) {
        let message = format!("`jitter` must be in [0, 1), got {}", jitter.value);
        return Err(cx.err(jitter.line, "jitter", message));
    }
    let samples = usize::try_from(samples.value).unwrap_or(usize::MAX);
    cx.put("jitter", jitter.value);
    cx.put("samples", samples);
    cx.put("seed", seed.value);
    Ok(StudySpec::Taxonomy {
        samples,
        seed: seed.value,
        jitter: jitter.value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::KEYS;

    #[test]
    fn every_accepted_key_is_a_key_table_row_of_its_table() {
        for f in FAMILIES {
            let tables = [
                ("params", f.params),
                ("sweep", f.sweep),
                ("assumptions", f.assumptions),
            ];
            for (table, names) in tables {
                for &name in names.iter().filter(|&&n| n != "act") {
                    assert!(
                        KEYS.iter().any(|k| k.table == table && k.name == name),
                        "{}: `{name}` is not a key of [{table}]",
                        f.name
                    );
                }
            }
        }
    }

    #[test]
    fn accepted_key_names_are_unique_within_a_family() {
        // Resolve functions look inputs up by name alone.
        let nested: Vec<&str> = KEYS
            .iter()
            .filter(|k| matches!(k.table, "assumptions.act" | "monte_carlo"))
            .map(|k| k.name)
            .collect();
        for f in FAMILIES {
            let mut names: Vec<&str> = [f.params, f.sweep, f.assumptions].concat();
            names.extend(&nested);
            let before = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), before, "{} accepts a name twice", f.name);
        }
    }

    #[test]
    fn family_names_and_figures_are_unique() {
        let mut names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        let mut figures: Vec<&str> = FAMILIES.iter().filter_map(|f| f.figure).collect();
        let mut findings: Vec<u32> = FAMILIES.iter().flat_map(|f| f.findings.to_vec()).collect();
        let counts = (names.len(), figures.len(), findings.len());
        names.sort_unstable();
        names.dedup();
        figures.sort_unstable();
        figures.dedup();
        findings.sort_unstable();
        findings.dedup();
        assert_eq!((names.len(), figures.len(), findings.len()), counts);
        assert_eq!(findings, (1..=18).collect::<Vec<u32>>());
    }
}
