//! Canonicalization: resolve a type-checked [`ScenarioDef`] into a
//! [`CanonicalScenario`] with every default filled in from the studies'
//! own paper constants, units normalized (KiB → MiB, percent →
//! fraction), cross-field constraints validated (inverted sweeps, empty
//! axes, kind/family compatibility), and a stable canonical rendering
//! whose FNV-64 digest is insensitive to key order and comments in the
//! source file.
//!
//! The family's [`FamilyDesc`] row says which keys it accepts and which
//! figure and findings it covers; its resolve function builds the
//! [`StudySpec`] through a resolution context and records the `[resolved]` entries of
//! the canonical text from the constructed models as it goes.

use std::fmt::Display;

use crate::error::{Result, ScenarioError};
use crate::family::FamilyDesc;
use crate::schema::{Input, ScenarioDef, ScenarioKind, Val};
use focal_act::{ActModel, ActParameters, CarbonIntensity, DeviceFootprint, UsePhase};
use focal_cache::CacheSize;
use focal_core::{E2oRange, E2oWeight, SiliconArea};
use focal_perf::ParallelFraction;
use focal_scaling::TechNode;
use focal_studies::accelerator::AcceleratorStudy;
use focal_studies::asymmetric::AsymmetricStudy;
use focal_studies::caching::CachingStudy;
use focal_studies::case_study::CaseStudy;
use focal_studies::dark_silicon::DarkSiliconStudy;
use focal_studies::dvfs::DvfsStudy;
use focal_studies::gating::GatingStudy;
use focal_studies::multicore::MulticoreStudy;
use focal_studies::speculation::SpeculationStudy;
use focal_wafer::{DefectDensity, Wafer, YieldModel};

/// The fully resolved parameters of one study family — what the
/// compiler actually evaluates. Every field is a validated model type,
/// so evaluation cannot fail on malformed input.
#[derive(Debug, Clone, PartialEq)]
pub enum StudySpec {
    /// Figure 1: embodied footprint vs. die size.
    Wafer {
        /// Wafer geometry.
        wafer: Wafer,
        /// Defect density shared by all yield models.
        defect_density: DefectDensity,
        /// One curve per yield model.
        yield_models: Vec<YieldModel>,
        /// Smallest die in the sweep, mm².
        die_min_mm2: f64,
        /// Largest die in the sweep, mm².
        die_max_mm2: f64,
        /// Grid points.
        die_steps: usize,
        /// Die size the footprints are normalized to, mm².
        reference_mm2: f64,
    },
    /// §5.1 symmetric multicore.
    Multicore {
        /// The configured study.
        study: MulticoreStudy,
        /// BCE sweep.
        bces: Vec<u32>,
        /// Parallel fractions.
        fs: Vec<ParallelFraction>,
        /// α regimes.
        alphas: Vec<E2oWeight>,
    },
    /// §5.2 asymmetric multicore.
    Asymmetric {
        /// The configured study.
        study: AsymmetricStudy,
        /// BCE sweep.
        bces: Vec<u32>,
        /// Parallel fractions (the study's raw-`f64` sweep).
        fs: Vec<f64>,
        /// α regimes.
        alphas: Vec<E2oWeight>,
    },
    /// §5.3 hardware acceleration.
    Accelerator {
        /// The configured study.
        study: AcceleratorStudy,
        /// Utilization grid points.
        steps: usize,
        /// α uncertainty bands (one curve each).
        ranges: Vec<E2oRange>,
    },
    /// §5.4 dark silicon.
    DarkSilicon {
        /// The configured study.
        study: DarkSiliconStudy,
        /// Utilization grid points.
        steps: usize,
        /// α uncertainty bands.
        ranges: Vec<E2oRange>,
    },
    /// §5.5 caching.
    Caching {
        /// The configured study.
        study: CachingStudy,
        /// LLC sweep.
        sizes: Vec<CacheSize>,
        /// α regimes.
        alphas: Vec<E2oWeight>,
    },
    /// §5.6 core microarchitecture.
    Microarch {
        /// α regimes.
        alphas: Vec<E2oWeight>,
    },
    /// §5.7 speculation.
    Speculation {
        /// The configured study.
        study: SpeculationStudy,
        /// Predictor-area grid points.
        steps: usize,
        /// Largest predictor area, fraction of the core.
        max_area: f64,
        /// α regimes.
        alphas: Vec<E2oWeight>,
    },
    /// §5.8 DVFS.
    Dvfs {
        /// The configured study.
        study: DvfsStudy,
    },
    /// §5.9 pipeline gating.
    Gating {
        /// The configured study.
        study: GatingStudy,
    },
    /// §6 die shrink (no parameters).
    DieShrink,
    /// §7 case study.
    CaseStudy {
        /// The configured study.
        study: CaseStudy,
        /// α regimes (Figure 9 panels).
        alphas: Vec<E2oWeight>,
    },
    /// §3.5 taxonomy verdict robustness.
    Taxonomy {
        /// Monte-Carlo samples per mechanism.
        samples: usize,
        /// Base seed of the chunked sample streams.
        seed: u64,
        /// Multiplicative proxy-ratio jitter.
        jitter: f64,
    },
}

/// A fully canonicalized scenario: identity plus resolved spec.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalScenario {
    /// Unique scenario id.
    pub id: String,
    /// What it evaluates to.
    pub kind: ScenarioKind,
    /// The study family.
    pub family: &'static FamilyDesc,
    /// Finding index (`None` for figures and robustness).
    pub index: Option<u32>,
    /// Optional free-text title.
    pub title: Option<String>,
    /// The resolved evaluation spec.
    pub spec: StudySpec,
    /// The `[resolved]` entries recorded while building `spec`, sorted
    /// by key.
    resolved: Vec<(&'static str, String)>,
}

/// A provided value: the key as spelled, its source line, and the value
/// in the key's canonical unit.
#[derive(Default)]
pub(crate) struct Got<T> {
    pub(crate) key: &'static str,
    pub(crate) line: u32,
    pub(crate) value: T,
}

/// Renders `[a, b, …]` from each item's `Display`.
pub(crate) fn list<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let parts: Vec<String> = items.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

/// The resolution context of one scenario: looks up provided values,
/// reports structured errors, and collects the `[resolved]` entries.
pub(crate) struct Cx<'a> {
    pub(crate) def: &'a ScenarioDef,
    resolved: Vec<(&'static str, String)>,
}

impl<'a> Cx<'a> {
    pub(crate) fn err(&self, line: u32, key: &str, message: String) -> ScenarioError {
        ScenarioError::new(message)
            .in_file(&self.def.file)
            .at_line(line)
            .for_key(key)
    }

    /// Maps a model-constructor rejection onto `key` at `line`.
    pub(crate) fn model<T>(&self, key: &str, line: u32, r: focal_core::Result<T>) -> Result<T> {
        r.map_err(|e| self.err(line, key, e.to_string()))
    }

    /// Records one `[resolved]` entry of the canonical text.
    pub(crate) fn put(&mut self, key: &'static str, value: impl Display) {
        self.resolved.push((key, value.to_string()));
    }

    /// The input for `name` under either spelling; both spellings at
    /// once is an error. Names are unique among the keys a family
    /// accepts, so a lookup by name is unambiguous.
    fn input(&self, name: &str) -> Result<Option<&'a Input>> {
        let mut found = self.def.inputs.iter().filter(|i| i.key.name == name);
        match (found.next(), found.next()) {
            (Some(first), Some(alias)) => Err(self.err(
                alias.value.line,
                alias.spelled,
                format!(
                    "`{}` (line {}) and `{}` both set {}; choose one",
                    first.spelled,
                    first.value.line,
                    alias.spelled,
                    alias.key.alias.map_or("", |a| a.what)
                ),
            )),
            (first, _) => Ok(first),
        }
    }

    /// The input for `name` as `T`, converted by `pick` from the value
    /// and the alias units per canonical unit (1 for the canonical
    /// spelling).
    fn get<T>(
        &self,
        name: &str,
        pick: impl Fn(&'a Val, f64) -> Option<T>,
    ) -> Result<Option<Got<T>>> {
        let Some(input) = self.input(name)? else {
            return Ok(None);
        };
        let per_unit = match input.key.alias {
            Some(alias) if alias.name == input.spelled => alias.per_unit,
            _ => 1.0,
        };
        let (key, line) = (input.spelled, input.value.line);
        match pick(&input.value.value, per_unit) {
            Some(value) => Ok(Some(Got { key, line, value })),
            None => Err(self.err(line, key, format!("`{key}` has an unexpected type"))),
        }
    }

    pub(crate) fn num(&self, name: &str) -> Result<Option<Got<f64>>> {
        self.get(name, |v, per_unit| match v {
            Val::Num(x) => Some(x / per_unit),
            _ => None,
        })
    }

    pub(crate) fn nums(&self, name: &str) -> Result<Option<Got<Vec<f64>>>> {
        self.get(name, |v, per_unit| match v {
            Val::Nums(xs) => Some(xs.iter().map(|x| x / per_unit).collect()),
            _ => None,
        })
    }

    pub(crate) fn int(&self, name: &str) -> Result<Option<Got<u64>>> {
        self.get(name, |v, _| match v {
            Val::Int(i) => Some(*i),
            _ => None,
        })
    }

    pub(crate) fn u32s(&self, name: &str) -> Result<Option<Got<&'a [u32]>>> {
        self.get(name, |v, _| match v {
            Val::U32s(xs) => Some(xs.as_slice()),
            _ => None,
        })
    }

    pub(crate) fn strs(&self, name: &str) -> Result<Option<Got<&'a [String]>>> {
        self.get(name, |v, _| match v {
            Val::Strs(xs) => Some(xs.as_slice()),
            _ => None,
        })
    }

    /// The number for `name`, or `default`.
    pub(crate) fn num_or(&self, name: &str, default: f64) -> Result<f64> {
        Ok(self.num(name)?.map_or(default, |g| g.value))
    }

    /// The model built by `make` from the number for `name`, or `default`.
    pub(crate) fn model_or<T>(
        &self,
        name: &str,
        make: impl Fn(f64) -> focal_core::Result<T>,
        default: T,
    ) -> Result<T> {
        match self.num(name)? {
            Some(g) => self.model(g.key, g.line, make(g.value)),
            None => Ok(default),
        }
    }

    /// Builds one model per list item, rejecting an empty list; `None`
    /// when the list was not provided.
    pub(crate) fn each<E, T, L: AsRef<[E]>>(
        &self,
        list: Option<Got<L>>,
        noun: &str,
        make: impl Fn(&E) -> focal_core::Result<T>,
    ) -> Result<Option<Vec<T>>> {
        let Some(list) = list else {
            return Ok(None);
        };
        let items = list.value.as_ref();
        if items.is_empty() {
            let message = format!("`{}` must list at least one {noun}", list.key);
            return Err(self.err(list.line, list.key, message));
        }
        let built = items
            .iter()
            .map(|item| self.model(list.key, list.line, make(item)));
        built.collect::<Result<Vec<T>>>().map(Some)
    }

    /// The line of the first of `names` (in that order) that was
    /// provided, or else the `study` line.
    pub(crate) fn line_of(&self, names: &[&str]) -> u32 {
        let inputs = &self.def.inputs;
        names
            .iter()
            .find_map(|name| inputs.iter().find(|i| i.key.name == *name))
            .map_or(self.def.study_line, |i| i.value.line)
    }

    /// Rejects a non-positive `value` of `key` with "{what}, got {value}".
    pub(crate) fn positive(&self, key: &str, value: f64, what: &str) -> Result<f64> {
        if value <= 0.0 {
            return Err(self.err(self.line_of(&[key]), key, format!("{what}, got {value}")));
        }
        Ok(value)
    }

    /// A grid-point count (at least two), or `default`; recorded.
    pub(crate) fn steps(&mut self, name: &'static str, default: usize) -> Result<usize> {
        let steps = match self.int(name)? {
            None => default,
            Some(g) if g.value >= 2 => usize::try_from(g.value).unwrap_or(usize::MAX),
            Some(g) => {
                let message = format!("`{name}` needs at least two grid points, got {}", g.value);
                return Err(self.err(g.line, name, message));
            }
        };
        self.put(name, steps);
        Ok(steps)
    }

    /// Resolves the α weights — explicit `alpha`, an ACT derivation, or
    /// the paper's default pair — and records them.
    pub(crate) fn alphas(&mut self) -> Result<Vec<E2oWeight>> {
        let alpha = self.nums("alpha")?;
        let act = self
            .def
            .inputs
            .iter()
            .find(|i| i.key.table == "assumptions.act");
        let alphas = match (alpha, act) {
            (Some(alpha), Some(act)) => {
                let message = format!(
                    "`alpha` (line {}) and `[assumptions.act]` both set the \
                     embodied-to-operational weight; choose one",
                    alpha.line
                );
                return Err(self.err(act.value.line, "act", message));
            }
            (alpha @ Some(_), None) => self.each(alpha, "weight", |&v| E2oWeight::new(v))?,
            (None, Some(_)) => Some(vec![self.act_alpha()?]),
            (None, None) => None,
        };
        let alphas = alphas.unwrap_or_else(|| focal_studies::labels::DEFAULT_WEIGHTS.to_vec());
        self.put("alpha", list(alphas.iter().map(|a| a.get())));
        Ok(alphas)
    }

    /// Derives a single α bottom-up through the ACT model. The schema
    /// has already required every `[assumptions.act]` key.
    fn act_alpha(&self) -> Result<E2oWeight> {
        let number = |name: &str| Ok::<_, ScenarioError>(self.num(name)?.unwrap_or_default());
        let node = self.get("node", |v, _| match v {
            Val::Str(s) => Some(s.as_str()),
            _ => None,
        })?;
        let node = node.unwrap_or_default();
        let node = self.model("node", node.line, TechNode::parse(node.value))?;
        let ci = self.get("carbon_intensity", |v, _| match v {
            Val::Num(v) => Some(CarbonIntensity::g_per_kwh(*v)),
            Val::Str(name) => Some(CarbonIntensity::from_name(name)),
            _ => None,
        })?;
        let (line, intensity) =
            ci.map_or((0, CarbonIntensity::from_name("")), |g| (g.line, g.value));
        let intensity = self.model("carbon_intensity", line, intensity)?;
        let lifetime = number("lifetime_years")?;
        let power = number("average_power_watts")?;
        let die = number("die_mm2")?;
        let use_phase = self.model(
            "lifetime_years",
            lifetime.line,
            UsePhase::new(lifetime.value, power.value, intensity),
        )?;
        let area = self.model("die_mm2", die.line, SiliconArea::from_mm2(die.value))?;
        let model = ActModel::new(ActParameters::for_node(node));
        let footprint = self.model(
            "die_mm2",
            die.line,
            DeviceFootprint::assess(&model, area, &use_phase),
        )?;
        Ok(footprint.e2o_weight())
    }

    /// Resolves the α uncertainty bands of the range-based figures and
    /// records them.
    pub(crate) fn ranges(&mut self) -> Result<Vec<E2oRange>> {
        let ranges = match (self.nums("alpha_center")?, self.num("alpha_half_width")?) {
            (None, None) => focal_studies::labels::DEFAULT_RANGES.to_vec(),
            (Some(centers), Some(half)) => {
                let make = |&c: &f64| E2oRange::new(c, half.value);
                self.each(Some(centers), "band center", make)?
                    .unwrap_or_default()
            }
            (Some(centers), None) => {
                let message = "`alpha_center` needs `alpha_half_width` alongside it".to_string();
                return Err(self.err(centers.line, "alpha_center", message));
            }
            (None, Some(half)) => {
                let message = "`alpha_half_width` needs `alpha_center` alongside it".to_string();
                return Err(self.err(half.line, "alpha_half_width", message));
            }
        };
        let bands = ranges
            .iter()
            .map(|r| format!("\"{}±{}\"", r.center().get(), r.half_width()));
        self.put("alpha_bands", list(bands));
        Ok(ranges)
    }

    /// Rejects keys the family does not accept, in key-table order.
    fn check_keys(&self) -> Result<()> {
        let f = self.def.family;
        for input in &self.def.inputs {
            let (accepted, what) = match input.key.table {
                "params" => (f.params, "is not a parameter of the"),
                "sweep" => (f.sweep, "is not a sweep axis of the"),
                "monte_carlo" => continue,
                _ => (f.assumptions, "assumptions do not apply to the"),
            };
            let (name, key) = match input.key.table {
                "assumptions.act" => ("act", "act"),
                _ => (input.key.name, input.spelled),
            };
            if !accepted.contains(&name) {
                let message = format!("`{key}` {what} {} study", f.name);
                return Err(self.err(input.value.line, key, message));
            }
        }
        Ok(())
    }

    /// Checks that the kind, index and `[monte_carlo]` fit the family.
    fn check_kind(&self) -> Result<()> {
        let (def, f) = (self.def, self.def.family);
        match (def.kind, &def.index) {
            (ScenarioKind::Figure, _) if f.figure.is_none() => {
                let message = format!("the {} study has no figure", f.name);
                return Err(self.err(def.study_line, "kind", message));
            }
            (ScenarioKind::Figure, Some(index)) => {
                let message = "figure scenarios derive their identity from `study`; remove `index`";
                return Err(self.err(index.line, "index", message.to_string()));
            }
            (ScenarioKind::Finding, None) => {
                let message = format!(
                    "finding scenarios need `index` (the {} study covers {:?})",
                    f.name, f.findings
                );
                return Err(self.err(def.study_line, "index", message));
            }
            (ScenarioKind::Finding, Some(index)) if !f.findings.contains(&index.value) => {
                let message = format!(
                    "finding {} is not produced by the {} study (covers {:?})",
                    index.value, f.name, f.findings
                );
                return Err(self.err(index.line, "index", message));
            }
            (ScenarioKind::Robustness, _) if f.figure.is_some() || !f.findings.is_empty() => {
                let message = format!(
                    "robustness scenarios run on the taxonomy study, not {}",
                    f.name
                );
                return Err(self.err(def.study_line, "kind", message));
            }
            _ => {}
        }
        match def.inputs.iter().find(|i| i.key.name == "samples") {
            Some(samples) if def.kind != ScenarioKind::Robustness => {
                let message = "`[monte_carlo]` only applies to robustness scenarios";
                Err(self.err(samples.value.line, "monte_carlo", message.to_string()))
            }
            _ => Ok(()),
        }
    }
}

/// Resolves a type-checked definition into a canonical scenario.
///
/// # Errors
///
/// Returns a structured [`ScenarioError`] for kind/family mismatches,
/// out-of-range indices, keys the family does not understand, inverted
/// or empty sweeps, and any model-constructor rejection.
pub fn canonicalize(def: &ScenarioDef) -> Result<CanonicalScenario> {
    let mut cx = Cx {
        def,
        resolved: Vec::new(),
    };
    cx.check_keys()?;
    cx.check_kind()?;
    let spec = (def.family.resolve)(&mut cx)?;
    let mut resolved = cx.resolved;
    resolved.sort_by_key(|(k, _)| *k);
    Ok(CanonicalScenario {
        id: def.id.clone(),
        kind: def.kind,
        family: def.family,
        index: def.index.as_ref().map(|i| i.value),
        title: def.title.clone(),
        spec,
        resolved,
    })
}

impl CanonicalScenario {
    /// Renders the canonical form: fixed table order, alphabetical keys,
    /// every default spelled out from the constructed models. Two
    /// scenario files that resolve to the same evaluation render
    /// identically, whatever their key order, spelling or comments.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        let mut out = format!(
            "[scenario]\nfamily = {:?}\nid = {:?}\n",
            self.family.name, self.id
        );
        if let Some(index) = self.index {
            out.push_str(&format!("index = {index}\n"));
        }
        out.push_str(&format!("kind = {:?}\n", self.kind.as_str()));
        if let Some(title) = &self.title {
            out.push_str(&format!("title = {title:?}\n"));
        }
        out.push_str("[resolved]\n");
        for (key, value) in &self.resolved {
            for part in [key, " = ", value, "\n"] {
                out.push_str(part);
            }
        }
        out
    }

    /// The FNV-64 digest of [`CanonicalScenario::canonical_text`] — the
    /// stable identity of the resolved evaluation.
    #[must_use]
    pub fn digest(&self) -> u64 {
        crate::digest::fnv64(self.canonical_text().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::parse_scenario;

    fn canon(text: &str) -> Result<CanonicalScenario> {
        canonicalize(&parse_scenario(text, "t.toml")?)
    }

    #[test]
    fn minimal_figure_twin_resolves_paper_defaults() {
        let c =
            canon("[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n").unwrap();
        match &c.spec {
            StudySpec::Multicore {
                study,
                bces,
                fs,
                alphas,
            } => {
                assert_eq!(*study, MulticoreStudy::default());
                assert_eq!(bces, &focal_studies::multicore::BCE_SWEEP.to_vec());
                assert_eq!(fs, &ParallelFraction::paper_sweep());
                assert_eq!(alphas, &focal_studies::labels::DEFAULT_WEIGHTS.to_vec());
            }
            other => panic!("wrong spec: {other:?}"),
        }
    }

    #[test]
    fn explicit_values_match_defaults_bitwise() {
        let explicit = canon(concat!(
            "[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n",
            "[params]\ngamma = 0.2\npollack_exponent = 0.5\n",
            "[sweep]\nbce = [1, 2, 4, 8, 16, 32]\n",
            "parallel_fraction = [0.5, 0.7, 0.8, 0.9, 0.95]\n",
            "[assumptions]\nalpha = [0.8, 0.2]\n",
        ))
        .unwrap();
        let implicit =
            canon("[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n").unwrap();
        assert_eq!(explicit.spec, implicit.spec);
        assert_eq!(explicit.canonical_text(), implicit.canonical_text());
        assert_eq!(explicit.digest(), implicit.digest());
    }

    #[test]
    fn kib_normalizes_to_mib() {
        let kib = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"caching\"\n",
            "[sweep]\nllc_kib = [1024, 2048]\n",
        ))
        .unwrap();
        let mib = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"caching\"\n",
            "[sweep]\nllc_mib = [1, 2]\n",
        ))
        .unwrap();
        assert_eq!(kib.spec, mib.spec);
    }

    #[test]
    fn inverted_die_sweep_is_an_error() {
        let e = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"wafer\"\n",
            "[sweep]\ndie_min_mm2 = 800\ndie_max_mm2 = 100\n",
        ))
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("die_min_mm2"));
        assert!(e.to_string().contains("inverted"), "{e}");
    }

    #[test]
    fn unused_keys_are_rejected_per_family() {
        let e = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"multicore\"\n",
            "[params]\nstall_fraction = 0.5\n",
        ))
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("stall_fraction"));
        assert_eq!(e.line, Some(6));
    }

    #[test]
    fn kind_family_compatibility_is_enforced() {
        let e = canon("[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"dvfs\"\n").unwrap_err();
        assert!(e.to_string().contains("no figure"), "{e}");

        let e =
            canon("[scenario]\nid = \"f\"\nkind = \"finding\"\nstudy = \"gating\"\n").unwrap_err();
        assert_eq!(e.key.as_deref(), Some("index"));

        let e =
            canon("[scenario]\nid = \"f\"\nkind = \"finding\"\nindex = 9\nstudy = \"gating\"\n")
                .unwrap_err();
        assert!(e.to_string().contains("not produced"), "{e}");

        let e =
            canon("[scenario]\nid = \"f\"\nkind = \"robustness\"\nstudy = \"dvfs\"\n").unwrap_err();
        assert!(e.to_string().contains("taxonomy"), "{e}");
    }

    #[test]
    fn act_assumptions_derive_one_alpha() {
        let c = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"microarch\"\n",
            "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\n",
            "carbon_intensity = \"world-average\"\naverage_power_watts = 15\ndie_mm2 = 100\n",
        ))
        .unwrap();
        match &c.spec {
            StudySpec::Microarch { alphas } => {
                assert_eq!(alphas.len(), 1);
                let a = alphas.first().map(|a| a.get()).unwrap_or(f64::NAN);
                assert!((0.0..=1.0).contains(&a), "derived alpha {a}");
            }
            other => panic!("wrong spec: {other:?}"),
        }
    }

    #[test]
    fn alpha_and_act_conflict() {
        let e = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"microarch\"\n",
            "[assumptions]\nalpha = [0.8]\n",
            "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\n",
            "carbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n",
        ))
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("act"));
    }

    #[test]
    fn robustness_needs_monte_carlo() {
        let e = canon("[scenario]\nid = \"f\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n")
            .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("monte_carlo"));

        let c = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n",
            "[monte_carlo]\nsamples = 64\nseed = 42\njitter = 0.1\n",
        ))
        .unwrap();
        assert_eq!(
            c.spec,
            StudySpec::Taxonomy {
                samples: 64,
                seed: 42,
                jitter: 0.1
            }
        );
    }

    #[test]
    fn counts_are_capped_at_max_count() {
        // (kind, study, the lines before the count, the count's key)
        let cases = [
            ("figure", "accelerator", "[sweep]\n", "utilization_steps"),
            ("figure", "speculation", "[sweep]\n", "area_steps"),
            ("figure", "wafer", "[sweep]\n", "die_steps"),
            (
                "robustness",
                "taxonomy",
                "[monte_carlo]\nseed = 1\njitter = 0.1\n",
                "samples",
            ),
        ];
        for (kind, study, before, key) in cases {
            let text = |count: usize| {
                format!(
                    "[scenario]\nid = \"f\"\nkind = \"{kind}\"\nstudy = \"{study}\"\n\
                     {before}{key} = {count}\n"
                )
            };
            let at_cap = canon(&text(crate::MAX_COUNT));
            assert!(at_cap.is_ok(), "{key} at the cap: {at_cap:?}");
            let over = canon(&text(crate::MAX_COUNT + 1)).unwrap_err();
            assert_eq!(over.key.as_deref(), Some(key));
            let line = text(0).lines().count();
            assert_eq!(over.line, u32::try_from(line).ok());
            assert!(over.message.contains("must be at most 10000"), "{over}");
        }
    }

    #[test]
    fn canonical_text_is_stable_and_complete() {
        let c =
            canon("[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n").unwrap();
        let text = c.canonical_text();
        assert!(text.starts_with("[scenario]\n"), "{text}");
        assert!(text.contains("family = \"multicore\""), "{text}");
        assert!(text.contains("bce = [1, 2, 4, 8, 16, 32]"), "{text}");
        assert!(text.contains("gamma = 0.2"), "{text}");
        // Keys inside [resolved] are sorted.
        let resolved: Vec<&str> = text
            .lines()
            .skip_while(|l| *l != "[resolved]")
            .skip(1)
            .collect();
        let mut sorted = resolved.clone();
        sorted.sort_unstable();
        assert_eq!(resolved, sorted);
    }
}
