//! Compilation: lower a [`CanonicalScenario`] onto the same
//! parameterized entry points the hand-coded registry uses, so a DSL
//! twin of a paper figure produces byte-identical output to its
//! hand-coded oracle. Batch evaluation runs on the deterministic engine
//! with `try_par_map` fault isolation, exactly like the suite.

use std::path::Path;

use crate::canonical::{canonicalize, CanonicalScenario, StudySpec};
use crate::digest::digest_entry;
use crate::error::{Result, ScenarioError};
use crate::schema::{parse_scenario, ScenarioKind};
use focal_core::{ModelError, SweepMemo};
use focal_engine::Engine;
use focal_studies::die_shrink::DieShrinkStudy;
use focal_studies::microarch::MicroarchStudy;
use focal_studies::robustness::{verdict_robustness_with, VerdictRobustness};
use focal_studies::wafer_figure::figure1_with;
use focal_studies::{Figure, Finding};
use focal_wafer::EmbodiedModel;

/// What a scenario evaluates to.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutput {
    /// A multi-panel figure (kind = "figure").
    Figure(Figure),
    /// A single paper finding (kind = "finding").
    Finding(Finding),
    /// Taxonomy verdict-robustness rows (kind = "robustness").
    Robustness(Vec<VerdictRobustness>),
}

impl ScenarioOutput {
    /// Renders the output to its canonical text: figures as CSV (the
    /// exact bytes the suite digests), findings and robustness rows as
    /// their stable text forms.
    #[must_use]
    pub fn to_text(&self) -> String {
        match self {
            ScenarioOutput::Figure(figure) => figure.to_csv(),
            ScenarioOutput::Finding(finding) => {
                let mut text = finding.to_string();
                text.push('\n');
                text
            }
            ScenarioOutput::Robustness(rows) => {
                let mut text = String::new();
                for row in rows {
                    text.push_str(&format!(
                        "{}: verdict {}, fixed-work {:.6}, fixed-time {:.6}\n",
                        row.mechanism,
                        row.verdict,
                        row.fixed_work_agreement,
                        row.fixed_time_agreement
                    ));
                }
                text
            }
        }
    }

    /// [`ScenarioOutput::to_text`] as bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_text().into_bytes()
    }

    /// The suite-format digest entry (`"{len} bytes, fnv64={hash:016x}"`)
    /// of [`ScenarioOutput::to_text`].
    #[must_use]
    pub fn digest_entry(&self) -> String {
        digest_entry(self.to_text().as_bytes())
    }
}

/// A scenario compiled and ready to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    canonical: CanonicalScenario,
}

impl CompiledScenario {
    /// Compiles scenario source text.
    ///
    /// # Errors
    ///
    /// Returns a structured [`ScenarioError`] on any parse, schema or
    /// canonicalization failure.
    pub fn compile(text: &str, file: &str) -> Result<CompiledScenario> {
        let def = parse_scenario(text, file)?;
        Ok(CompiledScenario {
            canonical: canonicalize(&def)?,
        })
    }

    /// The scenario id.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.canonical.id
    }

    /// The resolved canonical form.
    #[must_use]
    pub fn canonical(&self) -> &CanonicalScenario {
        &self.canonical
    }

    /// The registry id this scenario mirrors, when it mirrors one: the
    /// family's figure id for figures, `finding-NN` for findings.
    #[must_use]
    pub fn registry_id(&self) -> Option<String> {
        match self.canonical.kind {
            ScenarioKind::Figure => self.canonical.family.figure.map(str::to_string),
            ScenarioKind::Finding => self
                .canonical
                .index
                .map(|index| format!("finding-{index:02}")),
            ScenarioKind::Robustness => None,
        }
    }

    /// The Monte-Carlo seed this scenario evaluates under, when it has
    /// one (robustness/taxonomy studies). Deterministic scenarios return
    /// `None`: their outputs are pure functions of the canonical spec.
    #[must_use]
    pub fn mc_seed(&self) -> Option<u64> {
        match self.canonical.spec {
            StudySpec::Taxonomy { seed, .. } => Some(seed),
            _ => None,
        }
    }

    /// Evaluates the scenario serially. Robustness scenarios need an
    /// engine — use [`CompiledScenario::evaluate_on`].
    ///
    /// # Errors
    ///
    /// Propagates any model error from the underlying study.
    pub fn evaluate(&self) -> focal_core::Result<ScenarioOutput> {
        let c = &self.canonical;
        match c.kind {
            ScenarioKind::Figure => self.evaluate_figure(&c.spec).map(ScenarioOutput::Figure),
            ScenarioKind::Finding => self.evaluate_finding(&c.spec).map(ScenarioOutput::Finding),
            ScenarioKind::Robustness => Err(ModelError::Inconsistent {
                constraint: "robustness scenarios run on an engine; use evaluate_on",
            }),
        }
    }

    /// Evaluates the scenario, running robustness scenarios on the given
    /// engine with the scenario's own seed and sample count. With a
    /// [`SweepMemo`], robustness scenarios route their Monte-Carlo
    /// experiments through it (so a twin of an already-run sweep is
    /// answered from the cache); every other kind evaluates exactly as
    /// [`CompiledScenario::evaluate`].
    ///
    /// # Errors
    ///
    /// Propagates any model error from the underlying study, including
    /// `ChunkPoisoned` from a poisoned Monte-Carlo chunk.
    pub fn evaluate_on(
        &self,
        engine: &Engine,
        mut memo: Option<&mut SweepMemo>,
    ) -> focal_core::Result<ScenarioOutput> {
        match &self.canonical.spec {
            StudySpec::Taxonomy {
                samples,
                seed,
                jitter,
            } => {
                let rows = verdict_robustness_with(engine, *jitter, *samples, *seed, &mut memo)?;
                Ok(ScenarioOutput::Robustness(rows))
            }
            _ => self.evaluate(),
        }
    }

    fn evaluate_figure(&self, spec: &StudySpec) -> focal_core::Result<Figure> {
        match spec {
            StudySpec::Wafer {
                wafer,
                defect_density,
                yield_models,
                die_min_mm2,
                die_max_mm2,
                die_steps,
                reference_mm2,
            } => {
                let models: Vec<EmbodiedModel> = yield_models
                    .iter()
                    .map(|&m| EmbodiedModel::new(*wafer, m, *defect_density))
                    .collect();
                figure1_with(
                    &models,
                    *die_min_mm2,
                    *die_max_mm2,
                    *die_steps,
                    *reference_mm2,
                )
            }
            StudySpec::Multicore {
                study,
                bces,
                fs,
                alphas,
            } => study.figure3_sweep(bces, fs, alphas),
            StudySpec::Asymmetric {
                study,
                bces,
                fs,
                alphas,
            } => study.figure4_sweep(bces, fs, alphas),
            StudySpec::Accelerator {
                study,
                steps,
                ranges,
            } => study.figure5a_grid(*steps, ranges),
            StudySpec::DarkSilicon {
                study,
                steps,
                ranges,
            } => study.figure5b_grid(*steps, ranges),
            StudySpec::Caching {
                study,
                sizes,
                alphas,
            } => study.figure6_sweep(sizes, alphas),
            StudySpec::Microarch { alphas } => MicroarchStudy.figure7_weights(alphas),
            StudySpec::Speculation {
                study,
                steps,
                max_area,
                alphas,
            } => study.figure8_grid(*steps, *max_area, alphas),
            StudySpec::CaseStudy { study, alphas } => study.figure9_weights(alphas),
            _ => Err(ModelError::Inconsistent {
                constraint: "this study family has no figure",
            }),
        }
    }

    fn evaluate_finding(&self, spec: &StudySpec) -> focal_core::Result<Finding> {
        let index = self.canonical.index.ok_or(ModelError::Inconsistent {
            constraint: "finding scenarios carry an index",
        })?;
        match (spec, index) {
            (StudySpec::Multicore { study, .. }, 1) => study.finding1(),
            (StudySpec::Multicore { study, .. }, 2) => study.finding2(),
            (StudySpec::Multicore { study, .. }, 3) => study.finding3(),
            (StudySpec::Asymmetric { study, .. }, 4) => study.finding4(),
            (StudySpec::Asymmetric { study, .. }, 5) => study.finding5(),
            (StudySpec::Accelerator { study, .. }, 6) => study.finding6(),
            (StudySpec::DarkSilicon { study, .. }, 7) => study.finding7(),
            (StudySpec::Caching { study, .. }, 8) => study.finding8(),
            (StudySpec::Microarch { .. }, 9) => MicroarchStudy.finding9(),
            (StudySpec::Microarch { .. }, 10) => MicroarchStudy.finding10(),
            (StudySpec::Microarch { .. }, 11) => MicroarchStudy.finding11(),
            (StudySpec::Speculation { study, .. }, 12) => study.finding12(),
            (StudySpec::Speculation { study, .. }, 13) => study.finding13(),
            (StudySpec::Dvfs { study }, 14) => study.finding14(),
            (StudySpec::Dvfs { study }, 15) => study.finding15(),
            (StudySpec::Gating { study }, 16) => study.finding16(),
            (StudySpec::DieShrink, 17) => DieShrinkStudy.finding17(),
            (StudySpec::CaseStudy { study, .. }, 18) => study.headline(),
            _ => Err(ModelError::Inconsistent {
                constraint: "finding index does not belong to this study family",
            }),
        }
    }
}

/// Loads and compiles one scenario file.
///
/// # Errors
///
/// Returns a structured [`ScenarioError`] if the file cannot be read or
/// fails to compile.
pub fn load_file(path: &Path) -> Result<CompiledScenario> {
    let name = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| {
        ScenarioError::new(format!("cannot read scenario file: {e}")).in_file(&name)
    })?;
    CompiledScenario::compile(&text, &name)
}

/// Loads every `*.toml` scenario under a directory (one scenario per
/// file, sorted by scenario id). Duplicate ids across files are an
/// error naming both files.
///
/// # Errors
///
/// Returns the first structured [`ScenarioError`] encountered: an
/// unreadable directory or file, a compile failure, or a duplicate id.
pub fn load_dir(dir: &Path) -> Result<Vec<CompiledScenario>> {
    let name = dir.display().to_string();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ScenarioError::new(format!("cannot read scenario dir: {e}")).in_file(&name))?;
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| {
            ScenarioError::new(format!("cannot read scenario dir entry: {e}")).in_file(&name)
        })?;
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "toml") {
            paths.push(path);
        }
    }
    paths.sort();
    let mut scenarios = Vec::with_capacity(paths.len());
    for path in &paths {
        scenarios.push((load_file(path)?, path.display().to_string()));
    }
    scenarios.sort_by(|(a, file_a), (b, file_b)| (a.id(), file_a).cmp(&(b.id(), file_b)));
    for pair in scenarios.windows(2) {
        if let [(a, file_a), (b, file_b)] = pair {
            if a.id() == b.id() {
                return Err(ScenarioError::new(format!(
                    "duplicate scenario id `{}`: defined in {file_a} and {file_b}",
                    a.id()
                ))
                .in_file(file_b)
                .for_key("id"));
            }
        }
    }
    Ok(scenarios.into_iter().map(|(s, _)| s).collect())
}

/// Evaluates a batch of scenarios on the engine. Non-robustness
/// scenarios fan out through `try_par_map` under the suite's seed/chunk
/// discipline; robustness scenarios run afterwards, each on the full
/// engine (they parallelize internally), in order through `memo` if
/// given. Results come back in input order as `(id, per-scenario
/// result)` so one failing scenario does not take down the batch.
///
/// # Errors
///
/// Returns `ChunkPoisoned` if a parallel chunk dies without a
/// per-scenario diagnosis (worker panic or poisoned channel).
pub fn evaluate_all_on(
    engine: &Engine,
    scenarios: &[CompiledScenario],
    mut memo: Option<&mut SweepMemo>,
) -> focal_core::Result<Vec<(String, focal_core::Result<ScenarioOutput>)>> {
    let is_robustness =
        |s: &CompiledScenario| matches!(s.canonical().spec, StudySpec::Taxonomy { .. });
    let fan: Vec<&CompiledScenario> = scenarios.iter().filter(|s| !is_robustness(s)).collect();
    let fan_results = engine
        .try_par_map(0, &fan, |s| s.evaluate())
        .map_err(ModelError::from)?;
    let mut fan_iter = fan_results.into_iter();
    let mut out = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        let result = if is_robustness(scenario) {
            scenario.evaluate_on(engine, memo.as_deref_mut())
        } else {
            fan_iter.next().ok_or(ModelError::Inconsistent {
                constraint: "parallel fan returned fewer results than scenarios",
            })?
        };
        out.push((scenario.id().to_string(), result));
    }
    Ok(out)
}

/// [`evaluate_all_on`] with a memo. Kept, with this signature, because
/// the perfbench harness calls it.
///
/// # Errors
///
/// See [`evaluate_all_on`].
pub fn evaluate_all_memo_on(
    engine: &Engine,
    scenarios: &[CompiledScenario],
    memo: &mut SweepMemo,
) -> focal_core::Result<Vec<(String, focal_core::Result<ScenarioOutput>)>> {
    evaluate_all_on(engine, scenarios, Some(memo))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(text: &str) -> CompiledScenario {
        CompiledScenario::compile(text, "t.toml").unwrap()
    }

    #[test]
    fn figure_twin_matches_hand_coded_oracle() {
        let twin = compile("[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n");
        let dsl = twin.evaluate().unwrap();
        let oracle = focal_studies::multicore::MulticoreStudy::default()
            .figure3()
            .unwrap();
        match dsl {
            ScenarioOutput::Figure(figure) => {
                assert_eq!(figure.to_csv(), oracle.to_csv());
            }
            other => panic!("expected a figure, got {other:?}"),
        }
        assert_eq!(twin.registry_id().as_deref(), Some("fig3"));
    }

    #[test]
    fn finding_twin_matches_hand_coded_oracle() {
        let twin = compile(
            "[scenario]\nid = \"finding-14\"\nkind = \"finding\"\nindex = 14\nstudy = \"dvfs\"\n",
        );
        let dsl = twin.evaluate().unwrap();
        let oracle = focal_studies::dvfs::DvfsStudy::default()
            .finding14()
            .unwrap();
        match dsl {
            ScenarioOutput::Finding(finding) => {
                assert_eq!(finding.to_string(), oracle.to_string());
            }
            other => panic!("expected a finding, got {other:?}"),
        }
        assert_eq!(twin.registry_id().as_deref(), Some("finding-14"));
    }

    #[test]
    fn robustness_needs_an_engine() {
        let twin = compile(concat!(
            "[scenario]\nid = \"tax\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n",
            "[monte_carlo]\nsamples = 64\nseed = 42\njitter = 0.1\n",
        ));
        assert!(twin.evaluate().is_err());
        let engine = Engine::serial();
        let out = twin.evaluate_on(&engine, None).unwrap();
        match out {
            ScenarioOutput::Robustness(rows) => assert!(!rows.is_empty()),
            other => panic!("expected robustness rows, got {other:?}"),
        }
    }

    #[test]
    fn batch_evaluation_keeps_input_order_and_isolates_results() {
        let scenarios = vec![
            compile("[scenario]\nid = \"b\"\nkind = \"figure\"\nstudy = \"multicore\"\n"),
            compile(concat!(
                "[scenario]\nid = \"a\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n",
                "[monte_carlo]\nsamples = 32\nseed = 7\njitter = 0.05\n",
            )),
            compile("[scenario]\nid = \"c\"\nkind = \"finding\"\nindex = 16\nstudy = \"gating\"\n"),
        ];
        let engine = Engine::serial();
        let results = evaluate_all_on(&engine, &scenarios, None).unwrap();
        let ids: Vec<&str> = results.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["b", "a", "c"]);
        for (id, result) in &results {
            assert!(result.is_ok(), "{id} failed: {result:?}");
        }
    }

    #[test]
    fn digest_entry_has_suite_format() {
        let twin = compile(
            "[scenario]\nid = \"finding-16\"\nkind = \"finding\"\nindex = 16\nstudy = \"gating\"\n",
        );
        let out = twin.evaluate().unwrap();
        let entry = out.digest_entry();
        assert!(entry.contains("bytes, fnv64="), "{entry}");
    }
}
