//! Byte-for-byte goldens of the scenario front end.
//!
//! * `goldens/canonical.txt` pins the id, digest and full
//!   `canonical_text()` of every shipped scenario under `data/scenarios/`
//!   (and `examples/`) plus inline specimens that exercise each unit
//!   alias and non-default resolution path.
//! * `goldens/errors.txt` pins the full `Display` of the structured
//!   error (file, line, key and message) for one malformed scenario per
//!   error site of the schema and canonicalization layers. `focal-serve`
//!   puts this exact text on the wire as a `bad_request`.
//!
//! On a mismatch the test writes the actual text next to the build's
//! scratch files and names that path; a golden that differs is a digest
//! or wire-format change, so copy it over by hand only with a reason.

use std::path::{Path, PathBuf};

use focal_scenario::{CompiledScenario, KEYS};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Compares `actual` with the golden file. On a mismatch the actual
/// text is written under the target directory for inspection.
fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if expected != actual {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&dump, actual).expect("write actual text");
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or(expected.lines().count().min(actual.lines().count()));
        panic!(
            "{} differs from the golden at line {}:\n  golden: {:?}\n  actual: {:?}\n\
             full actual text: {}",
            path.display(),
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first),
            dump.display()
        );
    }
}

/// Builds a scenario whose `[scenario]` table occupies lines 1–4, so
/// `rest` starts on line 5.
macro_rules! sc {
    ($kind:literal, $study:literal, $rest:expr) => {
        concat!(
            "[scenario]\nid = \"x\"\nkind = \"",
            $kind,
            "\"\nstudy = \"",
            $study,
            "\"\n",
            $rest
        )
    };
}

/// Inline specimens for the canonical golden: each alias and each
/// non-default resolution path.
const SPECIMENS: &[(&str, &str)] = &[
    ("base-kib", sc!("figure", "caching", "[params]\nbase_kib = 2048\n")),
    ("base-mib", sc!("figure", "caching", "[params]\nbase_mib = 1.5\n")),
    (
        "llc-kib",
        sc!("figure", "caching", "[sweep]\nllc_kib = [512, 1024, 3000]\n"),
    ),
    (
        "llc-mib-non-power-of-two",
        sc!("figure", "caching", "[sweep]\nllc_mib = [1.3, 3]\n"),
    ),
    (
        "caching-workload",
        sc!(
            "finding",
            "caching",
            "index = 8\n[params]\nstall_fraction = 0.6\nmemory_energy_fraction = 0.4\ncache_energy_fraction = 0.1\nmiss_exponent = 0.6\n[assumptions]\nalpha = [0.5]\n"
        ),
    ),
    (
        "max-predictor-area-percent",
        sc!(
            "figure",
            "speculation",
            "[sweep]\nmax_predictor_area_percent = 25\narea_steps = 9\n"
        ),
    ),
    (
        "max-predictor-area",
        sc!("figure", "speculation", "[sweep]\nmax_predictor_area = 0.3\n"),
    ),
    (
        "speculation-partial-overrides",
        sc!(
            "finding",
            "speculation",
            "index = 12\n[params]\npredictor_performance_ratio = 1.1\nrunahead_area_overhead = 0.02\n"
        ),
    ),
    (
        "act-named-intensity",
        sc!(
            "figure",
            "microarch",
            "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = \"world-average\"\naverage_power_watts = 15\ndie_mm2 = 100\n"
        ),
    ),
    (
        "act-numeric-intensity",
        sc!(
            "figure",
            "caching",
            "[assumptions.act]\nnode = \"N5\"\nlifetime_years = 2.5\ncarbon_intensity = 300\naverage_power_watts = 40\ndie_mm2 = 250\n"
        ),
    ),
    (
        "alpha-bands-accelerator",
        sc!(
            "figure",
            "accelerator",
            "[params]\narea_overhead = 0.2\nenergy_advantage = 5\n[sweep]\nutilization_steps = 11\n[assumptions]\nalpha_center = [0.3, 0.7]\nalpha_half_width = 0.05\n"
        ),
    ),
    (
        "alpha-bands-dark-silicon",
        sc!(
            "figure",
            "dark-silicon",
            "[params]\naccelerator_area_fraction = 0.3\n[assumptions]\nalpha_center = [0.5]\nalpha_half_width = 0.1\n"
        ),
    ),
    (
        "wafer-yield-models",
        sc!(
            "figure",
            "wafer",
            "[params]\nwafer_diameter_mm = 200\ndefect_density_per_cm2 = 0.2\nyield_models = [\"poisson\", \"bose-einstein:3\", \"negative-binomial:2.5\", \"seeds\"]\n[sweep]\ndie_min_mm2 = 20\ndie_max_mm2 = 400\ndie_steps = 5\nreference_mm2 = 50\n"
        ),
    ),
    (
        "asymmetric-overrides",
        sc!(
            "figure",
            "asymmetric",
            "[params]\ngamma = 0.25\npollack_exponent = 0.6\nbig_core_bce = 8\n[sweep]\nbce = [16, 64]\nparallel_fraction = [0.75, 0.99]\n[assumptions]\nalpha = [0.1, 0.9]\n"
        ),
    ),
    (
        "dvfs-overrides",
        sc!(
            "finding",
            "dvfs",
            "index = 15\n[params]\ndynamic_power_fraction = 0.6\nregulator_area_overhead = 0.03\nturbo_area_overhead = 0.02\ndownscale = 0.7\nboost = 1.2\n"
        ),
    ),
    (
        "gating-overrides",
        sc!(
            "finding",
            "gating",
            "index = 16\n[params]\ngating_energy_ratio = 0.9\ngating_performance_ratio = 0.99\ngating_area_overhead = 0.01\n"
        ),
    ),
    (
        "case-study-overrides",
        sc!(
            "figure",
            "case-study",
            "title = \"Case study \\\"quoted\\\" title\"\n[params]\nparallel_fraction = 0.8\nbase_cores = 4\ngamma = 0.1\n[assumptions]\nalpha = [0.2, 0.4, 0.6]\n"
        ),
    ),
    ("die-shrink", sc!("finding", "die-shrink", "index = 17\n")),
    (
        "speculation-all-overrides",
        sc!(
            "figure",
            "speculation",
            "[params]\npredictor_energy_ratio = 0.9\npredictor_performance_ratio = 1.2\nrunahead_performance_ratio = 1.3\nrunahead_energy_ratio = 0.95\nrunahead_area_overhead = 0.01\n[assumptions]\nalpha = [0.6]\n"
        ),
    ),
    (
        "dark-silicon-all-overrides",
        sc!(
            "finding",
            "dark-silicon",
            "index = 7\n[params]\naccelerator_area_fraction = 0.4\nenergy_advantage = 8\n[sweep]\nutilization_steps = 4\n"
        ),
    ),
    (
        "multicore-overrides",
        sc!(
            "finding",
            "multicore",
            "index = 2\n[params]\ngamma = 0.05\npollack_exponent = 0.45\n[sweep]\nbce = [2, 3]\nparallel_fraction = [0.6]\n"
        ),
    ),
    (
        "taxonomy",
        sc!(
            "robustness",
            "taxonomy",
            "[monte_carlo]\nsamples = 333\nseed = 9223372036854775807\njitter = 0.25\n"
        ),
    ),
];

fn canonical_block(label: &str, text: &str) -> String {
    let compiled = CompiledScenario::compile(text, label)
        .unwrap_or_else(|e| panic!("{label} must compile: {e}"));
    let c = compiled.canonical();
    format!(
        "== {label}\nid = {}\ndigest = {:016x}\n{}",
        c.id,
        c.digest(),
        c.canonical_text()
    )
}

#[test]
fn canonical_forms_match_the_golden_byte_for_byte() {
    let mut out = String::new();
    for dir in ["data/scenarios", "data/scenarios/examples"] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(repo_root().join(dir))
            .expect("scenario dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "toml"))
            .collect();
        paths.sort();
        for path in paths {
            let name = path.file_name().expect("file name").to_string_lossy();
            let label = format!("{dir}/{name}");
            let text = std::fs::read_to_string(&path).expect("scenario text");
            out.push_str(&canonical_block(&label, &text));
        }
    }
    for (name, text) in SPECIMENS {
        out.push_str(&canonical_block(&format!("specimen/{name}"), text));
    }
    check_golden("canonical.txt", &out);
}

/// One malformed scenario per error site. Each renders as one golden
/// line: the error's `Display` with the case name as the file.
const ERROR_CASES: &[(&str, &str)] = &[
    // --- [scenario] table ---------------------------------------------
    ("no-scenario-table", "[params]\ngamma = 0.2\n"),
    ("missing-id", "[scenario]\nkind = \"figure\"\nstudy = \"multicore\"\n"),
    ("missing-kind", "[scenario]\nid = \"x\"\nstudy = \"multicore\"\n"),
    ("missing-study", "[scenario]\nid = \"x\"\nkind = \"figure\"\n"),
    ("id-not-a-string", "[scenario]\nid = 3\nkind = \"figure\"\nstudy = \"multicore\"\n"),
    ("empty-id", "[scenario]\nid = \"  \"\nkind = \"figure\"\nstudy = \"multicore\"\n"),
    ("empty-id-before-missing-kind", "[scenario]\nid = \"\"\nstudy = \"multicore\"\n"),
    ("unknown-kind", "[scenario]\nid = \"x\"\nkind = \"chart\"\nstudy = \"multicore\"\n"),
    ("unknown-study", "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"quantum\"\n"),
    ("index-negative", sc!("finding", "multicore", "index = -1\n")),
    ("index-float", sc!("finding", "multicore", "index = 1.5\n")),
    ("index-out-of-range", sc!("finding", "multicore", "index = 5000000000\n")),
    ("title-not-a-string", sc!("figure", "multicore", "title = 7\n")),
    ("unknown-scenario-key", sc!("figure", "multicore", "colour = \"red\"\n")),
    // --- tables ---------------------------------------------------------
    ("unknown-table", sc!("figure", "multicore", "[bogus]\n")),
    ("resolved-is-not-an-input-table", sc!("figure", "multicore", "[resolved]\ngamma = 0.2\n")),
    ("unknown-params-key", sc!("figure", "multicore", "[params]\nwarp = 9\n")),
    ("unknown-sweep-key", sc!("figure", "multicore", "[sweep]\nwarp = 9\n")),
    ("unknown-assumptions-key", sc!("figure", "multicore", "[assumptions]\nbeta = [1]\n")),
    ("unknown-act-key", sc!("figure", "multicore", concat!("[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = \"world-average\"\naverage_power_watts = 15\ndie_mm2 = 100\n", "region = \"eu\"\n"))),
    ("unknown-monte-carlo-key", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = 8\nseed = 1\njitter = 0.1\nchains = 2\n")),
    ("type-error-before-unknown-key", sc!("figure", "multicore", "[params]\nwarp = 9\ngamma = \"high\"\n")),
    // --- scalar type checks --------------------------------------------
    ("number-got-string", sc!("figure", "multicore", "[params]\ngamma = \"high\"\n")),
    ("number-got-boolean", sc!("figure", "multicore", "[params]\ngamma = true\n")),
    ("number-got-array", sc!("figure", "multicore", "[params]\ngamma = [0.2]\n")),
    ("number-nan", sc!("figure", "multicore", "[params]\ngamma = nan\n")),
    ("number-inf", sc!("figure", "wafer", "[sweep]\ndie_max_mm2 = inf\n")),
    ("type-errors-in-declaration-order", sc!("figure", "multicore", "[params]\nbase_kib = \"a\"\ngamma = \"b\"\n")),
    ("integer-negative", sc!("figure", "case-study", "[params]\nbase_cores = -1\n")),
    ("integer-got-float", sc!("figure", "accelerator", "[sweep]\nutilization_steps = 2.5\n")),
    ("integer-got-string", sc!("figure", "speculation", "[sweep]\narea_steps = \"many\"\n")),
    ("u32-out-of-range", sc!("figure", "case-study", "[params]\nbase_cores = 4294967296\n")),
    // --- array type checks ---------------------------------------------
    ("numbers-got-scalar", sc!("figure", "multicore", "[assumptions]\nalpha = 0.5\n")),
    ("numbers-non-finite", sc!("figure", "multicore", "[assumptions]\nalpha = [0.5, nan]\n")),
    ("numbers-got-string", sc!("figure", "multicore", "[sweep]\nparallel_fraction = [0.5, \"x\"]\n")),
    ("numbers-got-nested", sc!("figure", "caching", "[sweep]\nllc_mib = [[1]]\n")),
    ("integers-negative", sc!("figure", "multicore", "[sweep]\nbce = [1, -2]\n")),
    ("integers-too-large", sc!("figure", "multicore", "[sweep]\nbce = [5000000000]\n")),
    ("integers-got-float", sc!("figure", "multicore", "[sweep]\nbce = [1.5]\n")),
    ("integers-got-scalar", sc!("figure", "multicore", "[sweep]\nbce = 4\n")),
    ("strings-got-integer", sc!("figure", "wafer", "[params]\nyield_models = [\"murphy\", 1]\n")),
    ("strings-got-scalar", sc!("figure", "wafer", "[params]\nyield_models = \"murphy\"\n")),
    // --- [assumptions.act] ---------------------------------------------
    ("act-missing-node", sc!("figure", "multicore", "[assumptions.act]\nlifetime_years = 4\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-missing-lifetime", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-missing-intensity", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-missing-power", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = \"renewable\"\ndie_mm2 = 100\n")),
    ("act-missing-die", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\n")),
    ("act-node-not-a-string", sc!("figure", "multicore", "[assumptions.act]\nnode = 7\nlifetime_years = 4\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-lifetime-nan", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = nan\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-intensity-boolean", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = true\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-intensity-inf", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = inf\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-missing-key-before-type-error", sc!("figure", "multicore", "[assumptions.act]\nlifetime_years = \"four\"\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-unknown-node", sc!("figure", "multicore", "[assumptions.act]\nnode = \"1nm\"\nlifetime_years = 4\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-unknown-intensity-name", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = \"lunar\"\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-negative-intensity", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = -5\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-negative-lifetime", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = -4\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("act-negative-power", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = \"renewable\"\naverage_power_watts = -15\ndie_mm2 = 100\n")),
    ("act-negative-die", sc!("figure", "multicore", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = -100\n")),
    ("alpha-and-act-conflict", sc!("figure", "microarch", "[assumptions]\nalpha = [0.8]\n[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    // --- [monte_carlo] ---------------------------------------------------
    ("mc-missing-samples", sc!("robustness", "taxonomy", "[monte_carlo]\nseed = 1\njitter = 0.1\n")),
    ("mc-missing-seed", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = 8\njitter = 0.1\n")),
    ("mc-missing-jitter", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = 8\nseed = 1\n")),
    ("mc-zero-samples", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = 0\nseed = 1\njitter = 0.1\n")),
    ("mc-zero-samples-before-missing-seed", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = 0\njitter = 0.1\n")),
    ("mc-negative-samples", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = -8\nseed = 1\njitter = 0.1\n")),
    ("mc-negative-seed", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = 8\nseed = -1\njitter = 0.1\n")),
    ("mc-seed-float", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = 8\nseed = 1.5\njitter = 0.1\n")),
    ("mc-jitter-string", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = 8\nseed = 1\njitter = \"lots\"\n")),
    ("mc-jitter-one", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = 8\nseed = 1\njitter = 1\n")),
    ("mc-jitter-negative", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = 8\nseed = 1\njitter = -0.1\n")),
    ("robustness-without-monte-carlo", sc!("robustness", "taxonomy", "")),
    ("monte-carlo-on-a-figure", sc!("figure", "multicore", "[monte_carlo]\nsamples = 8\nseed = 1\njitter = 0.1\n")),
    // --- kind / family / index -----------------------------------------
    ("figure-of-a-figureless-family", sc!("figure", "dvfs", "")),
    ("figure-of-taxonomy", sc!("figure", "taxonomy", "")),
    ("figure-with-index", sc!("figure", "multicore", "index = 3\n")),
    ("finding-without-index", sc!("finding", "gating", "")),
    ("finding-index-of-another-family", sc!("finding", "gating", "index = 9\n")),
    ("finding-of-wafer", sc!("finding", "wafer", "index = 1\n")),
    ("finding-of-taxonomy", sc!("finding", "taxonomy", "index = 1\n")),
    ("robustness-of-a-study", sc!("robustness", "dvfs", "")),
    ("foreign-key-before-kind-check", sc!("figure", "dvfs", "[params]\ngamma = 0.2\n")),
    // --- one foreign key per family --------------------------------------
    ("foreign-wafer", sc!("figure", "wafer", "[params]\ngamma = 0.2\n")),
    ("foreign-multicore", sc!("figure", "multicore", "[params]\nstall_fraction = 0.5\n")),
    ("foreign-asymmetric", sc!("figure", "asymmetric", "[params]\nbase_cores = 4\n")),
    ("foreign-accelerator", sc!("figure", "accelerator", "[params]\naccelerator_area_fraction = 0.2\n")),
    ("foreign-dark-silicon", sc!("figure", "dark-silicon", "[params]\narea_overhead = 0.2\n")),
    ("foreign-caching", sc!("figure", "caching", "[params]\ngamma = 0.2\n")),
    ("foreign-microarch", sc!("figure", "microarch", "[sweep]\nbce = [1, 2]\n")),
    ("foreign-speculation", sc!("figure", "speculation", "[sweep]\nutilization_steps = 5\n")),
    ("foreign-dvfs", sc!("finding", "dvfs", "index = 14\n[params]\ngating_energy_ratio = 0.9\n")),
    ("foreign-gating", sc!("finding", "gating", "index = 16\n[params]\nboost = 1.2\n")),
    ("foreign-die-shrink", sc!("finding", "die-shrink", "index = 17\n[assumptions]\nalpha = [0.5]\n")),
    ("foreign-case-study", sc!("figure", "case-study", "[sweep]\nparallel_fraction = [0.9]\n")),
    ("foreign-taxonomy", sc!("robustness", "taxonomy", "[params]\ngamma = 0.2\n[monte_carlo]\nsamples = 8\nseed = 1\njitter = 0.1\n")),
    ("foreign-param-alias", sc!("figure", "multicore", "[params]\nbase_kib = 512\n")),
    ("foreign-sweep-alias", sc!("figure", "speculation", "[sweep]\nllc_kib = [512]\n")),
    ("foreign-sweep-percent-alias", sc!("figure", "caching", "[sweep]\nmax_predictor_area_percent = 20\n")),
    ("foreign-params-parallel-fraction", sc!("figure", "multicore", "[params]\nparallel_fraction = 0.9\n")),
    ("foreign-alpha", sc!("figure", "accelerator", "[assumptions]\nalpha = [0.5]\n")),
    ("foreign-alpha-center", sc!("figure", "multicore", "[assumptions]\nalpha_center = [0.5]\nalpha_half_width = 0.1\n")),
    ("foreign-alpha-half-width", sc!("figure", "caching", "[assumptions]\nalpha_half_width = 0.1\n")),
    ("foreign-act", sc!("figure", "wafer", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n")),
    ("two-foreign-keys-reverse-source-order", sc!("figure", "multicore", "[params]\nyield_models = [\"murphy\"]\nbase_kib = 512\n")),
    ("foreign-keys-across-tables-reverse-order", sc!("figure", "caching", "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\ncarbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n[assumptions]\nalpha_center = [0.5]\n[sweep]\ndie_steps = 4\n[params]\ngamma = 0.2\n")),
    ("foreign-sweep-before-assumptions", sc!("figure", "dvfs", "[assumptions]\nalpha = [0.5]\n[sweep]\nbce = [2]\n")),
    // --- alias conflicts --------------------------------------------------
    ("base-mib-and-kib", sc!("figure", "caching", "[params]\nbase_kib = 512\nbase_mib = 1\n")),
    ("llc-mib-and-kib", sc!("figure", "caching", "[sweep]\nllc_kib = [512]\nllc_mib = [1]\n")),
    ("max-area-and-percent", sc!("figure", "speculation", "[sweep]\nmax_predictor_area_percent = 20\nmax_predictor_area = 0.2\n")),
    // --- empty lists --------------------------------------------------------
    ("empty-alpha", sc!("figure", "multicore", "[assumptions]\nalpha = []\n")),
    ("empty-alpha-center", sc!("figure", "accelerator", "[assumptions]\nalpha_center = []\nalpha_half_width = 0.1\n")),
    ("empty-bce", sc!("figure", "multicore", "[sweep]\nbce = []\n")),
    ("empty-parallel-fraction", sc!("figure", "multicore", "[sweep]\nparallel_fraction = []\n")),
    ("empty-parallel-fraction-asymmetric", sc!("figure", "asymmetric", "[sweep]\nparallel_fraction = []\n")),
    ("empty-llc-mib", sc!("figure", "caching", "[sweep]\nllc_mib = []\n")),
    ("empty-llc-kib", sc!("figure", "caching", "[sweep]\nllc_kib = []\n")),
    ("empty-yield-models", sc!("figure", "wafer", "[params]\nyield_models = []\n")),
    // --- α assumptions ------------------------------------------------------
    ("alpha-out-of-range", sc!("figure", "multicore", "[assumptions]\nalpha = [0.5, 1.5]\n")),
    ("alpha-center-without-half-width", sc!("figure", "accelerator", "[assumptions]\nalpha_center = [0.5]\n")),
    ("half-width-without-center", sc!("figure", "dark-silicon", "[assumptions]\nalpha_half_width = 0.1\n")),
    ("alpha-band-out-of-range", sc!("figure", "accelerator", "[assumptions]\nalpha_center = [0.5, 1.2]\nalpha_half_width = 0.1\n")),
    // --- non-positive checks -------------------------------------------------
    ("die-min-non-positive", sc!("figure", "wafer", "[sweep]\ndie_min_mm2 = 0\n")),
    ("die-min-negative", sc!("figure", "wafer", "[sweep]\ndie_min_mm2 = -10\ndie_max_mm2 = 100\n")),
    ("reference-non-positive", sc!("figure", "wafer", "[sweep]\nreference_mm2 = 0\n")),
    ("big-core-non-positive", sc!("figure", "asymmetric", "[params]\nbig_core_bce = 0\n")),
    ("max-predictor-area-non-positive", sc!("figure", "speculation", "[sweep]\nmax_predictor_area = 0\n")),
    ("max-predictor-area-percent-negative", sc!("figure", "speculation", "[sweep]\nmax_predictor_area_percent = -5\n")),
    ("base-cores-zero", sc!("figure", "case-study", "[params]\nbase_cores = 0\n")),
    // --- grid points ---------------------------------------------------------
    ("utilization-steps-one", sc!("figure", "accelerator", "[sweep]\nutilization_steps = 1\n")),
    ("utilization-steps-zero-dark-silicon", sc!("figure", "dark-silicon", "[sweep]\nutilization_steps = 0\n")),
    ("area-steps-one", sc!("figure", "speculation", "[sweep]\narea_steps = 1\n")),
    ("die-steps-one", sc!("figure", "wafer", "[sweep]\ndie_steps = 1\n")),
    // --- wafer ------------------------------------------------------------------
    ("wafer-diameter-invalid", sc!("figure", "wafer", "[params]\nwafer_diameter_mm = -300\n")),
    ("defect-density-invalid", sc!("figure", "wafer", "[params]\ndefect_density_per_cm2 = -1\n")),
    ("yield-model-unknown", sc!("figure", "wafer", "[params]\nyield_models = [\"murphy\", \"gaussian\"]\n")),
    ("yield-model-bad-parameter", sc!("figure", "wafer", "[params]\nyield_models = [\"bose-einstein:x\"]\n")),
    ("inverted-die-sweep", sc!("figure", "wafer", "[sweep]\ndie_min_mm2 = 800\ndie_max_mm2 = 100\n")),
    ("inverted-die-sweep-max-only", sc!("figure", "wafer", "[sweep]\ndie_max_mm2 = 1\n")),
    // --- multicore / asymmetric ---------------------------------------------------
    ("gamma-out-of-range", sc!("figure", "multicore", "[params]\ngamma = 1.5\n")),
    ("pollack-invalid", sc!("figure", "multicore", "[params]\npollack_exponent = -1\n")),
    ("parallel-fraction-invalid", sc!("figure", "multicore", "[sweep]\nparallel_fraction = [0.5, 1.5]\n")),
    ("asymmetric-parallel-fraction-invalid", sc!("figure", "asymmetric", "[sweep]\nparallel_fraction = [-0.5]\n")),
    ("asymmetric-gamma-invalid", sc!("figure", "asymmetric", "[params]\ngamma = -0.1\n")),
    // --- accelerator / dark silicon ------------------------------------------------
    ("accelerator-invalid", sc!("figure", "accelerator", "[params]\nenergy_advantage = -2\n")),
    ("accelerator-area-invalid", sc!("figure", "accelerator", "[params]\narea_overhead = -0.5\nenergy_advantage = 4\n")),
    ("dark-silicon-invalid", sc!("figure", "dark-silicon", "[params]\naccelerator_area_fraction = 1.5\n")),
    ("dark-silicon-energy-invalid", sc!("figure", "dark-silicon", "[params]\nenergy_advantage = 0\n")),
    // --- caching ------------------------------------------------------------------------
    ("miss-exponent-invalid", sc!("figure", "caching", "[params]\nmiss_exponent = -1\n")),
    ("base-mib-invalid", sc!("figure", "caching", "[params]\nbase_mib = -1\n")),
    ("base-kib-invalid", sc!("figure", "caching", "[params]\nbase_kib = 0\n")),
    ("workload-invalid", sc!("figure", "caching", "[params]\nmemory_energy_fraction = 1.5\n")),
    ("workload-invalid-cache-fraction", sc!("figure", "caching", "[params]\ncache_energy_fraction = -0.2\n")),
    ("llc-mib-invalid", sc!("figure", "caching", "[sweep]\nllc_mib = [1, -2]\n")),
    ("llc-kib-invalid", sc!("figure", "caching", "[sweep]\nllc_kib = [0]\n")),
    // --- speculation --------------------------------------------------------------------
    ("predictor-invalid", sc!("figure", "speculation", "[params]\npredictor_performance_ratio = -1\n")),
    ("runahead-invalid", sc!("figure", "speculation", "[params]\nrunahead_energy_ratio = -1\n")),
    // --- dvfs / gating / case study -------------------------------------------------------
    ("dvfs-core-invalid", sc!("finding", "dvfs", "index = 14\n[params]\nregulator_area_overhead = -0.1\n")),
    ("dvfs-turbo-invalid", sc!("finding", "dvfs", "index = 15\n[params]\nturbo_area_overhead = -0.1\n")),
    ("gating-invalid", sc!("finding", "gating", "index = 16\n[params]\ngating_area_overhead = -0.1\n")),
    ("case-study-fraction-invalid", sc!("figure", "case-study", "[params]\nparallel_fraction = 2\n")),
    ("case-study-gamma-invalid", sc!("figure", "case-study", "[params]\ngamma = 2\n")),
    // --- parser (for completeness of the wire text) ----------------------------------------
    ("duplicate-key", sc!("figure", "multicore", "[params]\ngamma = 0.2\ngamma = 0.3\n")),
    ("duplicate-table", sc!("figure", "multicore", "[params]\n[params]\n")),
    // --- count caps (appended with the cap) ---------------------------------------------------
    ("utilization-steps-over-cap", sc!("figure", "accelerator", "[sweep]\nutilization_steps = 10001\n")),
    ("utilization-steps-million", sc!("figure", "dark-silicon", "[sweep]\nutilization_steps = 1000000\n")),
    ("area-steps-over-cap", sc!("figure", "speculation", "[sweep]\narea_steps = 10001\n")),
    ("die-steps-over-cap", sc!("figure", "wafer", "[sweep]\ndie_steps = 10001\n")),
    ("samples-over-cap", sc!("robustness", "taxonomy", "[monte_carlo]\nsamples = 10001\nseed = 1\njitter = 0.1\n")),
];

#[test]
fn error_text_matches_the_golden_byte_for_byte() {
    let mut out = String::new();
    for (name, text) in ERROR_CASES {
        let label = format!("{name}.toml");
        match CompiledScenario::compile(text, &label) {
            Ok(_) => panic!("{name}: expected a structured error, but it compiled"),
            Err(e) => out.push_str(&format!("{e}\n")),
        }
    }
    check_golden("errors.txt", &out);
}

#[test]
fn error_case_names_are_unique() {
    let mut names: Vec<&str> = ERROR_CASES.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(before, names.len(), "duplicate error case names");
}

#[test]
fn design_doc_key_reference_lists_every_key_and_alias() {
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
    let start = design.find("**Key reference.**").expect("key reference");
    let reference = &design[start..];
    for key in KEYS {
        let row = format!("| `{}` | {} |", key.name, key.table);
        assert!(
            reference.contains(&row),
            "DESIGN.md lacks the row for {row}"
        );
        if let Some(alias) = key.alias {
            let alias = format!("`{}`", alias.name);
            assert!(
                reference.contains(&alias),
                "DESIGN.md lacks the alias {alias}"
            );
        }
    }
}
