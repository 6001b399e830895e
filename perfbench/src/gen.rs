//! Seeded workload generator.
//!
//! Every request the benchmark sends is a pure function of the seed:
//! the same seed yields byte-identical NDJSON. Scenarios are perturbed
//! copies of the 27 figure and finding twins shipped in
//! `data/scenarios/`: each keeps its twin's kind, family and index,
//! gets a unique id (so its canonical digest is new), and draws the
//! family's numeric parameters uniformly from a range around the paper
//! default that the study accepts.
//!
//! `hit-respell` re-spells a warm working set: comments, key order,
//! table order, whitespace and number spelling change, the canonical
//! digest does not. [`respell`] asserts that, and [`Generator::scenario`]
//! asserts that every generated scenario compiles.

use focal_scenario::CompiledScenario;
use focal_serve::json::{escape, JsonValue};

/// SplitMix64: a tiny, stable PRNG, so the inputs never depend on a
/// library's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a stream label.
    #[must_use]
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ focal_scenario::fnv64(stream.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One numeric knob of a family: TOML table, key, and the range
/// `[lo, hi)` drawn from (the paper default lies inside it).
type Knob = (&'static str, &'static str, f64, f64);

/// The knobs each study family exposes to the generator.
fn knobs(study: &str) -> &'static [Knob] {
    match study {
        "wafer" => &[
            ("params", "defect_density_per_cm2", 0.05, 0.2),
            ("sweep", "reference_mm2", 80.0, 120.0),
        ],
        "multicore" => &[
            ("params", "gamma", 0.1, 0.3),
            ("params", "pollack_exponent", 0.4, 0.62),
        ],
        "asymmetric" => &[
            ("params", "gamma", 0.1, 0.3),
            ("params", "pollack_exponent", 0.4, 0.62),
            ("params", "big_core_bce", 2.0, 6.0),
        ],
        "accelerator" => &[
            ("params", "area_overhead", 0.03, 0.1),
            ("params", "energy_advantage", 200.0, 800.0),
        ],
        "dark-silicon" => &[
            ("params", "accelerator_area_fraction", 0.5, 0.75),
            ("params", "energy_advantage", 200.0, 800.0),
        ],
        "caching" => &[
            ("params", "stall_fraction", 0.6, 0.9),
            ("params", "memory_energy_fraction", 0.6, 0.9),
            ("params", "cache_energy_fraction", 0.03, 0.08),
            ("params", "miss_exponent", 0.4, 0.62),
        ],
        "speculation" => &[
            ("params", "predictor_energy_ratio", 0.9, 0.96),
            ("params", "predictor_performance_ratio", 1.08, 1.2),
            ("params", "runahead_performance_ratio", 1.3, 1.45),
            ("params", "runahead_energy_ratio", 0.9, 0.96),
            ("params", "runahead_area_overhead", 0.003, 0.008),
        ],
        "dvfs" => &[
            ("params", "dynamic_power_fraction", 0.6, 0.8),
            ("params", "regulator_area_overhead", 0.01, 0.03),
            ("params", "turbo_area_overhead", 0.005, 0.015),
            ("params", "downscale", 0.7, 0.9),
            ("params", "boost", 1.1, 1.3),
        ],
        "gating" => &[
            ("params", "gating_energy_ratio", 0.95, 0.98),
            ("params", "gating_performance_ratio", 0.92, 0.95),
            ("params", "gating_area_overhead", 0.0, 0.01),
        ],
        "case-study" => &[
            ("params", "parallel_fraction", 0.6, 0.9),
            ("params", "gamma", 0.1, 0.3),
        ],
        // Microarch takes no parameters but does take α weights; the die
        // shrink takes nothing, so only its unique id makes it distinct.
        _ => &[],
    }
}

/// The 27 figure and finding twins: (twin id, kind, study, index).
pub const TWINS: [(&str, &str, &str, Option<u32>); 27] = [
    ("fig1", "figure", "wafer", None),
    ("fig3", "figure", "multicore", None),
    ("fig4", "figure", "asymmetric", None),
    ("fig5a", "figure", "accelerator", None),
    ("fig5b", "figure", "dark-silicon", None),
    ("fig6", "figure", "caching", None),
    ("fig7", "figure", "microarch", None),
    ("fig8", "figure", "speculation", None),
    ("fig9", "figure", "case-study", None),
    ("finding-01", "finding", "multicore", Some(1)),
    ("finding-02", "finding", "multicore", Some(2)),
    ("finding-03", "finding", "multicore", Some(3)),
    ("finding-04", "finding", "asymmetric", Some(4)),
    ("finding-05", "finding", "asymmetric", Some(5)),
    ("finding-06", "finding", "accelerator", Some(6)),
    ("finding-07", "finding", "dark-silicon", Some(7)),
    ("finding-08", "finding", "caching", Some(8)),
    ("finding-09", "finding", "microarch", Some(9)),
    ("finding-10", "finding", "microarch", Some(10)),
    ("finding-11", "finding", "microarch", Some(11)),
    ("finding-12", "finding", "speculation", Some(12)),
    ("finding-13", "finding", "speculation", Some(13)),
    ("finding-14", "finding", "dvfs", Some(14)),
    ("finding-15", "finding", "dvfs", Some(15)),
    ("finding-16", "finding", "gating", Some(16)),
    ("finding-17", "finding", "die-shrink", Some(17)),
    ("finding-18", "finding", "case-study", Some(18)),
];

/// A scenario in structured form, so it can be spelled many ways.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// `(table, [(key, value text)])` in the base spelling's order.
    pub tables: Vec<(String, Vec<(String, String)>)>,
    /// Canonical digest of the scenario (identical for every spelling).
    pub digest: u64,
}

impl Scenario {
    /// The base spelling: tables and keys in order, `key = value`.
    #[must_use]
    pub fn base_text(&self) -> String {
        let mut out = String::new();
        for (i, (table, entries)) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&format!("[{table}]\n"));
            for (key, value) in entries {
                out.push_str(&format!("{key} = {value}\n"));
            }
        }
        out
    }
}

/// Draws scenarios: twin `i` of each block of 27 comes from a seeded
/// permutation, so every block carries each twin once and the cost mix
/// of any long run is the same across seeds.
pub struct Generator {
    rng: Rng,
    prefix: String,
    order: Vec<usize>,
    next: u64,
}

impl Generator {
    /// A generator for one stream of the workload seed. `prefix` makes
    /// scenario ids unique across streams.
    #[must_use]
    pub fn new(seed: u64, stream: &str) -> Generator {
        Generator {
            rng: Rng::new(seed, stream),
            prefix: stream.to_string(),
            order: Vec::new(),
            next: 0,
        }
    }

    /// The next distinct scenario. Panics if it does not compile, which
    /// would be a generator bug (the knob ranges are inside every
    /// family's valid range).
    pub fn scenario(&mut self) -> Scenario {
        if self.order.is_empty() {
            self.order = (0..TWINS.len()).collect();
            self.rng.shuffle(&mut self.order);
        }
        let twin = self.order.pop().expect("order refilled above");
        let (twin_id, kind, study, index) = TWINS[twin];
        let n = self.next;
        self.next += 1;
        let mut head = vec![
            (
                "id".to_string(),
                format!("\"{twin_id}-{}-{n}\"", self.prefix),
            ),
            ("kind".to_string(), format!("\"{kind}\"")),
            ("study".to_string(), format!("\"{study}\"")),
        ];
        if let Some(index) = index {
            head.push(("index".to_string(), index.to_string()));
        }
        let mut tables = vec![("scenario".to_string(), head)];
        for &(table, key, lo, hi) in knobs(study) {
            let v = lo + (hi - lo) * self.rng.unit();
            let entry = (key.to_string(), format!("{v:.4}"));
            match tables.iter_mut().find(|(t, _)| t == table) {
                Some((_, entries)) => entries.push(entry),
                None => tables.push((table.to_string(), vec![entry])),
            }
        }
        if study == "microarch" {
            let a = 0.7 + 0.2 * self.rng.unit();
            let b = 0.1 + 0.2 * self.rng.unit();
            tables.push((
                "assumptions".to_string(),
                vec![("alpha".to_string(), format!("[{a:.4}, {b:.4}]"))],
            ));
        }
        let mut scenario = Scenario { tables, digest: 0 };
        let compiled = CompiledScenario::compile(&scenario.base_text(), "generated")
            .unwrap_or_else(|e| panic!("generated scenario does not compile: {e}"));
        scenario.digest = compiled.canonical().digest();
        scenario
    }
}

/// Re-spells `scenario` with a unique marker (`tag`) in a comment:
/// shuffled key and table order, varied whitespace, and alternative
/// spellings of the same numbers. Asserts that the canonical digest is
/// unchanged.
pub fn respell(scenario: &Scenario, rng: &mut Rng, tag: &str) -> String {
    let mut tables = scenario.tables.clone();
    if rng.chance(0.5) {
        rng.shuffle(&mut tables);
    }
    let mut out = String::new();
    let comment_at = rng.below(tables.len() + 1);
    for (i, (table, entries)) in tables.iter_mut().enumerate() {
        if i == comment_at {
            out.push_str(&format!("# spelling {tag}\n"));
        }
        if i > 0 || rng.chance(0.3) {
            out.push('\n');
        }
        out.push_str(&format!("[{table}]{}\n", pad(rng)));
        rng.shuffle(entries);
        for (key, value) in entries.iter() {
            let indent = if rng.chance(0.2) { "  " } else { "" };
            let eq = ["=", " = ", "  =  ", " ="][rng.below(4)];
            out.push_str(&format!(
                "{indent}{key}{eq}{}{}\n",
                respell_number(value, rng),
                pad(rng)
            ));
        }
    }
    if comment_at == tables.len() {
        out.push_str(&format!("# spelling {tag}\n"));
    }
    let digest = CompiledScenario::compile(&out, "respelled")
        .unwrap_or_else(|e| panic!("respelled scenario does not compile: {e}\n{out}"))
        .canonical()
        .digest();
    assert_eq!(
        digest, scenario.digest,
        "respelling changed the canonical digest:\n{out}"
    );
    out
}

fn pad(rng: &mut Rng) -> &'static str {
    ["", "", " ", "\t"][rng.below(4)]
}

/// Same number, other spelling: a trailing zero or scientific notation
/// (both parse to the identical `f64`). Non-float values pass through.
fn respell_number(value: &str, rng: &mut Rng) -> String {
    let is_float = value.contains('.') && value.parse::<f64>().is_ok();
    if !is_float {
        return value.to_string();
    }
    match rng.below(3) {
        0 => value.to_string(),
        1 => format!("{value}0"),
        _ => {
            let v: f64 = value.parse().expect("checked above");
            let sci = format!("{v:e}");
            if sci.parse::<f64>() == Ok(v) {
                sci
            } else {
                value.to_string()
            }
        }
    }
}

/// One spelling of a scenario, stored as JSON-escaped lines so request
/// lines are assembled by copying at send time.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Index into [`Inputs::digests`].
    pub scenario: usize,
    /// The TOML text, JSON-escaped, each line ending in an escaped `\n`.
    escaped: String,
    /// Byte offsets in `escaped` just past each line's `\n`.
    line_ends: Vec<u32>,
}

impl Variant {
    fn new(scenario: usize, text: &str) -> Variant {
        let escaped = escape(text);
        let line_ends = escaped
            .match_indices("\\n")
            .map(|(i, _)| u32::try_from(i + 2).expect("scenario text under 4 GiB"))
            .collect();
        Variant {
            scenario,
            escaped,
            line_ends,
        }
    }

    /// The TOML text of this variant with an optional marker line.
    fn spell(&self, marker: Option<(u32, u64)>) -> String {
        let text = JsonValue::parse(&format!("\"{}\"", self.escaped))
            .ok()
            .and_then(|v| v.as_str().map(str::to_string))
            .expect("variants hold escaped text");
        let Some((pos, tag)) = marker else {
            return text;
        };
        let mut out = String::with_capacity(text.len() + 32);
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if pos as usize == i {
                out.push_str(&format!("# spelling {tag}\n"));
            }
            out.push_str(line);
            out.push('\n');
        }
        if pos as usize == lines.len() {
            out.push_str(&format!("# spelling {tag}\n"));
        }
        out
    }
}

/// A request's spelling: a variant, plus (for a fresh spelling) a unique
/// comment line `# spelling <tag>` inserted before line `pos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spelling {
    /// Index into [`Inputs::variants`].
    pub variant: u32,
    /// `(line position, unique tag)` of the inserted comment.
    pub marker: Option<(u32, u64)>,
}

/// A generated request.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Phase letter of the id (`w`, `c` or `o`).
    pub phase: char,
    /// Index within the phase (the rest of the id).
    pub index: u32,
    /// The scenario text sent.
    pub spelling: Spelling,
    /// Index into [`Inputs::digests`].
    pub scenario: usize,
    /// Whether the response must embed the output text.
    pub include_output: bool,
}

/// Everything one serving workload sends, in order.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Canonical digest of each distinct scenario.
    pub digests: Vec<u64>,
    /// Variant index of each scenario's base spelling.
    pub base: Vec<u32>,
    /// Spellings the requests draw from.
    pub variants: Vec<Variant>,
    /// Set-up traffic: sent before timing starts.
    pub warm: Vec<Req>,
    /// Closed-loop phase traffic (the phase may stop before the end).
    pub closed: Vec<Req>,
    /// Open-loop phase traffic, one request per arrival slot.
    pub open: Vec<Req>,
}

impl Inputs {
    /// The base spelling of scenario `i`.
    #[must_use]
    pub fn base_text(&self, i: usize) -> String {
        self.variants[self.base[i] as usize].spell(None)
    }

    /// The request id.
    #[must_use]
    pub fn id(&self, req: &Req) -> String {
        format!("{}{}", req.phase, req.index)
    }

    /// Appends the request's NDJSON line, newline-terminated.
    pub fn push_line(&self, req: &Req, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"id\":\"{}{}\",\"scenario\":\"",
            req.phase, req.index
        );
        let v = &self.variants[req.spelling.variant as usize];
        let mut from = 0;
        for (i, &end) in v.line_ends.iter().enumerate() {
            if let Some((pos, tag)) = req.spelling.marker {
                if pos as usize == i {
                    let _ = write!(out, "# spelling {tag}\\n");
                }
            }
            let end = end as usize;
            out.push_str(&v.escaped[from..end]);
            from = end;
        }
        if let Some((pos, tag)) = req.spelling.marker {
            if pos as usize == v.line_ends.len() {
                let _ = write!(out, "# spelling {tag}\\n");
            }
        }
        out.push_str(if req.include_output {
            "\",\"include_output\":true}\n"
        } else {
            "\"}\n"
        });
    }

    /// The scenario TOML the request carries.
    #[cfg(test)]
    #[must_use]
    pub fn text(&self, req: &Req) -> String {
        self.variants[req.spelling.variant as usize].spell(req.spelling.marker)
    }

    /// The request's NDJSON line without its newline.
    #[must_use]
    pub fn line(&self, req: &Req) -> String {
        let mut out = String::new();
        self.push_line(req, &mut out);
        out.pop();
        out
    }

    /// All request lines concatenated: the NDJSON the server sees.
    #[cfg(test)]
    #[must_use]
    pub fn ndjson(&self) -> String {
        let mut out = String::new();
        for r in self.warm.iter().chain(&self.closed).chain(&self.open) {
            self.push_line(r, &mut out);
        }
        out
    }
}

/// `cold-distinct`: every request is a scenario never seen before.
#[must_use]
pub fn cold_distinct(seed: u64, warm: usize, closed: usize, open: usize) -> Inputs {
    let mut gen = Generator::new(seed, "cold");
    let mut inputs = Inputs {
        digests: Vec::with_capacity(warm + closed + open),
        base: Vec::with_capacity(warm + closed + open),
        variants: Vec::with_capacity(warm + closed + open),
        warm: Vec::new(),
        closed: Vec::new(),
        open: Vec::new(),
    };
    let mut phase = |count: usize, phase: char| -> Vec<Req> {
        (0..count)
            .map(|i| {
                let s = gen.scenario();
                let scenario = inputs.digests.len();
                inputs.variants.push(Variant::new(scenario, &s.base_text()));
                inputs.digests.push(s.digest);
                inputs.base.push(scenario as u32);
                Req {
                    phase,
                    index: i as u32,
                    spelling: Spelling {
                        variant: scenario as u32,
                        marker: None,
                    },
                    scenario,
                    include_output: false,
                }
            })
            .collect()
    };
    let warm = phase(warm, 'w');
    let closed = phase(closed, 'c');
    let open = phase(open, 'o');
    inputs.warm = warm;
    inputs.closed = closed;
    inputs.open = open;
    inputs
}

/// Share of `hit-respell` requests that repeat a spelling already sent.
pub const REPEAT_SHARE: f64 = 0.5;
/// Share of `hit-respell` requests that ask for the output text.
pub const OUTPUT_SHARE: f64 = 0.1;
/// Re-spelled variants per working-set scenario; a fresh spelling is
/// one of them with a unique comment line at a random position.
pub const VARIANTS: usize = 8;

/// `hit-respell`: a warm working set of `working_set` scenarios, sent
/// once in set-up; then about half exact repeats of a spelling already
/// sent and half fresh spellings of a working-set scenario.
#[must_use]
pub fn hit_respell(seed: u64, working_set: usize, closed: usize, open: usize) -> Inputs {
    let mut gen = Generator::new(seed, "hit");
    let scenarios: Vec<Scenario> = (0..working_set).map(|_| gen.scenario()).collect();
    let mut rng = Rng::new(seed, "hit-mix");
    // Variant 0 of each scenario is its base spelling (sent in set-up).
    let mut variants = Vec::with_capacity(working_set * (VARIANTS + 1));
    for (i, s) in scenarios.iter().enumerate() {
        variants.push(Variant::new(i, &s.base_text()));
        for v in 0..VARIANTS {
            variants.push(Variant::new(i, &respell(s, &mut rng, &format!("v{v}"))));
        }
    }
    let mut inputs = Inputs {
        digests: scenarios.iter().map(|s| s.digest).collect(),
        base: (0..working_set)
            .map(|i| (i * (VARIANTS + 1)) as u32)
            .collect(),
        variants,
        warm: Vec::new(),
        closed: Vec::new(),
        open: Vec::new(),
    };
    inputs.warm = (0..working_set)
        .map(|i| Req {
            phase: 'w',
            index: i as u32,
            spelling: Spelling {
                variant: (i * (VARIANTS + 1)) as u32,
                marker: None,
            },
            scenario: i,
            include_output: false,
        })
        .collect();
    // Spellings sent so far.
    let mut seen: Vec<Spelling> = inputs.warm.iter().map(|r| r.spelling).collect();
    let mut tag = 0u64;
    let mut phase = |count: usize, phase: char| -> Vec<Req> {
        (0..count)
            .map(|i| {
                let include_output = rng.chance(OUTPUT_SHARE);
                let spelling = if rng.chance(REPEAT_SHARE) {
                    seen[rng.below(seen.len())]
                } else {
                    let k = rng.below(working_set);
                    let variant = k * (VARIANTS + 1) + 1 + rng.below(VARIANTS);
                    let lines = inputs.variants[variant].line_ends.len();
                    tag += 1;
                    let fresh = Spelling {
                        variant: variant as u32,
                        marker: Some((rng.below(lines + 1) as u32, tag)),
                    };
                    let text = inputs.variants[variant].spell(fresh.marker);
                    let digest = CompiledScenario::compile(&text, "respelled")
                        .map(|c| c.canonical().digest())
                        .unwrap_or_else(|e| panic!("fresh spelling does not compile: {e}"));
                    assert_eq!(
                        digest, inputs.digests[k],
                        "fresh spelling changed the digest"
                    );
                    seen.push(fresh);
                    fresh
                };
                let variant = &inputs.variants[spelling.variant as usize];
                Req {
                    phase,
                    index: i as u32,
                    spelling,
                    scenario: variant.scenario,
                    include_output,
                }
            })
            .collect()
    };
    let closed = phase(closed, 'c');
    let open = phase(open, 'o');
    inputs.closed = closed;
    inputs.open = open;
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_ndjson() {
        assert_eq!(
            cold_distinct(7, 5, 60, 30).ndjson(),
            cold_distinct(7, 5, 60, 30).ndjson()
        );
        assert_eq!(
            hit_respell(7, 40, 80, 40).ndjson(),
            hit_respell(7, 40, 80, 40).ndjson()
        );
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(
            cold_distinct(1, 0, 30, 0).ndjson(),
            cold_distinct(2, 0, 30, 0).ndjson()
        );
    }

    #[test]
    fn cold_scenarios_are_all_distinct_and_cover_every_twin() {
        let inputs = cold_distinct(11, 10, 200, 60);
        let mut digests = inputs.digests.clone();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 270);
        for (twin, ..) in TWINS {
            let needle = format!("\"{twin}-cold-");
            assert!(
                inputs
                    .closed
                    .iter()
                    .any(|r| inputs.line(r).contains(&needle)),
                "twin {twin} never drawn"
            );
        }
    }

    #[test]
    fn generated_scenarios_all_evaluate() {
        for seed in 0..4 {
            let mut gen = Generator::new(seed, "eval");
            for _ in 0..27 * 60 {
                let text = gen.scenario().base_text();
                let compiled = CompiledScenario::compile(&text, "t").unwrap();
                if let Err(e) = compiled.evaluate() {
                    panic!("{e}\n{text}");
                }
            }
        }
    }

    #[test]
    fn respelling_keeps_the_digest_and_changes_the_text() {
        let mut gen = Generator::new(3, "t");
        let mut rng = Rng::new(3, "spell");
        for i in 0..200 {
            let s = gen.scenario();
            // `respell` itself asserts digest invariance.
            let a = respell(&s, &mut rng, &format!("a{i}"));
            let b = respell(&s, &mut rng, &format!("b{i}"));
            assert_ne!(a, b);
            assert_ne!(a, s.base_text());
        }
    }

    #[test]
    fn request_lines_carry_the_spelled_text() {
        let inputs = hit_respell(8, 20, 200, 0);
        for r in inputs.warm.iter().chain(&inputs.closed) {
            let line = inputs.line(r);
            let v = focal_serve::json::JsonValue::parse(&line).unwrap();
            assert_eq!(v.get("id").unwrap().as_str(), Some(inputs.id(r).as_str()));
            let text = v.get("scenario").unwrap().as_str().unwrap();
            assert_eq!(text, inputs.text(r));
            assert_eq!(v.get("include_output").is_some(), r.include_output);
            let digest = CompiledScenario::compile(text, "t")
                .unwrap()
                .canonical()
                .digest();
            assert_eq!(digest, inputs.digests[r.scenario]);
        }
    }

    #[test]
    fn hit_respell_mix_matches_its_shares() {
        let inputs = hit_respell(5, 50, 4000, 0);
        let mut seen: std::collections::BTreeSet<String> =
            inputs.warm.iter().map(|r| inputs.text(r)).collect();
        let fresh = inputs
            .closed
            .iter()
            .filter(|r| seen.insert(inputs.text(r)))
            .count();
        let outputs = inputs.closed.iter().filter(|r| r.include_output).count();
        assert!(fresh > 1800 && fresh < 2200, "fresh spellings: {fresh}");
        assert!(outputs > 300 && outputs < 500, "include_output: {outputs}");
    }
}
