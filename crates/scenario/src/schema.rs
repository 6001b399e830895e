//! The typed scenario schema: turns a parsed [`crate::toml::Document`]
//! into a [`ScenarioDef`].
//!
//! One table, [`KEYS`], declares every key of `[params]`, `[sweep]`,
//! `[assumptions]`, `[assumptions.act]` and `[monte_carlo]`: its value
//! type, whether it is required, its unit alias and its bounds. One
//! generic reader checks every value against its row, verifies numbers
//! finite, rejects unknown tables and keys, and keeps source lines for
//! downstream (canonicalization) errors.

use crate::error::{Result, ScenarioError};
use crate::family::{FamilyDesc, FAMILIES};
use crate::toml::{Document, Entry, Table, Value};

/// The largest count a scenario may request for `utilization_steps`,
/// `area_steps`, `die_steps` and `[monte_carlo].samples`. Evaluation
/// time and output size grow linearly in these counts, so the cap keeps
/// one small request from costing unbounded memory.
pub const MAX_COUNT: usize = 10_000;

/// KiB per MiB, for the `*_kib` aliases.
const KIB_PER_MIB: f64 = 1024.0;

/// Percentage points per unit fraction, for the `*_percent` alias.
const PERCENT: f64 = 100.0;

/// What a scenario evaluates to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// A paper figure (CSV panels of sweep series).
    Figure,
    /// A paper finding (paper-vs-measured metrics plus a verdict).
    Finding,
    /// The Monte-Carlo verdict-robustness analysis (needs an engine).
    Robustness,
}

impl ScenarioKind {
    /// The DSL spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ScenarioKind::Figure => "figure",
            ScenarioKind::Finding => "finding",
            ScenarioKind::Robustness => "robustness",
        }
    }
}

/// A schema value with the source line it came from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sourced<T> {
    /// The parsed value.
    pub value: T,
    /// 1-based source line.
    pub line: u32,
}

/// The value type a key accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// A string.
    Str,
    /// A finite number (integer or float).
    Num,
    /// A non-negative integer that fits a `u32`.
    U32,
    /// A non-negative integer that fits a `usize`.
    Count,
    /// A non-negative integer.
    U64,
    /// An array of finite numbers.
    Nums,
    /// An array of non-negative integers that fit a `u32`.
    U32s,
    /// An array of strings.
    Strs,
    /// A preset name or a finite number.
    NameOrNum,
}

/// A type-checked value, as written (aliases are not yet converted).
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A [`Ty::Str`] value, or a [`Ty::NameOrNum`] name.
    Str(String),
    /// A [`Ty::Num`] value, or a [`Ty::NameOrNum`] number.
    Num(f64),
    /// A [`Ty::U32`], [`Ty::Count`] or [`Ty::U64`] value.
    Int(u64),
    /// A [`Ty::Nums`] value.
    Nums(Vec<f64>),
    /// A [`Ty::U32s`] value.
    U32s(Vec<u32>),
    /// A [`Ty::Strs`] value.
    Strs(Vec<String>),
}

/// A second spelling of a key in another unit. The alias reads as
/// `value / per_unit` in the key's canonical unit; setting both
/// spellings is an error. Aliased keys are optional.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alias {
    /// The alias spelling.
    pub name: &'static str,
    /// Alias units per canonical unit.
    pub per_unit: f64,
    /// What both spellings set, for the "both set …; choose one" error.
    pub what: &'static str,
}

/// One row of the key table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyDesc {
    /// The input table (`"params"`, `"sweep"`, `"assumptions"`,
    /// `"assumptions.act"` or `"monte_carlo"`).
    pub table: &'static str,
    /// The canonical spelling.
    pub name: &'static str,
    /// The value type.
    pub ty: Ty,
    /// Whether the key must be present when its table is.
    pub required: bool,
    /// The unit alias, if the key has one.
    pub alias: Option<Alias>,
    /// Whether an integer must be positive.
    pub positive: bool,
    /// The largest integer accepted.
    pub max: u64,
}

const fn key(table: &'static str, name: &'static str, ty: Ty) -> KeyDesc {
    KeyDesc {
        table,
        name,
        ty,
        required: false,
        alias: None,
        positive: false,
        max: u64::MAX,
    }
}

impl KeyDesc {
    const fn required(mut self) -> Self {
        self.required = true;
        self
    }

    const fn positive(mut self) -> Self {
        self.positive = true;
        self
    }

    const fn capped(mut self) -> Self {
        self.max = MAX_COUNT as u64;
        self
    }

    const fn alias(mut self, name: &'static str, per_unit: f64, what: &'static str) -> Self {
        self.alias = Some(Alias {
            name,
            per_unit,
            what,
        });
        self
    }
}

const P: &str = "params";
const S: &str = "sweep";
const A: &str = "assumptions";
const ACT: &str = "assumptions.act";
const MC: &str = "monte_carlo";

/// Every key of the input tables, in declaration order: the schema reads
/// (and reports type errors) in this order, and the canonicalizer
/// reports keys a family does not accept in this order.
pub const KEYS: &[KeyDesc] = &[
    key(P, "gamma", Ty::Num),
    key(P, "pollack_exponent", Ty::Num),
    key(P, "big_core_bce", Ty::Num),
    key(P, "area_overhead", Ty::Num),
    key(P, "energy_advantage", Ty::Num),
    key(P, "accelerator_area_fraction", Ty::Num),
    key(P, "stall_fraction", Ty::Num),
    key(P, "memory_energy_fraction", Ty::Num),
    key(P, "cache_energy_fraction", Ty::Num),
    key(P, "base_mib", Ty::Num).alias("base_kib", KIB_PER_MIB, "the base LLC size"),
    key(P, "miss_exponent", Ty::Num),
    key(P, "predictor_energy_ratio", Ty::Num),
    key(P, "predictor_performance_ratio", Ty::Num),
    key(P, "runahead_performance_ratio", Ty::Num),
    key(P, "runahead_energy_ratio", Ty::Num),
    key(P, "runahead_area_overhead", Ty::Num),
    key(P, "dynamic_power_fraction", Ty::Num),
    key(P, "regulator_area_overhead", Ty::Num),
    key(P, "turbo_area_overhead", Ty::Num),
    key(P, "downscale", Ty::Num),
    key(P, "boost", Ty::Num),
    key(P, "gating_energy_ratio", Ty::Num),
    key(P, "gating_performance_ratio", Ty::Num),
    key(P, "gating_area_overhead", Ty::Num),
    key(P, "parallel_fraction", Ty::Num),
    key(P, "base_cores", Ty::U32),
    key(P, "wafer_diameter_mm", Ty::Num),
    key(P, "defect_density_per_cm2", Ty::Num),
    key(P, "yield_models", Ty::Strs),
    key(S, "bce", Ty::U32s),
    key(S, "parallel_fraction", Ty::Nums),
    key(S, "llc_mib", Ty::Nums).alias("llc_kib", KIB_PER_MIB, "the LLC sweep"),
    key(S, "utilization_steps", Ty::Count).capped(),
    key(S, "area_steps", Ty::Count).capped(),
    key(S, "max_predictor_area", Ty::Num).alias(
        "max_predictor_area_percent",
        PERCENT,
        "the sweep ceiling",
    ),
    key(S, "die_min_mm2", Ty::Num),
    key(S, "die_max_mm2", Ty::Num),
    key(S, "die_steps", Ty::Count).capped(),
    key(S, "reference_mm2", Ty::Num),
    key(A, "alpha", Ty::Nums),
    key(A, "alpha_center", Ty::Nums),
    key(A, "alpha_half_width", Ty::Num),
    key(ACT, "node", Ty::Str).required(),
    key(ACT, "lifetime_years", Ty::Num).required(),
    key(ACT, "carbon_intensity", Ty::NameOrNum).required(),
    key(ACT, "average_power_watts", Ty::Num).required(),
    key(ACT, "die_mm2", Ty::Num).required(),
    key(MC, "samples", Ty::Count).required().capped().positive(),
    key(MC, "seed", Ty::U64).required(),
    key(MC, "jitter", Ty::Num).required(),
];

/// One provided key: its key-table row, the spelling used, and the
/// type-checked value as written.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// The key-table row.
    pub key: &'static KeyDesc,
    /// The spelling used: the row's name or its alias.
    pub spelled: &'static str,
    /// The value and its source line.
    pub value: Sourced<Val>,
}

/// A fully type-checked scenario definition (defaults not yet resolved —
/// that is [`crate::canonical::canonicalize`]'s job).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDef {
    /// The file the scenario came from (for error messages).
    pub file: String,
    /// Unique scenario id.
    pub id: String,
    /// What the scenario evaluates to.
    pub kind: ScenarioKind,
    /// The study family.
    pub family: &'static FamilyDesc,
    /// Source line of the `study` key.
    pub study_line: u32,
    /// Figure/finding index (required for findings).
    pub index: Option<Sourced<u32>>,
    /// Optional free-text title.
    pub title: Option<String>,
    /// Every provided key of the input tables, in [`KEYS`] order.
    pub inputs: Vec<Input>,
}

/// A table wrapper that type-checks entries and tracks which keys were
/// consumed, so leftovers can be reported as unknown keys.
struct TableReader<'a> {
    table: &'a Table,
    file: &'a str,
    consumed: Vec<&'a str>,
}

impl<'a> TableReader<'a> {
    fn err(&self, entry: &Entry, message: String) -> ScenarioError {
        ScenarioError::new(message)
            .in_file(self.file)
            .at_line(entry.line)
            .for_key(&entry.key)
    }

    /// Reads and type-checks one spelling of a key.
    fn read(&mut self, name: &'a str, row: &KeyDesc) -> Result<Option<Sourced<Val>>> {
        let Some(entry) = self.table.get(name) else {
            if !row.required {
                return Ok(None);
            }
            return Err(ScenarioError::new(format!(
                "missing required key `{name}` in table `[{}]`",
                self.table.name
            ))
            .in_file(self.file)
            .at_line(self.table.line)
            .for_key(name));
        };
        self.consumed.push(name);
        let value = self.check(entry, row)?;
        Ok(Some(Sourced {
            value,
            line: entry.line,
        }))
    }

    fn check(&self, entry: &Entry, row: &KeyDesc) -> Result<Val> {
        let expected = match (row.ty, &entry.value) {
            (Ty::Str | Ty::NameOrNum, Value::Str(s)) => return Ok(Val::Str(s.clone())),
            (Ty::Num | Ty::NameOrNum, Value::Int(_) | Value::Float(_)) => {
                return self.number(entry).map(Val::Num)
            }
            (Ty::U32 | Ty::Count | Ty::U64, _) => return self.integer(entry, row).map(Val::Int),
            (Ty::Nums | Ty::U32s | Ty::Strs, Value::Array(items)) => {
                return self.array(entry, row.ty, items)
            }
            (Ty::Str, _) => "a string",
            (Ty::Num, _) => "a number",
            (Ty::NameOrNum, _) => "a preset name or gCO2/kWh number",
            _ => "an array",
        };
        Err(self.err(
            entry,
            format!("expected {expected}, got a {}", entry.value.type_name()),
        ))
    }

    fn number(&self, entry: &Entry) -> Result<f64> {
        let v = match entry.value {
            Value::Int(i) => i as f64,
            Value::Float(f) => f,
            _ => f64::NAN,
        };
        if !v.is_finite() {
            return Err(self.err(entry, format!("`{}` must be a finite number", entry.key)));
        }
        Ok(v)
    }

    fn integer(&self, entry: &Entry, row: &KeyDesc) -> Result<u64> {
        let key = &entry.key;
        let v = match entry.value {
            Value::Int(i) => u64::try_from(i)
                .map_err(|_| self.err(entry, format!("`{key}` must be a non-negative integer")))?,
            ref other => {
                return Err(self.err(
                    entry,
                    format!("expected an integer, got a {}", other.type_name()),
                ))
            }
        };
        let fits = match row.ty {
            Ty::U32 => u32::try_from(v).is_ok(),
            _ => usize::try_from(v).is_ok() || row.ty == Ty::U64,
        };
        if !fits {
            return Err(self.err(entry, format!("`{key}` is out of range")));
        }
        if row.positive && v == 0 {
            return Err(self.err(entry, format!("`{key}` must be positive")));
        }
        if v > row.max {
            return Err(self.err(
                entry,
                format!("`{key}` must be at most {}, got {v}", row.max),
            ));
        }
        Ok(v)
    }

    fn array(&self, entry: &Entry, ty: Ty, items: &[Value]) -> Result<Val> {
        let key = &entry.key;
        let (mut nums, mut ints, mut strs) = (Vec::new(), Vec::new(), Vec::new());
        for item in items {
            match (ty, item) {
                (Ty::Nums, Value::Int(i)) => nums.push(*i as f64),
                (Ty::Nums, Value::Float(f)) if f.is_finite() => nums.push(*f),
                (Ty::Nums, Value::Float(_)) => {
                    return Err(self.err(entry, format!("`{key}` must contain finite numbers")))
                }
                (Ty::U32s, Value::Int(i)) => ints.push(u32::try_from(*i).map_err(|_| {
                    self.err(entry, format!("`{key}` must contain non-negative integers"))
                })?),
                (Ty::Strs, Value::Str(s)) => strs.push(s.clone()),
                (_, other) => {
                    let of = match ty {
                        Ty::Nums => "numbers",
                        Ty::U32s => "integers",
                        _ => "strings",
                    };
                    return Err(self.err(
                        entry,
                        format!("expected an array of {of}, found a {}", other.type_name()),
                    ));
                }
            }
        }
        Ok(match ty {
            Ty::Nums => Val::Nums(nums),
            Ty::U32s => Val::U32s(ints),
            _ => Val::Strs(strs),
        })
    }

    /// Reads a string key of the `[scenario]` table.
    fn text(&mut self, name: &'static str, required: bool) -> Result<Option<Sourced<String>>> {
        let row = KeyDesc {
            required,
            ..key("scenario", name, Ty::Str)
        };
        Ok(self.read(name, &row)?.and_then(|s| match s.value {
            Val::Str(value) => Some(Sourced {
                value,
                line: s.line,
            }),
            _ => None,
        }))
    }

    /// Fails on any key the schema did not consume.
    fn finish(self) -> Result<()> {
        for entry in &self.table.entries {
            if !self.consumed.contains(&entry.key.as_str()) {
                return Err(self.err(
                    entry,
                    format!(
                        "unknown key `{}` in table `[{}]`",
                        entry.key, self.table.name
                    ),
                ));
            }
        }
        Ok(())
    }
}

const KNOWN_TABLES: &[&str] = &["scenario", P, S, A, ACT, MC];

fn read_scenario_table(doc: &Document, file: &str) -> Result<ScenarioDef> {
    let table = doc.table("scenario").ok_or_else(|| {
        ScenarioError::new("missing required table `[scenario]`")
            .in_file(file)
            .for_key("scenario")
    })?;
    let mut r = TableReader {
        table,
        file,
        consumed: Vec::new(),
    };
    let fail = |at: &Sourced<String>, key: &str, message: String| {
        ScenarioError::new(message)
            .in_file(file)
            .at_line(at.line)
            .for_key(key)
    };
    let id = r.text("id", true)?.unwrap_or_default();
    if id.value.trim().is_empty() {
        return Err(fail(&id, "id", "scenario id must not be empty".into()));
    }
    let kind = r.text("kind", true)?.unwrap_or_default();
    let kinds = [
        ScenarioKind::Figure,
        ScenarioKind::Finding,
        ScenarioKind::Robustness,
    ];
    let Some(kind_value) = kinds.into_iter().find(|k| k.as_str() == kind.value) else {
        let expected = "expected figure | finding | robustness";
        let message = format!("unknown kind `{}` ({expected})", kind.value);
        return Err(fail(&kind, "kind", message));
    };
    let study = r.text("study", true)?.unwrap_or_default();
    let Some(family) = FAMILIES.iter().find(|f| f.name == study.value) else {
        let names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        let message = format!(
            "unknown study `{}` (expected {})",
            study.value,
            names.join(" | ")
        );
        return Err(fail(&study, "study", message));
    };
    let index = r.read("index", &key("scenario", "index", Ty::U32))?;
    let index = index.and_then(|s| match s.value {
        Val::Int(i) => Some(Sourced {
            value: u32::try_from(i).ok()?,
            line: s.line,
        }),
        _ => None,
    });
    let title = r.text("title", false)?.map(|t| t.value);
    r.finish()?;
    Ok(ScenarioDef {
        file: file.to_string(),
        id: id.value,
        kind: kind_value,
        family,
        study_line: study.line,
        index,
        title,
        inputs: Vec::new(),
    })
}

/// Type-checks a parsed document into a [`ScenarioDef`].
///
/// # Errors
///
/// Returns a [`ScenarioError`] naming file, line and key for unknown
/// tables or keys, type mismatches, non-finite numbers, out-of-bounds
/// counts and missing required fields.
pub fn from_document(doc: &Document, file: &str) -> Result<ScenarioDef> {
    for table in &doc.tables {
        if !KNOWN_TABLES.contains(&table.name.as_str()) {
            return Err(ScenarioError::new(format!(
                "unknown table `[{}]` (expected one of {})",
                table.name,
                KNOWN_TABLES.join(", ")
            ))
            .in_file(file)
            .at_line(table.line)
            .for_key(&table.name));
        }
    }
    let mut def = read_scenario_table(doc, file)?;
    for table in KNOWN_TABLES
        .iter()
        .skip(1)
        .filter_map(|name| doc.table(name))
    {
        let mut r = TableReader {
            table,
            file,
            consumed: Vec::new(),
        };
        for row in KEYS.iter().filter(|k| k.table == table.name) {
            for spelled in std::iter::once(row.name).chain(row.alias.map(|a| a.name)) {
                if let Some(value) = r.read(spelled, row)? {
                    def.inputs.push(Input {
                        key: row,
                        spelled,
                        value,
                    });
                }
            }
        }
        r.finish()?;
    }
    Ok(def)
}

/// Parses and type-checks scenario text in one step.
///
/// # Errors
///
/// See [`crate::toml::parse`] and [`from_document`].
pub fn parse_scenario(text: &str, file: &str) -> Result<ScenarioDef> {
    let doc = crate::toml::parse(text, file)?;
    from_document(&doc, file)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value a key was given, under the spelling used.
    fn value<'a>(def: &'a ScenarioDef, spelled: &str) -> Option<&'a Val> {
        def.inputs
            .iter()
            .find(|i| i.spelled == spelled)
            .map(|i| &i.value.value)
    }

    #[test]
    fn minimal_figure_scenario_parses() {
        let def = parse_scenario(
            "[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n",
            "t.toml",
        )
        .unwrap();
        assert_eq!(def.id, "fig3");
        assert_eq!(def.kind, ScenarioKind::Figure);
        assert_eq!(def.family.name, "multicore");
        assert!(def.index.is_none());
    }

    #[test]
    fn full_tables_parse() {
        let def = parse_scenario(
            concat!(
                "[scenario]\nid = \"x\"\nkind = \"finding\"\nstudy = \"caching\"\nindex = 8\n",
                "[params]\nstall_fraction = 0.8\nbase_kib = 1024\n",
                "[sweep]\nllc_mib = [1, 2, 4]\n",
                "[assumptions]\nalpha = [0.8, 0.2]\n",
            ),
            "t.toml",
        )
        .unwrap();
        assert_eq!(def.index.map(|i| i.value), Some(8));
        assert_eq!(value(&def, "stall_fraction"), Some(&Val::Num(0.8)));
        assert_eq!(value(&def, "base_kib"), Some(&Val::Num(1024.0)));
        assert_eq!(
            value(&def, "llc_mib"),
            Some(&Val::Nums(vec![1.0, 2.0, 4.0]))
        );
        assert_eq!(value(&def, "alpha"), Some(&Val::Nums(vec![0.8, 0.2])));
    }

    #[test]
    fn act_assumptions_parse_both_ci_spellings() {
        let base = concat!(
            "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"multicore\"\n",
            "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\n",
            "average_power_watts = 15\ndie_mm2 = 100\n",
        );
        let named = format!("{base}carbon_intensity = \"world-average\"\n");
        let def = parse_scenario(&named, "t.toml").unwrap();
        assert_eq!(
            value(&def, "carbon_intensity"),
            Some(&Val::Str("world-average".into()))
        );
        let numeric = format!("{base}carbon_intensity = 475\n");
        let def = parse_scenario(&numeric, "t.toml").unwrap();
        assert_eq!(value(&def, "carbon_intensity"), Some(&Val::Num(475.0)));
    }

    #[test]
    fn missing_required_key_is_structured() {
        let e =
            parse_scenario("[scenario]\nid = \"x\"\nkind = \"figure\"\n", "t.toml").unwrap_err();
        assert_eq!(e.key.as_deref(), Some("study"));
        assert!(e.to_string().contains("missing required"), "{e}");
    }

    #[test]
    fn unknown_kind_study_table_and_key_are_structured() {
        let e = parse_scenario(
            "[scenario]\nid = \"x\"\nkind = \"chart\"\nstudy = \"multicore\"\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("kind"));
        assert_eq!(e.line, Some(3));

        let e = parse_scenario(
            "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"quantum\"\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("study"));

        let e = parse_scenario(
            "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"multicore\"\n[bogus]\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("bogus"));
        assert_eq!(e.line, Some(5));

        let e = parse_scenario(
            "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"multicore\"\n[params]\nwarp = 9\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("warp"));
        assert_eq!(e.line, Some(6));
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        let e = parse_scenario(
            concat!(
                "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"multicore\"\n",
                "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = nan\n",
                "carbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n",
            ),
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("lifetime_years"));
        assert_eq!(e.line, Some(7));
        assert!(e.to_string().contains("finite"), "{e}");
    }

    #[test]
    fn type_mismatches_are_structured() {
        let e = parse_scenario(
            "[scenario]\nid = 3\nkind = \"figure\"\nstudy = \"multicore\"\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("id"));
        assert!(e.to_string().contains("expected a string"), "{e}");

        let e = parse_scenario(
            "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"multicore\"\nindex = -1\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("index"));
    }

    #[test]
    fn monte_carlo_requires_all_fields() {
        let e = parse_scenario(
            concat!(
                "[scenario]\nid = \"x\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n",
                "[monte_carlo]\nsamples = 100\nseed = 1\n",
            ),
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("jitter"));
    }
}
