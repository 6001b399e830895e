//! Strong / weak / less sustainability classification (§4 of the paper).

use crate::design::DesignPoint;
use crate::memo::{memoized, SweepMemo};
use crate::ncf::NcfPair;
use crate::weight::{E2oRange, E2oWeight};
use focal_engine::Engine;
use std::fmt;

/// Default tolerance used when comparing an NCF value against 1.
pub const DEFAULT_TOLERANCE: f64 = 1e-9;

/// The paper's sustainability taxonomy for a design `X` compared to `Y`.
///
/// * [`Strongly`](Sustainability::Strongly) — lower footprint under **both**
///   scenarios (`NCF_fw < 1` and `NCF_ft < 1`): sustainable under all
///   circumstances, even with usage rebound.
/// * [`Weakly`](Sustainability::Weakly) — lower footprint under exactly one
///   scenario: sustainable only under specific circumstances.
/// * [`Less`](Sustainability::Less) — higher footprint under both scenarios.
/// * [`Indifferent`](Sustainability::Indifferent) — at least one NCF is 1
///   within tolerance and the other does not make the comparison strictly
///   worse under both scenarios; the paper's strict inequalities do not
///   apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sustainability {
    /// `NCF_fw < 1` and `NCF_ft < 1`.
    Strongly,
    /// Exactly one of `NCF_fw`, `NCF_ft` is `< 1`.
    Weakly,
    /// `NCF_fw > 1` and `NCF_ft > 1`.
    Less,
    /// A tie (NCF = 1) in at least one scenario, without both scenarios
    /// strictly increasing the footprint.
    Indifferent,
}

impl Sustainability {
    /// Classifies from the two NCF values using strict comparisons with
    /// `tolerance` (see [`DEFAULT_TOLERANCE`]).
    pub fn from_values(ncf_fw: f64, ncf_ft: f64, tolerance: f64) -> Sustainability {
        let below = |v: f64| v < 1.0 - tolerance;
        let above = |v: f64| v > 1.0 + tolerance;
        match (below(ncf_fw), above(ncf_fw), below(ncf_ft), above(ncf_ft)) {
            (true, _, true, _) => Sustainability::Strongly,
            (_, true, _, true) => Sustainability::Less,
            (true, _, _, true) | (_, true, true, _) => Sustainability::Weakly,
            _ => Sustainability::Indifferent,
        }
    }

    /// `true` if the design reduces the footprint under at least one
    /// scenario.
    pub fn is_sustainable_somewhere(self) -> bool {
        matches!(self, Sustainability::Strongly | Sustainability::Weakly)
    }

    /// A short human-readable label matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            Sustainability::Strongly => "strongly sustainable",
            Sustainability::Weakly => "weakly sustainable",
            Sustainability::Less => "less sustainable",
            Sustainability::Indifferent => "indifferent",
        }
    }
}

impl fmt::Display for Sustainability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A full classification outcome: the class plus the NCF pair that produced
/// it, for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// The sustainability class.
    pub class: Sustainability,
    /// The NCF values that produced it.
    pub ncf: NcfPair,
}

/// Classifies design `x` against baseline `y` at a single weight `alpha`,
/// using [`DEFAULT_TOLERANCE`].
///
/// # Examples
///
/// ```
/// use focal_core::{classify, DesignPoint, E2oWeight, Sustainability};
///
/// // A die-shrunk design: smaller, lower power, same performance.
/// let x = DesignPoint::from_power_perf(0.5, 0.5, 1.0)?;
/// let y = DesignPoint::reference();
/// let c = classify(&x, &y, E2oWeight::BALANCED);
/// assert_eq!(c.class, Sustainability::Strongly);
/// # Ok::<(), focal_core::ModelError>(())
/// ```
pub fn classify(x: &DesignPoint, y: &DesignPoint, alpha: E2oWeight) -> Classification {
    classify_with_tolerance(x, y, alpha, DEFAULT_TOLERANCE)
}

/// Like [`classify`] but with an explicit tolerance for the `NCF = 1` tie
/// band.
pub fn classify_with_tolerance(
    x: &DesignPoint,
    y: &DesignPoint,
    alpha: E2oWeight,
    tolerance: f64,
) -> Classification {
    let ncf = NcfPair::evaluate(x, y, alpha);
    Classification {
        class: Sustainability::from_values(
            ncf.fixed_work.value(),
            ncf.fixed_time.value(),
            tolerance,
        ),
        ncf,
    }
}

/// The outcome of classifying over a grid of α values: is the verdict stable
/// across the whole band, or does it flip?
///
/// §3.5 of the paper: *"if we are reaching similar conclusions across a range
/// of scenarios and embodied-to-operational footprint weights, we can be
/// confident that the conclusions hold true despite the unknowns."*
#[derive(Debug, Clone, PartialEq)]
pub struct RobustClassification {
    /// The classification at the band's center α.
    pub at_center: Sustainability,
    /// Every distinct class observed over the α grid, in first-seen order.
    pub observed: Vec<Sustainability>,
    /// The α grid points and the class at each.
    pub per_alpha: Vec<(E2oWeight, Sustainability)>,
}

impl RobustClassification {
    /// `true` if the same class was observed at every grid point.
    pub fn is_stable(&self) -> bool {
        self.observed.len() == 1
    }

    /// The single stable class, if [`Self::is_stable`].
    pub fn stable_class(&self) -> Option<Sustainability> {
        if self.is_stable() {
            self.observed.first().copied()
        } else {
            None
        }
    }
}

impl fmt::Display for RobustClassification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_stable() {
            write!(f, "{} (stable across α band)", self.at_center)
        } else {
            write!(
                f,
                "{} at center, but flips across α band ({} classes observed)",
                self.at_center,
                self.observed.len()
            )
        }
    }
}

/// Classifies `x` vs `y` over `grid_points` evenly spaced α values spanning
/// `range`, reporting whether the verdict is robust to the α uncertainty.
///
/// # Errors
///
/// Returns [`crate::ModelError::OutOfRange`] if `grid_points < 2`
/// (propagated from [`E2oRange::grid`]), or
/// [`crate::ModelError::ChunkPoisoned`] if a grid chunk panics.
///
/// # Examples
///
/// ```
/// use focal_core::{classify_over_range, DesignPoint, E2oRange, Sustainability};
///
/// let x = DesignPoint::from_power_perf(0.5, 0.5, 1.0)?;
/// let y = DesignPoint::reference();
/// let robust = classify_over_range(&x, &y, E2oRange::FULL, 11)?;
/// assert_eq!(robust.stable_class(), Some(Sustainability::Strongly));
/// # Ok::<(), focal_core::ModelError>(())
/// ```
pub fn classify_over_range(
    x: &DesignPoint,
    y: &DesignPoint,
    range: E2oRange,
    grid_points: usize,
) -> crate::Result<RobustClassification> {
    classify_over_range_on(&Engine::from_env(), x, y, range, grid_points, None)
}

/// [`classify_over_range`] on an explicit engine, through an optional
/// [`SweepMemo`]: uncached α grid points are evaluated in parallel with
/// [`focal_engine::Engine::try_par_map`], which preserves grid order, so
/// the result is identical at every thread count, with or without a memo.
///
/// # Errors
///
/// See [`classify_over_range`].
pub fn classify_over_range_on(
    engine: &Engine,
    x: &DesignPoint,
    y: &DesignPoint,
    range: E2oRange,
    grid_points: usize,
    mut memo: Option<&mut SweepMemo>,
) -> crate::Result<RobustClassification> {
    let grid = range.grid(grid_points)?;
    let key = |&alpha: &E2oWeight| SweepMemo::classify_key(x, y, alpha, DEFAULT_TOLERANCE);
    let class = |&alpha: &E2oWeight| classify(x, y, alpha).class;
    let fan = |alphas: &[E2oWeight]| Ok(engine.try_par_map(0, alphas, class)?);
    let classes = memoized(
        memo.as_deref_mut(),
        engine,
        |m| &mut m.classify,
        key,
        &grid,
        fan,
    )?;
    let per_alpha: Vec<(E2oWeight, Sustainability)> = grid.into_iter().zip(classes).collect();
    let mut observed = Vec::new();
    for (_, class) in &per_alpha {
        if !observed.contains(class) {
            observed.push(*class);
        }
    }
    // The centre is classified serially, after the grid's inserts, so a
    // centre on the grid is a memo hit.
    let serial = |alphas: &[E2oWeight]| Ok(alphas.iter().map(class).collect());
    let center = [range.center()];
    let at_center = memoized(memo, engine, |m| &mut m.classify, key, &center, serial)?
        .pop()
        .ok_or(crate::ModelError::Inconsistent {
            constraint: "the α-range centre produced no classification",
        })?;
    Ok(RobustClassification {
        at_center,
        observed,
        per_alpha,
    })
}

/// [`classify_over_range_on`] with a memo. Kept, with this signature,
/// because the perfbench harness calls it.
///
/// # Errors
///
/// See [`classify_over_range`].
pub fn classify_over_range_memo_on(
    engine: &Engine,
    x: &DesignPoint,
    y: &DesignPoint,
    range: E2oRange,
    grid_points: usize,
    memo: &mut SweepMemo,
) -> crate::Result<RobustClassification> {
    classify_over_range_on(engine, x, y, range, grid_points, Some(memo))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> DesignPoint {
        DesignPoint::reference()
    }

    #[test]
    fn strictly_better_is_strong() {
        // Lower area, lower power, higher perf => lower energy too.
        let x = DesignPoint::from_power_perf(0.8, 0.9, 1.2).unwrap();
        let c = classify(&x, &reference(), E2oWeight::BALANCED);
        assert_eq!(c.class, Sustainability::Strongly);
    }

    #[test]
    fn strictly_worse_is_less() {
        let x = DesignPoint::from_power_perf(1.2, 1.5, 1.0).unwrap();
        let c = classify(&x, &reference(), E2oWeight::BALANCED);
        assert_eq!(c.class, Sustainability::Less);
    }

    #[test]
    fn energy_down_power_up_is_weak() {
        // The classic speculation shape: energy −7 %, power +7 %, tiny area.
        // At α = 0.2: NCF_fw = 0.2·1 + 0.8·0.93 < 1; NCF_ft = 0.2 + 0.8·1.07 > 1.
        let x = DesignPoint::from_raw(1.0, 1.07, 0.93, 1.15).unwrap();
        let c = classify(&x, &reference(), E2oWeight::OPERATIONAL_DOMINATED);
        assert_eq!(c.class, Sustainability::Weakly);
    }

    #[test]
    fn identical_designs_are_indifferent() {
        let y = reference();
        let c = classify(&y, &y, E2oWeight::EMBODIED_DOMINATED);
        assert_eq!(c.class, Sustainability::Indifferent);
    }

    #[test]
    fn tie_in_one_scenario_worse_in_other_is_indifferent_not_weak() {
        // Same energy (tie under fixed-work at α=0), higher power.
        let x = DesignPoint::from_raw(1.0, 2.0, 1.0, 1.0).unwrap();
        let c = classify_with_tolerance(&x, &reference(), E2oWeight::new(0.0).unwrap(), 1e-9);
        // NCF_fw = 1.0 exactly, NCF_ft = 2.0 > 1.
        assert_eq!(c.class, Sustainability::Indifferent);
    }

    #[test]
    fn from_values_truth_table() {
        let t = DEFAULT_TOLERANCE;
        assert_eq!(
            Sustainability::from_values(0.9, 0.9, t),
            Sustainability::Strongly
        );
        assert_eq!(
            Sustainability::from_values(0.9, 1.1, t),
            Sustainability::Weakly
        );
        assert_eq!(
            Sustainability::from_values(1.1, 0.9, t),
            Sustainability::Weakly
        );
        assert_eq!(
            Sustainability::from_values(1.1, 1.1, t),
            Sustainability::Less
        );
        assert_eq!(
            Sustainability::from_values(1.0, 1.0, t),
            Sustainability::Indifferent
        );
        assert_eq!(
            Sustainability::from_values(1.0, 0.9, t),
            Sustainability::Indifferent
        );
        assert_eq!(
            Sustainability::from_values(1.0, 1.1, t),
            Sustainability::Indifferent
        );
    }

    #[test]
    fn tolerance_widens_the_tie_band() {
        assert_eq!(
            Sustainability::from_values(0.999, 0.999, 0.01),
            Sustainability::Indifferent
        );
        assert_eq!(
            Sustainability::from_values(0.999, 0.999, 1e-6),
            Sustainability::Strongly
        );
    }

    #[test]
    fn robust_classification_detects_flips() {
        // Area much smaller, power slightly higher, energy slightly higher:
        // at high α the area savings dominate (strong), at low α the
        // operational increase dominates (less).
        let x = DesignPoint::from_raw(0.3, 1.15, 1.15, 1.0).unwrap();
        let robust = classify_over_range(&x, &reference(), E2oRange::FULL, 21).unwrap();
        assert!(!robust.is_stable());
        assert!(robust.observed.len() >= 2);
        assert_eq!(robust.stable_class(), None);
    }

    #[test]
    fn robust_classification_stable_for_dominant_designs() {
        let x = DesignPoint::from_power_perf(0.5, 0.5, 1.5).unwrap();
        let robust = classify_over_range(&x, &reference(), E2oRange::FULL, 21).unwrap();
        assert!(robust.is_stable());
        assert_eq!(robust.stable_class(), Some(Sustainability::Strongly));
        assert_eq!(robust.per_alpha.len(), 21);
    }

    #[test]
    fn labels_match_paper_vocabulary() {
        assert_eq!(Sustainability::Strongly.to_string(), "strongly sustainable");
        assert_eq!(Sustainability::Weakly.label(), "weakly sustainable");
        assert_eq!(Sustainability::Less.label(), "less sustainable");
    }

    #[test]
    fn sustainable_somewhere() {
        assert!(Sustainability::Strongly.is_sustainable_somewhere());
        assert!(Sustainability::Weakly.is_sustainable_somewhere());
        assert!(!Sustainability::Less.is_sustainable_somewhere());
        assert!(!Sustainability::Indifferent.is_sustainable_somewhere());
    }

    #[test]
    fn classification_carries_ncf_pair() {
        let x = DesignPoint::from_power_perf(0.5, 1.5, 3.0).unwrap();
        let c = classify(&x, &reference(), E2oWeight::EMBODIED_DOMINATED);
        assert!((c.ncf.fixed_work.value() - 0.5).abs() < 1e-12);
        assert!((c.ncf.fixed_time.value() - 0.7).abs() < 1e-12);
    }
}
