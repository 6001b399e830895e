//! Differential determinism tests: the engine's reason to exist is that
//! parallel evaluation is *provably identical* to the serial model. These
//! tests run every ported hot path under 1, 2 and 7 threads and assert
//! bit-identical output — `total_cmp`-equal floats for the Monte-Carlo
//! summaries and α sweeps, identical CSV bytes for every registry figure.
//!
//! 7 is deliberately coprime with every chunk geometry in the tree, so a
//! scheduler that leaked chunk-execution order into results would show up
//! here even if powers of two happened to line up.

use focal::core::{
    alpha_crossover_batch, classify_over_range_on, DesignPoint, E2oRange, McSummary, MonteCarloNcf,
    Scenario, MC_CHUNK_SAMPLES,
};
use focal::engine::Engine;
use focal::studies::all_figures_on;

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Asserts two Monte-Carlo summaries are bit-identical, field by field,
/// using `total_cmp` so even NaN-shaped regressions would be caught
/// rather than silently passing `==`.
fn assert_summary_identical(a: &McSummary, b: &McSummary, context: &str) {
    let fields = [
        ("mean", a.mean, b.mean),
        ("std_dev", a.std_dev, b.std_dev),
        ("min", a.min, b.min),
        ("max", a.max, b.max),
        ("p05", a.p05, b.p05),
        ("p50", a.p50, b.p50),
        ("p95", a.p95, b.p95),
        ("prob_reduction", a.prob_reduction, b.prob_reduction),
    ];
    for (name, x, y) in fields {
        assert!(
            x.total_cmp(&y) == std::cmp::Ordering::Equal,
            "{context}: {name} differs: {x} vs {y} ({:#x} vs {:#x})",
            x.to_bits(),
            y.to_bits()
        );
    }
    assert_eq!(a.samples, b.samples, "{context}: sample counts differ");
}

#[test]
fn monte_carlo_summaries_are_bit_identical_across_thread_counts() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
    let y = DesignPoint::reference();
    // Sample counts straddling the chunk geometry: sub-chunk, exact
    // multiple, and multi-chunk with a ragged tail.
    let sample_counts = [100, MC_CHUNK_SAMPLES, 3 * MC_CHUNK_SAMPLES + 1234];
    for scenario in [Scenario::FixedWork, Scenario::FixedTime] {
        for samples in sample_counts {
            let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 9001).unwrap();
            let reference = mc
                .run_on(&Engine::serial(), &x, &y, scenario, samples)
                .unwrap();
            for threads in THREAD_COUNTS {
                let run = mc
                    .run_on(&Engine::with_threads(threads), &x, &y, scenario, samples)
                    .unwrap();
                assert_summary_identical(
                    &reference,
                    &run,
                    &format!("{scenario:?}, {samples} samples, {threads} threads"),
                );
            }
        }
    }
}

#[test]
fn alpha_sweeps_are_identical_across_thread_counts() {
    let x = DesignPoint::from_raw(1.3, 0.7, 0.7, 1.0).unwrap();
    let y = DesignPoint::reference();
    let serial =
        classify_over_range_on(&Engine::serial(), &x, &y, E2oRange::FULL, 257, None).unwrap();
    for threads in THREAD_COUNTS {
        let par = classify_over_range_on(
            &Engine::with_threads(threads),
            &x,
            &y,
            E2oRange::FULL,
            257,
            None,
        )
        .unwrap();
        assert_eq!(serial.at_center, par.at_center, "{threads} threads");
        assert_eq!(serial.observed, par.observed, "{threads} threads");
        assert_eq!(
            serial.per_alpha.len(),
            par.per_alpha.len(),
            "{threads} threads"
        );
        for (s, p) in serial.per_alpha.iter().zip(&par.per_alpha) {
            assert!(
                s.0.get().total_cmp(&p.0.get()) == std::cmp::Ordering::Equal && s.1 == p.1,
                "{threads} threads: grid point differs: {s:?} vs {p:?}"
            );
        }
    }
}

#[test]
fn crossover_batches_are_identical_across_thread_counts() {
    let y = DesignPoint::reference();
    let pairs: Vec<(DesignPoint, DesignPoint)> = (0..100)
        .map(|i| {
            let area = 0.6 + 0.01 * f64::from(i);
            let power = 1.4 - 0.008 * f64::from(i);
            (DesignPoint::from_power_perf(area, power, 1.0).unwrap(), y)
        })
        .collect();
    for scenario in [Scenario::FixedWork, Scenario::FixedTime] {
        let serial = alpha_crossover_batch(&Engine::serial(), &pairs, scenario, None);
        for threads in THREAD_COUNTS {
            let par = alpha_crossover_batch(&Engine::with_threads(threads), &pairs, scenario, None);
            assert_eq!(serial, par, "{scenario:?}, {threads} threads");
        }
    }
}

#[test]
fn every_registry_figure_has_identical_csv_bytes_across_thread_counts() {
    let serial = all_figures_on(&Engine::serial()).unwrap();
    let serial_csv: Vec<(&str, String)> = serial.iter().map(|f| (f.id, f.to_csv())).collect();
    for threads in THREAD_COUNTS {
        let par = all_figures_on(&Engine::with_threads(threads)).unwrap();
        assert_eq!(par.len(), serial.len(), "{threads} threads");
        for (fig, (id, csv)) in par.iter().zip(&serial_csv) {
            assert_eq!(fig.id, *id, "{threads} threads: figure order changed");
            assert_eq!(
                fig.to_csv().into_bytes(),
                csv.clone().into_bytes(),
                "{threads} threads: {id} CSV bytes differ"
            );
        }
    }
}

#[test]
fn findings_verdicts_are_identical_across_thread_counts() {
    let serial = focal::studies::all_findings_on(&Engine::serial()).unwrap();
    for threads in THREAD_COUNTS {
        let par = focal::studies::all_findings_on(&Engine::with_threads(threads)).unwrap();
        assert_eq!(par.len(), serial.len());
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.id, p.id, "{threads} threads");
            assert_eq!(s, p, "{threads} threads: finding #{} differs", s.id);
        }
    }
}
