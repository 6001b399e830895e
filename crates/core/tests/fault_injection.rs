//! Fault injection against the Monte-Carlo sampler.
//!
//! Every test arms its own engine with a plan, so the tests run in
//! parallel with each other and with unarmed evaluations in the same
//! process.

use focal_core::{DesignPoint, E2oRange, ModelError, MonteCarloNcf, Scenario, MC_CHUNK_SAMPLES};
use focal_engine::{Engine, FaultPlan};

/// `engine` carrying the plan parsed from `spec`.
fn armed(engine: Engine, spec: &str) -> Engine {
    engine.with_faults(Box::leak(Box::new(FaultPlan::parse(spec).unwrap())))
}

#[test]
fn injected_nan_trips_the_finiteness_tripwire_identically_at_every_thread_count() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 7).unwrap();
    let samples = MC_CHUNK_SAMPLES + 500;

    let errors: Vec<ModelError> = [1, 2, 7]
        .iter()
        .map(|&threads| {
            mc.run_on(
                &armed(Engine::with_threads(threads), "nan@mc:1017"),
                &x,
                &y,
                Scenario::FixedWork,
                samples,
            )
            .unwrap_err()
        })
        .collect();

    // `ModelError`'s derived equality is useless here (NaN != NaN), so
    // compare the rendered diagnostics — the part a user would repro from.
    for err in &errors {
        assert_eq!(
            errors.first().map(ToString::to_string),
            Some(err.to_string()),
            "error not thread-invariant"
        );
        match err {
            ModelError::NonFiniteOutput { context, value } => {
                assert!(context.contains("sample 1017"), "{context}");
                assert!(context.contains("chunk 0"), "{context}");
                assert!(value.is_nan());
            }
            other => panic!("expected NonFiniteOutput, got {other}"),
        }
    }

    // Unarmed, the same experiment succeeds: injection leaves no residue
    // in the sampler.
    assert!(mc
        .run_on(&Engine::serial(), &x, &y, Scenario::FixedWork, samples)
        .is_ok());
}

#[test]
fn nan_injection_outside_the_drawn_range_is_inert() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 7).unwrap();

    let engine = armed(Engine::serial(), "nan@mc:999999");
    let faulted = mc.run_on(&engine, &x, &y, Scenario::FixedWork, 1000);
    let clean = mc
        .run_on(&Engine::serial(), &x, &y, Scenario::FixedWork, 1000)
        .unwrap();

    // A plan whose index is never drawn must not perturb the samples.
    assert_eq!(faulted.unwrap(), clean);
}

#[test]
fn injected_chunk_panic_surfaces_as_chunk_poisoned() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 40).unwrap();
    let samples = 3 * MC_CHUNK_SAMPLES;

    let engine = armed(Engine::with_threads(4), "panic@mc-test:2").at_site("mc-test");
    let err = mc
        .run_on(&engine, &x, &y, Scenario::FixedWork, samples)
        .unwrap_err();

    match err {
        ModelError::ChunkPoisoned {
            chunk_index,
            chunk_seed,
            payload,
        } => {
            assert_eq!(chunk_index, 2);
            assert_eq!(chunk_seed, 42); // base seed 40 + chunk 2
            assert!(payload.contains("panic@mc-test:2"), "{payload}");
        }
        other => panic!("expected ChunkPoisoned, got {other}"),
    }
}
