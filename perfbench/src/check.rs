//! Correctness checks for serving responses, run outside the timed
//! window. Failures are counted, never fatal, so one bad response costs
//! one request and the run still reports.

use crate::gen::{Inputs, Req};
use focal_engine::Engine;
use focal_scenario::CompiledScenario;
use focal_serve::json::JsonValue;

/// The suite-format digest entry of every scenario the requests in
/// `sent` use, evaluated in-process with `CompiledScenario::evaluate` on
/// its base spelling (every re-spelling was asserted to share its
/// canonical digest). Scenarios not sent, or that fail to evaluate, map
/// to `None`.
#[must_use]
pub fn reference_digests(inputs: &Inputs, sent: &[&[Req]], engine: &Engine) -> Vec<Option<String>> {
    let mut needed = vec![false; inputs.digests.len()];
    for r in sent.iter().flat_map(|reqs| reqs.iter()) {
        needed[r.scenario] = true;
    }
    let wanted: Vec<usize> = (0..needed.len()).filter(|&i| needed[i]).collect();
    let evaluated = engine.try_par_map_isolated(0, &wanted, |&i| {
        let compiled = CompiledScenario::compile(&inputs.base_text(i), "reference").ok()?;
        compiled.evaluate().ok().map(|out| out.digest_entry())
    });
    let mut out = vec![None; needed.len()];
    if let Ok(slots) = evaluated {
        for (i, slot) in wanted.into_iter().zip(slots) {
            out[i] = slot.ok().flatten();
        }
    }
    out
}

/// Checks one response line against its request: `ok`, the echoed id,
/// the `digest_entry` and the provenance digest, and, when asked for,
/// that the embedded output hashes to the same entry.
#[must_use]
pub fn response_ok(line: &str, req: &Req, inputs: &Inputs, reference: &[Option<String>]) -> bool {
    let Ok(v) = JsonValue::parse(line) else {
        return false;
    };
    let Some(expected) = reference.get(req.scenario).and_then(Option::as_ref) else {
        return false;
    };
    let str_field = |key: &str| v.get(key).and_then(JsonValue::as_str);
    let digest_hex = format!("{:016x}", inputs.digests[req.scenario]);
    let provenance_ok = v
        .get("provenance")
        .and_then(|p| p.get("scenario_digest"))
        .and_then(JsonValue::as_str)
        == Some(digest_hex.as_str());
    let output_ok = match (req.include_output, str_field("output")) {
        (false, None) => true,
        (true, Some(text)) => focal_scenario::digest_entry(text.as_bytes()) == *expected,
        _ => false,
    };
    v.get("ok").and_then(JsonValue::as_bool) == Some(true)
        && str_field("id") == Some(inputs.id(req).as_str())
        && str_field("digest") == Some(expected.as_str())
        && provenance_ok
        && output_ok
}

/// Failed requests of one phase: each sent request whose response is
/// missing or wrong, in order.
#[must_use]
pub fn count_failures(
    reqs: &[Req],
    responses: &[String],
    inputs: &Inputs,
    reference: &[Option<String>],
) -> Vec<bool> {
    reqs.iter()
        .enumerate()
        .map(|(i, req)| {
            responses
                .get(i)
                .map_or(true, |line| !response_ok(line, req, inputs, reference))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use focal_serve::{Limits, ServeCore, ServeOptions};

    #[test]
    fn real_responses_pass_and_tampered_ones_fail() {
        let inputs = gen::hit_respell(4, 20, 60, 0);
        let engine = Engine::with_threads(2);
        let reference = reference_digests(&inputs, &[&inputs.warm, &inputs.closed], &engine);
        assert!(reference.iter().all(Option::is_some));
        let mut core = ServeCore::new(ServeOptions {
            engine,
            cache: true,
            dump_dir: None,
            dump_prefix: String::new(),
            git_rev: "rev".to_string(),
            limits: Limits::default(),
        });
        let reqs: Vec<Req> = inputs.warm.iter().chain(&inputs.closed).cloned().collect();
        let lines: Vec<(usize, String)> = reqs
            .iter()
            .enumerate()
            .map(|(i, r)| (i + 1, inputs.line(r)))
            .collect();
        let responses = core.handle_lines(&lines);
        let failed = count_failures(&reqs, &responses, &inputs, &reference);
        assert!(failed.iter().all(|f| !f));

        // A response for the wrong request, a wrong digest, and a missing
        // tail all count.
        let mut bad = responses.clone();
        bad.swap(0, 1);
        bad[2] = bad[2].replace("fnv64=", "fnv64=0");
        bad.truncate(bad.len() - 3);
        let failed = count_failures(&reqs, &bad, &inputs, &reference);
        assert_eq!(failed.iter().filter(|f| **f).count(), 6);
    }
}
