//! The traced mirror of `ServeCore::handle_lines`.
//!
//! It replays one batch through the service's documented order, using
//! only the serving and scenario crates' public functions, and records a
//! span around every call: `parse_line` → `lookup_text` → TOML parse →
//! schema build → canonicalize → digest → `lookup_digest` → engine
//! fan-out of `evaluate` → output encode → `insert` → `render_ok`.
//!
//! The service compiles a scenario in one call; the mirror runs the
//! three compile stages separately so each gets its own span, and on a
//! miss compiles once more (`mirror.recompile`) to obtain the
//! `CompiledScenario` the engine evaluates. That extra call is mirror
//! overhead, not a layer, and shows up in the reported tracing overhead.
//!
//! Faithfulness is checked, not assumed: the caller compares every
//! batch's bytes with `ServeCore::handle_lines` on the same batch.
//! Robustness scenarios, `ping` and `ctl` lines are outside the
//! mirrored path (the benchmark never sends them) and render as a
//! marker line that cannot match.

use crate::span::{Recorder, NO_REQ};
use focal_engine::Engine;
use focal_scenario::{canonicalize, CompiledScenario, ScenarioKind};
use focal_serve::cache::{CachedEval, ServeCache};
use focal_serve::proto::{
    parse_line, render_err, render_ok, ErrorKind, Provenance, Query, Request, RequestError,
};

/// Marker rendered for lines the mirror does not model.
pub const UNMIRRORED: &str = "<unmirrored>";

/// Span names, shared with the metric table.
pub mod names {
    pub const SERVICE: &str = "serve.service";
    pub const PARSE: &str = "serve.proto.parse";
    pub const RENDER: &str = "serve.proto.render";
    pub const TEXT_LOOKUP: &str = "serve.cache.text.lookup";
    pub const DIGEST_LOOKUP: &str = "serve.cache.digest.lookup";
    pub const INSERT: &str = "serve.cache.insert";
    pub const TOML: &str = "scenario.toml.parse";
    pub const SCHEMA: &str = "scenario.schema.build";
    pub const CANONICALIZE: &str = "scenario.canonical.canonicalize";
    pub const DIGEST: &str = "scenario.canonical.digest";
    pub const RECOMPILE: &str = "mirror.recompile";
    pub const FANOUT: &str = "engine.fanout";
    pub const EVAL_FIGURE: &str = "scenario.evaluate.figure";
    pub const EVAL_FINDING: &str = "scenario.evaluate.finding";
    pub const ENCODE: &str = "scenario.output.encode";
}

enum Slot {
    Ready(String),
    Pending {
        id: String,
        line: usize,
        include_output: bool,
        queue_idx: usize,
        req: u64,
    },
}

struct Entry {
    digest: u64,
    compiled: CompiledScenario,
    text: String,
    req: u64,
}

/// Fan-out sizes and busy time, for the engine metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct FanStats {
    /// Fan-out calls.
    pub calls: u64,
    /// Items fanned out over all calls.
    pub items: u64,
}

/// Mirror state: one cache, like one connection's `ServeCore`.
pub struct Mirror {
    engine: Engine,
    git_rev: String,
    cache: ServeCache,
    next_req: u64,
    /// Fan-out counters.
    pub fan: FanStats,
}

impl Mirror {
    /// A mirror with an empty cache.
    #[must_use]
    pub fn new(engine: Engine, git_rev: &str) -> Mirror {
        Mirror {
            engine,
            git_rev: git_rev.to_string(),
            cache: ServeCache::new(),
            next_req: 0,
            fan: FanStats::default(),
        }
    }

    /// The mirror's cache (for hit ratios and entry counts).
    #[must_use]
    pub fn cache(&self) -> &ServeCache {
        &self.cache
    }

    /// Handles one batch of `(line_no, text)` lines, recording spans.
    pub fn handle(&mut self, lines: &[(usize, String)], rec: &mut Recorder) -> Vec<String> {
        let batch = rec.begin(names::SERVICE, None, NO_REQ);
        let mut slots = Vec::new();
        let mut queue: Vec<Entry> = Vec::new();
        for (line_no, text) in lines {
            if text.trim().is_empty() {
                continue;
            }
            let req_no = self.next_req;
            self.next_req += 1;
            let span = rec.begin(names::PARSE, Some(batch), req_no);
            let parsed = parse_line(text, *line_no);
            rec.end(span);
            for parsed in parsed {
                let slot = match parsed {
                    Err(e) => Slot::Ready(render_err(&e)),
                    Ok(Query::Scenario(req)) => {
                        self.resolve(req, *line_no, req_no, batch, rec, &mut queue)
                    }
                    Ok(_) => Slot::Ready(UNMIRRORED.to_string()),
                };
                slots.push(slot);
            }
        }
        let results = self.evaluate(&queue, batch, rec);
        let out = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(line) => line,
                Slot::Pending {
                    id,
                    line,
                    include_output,
                    queue_idx,
                    req,
                } => match &results[queue_idx] {
                    Ok(eval) => {
                        let request = Request {
                            id,
                            scenario: String::new(),
                            include_output,
                        };
                        render(&self.git_rev, &request, eval, batch, req, rec)
                    }
                    Err(message) => render_err(&RequestError {
                        id: Some(id),
                        kind: ErrorKind::Evaluation,
                        line,
                        message: message.clone(),
                        key: None,
                    }),
                },
            })
            .collect();
        rec.end(batch);
        out
    }

    fn resolve(
        &mut self,
        req: Request,
        line_no: usize,
        req_no: u64,
        batch: usize,
        rec: &mut Recorder,
        queue: &mut Vec<Entry>,
    ) -> Slot {
        let span = rec.begin(names::TEXT_LOOKUP, Some(batch), req_no);
        let hit = self.cache.lookup_text(&req.scenario);
        rec.end(span);
        if let Some(eval) = hit {
            return Slot::Ready(render(&self.git_rev, &req, eval, batch, req_no, rec));
        }
        let label = format!("request:{line_no}");
        let bad_request = |e: focal_scenario::ScenarioError, id: String| {
            Slot::Ready(render_err(&RequestError {
                id: Some(id),
                kind: ErrorKind::BadRequest,
                line: line_no,
                message: format!("invalid scenario: {e}"),
                key: e.key.clone(),
            }))
        };
        let span = rec.begin(names::TOML, Some(batch), req_no);
        let doc = focal_scenario::toml::parse(&req.scenario, &label);
        rec.end(span);
        let doc = match doc {
            Ok(doc) => doc,
            Err(e) => return bad_request(e, req.id),
        };
        let span = rec.begin(names::SCHEMA, Some(batch), req_no);
        let def = focal_scenario::schema::from_document(&doc, &label);
        rec.end(span);
        let def = match def {
            Ok(def) => def,
            Err(e) => return bad_request(e, req.id),
        };
        let span = rec.begin(names::CANONICALIZE, Some(batch), req_no);
        let canonical = canonicalize(&def);
        rec.end(span);
        let canonical = match canonical {
            Ok(c) => c,
            Err(e) => return bad_request(e, req.id),
        };
        let span = rec.begin(names::DIGEST, Some(batch), req_no);
        let digest = canonical.digest();
        rec.end(span);

        let span = rec.begin(names::DIGEST_LOOKUP, Some(batch), req_no);
        let hit = self.cache.lookup_digest(&req.scenario, digest);
        rec.end(span);
        if let Some(eval) = hit {
            return Slot::Ready(render(&self.git_rev, &req, eval, batch, req_no, rec));
        }
        let queue_idx = match queue.iter().position(|e| e.digest == digest) {
            Some(idx) => idx,
            None => {
                let span = rec.begin(names::RECOMPILE, Some(batch), req_no);
                let compiled = CompiledScenario::compile(&req.scenario, &label);
                rec.end(span);
                let compiled = match compiled {
                    Ok(c) => c,
                    Err(e) => return bad_request(e, req.id),
                };
                queue.push(Entry {
                    digest,
                    compiled,
                    text: req.scenario,
                    req: req_no,
                });
                queue.len() - 1
            }
        };
        Slot::Pending {
            id: req.id,
            line: line_no,
            include_output: req.include_output,
            queue_idx,
            req: req_no,
        }
    }

    /// Fans the miss queue out on the engine, then encodes and caches
    /// each result, as the service does.
    fn evaluate(
        &mut self,
        queue: &[Entry],
        batch: usize,
        rec: &mut Recorder,
    ) -> Vec<Result<CachedEval, String>> {
        if queue.is_empty() {
            return Vec::new();
        }
        if queue
            .iter()
            .any(|e| e.compiled.canonical().kind == ScenarioKind::Robustness)
        {
            return queue.iter().map(|_| Err(UNMIRRORED.to_string())).collect();
        }
        let clock = rec.clock();
        let fan = rec.begin(names::FANOUT, Some(batch), NO_REQ);
        let outcomes = self.engine.try_par_map_isolated(0, queue, |entry| {
            let start = clock.now();
            let out = entry.compiled.evaluate();
            (out, start, clock.now())
        });
        rec.end(fan);
        self.fan.calls += 1;
        self.fan.items += queue.len() as u64;
        let outcomes = match outcomes {
            Ok(outcomes) => outcomes,
            Err(ce) => {
                let message = format!("evaluation panicked: {}", ce.payload);
                return queue.iter().map(|_| Err(message.clone())).collect();
            }
        };
        queue
            .iter()
            .zip(outcomes)
            .map(|(entry, outcome)| {
                let output = match outcome {
                    Ok((out, start, end)) => {
                        let name = match entry.compiled.canonical().kind {
                            ScenarioKind::Figure => names::EVAL_FIGURE,
                            _ => names::EVAL_FINDING,
                        };
                        rec.push(name, Some(fan), entry.req, start, end);
                        out.map_err(|e| format!("evaluation failed: {e}"))
                    }
                    Err(ce) => Err(format!("evaluation panicked: {}", ce.payload)),
                }?;
                let span = rec.begin(names::ENCODE, Some(batch), entry.req);
                let bytes = output.to_bytes();
                let eval = CachedEval {
                    scenario_id: entry.compiled.id().to_string(),
                    kind: entry.compiled.canonical().kind.as_str().to_string(),
                    digest_entry: focal_scenario::digest_entry(&bytes),
                    output_text: String::from_utf8_lossy(&bytes).into_owned(),
                    scenario_digest: entry.digest,
                    seed: entry.compiled.mc_seed().unwrap_or(0),
                };
                rec.end(span);
                let span = rec.begin(names::INSERT, Some(batch), entry.req);
                self.cache.insert(&entry.text, eval.clone());
                rec.end(span);
                Ok(eval)
            })
            .collect()
    }
}

/// `render_ok` for one request, as the service renders a hit or a fresh
/// evaluation.
fn render(
    git_rev: &str,
    req: &Request,
    eval: &CachedEval,
    batch: usize,
    req_no: u64,
    rec: &mut Recorder,
) -> String {
    let span = rec.begin(names::RENDER, Some(batch), req_no);
    let provenance = Provenance {
        scenario_digest: eval.scenario_digest,
        seed: eval.seed,
        git_rev: git_rev.to_string(),
    };
    let line = render_ok(
        &req.id,
        &eval.scenario_id,
        &eval.kind,
        &eval.digest_entry,
        &provenance,
        req.include_output.then_some(eval.output_text.as_str()),
    );
    rec.end(span);
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use focal_serve::{Limits, ServeCore, ServeOptions};

    fn core(engine: Engine) -> ServeCore {
        ServeCore::new(ServeOptions {
            engine,
            cache: true,
            dump_dir: None,
            dump_prefix: String::new(),
            git_rev: "rev".to_string(),
            limits: Limits::default(),
        })
    }

    #[test]
    fn mirror_bytes_equal_handle_lines_on_hits_misses_and_errors() {
        let inputs = gen::hit_respell(9, 30, 300, 0);
        let mut lines: Vec<(usize, String)> = Vec::new();
        for (i, r) in inputs.warm.iter().chain(&inputs.closed).enumerate() {
            lines.push((i + 1, inputs.line(r)));
        }
        lines.insert(5, (900, "{not json".to_string()));
        lines.insert(
            9,
            (
                901,
                "{\"id\":\"x\",\"scenario\":\"[scenario]\\nbogus\"}".to_string(),
            ),
        );
        let engine = Engine::with_threads(2);
        let mut real = core(engine);
        let mut mirror = Mirror::new(engine, "rev");
        let mut rec = Recorder::new();
        for batch in lines.chunks(16) {
            assert_eq!(mirror.handle(batch, &mut rec), real.handle_lines(batch));
        }
        assert!(mirror.cache().digest_stats().hits > 0);
        assert!(mirror.cache().text_stats().hits > 0);
        assert!(rec.spans().iter().any(|s| s.name == names::EVAL_FIGURE));
    }
}
