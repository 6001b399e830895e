//! The metric names and units the result line carries, in the order of
//! `BENCHMARK.json` (a test keeps the two in step).

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("throughput_rps", "1/s"),
    m("latency_p50_us", "us"),
    m("latency_p90_us", "us"),
    m("peak_rss_mb", "MiB"),
    m("setup_s", "s"),
];

/// Traced run (`--trace 1`). A layer that the workload bypasses reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("serve.proto.parse_us", "us"),
    m("serve.proto.render_us", "us"),
    m("serve.cache.text.lookup_us", "us"),
    m("serve.cache.text.hit_ratio", "ratio"),
    m("serve.cache.digest.lookup_us", "us"),
    m("serve.cache.digest.hit_ratio", "ratio"),
    m("serve.cache.insert_us", "us"),
    m("serve.cache.entries", "count"),
    m("scenario.toml.parse_us", "us"),
    m("scenario.schema.build_us", "us"),
    m("scenario.canonical.canonicalize_us", "us"),
    m("scenario.canonical.digest_us", "us"),
    m("scenario.evaluate.figure_us", "us"),
    m("scenario.evaluate.finding_us", "us"),
    m("scenario.output.encode_us", "us"),
    m("engine.fanout.batch_size", "count"),
    m("engine.fanout.wall_us", "us"),
    m("engine.fanout.efficiency", "ratio"),
    m("serve.service.self_us", "us"),
    m("serve.transport_us", "us"),
    m("loadgen.lag_p99_us", "us"),
    m("suite.figures_ms", "ms"),
    m("suite.findings_ms", "ms"),
    m("suite.robustness_ms", "ms"),
    m("suite.crossovers_ms", "ms"),
    m("suite.defect_sim_ms", "ms"),
    m("suite.scenarios_ms", "ms"),
    m("core.mc.sample_ns", "ns"),
    m("core.mc.summarize_ns", "ns"),
    m("core.mc.speedup_2t", "ratio"),
    m("core.memo.hit_ratio", "ratio"),
    m("trace.untraced_rps", "1/s"),
    m("trace.traced_rps", "1/s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use focal_serve::json::JsonValue;

    fn manifest() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(v: &JsonValue, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let v = manifest();
        assert_eq!(listed(&v, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&v, "per_layer"), ours(PER_LAYER));
    }
}
