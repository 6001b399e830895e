//! The serving layer's central guarantee: response bytes are identical
//! across thread counts, cache on/off, coalescing granularity, and
//! repeated (warm) evaluation — over the full shipped scenario corpus.

use focal_engine::Engine;
use focal_serve::{serve_stream, ServeCore, ServeOptions};
use std::io::{BufReader, Cursor};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/scenarios")
}

/// Two passes over every shipped scenario (pass 2 is all cache hits
/// when caching is on), as one NDJSON request stream.
fn request_stream(passes: usize, include_output: bool) -> String {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("data/scenarios exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 10, "corpus unexpectedly small: {paths:?}");
    let mut out = String::new();
    for pass in 0..passes {
        for (seq, path) in paths.iter().enumerate() {
            let text = std::fs::read_to_string(path).expect("scenario readable");
            out.push_str(&format!(
                "{{\"id\":\"p{pass}-r{seq}\",\"scenario\":\"{}\",\"include_output\":{include_output}}}\n",
                focal_serve::json::escape(&text)
            ));
        }
    }
    out
}

fn serve_with(input: &str, threads: usize, cache: bool) -> String {
    let mut reader = BufReader::new(Cursor::new(input.as_bytes().to_vec()));
    let mut out: Vec<u8> = Vec::new();
    let mut core = ServeCore::new(ServeOptions {
        engine: Engine::with_threads(threads),
        cache,
        dump_dir: None,
        dump_prefix: String::new(),
        git_rev: "pinned".to_string(),
        limits: focal_serve::Limits::default(),
    });
    serve_stream(&mut reader, &mut out, &mut core).expect("in-memory serve cannot fail");
    String::from_utf8(out).expect("responses are UTF-8")
}

#[test]
fn bytes_identical_across_threads_and_cache() {
    // With output the CSV text itself is compared, not just its digest.
    for include_output in [false, true] {
        let input = request_stream(2, include_output);
        let reference = serve_with(&input, 1, true);
        assert!(reference.contains("\"ok\":true"));
        assert!(
            !reference.contains("\"ok\":false"),
            "corpus scenario failed: {}",
            reference
                .lines()
                .find(|l| l.contains("\"ok\":false"))
                .unwrap_or_default()
        );
        assert_eq!(reference.contains("\"output\":"), include_output);
        for (threads, cache) in [(4, true), (1, false), (4, false)] {
            let got = serve_with(&input, threads, cache);
            assert_eq!(
                got, reference,
                "serve bytes diverged at threads={threads} cache={cache} \
                 include_output={include_output}"
            );
        }
    }
}

#[test]
fn warm_pass_bytes_equal_cold_pass_bytes() {
    let input = request_stream(2, true);
    let output = serve_with(&input, 4, true);
    let lines: Vec<&str> = output.lines().collect();
    assert_eq!(lines.len() % 2, 0);
    let (cold, warm) = lines.split_at(lines.len() / 2);
    for (c, w) in cold.iter().zip(warm) {
        // Identical apart from the pass number inside the request id.
        assert_eq!(c.replacen("\"id\":\"p0-", "\"id\":\"p1-", 1), **w);
    }
}

#[test]
fn line_by_line_serving_matches_coalesced_serving() {
    let input = request_stream(1, false);
    let coalesced = serve_with(&input, 2, true);

    let mut core = ServeCore::new(ServeOptions {
        engine: Engine::with_threads(2),
        cache: true,
        dump_dir: None,
        dump_prefix: String::new(),
        git_rev: "pinned".to_string(),
        limits: focal_serve::Limits::default(),
    });
    let mut one_by_one = String::new();
    for (i, line) in input.lines().enumerate() {
        for response in core.handle_lines(&[(i + 1, line.to_string())]) {
            one_by_one.push_str(&response);
            one_by_one.push('\n');
        }
    }
    assert_eq!(coalesced, one_by_one);
}
