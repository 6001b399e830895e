//! Overload-safety and chaos-injection end-to-end tests: deadlines,
//! backpressure, graceful drain, rejection bytes, and the invariant
//! that every response surviving an injected fault is byte-identical
//! to the fault-free run.

use focal_engine::{Engine, FaultPlan};
use focal_serve::{
    serve_stream, serve_tcp, ChaosReader, ChaosWriter, Limits, ServeCore, ServeOptions, TcpOptions,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// `engine` carrying the plan parsed from `spec`.
fn armed(engine: Engine, spec: &str) -> Engine {
    engine.with_faults(Box::leak(Box::new(FaultPlan::parse(spec).expect("plan"))))
}

/// Options for a core armed with the plan parsed from `spec`.
fn armed_opts(spec: &str) -> ServeOptions {
    ServeOptions {
        engine: armed(Engine::serial(), spec),
        ..opts_with(Limits::default())
    }
}

fn opts_with(limits: Limits) -> ServeOptions {
    ServeOptions {
        engine: Engine::serial(),
        cache: true,
        dump_dir: None,
        dump_prefix: String::new(),
        git_rev: "testrev".to_string(),
        limits,
    }
}

fn scenario_line(id: &str) -> String {
    let scenario = "[scenario]\nid = \"fig3-serve\"\nkind = \"figure\"\nstudy = \"multicore\"\n";
    format!(
        "{{\"id\": \"{id}\", \"scenario\": \"{}\"}}",
        focal_serve::json::escape(scenario)
    )
}

/// Launches serve_tcp on an ephemeral port and returns (join handle,
/// resolved address).
fn spawn_server(
    tcp: TcpOptions,
    opts: ServeOptions,
    tag: &str,
) -> (std::thread::JoinHandle<std::io::Result<()>>, String) {
    let port_file =
        std::env::temp_dir().join(format!("focal-overload-{tag}-{}-port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let tcp = TcpOptions {
        port_file: Some(port_file.clone()),
        ..tcp
    };
    let handle = std::thread::spawn(move || serve_tcp(&tcp, &opts));
    let mut addr = String::new();
    for _ in 0..300 {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if s.trim().parse::<std::net::SocketAddr>().is_ok() {
                addr = s.trim().to_string();
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!addr.is_empty(), "server never wrote its port file");
    let _ = std::fs::remove_file(&port_file);
    (handle, addr)
}

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (reader, stream)
}

fn ask(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writer.write_all(line.as_bytes()).expect("send");
    writer.write_all(b"\n").expect("send newline");
    writer.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    assert!(!response.is_empty(), "server dropped the connection");
    response.trim_end().to_string()
}

#[test]
fn over_capacity_connection_gets_exact_rejection_bytes() {
    let tcp = TcpOptions {
        addr: "127.0.0.1:0".to_string(),
        port_file: None,
        max_conns: 1,
        max_accepts: 0,
    };
    let limits = Limits {
        drain_deadline: Duration::from_millis(2000),
        ..Limits::default()
    };
    let (server, addr) = spawn_server(tcp, opts_with(limits), "reject");

    // First client is admitted (proved by a served ping).
    let (mut r1, mut w1) = connect(&addr);
    let pong = ask(&mut r1, &mut w1, "{\"ping\": true, \"id\": \"p\"}");
    assert!(pong.contains("\"ping\":{"), "{pong}");

    // Second client is over the cap: exactly one structured rejected
    // line, then close. The bytes are pinned — clients key on them.
    let (mut r2, _w2) = connect(&addr);
    let mut line = String::new();
    r2.read_line(&mut line).expect("rejection line");
    assert_eq!(
        line.trim_end(),
        "{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"rejected\",\"line\":0,\
         \"message\":\"connection rejected: server at max-conns capacity\"}}"
    );
    let mut rest = String::new();
    assert_eq!(
        r2.read_line(&mut rest).expect("eof"),
        0,
        "socket stays open"
    );

    // Shut the server down from the admitted connection.
    let ack = ask(&mut r1, &mut w1, "{\"ctl\": \"shutdown\"}");
    assert!(ack.contains("\"ctl\":\"shutdown\""), "{ack}");
    let mut notice = String::new();
    r1.read_line(&mut notice).expect("shutdown notice");
    assert!(notice.contains("\"kind\":\"shutdown\""), "{notice}");
    server.join().expect("server thread").expect("serve_tcp");
}

#[test]
fn idle_connection_times_out_with_a_structured_line() {
    let tcp = TcpOptions {
        addr: "127.0.0.1:0".to_string(),
        port_file: None,
        max_conns: 0,
        max_accepts: 1,
    };
    let limits = Limits {
        idle_timeout: Some(Duration::from_millis(300)),
        drain_deadline: Duration::from_millis(2000),
        ..Limits::default()
    };
    let (server, addr) = spawn_server(tcp, opts_with(limits), "idle");

    let (mut reader, mut writer) = connect(&addr);
    // Slow-loris: dribble a partial line; partial bytes must NOT
    // reset the idle clock.
    writer.write_all(b"{\"id\": \"never").expect("partial send");
    writer.flush().expect("flush");
    let started = Instant::now();
    let mut line = String::new();
    reader.read_line(&mut line).expect("timeout line");
    assert!(line.contains("\"kind\":\"timeout\""), "{line}");
    assert!(line.contains("\"line\":0"), "{line}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout took {:?}",
        started.elapsed()
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);
    server.join().expect("server thread").expect("serve_tcp");
}

#[test]
fn ctl_shutdown_drains_every_connection_within_the_deadline() {
    let tcp = TcpOptions {
        addr: "127.0.0.1:0".to_string(),
        port_file: None,
        max_conns: 0,
        max_accepts: 0,
    };
    let limits = Limits {
        drain_deadline: Duration::from_millis(3000),
        ..Limits::default()
    };
    let (server, addr) = spawn_server(tcp, opts_with(limits), "drain");

    let (mut ra, mut wa) = connect(&addr);
    let (mut rb, mut wb) = connect(&addr);
    // Both connections demonstrably served.
    assert!(ask(&mut ra, &mut wa, &scenario_line("a1")).contains("\"ok\":true"));
    assert!(ask(&mut rb, &mut wb, &scenario_line("b1")).contains("\"ok\":true"));

    let started = Instant::now();
    let ack = ask(&mut ra, &mut wa, "{\"ctl\": \"shutdown\", \"id\": \"c\"}");
    assert_eq!(
        ack,
        "{\"id\":\"c\",\"ok\":true,\"ctl\":\"shutdown\",\"draining\":true}"
    );
    // The initiating connection gets its shutdown notice...
    let mut notice_a = String::new();
    ra.read_line(&mut notice_a).expect("notice a");
    assert!(notice_a.contains("\"kind\":\"shutdown\""), "{notice_a}");
    // ...and so does the idle bystander, without asking for anything.
    let mut notice_b = String::new();
    rb.read_line(&mut notice_b).expect("notice b");
    assert!(notice_b.contains("\"kind\":\"shutdown\""), "{notice_b}");
    let mut eof = String::new();
    assert_eq!(rb.read_line(&mut eof).expect("eof b"), 0);

    server.join().expect("server thread").expect("serve_tcp");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "drain took {:?}",
        started.elapsed()
    );
}

#[test]
fn ping_reports_server_introspection() {
    let mut core = ServeCore::new(opts_with(Limits::default()));
    let first = core.handle_lines(&[(1, "{\"ping\": true, \"id\": \"p0\"}".to_string())]);
    let parsed = focal_serve::json::JsonValue::parse(&first[0]).expect("pong parses");
    let ping = parsed.get("ping").expect("ping object");
    let get_u64 = |v: &focal_serve::json::JsonValue, key: &str| match v.get(key) {
        Some(focal_serve::json::JsonValue::Num(n)) => *n,
        _ => -1.0,
    };
    assert_eq!(
        ping.get("version")
            .and_then(focal_serve::json::JsonValue::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert_eq!(
        ping.get("git_rev")
            .and_then(focal_serve::json::JsonValue::as_str),
        Some("testrev")
    );
    assert_eq!(get_u64(ping, "conn"), 0.0);
    assert_eq!(get_u64(ping, "requests"), 0.0);
    let cache = ping.get("cache").expect("cache object");
    assert_eq!(get_u64(cache, "entries"), 0.0);

    // After one scenario, the gauges move.
    let _ = core.handle_lines(&[(2, scenario_line("q1"))]);
    let after = core.handle_lines(&[(3, "{\"ping\": true}".to_string())]);
    let parsed = focal_serve::json::JsonValue::parse(&after[0]).expect("pong parses");
    let ping = parsed.get("ping").expect("ping object");
    assert_eq!(get_u64(ping, "requests"), 1.0);
    let cache = ping.get("cache").expect("cache object");
    assert_eq!(get_u64(cache, "entries"), 1.0);
}

#[test]
fn admission_bound_sheds_excess_requests_in_order() {
    let limits = Limits {
        max_queue: 2,
        ..Limits::default()
    };
    let mut core = ServeCore::new(opts_with(limits));
    let lines: Vec<(usize, String)> = (1..=5)
        .map(|i| (i, scenario_line(&format!("q{i}"))))
        .collect();
    let responses = core.handle_lines(&lines);
    assert_eq!(responses.len(), 5);
    for (i, response) in responses.iter().enumerate() {
        if i < 2 {
            assert!(response.contains("\"ok\":true"), "slot {i}: {response}");
        } else {
            assert!(
                response.contains("\"kind\":\"overloaded\""),
                "slot {i}: {response}"
            );
            assert!(response.contains(&format!("\"id\":\"q{}\"", i + 1)));
        }
    }
    // The next batch admits afresh: the bound is per batch, not a
    // lifetime budget.
    let again = core.handle_lines(&[(9, scenario_line("q9"))]);
    assert!(again[0].contains("\"ok\":true"), "{}", again[0]);
}

#[test]
fn injected_latency_trips_the_request_deadline() {
    let limits = Limits {
        request_deadline: Some(Duration::from_millis(40)),
        ..Limits::default()
    };
    let mut core = ServeCore::new(ServeOptions {
        engine: armed(Engine::serial(), "latency@serve:80ms"),
        ..opts_with(limits)
    });
    let responses = core.handle_lines(&[(1, scenario_line("slow"))]);
    assert!(
        responses[0].contains("\"kind\":\"timeout\""),
        "{}",
        responses[0]
    );
    assert!(responses[0].contains("\"id\":\"slow\""));
    // Without the fault the same request clears the same deadline.
    let ok = ServeCore::new(opts_with(limits)).handle_lines(&[(2, scenario_line("fast"))]);
    assert!(ok[0].contains("\"ok\":true"), "{}", ok[0]);
}

#[test]
fn short_reads_and_writes_leave_response_bytes_identical() {
    let input = format!(
        "{}\n{}\n{}\n",
        scenario_line("q1"),
        scenario_line("q2"),
        "{\"bad\": 1}"
    );
    let baseline = {
        let mut reader = BufReader::new(std::io::Cursor::new(input.clone().into_bytes()));
        let mut out: Vec<u8> = Vec::new();
        let mut core = ServeCore::new(opts_with(Limits::default()));
        serve_stream(&mut reader, &mut out, &mut core).expect("baseline serve");
        out
    };
    for spec in ["shortread@serve:conn0", "shortwrite@serve"] {
        let opts = armed_opts(spec);
        let mut reader = BufReader::new(ChaosReader::new(
            std::io::Cursor::new(input.clone().into_bytes()),
            &opts.engine,
            0,
        ));
        let mut sink: Vec<u8> = Vec::new();
        let engine = opts.engine;
        let mut core = ServeCore::new(opts);
        {
            let mut writer = ChaosWriter::new(&mut sink, &engine, 0);
            serve_stream(&mut reader, &mut writer, &mut core).expect("chaos serve");
        }
        assert_eq!(
            String::from_utf8_lossy(&sink),
            String::from_utf8_lossy(&baseline),
            "bytes diverged under {spec}"
        );
    }
}

#[test]
fn injected_panic_poisons_one_request_and_spares_the_rest() {
    let lines: Vec<(usize, String)> = (1..=5)
        .map(|i| (i, scenario_line(&format!("q{i}"))))
        .collect();
    // Serial, and fanned out across workers that evaluate and encode.
    for engine in [Engine::serial(), Engine::with_threads(4)] {
        let opts = |engine| ServeOptions {
            engine,
            ..opts_with(Limits::default())
        };
        let baseline = ServeCore::new(opts(engine)).handle_lines(&lines);

        let faulted = ServeCore::new(opts(armed(engine, "panic@serve:3"))).handle_lines(&lines);

        assert_eq!(faulted.len(), baseline.len());
        for (i, (b, f)) in baseline.iter().zip(&faulted).enumerate() {
            if i == 3 {
                assert!(f.contains("\"kind\":\"evaluation\""), "slot 3: {f}");
                assert!(f.contains("injected fault"), "slot 3: {f}");
            } else {
                assert_eq!(b, f, "surviving slot {i} diverged from the fault-free run");
            }
        }

        // The wrong connection is untouched.
        let other_conn =
            ServeCore::new(opts(armed(engine, "panic@serve:conn7:3"))).handle_lines(&lines);
        assert_eq!(other_conn, baseline);
    }
}

#[test]
fn faulted_request_does_not_poison_the_cache() {
    let mut clean = ServeCore::new(opts_with(Limits::default()));

    // Cold evaluation populates the cache.
    let cold = clean.handle_lines(&[(1, scenario_line("cold"))]);
    assert!(cold[0].contains("\"ok\":true"));
    assert_eq!(clean.cache_entries(), 1);

    // On a core whose engine carries the plan, ordinal 1 is the second
    // scenario slot: the injected panic must produce an error response
    // and leave every cache alone.
    let mut core = ServeCore::new(armed_opts("panic@serve:1"));
    assert_eq!(core.handle_lines(&[(1, scenario_line("cold"))]), cold);
    let faulted = core.handle_lines(&[(2, scenario_line("hurt"))]);
    assert!(faulted[0].contains("injected fault"), "{}", faulted[0]);
    assert_eq!(core.cache_entries(), 0, "faulted eval must not be cached");
    assert_eq!(clean.cache_entries(), 1, "faulted eval must not be cached");

    // The identical request now recomputes (or hits the clean entry)
    // and its bytes match the cold response exactly, id aside.
    let warm = core.handle_lines(&[(3, scenario_line("cold"))]);
    assert_eq!(warm[0], cold[0], "cache returned poisoned bytes");
    let warm = clean.handle_lines(&[(3, scenario_line("cold"))]);
    assert_eq!(warm[0], cold[0], "cache returned poisoned bytes");
}

/// The `cache.hits` gauge of `core`'s ping response.
fn ping_cache_hits(core: &mut ServeCore) -> f64 {
    let pong = core.handle_lines(&[(1, "{\"ping\": true}".to_string())]);
    let parsed = focal_serve::json::JsonValue::parse(&pong[0]).expect("pong parses");
    let ping = parsed.get("ping").and_then(|p| p.get("cache"));
    match ping.and_then(|c| c.get("hits")) {
        Some(focal_serve::json::JsonValue::Num(n)) => *n,
        other => panic!("no cache.hits gauge: {other:?}"),
    }
}

#[test]
fn an_armed_core_leaves_an_unarmed_core_beside_it_caching() {
    let lines: Vec<(usize, String)> = (1..=3)
        .map(|i| (i, scenario_line(&format!("q{i}"))))
        .collect();
    std::thread::scope(|scope| {
        let faulted = scope.spawn(|| {
            let mut core = ServeCore::new(armed_opts("panic@serve:conn0:1"));
            for round in 0..10 {
                // Request ordinal 1 is the second slot of the first round.
                let responses = core.handle_lines(&lines);
                for (slot, response) in responses.iter().enumerate() {
                    let injected = round == 0 && slot == 1;
                    assert_eq!(response.contains("injected fault"), injected, "{response}");
                }
                assert_eq!(core.cache_entries(), 0, "an armed core never caches");
            }
        });
        let mut core = ServeCore::new(opts_with(Limits::default()));
        let cold = core.handle_lines(&lines);
        for round in 1..=10 {
            assert_eq!(core.handle_lines(&lines), cold, "round {round}");
            assert!(cold.iter().all(|r| r.contains("\"ok\":true")), "{cold:?}");
        }
        assert_eq!(core.cache_entries(), 1);
        assert_eq!(ping_cache_hits(&mut core), 30.0);
        faulted.join().expect("armed core thread");
    });
}
