//! Soak suite for the `weaverd` compile server: concurrent clients over a
//! Unix socket must get byte-identical artifacts to local single-shot
//! compiles, load must shed with structured `busy` records at the queue
//! bound instead of stalling, a hostile client (malformed frames, the
//! test-only `panic` verb) must only ever kill its own connection, and a
//! drain requested mid-flood must finish everything accepted and return
//! cleanly. The first test also exercises the paged store's group-commit
//! batching: many concurrent compile writers funnel through
//! `Store::put_many` under one engine.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use weaver::engine::jsonl::{JsonObject, JsonValue};
use weaver::engine::server::{
    read_frame, write_frame, ClientStream, ListenAddr, Server, ServerConfig,
};
use weaver::engine::{
    CacheConfig, CompileJob, Engine, EngineConfig, JobOptions, JobSource, Target,
};

fn tdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("weaver-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The 8-fixture suite: mixed frontends (DIMACS CNF, weighted WCNF,
/// max-cut) and mixed targets. The simulator target is deliberately not
/// here — its state-vector sweep is minutes, not milliseconds.
const SUITE: &[(&str, &str, &str)] = &[
    ("tests/fixtures/uf20-01.cnf", "dimacs", "fpqa"),
    ("tests/fixtures/uf20-02.cnf", "dimacs", "fpqa"),
    ("tests/fixtures/uf20-03.cnf", "dimacs", "superconducting"),
    ("tests/fixtures/uf20-04.cnf", "dimacs", "superconducting"),
    ("tests/fixtures/uf20-05.cnf", "dimacs", "fpqa"),
    ("tests/fixtures/sample.wcnf", "dimacs", "fpqa"),
    ("tests/fixtures/triangle.mc", "maxcut", "fpqa"),
    ("tests/fixtures/triangle.mc", "maxcut", "superconducting"),
];

fn compile_request(id: u64, path: &str, frontend: &str, target: &str, emit: bool) -> String {
    JsonObject::new()
        .str("verb", "compile")
        .u64("id", id)
        .str("name", path)
        .str("text", &std::fs::read_to_string(path).unwrap())
        .str("frontend", frontend)
        .str("target", target)
        .bool("emit", emit)
        .finish()
}

/// Pipelines `requests` down one connection and reads exactly one record
/// per request (completion order).
fn roundtrip(addr: &ListenAddr, requests: &[String]) -> Vec<JsonValue> {
    let mut stream = ClientStream::connect(addr).expect("connect");
    for request in requests {
        write_frame(&mut stream, request.as_bytes()).expect("send");
    }
    let mut records = Vec::new();
    while records.len() < requests.len() {
        let frame = read_frame(&mut stream)
            .expect("receive")
            .expect("server closed before all results arrived");
        records.push(JsonValue::parse(std::str::from_utf8(&frame).unwrap()).unwrap());
    }
    records
}

fn start(
    config: ServerConfig,
) -> (
    ListenAddr,
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.serve());
    (addr, flag, handle)
}

#[test]
fn concurrent_clients_match_single_shot_compiles() {
    let dir = tdir("match");
    let (addr, flag, handle) = start(ServerConfig {
        engine: EngineConfig {
            jobs: 4,
            cache: CacheConfig {
                disk_dir: Some(dir.join("cache")),
                ..CacheConfig::default()
            },
            use_cache: true,
        },
        queue_bound: 64,
        panic_verb: false,
        ..ServerConfig::new(ListenAddr::Unix(dir.join("weaverd.sock")))
    });

    let requests: Vec<String> = SUITE
        .iter()
        .enumerate()
        .map(|(id, (path, frontend, target))| {
            compile_request(id as u64, path, frontend, target, true)
        })
        .collect();

    // 4 concurrent clients, each submitting the whole suite: later
    // duplicates land as warm cache hits, and every client must see the
    // same bytes.
    let per_client: Vec<Vec<Option<String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = &addr;
                let requests = &requests;
                scope.spawn(move || {
                    let records = roundtrip(addr, requests);
                    let mut by_id: Vec<Option<String>> = vec![None; requests.len()];
                    for record in records {
                        assert_eq!(record.str_field("kind"), Some("job"), "suite must compile");
                        assert_eq!(record.str_field("status"), Some("ok"));
                        let id = record.get("id").and_then(JsonValue::as_u64).unwrap() as usize;
                        by_id[id] = record.str_field("wqasm").map(str::to_string);
                    }
                    by_id
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Local single-shot reference compiles, same options, fresh engine.
    let reference = Engine::new(EngineConfig {
        jobs: 2,
        cache: CacheConfig::default(),
        use_cache: true,
    });
    let jobs: Vec<CompileJob> = SUITE
        .iter()
        .map(|(path, frontend, target)| CompileJob {
            source: JobSource::Path(PathBuf::from(path)),
            frontend: Some((*frontend).to_string()),
            target: Target::parse(target).unwrap(),
            options: JobOptions::default(),
        })
        .collect();
    let report = reference.run(jobs);
    for result in &report.results {
        let expected = &result.artifact.as_ref().expect("reference compiles").wqasm;
        for (client, by_id) in per_client.iter().enumerate() {
            let served = by_id[result.index]
                .as_deref()
                .expect("every served job carries wqasm when emit=true");
            assert_eq!(
                served, expected,
                "client {client} fixture {} must be byte-identical to single-shot",
                result.index
            );
        }
    }

    // The admin surface shows the warm cache: 32 compile requests over 8
    // distinct keys means hits are guaranteed, and store introspection is
    // wired through.
    let stats = roundtrip(&addr, &[JsonObject::new().str("verb", "stats").finish()]);
    let cache = stats[0].get("cache").expect("stats carries cache tiers");
    let hits = cache
        .get("memory_hits")
        .and_then(JsonValue::as_u64)
        .unwrap()
        + cache.get("disk_hits").and_then(JsonValue::as_u64).unwrap();
    assert!(hits >= 1, "repeat submissions must hit the warm cache");
    let store = stats[0].get("store").expect("stats carries store stats");
    assert!(
        store.get("artifacts").and_then(JsonValue::as_u64).unwrap() >= 8,
        "all distinct artifacts must land in the paged store"
    );
    assert!(
        stats[0]
            .str_field("metrics")
            .unwrap()
            .contains("weaver_server_requests_total"),
        "stats embeds the Prometheus snapshot"
    );

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiny_queue_bound_sheds_load_with_busy_records() {
    let dir = tdir("busy");
    let (addr, flag, handle) = start(ServerConfig {
        engine: EngineConfig {
            jobs: 1,
            cache: CacheConfig::default(),
            // Uncached so every duplicate really occupies the worker.
            use_cache: false,
        },
        queue_bound: 1,
        panic_verb: false,
        ..ServerConfig::new(ListenAddr::Unix(dir.join("weaverd.sock")))
    });

    let (path, frontend, target) = SUITE[0];
    let requests: Vec<String> = (0..16)
        .map(|id| compile_request(id, path, frontend, target, false))
        .collect();
    let records = roundtrip(&addr, &requests);

    let ok = records
        .iter()
        .filter(|r| r.str_field("kind") == Some("job"))
        .count();
    let busy: Vec<&JsonValue> = records
        .iter()
        .filter(|r| r.str_field("kind") == Some("busy"))
        .collect();
    assert_eq!(ok + busy.len(), 16, "every request gets exactly one answer");
    assert!(ok >= 1, "the pool keeps serving under overload");
    assert!(
        !busy.is_empty(),
        "a 16-deep instant flood against bound 1 must shed load"
    );
    for record in &busy {
        assert_eq!(record.str_field("error_kind"), Some("server-busy"));
        assert_eq!(record.get("limit").and_then(JsonValue::as_u64), Some(1));
    }

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_clients_only_kill_their_own_connection() {
    let dir = tdir("hostile");
    let (addr, flag, handle) = start(ServerConfig {
        engine: EngineConfig {
            jobs: 1,
            cache: CacheConfig::default(),
            use_cache: true,
        },
        queue_bound: 8,
        panic_verb: true,
        ..ServerConfig::new(ListenAddr::Unix(dir.join("weaverd.sock")))
    });

    // Well-framed garbage gets a structured malformed error and the
    // connection stays usable.
    {
        let mut stream = ClientStream::connect(&addr).unwrap();
        write_frame(&mut stream, b"this is not json").unwrap();
        let frame = read_frame(&mut stream).unwrap().unwrap();
        let record = JsonValue::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(record.str_field("kind"), Some("error"));
        assert_eq!(record.str_field("error_kind"), Some("malformed"));
        write_frame(
            &mut stream,
            JsonObject::new().str("verb", "ping").finish().as_bytes(),
        )
        .unwrap();
        let frame = read_frame(&mut stream).unwrap().unwrap();
        let record = JsonValue::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(
            record.str_field("kind"),
            Some("pong"),
            "connection survives"
        );
    }

    // A hostile length prefix (1 GiB) violates framing: the server
    // answers with a malformed error and hangs up — but only on *this*
    // connection.
    {
        let mut stream = ClientStream::connect(&addr).unwrap();
        stream.write_all(&(1u32 << 30).to_be_bytes()).unwrap();
        stream.flush().unwrap();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("server hangs up");
        let text = String::from_utf8_lossy(&rest);
        assert!(text.contains("malformed"), "got: {text}");
    }

    // The panic verb kills its handler inside the catch-unwind guard.
    {
        let mut stream = ClientStream::connect(&addr).unwrap();
        write_frame(
            &mut stream,
            JsonObject::new().str("verb", "panic").finish().as_bytes(),
        )
        .unwrap();
        let mut rest = Vec::new();
        stream
            .read_to_end(&mut rest)
            .expect("connection dies quietly");
    }

    // The server is still fully alive: a real compile works, and the
    // panic + malformed counters prove the guards fired.
    let (path, frontend, target) = SUITE[0];
    let records = roundtrip(&addr, &[compile_request(7, path, frontend, target, false)]);
    assert_eq!(records[0].str_field("kind"), Some("job"));
    assert_eq!(records[0].str_field("status"), Some("ok"));

    let stats = roundtrip(&addr, &[JsonObject::new().str("verb", "stats").finish()]);
    let metrics = weaver::obs::metrics::parse_snapshot(stats[0].str_field("metrics").unwrap());
    assert!(
        metrics
            .get("weaver_server_panics_total")
            .copied()
            .unwrap_or(0.0)
            >= 1.0,
        "panic guard must count"
    );
    assert!(
        metrics
            .get("weaver_server_malformed_total")
            .copied()
            .unwrap_or(0.0)
            >= 2.0,
        "malformed frames must count"
    );

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_mid_flood_finishes_accepted_work() {
    let dir = tdir("drain");
    let (addr, flag, handle) = start(ServerConfig {
        engine: EngineConfig {
            jobs: 2,
            cache: CacheConfig {
                disk_dir: Some(dir.join("cache")),
                ..CacheConfig::default()
            },
            use_cache: true,
        },
        queue_bound: 64,
        panic_verb: false,
        ..ServerConfig::new(ListenAddr::Unix(dir.join("weaverd.sock")))
    });

    // 3 clients flood while the main thread pulls the plug mid-flight.
    // Every response that does arrive must be well-formed: a finished job,
    // a busy shed, or a structured shutting-down refusal.
    let flood = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|client| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut stream = match ClientStream::connect(addr) {
                        Ok(s) => s,
                        // The accept loop may already be gone.
                        Err(_) => return (0usize, 0usize),
                    };
                    let mut sent = 0usize;
                    for id in 0..12u64 {
                        let (path, frontend, target) = SUITE[(client + id as usize) % SUITE.len()];
                        let request = compile_request(id, path, frontend, target, false);
                        if write_frame(&mut stream, request.as_bytes()).is_err() {
                            break;
                        }
                        sent += 1;
                    }
                    let mut answered = 0usize;
                    while answered < sent {
                        match read_frame(&mut stream) {
                            Ok(Some(frame)) => {
                                let record =
                                    JsonValue::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
                                let kind = record.str_field("kind");
                                assert!(
                                    kind == Some("job")
                                        || kind == Some("busy")
                                        || kind == Some("error"),
                                    "unexpected record kind {kind:?}"
                                );
                                if kind == Some("error") {
                                    assert_eq!(
                                        record.str_field("error_kind"),
                                        Some("shutting-down")
                                    );
                                }
                                answered += 1;
                            }
                            // Drain closed the connection: requests the
                            // reader never picked up get no response.
                            Ok(None) | Err(_) => break,
                        }
                    }
                    (sent, answered)
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(120));
        flag.store(true, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });

    handle
        .join()
        .unwrap()
        .expect("drain mid-flood returns cleanly");
    let answered: usize = flood.iter().map(|(_, a)| *a).sum();
    assert!(
        answered >= 1,
        "some in-flight work completes through the drain"
    );

    // The drained store reopens consistent: group commits from concurrent
    // writers must not tear it.
    let store_dir = dir.join("cache");
    if store_dir.join(weaver::engine::store::STORE_FILE).exists() {
        let mut store = weaver::engine::store::Store::open(
            &store_dir,
            weaver::engine::store::StoreTuning::default(),
        )
        .expect("store reopens after drain");
        let verify = store.verify().expect("verification scan");
        assert!(verify.consistent(), "store consistent after drain");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_tcp_pings_do_not_stall_per_frame() {
    let (addr, flag, handle) = start(ServerConfig {
        engine: EngineConfig {
            jobs: 1,
            cache: CacheConfig::default(),
            use_cache: true,
        },
        queue_bound: 8,
        panic_verb: false,
        ..ServerConfig::new(ListenAddr::Tcp("127.0.0.1:0".to_string()))
    });

    // One request outstanding at a time on one connection: each frame is
    // a length write then a payload write, which Nagle plus delayed ACK
    // would hold for about 40 ms apiece (2 s for 50) without TCP_NODELAY.
    let mut stream = ClientStream::connect(&addr).expect("connect over tcp");
    let ping = JsonObject::new().str("verb", "ping").finish();
    let started = std::time::Instant::now();
    for _ in 0..50 {
        write_frame(&mut stream, ping.as_bytes()).expect("send ping");
        let frame = read_frame(&mut stream)
            .expect("receive pong")
            .expect("server closed mid-ping");
        let record = JsonValue::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(record.str_field("kind"), Some("pong"));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "50 sequential TCP pings took {elapsed:?}"
    );

    drop(stream);
    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap().expect("clean drain");
}
