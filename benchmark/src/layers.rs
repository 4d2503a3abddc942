//! The traced run (`--trace 1`): each workload's path replayed in-process
//! through the public calls of each layer, timed from this file. The
//! program itself carries no spans for this.
//!
//! Every replayed job walks the whole life of a `weaverd` request (decode,
//! parse, key, miss lookup, lowering passes, print, checker, store write,
//! record encoding, framing), then is served again as a memory hit and,
//! after the store is reopened, as a disk hit. A layer the workload's own
//! path does not use is still timed on the workload's data, so every
//! per-layer metric is a measured cost; coverage counts only the layers on
//! the workload's path, against the same operations run untraced:
//!
//! * `sweep-cold`: a job is parse, key, passes, print and checker, against
//!   `Engine::run` of that one job with the cache off;
//! * `serve-hot`: a request is decode, parse, key, memory lookup, encoding
//!   and framing, against client-side `weaverd` latency.
//!
//! Neither workload fills the daemon's queue, so no request on their paths
//! can be shed with a `busy` record; an admission probe (see [`probe`])
//! loads the queue bound on purpose so that the pool layer is measured.

use crate::daemon::{scan_reply, Client, Daemon};
use crate::inputs::{slice_index, Item, Kind, SLICES};
use crate::report::{num_map, Report};
use crate::serve::{self, HotSet, Loop};
use crate::stats::median;
use crate::verify::{check_artifact, check_result};
use crate::Ctx;
use std::collections::BTreeMap;
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use weaver_core::backend::{CompileOutput, CompiledArtifact};
use weaver_core::cache::{CacheHandle, Digest};
use weaver_core::codegen::{compile_formula_with_coloring_cached, CodegenOptions};
use weaver_core::coloring::color_clauses;
use weaver_core::compress::compression_beneficial;
use weaver_core::plan::SiteLayout;
use weaver_core::{FrontendRegistry, Metrics, Weaver, Workload};
use weaver_engine::jsonl::JsonValue;
use weaver_engine::server::write_frame;
use weaver_engine::{
    job_record_fields, Artifact, ArtifactCache, CacheConfig, CacheOutcome, CompileJob, Engine,
    EngineConfig, JobOptions, JobResult, JobSource, PassTiming, StageTimings, Target,
};
use weaver_sat::qaoa::{self, QaoaParams};
use weaver_superconducting::{transpile, CouplingMap, DeviceSpec};

/// Instance streams of the traced sweep and of the admission probe.
const STREAM_TRACE: u64 = 11;
const STREAM_PROBE: u64 = 12;
/// Queue bound of the probe's daemon, and the requests it writes at once.
const PROBE_BOUND: usize = 2;
const PROBE_BURST: usize = 64;

/// Layers on each operation's path, for coverage.
const JOB_PATH: &[&str] = &[
    "frontend.parse",
    "key.hash",
    "pass.site-layout",
    "pass.clause-coloring",
    "pass.emit-wqasm",
    "pass.qaoa-lower",
    "pass.sabre-transpile",
    "backend.simulator",
    "assemble.metrics",
    "print.wqasm",
    "check",
    "assemble.release",
];
const HIT_PATH: &[&str] = &[
    "server.decode",
    "frontend.parse",
    "key.hash",
    "cache.lookup",
    "server.encode",
    "server.frame",
];

/// The cache tier a replayed hit reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Memory,
    Disk,
}

/// Per-slice samples of layer times (ms) and counts.
#[derive(Default)]
struct Layers {
    samples: BTreeMap<(String, usize), Vec<f64>>,
}

impl Layers {
    fn add(&mut self, layer: &str, slice: usize, value: f64) {
        self.samples
            .entry((layer.to_string(), slice))
            .or_default()
            .push(value);
    }

    fn time<T>(&mut self, layer: &str, slice: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.add(layer, slice, t.elapsed().as_secs_f64() * 1e3);
        v
    }

    fn median(&self, layer: &str, slice: usize) -> Option<f64> {
        self.samples
            .get(&(layer.to_string(), slice))
            .map(|v| median(v))
    }

    /// The per-operation value of `layer` over the workload's slices,
    /// which both workloads request in equal shares (one batch per slice
    /// per round; each client cycles through the slices): the mean of the
    /// per-slice medians.
    fn mix(&self, layer: &str) -> f64 {
        let v: Vec<f64> = (0..SLICES.len())
            .filter_map(|s| self.median(layer, s))
            .collect();
        crate::stats::mean(&v)
    }

    fn at(&self, layer: &str, slice: &str) -> f64 {
        self.median(layer, slice_index(slice)).unwrap_or(0.0)
    }

    /// Sum of the per-slice medians of `path`'s layers.
    fn path_sum(&self, path: &[&str], slice: usize) -> f64 {
        path.iter().filter_map(|l| self.median(l, slice)).sum()
    }
}

/// The replay's own cache tiers and socket.
struct Env {
    memory: ArtifactCache,
    disk_dir: PathBuf,
    disk: Option<ArtifactCache>,
    /// Keys written to `disk` since it was last opened.
    unread: Vec<(usize, Vec<u8>)>,
    tx: UnixStream,
    eagle: CouplingMap,
    /// Whether compiles share the memo store, as a caching engine does.
    memo: bool,
    /// WAL fsyncs and artifacts written through `disk`, over every open.
    fsyncs: u64,
    written: u64,
}

impl Env {
    fn open_disk(dir: &Path) -> Result<ArtifactCache, String> {
        ArtifactCache::new(CacheConfig {
            disk_dir: Some(dir.to_path_buf()),
            ..CacheConfig::default()
        })
        .map_err(|e| format!("open replay store: {e}"))
    }

    fn core(&self) -> Option<&CacheHandle> {
        self.memo.then(|| self.memory.core_handle())
    }
}

/// Runs `body` with an [`Env`] whose socket is drained by a reader
/// thread, so framing costs what writing to a live client costs.
fn with_env<T>(
    store: &Path,
    memo: bool,
    body: impl FnOnce(&mut Env) -> Result<T, String>,
) -> Result<T, String> {
    let (tx, mut rx) = UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?;
    std::thread::scope(|scope| {
        let drain = scope.spawn(move || {
            let mut buf = vec![0u8; 1 << 20];
            while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
        });
        let result = (|| {
            let mut env = Env {
                memory: ArtifactCache::new(CacheConfig::default()).map_err(|e| e.to_string())?,
                disk_dir: store.to_path_buf(),
                disk: Some(Env::open_disk(store)?),
                unread: Vec::new(),
                tx,
                eagle: DeviceSpec::eagle().coupling(),
                memo,
                fsyncs: 0,
                written: 0,
            };
            body(&mut env)
        })();
        drain
            .join()
            .map_err(|_| "drain thread panicked".to_string())?;
        result
    })
}

/// What the server decodes from a compile frame (mirrors its request
/// handling: text, target, frontend, name and the `check` option).
fn decode(frame: &[u8]) -> Result<(u64, CompileJob), String> {
    let request = JsonValue::parse(std::str::from_utf8(frame).map_err(|e| e.to_string())?)?;
    let id = request
        .get("id")
        .and_then(JsonValue::as_u64)
        .ok_or("no id")?;
    let text = request.str_field("text").ok_or("no text")?;
    let target = Target::parse(request.str_field("target").unwrap_or("fpqa"))?;
    let mut options = JobOptions::default();
    if let Some(check) = request.get("check").and_then(JsonValue::as_bool) {
        options.check = check;
    }
    let job = CompileJob {
        source: JobSource::Inline {
            name: request.str_field("name").unwrap_or("request").to_string(),
            text: text.to_string(),
        },
        frontend: request.str_field("frontend").map(str::to_string),
        target,
        options,
    };
    Ok((id, job))
}

/// Frontend resolution and parse, as the engine loads inline text.
fn parse(job: &CompileJob) -> Result<Workload, String> {
    let JobSource::Inline { text, .. } = &job.source else {
        return Err("replay jobs are inline".to_string());
    };
    let front = FrontendRegistry::global().resolve(job.frontend.as_deref(), None, text)?;
    front.parse(text).map_err(|e| e.to_string())
}

/// The compile layers of one job, through each pass's public entry
/// point where it has one. The simulator's last pass has none, so its
/// backend is one layer and its own pass split is recorded as reported
/// by the program.
fn compile(
    layers: &mut Layers,
    env: &Env,
    si: usize,
    job: &CompileJob,
    workload: &Workload,
) -> Result<Artifact, String> {
    let Workload::MaxSat(formula) = workload else {
        return Err("benchmark workloads are formulas".to_string());
    };
    let options = CodegenOptions {
        compression: job.options.compression,
        parallel_shuttling: job.options.parallel_shuttling,
        dsatur: job.options.dsatur,
        qaoa: QaoaParams::single(job.options.gamma, job.options.beta),
        measure: true,
        ..CodegenOptions::default()
    };
    let weaver = Weaver::new()
        .with_fpqa_params(job.options.fpqa_params())
        .with_options(options);
    let core = env.core();
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut pass = |layers: &mut Layers, name: &str, ms: f64, steps: u64| {
        layers.add(&format!("pass.{name}.steps"), si, steps as f64);
        passes.push(PassTiming {
            name: name.to_string(),
            seconds: ms / 1e3,
            steps,
        });
    };
    let output = match SLICES[si].kind {
        Kind::Fpqa => {
            let params = &weaver.fpqa_params;
            let mut opts = weaver.options.clone();
            let t = Instant::now();
            opts.layout = SiteLayout::for_params(params);
            if opts.compression && !compression_beneficial(params, opts.layout.home_spacing) {
                opts.compression = false;
            }
            layers.add("pass.site-layout", si, t.elapsed().as_secs_f64() * 1e3);
            pass(layers, "site-layout", 0.0, 0);
            // Job options keep DSatur on, which is `color_clauses`.
            let coloring = layers.time("pass.clause-coloring", si, || color_clauses(formula));
            pass(layers, "clause-coloring", 0.0, 0);
            let compiled = layers.time("pass.emit-wqasm", si, || {
                compile_formula_with_coloring_cached(formula, params, &opts, coloring, core)
            });
            pass(layers, "emit-wqasm", 0.0, compiled.steps);
            layers.time("assemble.metrics", si, || {
                let metrics = Metrics::for_schedule(
                    &compiled.schedule,
                    params,
                    formula.num_vars(),
                    start.elapsed().as_secs_f64(),
                    compiled.steps,
                );
                CompileOutput {
                    backend: "fpqa".to_string(),
                    artifact: CompiledArtifact::Fpqa(compiled),
                    metrics,
                    passes: Vec::new(),
                }
            })
        }
        Kind::ScEagle => {
            let circuit = layers.time("pass.qaoa-lower", si, || {
                qaoa::build_circuit(formula, &weaver.options.qaoa, weaver.options.measure)
            });
            pass(layers, "qaoa-lower", 0.0, 0);
            let routed = layers
                .time("pass.sabre-transpile", si, || {
                    transpile(&circuit, &env.eagle, &weaver.superconducting_params)
                })
                .map_err(|e| e.to_string())?;
            pass(layers, "sabre-transpile", 0.0, routed.steps);
            layers.time("assemble.metrics", si, || {
                let metrics = Metrics::for_transpiled(&routed, start.elapsed().as_secs_f64());
                CompileOutput {
                    backend: "sc:eagle".to_string(),
                    artifact: CompiledArtifact::Superconducting {
                        circuit: routed.circuit,
                        swap_count: routed.swap_count,
                    },
                    metrics,
                    passes: Vec::new(),
                }
            })
        }
        Kind::Sim => {
            let out = layers
                .time("backend.simulator", si, || {
                    weaver.compile_workload_cached("simulator", workload, core)
                })
                .map_err(|e| e.message)?;
            for p in &out.passes {
                layers.add(&format!("program.pass.{}", p.name), si, p.seconds * 1e3);
                pass(layers, p.name, p.seconds * 1e3, p.steps);
            }
            out
        }
    };
    let wqasm = layers.time("print.wqasm", si, || output.artifact.print_wqasm());
    layers.add("print.bytes", si, wqasm.len() as f64);
    let report = if job.options.check {
        layers.time("check", si, || {
            weaver.verify_workload(&output, workload, core)
        })
    } else {
        None
    };
    let artifact = Artifact {
        wqasm,
        swap_count: output.artifact.swap_count(),
        num_colors: output.artifact.num_colors(),
        metrics: output.metrics.clone(),
        passes,
        check_passed: report.as_ref().map(|r| r.passed()),
        check_errors: report
            .map(|r| r.errors.iter().map(|e| e.to_string()).collect())
            .unwrap_or_default(),
    };
    // Freeing the compiled program, schedule and circuit is part of every
    // compile and not small at 250 variables.
    layers.time("assemble.release", si, || drop(output));
    Ok(artifact)
}

/// Record encoding and framing, as the server answers an `emit` request.
fn respond(
    layers: &mut Layers,
    env: &mut Env,
    si: usize,
    id: u64,
    result: &JobResult,
) -> Result<(), String> {
    let artifact = result.artifact.as_ref().map_err(|e| e.to_string())?;
    let record = layers.time("server.encode", si, || {
        job_record_fields(result)
            .u64("id", id)
            .str("wqasm", &artifact.wqasm)
            .finish()
    });
    layers.add("server.record_bytes", si, record.len() as f64);
    layers
        .time("server.frame", si, || {
            write_frame(&mut env.tx, record.as_bytes())
        })
        .map_err(|e| format!("frame: {e}"))
}

/// The engine's result for a served job, as a worker hands it to the
/// server to encode.
fn result(
    job: &CompileJob,
    key: Digest,
    cache: CacheOutcome,
    artifact: Arc<Artifact>,
) -> JobResult {
    JobResult {
        index: 0,
        name: job.name(),
        target: job.target.clone(),
        key: key.to_hex(),
        cache,
        timings: StageTimings::default(),
        artifact: Ok(artifact),
    }
}

/// One traced job: its whole request life. Returns the artifact and the
/// traced walls of the job (parse to checker) and of the memory-hit
/// request.
struct Traced {
    artifact: Arc<Artifact>,
    job_ms: f64,
    hit_ms: f64,
}

fn replay(layers: &mut Layers, env: &mut Env, item: &Item, id: u64) -> Result<Traced, String> {
    let si = item.slice;
    let mut frame = Vec::new();
    item.request().render(id, &mut frame);

    // A miss, as the daemon serves it.
    let (id, job) = layers.time("server.decode", si, || decode(&frame))?;
    let job_start = Instant::now();
    let workload = layers.time("frontend.parse", si, || parse(&job))?;
    let key = layers.time("key.hash", si, || job.artifact_key(&workload));
    let lookup_start = Instant::now();
    let untimed = Instant::now();
    layers.add("frontend.bytes", si, item.dimacs.len() as f64);
    layers.add("key.bytes", si, workload.canonical_bytes().len() as f64);
    let untimed = untimed.elapsed();
    let disk = env.disk.as_ref().ok_or("replay store is closed")?;
    if disk.lookup(&key).is_some() {
        return Err(format!("{}: replay store already holds the job", item.name));
    }
    let lookup_ms = (lookup_start.elapsed() - untimed).as_secs_f64() * 1e3;
    layers.add("cache.miss-lookup", si, lookup_ms);
    let artifact = Arc::new(compile(layers, env, si, &job, &workload)?);
    let job_ms = job_start.elapsed().as_secs_f64() * 1e3 - lookup_ms;
    layers.time("store.put", si, || disk.store(key, artifact.clone()));
    env.written += 1;
    respond(
        layers,
        env,
        si,
        id,
        &result(&job, key, CacheOutcome::Miss, artifact.clone()),
    )?;
    env.unread.push((si, frame.clone()));

    // The memory tier on its own, then a memory hit.
    layers.time("cache.store", si, || {
        env.memory.store(key, artifact.clone())
    });
    let hit_ms = hit(layers, env, si, &frame, Tier::Memory)?;
    Ok(Traced {
        artifact,
        job_ms,
        hit_ms,
    })
}

/// A memory or disk hit of an already stored job; returns its traced
/// wall. A disk hit reads through the reopened store.
fn hit(
    layers: &mut Layers,
    env: &mut Env,
    si: usize,
    frame: &[u8],
    tier: Tier,
) -> Result<f64, String> {
    let start = Instant::now();
    let (id, job) = layers.time("server.decode", si, || decode(frame))?;
    let workload = layers.time("frontend.parse", si, || parse(&job))?;
    let key = layers.time("key.hash", si, || job.artifact_key(&workload));
    let (cache, layer, want) = match tier {
        Tier::Disk => (
            env.disk.as_ref().ok_or("replay store is closed")?,
            "store.get",
            CacheOutcome::DiskHit,
        ),
        Tier::Memory => (&env.memory, "cache.lookup", CacheOutcome::MemoryHit),
    };
    let found = layers.time(layer, si, || cache.lookup(&key));
    let Some((artifact, outcome)) = found else {
        return Err(format!("replay {tier:?} hit missed"));
    };
    if outcome != want {
        return Err(format!(
            "replay {tier:?} hit was served as {}",
            outcome.name()
        ));
    }
    respond(layers, env, si, id, &result(&job, key, outcome, artifact))?;
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

/// Closes and reopens the replay store, then serves every job written
/// since the last reopen as a disk hit; returns `(slice, traced wall)`.
fn reopen(layers: &mut Layers, env: &mut Env) -> Result<Vec<(usize, f64)>, String> {
    if let Some(stats) = env.disk.take().and_then(|d| d.store_stats()) {
        env.fsyncs += stats.wal_fsyncs;
    }
    let t = Instant::now();
    env.disk = Some(Env::open_disk(&env.disk_dir)?);
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    for s in 0..SLICES.len() {
        // Opening is per store, not per slice; every slice sees it.
        layers.add("store.open", s, open_ms);
    }
    let unread = std::mem::take(&mut env.unread);
    let mut walls = Vec::new();
    for (si, frame) in unread {
        walls.push((si, hit(layers, env, si, &frame, Tier::Disk)?));
    }
    Ok(walls)
}

/// Per-slice untraced and traced walls of one operation kind.
#[derive(Default)]
struct Walls {
    untraced: BTreeMap<usize, Vec<f64>>,
    traced: BTreeMap<usize, Vec<f64>>,
}

impl Walls {
    fn add(&mut self, si: usize, untraced: Option<f64>, traced: Option<f64>) {
        if let Some(u) = untraced {
            self.untraced.entry(si).or_default().push(u);
        }
        if let Some(t) = traced {
            self.traced.entry(si).or_default().push(t);
        }
    }

    fn median(map: &BTreeMap<usize, Vec<f64>>, si: usize) -> f64 {
        map.get(&si).map_or(0.0, |v| median(v))
    }
}

/// The coverage metrics: `(kind walls, kind's layer path)` per operation
/// kind of the workload, which it mixes in equal shares.
fn coverage(layers: &Layers, kinds: &[(&Walls, Vec<&str>)], queue_depth: f64, report: &mut Report) {
    let mut covered = 0.0;
    let mut untraced = 0.0;
    let mut traced = 0.0;
    let mut per_slice: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut unattributed = BTreeMap::new();
    for (walls, path) in kinds {
        for (&si, u) in &walls.untraced {
            if !walls.traced.contains_key(&si) {
                continue;
            }
            let (sum, u, t) = (
                layers.path_sum(path, si),
                median(u),
                Walls::median(&walls.traced, si),
            );
            covered += sum;
            untraced += u;
            traced += t;
            let e = per_slice.entry(si).or_default();
            e.0 += sum;
            e.1 += u;
            *unattributed.entry(SLICES[si].name).or_insert(0.0) += u - sum;
        }
    }
    let slice_cov = |name: &str| {
        per_slice
            .get(&slice_index(name))
            .map_or(0.0, |(c, u)| c / u)
    };
    report.metric("layer.coverage", covered / untraced, "ratio");
    report.metric("fpqa_250.layer.coverage", slice_cov("fpqa_250"), "ratio");
    report.metric(
        "sc_eagle_100.layer.coverage",
        slice_cov("sc_eagle_100"),
        "ratio",
    );
    report.metric("trace.overhead_ratio", traced / untraced, "ratio");
    report.info(
        "coverage_by_slice",
        num_map(per_slice.iter().map(|(s, (c, u))| (SLICES[*s].name, c / u))),
    );
    report.info(
        "unattributed_ms_by_slice",
        num_map(unattributed.iter().map(|(k, v)| (*k, *v))),
    );
    let shortfall = if covered / untraced >= 0.95 {
        "none: layers account for at least 95% of untraced wall time".to_string()
    } else if queue_depth > 0.0 {
        format!(
            "layers account for {:.1}% of untraced wall time; the largest gap is queue wait (a mean of {queue_depth:.2} requests waited for the daemon's single worker), the rest thread hand-offs and socket transfer",
            100.0 * covered / untraced
        )
    } else {
        format!(
            "layers account for {:.1}% of untraced wall time; the rest is time between the timed calls",
            100.0 * covered / untraced
        )
    };
    report.info(
        "coverage_shortfall",
        format!("\"{}\"", weaver_engine::jsonl::escape(&shortfall)),
    );
}

/// Every per-layer metric, in output order.
fn emit_layers(layers: &Layers, extra: &Counters, report: &mut Report) {
    report.metric("frontend.parse_ms", layers.mix("frontend.parse"), "ms");
    report.metric("frontend.bytes", layers.mix("frontend.bytes"), "bytes");
    report.metric("key.hash_ms", layers.mix("key.hash"), "ms");
    report.metric("key.bytes", layers.mix("key.bytes"), "bytes");
    report.metric("cache.lookup_ms", layers.mix("cache.lookup"), "ms");
    report.metric(
        "cache.miss_lookup_ms",
        layers.mix("cache.miss-lookup"),
        "ms",
    );
    report.metric("cache.store_ms", layers.mix("cache.store"), "ms");
    report.metric("cache.hit_ratio", extra.hit_ratio, "ratio");
    report.metric("cache.evictions", extra.evictions, "count");
    report.metric("store.open_ms", layers.mix("store.open"), "ms");
    report.metric("store.get_ms", layers.mix("store.get"), "ms");
    report.metric("store.put_ms", layers.mix("store.put"), "ms");
    report.metric(
        "store.fsyncs_per_artifact",
        extra.fsyncs_per_artifact,
        "ratio",
    );
    report.metric("pool.queue_depth", extra.queue_depth, "count");
    report.metric("pool.busy_records", extra.busy, "count");
    for (pass, slice) in [
        ("site-layout", "fpqa_250"),
        ("clause-coloring", "fpqa_250"),
        ("emit-wqasm", "fpqa_250"),
        ("qaoa-lower", "sc_eagle_100"),
        ("sabre-transpile", "sc_eagle_100"),
    ] {
        report.metric(
            format!("pass.{pass}_ms"),
            layers.at(&format!("pass.{pass}"), slice),
            "ms",
        );
    }
    // The simulator's last pass has no public entry point: these are the
    // program's own timings of its passes, inside `backend.simulator_ms`.
    for pass in ["nativize", "statevector", "ideal-eps"] {
        report.metric(
            format!("pass.{pass}_ms"),
            layers.at(&format!("program.pass.{pass}"), "sim_14"),
            "ms",
        );
    }
    for (pass, slice) in [
        ("emit-wqasm", "fpqa_250"),
        ("sabre-transpile", "sc_eagle_100"),
        ("nativize", "sim_14"),
        ("statevector", "sim_14"),
        ("ideal-eps", "sim_14"),
    ] {
        report.metric(
            format!("pass.{pass}.steps"),
            layers.at(&format!("pass.{pass}.steps"), slice),
            "count",
        );
    }
    report.metric(
        "backend.simulator_ms",
        layers.at("backend.simulator", "sim_14"),
        "ms",
    );
    report.metric(
        "assemble.metrics_ms",
        layers.at("assemble.metrics", "fpqa_250"),
        "ms",
    );
    report.metric(
        "assemble.release_ms",
        layers.at("assemble.release", "fpqa_250"),
        "ms",
    );
    report.metric("print.wqasm_ms", layers.mix("print.wqasm"), "ms");
    report.metric("print.bytes", layers.mix("print.bytes"), "bytes");
    report.metric(
        "print.fpqa_250_ms",
        layers.at("print.wqasm", "fpqa_250"),
        "ms",
    );
    report.metric(
        "print.sc_eagle_100_ms",
        layers.at("print.wqasm", "sc_eagle_100"),
        "ms",
    );
    report.metric("check.ms", layers.at("check", "fpqa_250"), "ms");
    report.metric("server.decode_ms", layers.mix("server.decode"), "ms");
    report.metric("server.encode_ms", layers.mix("server.encode"), "ms");
    report.metric("server.frame_ms", layers.mix("server.frame"), "ms");
    report.metric(
        "server.record_bytes",
        layers.mix("server.record_bytes"),
        "bytes",
    );
}

/// Counters taken from a daemon rather than the replay.
#[derive(Default)]
struct Counters {
    hit_ratio: f64,
    evictions: f64,
    fsyncs_per_artifact: f64,
    queue_depth: f64,
    busy: f64,
}

fn trace_sweep(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut jobs = Walls::default();
    let engine = Engine::new(EngineConfig {
        jobs: 1,
        use_cache: false,
        ..EngineConfig::default()
    });
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let store = ctx.work.join("replay-store");
    let fsyncs_per_artifact = with_env(&store, false, |env| {
        // Fresh instances, the slices in turn, each slice at least once;
        // each job untraced through `Engine::run`, then traced.
        for n in 0u64.. {
            let si = (n % SLICES.len() as u64) as usize;
            if si == 0 && n > 0 && Instant::now() >= deadline {
                break;
            }
            let item = Item::new(ctx.seed, STREAM_TRACE, si, n / SLICES.len() as u64);
            let t = Instant::now();
            let batch = engine.run(vec![item.job()]);
            let untraced = t.elapsed().as_secs_f64() * 1e3;
            let Some(served) = check_result(&item, &batch.results[0], &mut report) else {
                continue;
            };
            let traced = replay(&mut layers, env, &item, n)?;
            report.check(if served.wqasm == traced.artifact.wqasm {
                Ok(())
            } else {
                Err(format!(
                    "{}: replayed wQasm differs from Engine::run",
                    item.name
                ))
            });
            jobs.add(si, Some(untraced), Some(traced.job_ms));
            if si + 1 == SLICES.len() {
                reopen(&mut layers, env)?;
            }
        }
        reopen(&mut layers, env)?;
        Ok(env.fsyncs as f64 / env.written.max(1) as f64)
    })?;
    coverage(&layers, &[(&jobs, JOB_PATH.to_vec())], 0.0, &mut report);
    // The sweep has no daemon: its cache and pool counters are the probe's.
    let counters = Counters {
        fsyncs_per_artifact,
        ..probe(ctx, &mut report)?
    };
    report.info(
        "from_probe",
        "\"cache.hit_ratio, cache.evictions, pool.queue_depth and pool.busy_records: sweep-cold has no daemon, so these are the admission probe's\"".to_string(),
    );
    emit_layers(&layers, &counters, &mut report);
    report.info(
        "samples",
        num_map([(
            "jobs",
            jobs.untraced.values().map(Vec::len).sum::<usize>() as f64,
        )]),
    );
    Ok(report)
}

/// Counters of a daemon phase from its `stats` before and after, the
/// queue depths sampled during it and the `busy` records it received.
fn daemon_counters(depths: &[f64], busy: u64, before: &JsonValue, after: &JsonValue) -> Counters {
    let n = |v: &JsonValue, path: &[&str]| {
        path.iter()
            .try_fold(v, |v, k| v.get(k))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let delta = |path: &[&str]| n(after, path) - n(before, path);
    let hits = delta(&["cache", "memory_hits"]) + delta(&["cache", "disk_hits"]);
    let lookups = hits + delta(&["cache", "misses"]);
    let written = delta(&["store", "artifacts"]);
    Counters {
        hit_ratio: if lookups > 0.0 { hits / lookups } else { 0.0 },
        evictions: delta(&["cache", "evictions"]),
        fsyncs_per_artifact: if written > 0.0 {
            delta(&["store", "wal_fsyncs"]) / written
        } else {
            0.0
        },
        queue_depth: crate::stats::mean(depths),
        busy: busy as f64,
    }
}

/// The admission probe. Neither workload fills the daemon's queue, so it
/// loads the bound on purpose: a `weaverd` with a queue bound of
/// [`PROBE_BOUND`] compiles one small instance per target, then receives
/// [`PROBE_BURST`] requests for them on one connection without waiting
/// for replies. Requests the queue cannot hold are shed with `busy`
/// records, which here are the expected outcome and not failures; every
/// other reply must be a memory hit with the compiled wQasm. The queue
/// depth is sampled through the `stats` verb after each reply; the cache
/// counters cover the whole probe, compiles included.
fn probe(ctx: &Ctx, report: &mut Report) -> Result<Counters, String> {
    let items: Vec<Item> = ["fpqa_20", "sc_eagle_20", "sim_14"]
        .iter()
        .map(|name| Item::new(ctx.seed, STREAM_PROBE, slice_index(name), 0))
        .collect();
    let requests: Vec<_> = items.iter().map(Item::request).collect();
    let (daemon, _) = Daemon::spawn(
        &ctx.weaverd,
        &ctx.work.join("probe.sock"),
        &ctx.work.join("probe-store"),
        serve::DAEMON_WORKERS,
        Some(PROBE_BOUND),
    )
    .map_err(|e| format!("start probe weaverd: {e}"))?;
    let stats = |d: &Daemon| d.stats().map_err(|e| format!("probe stats: {e}"));
    let empty = stats(&daemon)?;
    let expected = serve::send_all(&daemon.sock, 1, &requests)?
        .iter()
        .zip(&items)
        .map(
            |(reply, item)| match (reply.str_field("status"), reply.str_field("wqasm")) {
                (Some("ok"), Some(wqasm)) => Ok(weaver_engine::jsonl::escape(wqasm).into_bytes()),
                _ => Err(format!("probe compile of {} failed: {reply:?}", item.name)),
            },
        )
        .collect::<Result<Vec<_>, String>>()?;
    let payloads: Vec<Vec<u8>> = (0..PROBE_BURST)
        .map(|k| {
            let mut out = Vec::new();
            requests[k % items.len()].render(k as u64, &mut out);
            out
        })
        .collect();
    let mut sampler = Client::connect(&daemon.sock).map_err(|e| format!("probe connect: {e}"))?;
    let mut depths = Vec::new();
    let mut busy = 0;
    let mut sampled = Ok(());
    Client::connect(&daemon.sock)
        .and_then(|mut c| {
            c.pipeline(&payloads, |reply| {
                if reply.starts_with(b"{\"kind\":\"busy\"") {
                    busy += 1;
                } else {
                    report.check(scan_reply(reply).and_then(|r| {
                        let want = expected.get(r.id as usize % items.len());
                        if r.cache != b"memory_hit" || want.map(Vec::as_slice) != Some(r.wqasm) {
                            return Err(format!("probe request {} was not the stored hit", r.id));
                        }
                        Ok(())
                    }));
                }
                match sampler.verb("stats") {
                    Ok(v) => depths.push(
                        v.get("queue_depth")
                            .and_then(JsonValue::as_f64)
                            .unwrap_or(0.0),
                    ),
                    Err(e) => sampled = Err(e),
                }
            })
        })
        .and(sampled)
        .map_err(|e| format!("probe burst: {e}"))?;
    let after = stats(&daemon)?;
    daemon
        .shutdown()
        .map_err(|e| format!("stop probe weaverd: {e}"))?;
    Ok(daemon_counters(&depths, busy, &empty, &after))
}

fn trace_hot(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let hot = HotSet::new(ctx.seed);
    let store = ctx.work.join("replay-store");
    let daemon_store = ctx.work.join("hot-store");
    let mut requests = Walls::default();
    with_env(&store, true, |env| {
        // Every hot job's whole life once; the artifacts are the expected
        // daemon output.
        let mut expected = Vec::new();
        for (i, item) in hot.items.iter().enumerate() {
            let traced = replay(&mut layers, env, item, i as u64)?;
            report.check(
                check_artifact(item.slice(), &traced.artifact)
                    .map_err(|e| format!("{}: {e}", item.name)),
            );
            expected.push(weaver_engine::jsonl::escape(&traced.artifact.wqasm).into_bytes());
            requests.add(item.slice, None, Some(traced.hit_ms));
        }
        reopen(&mut layers, env)?;

        // Half the time: the workload itself, untraced, with the queue
        // depth sampled.
        let (daemon, _) = Daemon::spawn(
            &ctx.weaverd,
            &ctx.work.join("d.sock"),
            &daemon_store,
            serve::DAEMON_WORKERS,
            None,
        )
        .map_err(|e| format!("start weaverd: {e}"))?;
        let empty = daemon.stats().map_err(|e| e.to_string())?;
        serve::send_all(&daemon.sock, ctx.nproc, &hot.requests)?;
        let before = daemon.stats().map_err(|e| e.to_string())?;
        let mut phase = Loop {
            sock: &daemon.sock,
            clients: ctx.nproc,
            seconds: ctx.seconds / 2.0,
            requests: &hot.requests,
            slices: &hot.slices,
            schedule: &|c, k| hot.pick(c, k),
            check: &|item, r| {
                if r.wqasm == expected[item].as_slice() {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: served wQasm differs from the replay",
                        hot.items[item].name
                    ))
                }
            },
            sample_queue: true,
        }
        .run()?;
        let after = daemon.stats().map_err(|e| e.to_string())?;
        daemon
            .shutdown()
            .map_err(|e| format!("stop weaverd: {e}"))?;
        report.merge_counts(std::mem::take(&mut phase.report));
        for s in &phase.samples {
            requests.add(hot.slices[s.item], Some(s.ms), None);
        }
        let depths = &phase.queue_depths;
        let counters = Counters {
            // The hot set is written during the warm-up.
            fsyncs_per_artifact: daemon_counters(depths, 0, &empty, &before).fsyncs_per_artifact,
            // No hot request is ever shed: see `probe`.
            busy: probe(ctx, &mut report)?.busy,
            ..daemon_counters(depths, 0, &before, &after)
        };

        // The other half: the same requests as memory hits, traced.
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds / 2.0);
        let mut k = 0;
        while k < hot.items.len() || Instant::now() < deadline {
            let i = hot.pick(0, k);
            let mut frame = Vec::new();
            hot.requests[i].render(k as u64, &mut frame);
            let ms = hit(&mut layers, env, hot.slices[i], &frame, Tier::Memory)?;
            requests.add(hot.slices[i], None, Some(ms));
            k += 1;
        }
        coverage(
            &layers,
            &[(&requests, HIT_PATH.to_vec())],
            counters.queue_depth,
            &mut report,
        );
        emit_layers(&layers, &counters, &mut report);
        report.info(
            "samples",
            num_map([
                ("untraced_requests", phase.samples.len() as f64),
                ("traced_hits", k as f64),
            ]),
        );
        Ok(())
    })?;
    Ok(report)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    match ctx.workload.as_str() {
        "sweep-cold" => trace_sweep(ctx),
        _ => trace_hot(ctx),
    }
}
