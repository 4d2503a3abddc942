//! The batch engine: drives [`CompileJob`]s through the shared-queue pool,
//! consults the artifact cache, contains per-job panics, and reports
//! structured results.

use crate::cache::{ArtifactCache, CacheConfig, CacheTierStats};
use crate::job::{
    Artifact, CacheOutcome, CompileJob, JobError, JobErrorKind, JobResult, JobSource, StageTimings,
};
use crate::jsonl::JsonObject;
use crate::pool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use weaver_core::cache::CacheStats;
use weaver_core::{FrontendRegistry, Workload};
use weaver_obs::{log, metrics, span, Counter, Histogram};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads; `0` uses the machine's available parallelism.
    pub jobs: usize,
    /// Artifact-cache tiers.
    pub cache: CacheConfig,
    /// Whether to consult/populate the artifact cache at all.
    pub use_cache: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 0,
            cache: CacheConfig::default(),
            use_cache: true,
        }
    }
}

/// Outcome of one batch run: per-job results in submission order plus
/// batch-level throughput and cache statistics.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job results, in submission order.
    pub results: Vec<JobResult>,
    /// End-to-end wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Artifact-cache tier counters (cumulative over the engine's life).
    pub tier_stats: CacheTierStats,
    /// `weaver-core` memo counters (clause plans, checker traces).
    pub core_stats: CacheStats,
    /// Why the disk tier was disabled at engine construction, if it was
    /// (surfaced in the `batch` JSONL record as `disk_disabled`).
    pub disk_disabled: Option<String>,
}

impl BatchReport {
    /// Jobs that produced an artifact (and passed the checker, if run).
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|r| r.succeeded()).count()
    }

    /// Jobs that failed.
    pub fn failed(&self) -> usize {
        self.results.len() - self.succeeded()
    }

    /// Jobs served from the artifact cache without recompiling.
    pub fn cache_hits(&self) -> usize {
        self.results.iter().filter(|r| r.cache.is_hit()).count()
    }

    /// Batch throughput in jobs per second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.results.len() as f64 / self.wall_seconds
        } else {
            f64::INFINITY
        }
    }

    /// Renders the whole report as JSONL: one `job` record per result plus
    /// a trailing `batch` summary record.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&job_record(r));
            out.push('\n');
        }
        out.push_str(&self.batch_record());
        out.push('\n');
        out
    }

    /// The trailing `batch` summary JSON record.
    pub fn batch_record(&self) -> String {
        let tiers = JsonObject::new()
            .u64("memory_hits", self.tier_stats.memory_hits)
            .u64("disk_hits", self.tier_stats.disk_hits)
            .u64("misses", self.tier_stats.misses)
            .u64("evictions", self.tier_stats.evictions)
            .u64("disk_write_errors", self.tier_stats.disk_write_errors)
            .u64("checksum_failures", self.tier_stats.checksum_failures)
            .u64("wal_replayed", self.tier_stats.wal_replayed)
            .u64("recoveries", self.tier_stats.recoveries)
            .u64("buffer_evictions", self.tier_stats.buffer_evictions)
            .finish();
        let core = JsonObject::new()
            .u64("checker_hits", self.core_stats.checker_hits)
            .u64("checker_misses", self.core_stats.checker_misses)
            .u64("plan_hits", self.core_stats.plan_hits)
            .u64("plan_misses", self.core_stats.plan_misses)
            .finish();
        let mut record = JsonObject::new()
            .str("kind", "batch")
            .u64("jobs", self.results.len() as u64)
            .u64("workers", self.workers as u64)
            .u64("succeeded", self.succeeded() as u64)
            .u64("failed", self.failed() as u64)
            .u64("cache_hits", self.cache_hits() as u64)
            .f64("wall_seconds", self.wall_seconds)
            .f64("jobs_per_sec", self.jobs_per_sec())
            .raw("artifact_cache", &tiers)
            .raw("core_cache", &core);
        if let Some(reason) = &self.disk_disabled {
            record = record
                .bool("disk_disabled", true)
                .str("disk_disabled_reason", reason);
        }
        record.finish()
    }
}

/// Renders one job result as a JSONL `job` record (also used for live
/// streaming as jobs finish). Successful records carry the producing
/// compile's per-pass timing trace as a `passes` array (name, seconds,
/// steps per lowering pass, in execution order).
pub fn job_record(r: &JobResult) -> String {
    job_record_fields(r).finish()
}

/// The builder behind [`job_record`], left unfinished so callers (the
/// server response path) can append fields like a request `id` before
/// closing the object.
pub fn job_record_fields(r: &JobResult) -> JsonObject {
    let timings = JsonObject::new()
        .f64("parse_seconds", r.timings.parse_seconds)
        .f64("compile_seconds", r.timings.compile_seconds)
        .f64("check_seconds", r.timings.check_seconds)
        .f64("total_seconds", r.timings.total_seconds)
        .finish();
    let mut record = JsonObject::new()
        .str("kind", "job")
        .u64("index", r.index as u64)
        .str("name", &r.name)
        .str("target", r.target.name())
        .str("key", &r.key)
        .str("cache", r.cache.name())
        .raw("timings", &timings);
    match &r.artifact {
        Ok(a) => {
            let m = &a.metrics;
            let metrics = JsonObject::new()
                .f64("compilation_seconds", m.compilation_seconds)
                .f64("execution_micros", m.execution_micros)
                .f64("eps", m.eps)
                .u64("pulses", m.pulses as u64)
                .u64("motion_ops", m.motion_ops as u64)
                .u64("steps", m.steps)
                .finish();
            let passes: Vec<String> = a
                .passes
                .iter()
                .map(|p| {
                    JsonObject::new()
                        .str("name", &p.name)
                        .f64("seconds", p.seconds)
                        .u64("steps", p.steps)
                        .finish()
                })
                .collect();
            record = record
                .str("status", if r.succeeded() { "ok" } else { "check_failed" })
                .raw("metrics", &metrics)
                .raw("passes", &format!("[{}]", passes.join(",")));
            if let Some(c) = a.num_colors {
                record = record.u64("num_colors", c as u64);
            }
            if let Some(s) = a.swap_count {
                record = record.u64("swap_count", s as u64);
            }
            if let Some(p) = a.check_passed {
                record = record.bool("check_passed", p);
            }
            if !a.check_errors.is_empty() {
                record = record.str_array("check_errors", &a.check_errors);
            }
        }
        Err(e) => {
            record = record
                .str("status", "error")
                .str("error_kind", e.kind.name())
                .str("error", &e.message);
        }
    }
    record
}

/// Process-global job metric handles, resolved once per engine so the
/// per-job accounting is plain atomics. The `outcome` label mirrors
/// [`CacheOutcome::name`] plus `error` for failed jobs.
struct EngineMetrics {
    /// Counters in label order: memory_hit, disk_hit, miss, bypass, error.
    jobs_total: [Arc<Counter>; 5],
    job_duration: Arc<Histogram>,
}

impl EngineMetrics {
    const OUTCOMES: [&'static str; 5] = ["memory_hit", "disk_hit", "miss", "bypass", "error"];

    fn new() -> Self {
        EngineMetrics {
            jobs_total: EngineMetrics::OUTCOMES.map(|outcome| {
                metrics::counter_with(
                    "weaver_jobs_total",
                    "Batch jobs completed, by cache outcome (`error` = failed).",
                    &[("outcome", outcome)],
                )
            }),
            job_duration: metrics::latency_histogram(
                "weaver_job_duration_seconds",
                "End-to-end duration of one batch job, cache lookups included.",
            ),
        }
    }

    fn record(&self, outcome: &'static str, seconds: f64) {
        let idx = EngineMetrics::OUTCOMES
            .iter()
            .position(|o| *o == outcome)
            .unwrap_or(4);
        self.jobs_total[idx].inc();
        self.job_duration.observe(seconds);
    }
}

/// The parallel batch-compilation engine. One engine owns one artifact
/// cache; running several batches on the same engine keeps the cache warm.
pub struct Engine {
    config: EngineConfig,
    cache: ArtifactCache,
    disk_disabled: Option<String>,
    metrics: EngineMetrics,
}

impl Engine {
    /// Builds an engine. If the configured disk tier cannot be created the
    /// engine degrades to memory-only caching: a warning goes to stderr and
    /// every batch record it emits carries `disk_disabled` with the reason
    /// (use [`Engine::try_new`] to make that an error instead).
    pub fn new(config: EngineConfig) -> Self {
        match Engine::try_new(config.clone()) {
            Ok(engine) => engine,
            Err(e) => {
                let reason = e.to_string();
                log::warn("weaver-engine", &format!("disk cache disabled: {reason}"));
                let mut fallback = config;
                fallback.cache.disk_dir = None;
                let mut engine =
                    Engine::try_new(fallback).expect("memory-only cache is infallible");
                engine.disk_disabled = Some(reason);
                engine
            }
        }
    }

    /// Builds an engine, propagating disk-tier setup failures.
    pub fn try_new(config: EngineConfig) -> std::io::Result<Self> {
        let cache = ArtifactCache::new(config.cache.clone())?;
        Ok(Engine {
            config,
            cache,
            disk_disabled: None,
            metrics: EngineMetrics::new(),
        })
    }

    /// The artifact cache (stats, pre-warming).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Worker-thread count a run will use.
    pub fn workers(&self) -> usize {
        if self.config.jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.config.jobs
        }
    }

    /// Compiles a batch; results come back in submission order.
    pub fn run(&self, jobs: Vec<CompileJob>) -> BatchReport {
        self.run_streaming(jobs, &|_| {})
    }

    /// Compiles a batch, invoking `sink` on each result as it completes
    /// (completion order — use [`JobResult::index`] to correlate). The
    /// returned report is always in submission order.
    pub fn run_streaming(
        &self,
        jobs: Vec<CompileJob>,
        sink: &(dyn Fn(&JobResult) + Sync),
    ) -> BatchReport {
        let workers = self.workers();
        let start = Instant::now();
        let results = pool::run_jobs(jobs, workers, |index, job| {
            let result = self.run_job(index, job);
            sink(&result);
            result
        });
        BatchReport {
            results,
            wall_seconds: start.elapsed().as_secs_f64(),
            workers,
            tier_stats: self.cache.stats(),
            core_stats: self.cache.core_handle().stats(),
            disk_disabled: self.disk_disabled.clone(),
        }
    }

    /// Runs one job end to end: load → key → cache lookup → compile →
    /// (check) → store. Panics inside the compiler are contained and
    /// reported as structured `compile` errors. `pub(crate)` so the server
    /// can drive single jobs through its persistent pool.
    pub(crate) fn run_job(&self, index: usize, job: CompileJob) -> JobResult {
        let total_start = Instant::now();
        let name = job.name();
        let mut timings = StageTimings::default();
        // The job span lives on the worker thread, so the per-pass spans
        // the compiler emits nest under it via the thread-local stack.
        let mut job_span = span::span("job", name.clone())
            .with_arg("index", index)
            .with_arg("target", job.target.name());
        let (key, cache, artifact) = self.resolve_job(&job, &mut timings, total_start);
        timings.total_seconds = total_start.elapsed().as_secs_f64();
        let outcome = if artifact.is_err() {
            "error"
        } else {
            cache.name()
        };
        job_span.set_arg("outcome", outcome);
        self.metrics.record(outcome, timings.total_seconds);
        JobResult {
            index,
            name,
            target: job.target,
            key,
            cache,
            timings,
            artifact,
        }
    }

    /// The stages of [`Engine::run_job`] up to its result: returns the hex
    /// artifact key (empty if the workload did not load), the cache
    /// outcome and the artifact, and fills the parse, compile and check
    /// times.
    fn resolve_job(
        &self,
        job: &CompileJob,
        timings: &mut StageTimings,
        start: Instant,
    ) -> (String, CacheOutcome, Result<Arc<Artifact>, JobError>) {
        let workload = load_workload(&job.source, job.frontend.as_deref());
        timings.parse_seconds = start.elapsed().as_secs_f64();
        let workload = match workload {
            Ok(w) => w,
            Err(e) => return (String::new(), CacheOutcome::Bypass, Err(e)),
        };

        // Key derivation runs compiler code (option → parameter mapping)
        // too, so it sits inside the same panic boundary as the compile:
        // a panic there fails this job, never the worker running it.
        let key = match catch_unwind(AssertUnwindSafe(|| job.artifact_key(&workload))) {
            Ok(key) => key,
            Err(panic) => {
                return (
                    String::new(),
                    CacheOutcome::Bypass,
                    Err(internal_error(&panic)),
                )
            }
        };
        if self.config.use_cache {
            if let Some((artifact, outcome)) = self.cache.lookup(&key) {
                return (key.to_hex(), outcome, Ok(artifact));
            }
        }

        let compile_start = Instant::now();
        let compiled = catch_unwind(AssertUnwindSafe(|| {
            compile_job(
                job,
                &workload,
                self.config.use_cache.then(|| self.cache.core_handle()),
            )
        }));
        let artifact = match compiled {
            Ok(Ok((artifact, check_seconds))) => {
                timings.check_seconds = check_seconds;
                timings.compile_seconds = compile_start.elapsed().as_secs_f64() - check_seconds;
                let artifact = Arc::new(artifact);
                if self.config.use_cache {
                    self.cache.store(key, artifact.clone());
                }
                Ok(artifact)
            }
            Ok(Err(e)) => {
                timings.compile_seconds = compile_start.elapsed().as_secs_f64();
                Err(e)
            }
            Err(panic) => {
                timings.compile_seconds = compile_start.elapsed().as_secs_f64();
                Err(internal_error(&panic))
            }
        };
        let cache = if self.config.use_cache {
            CacheOutcome::Miss
        } else {
            CacheOutcome::Bypass
        };
        (key.to_hex(), cache, artifact)
    }
}

/// The `compile` error a panic inside the compiler becomes.
fn internal_error(panic: &Box<dyn std::any::Any + Send>) -> JobError {
    JobError {
        kind: JobErrorKind::Compile,
        message: format!("internal compiler error: {}", panic_message(panic)),
    }
}

/// The message of a caught panic payload (`&str` or `String`), for reports.
pub(crate) fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// Loads a job's workload: in-memory sources pass through, file/inline
/// text resolves its frontend through the global [`FrontendRegistry`]
/// (explicit `frontend` name first, then the path's extension, then
/// content sniffing) and parses under it.
fn load_workload(source: &JobSource, frontend: Option<&str>) -> Result<Workload, JobError> {
    let (name, path, text) = match source {
        JobSource::Formula { formula, .. } => return Ok(Workload::MaxSat(formula.clone())),
        JobSource::Workload { workload, .. } => return Ok(workload.clone()),
        JobSource::Inline { name, text } => (name.clone(), None, text.clone()),
        JobSource::Path(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| JobError {
                kind: JobErrorKind::Io,
                message: format!("cannot read {}: {e}", path.display()),
            })?;
            (path.display().to_string(), Some(path.as_path()), text)
        }
    };
    let front = FrontendRegistry::global()
        .resolve(frontend, path, &text)
        .map_err(|message| JobError {
            kind: JobErrorKind::UnknownFormat,
            message: format!("{name}: {message}"),
        })?;
    front.parse(&text).map_err(|e| JobError {
        kind: JobErrorKind::Parse,
        message: format!("{name}: {e}"),
    })
}

/// Compiles one job (already parsed); returns the artifact and the seconds
/// spent in the wChecker. Every target dispatches through the shared
/// [`weaver_core::BackendRegistry`], and the compiler comes from
/// [`crate::JobOptions::weaver`] exactly as in `weaverc`'s single-shot
/// path, so batch output is byte-identical to sequential runs.
fn compile_job(
    job: &CompileJob,
    workload: &Workload,
    core_cache: Option<&weaver_core::cache::CacheHandle>,
) -> Result<(Artifact, f64), JobError> {
    let weaver = job.options.weaver();
    let output = weaver
        .compile_workload_cached(job.target.name(), workload, core_cache)
        .map_err(|e| JobError {
            kind: match e.kind {
                weaver_core::backend::BackendErrorKind::UnsupportedWorkload => {
                    JobErrorKind::UnsupportedWorkload
                }
                _ => JobErrorKind::Compile,
            },
            message: e.message,
        })?;
    let (check_passed, check_errors, check_seconds) = if job.options.check {
        let check_start = Instant::now();
        match weaver.verify_workload(&output, workload, core_cache) {
            Some(report) => {
                let seconds = check_start.elapsed().as_secs_f64();
                let errors = report.errors.iter().map(|e| e.to_string()).collect();
                (Some(report.passed()), errors, seconds)
            }
            // Targets without a checker (superconducting, simulator) record
            // no verdict rather than a vacuous pass.
            None => (None, Vec::new(), 0.0),
        }
    } else {
        (None, Vec::new(), 0.0)
    };
    Ok((
        Artifact {
            wqasm: output.artifact.print_wqasm(),
            swap_count: output.artifact.swap_count(),
            num_colors: output.artifact.num_colors(),
            metrics: output.metrics,
            passes: output.passes.iter().map(Into::into).collect(),
            check_passed,
            check_errors,
        },
        check_seconds,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Target;
    use weaver_sat::generator;

    fn engine(jobs: usize) -> Engine {
        Engine::new(EngineConfig {
            jobs,
            ..EngineConfig::default()
        })
    }

    fn batch(n: usize) -> Vec<CompileJob> {
        (1..=n)
            .map(|v| CompileJob::from_formula(format!("uf10-{v:02}"), generator::instance(10, v)))
            .collect()
    }

    #[test]
    fn cold_batch_compiles_everything() {
        let report = engine(2).run(batch(4));
        assert_eq!(report.succeeded(), 4);
        assert_eq!(report.cache_hits(), 0);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.cache, CacheOutcome::Miss);
            let artifact = r.artifact.as_ref().unwrap();
            assert!(artifact.wqasm.contains("OPENQASM"));
            assert!(artifact.metrics.pulses > 0);
        }
    }

    #[test]
    fn warm_batch_hits_without_recompiling() {
        let e = engine(2);
        let cold = e.run(batch(4));
        let warm = e.run(batch(4));
        assert_eq!(warm.cache_hits(), 4);
        for (c, w) in cold.results.iter().zip(&warm.results) {
            let (ca, wa) = (c.artifact.as_ref().unwrap(), w.artifact.as_ref().unwrap());
            assert_eq!(ca.wqasm, wa.wqasm);
            assert_eq!(ca.metrics, wa.metrics, "hit serves the stored metrics");
            assert_eq!(w.timings.compile_seconds, 0.0);
        }
    }

    #[test]
    fn parse_failures_are_structured_not_fatal() {
        let mut jobs = batch(2);
        jobs.push(CompileJob {
            source: JobSource::Inline {
                name: "broken".into(),
                text: "p cnf nonsense".into(),
            },
            ..jobs[0].clone()
        });
        jobs.push(CompileJob::from_path("/nonexistent/missing.cnf"));
        let report = engine(2).run(jobs);
        assert_eq!(report.succeeded(), 2);
        assert_eq!(report.failed(), 2);
        let parse_err = report.results[2].artifact.as_ref().unwrap_err();
        assert_eq!(parse_err.kind, JobErrorKind::Parse);
        let io_err = report.results[3].artifact.as_ref().unwrap_err();
        assert_eq!(io_err.kind, JobErrorKind::Io);
    }

    #[test]
    fn oversized_superconducting_job_fails_structurally() {
        let mut job = CompileJob::from_formula("uf150", generator::instance(150, 1));
        job.target = Target::parse("superconducting").unwrap();
        let report = engine(1).run(vec![job]);
        let err = report.results[0].artifact.as_ref().unwrap_err();
        assert_eq!(err.kind, JobErrorKind::Compile);
        assert!(err.message.contains("exceed"));
    }

    #[test]
    fn oversized_simulator_job_fails_structurally() {
        let mut job = CompileJob::from_formula("uf50", generator::instance(50, 1));
        job.target = Target::parse("simulator").unwrap();
        let report = engine(1).run(vec![job]);
        let err = report.results[0].artifact.as_ref().unwrap_err();
        assert_eq!(err.kind, JobErrorKind::Compile);
        assert!(err.message.contains("exceed the 20-qubit backend"), "{err}");
    }

    #[test]
    fn panicking_key_derivation_is_a_compile_error() {
        // An out-of-range CCZ fidelity trips `FpqaParams`' assertion while
        // the key is derived; the job fails, and the worker lives on.
        let mut jobs = batch(2);
        jobs[0].options.ccz_fidelity = Some(1.5);
        let report = engine(1).run(jobs);
        let err = report.results[0].artifact.as_ref().unwrap_err();
        assert_eq!(err.kind, JobErrorKind::Compile);
        assert!(err.message.contains("[0, 1]"), "{err}");
        assert!(report.results[0].key.is_empty());
        assert!(report.results[1].artifact.is_ok());
    }

    #[test]
    fn one_formula_compiles_for_every_registered_target() {
        let f = generator::instance(10, 1);
        let jobs: Vec<CompileJob> = ["fpqa", "superconducting", "simulator"]
            .into_iter()
            .map(|target| {
                let mut job = CompileJob::from_formula(format!("uf10@{target}"), f.clone());
                job.target = Target::parse(target).unwrap();
                job
            })
            .collect();
        let report = engine(2).run(jobs);
        assert_eq!(report.succeeded(), 3);
        let by_target = |name: &str| {
            report
                .results
                .iter()
                .find(|r| r.target.name() == name)
                .and_then(|r| r.artifact.as_ref().ok())
                .expect("artifact")
        };
        let fpqa = by_target("fpqa");
        assert!(fpqa.num_colors.is_some() && fpqa.swap_count.is_none());
        assert!(fpqa.wqasm.contains("@rydberg"));
        let sc = by_target("superconducting");
        assert!(sc.swap_count.is_some() && sc.num_colors.is_none());
        let sim = by_target("simulator");
        assert!(sim.metrics.eps > 0.0 && sim.metrics.eps <= 1.0);
        assert_eq!(sim.metrics.motion_ops, 0);
        assert!(!sim.wqasm.contains("@rydberg"), "ideal path has no pulses");
    }

    #[test]
    fn jsonl_stream_is_one_record_per_job_plus_summary() {
        let report = engine(1).run(batch(3));
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[..3].iter().all(|l| l.contains("\"kind\":\"job\"")));
        assert!(lines[3].contains("\"kind\":\"batch\""));
        assert!(lines[3].contains("\"jobs_per_sec\""));
    }

    #[test]
    fn unusable_disk_dir_degrades_and_reports_in_jsonl() {
        let pid = std::process::id();
        // A disk dir nested under a regular file can never be created.
        let file = std::env::temp_dir().join(format!("weaver-notadir-{pid}"));
        std::fs::write(&file, "x").unwrap();
        // A store another holder has open cannot be shared.
        let held_dir = std::env::temp_dir().join(format!("weaver-held-{pid}"));
        let _ = std::fs::remove_dir_all(&held_dir);
        std::fs::create_dir_all(&held_dir).unwrap();
        let holder =
            crate::store::Store::open(&held_dir, crate::store::StoreTuning::default()).unwrap();
        for (disk_dir, reason) in [(file.join("cache"), ""), (held_dir.clone(), "already open")] {
            let e = Engine::new(EngineConfig {
                jobs: 1,
                cache: CacheConfig {
                    disk_dir: Some(disk_dir),
                    ..CacheConfig::default()
                },
                ..EngineConfig::default()
            });
            let report = e.run(batch(1));
            assert_eq!(report.succeeded(), 1, "memory-only fallback still works");
            assert!(e.cache().store_stats().is_none(), "no disk tier");
            let record = report.batch_record();
            assert!(record.contains("\"disk_disabled\":true"), "{record}");
            assert!(record.contains("\"disk_disabled_reason\":"), "{record}");
            assert!(record.contains(reason), "{record}");
        }
        drop(holder);
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_dir_all(&held_dir);
    }

    #[test]
    fn streaming_sink_sees_every_result() {
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        let report = engine(2).run_streaming(batch(5), &|r| {
            seen.lock().unwrap().push(r.index);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(report.results.len(), 5);
    }

    #[test]
    fn checked_jobs_record_the_verdict() {
        let mut jobs = batch(2);
        for j in &mut jobs {
            j.options.check = true;
        }
        let report = engine(2).run(jobs);
        assert_eq!(report.succeeded(), 2);
        for r in &report.results {
            assert_eq!(r.artifact.as_ref().unwrap().check_passed, Some(true));
        }
    }
}
