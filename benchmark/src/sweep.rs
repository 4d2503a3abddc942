//! `sweep-cold`: the paper's compile sweep, without baselines, through
//! in-process `Engine::run` with the artifact cache off.
//!
//! One round runs one batch per slice, each of [`PER_SLICE`] instances on
//! `nproc` workers; rounds repeat until the run's time is up. Each batch
//! is timed from outside the engine; its outputs are checked after the
//! clock stops.

use crate::inputs::{slice_index, Item, SLICES};
use crate::quality;
use crate::report::{num_map, Report};
use crate::stats::{median, tail};
use crate::verify::check_result;
use crate::Ctx;
use std::time::Instant;
use weaver_engine::{Engine, EngineConfig};

/// Instance streams: timed batches and set-up warm-up jobs.
const STREAM_SWEEP: u64 = 1;
const STREAM_WARMUP: u64 = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 11;
/// Instances in each slice's batch: the paper's sweep compiles ten
/// variants at every size.
const PER_SLICE: u64 = 10;

pub fn cold_engine(jobs: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        use_cache: false,
        ..EngineConfig::default()
    })
}

/// Engine creation plus one untimed warm-up job per target.
fn setup(ctx: &Ctx, attempt: usize, report: &mut Report) -> (Engine, f64) {
    let start = Instant::now();
    let engine = cold_engine(ctx.nproc);
    let warmups = ["fpqa_20", "sc_eagle_20", "sim_14"]
        .iter()
        .map(|name| {
            Item::new(
                ctx.seed,
                STREAM_WARMUP,
                crate::inputs::slice_index(name),
                attempt as u64,
            )
            .job()
        })
        .collect();
    let batch = engine.run(warmups);
    let seconds = start.elapsed().as_secs_f64();
    for r in &batch.results {
        report.check(
            r.artifact
                .as_ref()
                .map(|_| ())
                .map_err(|e| format!("warm-up {}: {e}", r.name)),
        );
    }
    (engine, seconds)
}

/// Rounds the timed phase runs at least, so every batch is repeated.
const MIN_ROUNDS: u64 = 4;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let t = Instant::now();
    let mut setups = Vec::new();
    let mut engine = None;
    for attempt in 0..SETUPS {
        let (e, seconds) = setup(ctx, attempt, &mut report);
        setups.push(seconds);
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    report.stage("setup", t);

    // One batch per slice, the same batches every round, so a batch's
    // repetitions are like-for-like times.
    let positions: Vec<Vec<Item>> = (0..SLICES.len())
        .map(|si| {
            (0..PER_SLICE)
                .map(|k| Item::new(ctx.seed, STREAM_SWEEP, si, k))
                .collect()
        })
        .collect();
    // Every repetition's wall (s) of every batch.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); positions.len()];
    let mut hashes: Vec<Vec<u64>> = vec![Vec::new(); positions.len()];
    // Every job's latency (ms) over the whole timed phase.
    let mut job_times: Vec<f64> = Vec::new();
    let t = Instant::now();
    let mut round = 0u64;
    loop {
        for (p, items) in positions.iter().enumerate() {
            let jobs = items.iter().map(Item::job).collect();
            let start = Instant::now();
            let batch = engine.run(jobs);
            walls[p].push(start.elapsed().as_secs_f64());
            job_times.extend(batch.results.iter().map(|r| r.timings.total_seconds * 1e3));
            if round == 0 {
                for (r, item) in batch.results.iter().zip(items) {
                    check_result(item, r, &mut report);
                }
                hashes[p] = batch.results.iter().map(result_hash).collect();
            } else {
                // Every repetition must produce the same bytes.
                for (r, &h) in batch.results.iter().zip(&hashes[p]) {
                    report.check(if result_hash(r) == h {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: repeated compile produced different wQasm",
                            r.name
                        ))
                    });
                }
            }
        }
        round += 1;
        if round >= MIN_ROUNDS && t.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    report.stage("timed", t);
    let peak_rss_mb = crate::daemon::vm_hwm_mb("/proc/self/status");

    // Quality of a fixed set, compiled twice: both must agree exactly.
    let t = Instant::now();
    let quality_items = quality::items(ctx.seed);
    let (quality, _) = quality::compile(ctx.nproc, &quality_items, &mut report);
    let (again, _) = quality::compile(ctx.nproc, &quality_items, &mut report);
    quality.compare(&again, "between two in-process compiles", &mut report);
    report.stage("quality", t);

    let jobs_per_batch = PER_SLICE as f64;
    // Position `si` is slice `si`'s batch; its time is its median wall.
    let batch_s: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let slice_rate = |si: usize| jobs_per_batch / batch_s[si];
    let sweep_rate = positions.len() as f64 * jobs_per_batch / batch_s.iter().sum::<f64>();
    let p50 = median(&job_times);
    let (p99, p99_percentile) = tail(&job_times);

    report.metric("sweep_jobs_per_s", sweep_rate, "1/s");
    report.metric(
        "fpqa_250_jobs_per_s",
        slice_rate(slice_index("fpqa_250")),
        "1/s",
    );
    report.metric(
        "sc_eagle_100_jobs_per_s",
        slice_rate(slice_index("sc_eagle_100")),
        "1/s",
    );
    report.metric(
        "sim_14_jobs_per_s",
        slice_rate(slice_index("sim_14")),
        "1/s",
    );
    // A copy of `sweep_jobs_per_s`: in-process, a request is one job.
    report.metric("requests_per_s", sweep_rate, "1/s");
    report.metric("request_p50_ms", p50, "ms");
    report.metric("request_p99_ms", p99, "ms");
    quality.emit(&mut report);
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");

    quality.record(&mut report);
    report.info(
        "samples",
        num_map([
            ("rounds", round as f64),
            ("batches_per_round", positions.len() as f64),
            ("jobs_per_batch", jobs_per_batch),
            ("jobs", job_times.len() as f64),
            ("request_p99_percentile", p99_percentile),
            ("setups", setups.len() as f64),
        ]),
    );
    report.info(
        "slice_jobs_per_s",
        num_map(
            SLICES
                .iter()
                .enumerate()
                .map(|(si, s)| (s.name, slice_rate(si))),
        ),
    );
    report.info(
        "definitions",
        "\"a batch is one Engine::run call of the slice's ten instances on nproc workers; every round runs one batch per slice, the same batches each round, and a batch's time is the median of its repetitions; <slice>_jobs_per_s is ten over the slice's batch time, sweep_jobs_per_s all jobs of a round over the sum of the batch times; a request is one job, timed inside the engine, so requests_per_s is a copy of sweep_jobs_per_s; request_p50_ms and request_p99_ms are the median and the tail over every job of the timed phase\"".to_string(),
    );
    Ok(report)
}

/// Content hash of a job result's wQasm (0 for a failed job).
fn result_hash(r: &weaver_engine::JobResult) -> u64 {
    r.artifact
        .as_ref()
        .map_or(0, |a| crate::verify::content_hash(a.wqasm.as_bytes()))
}
