//! `serve-hot`: a real `weaverd` child on a Unix socket with the paged
//! store, driven by a closed loop of `nproc` clients, each with one
//! request outstanding. Latency is client-side, from the first
//! byte of the request frame written to the last byte of the reply read.

use crate::daemon::{scan_reply, Client, Daemon, Reply};
use crate::inputs::{slice_index, Item, Request, SLICES};
use crate::quality::{self, Fingerprint, Quality};
use crate::report::{num_list, num_map, Report};
use crate::stats::{median, tail};
use crate::verify::content_hash;
use crate::Ctx;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use weaver_engine::jsonl::{escape, JsonValue};

/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Worker threads of every `weaverd` the benchmark starts. Two or more
/// idle `ServicePool` workers can deadlock: each holds its own queue lock
/// while it tries to steal from the other's (the guard of
/// `queues[me].lock().pop_front()` lives to the end of the `let` that
/// also calls `steal_service`). With one worker the daemon cannot wedge.
pub const DAEMON_WORKERS: usize = 1;

/// One timed request of the closed loop; every one is a memory hit.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub item: usize,
    pub ms: f64,
}

/// What a closed-loop phase measured.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall: f64,
    pub report: Report,
    pub queue_depths: Vec<f64>,
}

/// A closed loop: `clients` connections, each sending the request
/// `schedule(client, k)` picks for k = 0, 1, … until `seconds` pass. Every
/// reply must be a memory hit.
pub struct Loop<'a> {
    pub sock: &'a Path,
    pub clients: usize,
    pub seconds: f64,
    pub requests: &'a [Request],
    /// Slice of each request.
    pub slices: &'a [usize],
    pub schedule: &'a (dyn Fn(usize, usize) -> usize + Sync),
    /// Judges each scanned reply on the clock, so it must stay cheap.
    pub check: &'a (dyn Fn(usize, &Reply<'_>) -> Result<(), String> + Sync),
    /// Polls the `stats` verb for the queue depth on one more connection.
    pub sample_queue: bool,
}

impl Loop<'_> {
    pub fn run(&self) -> Result<Phase, String> {
        let phase = Mutex::new(Phase::default());
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        std::thread::scope(|scope| -> Result<(), String> {
            let sampler = self.sample_queue.then(|| {
                scope.spawn(|| -> Result<Vec<f64>, String> {
                    let mut client =
                        Client::connect(self.sock).map_err(|e| format!("stats connect: {e}"))?;
                    let mut depths = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        let stats = client.verb("stats").map_err(|e| format!("stats: {e}"))?;
                        depths.push(
                            stats
                                .get("queue_depth")
                                .and_then(JsonValue::as_f64)
                                .unwrap_or(0.0),
                        );
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Ok(depths)
                })
            });
            let workers: Vec<_> = (0..self.clients)
                .map(|c| {
                    let phase = &phase;
                    scope.spawn(move || self.client(c, start, phase))
                })
                .collect();
            let mut result = Ok(());
            for w in workers {
                let r = w
                    .join()
                    .map_err(|_| "client thread panicked".to_string())
                    .and_then(|r| r);
                result = result.and(r);
            }
            phase.lock().expect("clients joined").wall = start.elapsed().as_secs_f64();
            stop.store(true, Ordering::SeqCst);
            if let Some(s) = sampler {
                let depths = s
                    .join()
                    .map_err(|_| "stats thread panicked".to_string())??;
                phase.lock().expect("clients joined").queue_depths = depths;
            }
            result
        })?;
        Ok(phase.into_inner().expect("threads joined"))
    }

    fn client(&self, c: usize, start: Instant, phase: &Mutex<Phase>) -> Result<(), String> {
        let mut client = Client::connect(self.sock).map_err(|e| format!("connect: {e}"))?;
        let mut payload = Vec::new();
        let mut samples = Vec::new();
        let mut report = Report::default();
        for k in 0.. {
            if start.elapsed().as_secs_f64() >= self.seconds {
                break;
            }
            let item = (self.schedule)(c, k);
            let id = ((c as u64) << 32) | k as u64;
            self.requests[item].render(id, &mut payload);
            let t = Instant::now();
            let reply = client.call(&payload).map_err(|e| format!("request: {e}"))?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let outcome = scan_reply(reply).and_then(|r| {
                if r.id != id {
                    return Err(format!("reply id {} for request {id}", r.id));
                }
                if r.cache != b"memory_hit" {
                    return Err(format!(
                        "item {item}: served as {} instead of a memory hit",
                        String::from_utf8_lossy(r.cache)
                    ));
                }
                if SLICES[self.slices[item]].check() && r.check_passed != Some(true) {
                    return Err(format!("item {item}: wChecker did not pass"));
                }
                (self.check)(item, &r)
            });
            if outcome.is_ok() {
                samples.push(Sample { item, ms });
            }
            report.check(outcome);
        }
        let mut phase = phase.lock().expect("no client panicked holding the phase");
        phase.samples.extend(samples);
        phase.report.merge_counts(report);
        Ok(())
    }
}

/// Sends every request once, spread over `clients` connections, and
/// returns the full parse of each reply (untimed).
pub fn send_all(
    sock: &Path,
    clients: usize,
    requests: &[Request],
) -> Result<Vec<JsonValue>, String> {
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(vec![None; requests.len()]);
    std::thread::scope(|scope| -> Result<(), String> {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut client = Client::connect(sock).map_err(|e| format!("connect: {e}"))?;
                    let mut payload = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= requests.len() {
                            return Ok(());
                        }
                        requests[i].render(i as u64, &mut payload);
                        let reply = client.call(&payload).map_err(|e| format!("request: {e}"))?;
                        let text = std::str::from_utf8(reply).map_err(|e| e.to_string())?;
                        let value = JsonValue::parse(text)?;
                        replies.lock().expect("no sender panicked")[i] = Some(value);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().map_err(|_| "sender panicked".to_string())??;
        }
        Ok(())
    })?;
    Ok(replies
        .into_inner()
        .expect("senders joined")
        .into_iter()
        .map(|r| r.expect("every request answered"))
        .collect())
}

/// The quality fingerprint of a fully parsed `job` reply.
fn served_fingerprint(slice: usize, v: &JsonValue) -> Result<Fingerprint, String> {
    if v.str_field("status") != Some("ok") {
        return Err(format!(
            "status {:?}: {:?}",
            v.str_field("status"),
            v.str_field("error")
        ));
    }
    let metric = |k: &str| {
        v.get("metrics")
            .and_then(|m| m.get(k))
            .and_then(JsonValue::as_f64)
            .ok_or(format!("no metrics.{k}"))
    };
    let steps = v
        .get("passes")
        .and_then(JsonValue::as_array)
        .ok_or("no passes")?
        .iter()
        .map(|p| {
            Some((
                p.str_field("name")?.to_string(),
                p.get("steps").and_then(JsonValue::as_u64)?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed passes")?;
    Ok(Fingerprint {
        slice,
        exec_us: metric("execution_micros")?,
        eps: metric("eps")?,
        swaps: v
            .get("swap_count")
            .and_then(JsonValue::as_u64)
            .map(|s| s as usize),
        steps,
        wqasm: content_hash(v.str_field("wqasm").ok_or("no wqasm")?.as_bytes()),
    })
}

/// Starts the daemon `SETUPS` times and keeps the last one; every
/// earlier one drains and exits. Returns the daemon and the median
/// spawn-to-first-`pong` seconds.
fn start_daemon(ctx: &Ctx, store: &Path) -> Result<(Daemon, f64, Vec<f64>), String> {
    let sock = ctx.work.join("d.sock");
    let mut times = Vec::new();
    for attempt in 0..SETUPS {
        let (daemon, seconds) = Daemon::spawn(&ctx.weaverd, &sock, store, DAEMON_WORKERS, None)
            .map_err(|e| format!("start weaverd: {e}"))?;
        times.push(seconds);
        if attempt + 1 == SETUPS {
            return Ok((daemon, median(&times), times));
        }
        daemon
            .shutdown()
            .map_err(|e| format!("stop weaverd: {e}"))?;
    }
    unreachable!("SETUPS > 0")
}

/// The end-to-end metrics of the timed phase, in output order.
fn emit(
    ctx: &Ctx,
    phase: &Phase,
    slices: &[usize],
    quality: &Quality,
    setup: f64,
    rss: f64,
    report: &mut Report,
) {
    // Replies of one slice counted over the phase: the clients mix the
    // slices, so a slice's own latency would include time queued behind
    // the others.
    let slice_rate = |name: &str| {
        let si = slice_index(name);
        phase
            .samples
            .iter()
            .filter(|s| slices[s.item] == si)
            .count() as f64
            / phase.wall
    };
    let all: Vec<f64> = phase.samples.iter().map(|s| s.ms).collect();
    let rate = all.len() as f64 / phase.wall;
    let (p99, p99_percentile) = tail(&all);
    // A copy of `requests_per_s`: over the daemon, a job is one request.
    report.metric("sweep_jobs_per_s", rate, "1/s");
    report.metric("fpqa_250_jobs_per_s", slice_rate("fpqa_250"), "1/s");
    report.metric("sc_eagle_100_jobs_per_s", slice_rate("sc_eagle_100"), "1/s");
    report.metric("sim_14_jobs_per_s", slice_rate("sim_14"), "1/s");
    report.metric("requests_per_s", rate, "1/s");
    report.metric("request_p50_ms", median(&all), "ms");
    report.metric("request_p99_ms", p99, "ms");
    quality.emit(report);
    report.metric("setup_s", setup, "s");
    report.metric("peak_rss_mb", rss, "MiB");
    quality.record(report);
    report.info(
        "samples",
        num_map([
            ("requests", all.len() as f64),
            ("clients", ctx.nproc as f64),
            ("phase_seconds", phase.wall),
            ("request_p99_percentile", p99_percentile),
            ("setups", SETUPS as f64),
        ]),
    );
    report.info(
        "definitions",
        "\"a request is one compile frame, timed by the client from write to last reply byte; requests_per_s and <slice>_jobs_per_s count replies (all, or the slice's) over the timed phase, and sweep_jobs_per_s is a copy of requests_per_s; request_p50_ms and request_p99_ms are the median and the tail over every request of the phase\"".to_string(),
    );
}

/// The quality of `weaverd`'s replies for the quality items; each must
/// match the in-process reference exactly.
fn check_served_quality(
    items: &[Item],
    replies: &[JsonValue],
    reference: &Quality,
    report: &mut Report,
) -> Quality {
    let mut served = Quality::default();
    for (item, reply) in items.iter().zip(replies) {
        match served_fingerprint(item.slice, reply) {
            Ok(f) => served.add(&item.name, f),
            Err(e) => {
                report.check(Err(format!("{}: {e}", item.name)));
            }
        }
    }
    reference.compare(&served, "between in-process and weaverd", report);
    served
}

/// The hot set is the quality set: four instances of every slice plus the
/// `fpqa_20` EPS sample. Each client cycles through the slices in turn.
pub struct HotSet {
    pub items: Vec<Item>,
    pub requests: Vec<Request>,
    pub slices: Vec<usize>,
    by_slice: Vec<Vec<usize>>,
}

impl HotSet {
    pub fn new(seed: u64) -> HotSet {
        let items = quality::items(seed);
        let mut by_slice = vec![Vec::new(); SLICES.len()];
        for (i, item) in items.iter().enumerate() {
            by_slice[item.slice].push(i);
        }
        HotSet {
            requests: items.iter().map(Item::request).collect(),
            slices: items.iter().map(|i| i.slice).collect(),
            items,
            by_slice,
        }
    }

    /// Client `c`'s `k`-th request: slices in turn, each slice's items in
    /// turn, clients offset so they do not move in lockstep.
    pub fn pick(&self, c: usize, k: usize) -> usize {
        let n = SLICES.len();
        let slice = (k + c * 5) % n;
        let items = &self.by_slice[slice];
        items[(k / n + c) % items.len()]
    }
}

pub fn run_hot(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let hot = HotSet::new(ctx.seed);
    let t = Instant::now();
    let store = ctx.work.join("hot-store");
    let (daemon, setup, setups) = start_daemon(ctx, &store)?;
    report.stage("setup", t);

    // Warm-up, untimed: the daemon compiles the hot set while this process
    // compiles the same jobs for reference.
    let t = Instant::now();
    let mut reference_checks = Report::default();
    let (warm, (reference, artifacts)) = std::thread::scope(|scope| {
        let reference =
            scope.spawn(|| quality::compile(ctx.nproc, &hot.items, &mut reference_checks));
        let warm = send_all(&daemon.sock, ctx.nproc, &hot.requests);
        (
            warm,
            reference.join().expect("reference compile does not panic"),
        )
    });
    report.merge_counts(reference_checks);
    let served = check_served_quality(&hot.items, &warm?, &reference, &mut report);
    let expected: Vec<Vec<u8>> = artifacts
        .iter()
        .map(|a| {
            a.as_ref()
                .map_or_else(Vec::new, |a| escape(&a.wqasm).into_bytes())
        })
        .collect();
    report.stage("warm-up", t);

    let t = Instant::now();
    let mut phase = Loop {
        sock: &daemon.sock,
        clients: ctx.nproc,
        seconds: ctx.seconds,
        requests: &hot.requests,
        slices: &hot.slices,
        schedule: &|c, k| hot.pick(c, k),
        check: &|item, r| {
            if r.wqasm == expected[item].as_slice() {
                Ok(())
            } else {
                Err(format!(
                    "{}: served wQasm differs from the in-process compile",
                    hot.items[item].name
                ))
            }
        },
        sample_queue: false,
    }
    .run()?;
    report.stage("timed", t);
    let rss = daemon.peak_rss_mb();
    daemon
        .shutdown()
        .map_err(|e| format!("stop weaverd: {e}"))?;
    report.merge_counts(std::mem::take(&mut phase.report));
    emit(ctx, &phase, &hot.slices, &served, setup, rss, &mut report);
    report.info("setup_seconds", num_list(&setups));
    Ok(report)
}
