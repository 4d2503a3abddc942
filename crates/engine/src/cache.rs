//! The content-addressed artifact cache: an in-memory LRU tier backed by an
//! optional on-disk tier.
//!
//! Artifacts are addressed by the BLAKE2s-256 key of
//! [`crate::CompileJob::artifact_key`] — canonical formula ⊕ target
//! parameters ⊕ options ⊕ compiler version — so a hit is valid by
//! construction and no invalidation logic exists.
//!
//! The disk tier is the durable paged store ([`crate::store`]): one
//! WAL-guarded page file that survives being killed at any byte — every
//! committed artifact is recovered byte-identical on reopen, torn writes
//! are discarded, and damaged pages quarantine as misses. If another live
//! process holds the store, [`ArtifactCache::new`] fails with an error
//! that [`crate::store::is_locked`] recognizes; [`crate::Engine::new`]
//! turns that into a memory-only engine that reports `disk_disabled`.
//! Disk I/O failures never fail a compile: they are counted
//! ([`CacheTierStats::disk_write_errors`]) and warned once per process.
//!
//! The cache also owns the process-wide [`CacheHandle`] threaded through
//! `weaver-core`, so all batch jobs share memoized clause plans and checker
//! device traces.

use crate::job::Artifact;
use crate::job::CacheOutcome;
use crate::lock_poison_ok;
use crate::store::{self, Store, StoreTuning};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use weaver_core::cache::{CacheHandle, Digest};
use weaver_core::Metrics;
use weaver_obs::{log, metrics, Counter};

/// Artifact-cache configuration.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Maximum artifacts held by the in-memory LRU tier.
    pub memory_capacity: usize,
    /// Directory of the on-disk tier; `None` disables it.
    pub disk_dir: Option<PathBuf>,
    /// Paged-store tuning (page size, buffer pool, checkpoint threshold).
    pub store: StoreTuning,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            memory_capacity: 1024,
            disk_dir: None,
            store: StoreTuning::default(),
        }
    }
}

/// Hit/miss/durability counters of the two tiers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTierStats {
    /// Lookups served by the in-memory tier.
    pub memory_hits: u64,
    /// Lookups served by the on-disk tier.
    pub disk_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Artifacts evicted from the memory tier.
    pub evictions: u64,
    /// Disk-tier write failures (swallowed, counted, warned once).
    pub disk_write_errors: u64,
    /// Pages or chains quarantined for checksum failures (paged store).
    pub checksum_failures: u64,
    /// WAL records replayed when the store was opened.
    pub wal_replayed: u64,
    /// Store opens that had crash damage to repair.
    pub recoveries: u64,
    /// Paged-store buffer-pool LRU evictions.
    pub buffer_evictions: u64,
}

struct MemoryEntry {
    artifact: Arc<Artifact>,
    stamp: u64,
}

/// Process-global cache metric handles, resolved once per cache instance
/// so the hot lookup/store paths update plain atomics instead of taking
/// the registry lock. Per-instance [`CacheTierStats`] counters stay
/// alongside: the registry series aggregate across every cache in the
/// process, the struct reports this one instance.
struct CacheMetrics {
    memory_hits: Arc<Counter>,
    disk_hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    disk_write_errors: Arc<Counter>,
}

impl CacheMetrics {
    fn new() -> Self {
        const HITS_HELP: &str = "Artifact-cache lookups served, by tier.";
        CacheMetrics {
            memory_hits: metrics::counter_with(
                "weaver_cache_hits_total",
                HITS_HELP,
                &[("tier", "memory")],
            ),
            disk_hits: metrics::counter_with(
                "weaver_cache_hits_total",
                HITS_HELP,
                &[("tier", "disk")],
            ),
            misses: metrics::counter(
                "weaver_cache_misses_total",
                "Artifact-cache lookups that found nothing.",
            ),
            evictions: metrics::counter(
                "weaver_cache_evictions_total",
                "Artifacts evicted from the in-memory LRU tier.",
            ),
            disk_write_errors: metrics::counter(
                "weaver_cache_disk_write_errors_total",
                "Disk-tier write failures (swallowed; the cache is an accelerator).",
            ),
        }
    }
}

/// The content-addressed artifact cache (see module docs).
pub struct ArtifactCache {
    config: CacheConfig,
    memory: Mutex<HashMap<Digest, MemoryEntry>>,
    /// The paged store (single writer, mutex-serialized; boxed to keep the
    /// cache small when disk caching is off); `None` without a disk tier.
    disk: Option<Box<Mutex<Store>>>,
    /// Rendered entries parked for the paged tier's group commit: writers
    /// park here first, and whoever holds the store lock next commits
    /// everything parked under one WAL fsync.
    pending: Mutex<Vec<(Digest, Vec<u8>)>>,
    clock: AtomicU64,
    core: CacheHandle,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    disk_write_errors: AtomicU64,
    metrics: CacheMetrics,
}

impl ArtifactCache {
    /// Builds a cache; the disk tier (when configured) is opened eagerly —
    /// including paged-store crash recovery — so store failures, a store
    /// held by another live process among them, surface here rather than
    /// mid-batch.
    pub fn new(config: CacheConfig) -> std::io::Result<Self> {
        let disk = config
            .disk_dir
            .as_ref()
            .map(|dir| Store::open(dir, config.store.clone()).map(|s| Box::new(Mutex::new(s))))
            .transpose()?;
        Ok(ArtifactCache {
            memory: Mutex::new(HashMap::new()),
            disk,
            pending: Mutex::new(Vec::new()),
            clock: AtomicU64::new(0),
            core: CacheHandle::new(),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk_write_errors: AtomicU64::new(0),
            metrics: CacheMetrics::new(),
            config,
        })
    }

    /// The shared `weaver-core` memo handle (clause plans, checker traces).
    pub fn core_handle(&self) -> &CacheHandle {
        &self.core
    }

    /// Looks up an artifact: memory tier first, then disk (promoting the
    /// entry into memory on a disk hit).
    pub fn lookup(&self, key: &Digest) -> Option<(Arc<Artifact>, CacheOutcome)> {
        {
            let mut memory = lock_poison_ok(&self.memory);
            if let Some(entry) = memory.get_mut(key) {
                entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                self.memory_hits.fetch_add(1, Ordering::Relaxed);
                self.metrics.memory_hits.inc();
                return Some((entry.artifact.clone(), CacheOutcome::MemoryHit));
            }
        }
        if let Some(artifact) = self.disk_lookup(key) {
            let artifact = Arc::new(artifact);
            self.insert_memory(*key, artifact.clone());
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.disk_hits.inc();
            return Some((artifact, CacheOutcome::DiskHit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.inc();
        None
    }

    fn disk_lookup(&self, key: &Digest) -> Option<Artifact> {
        // Torn or damaged chains come back as `None` (quarantined inside
        // the store), never as corrupt bytes.
        let bytes = lock_poison_ok(self.disk.as_ref()?)
            .get(key)
            .ok()
            .flatten()?;
        parse_artifact(&String::from_utf8(bytes).ok()?)
    }

    /// Stores an artifact in both tiers. Disk-tier I/O failures never fail
    /// the compile — the cache is an accelerator, not a system of record —
    /// but they are counted in [`CacheTierStats::disk_write_errors`] and
    /// warned once per process.
    pub fn store(&self, key: Digest, artifact: Arc<Artifact>) {
        if let Some(store) = &self.disk {
            // Write-combining group commit: park the rendered entry, then
            // commit *everything* parked once the store lock is ours. While
            // one writer fsyncs, concurrent writers pile into `pending`;
            // the next lock holder commits them all under a single WAL
            // fsync ([`Store::put_many`]).
            lock_poison_ok(&self.pending).push((key, render_artifact(&artifact).into_bytes()));
            let mut store = lock_poison_ok(store);
            let batch = std::mem::take(&mut *lock_poison_ok(&self.pending));
            if !batch.is_empty() {
                if let Err(e) = store.put_many(&batch) {
                    self.disk_write_errors.fetch_add(1, Ordering::Relaxed);
                    self.metrics.disk_write_errors.inc();
                    // Keyed per directory: a process serving many stores
                    // warns once *per store*, not once overall.
                    log::warn_once(
                        &format!("cache-disk-write-error:{:?}", self.config.disk_dir),
                        "weaver-engine",
                        &format!(
                            "paged store put failed ({e}); artifacts may not persist — \
                             continuing without"
                        ),
                    );
                }
            }
        }
        self.insert_memory(key, artifact);
    }

    fn insert_memory(&self, key: Digest, artifact: Arc<Artifact>) {
        let mut memory = lock_poison_ok(&self.memory);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        memory.insert(key, MemoryEntry { artifact, stamp });
        while memory.len() > self.config.memory_capacity.max(1) {
            // `len > max(1) ≥ 1` makes the map nonempty, but stay defensive
            // rather than panic on a request path.
            let Some(oldest) = memory.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) else {
                break;
            };
            memory.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.metrics.evictions.inc();
        }
    }

    /// Runs a full checksum scan of the paged disk tier; `None` when the
    /// disk tier is absent.
    pub fn verify_disk(&self) -> Option<store::VerifyReport> {
        lock_poison_ok(self.disk.as_ref()?).verify().ok()
    }

    /// Point-in-time paged-store statistics for introspection surfaces
    /// (`weaverc cache stats`, the daemon admin verb); `None` when the
    /// disk tier is absent.
    pub fn store_stats(&self) -> Option<store::StoreStats> {
        Some(lock_poison_ok(self.disk.as_ref()?).stats())
    }

    /// Point-in-time tier counters.
    pub fn stats(&self) -> CacheTierStats {
        let mut stats = CacheTierStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_write_errors: self.disk_write_errors.load(Ordering::Relaxed),
            ..CacheTierStats::default()
        };
        if let Some(s) = self.store_stats() {
            stats.checksum_failures = s.checksum_failures;
            stats.wal_replayed = s.wal_replayed;
            stats.recoveries = s.recoveries;
            stats.buffer_evictions = s.buffer_evictions;
        }
        stats
    }
}

impl Drop for ArtifactCache {
    /// Best-effort checkpoint so a clean shutdown truncates the WAL and the
    /// next open replays nothing. A crash skips this — that's what the WAL
    /// is for.
    fn drop(&mut self) {
        // `store` drains `pending` under the store lock on every call, so
        // it is normally empty here — but flush defensively in case a
        // parked batch was orphaned by a panicking writer.
        if let Some(store) = &self.disk {
            let mut store = lock_poison_ok(store);
            let batch = std::mem::take(&mut *lock_poison_ok(&self.pending));
            if !batch.is_empty() {
                let _ = store.put_many(&batch);
            }
            let _ = store.checkpoint();
        }
    }
}

// ---------------------------------------------------------------------------
// Disk-tier serialization (framed text, one artifact per store entry)
// ---------------------------------------------------------------------------

fn escape_line(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn opt_usize(v: Option<usize>) -> String {
    v.map_or("-".to_string(), |n| n.to_string())
}

fn opt_bool(v: Option<bool>) -> String {
    v.map_or("-".to_string(), |b| b.to_string())
}

/// Renders an artifact in the on-disk format (`weaver-artifact 2`; version
/// 2 added the per-pass timing trace — version-1 entries parse as misses
/// and recompile).
pub(crate) fn render_artifact(a: &Artifact) -> String {
    let mut out = String::new();
    out.push_str("weaver-artifact 2\n");
    let m = &a.metrics;
    // `{}` on f64 prints the shortest round-tripping decimal, so parsing
    // recovers the exact bits.
    let _ = writeln!(out, "compilation_seconds {}", m.compilation_seconds);
    let _ = writeln!(out, "execution_micros {}", m.execution_micros);
    let _ = writeln!(out, "eps {}", m.eps);
    let _ = writeln!(out, "pulses {}", m.pulses);
    let _ = writeln!(out, "motion_ops {}", m.motion_ops);
    let _ = writeln!(out, "steps {}", m.steps);
    let _ = writeln!(out, "swap_count {}", opt_usize(a.swap_count));
    let _ = writeln!(out, "num_colors {}", opt_usize(a.num_colors));
    let _ = writeln!(out, "check_passed {}", opt_bool(a.check_passed));
    let _ = writeln!(out, "passes {}", a.passes.len());
    for p in &a.passes {
        // Pass names are identifiers (no spaces), so `name seconds steps`
        // splits unambiguously from the right.
        let _ = writeln!(out, "{} {} {}", escape_line(&p.name), p.seconds, p.steps);
    }
    let _ = writeln!(out, "check_errors {}", a.check_errors.len());
    for e in &a.check_errors {
        let _ = writeln!(out, "{}", escape_line(e));
    }
    let _ = writeln!(out, "wqasm {}", a.wqasm.len());
    out.push_str(&a.wqasm);
    out
}

/// Parses the on-disk format; any malformation yields `None` (a cache miss).
pub(crate) fn parse_artifact(text: &str) -> Option<Artifact> {
    struct Cursor<'a> {
        rest: &'a str,
    }
    impl<'a> Cursor<'a> {
        fn line(&mut self) -> Option<&'a str> {
            let idx = self.rest.find('\n')?;
            let (line, tail) = self.rest.split_at(idx);
            self.rest = &tail[1..];
            Some(line)
        }
        fn field(&mut self, name: &str) -> Option<&'a str> {
            self.line()?.strip_prefix(name)?.strip_prefix(' ')
        }
        fn opt_usize(&mut self, name: &str) -> Option<Option<usize>> {
            match self.field(name)? {
                "-" => Some(None),
                v => v.parse().ok().map(Some),
            }
        }
    }

    let mut cur = Cursor { rest: text };
    if cur.line()? != "weaver-artifact 2" {
        return None;
    }
    let metrics = Metrics {
        compilation_seconds: cur.field("compilation_seconds")?.parse().ok()?,
        execution_micros: cur.field("execution_micros")?.parse().ok()?,
        eps: cur.field("eps")?.parse().ok()?,
        pulses: cur.field("pulses")?.parse().ok()?,
        motion_ops: cur.field("motion_ops")?.parse().ok()?,
        steps: cur.field("steps")?.parse().ok()?,
    };
    let swap_count = cur.opt_usize("swap_count")?;
    let num_colors = cur.opt_usize("num_colors")?;
    let check_passed = match cur.field("check_passed")? {
        "-" => None,
        "true" => Some(true),
        "false" => Some(false),
        _ => return None,
    };
    let pass_count: usize = cur.field("passes")?.parse().ok()?;
    let mut passes = Vec::with_capacity(pass_count.min(64));
    for _ in 0..pass_count {
        // `name seconds steps`, split from the right so escaped names keep
        // their content intact.
        let mut fields = cur.line()?.rsplitn(3, ' ');
        let steps: u64 = fields.next()?.parse().ok()?;
        let seconds: f64 = fields.next()?.parse().ok()?;
        let name = unescape_line(fields.next()?);
        passes.push(crate::job::PassTiming {
            name,
            seconds,
            steps,
        });
    }
    let error_count: usize = cur.field("check_errors")?.parse().ok()?;
    let mut check_errors = Vec::with_capacity(error_count.min(1024));
    for _ in 0..error_count {
        check_errors.push(unescape_line(cur.line()?));
    }
    let wqasm_len: usize = cur.field("wqasm")?.parse().ok()?;
    if cur.rest.len() != wqasm_len {
        return None;
    }
    Some(Artifact {
        wqasm: cur.rest.to_string(),
        metrics,
        passes,
        swap_count,
        num_colors,
        check_passed,
        check_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_core::cache::Fingerprint;

    fn sample_artifact(tag: usize) -> Artifact {
        Artifact {
            wqasm: format!("OPENQASM 3.0;\n// artifact {tag}\nqubit[3] q;\n"),
            metrics: Metrics {
                compilation_seconds: 0.125 + tag as f64,
                execution_micros: 1.0 / 3.0,
                eps: 1e-7,
                pulses: 10 + tag,
                motion_ops: 3,
                steps: 99,
            },
            passes: vec![
                crate::job::PassTiming {
                    name: "qaoa-lower".to_string(),
                    seconds: 0.25 + tag as f64,
                    steps: 0,
                },
                crate::job::PassTiming {
                    name: "sabre-transpile".to_string(),
                    seconds: 1.0 / 7.0,
                    steps: 42,
                },
            ],
            swap_count: None,
            num_colors: Some(2),
            check_passed: Some(true),
            check_errors: vec!["line one\nline two".to_string(), "back\\slash".to_string()],
        }
    }

    fn key(tag: u64) -> Digest {
        let mut fp = Fingerprint::new();
        fp.u64(tag);
        fp.digest()
    }

    #[test]
    fn disk_format_roundtrips_exactly() {
        let a = sample_artifact(7);
        let parsed = parse_artifact(&render_artifact(&a)).expect("parse");
        assert_eq!(parsed, a);
    }

    #[test]
    fn malformed_disk_entries_are_misses() {
        assert!(parse_artifact("").is_none());
        assert!(parse_artifact("weaver-artifact 2\n").is_none());
        // Version-1 entries (no pass trace) are stale and must miss.
        assert!(parse_artifact("weaver-artifact 1\n").is_none());
        let truncated = &render_artifact(&sample_artifact(1))[..40];
        assert!(parse_artifact(truncated).is_none());
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("weaver-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ArtifactCache::new(CacheConfig {
            memory_capacity: 2,
            ..CacheConfig::default()
        })
        .unwrap();
        cache.store(key(1), Arc::new(sample_artifact(1)));
        cache.store(key(2), Arc::new(sample_artifact(2)));
        assert!(cache.lookup(&key(1)).is_some()); // refresh 1
        cache.store(key(3), Arc::new(sample_artifact(3))); // evicts 2
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(2)).is_none());
        assert!(cache.lookup(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache() {
        let dir = test_dir("fresh");
        let config = CacheConfig {
            memory_capacity: 8,
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let first = ArtifactCache::new(config.clone()).unwrap();
        first.store(key(9), Arc::new(sample_artifact(9)));
        // The paged store is single-writer: release it before the "fresh
        // process" below opens the same directory.
        drop(first);
        // A fresh cache (new process, cold memory) finds the disk entry.
        let second = ArtifactCache::new(config).unwrap();
        let (artifact, outcome) = second.lookup(&key(9)).expect("disk hit");
        assert_eq!(outcome, CacheOutcome::DiskHit);
        assert_eq!(*artifact, sample_artifact(9));
        // And it is promoted into memory.
        let (_, outcome) = second.lookup(&key(9)).expect("memory hit");
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        drop(second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_group_commit_consistently() {
        let dir = test_dir("groupcommit");
        let config = CacheConfig {
            memory_capacity: 64,
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let cache = ArtifactCache::new(config.clone()).unwrap();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..8u64 {
                        let tag = 1000 + t * 100 + i;
                        cache.store(key(tag), Arc::new(sample_artifact(tag as usize)));
                    }
                });
            }
        });
        let stats = cache.store_stats().expect("paged tier");
        assert_eq!(stats.artifacts, 32);
        // Every store() call commits (possibly batched with others), so the
        // fsync count never exceeds the write count; batching is timing-
        // dependent, so equality is allowed but not required.
        assert!(stats.wal_fsyncs <= 32, "stats: {stats:?}");
        drop(cache);
        // All 32 artifacts are durable and byte-identical after reopen.
        let reopened = ArtifactCache::new(config).unwrap();
        for t in 0..4u64 {
            for i in 0..8u64 {
                let tag = 1000 + t * 100 + i;
                let (artifact, outcome) = reopened.lookup(&key(tag)).expect("disk hit");
                assert_eq!(outcome, CacheOutcome::DiskHit);
                assert_eq!(*artifact, sample_artifact(tag as usize));
            }
        }
        assert!(reopened.verify_disk().expect("paged tier").consistent());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
