//! Concurrency properties of the artifact cache's paged disk tier.
//!
//! Property: N threads hammering `put`/`lookup` — both same-key and
//! distinct-key — never observe a torn or cross-keyed artifact, and the
//! final store passes a full checksum scan. Artifacts are self-validating:
//! the wQasm body encodes its (tag, version) identity and the whole
//! artifact is a deterministic function of it, so any mixed, torn, or
//! stale-beyond-written value fails regeneration.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use weaver::core::cache::{Digest, Fingerprint};
use weaver::core::Metrics;
use weaver::engine::store::StoreTuning;
use weaver::engine::{ArtifactCache, CacheConfig, CacheOutcome, PassTiming};

type Artifact = weaver::engine::Artifact;

fn key(tag: u64) -> Digest {
    let mut fp = Fingerprint::new();
    fp.u64(0xCAFE);
    fp.u64(tag);
    fp.digest()
}

/// The one true artifact for (tag, version): identity in the first wQasm
/// line, deterministic filler sized to span multiple store pages.
fn sample(tag: u64, version: u64) -> Artifact {
    let mut rng = StdRng::seed_from_u64(tag.rotate_left(32) ^ version);
    let mut wqasm = format!("// tag {tag} version {version}\n");
    for _ in 0..rng.gen_range(0usize..40) {
        wqasm.push_str(&format!("// filler {:016x}\n", rng.next_u64()));
    }
    Artifact {
        wqasm,
        metrics: Metrics {
            compilation_seconds: tag as f64 * 0.5,
            execution_micros: version as f64,
            eps: 0.25,
            pulses: tag as usize + 1,
            motion_ops: (version % 7) as usize,
            steps: version,
        },
        passes: vec![PassTiming {
            name: "synthetic".to_string(),
            seconds: 0.125,
            steps: version,
        }],
        swap_count: None,
        num_colors: Some((tag % 5) as usize + 1),
        check_passed: None,
        check_errors: Vec::new(),
    }
}

/// Decodes the identity line; `None` for anything malformed.
fn identity(artifact: &Artifact) -> Option<(u64, u64)> {
    let line = artifact.wqasm.lines().next()?;
    let rest = line.strip_prefix("// tag ")?;
    let (tag, version) = rest.split_once(" version ")?;
    Some((tag.parse().ok()?, version.parse().ok()?))
}

/// Asserts an observed artifact is exactly some committed (tag, version)
/// value for the key it was looked up under.
fn check_observed(tag: u64, artifact: &Artifact, max_version: u64) {
    let (t, v) = identity(artifact).expect("artifact carries its identity");
    assert_eq!(t, tag, "cross-keyed artifact observed");
    assert!(
        v <= max_version,
        "version {v} was never written for tag {tag}"
    );
    assert_eq!(
        *artifact,
        sample(t, v),
        "torn artifact observed for tag {tag} version {v}"
    );
}

fn open_cache(dir: &std::path::Path) -> ArtifactCache {
    ArtifactCache::new(CacheConfig {
        // A tiny memory tier forces most lookups through to disk.
        memory_capacity: 2,
        disk_dir: Some(dir.to_path_buf()),
        store: StoreTuning {
            page_size: 256,
            buffer_pages: 8,
            wal_checkpoint_bytes: 8192,
            fault: None,
        },
    })
    .expect("open paged cache")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn hammering_threads_never_observe_torn_artifacts(
        seed in 0u64..1_000_000_000,
        threads in 2usize..=4,
        ops in 8usize..=24,
        tags in 1u64..=3,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "weaver-store-conc-{}-{seed:x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = open_cache(&dir);
        // One global version counter per tag: versions are unique, and the
        // high-water mark bounds what a reader may legitimately see.
        let version_counter: Vec<AtomicU64> = (0..=tags).map(|_| AtomicU64::new(0)).collect();

        std::thread::scope(|scope| {
            for thread in 0..threads {
                let cache = &cache;
                let version_counter = &version_counter;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ thread as u64);
                    for _ in 0..ops {
                        // Tag 0 is hammered by every thread (same-key
                        // contention); the rest spread out (distinct keys).
                        let tag = if rng.gen_bool(0.4) {
                            0
                        } else {
                            rng.gen_range(0..=tags)
                        };
                        if rng.gen_bool(0.6) {
                            let version = version_counter[tag as usize]
                                .fetch_add(1, Ordering::SeqCst) + 1;
                            cache.store(key(tag), Arc::new(sample(tag, version)));
                        } else if let Some((artifact, _)) = cache.lookup(&key(tag)) {
                            let max = version_counter[tag as usize].load(Ordering::SeqCst);
                            check_observed(tag, &artifact, max);
                        }
                    }
                });
            }
        });

        // The final store passes a full checksum scan...
        let scan = cache.verify_disk().expect("paged tier present");
        prop_assert!(scan.consistent(), "final checksum scan found damage");
        prop_assert_eq!(cache.stats().disk_write_errors, 0);
        drop(cache);

        // ...and a fresh open (cold memory) still serves only intact,
        // correctly-keyed values.
        let reopened = open_cache(&dir);
        for tag in 0..=tags {
            let max = version_counter[tag as usize].load(Ordering::SeqCst);
            if let Some((artifact, outcome)) = reopened.lookup(&key(tag)) {
                assert_eq!(outcome, CacheOutcome::DiskHit);
                check_observed(tag, &artifact, max);
            }
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
