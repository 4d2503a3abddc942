//! Content hashing and the compilation-cache handle threaded through the
//! pipeline (`weaver-engine`'s artifact cache builds on these primitives).
//!
//! Two things live here:
//!
//! * [`Blake2s`] / [`Digest`] / [`Fingerprint`] — a dependency-free
//!   BLAKE2s-256 implementation used to content-address compilation
//!   artifacts (canonical formula ⊕ target parameters ⊕ options ⊕ compiler
//!   version) and checker device traces,
//! * [`CacheHandle`] — a cheaply clonable, thread-safe memo store shared by
//!   concurrent compilations: the wChecker's per-annotation device-state
//!   traces (so re-checking an unchanged annotation stream skips pulse
//!   re-simulation) and the wOptimizer's per-clause execution plans.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Compiler version folded into every artifact key, so a new release never
/// serves artifacts produced by an old one.
pub const COMPILER_VERSION: &str = env!("CARGO_PKG_VERSION");

// ---------------------------------------------------------------------------
// BLAKE2s-256
// ---------------------------------------------------------------------------

/// A 256-bit content digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lower-case hex rendering (cache file names, JSONL records).
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

const IV: [u32; 8] = [
    0x6A09_E667,
    0xBB67_AE85,
    0x3C6E_F372,
    0xA54F_F53A,
    0x510E_527F,
    0x9B05_688C,
    0x1F83_D9AB,
    0x5BE0_CD19,
];

const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

/// Streaming BLAKE2s-256 hasher (RFC 7693, unkeyed, sequential mode).
#[derive(Clone)]
pub struct Blake2s {
    h: [u32; 8],
    t: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Blake2s {
    /// A fresh hasher.
    pub fn new() -> Self {
        let mut h = IV;
        // Parameter block: digest_length = 32, key_length = 0, fanout = 1,
        // depth = 1.
        h[0] ^= 0x0101_0020;
        Blake2s {
            h,
            t: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            if self.buf_len == 64 {
                // Only compress a full buffer once more input exists — the
                // final block must be compressed with the last-block flag.
                self.t += 64;
                let block = self.buf;
                self.compress(&block, false);
                self.buf_len = 0;
            }
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
        }
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Digest {
        self.t += self.buf_len as u64;
        let mut block = [0u8; 64];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        self.compress(&block, true);
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64], last: bool) {
        let mut m = [0u32; 16];
        for (i, word) in m.iter_mut().enumerate() {
            *word = u32::from_le_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        let mut v = [0u32; 16];
        v[..8].copy_from_slice(&self.h);
        v[8..].copy_from_slice(&IV);
        v[12] ^= self.t as u32;
        v[13] ^= (self.t >> 32) as u32;
        if last {
            v[14] = !v[14];
        }
        #[inline(always)]
        fn g(v: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize, x: u32, y: u32) {
            v[a] = v[a].wrapping_add(v[b]).wrapping_add(x);
            v[d] = (v[d] ^ v[a]).rotate_right(16);
            v[c] = v[c].wrapping_add(v[d]);
            v[b] = (v[b] ^ v[c]).rotate_right(12);
            v[a] = v[a].wrapping_add(v[b]).wrapping_add(y);
            v[d] = (v[d] ^ v[a]).rotate_right(8);
            v[c] = v[c].wrapping_add(v[d]);
            v[b] = (v[b] ^ v[c]).rotate_right(7);
        }
        for s in &SIGMA {
            g(&mut v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
            g(&mut v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
            g(&mut v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
            g(&mut v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
            g(&mut v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
            g(&mut v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
            g(&mut v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
            g(&mut v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
        }
        for i in 0..8 {
            self.h[i] ^= v[i] ^ v[i + 8];
        }
    }
}

impl Default for Blake2s {
    fn default() -> Self {
        Blake2s::new()
    }
}

/// A typed writer over [`Blake2s`] for building structured cache keys.
/// Every field write is length- or tag-framed, so adjacent variable-length
/// fields cannot collide by concatenation.
#[derive(Clone, Default)]
pub struct Fingerprint {
    hasher: Blake2s,
}

impl Fingerprint {
    /// A fresh fingerprint builder.
    pub fn new() -> Self {
        Fingerprint::default()
    }

    /// Writes a domain-separation / variant tag.
    pub fn tag(&mut self, t: u8) -> &mut Self {
        self.hasher.update(&[t]);
        self
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.hasher.update(&v.to_le_bytes());
        self
    }

    /// Writes a `usize` (as `u64`, portable across word sizes).
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Writes an `f64` by bit pattern (distinguishes `-0.0` from `0.0`,
    /// which is exactly what byte-identical artifacts need).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Writes a boolean.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.tag(v as u8)
    }

    /// Writes a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        self.hasher.update(s.as_bytes());
        self
    }

    /// Writes length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.usize(b.len());
        self.hasher.update(b);
        self
    }

    /// Finishes the key.
    pub fn digest(self) -> Digest {
        self.hasher.finalize()
    }
}

// ---------------------------------------------------------------------------
// Shared memo store
// ---------------------------------------------------------------------------

/// One recorded device interaction of a wChecker run, in encounter order.
/// Replaying a trace yields exactly the outcomes a live [`weaver_fpqa::FpqaDevice`]
/// simulation would produce for the same annotation stream.
#[derive(Clone, Debug, PartialEq)]
pub enum DeviceEvent {
    /// A setup annotation (`@slm`, `@aod`, `@bind`) outcome.
    Setup(Result<(), String>),
    /// A motion annotation (`@transfer`, `@shuttle`) outcome.
    Motion(Result<(), String>),
    /// A `@rydberg` interaction-group query outcome.
    Groups(Result<Vec<Vec<usize>>, String>),
}

/// The full device interaction trace of one checker run.
pub type DeviceTrace = Vec<DeviceEvent>;

/// Cache hit/miss counters, snapshotted by [`CacheHandle::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Checker device-trace hits (pulse re-simulation skipped).
    pub checker_hits: u64,
    /// Checker device-trace misses (live simulation recorded).
    pub checker_misses: u64,
    /// Clause-plan memo hits.
    pub plan_hits: u64,
    /// Clause-plan memo misses.
    pub plan_misses: u64,
}

#[derive(Default)]
struct CacheInner {
    device_traces: Mutex<HashMap<Digest, Arc<DeviceTrace>>>,
    clause_plans: Mutex<HashMap<Digest, Arc<crate::codegen::ClausePlan>>>,
    checker_hits: AtomicU64,
    checker_misses: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
}

/// A cheaply clonable, thread-safe handle to the shared compilation memo
/// store. All clones see the same underlying store; `Default` builds an
/// empty one.
///
/// # Examples
///
/// ```
/// use weaver_core::cache::CacheHandle;
/// use weaver_core::{Weaver, Workload};
/// use weaver_sat::generator;
///
/// let cache = CacheHandle::new();
/// let weaver = Weaver::new();
/// let f = Workload::MaxSat(generator::instance(20, 1));
/// let out = weaver.compile_workload_cached("fpqa", &f, Some(&cache)).unwrap();
/// // First verification records the device trace, the second replays it.
/// for _ in 0..2 {
///     let report = weaver.verify_workload(&out, &f, Some(&cache)).unwrap();
///     assert!(report.passed());
/// }
/// assert_eq!(cache.stats().checker_hits, 1);
/// ```
#[derive(Clone, Default)]
pub struct CacheHandle {
    inner: Arc<CacheInner>,
}

impl fmt::Debug for CacheHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheHandle")
            .field("stats", &self.stats())
            .finish()
    }
}

impl CacheHandle {
    /// An empty memo store.
    pub fn new() -> Self {
        CacheHandle::default()
    }

    /// Looks up a recorded checker device trace, counting hit/miss.
    pub fn device_trace(&self, key: &Digest) -> Option<Arc<DeviceTrace>> {
        let found = self.inner.device_traces.lock().unwrap().get(key).cloned();
        match &found {
            Some(_) => self.inner.checker_hits.fetch_add(1, Ordering::Relaxed),
            None => self.inner.checker_misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a checker device trace.
    pub fn store_device_trace(&self, key: Digest, trace: DeviceTrace) {
        self.inner
            .device_traces
            .lock()
            .unwrap()
            .insert(key, Arc::new(trace));
    }

    pub(crate) fn clause_plan(&self, key: &Digest) -> Option<Arc<crate::codegen::ClausePlan>> {
        let found = self.inner.clause_plans.lock().unwrap().get(key).cloned();
        match &found {
            Some(_) => self.inner.plan_hits.fetch_add(1, Ordering::Relaxed),
            None => self.inner.plan_misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    pub(crate) fn store_clause_plan(&self, key: Digest, plan: crate::codegen::ClausePlan) {
        self.inner
            .clause_plans
            .lock()
            .unwrap()
            .insert(key, Arc::new(plan));
    }

    /// A point-in-time snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            checker_hits: self.inner.checker_hits.load(Ordering::Relaxed),
            checker_misses: self.inner.checker_misses.load(Ordering::Relaxed),
            plan_hits: self.inner.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.inner.plan_misses.load(Ordering::Relaxed),
        }
    }
}

/// Hashes the full parameter set of an FPQA backend into `fp` — every field
/// that can influence compilation or checking.
pub fn fingerprint_fpqa_params(fp: &mut Fingerprint, p: &weaver_fpqa::FpqaParams) {
    fp.tag(0xF0);
    fp.f64(p.min_trap_distance)
        .f64(p.rydberg_radius)
        .f64(p.max_transfer_distance)
        .f64(p.movement_speed)
        .f64(p.shuttle_overhead)
        .f64(p.raman_local_duration)
        .f64(p.raman_global_duration)
        .f64(p.rydberg_duration)
        .f64(p.transfer_duration)
        .f64(p.fidelity_1q)
        .f64(p.fidelity_cz)
        .f64(p.fidelity_ccz)
        .f64(p.fidelity_transfer)
        .f64(p.movement_loss_per_um)
        .f64(p.t2_coherence);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        let mut h = Blake2s::new();
        h.update(data);
        h.finalize().to_hex()
    }

    #[test]
    fn blake2s_rfc7693_vectors() {
        // RFC 7693 appendix B ("abc") and the standard empty-input vector.
        assert_eq!(
            hex(b"abc"),
            "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"
        );
        assert_eq!(
            hex(b""),
            "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9"
        );
    }

    #[test]
    fn blake2s_streaming_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let oneshot = hex(&data);
        for chunk in [1usize, 3, 63, 64, 65, 127, 997] {
            let mut h = Blake2s::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize().to_hex(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn fingerprint_framing_prevents_concat_collisions() {
        let mut a = Fingerprint::new();
        a.str("ab").str("c");
        let mut b = Fingerprint::new();
        b.str("a").str("bc");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn cache_handle_counts_hits_and_misses() {
        let cache = CacheHandle::new();
        let key = Fingerprint::new().digest();
        assert!(cache.device_trace(&key).is_none());
        cache.store_device_trace(key, vec![DeviceEvent::Setup(Ok(()))]);
        assert!(cache.device_trace(&key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.checker_hits, stats.checker_misses), (1, 1));
    }

    #[test]
    fn clones_share_the_store() {
        let cache = CacheHandle::new();
        let clone = cache.clone();
        let key = Fingerprint::new().digest();
        clone.store_device_trace(key, Vec::new());
        assert!(cache.device_trace(&key).is_some());
    }
}
