//! Persistent, content-addressed storage for enforcement plans.
//!
//! The hybrid pre-pass (`sct_symbolic::plan_program`) re-runs symbolic
//! exploration and the Lee–Jones–Ben-Amram closure check — the expensive,
//! PSPACE-hard-in-general part — from scratch on every invocation, even
//! for byte-identical `define`s. This crate makes "verify once, serve
//! many" real across *processes*: a [`DiskCache`] persists one entry per
//! `define` — its decision, plus the contract summary callers stub it
//! with when it has one — addressed by the content key of
//! [`sct_symbolic::digest::ProgramDigests`] (resolved AST + transitively
//! reachable defines + mutation taint + planner config + codec version),
//! so that
//!
//! * re-planning an unchanged program performs zero verifier work — every
//!   define is a disk hit;
//! * editing one `define` re-verifies exactly that define (and its
//!   transitive referers), because only their keys changed;
//! * two processes — or the `sct serve` daemon's planning threads — share
//!   one cache directory safely: writes are atomic (`tmp` + `rename`) and
//!   readers accept any well-formed entry or recompute.
//!
//! # Layout and robustness
//!
//! Entries live at `<dir>/<k[0..2]>/<k>.plan` (256-way fan-out keeps
//! directories small at production populations), one single-line
//! `sct-plan/3` document per key: a decision and its summary are published
//! by one atomic rename and lost, corrupted or quarantined together, so a
//! decision hit never comes without its summary. Every load failure —
//! missing file, truncation, corruption, schema version mismatch, rebind
//! mismatch — is a *miss*, never an error: the planner recomputes and the
//! next store overwrites the bad entry. A stale-but-decodable entry is
//! impossible because the key commits to all decision inputs; see
//! `sct_core::plan_codec`. Undecodable bytes are *quarantined* — renamed
//! to `<k>.quarantine` for operator inspection, counted in
//! [`CacheStats::quarantined`] — rather than silently deleted; a
//! quarantined key recomputes and the next store publishes a clean entry
//! (the self-heal path `tests/faults.rs` pins under injected torn
//! writes).
//!
//! # Fault injection
//!
//! Every I/O step is threaded with `sct-faults` failpoints so chaos tests
//! can drive the daemon through disk failures deterministically:
//! `cache.load.read` (read fails → miss), `cache.store.dir`,
//! `cache.store.write` (supports `enospc` and `torn`),
//! `cache.store.rename`. All of them degrade, by construction, to the
//! recompute-every-time regime — planning never fails because the disk
//! did.
//!
//! # Examples
//!
//! ```
//! use sct_cache::DiskCache;
//! use sct_lang::compile_program;
//! use sct_symbolic::{plan_program_incremental, PlanCache, PlanConfig};
//!
//! let dir = std::env::temp_dir().join(format!("sct-cache-doc-{}", std::process::id()));
//! let prog = compile_program(
//!     "(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))").unwrap();
//! let cfg = PlanConfig::default();
//!
//! let mut disk = DiskCache::open(&dir).unwrap();
//! let (_cold, s1) = plan_program_incremental(&prog, &cfg, &mut PlanCache::new(), &mut disk);
//! assert_eq!((s1.hits(), s1.misses()), (0, 1));
//!
//! // A different process (fresh handle, same directory): pure hits.
//! let mut disk2 = DiskCache::open(&dir).unwrap();
//! let (_warm, s2) = plan_program_incremental(&prog, &cfg, &mut PlanCache::new(), &mut disk2);
//! assert_eq!((s2.hits(), s2.misses()), (1, 0));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]

use sct_core::plan_codec::{decode_entry, encode_entry, PortableDecision};
use sct_symbolic::pipeline::DecisionStore;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A store's traffic as plain numbers, read from its [`CacheObs`]
/// handles; surfaced by the `--cache-dir` CLI summary and by tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads answered from a persisted, decodable entry.
    pub hits: u64,
    /// Loads that found nothing usable (absent file).
    pub misses: u64,
    /// Loads that found a file but rejected it (truncated, corrupt, or
    /// wrong schema version) — counted *in addition* to the miss.
    pub rejected: u64,
    /// Rejected entries whose bytes were preserved as `<key>.quarantine`
    /// for operator inspection (a subset of `rejected`; the rename is
    /// best-effort, falling back to deletion).
    pub quarantined: u64,
    /// Entries written.
    pub stores: u64,
    /// I/O failures swallowed while writing (the cache degrades to
    /// recompute-every-time rather than failing the plan).
    pub write_errors: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses ({} rejected), {} stores",
            self.hits, self.misses, self.rejected, self.stores
        )
    }
}

/// The one ledger of a store's traffic: the [`CacheStats`] counters
/// plus load/store latency histograms. [`CacheObs::register`] names them
/// `cache.*` in an [`sct_obs::Registry`]; the default handles belong to
/// no registry, which is what a store starts with until
/// [`DiskCache::with_obs`] / [`MemStore::with_obs`] replaces them.
#[derive(Debug, Clone, Default)]
pub struct CacheObs {
    hits: sct_obs::Counter,
    misses: sct_obs::Counter,
    rejected: sct_obs::Counter,
    quarantined: sct_obs::Counter,
    stores: sct_obs::Counter,
    write_errors: sct_obs::Counter,
    load_us: sct_obs::Histogram,
    store_us: sct_obs::Histogram,
}

impl CacheObs {
    /// Register the `cache.*` metric family in `reg` and return handles.
    pub fn register(reg: &sct_obs::Registry) -> CacheObs {
        CacheObs {
            hits: reg.counter("cache.hits"),
            misses: reg.counter("cache.misses"),
            rejected: reg.counter("cache.rejected"),
            quarantined: reg.counter("cache.quarantined"),
            stores: reg.counter("cache.stores"),
            write_errors: reg.counter("cache.write_errors"),
            load_us: reg.histogram("cache.load_us"),
            store_us: reg.histogram("cache.store_us"),
        }
    }

    /// The counters' current values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            rejected: self.rejected.get(),
            quarantined: self.quarantined.get(),
            stores: self.stores.get(),
            write_errors: self.write_errors.get(),
        }
    }

    /// Accounts one load that started at `start`.
    fn loaded<T>(&self, result: Option<T>, start: std::time::Instant) -> Option<T> {
        match result {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        self.load_us.record_elapsed_us(start);
        result
    }

    /// Accounts one store that started at `start`.
    fn stored(&self, ok: bool, start: std::time::Instant) {
        match ok {
            true => self.stores.inc(),
            false => self.write_errors.inc(),
        }
        self.store_us.record_elapsed_us(start);
    }
}

/// Process-wide counter for temp-file names: two [`DiskCache`] handles in
/// one process (two servers, or library use from multiple threads) must
/// never build the same `.tmp-<pid>-<n>-<key>` name, or one handle's
/// write could truncate the bytes the other is about to publish.
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The on-disk, content-addressed decision store. See the crate docs.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    obs: CacheObs,
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the error when the directory cannot be created — an
    /// unusable cache location is a configuration mistake the user should
    /// see once, up front, rather than a silent full-miss regime.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            dir,
            obs: CacheObs::default(),
        })
    }

    /// Count this store's traffic (and load/store latency) in `obs`,
    /// typically handles registered as `cache.*` in a registry.
    pub fn with_obs(mut self, obs: CacheObs) -> DiskCache {
        self.obs = obs;
        self
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Traffic counters so far (hits/misses/rejects/stores).
    pub fn stats(&self) -> CacheStats {
        self.obs.stats()
    }

    /// The path an entry for `key` lives at: `<dir>/<k[0..2]>/<k>.plan`.
    /// Keys are 32-hex-char digests; anything else would be a caller bug,
    /// but the path shape stays well-defined for any ASCII key.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        let shard = key.get(0..2).unwrap_or("xx");
        self.dir.join(shard).join(format!("{key}.plan"))
    }

    /// Number of `.plan` entries currently on disk (test/diagnostic aid).
    pub fn entry_count(&self) -> usize {
        self.count_files("plan")
    }

    /// Number of `.quarantine` files currently on disk (diagnostic aid).
    pub fn quarantine_count(&self) -> usize {
        self.count_files("quarantine")
    }

    /// Number of files with extension `ext` in the two-level layout.
    fn count_files(&self, ext: &str) -> usize {
        let Ok(shards) = fs::read_dir(&self.dir) else {
            return 0;
        };
        shards
            .flatten()
            .filter_map(|s| fs::read_dir(s.path()).ok())
            .flat_map(|files| files.flatten())
            .filter(|f| f.path().extension().is_some_and(|e| e == ext))
            .count()
    }

    /// Preserves the undecodable bytes at `path` as `<key>.quarantine`
    /// (best-effort; deletion is the fallback) so an operator can inspect
    /// what corrupted, and the key recomputes either way.
    fn quarantine(&self, path: &Path) {
        let bad = path.with_extension("quarantine");
        if fs::rename(path, &bad).is_ok() {
            self.obs.quarantined.inc();
        } else {
            fs::remove_file(path).ok();
        }
    }
}

impl DecisionStore for DiskCache {
    fn load(&mut self, key: &str) -> Option<PortableDecision> {
        let start = std::time::Instant::now();
        let path = self.entry_path(key);
        // Failpoint: a read that fails (EIO, permission flaps) is a miss,
        // exactly like an absent file — the planner recomputes.
        let result = if sct_faults::io_check("cache.load.read").is_err() {
            None
        } else {
            match fs::read_to_string(&path) {
                Err(_) => None,
                Ok(text) => match decode_entry(&text) {
                    Ok(entry) => Some(entry),
                    Err(_) => {
                        // Truncated / corrupt / version-mismatched:
                        // quarantine the bad bytes and recompute. Never a
                        // crash, and a stale replay is impossible — the
                        // key commits to the decision's inputs.
                        self.obs.rejected.inc();
                        self.quarantine(&path);
                        None
                    }
                },
            }
        };
        self.obs.loaded(result, start)
    }

    fn store(&mut self, key: &str, entry: &PortableDecision) {
        let start = std::time::Instant::now();
        let path = self.entry_path(key);
        let tmp_counter = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let write = || -> io::Result<()> {
            let parent = path.parent().expect("entry path has a shard parent");
            sct_faults::io_check("cache.store.dir")?;
            fs::create_dir_all(parent)?;
            // Atomic publish: writers never expose a half-written entry,
            // so concurrent daemon planners and CLI runs can share a
            // directory. `rename` within one directory is atomic on POSIX;
            // last writer wins, and both wrote equivalent bytes (same key
            // ⇒ same inputs ⇒ same decision).
            let tmp = parent.join(format!(".tmp-{}-{tmp_counter:x}-{key}", std::process::id()));
            let bytes = encode_entry(entry);
            // Failpoints: `enospc`/`error` fail the write outright; `torn`
            // publishes a *truncated* entry through the normal rename —
            // the model of a non-atomic filesystem or a crash that left
            // half the bytes — which the next load must reject and
            // quarantine (the self-heal invariant).
            let bytes: &[u8] = match sct_faults::check("cache.store.write") {
                sct_faults::Action::Torn => &bytes.as_bytes()[..bytes.len() / 2],
                sct_faults::Action::Error => {
                    return Err(io::Error::other("injected fault at cache.store.write"))
                }
                sct_faults::Action::Enospc => {
                    return Err(io::Error::new(
                        io::ErrorKind::StorageFull,
                        "injected ENOSPC at cache.store.write",
                    ))
                }
                _ => bytes.as_bytes(),
            };
            fs::write(&tmp, bytes)?;
            sct_faults::io_check("cache.store.rename").inspect_err(|_| {
                fs::remove_file(&tmp).ok();
            })?;
            fs::rename(&tmp, &path).inspect_err(|_| {
                fs::remove_file(&tmp).ok();
            })?;
            Ok(())
        };
        self.obs.stored(write().is_ok(), start);
    }
}

/// An in-memory [`DecisionStore`] with the same hit/miss accounting as
/// [`DiskCache`] — the zero-I/O back end for tests and for a serve daemon
/// running without `--cache-dir`.
#[derive(Debug, Default)]
pub struct MemStore {
    entries: HashMap<String, PortableDecision>,
    obs: CacheObs,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Count this store's traffic (and load/store latency) in `obs`.
    pub fn with_obs(mut self, obs: CacheObs) -> MemStore {
        self.obs = obs;
        self
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> CacheStats {
        self.obs.stats()
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries held, by content key. Exposed so invalidation tests can
    /// assert exactly *which* defines re-verified or re-summarized after an
    /// edit.
    pub fn entries(&self) -> &HashMap<String, PortableDecision> {
        &self.entries
    }
}

impl DecisionStore for MemStore {
    fn load(&mut self, key: &str) -> Option<PortableDecision> {
        let start = std::time::Instant::now();
        self.obs.loaded(self.entries.get(key).cloned(), start)
    }

    fn store(&mut self, key: &str, entry: &PortableDecision) {
        let start = std::time::Instant::now();
        self.entries.insert(key.to_string(), entry.clone());
        self.obs.stored(true, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::plan::{Decision, PlanDomain};

    fn entry(name: &str) -> PortableDecision {
        PortableDecision {
            name: name.into(),
            decision: Decision::Static {
                guard: vec![PlanDomain::Nat],
            },
            covers_idx: vec![1],
            blame: None,
            detail: "verified".into(),
            micros: 5,
            summary: None,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sct-cache-test-{tag}-{}", std::process::id()))
    }

    const KEY: &str = "0123456789abcdef0123456789abcdef";

    #[test]
    fn disk_round_trip_and_stats() {
        let dir = tmp("roundtrip");
        let mut c = DiskCache::open(&dir).unwrap();
        assert!(c.load(KEY).is_none());
        c.store(KEY, &entry("f"));
        assert_eq!(c.load(KEY), Some(entry("f")));
        assert_eq!(c.entry_count(), 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.rejected), (1, 1, 1, 0));
        assert!(c.entry_path(KEY).starts_with(&dir));
        assert!(c.entry_path(KEY).to_string_lossy().contains("/01/"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_is_rejected_and_cleaned() {
        let dir = tmp("corrupt");
        let mut c = DiskCache::open(&dir).unwrap();
        c.store(KEY, &entry("f"));
        let path = c.entry_path(KEY);
        fs::write(&path, "{ not json").unwrap();
        assert!(c.load(KEY).is_none());
        assert_eq!(c.stats().rejected, 1);
        assert!(!path.exists(), "corrupt entry should be removed");
        // Recompute-and-overwrite path works after rejection.
        c.store(KEY, &entry("f"));
        assert!(c.load(KEY).is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_entry_falls_back() {
        let dir = tmp("truncated");
        let mut c = DiskCache::open(&dir).unwrap();
        c.store(KEY, &entry("f"));
        let path = c.entry_path(KEY);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(c.load(KEY).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_falls_back() {
        let dir = tmp("version");
        let mut c = DiskCache::open(&dir).unwrap();
        c.store(KEY, &entry("f"));
        let path = c.entry_path(KEY);
        let text = fs::read_to_string(&path)
            .unwrap()
            .replace("sct-plan/3", "sct-plan/9");
        fs::write(&path, text).unwrap();
        assert!(c.load(KEY).is_none());
        assert_eq!(c.stats().rejected, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_handles_share_a_directory() {
        let dir = tmp("shared");
        let mut a = DiskCache::open(&dir).unwrap();
        a.store(KEY, &entry("f"));
        let mut b = DiskCache::open(&dir).unwrap();
        assert_eq!(b.load(KEY), Some(entry("f")));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_store_behaves_like_disk() {
        let mut m = MemStore::new();
        assert!(m.is_empty());
        assert!(m.load(KEY).is_none());
        m.store(KEY, &entry("g"));
        assert_eq!(m.load(KEY), Some(entry("g")));
        assert_eq!(m.len(), 1);
        let s = m.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 1, 1));
    }
}
