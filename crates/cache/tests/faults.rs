//! `DiskCache` under injected disk faults: ENOSPC, failed renames, and
//! torn writes mid-store. The invariant ladder, in order of importance:
//! planning *never fails* because the disk did (it degrades to
//! storeless recompute), the counters record every degradation, and the
//! next clean run repairs the entry — the cache self-heals.

use sct_cache::{CacheObs, CacheStats, DiskCache};
use sct_lang::compile_program;
use sct_symbolic::pipeline::{plan_program, DecisionStore, PlanConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The failpoint registry is process-global: these tests must not
/// interleave with each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sct-cache-faults-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

const SUM: &str = "(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))";

/// Plans SUM against `store`, returning (static-count, hits, misses).
fn plan_sum(store: &mut dyn DecisionStore) -> (usize, usize, usize) {
    let prog = compile_program(SUM).unwrap();
    let (plan, stats) = plan_program(&prog, &PlanConfig::default(), store);
    (plan.count("static"), stats.hits(), stats.misses())
}

#[test]
fn enospc_mid_store_degrades_to_storeless_planning() {
    let _s = serial();
    let dir = scratch("enospc");
    let mut cache = DiskCache::open(&dir).unwrap();
    {
        let _armed = sct_faults::scoped("cache.store.write=enospc").unwrap();
        // Planning succeeds — the full-disk store is swallowed.
        let (static_count, hits, misses) = plan_sum(&mut cache);
        assert_eq!((static_count, hits, misses), (1, 0, 1));
        let s = cache.stats();
        assert_eq!(s.write_errors, 1, "the reject must be recorded: {s:?}");
        assert_eq!(s.stores, 0, "{s:?}");
        assert_eq!(cache.entry_count(), 0, "nothing may reach the directory");
    }
    // Disk recovered: the next run re-verifies (still a miss — nothing
    // was persisted) and repairs the entry; the one after is a pure hit.
    let (_, hits, misses) = plan_sum(&mut cache);
    assert_eq!((hits, misses), (0, 1));
    assert_eq!(cache.stats().stores, 1);
    assert_eq!(cache.entry_count(), 1);
    let (_, hits, misses) = plan_sum(&mut cache);
    assert_eq!((hits, misses), (1, 0), "repaired entry must serve hits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rename_failure_mid_store_leaves_no_debris_and_repairs() {
    let _s = serial();
    let dir = scratch("rename");
    let mut cache = DiskCache::open(&dir).unwrap();
    {
        let _armed = sct_faults::scoped("cache.store.rename=error").unwrap();
        let (static_count, _, _) = plan_sum(&mut cache);
        assert_eq!(static_count, 1, "planning must not fail");
        assert_eq!(cache.stats().write_errors, 1);
        // The temp file must have been cleaned up: no `.tmp-*` debris for
        // a long-running daemon to leak, and — the summary riding inside
        // the unpublished entry — no file at all.
        let leftovers = walk(&dir);
        assert!(
            leftovers.is_empty(),
            "debris after failed rename: {leftovers:?}"
        );
    }
    let (_, _, misses) = plan_sum(&mut cache);
    assert_eq!(misses, 1);
    assert_eq!(cache.entry_count(), 1, "clean run repairs the entry");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_write_is_quarantined_then_self_heals() {
    let _s = serial();
    let dir = scratch("torn");
    let registry = sct_obs::Registry::new();
    let mut cache = DiskCache::open(&dir)
        .unwrap()
        .with_obs(CacheObs::register(&registry));
    {
        // One torn publish: half the entry's bytes land under the real
        // key — the model of a crash mid-write on a non-atomic filesystem.
        let _armed = sct_faults::scoped("cache.store.write=torn*1").unwrap();
        let (static_count, _, _) = plan_sum(&mut cache);
        assert_eq!(static_count, 1);
        assert_eq!(cache.entry_count(), 1, "the torn entry is published");
    }
    // Next run: the torn entry must be rejected (a miss, never a crash or
    // a bad decision), quarantined for inspection, recomputed, and the
    // store repaired.
    let (static_count, hits, misses) = plan_sum(&mut cache);
    assert_eq!((static_count, hits, misses), (1, 0, 1));
    let s = cache.stats();
    assert_eq!(s.rejected, 1, "{s:?}");
    assert_eq!(s.quarantined, 1, "{s:?}");
    assert_eq!(cache.quarantine_count(), 1, "bad bytes kept for operators");
    assert_eq!(cache.entry_count(), 1, "clean entry republished");
    // Self-healed: the run after is a pure hit.
    let (_, hits, misses) = plan_sum(&mut cache);
    assert_eq!((hits, misses), (1, 0));
    // One ledger: the store's stats are the registry's `cache.*`
    // counters, field for field.
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(&format!("cache.{name}")).unwrap();
    let expected = CacheStats {
        hits: counter("hits"),
        misses: counter("misses"),
        rejected: counter("rejected"),
        quarantined: counter("quarantined"),
        stores: counter("stores"),
        write_errors: counter("write_errors"),
    };
    assert_eq!(cache.stats(), expected);
    assert_eq!((expected.hits, expected.misses, expected.stores), (1, 2, 2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_fault_is_a_miss_not_an_error() {
    let _s = serial();
    let dir = scratch("read");
    let mut cache = DiskCache::open(&dir).unwrap();
    let (_, _, misses) = plan_sum(&mut cache);
    assert_eq!(misses, 1);
    {
        let _armed = sct_faults::scoped("cache.load.read=error").unwrap();
        // The persisted entry exists, but reads fail: recompute, don't die.
        let (static_count, hits, misses) = plan_sum(&mut cache);
        assert_eq!((static_count, hits, misses), (1, 0, 1));
    }
    // Reads recovered: warm again.
    let (_, hits, _) = plan_sum(&mut cache);
    assert_eq!(hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_probabilistic_write_faults_never_break_planning() {
    let _s = serial();
    let dir = scratch("prob");
    let mut cache = DiskCache::open(&dir).unwrap();
    let seed: u64 = std::env::var("SCT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let _armed = sct_faults::scoped(&format!("seed={seed};cache.store.write=enospc@500")).unwrap();
    // Distinct programs → distinct keys; every plan must succeed whether
    // or not its store was hit by the fault coin.
    for i in 0..16 {
        let src = format!("(define (f{i} n) (if (zero? n) {i} (f{i} (- n 1))))");
        let prog = compile_program(&src).unwrap();
        let (plan, _) = plan_program(&prog, &PlanConfig::default(), &mut cache);
        assert_eq!(plan.count("static"), 1, "case {i}");
    }
    let s = cache.stats();
    assert_eq!(s.stores + s.write_errors, 16, "{s:?}");
    assert!(s.write_errors > 0, "seeded coin should fail some: {s:?}");
    assert!(s.stores > 0, "…and pass some: {s:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// All file names under the two-level cache layout.
fn walk(dir: &PathBuf) -> Vec<String> {
    let Ok(shards) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    shards
        .flatten()
        .filter_map(|s| std::fs::read_dir(s.path()).ok())
        .flat_map(|files| files.flatten())
        .map(|f| f.file_name().to_string_lossy().into_owned())
        .collect()
}
