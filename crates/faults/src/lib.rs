//! Deterministic failpoint injection for the serving + persistence stack.
//!
//! A *failpoint* is a named site in production code (`"cache.store.write"`,
//! `"serve.plan"`, …) that normally does nothing. Arming it — from a
//! test, the `SCT_FAULTS` environment variable, or `sct serve --faults` —
//! makes the site report an [`Action`] the caller then acts out: return an
//! injected I/O error, panic, stall, or tear a write. Chaos tests drive
//! the daemon with faults armed and assert the *invariants that must
//! survive them*: every request gets exactly one answer, degraded plans
//! are never `Static`, the cache self-heals.
//!
//! # Determinism
//!
//! A site fires according to its spec alone: an optional fire budget
//! (`*N` — fire on the first N hits, then disarm) and an optional seeded
//! probability (`@P` — fire on ~P/1000 of hits, decided by a hash of
//! `(seed, site, hit-index)`, not by a global RNG). Two runs with the same
//! spec, seed, and hit sequence inject exactly the same faults — there is
//! no wall-clock or thread-identity input. `Date`-free by construction.
//!
//! # Spec grammar
//!
//! ```text
//! spec   := entry (';' entry)*
//! entry  := 'seed' '=' u64
//!         | site '=' action ('*' count)? ('@' permille)?
//! action := 'error' | 'enospc' | 'torn' | 'panic' | 'stall-<millis>'
//! ```
//!
//! Example: `seed=3;cache.store.write=enospc@500;serve.plan=panic*1`
//! — ENOSPC on ~half of cache writes (deterministically chosen by seed 3),
//! and the first planning thread panics.
//!
//! # Cost when disarmed
//!
//! [`check`] is one relaxed atomic load when nothing is armed. With the
//! `noop` cargo feature the registry is compiled out entirely and every
//! site is a constant [`Action::Pass`].
//!
//! # Examples
//!
//! ```
//! use sct_faults::{check, scoped, Action};
//!
//! assert_eq!(check("demo.site"), Action::Pass); // disarmed
//! {
//!     let _armed = scoped("demo.site=error*2").unwrap();
//!     assert_eq!(check("demo.site"), Action::Error);
//!     assert_eq!(check("demo.site"), Action::Error);
//!     assert_eq!(check("demo.site"), Action::Pass); // budget spent
//! }
//! assert_eq!(check("demo.site"), Action::Pass); // guard dropped
//! ```

#![deny(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed failpoint tells its site to do. Sites interpret the
/// action in their own terms — a cache write maps [`Action::Error`] to a
/// swallowed `io::Error`, the planning thread maps [`Action::Panic`] to a
/// real `panic!` — so the injection exercises the *production* failure
/// path, not a test-only shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Not armed (or armed but not firing on this hit): do the real work.
    Pass,
    /// Fail with a generic injected error (sites map it to `io::Error`
    /// or an equivalent domain error).
    Error,
    /// Fail as if the disk were full (`ErrorKind::StorageFull`).
    Enospc,
    /// Corrupt the operation's payload — a write site publishes a
    /// truncated ("torn") entry instead of the full bytes.
    Torn,
    /// Panic at the site (`panic!("injected fault at <site>")`).
    Panic,
    /// Sleep for the given duration before doing the real work.
    Stall(Duration),
}

/// One armed site: the action, an optional remaining-fire budget, and an
/// optional per-hit probability in permille.
#[derive(Debug, Clone)]
struct Site {
    action: Action,
    /// `None` = unlimited; `Some(n)` = fire on at most n more hits.
    fires_left: Option<u64>,
    /// `None` = every hit; `Some(p)` = fire on ~p/1000 of hits, decided
    /// deterministically from (seed, site, hit index).
    permille: Option<u16>,
    /// Total hits observed (fired or not) — the deterministic index.
    hits: u64,
    /// Total fires (for test assertions via [`fired`]).
    fired: u64,
}

#[derive(Debug, Default)]
struct Registry {
    seed: u64,
    sites: HashMap<String, Site>,
}

/// Fast disarmed gate: flipped true while any site is armed.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: std::sync::OnceLock<Mutex<Registry>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    // A panic *while holding* this lock can only come from an armed
    // Panic action evaluated outside it; registry state is plain data,
    // so recovering from poison is always safe.
    registry().lock().unwrap_or_else(|p| p.into_inner())
}

/// SplitMix64: the deterministic per-hit coin. Good avalanche, no state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a: stable across platforms and runs (DefaultHasher is not
    // guaranteed stable, and determinism is this crate's contract).
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Parses one action token (`error`, `enospc`, `torn`, `panic`,
/// `stall-<ms>`).
fn parse_action(token: &str) -> Result<Action, String> {
    match token {
        "error" => Ok(Action::Error),
        "enospc" => Ok(Action::Enospc),
        "torn" => Ok(Action::Torn),
        "panic" => Ok(Action::Panic),
        other => match other.strip_prefix("stall-") {
            Some(ms) => ms
                .parse::<u64>()
                .map(|ms| Action::Stall(Duration::from_millis(ms)))
                .map_err(|_| format!("bad stall duration in {other:?}")),
            None => Err(format!(
                "unknown action {other:?} (error|enospc|torn|panic|stall-<ms>)"
            )),
        },
    }
}

/// Arms failpoints from a spec string (see the module docs for the
/// grammar). Entries merge into the current registry: re-arming a site
/// replaces its previous entry, `seed=` replaces the seed.
///
/// # Errors
///
/// Returns a description of the first malformed entry; well-formed
/// entries before it are already armed.
pub fn arm(spec: &str) -> Result<(), String> {
    for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
        let (site, rhs) = entry
            .split_once('=')
            .ok_or_else(|| format!("missing '=' in failpoint entry {entry:?}"))?;
        let (site, rhs) = (site.trim(), rhs.trim());
        if site == "seed" {
            let seed = rhs
                .parse::<u64>()
                .map_err(|_| format!("bad seed {rhs:?}"))?;
            lock().seed = seed;
            continue;
        }
        // Split off @permille, then *count, then the action.
        let (rest, permille) = match rhs.split_once('@') {
            Some((r, p)) => (
                r,
                Some(
                    p.parse::<u16>()
                        .ok()
                        .filter(|p| *p <= 1000)
                        .ok_or_else(|| format!("bad permille {p:?} in {entry:?} (0..=1000)"))?,
                ),
            ),
            None => (rhs, None),
        };
        let (action_text, fires_left) = match rest.split_once('*') {
            Some((a, n)) => (
                a,
                Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("bad fire count {n:?} in {entry:?}"))?,
                ),
            ),
            None => (rest, None),
        };
        let action = parse_action(action_text.trim())?;
        lock().sites.insert(
            site.to_string(),
            Site {
                action,
                fires_left,
                permille,
                hits: 0,
                fired: 0,
            },
        );
    }
    ANY_ARMED.store(!lock().sites.is_empty(), Ordering::Release);
    Ok(())
}

/// Arms failpoints from the `SCT_FAULTS` environment variable (and the
/// seed from `SCT_FAULTS_SEED`, overridable by an in-spec `seed=`).
/// Returns the armed spec when one was found.
///
/// # Errors
///
/// As [`arm`], for a malformed `SCT_FAULTS` value.
pub fn arm_from_env() -> Result<Option<String>, String> {
    if let Ok(seed) = std::env::var("SCT_FAULTS_SEED") {
        let seed = seed
            .parse::<u64>()
            .map_err(|_| format!("bad SCT_FAULTS_SEED {seed:?}"))?;
        lock().seed = seed;
    }
    match std::env::var("SCT_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            arm(&spec)?;
            Ok(Some(spec))
        }
        _ => Ok(None),
    }
}

/// Disarms every failpoint and resets the seed.
pub fn disarm_all() {
    let mut reg = lock();
    reg.sites.clear();
    reg.seed = 0;
    ANY_ARMED.store(false, Ordering::Release);
}

/// An RAII guard from [`scoped`]: disarms everything on drop.
#[derive(Debug)]
pub struct Armed(());

impl Drop for Armed {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Arms `spec` and returns a guard that disarms *all* failpoints when
/// dropped — the shape tests want. The registry is process-global, so
/// tests arming failpoints must serialize among themselves (a shared
/// `Mutex<()>` in the test module is the convention).
///
/// # Errors
///
/// As [`arm`]; nothing stays armed on error.
pub fn scoped(spec: &str) -> Result<Armed, String> {
    arm(spec).inspect_err(|_| disarm_all())?;
    Ok(Armed(()))
}

/// Evaluates the failpoint at `site`: [`Action::Pass`] unless the site is
/// armed *and* fires on this hit (budget not exhausted, probability coin
/// up). The returned action is for the caller to act out — [`check`]
/// itself never panics, stalls, or errors.
#[cfg(not(feature = "noop"))]
pub fn check(site: &str) -> Action {
    if !ANY_ARMED.load(Ordering::Acquire) {
        return Action::Pass;
    }
    let mut reg = lock();
    let seed = reg.seed;
    let Some(entry) = reg.sites.get_mut(site) else {
        return Action::Pass;
    };
    let hit = entry.hits;
    entry.hits += 1;
    if entry.fires_left == Some(0) {
        return Action::Pass;
    }
    if let Some(p) = entry.permille {
        let coin = splitmix64(seed ^ site_hash(site) ^ hit) % 1000;
        if coin >= u64::from(p) {
            return Action::Pass;
        }
    }
    if let Some(n) = &mut entry.fires_left {
        *n -= 1;
    }
    entry.fired += 1;
    entry.action
}

/// The `noop` build: every site is a constant pass.
#[cfg(feature = "noop")]
pub fn check(_site: &str) -> Action {
    Action::Pass
}

/// How many times `site` has fired (0 when never armed). Test aid.
pub fn fired(site: &str) -> u64 {
    lock().sites.get(site).map_or(0, |s| s.fired)
}

/// Maps the failpoint at `site` to an I/O result: [`Action::Error`]
/// becomes a generic injected `io::Error`, [`Action::Enospc`] an
/// out-of-space error; every other action (including [`Action::Torn`],
/// which only write sites can act out) passes. The convenience shape for
/// filesystem sites:
///
/// ```
/// # fn body() -> std::io::Result<()> { Ok(()) }
/// fn store() -> std::io::Result<()> {
///     sct_faults::io_check("cache.store.write")?;
///     body()
/// }
/// ```
///
/// # Errors
///
/// The injected error, when the site fires with an I/O-shaped action.
pub fn io_check(site: &str) -> std::io::Result<()> {
    match check(site) {
        Action::Error => Err(std::io::Error::other(format!("injected fault at {site}"))),
        Action::Enospc => Err(std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            format!("injected ENOSPC at {site}"),
        )),
        Action::Panic => panic!("injected panic at {site}"),
        Action::Stall(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        Action::Pass | Action::Torn => Ok(()),
    }
}

/// Acts out the non-I/O actions at `site`: panics on [`Action::Panic`],
/// sleeps on [`Action::Stall`], ignores the rest. The convenience shape
/// for control-flow sites such as the planning thread.
pub fn act(site: &str) {
    match check(site) {
        Action::Panic => panic!("injected panic at {site}"),
        Action::Stall(d) => std::thread::sleep(d),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The registry is process-global: tests must not interleave.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_is_pass() {
        let _s = serial();
        disarm_all();
        assert_eq!(check("nope"), Action::Pass);
        assert_eq!(fired("nope"), 0);
    }

    #[test]
    fn budget_limits_fires() {
        let _s = serial();
        let _g = scoped("a.b=error*2").unwrap();
        assert_eq!(check("a.b"), Action::Error);
        assert_eq!(check("a.b"), Action::Error);
        assert_eq!(check("a.b"), Action::Pass);
        assert_eq!(fired("a.b"), 2);
    }

    #[test]
    fn unrelated_sites_do_not_fire() {
        let _s = serial();
        let _g = scoped("a.b=panic").unwrap();
        assert_eq!(check("a.c"), Action::Pass);
    }

    #[test]
    fn probability_is_deterministic_in_seed_and_hit_index() {
        let _s = serial();
        let pattern = |seed: u64| -> Vec<bool> {
            let _g = scoped(&format!("seed={seed};p.q=error@400")).unwrap();
            (0..64).map(|_| check("p.q") == Action::Error).collect()
        };
        let a = pattern(7);
        let b = pattern(7);
        assert_eq!(a, b, "same seed must reproduce the same fire pattern");
        let c = pattern(8);
        assert_ne!(a, c, "a different seed must perturb the pattern");
        let rate = a.iter().filter(|f| **f).count();
        assert!((10..=40).contains(&rate), "~40% of 64, got {rate}");
    }

    #[test]
    fn stall_parses_with_duration() {
        let _s = serial();
        let _g = scoped("s.t=stall-25").unwrap();
        assert_eq!(check("s.t"), Action::Stall(Duration::from_millis(25)));
    }

    #[test]
    fn io_check_maps_enospc() {
        let _s = serial();
        let _g = scoped("d.e=enospc*1").unwrap();
        let err = io_check("d.e").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert!(io_check("d.e").is_ok());
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _s = serial();
        for bad in [
            "no-equals",
            "a.b=warp",
            "a.b=stall-xx",
            "a.b=error*x",
            "a.b=error@1001",
            "seed=minus",
        ] {
            assert!(scoped(bad).is_err(), "{bad:?} should be rejected");
        }
        assert_eq!(check("a.b"), Action::Pass, "nothing stays armed on error");
    }

    #[test]
    fn rearming_replaces_and_guard_disarms() {
        let _s = serial();
        {
            let _g = scoped("x.y=panic").unwrap();
            arm("x.y=error").unwrap();
            assert_eq!(check("x.y"), Action::Error);
        }
        assert_eq!(check("x.y"), Action::Pass);
    }
}
