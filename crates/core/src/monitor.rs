//! Monitor configuration and the §5 overhead-reduction machinery.
//!
//! The paper lists three optimizations that take naive monitoring from
//! "prohibitively expensive" to "acceptable for debugging":
//!
//! 1. **Reducing monitoring frequency** — exponential backoff per function:
//!    because strict progress down a well-founded order can only happen
//!    finitely often, a non-SCT program violates the principle at *any*
//!    checking frequency; checking every 2ᵏ-th call preserves the guarantee
//!    while slashing overhead (at the cost of keeping older argument
//!    snapshots alive longer — the trade-off §5 notes).
//! 2. **Whitelisting known functions** — primitives never need monitoring;
//!    the interpreter applies this by construction (primitives are not
//!    closures) and exposes [`MonitorConfig::whitelist`] for user functions.
//! 3. **Loop entries only** — only functions observed to re-enter their own
//!    dynamic extent need graphs; for mutually recursive `even?`/`odd?`
//!    called from top level, only `even?` is a loop entry.

use crate::intern::FxBuildHasher;
use std::collections::HashMap;
use std::hash::Hash;

/// Which of §5's two table-maintenance strategies the interpreter uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TableStrategy {
    /// One global stack of pending checked calls plus restore frames. Fast
    /// lookups; breaks proper tail calls (every application pushes a
    /// restore continuation).
    #[default]
    Imperative,
    /// The table is a persistent value stored in a continuation mark; tail
    /// calls replace the mark and returns discard it. Preserves proper tail
    /// calls; slower in tight loops (Figure 10's two orders of magnitude).
    ContinuationMark,
}

/// How often a function's size-change graph is extended and checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackoffPolicy {
    /// Check on every application (the formal semantics).
    #[default]
    EveryCall,
    /// Exponential backoff: check on calls 1, 2, 4, 8, … scaled by `factor`
    /// (a factor of 2 doubles the gap after each check).
    Exponential {
        /// Multiplier applied to the check interval after each check; must
        /// be at least 2 to be exponential.
        factor: u32,
    },
}

/// How closures are keyed in the size-change table (§5: "we instead hash
/// the closure and consider all closures with the same hash code to be
/// equivalent").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KeyStrategy {
    /// Key on (λ-term identity, structural hash of captured environment):
    /// the paper's implementation. Sound (the table cannot grow without
    /// bound) but may produce false positives on hash collisions.
    #[default]
    Structural,
    /// Key on the λ-term only, conflating all its closures — what a static
    /// control-flow analysis must do (§2.2's `len`-in-CPS example shows the
    /// precision this loses).
    LambdaOnly,
    /// Key on the allocation identity of the closure: maximally precise,
    /// distinguishes even structurally equal closures. Matches the formal
    /// model only when structural equality and identity coincide.
    Allocation,
}

/// Complete monitor configuration carried by the interpreter.
///
/// # Examples
///
/// ```
/// use sct_core::monitor::{BackoffPolicy, MonitorConfig, TableStrategy};
///
/// let cfg = MonitorConfig::default()
///     .with_strategy(TableStrategy::ContinuationMark)
///     .with_backoff(BackoffPolicy::Exponential { factor: 2 });
/// assert_eq!(cfg.strategy, TableStrategy::ContinuationMark);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MonitorConfig {
    /// Table-maintenance strategy.
    pub strategy: TableStrategy,
    /// Check-frequency policy.
    pub backoff: BackoffPolicy,
    /// When true, build graphs only for observed loop entries.
    pub loop_entries_only: bool,
    /// Closure keying strategy.
    pub key_strategy: KeyStrategy,
    /// Names of user functions assumed terminating (never monitored), the
    /// §5 whitelist. Primitives are whitelisted by construction.
    pub whitelist: Vec<String>,
}

impl MonitorConfig {
    /// A configuration that checks every call with the imperative strategy —
    /// the closest match to the formal semantics.
    pub fn strict() -> MonitorConfig {
        MonitorConfig::default()
    }

    /// Sets the table strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: TableStrategy) -> MonitorConfig {
        self.strategy = strategy;
        self
    }

    /// Sets the backoff policy.
    #[must_use]
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> MonitorConfig {
        self.backoff = backoff;
        self
    }

    /// Sets the closure key strategy.
    #[must_use]
    pub fn with_key_strategy(mut self, key_strategy: KeyStrategy) -> MonitorConfig {
        self.key_strategy = key_strategy;
        self
    }

    /// Enables loop-entry-only monitoring.
    #[must_use]
    pub fn with_loop_entries_only(mut self, on: bool) -> MonitorConfig {
        self.loop_entries_only = on;
        self
    }

    /// Adds a user function to the known-terminating whitelist.
    #[must_use]
    pub fn whitelisting(mut self, name: impl Into<String>) -> MonitorConfig {
        self.whitelist.push(name.into());
        self
    }
}

#[derive(Debug, Clone, Copy)]
struct BackoffEntry {
    /// Calls seen since tracking began.
    count: u64,
    /// Call number at which to check next.
    next_check: u64,
}

/// Per-function call counters implementing [`BackoffPolicy::Exponential`].
///
/// This is deliberately *heuristic, mutable* state outside the semantics:
/// skipping a check never unsoundly accepts a diverging program, it only
/// delays detection, so the counters need no dynamic-extent discipline.
///
/// # Examples
///
/// ```
/// use sct_core::monitor::{Backoff, BackoffPolicy};
///
/// let mut b: Backoff<u32> = Backoff::new(BackoffPolicy::Exponential { factor: 2 });
/// let checks: Vec<bool> = (0..8).map(|_| b.should_check(&7)).collect();
/// assert_eq!(checks, [true, true, false, true, false, false, false, true]);
/// ```
#[derive(Debug, Default)]
pub struct Backoff<K> {
    policy: BackoffPolicy,
    counters: HashMap<K, BackoffEntry, FxBuildHasher>,
}

impl<K: Hash + Eq + Clone> Backoff<K> {
    /// Creates a counter table for the given policy.
    pub fn new(policy: BackoffPolicy) -> Backoff<K> {
        Backoff {
            policy,
            counters: HashMap::default(),
        }
    }

    /// Records a call to `key` and decides whether this one is checked.
    pub fn should_check(&mut self, key: &K) -> bool {
        match self.policy {
            BackoffPolicy::EveryCall => true,
            BackoffPolicy::Exponential { factor } => {
                let factor = factor.max(2) as u64;
                let entry = self.counters.entry(key.clone()).or_insert(BackoffEntry {
                    count: 0,
                    next_check: 1,
                });
                entry.count += 1;
                if entry.count >= entry.next_check {
                    entry.next_check = entry.count.saturating_mul(factor);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Forgets all counters (e.g. when a fresh contract extent begins).
    pub fn reset(&mut self) {
        self.counters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_policy_always_checks() {
        let mut b: Backoff<u32> = Backoff::new(BackoffPolicy::EveryCall);
        assert!((0..10).all(|_| b.should_check(&1)));
    }

    #[test]
    fn exponential_checks_thin_out() {
        let mut b: Backoff<u32> = Backoff::new(BackoffPolicy::Exponential { factor: 2 });
        let checks = (1..=1024u64).filter(|_| b.should_check(&1)).count();
        // Checks at calls 1, 2, 4, ..., 1024: 11 of 1024.
        assert_eq!(checks, 11);
    }

    #[test]
    fn exponential_checks_are_unbounded() {
        // Infinitely many checks still happen: divergence is always caught.
        let mut b: Backoff<u32> = Backoff::new(BackoffPolicy::Exponential { factor: 2 });
        let mut last_check_at = 0u64;
        for i in 1..=(1 << 20) {
            if b.should_check(&1) {
                last_check_at = i;
            }
        }
        assert_eq!(
            last_check_at,
            1 << 20,
            "a check lands on every power of two"
        );
    }

    #[test]
    fn counters_are_per_key() {
        let mut b: Backoff<u32> = Backoff::new(BackoffPolicy::Exponential { factor: 2 });
        for _ in 0..3 {
            b.should_check(&1);
        }
        // Key 2 starts fresh: first call is checked.
        assert!(b.should_check(&2));
    }

    #[test]
    fn reset_restarts() {
        let mut b: Backoff<u32> = Backoff::new(BackoffPolicy::Exponential { factor: 2 });
        for _ in 0..4 {
            b.should_check(&1);
        }
        b.reset();
        assert!(b.should_check(&1), "first call after reset is checked");
    }

    #[test]
    fn config_builder() {
        let cfg = MonitorConfig::strict()
            .with_strategy(TableStrategy::ContinuationMark)
            .with_backoff(BackoffPolicy::Exponential { factor: 4 })
            .with_key_strategy(KeyStrategy::LambdaOnly)
            .with_loop_entries_only(true)
            .whitelisting("helper");
        assert_eq!(cfg.strategy, TableStrategy::ContinuationMark);
        assert!(cfg.loop_entries_only);
        assert_eq!(cfg.whitelist, vec!["helper".to_string()]);
    }
}
