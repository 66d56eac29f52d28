//! Size-change termination as a contract — the core library.
//!
//! This crate implements the heart of the PLDI'19 paper: the size-change
//! machinery of §3 (Figures 3–5) in a form usable both by the *dynamic*
//! monitor (the λSCT interpreter in `sct-interp`) and by the *static*
//! verifier (`sct-symbolic`):
//!
//! * [`ScGraph`] — size-change graphs `g ∈ 𝒫(ℕ × r × ℕ)` with the two arc
//!   kinds `↓` (strict descent, the paper's `→` with overdot) and `⇣`
//!   (non-ascent, `→=`), represented densely and composed with the
//!   three-valued semiring of Figure 4.
//! * [`CallSeq`] — the sequence of graphs `⃗g` per monitored function, with
//!   the `prog?` check implemented incrementally: the set of composites of
//!   contiguous suffixes is maintained and only *new* composites are tested
//!   with `desc?`, which is equivalent to re-testing every contiguous
//!   subsequence (previously seen composites already passed) and is what
//!   makes per-call monitoring affordable.
//! * [`intern`] — one graph pool per thread, hash-consing graphs into
//!   `Copy` [`GraphId`]s with `desc?`/idempotence computed once per
//!   distinct graph and binary composition memoized, so steady-state
//!   monitoring is pure cache hits (see `docs/ARCHITECTURE.md`, "Graph
//!   interning and the fixed-point cost model").
//! * [`order`] — the well-founded partial order `≺` of Figure 5 as a trait,
//!   so users can "replace the default order with an appropriate one" (§3.3)
//!   as needed by e.g. `lh-range` or `acl2-fig-2` in Table 1.
//! * [`table`] — the size-change table `m ∈ v ⇀ ⃗v × ⃗g`, in two flavors
//!   matching §5's implementation strategies: a persistent table (for the
//!   continuation-mark strategy, which preserves proper tail calls) and a
//!   LIFO stack of pending checked calls (the imperative strategy, which
//!   breaks them).
//! * [`closure_check`] — the classic Lee–Jones–Ben-Amram
//!   criterion on a *set* of graphs, used by the static verifier once
//!   symbolic execution has enumerated how a function may call itself
//!   (Figure 9).
//! * [`monitor`] — configuration for the §5 optimizations: exponential
//!   backoff, loop-entry-only monitoring, closure key strategies.
//! * [`blame`] — Findler–Felleisen blame labels for `terminating/c` (§2.3).
//! * [`plan`] — the hybrid enforcement plan ([`EnforcementPlan`]): the
//!   per-function record of whether termination was statically discharged,
//!   must be dynamically monitored, or was statically refuted, plus the
//!   [`LjbCache`] memo keyed by graph sets that makes
//!   re-verification free.
//!
//! # Examples
//!
//! Monitoring the Ackermann descent of Figure 1 by hand:
//!
//! ```
//! use sct_core::graph::ScGraph;
//! use sct_core::order::AbsIntOrder;
//! use sct_core::seq::CallSeq;
//!
//! // (ack 2 0) ↝ (ack 1 1) ↝ (ack 1 0): every step must keep prog?.
//! let order = AbsIntOrder;
//! let g1 = ScGraph::from_args(&order, &[2i64, 0], &[1, 1]);
//! let g2 = ScGraph::from_args(&order, &[1i64, 1], &[1, 0]);
//! let seq = CallSeq::new();
//! let seq = seq.push(g1).expect("first call maintains prog?");
//! let _seq = seq.push(g2).expect("second call maintains prog?");
//!
//! // But a non-descending self-call is rejected immediately:
//! let bad = ScGraph::from_args(&order, &[1i64, 1], &[1, 2]);
//! assert!(CallSeq::new().push(bad).is_err());
//! ```

#![deny(missing_docs)]

pub mod blame;
pub mod graph;
pub mod intern;
pub mod json;
pub mod ljb;
pub mod monitor;
pub mod order;
pub mod plan;
pub mod plan_codec;
pub mod seq;
pub mod stable;
pub mod summary_codec;
pub mod table;

pub use blame::BlameLabel;
pub use graph::{Arc, Change, ScGraph};
pub use intern::{FxBuildHasher, GraphId};
pub use ljb::{closure_check, ClosureResult};
pub use monitor::{Backoff, BackoffPolicy, KeyStrategy, MonitorConfig, TableStrategy};
pub use order::{AbsIntOrder, FnOrder, SizeChange, WellFoundedOrder};
pub use plan::{Decision, EnforcementPlan, FnDecision, LjbCache, PlanDomain};
pub use plan_codec::{decode_entry, encode_entry, PortableDecision, PLAN_CODEC_SCHEMA};
pub use seq::{CallSeq, ScViolation};
pub use stable::{Digest128, StableHasher};
pub use table::{FnEntry, MonitorStack, ScTable, StackEntry};
