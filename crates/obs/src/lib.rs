//! Zero-dependency observability for the sct stack: an atomic metric
//! registry plus a structured JSONL span tracer ([`trace`]).
//!
//! The registry holds three metric kinds, all updated lock-free:
//!
//! * [`Counter`] — a monotone `u64` (`requests.plan`, `cache.hits`, …).
//! * [`Gauge`] — a signed instantaneous level (`serve.inflight`).
//! * [`Histogram`] — 64 log2-spaced buckets over `u64` samples
//!   (microsecond latencies, sizes). Recording is two relaxed atomic
//!   adds; quantiles (p50/p90/p99) are estimated from the buckets at
//!   snapshot time.
//!
//! Handles are cheap `Arc` clones registered by name in a [`Registry`];
//! registration takes a lock once, after which every `inc`/`record` is
//! wait-free. [`Registry::snapshot`] reads the whole registry into a
//! plain [`Snapshot`] that renders as JSON or Prometheus-style text.
//!
//! # One registry per invocation
//!
//! There is no process-wide registry: every invocation owns one. Each
//! `sct serve` server builds its own in [`Registry::new`], so concurrent
//! in-process daemons (the test suite runs many) never share counters,
//! and each one-shot CLI command run with `--metrics` builds one for
//! that command. Every layer (store, planner, VM) counts into the
//! registry it is handed, so each event is counted once, in one place.
//!
//! # Coherence
//!
//! A snapshot is taken while writers run. Counters and gauges are single
//! atomics, so each value read is exact at some instant and monotone
//! between snapshots. A histogram's `count`/`sum`/buckets are separate
//! atomics: a sample landing mid-snapshot may appear in one and not the
//! other, but every completed `record` before the snapshot is fully
//! visible and nothing is ever lost — the in-crate coherence test pins
//! both properties.
//!
//! # Example
//!
//! ```
//! use sct_obs::Registry;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache.hits");
//! let lat = reg.histogram("cache.load_us");
//! hits.inc();
//! lat.record(90);
//! lat.record(1100);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("cache.hits"), Some(1));
//! let h = snap.histogram("cache.load_us").unwrap();
//! assert_eq!(h.count, 2);
//! assert!(h.quantile(0.5).unwrap() >= 64); // p50 in the 64..=127 bucket
//! ```

#![deny(missing_docs)]

pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of log2 buckets in a [`Histogram`]: bucket 0 holds zeros,
/// bucket `i` (1 ≤ i < 63) holds `2^(i-1) ..= 2^i - 1`, bucket 63 holds
/// everything from `2^62` up.
pub const BUCKETS: usize = 64;

/// Recover a possibly poisoned lock: metric state is plain data, safe to
/// read after a writer panicked.
fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A monotone event counter. Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, inflight requests).
/// Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Overwrite the level.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log2-bucketed histogram of `u64` samples. Recording is lock-free;
/// quantiles are estimated from the bucket boundaries at snapshot time
/// ([`HistogramSnapshot::quantile`]). Cloning shares the buckets.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`,
/// clamped so the top bucket absorbs everything from `2^62` up.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record the whole microseconds elapsed since `start` — the idiom
    /// for latency histograms (`*_us` metrics).
    pub fn record_elapsed_us(&self, start: Instant) {
        self.record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
    }

    /// Read the buckets into a plain value.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of a [`Histogram`]'s buckets.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Per-bucket counts (see [`bucket_lower`]/[`bucket_upper`]).
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 < q <= 1.0`) by locating the
    /// bucket holding the rank-`⌈q·count⌉` sample and interpolating
    /// linearly inside it. The estimate always lies within the bucket
    /// that contains the true quantile (the property test pins this).
    /// `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_lower(i);
                let hi = bucket_upper(i);
                let frac = (rank - seen) as f64 / n as f64;
                // f64 rounding near u64::MAX can land one past the
                // bucket; saturate and clamp so the estimate always
                // stays inside [lo, hi].
                let off = ((hi - lo) as f64 * frac) as u64;
                return Some(lo.saturating_add(off).min(hi));
            }
            seen += n;
        }
        None // unreachable when count matches buckets; defensive
    }

    /// Mean sample, `None` when empty.
    pub fn mean(&self) -> Option<u64> {
        self.sum.checked_div(self.count)
    }
}

/// A named collection of metrics. Handles returned by
/// [`counter`](Registry::counter) / [`gauge`](Registry::gauge) /
/// [`histogram`](Registry::histogram) are get-or-create: asking twice
/// for the same name yields handles sharing one atomic.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// An empty, private registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        lock_or_recover(&self.counters)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        lock_or_recover(&self.gauges)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        lock_or_recover(&self.histograms)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Read every metric into a plain, name-sorted [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock_or_recover(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock_or_recover(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock_or_recover(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a whole [`Registry`], sorted by metric name.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge levels.
    pub gauges: Vec<(String, i64)>,
    /// Histogram bucket copies.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Render as a JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:
    /// {"count":..,"sum":..,"p50":..,"p90":..,"p99":..,
    /// "buckets":[[upper,count],..]}}}`. Only non-empty buckets are
    /// listed; quantile fields are omitted for empty histograms. All
    /// `u64` values are clamped to `i64::MAX` — most JSON consumers
    /// (including the in-tree parser) read integers as `i64`, and the
    /// top bucket's upper bound is `u64::MAX` by construction.
    pub fn to_json(&self) -> String {
        fn ji(v: u64) -> u64 {
            v.min(i64::MAX as u64)
        }
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(k), ji(*v)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(k), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{}",
                json_escape(k),
                ji(h.count),
                ji(h.sum)
            ));
            for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                if let Some(v) = h.quantile(q) {
                    out.push_str(&format!(",\"{label}\":{}", ji(v)));
                }
            }
            out.push_str(",\"buckets\":[");
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("[{},{}]", ji(bucket_upper(b)), ji(n)));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Render as Prometheus-style exposition text: one `# TYPE` line per
    /// metric, names sanitized to `[a-zA-Z0-9_]`, histograms exported
    /// summary-style as `_count`, `_sum`, and `{quantile="…"}` rows.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = prom_name(k);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let n = prom_name(k);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let n = prom_name(k);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                if let Some(v) = h.quantile(q) {
                    out.push_str(&format!("{n}{{quantile=\"{label}\"}} {v}\n"));
                }
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        let g = reg.gauge("lvl");
        g.inc();
        g.add(5);
        g.dec();
        assert_eq!(reg.gauge("lvl").get(), 5);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn snapshot_is_sorted_and_renders() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").add(2);
        reg.gauge("g").set(-1);
        reg.histogram("h").record(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "a");
        assert_eq!(snap.counters[1].0, "b");
        let json = snap.to_json();
        assert!(json.contains("\"a\":2"), "{json}");
        assert!(json.contains("\"g\":-1"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE a counter"), "{prom}");
        assert!(prom.contains("h_count 1"), "{prom}");
        assert!(prom.contains("h{quantile=\"0.5\"} "), "{prom}");
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default().snapshot();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
    }
}
