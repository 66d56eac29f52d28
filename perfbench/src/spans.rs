//! The traced run's span accounting. Spans are captured in memory from
//! the `sct_obs::trace` sink and read back after the run; a span's self
//! time is its duration minus the part of it its children cover.

use sct_core::json::{parse, Json};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// An in-memory trace sink.
#[derive(Clone, Default)]
pub struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .map_err(|_| io::Error::other("trace capture poisoned"))?
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Capture {
    /// Installs this capture as the process's trace sink.
    pub fn arm(&self) {
        sct_obs::trace::to_writer(Box::new(self.clone()));
    }

    /// Flushes into the capture and removes the sink.
    pub fn disarm(&self) {
        sct_obs::trace::disarm();
    }

    fn text(&self) -> String {
        let bytes = self.0.lock().map(|b| b.clone()).unwrap_or_default();
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

struct SpanRec {
    parent: Option<u64>,
    name: String,
    start: u64,
    end: u64,
}

/// Per-name time over the traced ops, in microseconds.
#[derive(Default)]
pub struct Accounting {
    /// Self time by span name (the `bench.op` roots excluded).
    pub self_us: BTreeMap<String, u64>,
    /// Whole duration by span name.
    pub total_us: BTreeMap<String, u64>,
    /// `bench.op` roots found.
    pub ops: usize,
}

fn read_spans(text: &str) -> BTreeMap<u64, SpanRec> {
    let mut spans = BTreeMap::new();
    for line in text.lines() {
        let Ok(doc) = parse(line) else { continue };
        let field = |k: &str| doc.get(k).and_then(Json::as_u64);
        let (Some(id), Some(ts)) = (field("span"), field("ts_us")) else {
            continue;
        };
        match doc.get("ev").and_then(Json::as_str) {
            Some("start") => {
                spans.insert(
                    id,
                    SpanRec {
                        parent: field("parent"),
                        name: doc.get("name").and_then(Json::as_str).unwrap_or("").into(),
                        start: ts,
                        end: ts,
                    },
                );
            }
            Some("end") => {
                if let Some(s) = spans.get_mut(&id) {
                    s.end = s.start + field("dur_us").unwrap_or(0);
                }
            }
            _ => {}
        }
    }
    spans
}

/// Reads the captured spans and accounts every `bench.op` tree. The
/// daemon's `serve.request` roots run on its own threads under their own
/// trace ids; each is grafted under the client span that was waiting
/// for it (the one whose interval contains it).
pub fn account(capture: &Capture) -> Accounting {
    let mut spans = read_spans(&capture.text());
    let clients: Vec<(u64, u64, u64)> = spans
        .iter()
        .filter(|(_, s)| s.name == "serve.client")
        .map(|(&id, s)| (id, s.start, s.end))
        .collect();
    for s in spans.values_mut() {
        if s.parent.is_none() && s.name == "serve.request" {
            s.parent = clients
                .iter()
                .find(|(_, lo, hi)| *lo <= s.start && s.end <= hi + 1)
                .map(|(id, _, _)| *id);
        }
    }
    let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
    for (&id, s) in &spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(id);
        }
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|id| spans[id].start);
    }

    let mut acc = Accounting::default();
    for (&id, s) in &spans {
        if s.parent.is_some() || s.name != "bench.op" {
            continue;
        }
        walk(&spans, &children, id, s.start, s.end, &mut acc);
        acc.ops += 1;
    }
    acc.self_us.remove("bench.op");
    acc.total_us.remove("bench.op");
    acc
}

/// Accounts span `id` clipped to `[lo, hi]`. Children are clipped to the
/// parent and to each other (timestamps are whole microseconds, so
/// siblings can appear to overlap by one), which makes the self times of
/// a tree sum exactly to its root's duration.
fn walk(
    spans: &BTreeMap<u64, SpanRec>,
    children: &HashMap<u64, Vec<u64>>,
    id: u64,
    lo: u64,
    hi: u64,
    acc: &mut Accounting,
) {
    let s = &spans[&id];
    let mut covered = 0;
    let mut cursor = lo;
    for kid in children.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
        let k = &spans[kid];
        let start = k.start.clamp(cursor, hi);
        let end = k.end.clamp(start, hi);
        covered += end - start;
        cursor = end;
        walk(spans, children, *kid, start, end, acc);
    }
    *acc.self_us.entry(s.name.clone()).or_default() += (hi - lo) - covered;
    *acc.total_us.entry(s.name.clone()).or_default() += hi - lo;
}
