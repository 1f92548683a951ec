//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the library, around calls into its
//! public functions; nothing inside `fdb` knows about them. Each thread
//! records into its own buffer (no lock on the measured path), and
//! [`take`] hands the buffer over when the thread is done. With the
//! recorder off — every end-to-end run — [`span`] is one thread-local
//! flag test around the closure.
//!
//! A span's *self time* is its duration minus the durations of its direct
//! children, so the self times under one root add up to the root's
//! duration exactly: what no named layer claims stays with the root and is
//! reported as unattributed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<u32>,
    /// Spans of one operation share this id.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one thread recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Work counts taken at the same boundaries as the spans.
    pub counters: BTreeMap<&'static str, f64>,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    trace: Trace,
    open: Vec<u32>,
    next_op: u32,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Nanoseconds since the first call in this process; all threads share
/// the origin so their spans line up in `trace.json`.
fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for the calling thread.
pub fn enable(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Runs `f` inside a span named `name`, nested under whichever span is
/// open on this thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    scoped(name, false, f)
}

/// Like [`span`], but starts a new operation: the span is a root and it
/// and everything under it get a fresh op id.
pub fn op<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    scoped(name, true, f)
}

fn scoped<T>(name: &'static str, root: bool, f: impl FnOnce() -> T) -> T {
    let Some(idx) = open(name, root) else { return f() };
    let out = f();
    close(idx);
    out
}

fn open(name: &'static str, root: bool) -> Option<u32> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        if root {
            r.next_op += 1;
        }
        let idx = r.trace.spans.len() as u32;
        let parent = if root { None } else { r.open.last().copied() };
        let op = r.next_op;
        r.trace.spans.push(Span { name, start_ns: now_ns(), end_ns: 0, parent, op });
        r.open.push(idx);
        Some(idx)
    })
}

fn close(idx: u32) {
    let end = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.trace.spans[idx as usize].end_ns = end;
        r.open.pop();
    });
}

/// Adds `by` to the counter `name` (only while recording).
pub fn count(name: &'static str, by: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            *r.trace.counters.entry(name).or_insert(0.0) += by;
        }
    });
}

/// Takes everything the calling thread has recorded so far.
pub fn take() -> Trace {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().trace))
}

/// Self time of every span, in nanoseconds, by index.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-layer totals under the roots named `root`, averaged per root.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    /// Mean seconds per operation inside spans of this name, children
    /// included.
    pub total_s: f64,
    /// Mean seconds per operation of self time.
    pub self_s: f64,
    /// Mean spans of this name per operation.
    pub calls: f64,
}

/// Groups the spans below every root called `root` by name. The root
/// itself is in the map under its own name; its `self_s` is the time no
/// layer claimed.
pub fn layers(spans: &[Span], root: &str) -> BTreeMap<&'static str, LayerTime> {
    let own = self_ns(spans);
    // Spans are pushed when they open, so a parent always precedes its
    // children and one forward pass resolves every span's root.
    let mut under: Vec<bool> = Vec::with_capacity(spans.len());
    let mut roots = 0usize;
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let inside = match s.parent {
            None => {
                let hit = s.name == root;
                roots += usize::from(hit);
                hit
            }
            Some(p) => under[p as usize],
        };
        under.push(inside);
        if inside {
            let l = out.entry(s.name).or_default();
            l.total_s += s.dur_ns() as f64 * 1e-9;
            l.self_s += own[i] as f64 * 1e-9;
            l.calls += 1.0;
        }
    }
    let n = roots.max(1) as f64;
    for l in out.values_mut() {
        l.total_s /= n;
        l.self_s /= n;
        l.calls /= n;
    }
    out
}

/// `trace.json`: every span of every thread, plus the counters.
pub fn to_json(threads: &[(&str, &Trace)]) -> String {
    let mut s = String::from("{\"threads\":[");
    for (t, (name, trace)) in threads.iter().enumerate() {
        if t > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"thread\":\"{name}\",\"counters\":{{"));
        for (i, (k, v)) in trace.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{v}"));
        }
        s.push_str("},\"spans\":[");
        let own = self_ns(&trace.spans);
        for (i, sp) in trace.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                sp.name, sp.op, sp.start_ns, sp.end_ns, own[i]
            ));
        }
        s.push_str("]}");
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    fn record() -> Trace {
        enable(true);
        for _ in 0..3 {
            op("op", || {
                span("a", || {
                    spin(200);
                    span("a.inner", || spin(100));
                });
                span("b", || spin(150));
                spin(50);
            });
        }
        op("other", || span("a", || spin(10)));
        enable(false);
        take()
    }

    #[test]
    fn children_never_exceed_parent_and_selves_sum_to_root() {
        let t = record();
        let own = self_ns(&t.spans);
        for (i, s) in t.spans.iter().enumerate() {
            let kids: u64 =
                t.spans.iter().filter(|c| c.parent == Some(i as u32)).map(Span::dur_ns).sum();
            assert!(kids <= s.dur_ns(), "children of {} cover more than it", s.name);
            assert_eq!(own[i], s.dur_ns() - kids);
        }
        for (i, root) in t.spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
            let sum: u64 =
                t.spans.iter().zip(&own).filter(|(s, _)| s.op == root.op).map(|(_, o)| *o).sum();
            assert_eq!(sum, root.dur_ns(), "self times under root {i} do not add up");
        }
    }

    #[test]
    fn layers_average_per_root_and_keep_roots_apart() {
        let t = record();
        let l = layers(&t.spans, "op");
        assert_eq!(l["op"].calls, 1.0);
        assert_eq!(l["a"].calls, 1.0);
        assert!(l["a"].total_s >= 300e-6 && l["a"].self_s >= 200e-6);
        assert!(l["a"].self_s < l["a"].total_s);
        let sum: f64 = l.values().map(|x| x.self_s).sum();
        assert!((sum - l["op"].total_s).abs() < 1e-9);
        // The "other" root has its own `a`, ten times shorter.
        assert!(layers(&t.spans, "other")["a"].total_s < 100e-6);
        assert!(layers(&t.spans, "missing").is_empty());
    }

    #[test]
    fn recorder_off_records_nothing() {
        enable(false);
        assert_eq!(op("op", || span("a", || 7)), 7);
        count("n", 1.0);
        let t = take();
        assert!(t.spans.is_empty() && t.counters.is_empty());
    }

    #[test]
    fn json_lists_every_span_with_its_self_time() {
        let t = record();
        let j = to_json(&[("main", &t)]);
        assert_eq!(j.matches("\"name\":").count(), t.spans.len());
        assert!(j.contains("\"self_ns\":"));
        assert!(crate::json::parse(&j).is_ok());
    }
}
