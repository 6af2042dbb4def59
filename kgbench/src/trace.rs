//! The benchmark's own spans: name, start, end, parent and request id,
//! recorded around each call the benchmark makes into a layer's public
//! function. Spans stay in memory and are written out once at exit.
//!
//! Tracing is armed once per process (`--trace 1`) and can be paused, so a
//! traced run can also time untraced repetitions of the same work and
//! report the spans' own overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one serve request, 0 otherwise.
    pub req: u64,
    /// Benchmark thread the span ran on (0 = main).
    pub lane: u64,
    pub name: String,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();
static ACTIVE: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Open spans of this thread: (id, req).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static LANE: RefCell<u64> = const { RefCell::new(0) };
}

/// Arms the tracer; spans are recorded while it is active.
pub fn arm() {
    TRACER.get_or_init(|| Tracer {
        origin: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
    });
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Pauses or resumes recording (no-op when never armed).
pub fn set_active(on: bool) {
    ACTIVE.store(on && TRACER.get().is_some(), Ordering::SeqCst);
}

pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Names the calling thread's lane in recorded spans.
pub fn set_lane(lane: u64) {
    LANE.with(|l| *l.borrow_mut() = lane);
}

/// Seconds since the tracer's origin for `t` (0 when unarmed).
pub fn at(t: Instant) -> f64 {
    TRACER
        .get()
        .map(|tr| t.saturating_duration_since(tr.origin).as_secs_f64())
        .unwrap_or(0.0)
}

/// An open span; closes when dropped.
pub struct Guard {
    open: Option<(u64, u64, u64, String, Instant)>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, req, name, start)) = self.open.take() {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&(sid, _)| sid == id) {
                    s.truncate(pos);
                }
            });
            push(id, parent, req, name, start, Instant::now());
        }
    }
}

/// Opens a span under the thread's innermost open span.
pub fn span(name: impl Into<String>) -> Guard {
    open(name.into(), None)
}

/// Opens a root span for one serve request; its children inherit `req`.
pub fn request(name: impl Into<String>, req: u64) -> Guard {
    open(name.into(), Some(req))
}

fn open(name: String, req: Option<u64>) -> Guard {
    if !active() {
        return Guard { open: None };
    }
    let tracer = TRACER.get().expect("active implies armed");
    let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, inherited) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
    let (parent, req) = match req {
        Some(r) => (0, r),
        None => (parent, inherited),
    };
    STACK.with(|s| s.borrow_mut().push((id, req)));
    Guard {
        open: Some((id, parent, req, name, Instant::now())),
    }
}

/// Records an already-measured interval as a child of the innermost open
/// span (an epoch reported by the trainer, a handler time reported by the
/// daemon).
pub fn record(name: impl Into<String>, start: Instant, end: Instant) {
    if !active() {
        return;
    }
    let tracer = TRACER.get().expect("active implies armed");
    let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, req) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
    push(id, parent, req, name.into(), start, end);
}

fn push(id: u64, parent: u64, req: u64, name: String, start: Instant, end: Instant) {
    let tracer = TRACER.get().expect("span opened on an armed tracer");
    let lane = LANE.with(|l| *l.borrow());
    let span = Span {
        id,
        parent,
        req,
        lane,
        name,
        start: at(start),
        end: at(end.max(start)),
    };
    tracer
        .spans
        .lock()
        .expect("span buffer poisoned")
        .push(span);
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    TRACER
        .get()
        .map(|t| t.spans.lock().expect("span buffer poisoned").clone())
        .unwrap_or_default()
}

/// Self time of each span: its duration minus the part of it covered by
/// its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, (s.dur() - covered(&kids, s.start, s.end)).max(0.0))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map(|(a, b)| b - a).unwrap_or(0.0)
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use kgtosa_obs::Json;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let row = Json::Obj(vec![
            ("id".into(), Json::Num(s.id as f64)),
            ("parent".into(), Json::Num(s.parent as f64)),
            ("req".into(), Json::Num(s.req as f64)),
            ("lane".into(), Json::Num(s.lane as f64)),
            ("name".into(), Json::Str(s.name.clone())),
            ("start_s".into(), Json::Num(s.start)),
            ("end_s".into(), Json::Num(s.end)),
        ]);
        writeln!(out, "{row}")?;
    }
    out.flush()
}

/// Pauses span recording for its lifetime.
pub struct Paused(bool);

impl Paused {
    pub fn new() -> Self {
        let was = active();
        set_active(false);
        Paused(was)
    }
}

impl Drop for Paused {
    fn drop(&mut self) {
        set_active(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let iv = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (-1.0, 0.5)];
        assert!((covered(&iv, 0.0, 5.5) - 3.5).abs() < 1e-12);
        assert_eq!(covered(&[], 0.0, 1.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, start, end| Span {
            id,
            parent,
            req: 0,
            lane: 0,
            name: String::new(),
            start,
            end,
        };
        let spans = [
            mk(1, 0, 0.0, 10.0),
            mk(2, 1, 1.0, 4.0),
            mk(3, 1, 5.0, 8.0),
            mk(4, 2, 1.0, 2.0),
        ];
        let st = self_times(&spans);
        assert!((st[&1] - 4.0).abs() < 1e-12);
        assert!((st[&2] - 2.0).abs() < 1e-12);
        assert!((st[&3] - 3.0).abs() < 1e-12);
        // Self times telescope to the root's wall.
        assert!((st.values().sum::<f64>() - 10.0).abs() < 1e-12);
    }
}
