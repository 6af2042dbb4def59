//! kgtosa-prof: cost attribution on top of the span machinery.
//!
//! Two layers, both std-only:
//!
//! * **Self-time attribution** — [`self_times`] turns per-span aggregates
//!   (from the live registry or a parsed trace) into a tree where every
//!   span carries its *self* time: wall time minus the wall time of its
//!   direct children. Summed over a tree, self times telescope back to
//!   the root's wall time, which is what makes them a valid cost
//!   breakdown (the paper's Table IV decomposition, but computed instead
//!   of transcribed).
//! * **Sampling profiler** — [`enable_prof`] arms a timer thread that
//!   snapshots every instrumented thread's live span stack at
//!   `KGTOSA_PROF_HZ` (default 97 Hz, deliberately co-prime with common
//!   periodic work). Samples accumulate as collapsed stacks, giving long
//!   leaf spans interior attribution over time even when no child span
//!   ever opens. When profiling is off, the span hot path pays a single
//!   relaxed atomic load — the stack mirror and sampler cost nothing.
//!
//! The collapsed-stack output ([`write_folded`] / [`samples_folded`]) is
//! the `stack;stack;stack count` format consumed by every flamegraph
//! tool (inferno, speedscope, `flamegraph.pl`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::json::Json;
use crate::registry;
use crate::summary::SpanAgg;

static PROF_ON: AtomicBool = AtomicBool::new(false);
static SAMPLER_STARTED: AtomicBool = AtomicBool::new(false);
static SAMPLER_STOP: AtomicBool = AtomicBool::new(false);
/// Sampler ticks completed (one tick snapshots every live thread).
static TICKS: AtomicU64 = AtomicU64::new(0);
/// Active sampling rate in milli-Hz (0 = sampler not running).
static MILLI_HZ: AtomicU64 = AtomicU64::new(0);

/// Whether stack mirroring / sampling is armed. The only cost the span
/// path pays when this is false.
pub fn prof_enabled() -> bool {
    PROF_ON.load(Ordering::Relaxed)
}

/// One thread's mirrored span stack, shared with the sampler thread.
/// Entries are full dotted paths, outermost first (same invariant as the
/// thread-local span stack).
struct ThreadStack {
    frames: Mutex<Vec<String>>,
}

fn thread_registry() -> &'static Mutex<Vec<Weak<ThreadStack>>> {
    static REG: OnceLock<Mutex<Vec<Weak<ThreadStack>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

fn samples() -> &'static Mutex<HashMap<String, u64>> {
    static SAMPLES: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    SAMPLES.get_or_init(|| Mutex::new(HashMap::new()))
}

thread_local! {
    static MY_STACK: RefCell<Option<Arc<ThreadStack>>> = const { RefCell::new(None) };
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Mirrors a span push into this thread's shared stack (no-op unless
/// profiling is on). Called by [`crate::span`] after the thread-local
/// push.
pub(crate) fn on_span_push(path: &str) {
    if !prof_enabled() {
        return;
    }
    let _ = MY_STACK.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let stack = slot.get_or_insert_with(|| {
            let stack = Arc::new(ThreadStack { frames: Mutex::new(Vec::new()) });
            lock(thread_registry()).push(Arc::downgrade(&stack));
            stack
        });
        lock(&stack.frames).push(path.to_string());
    });
}

/// Mirrors a span pop: truncates to `depth - 1` entries, matching the
/// thread-local stack's leak-tolerant pop.
pub(crate) fn on_span_pop(depth: usize) {
    if !prof_enabled() {
        return;
    }
    let _ = MY_STACK.try_with(|cell| {
        if let Some(stack) = cell.borrow().as_ref() {
            let mut frames = lock(&stack.frames);
            let keep = depth.saturating_sub(1).min(frames.len());
            frames.truncate(keep);
        }
    });
}

/// Collapses a live stack (full dotted paths, outermost first) into a
/// `frame;frame;frame` string of *relative* frame names. A nested path
/// always extends its parent's, so the relative name is the suffix past
/// the parent path plus the joining dot; entries that do not extend
/// their predecessor (cannot happen via `span()`, but tolerated) keep
/// their full path.
pub fn fold_stack(frames: &[String]) -> String {
    let mut out = String::new();
    let mut prev: Option<&str> = None;
    for frame in frames {
        if !out.is_empty() {
            out.push(';');
        }
        let rel = prev
            .and_then(|p| frame.strip_prefix(p))
            .and_then(|s| s.strip_prefix('.'))
            .unwrap_or(frame);
        // ';' is the folded-format separator; a span name containing one
        // would corrupt the line.
        for c in rel.chars() {
            out.push(if c == ';' { ':' } else { c });
        }
        prev = Some(frame.as_str());
    }
    out
}

fn sample_once() {
    TICKS.fetch_add(1, Ordering::Relaxed);
    let stacks: Vec<Arc<ThreadStack>> = {
        let mut reg = lock(thread_registry());
        reg.retain(|w| w.strong_count() > 0);
        reg.iter().filter_map(Weak::upgrade).collect()
    };
    for stack in stacks {
        let folded = {
            let frames = lock(&stack.frames);
            if frames.is_empty() {
                continue;
            }
            fold_stack(&frames)
        };
        *lock(samples()).entry(folded).or_insert(0) += 1;
    }
}

/// Arms stack mirroring and, when `hz > 0`, starts the sampler thread.
/// Idempotent; the first caller's rate wins.
pub fn enable_prof(hz: f64) {
    PROF_ON.store(true, Ordering::Relaxed);
    if hz <= 0.0 || SAMPLER_STARTED.swap(true, Ordering::SeqCst) {
        return;
    }
    MILLI_HZ.store((hz * 1000.0).round() as u64, Ordering::Relaxed);
    let period = std::time::Duration::from_secs_f64(1.0 / hz);
    let _ = std::thread::Builder::new()
        .name("kgtosa-prof".into())
        .spawn(move || loop {
            if SAMPLER_STOP.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(period);
            sample_once();
        });
}

/// Default sampling rate (Hz) when `KGTOSA_PROF_HZ` is unset. 97 is
/// prime, so the tick never phase-locks with second- or
/// millisecond-aligned periodic work.
pub const DEFAULT_PROF_HZ: f64 = 97.0;

/// Reads `KGTOSA_PROF_HZ` (default [`DEFAULT_PROF_HZ`]; `0` disables the
/// sampler but keeps self-time attribution) and arms the profiler.
pub fn enable_prof_from_env() {
    let hz = std::env::var("KGTOSA_PROF_HZ")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|hz| hz.is_finite() && *hz >= 0.0)
        .unwrap_or(DEFAULT_PROF_HZ);
    enable_prof(hz);
}

/// Signals the sampler thread to exit (called by [`crate::shutdown`]).
pub(crate) fn stop_sampler() {
    SAMPLER_STOP.store(true, Ordering::Relaxed);
}

/// Sampler ticks completed so far.
pub fn sample_ticks() -> u64 {
    TICKS.load(Ordering::Relaxed)
}

/// Accumulated samples as `(collapsed stack, count)`, sorted by stack
/// for stable output.
pub fn samples_folded() -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> =
        lock(samples()).iter().map(|(k, v)| (k.clone(), *v)).collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// Clears accumulated samples and tick count (tests).
pub fn reset_prof_samples() {
    lock(samples()).clear();
    TICKS.store(0, Ordering::Relaxed);
}

/// One span's position in the attribution tree.
#[derive(Debug, Clone)]
pub struct SelfTime {
    /// Full dotted path as recorded.
    pub name: String,
    /// Index into the result of the direct parent, when one was recorded.
    pub parent: Option<usize>,
    /// Nesting depth under its recorded root (0 = root).
    pub depth: usize,
    /// Cumulative wall time (the span and everything under it).
    pub total_s: f64,
    /// Wall time attributed to the span itself: total minus direct
    /// children, clamped at zero (clock noise can make children sum past
    /// their parent by nanoseconds).
    pub self_s: f64,
    /// Allocations attributed to the span itself (total minus children,
    /// clamped — the allocator counters are process-global, so this is
    /// attribution by containment, not by thread).
    pub self_allocs: u64,
    pub count: u64,
    pub peak_max_bytes: usize,
}

/// Computes self-time attribution over per-span aggregates. The parent
/// of a span is the *longest* other span name that prefixes it at a dot
/// boundary — exactly how `span()` builds nested paths. Input order is
/// preserved in the output; the result is a forest when several roots
/// were recorded (e.g. spans from spawned threads).
pub fn self_times(aggs: &[SpanAgg]) -> Vec<SelfTime> {
    let mut rows: Vec<SelfTime> = aggs
        .iter()
        .map(|a| SelfTime {
            name: a.name.clone(),
            parent: None,
            depth: 0,
            total_s: a.total_s,
            self_s: a.total_s,
            self_allocs: a.allocs,
            count: a.count,
            peak_max_bytes: a.peak_max_bytes,
        })
        .collect();
    for (i, row) in rows.iter_mut().enumerate() {
        let mut best: Option<usize> = None;
        for (j, cand) in aggs.iter().enumerate() {
            if i == j || row.name.len() <= cand.name.len() {
                continue;
            }
            let is_parent = row
                .name
                .strip_prefix(&cand.name)
                .is_some_and(|rest| rest.starts_with('.'));
            if is_parent && best.is_none_or(|b| aggs[b].name.len() < cand.name.len()) {
                best = Some(j);
            }
        }
        row.parent = best;
    }
    // Depth by walking parent links (paths are acyclic by construction).
    for i in 0..rows.len() {
        let mut depth = 0;
        let mut at = rows[i].parent;
        while let Some(p) = at {
            depth += 1;
            at = rows[p].parent;
        }
        rows[i].depth = depth;
    }
    // Subtract each span's total from its direct parent's self time.
    for i in 0..rows.len() {
        if let Some(p) = rows[i].parent {
            rows[p].self_s = (rows[p].self_s - rows[i].total_s).max(0.0);
            rows[p].self_allocs = rows[p].self_allocs.saturating_sub(aggs[i].allocs);
        }
    }
    rows
}

/// Self-time-weighted collapsed stacks from span aggregates: one line
/// per span whose self time rounds to at least one millisecond, weighted
/// in milliseconds. This is the samplerless fallback for flamegraphs —
/// structurally exact, but with no interior detail inside leaf spans.
pub fn folded_from_aggs(aggs: &[SpanAgg]) -> Vec<(String, u64)> {
    let rows = self_times(aggs);
    let mut out = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let weight = (row.self_s * 1000.0).round() as u64;
        if weight == 0 {
            continue;
        }
        // Reconstruct the frame chain root→self as full paths, then fold.
        let mut chain_idx = vec![i];
        let mut at = row.parent;
        while let Some(p) = at {
            chain_idx.push(p);
            at = rows[p].parent;
        }
        chain_idx.reverse();
        let chain: Vec<String> = chain_idx.iter().map(|&j| rows[j].name.clone()).collect();
        out.push((fold_stack(&chain), weight));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Registry span aggregates in [`SpanAgg`] form (bridging the live
/// registry into the attribution/report pipeline).
pub fn registry_aggs() -> Vec<SpanAgg> {
    registry::span_stats()
        .into_iter()
        .map(|(name, s)| SpanAgg {
            name,
            count: s.count,
            total_s: s.total_s,
            mean_s: if s.count == 0 { 0.0 } else { s.total_s / s.count as f64 },
            p95_s: s.max_s,
            max_s: s.max_s,
            peak_max_bytes: s.peak_delta_max,
            allocs: s.allocs,
        })
        .collect()
}

/// Serializes folded lines in the collapsed-stack text format.
pub fn render_folded(rows: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (stack, count) in rows {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&count.to_string());
        out.push('\n');
    }
    out
}

/// Writes the profiler's collapsed stacks to `path`: the sampler's
/// stacks when any tick landed, otherwise the self-time-derived fallback
/// from the live registry (so `--prof-out` is never empty after an
/// instrumented run).
pub fn write_folded(path: &str) -> std::io::Result<()> {
    let samples = samples_folded();
    let rows = if samples.is_empty() { folded_from_aggs(&registry_aggs()) } else { samples };
    std::fs::write(path, render_folded(&rows))
}

/// The `/prof` payload: sampler state plus live self-time attribution.
pub fn prof_json() -> Json {
    let rows = self_times(&registry_aggs());
    let spans: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::Str(r.name.clone())),
                ("depth".into(), Json::Num(r.depth as f64)),
                ("total_s".into(), Json::Num(r.total_s)),
                ("self_s".into(), Json::Num(r.self_s)),
                ("self_allocs".into(), Json::Num(r.self_allocs as f64)),
                ("count".into(), Json::Num(r.count as f64)),
            ])
        })
        .collect();
    let samples: Vec<Json> = samples_folded()
        .into_iter()
        .map(|(stack, count)| {
            Json::Obj(vec![
                ("stack".into(), Json::Str(stack)),
                ("count".into(), Json::Num(count as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("enabled".into(), Json::Bool(prof_enabled())),
        (
            "hz".into(),
            Json::Num(MILLI_HZ.load(Ordering::Relaxed) as f64 / 1000.0),
        ),
        ("ticks".into(), Json::Num(sample_ticks() as f64)),
        ("spans".into(), Json::Arr(spans)),
        ("samples".into(), Json::Arr(samples)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(name: &str, total_s: f64, allocs: u64) -> SpanAgg {
        SpanAgg {
            name: name.to_string(),
            count: 1,
            total_s,
            mean_s: total_s,
            p95_s: total_s,
            max_s: total_s,
            peak_max_bytes: 0,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let aggs = vec![
            agg("root", 10.0, 1000),
            agg("root.a", 6.0, 600),
            agg("root.a.x", 2.0, 100),
            agg("root.b", 3.0, 50),
        ];
        let rows = self_times(&aggs);
        let by = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        // root self = 10 - (6 + 3); root.a self = 6 - 2; leaves keep all.
        assert!((by("root").self_s - 1.0).abs() < 1e-12);
        assert!((by("root.a").self_s - 4.0).abs() < 1e-12);
        assert!((by("root.a.x").self_s - 2.0).abs() < 1e-12);
        assert!((by("root.b").self_s - 3.0).abs() < 1e-12);
        assert_eq!(by("root").depth, 0);
        assert_eq!(by("root.a.x").depth, 2);
        assert_eq!(by("root").self_allocs, 1000 - 600 - 50);
    }

    #[test]
    fn self_times_telescope_to_root_wall() {
        let aggs = vec![
            agg("r", 5.0, 0),
            agg("r.a", 2.0, 0),
            agg("r.a.i", 0.5, 0),
            agg("r.b", 1.5, 0),
        ];
        let rows = self_times(&aggs);
        let sum: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!((sum - 5.0).abs() < 1e-9, "self times must sum to the root wall: {sum}");
    }

    #[test]
    fn dotted_names_are_not_confused_with_nesting() {
        // "extract.brw" is a single span name; it only nests under
        // "extract" if a span literally named "extract" was recorded.
        let aggs = vec![agg("extract.brw", 2.0, 0), agg("pipeline", 1.0, 0)];
        let rows = self_times(&aggs);
        assert!(rows.iter().all(|r| r.parent.is_none()));
        // With the parent recorded, the longest prefix wins.
        let aggs = vec![
            agg("p", 9.0, 0),
            agg("p.q", 5.0, 0),
            agg("p.q.r", 1.0, 0),
        ];
        let rows = self_times(&aggs);
        assert_eq!(rows[2].parent, Some(1), "longest prefix, not just any");
    }

    #[test]
    fn clamps_noise_below_zero() {
        // Children's totals can exceed the parent's by clock noise.
        let aggs = vec![agg("n", 1.0, 10), agg("n.c", 1.0000001, 20)];
        let rows = self_times(&aggs);
        assert_eq!(rows[0].self_s, 0.0);
        assert_eq!(rows[0].self_allocs, 0);
    }

    #[test]
    fn fold_relative_frames() {
        let frames = vec![
            "pipeline".to_string(),
            "pipeline.extract.brw".to_string(),
            "pipeline.extract.brw.walk".to_string(),
        ];
        assert_eq!(fold_stack(&frames), "pipeline;extract.brw;walk");
        assert_eq!(fold_stack(&["solo".to_string()]), "solo");
        // A frame that doesn't extend its parent keeps its full path.
        let odd = vec!["a".to_string(), "b.c".to_string()];
        assert_eq!(fold_stack(&odd), "a;b.c");
    }

    #[test]
    fn folded_from_aggs_weights_by_self_ms() {
        let aggs = vec![agg("w", 0.010, 0), agg("w.in", 0.004, 0), agg("tiny", 0.0001, 0)];
        let rows = folded_from_aggs(&aggs);
        // "tiny" rounds to 0 ms and is dropped.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], ("w".to_string(), 6));
        assert_eq!(rows[1], ("w;in".to_string(), 4));
        let text = render_folded(&rows);
        assert_eq!(text, "w 6\nw;in 4\n");
    }

    #[test]
    fn sampler_sees_live_span_stacks() {
        enable_prof(0.0); // mirror on, no background thread
        reset_prof_samples();
        {
            let _outer = crate::span("prof_test.outer");
            let _inner = crate::span("work");
            sample_once();
            sample_once();
        }
        sample_once(); // stack empty again: no new sample
        let samples = samples_folded();
        let hit = samples
            .iter()
            .find(|(stack, _)| stack == "prof_test.outer;work")
            .expect("sampled the nested stack");
        assert_eq!(hit.1, 2);
        assert_eq!(sample_ticks(), 3);
    }
}
