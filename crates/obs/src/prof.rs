//! kgtosa-prof: cost attribution on top of the span machinery.
//!
//! [`self_times`] turns per-span aggregates (from the live registry or a
//! parsed trace) into a tree where every span carries its *self* time:
//! wall time minus the wall time of its direct children. Summed over a
//! tree, self times telescope back to the root's wall time, which is
//! what makes them a valid cost breakdown (the paper's Table IV
//! decomposition, but computed instead of transcribed).
//!
//! [`write_folded`] exports the same attribution as collapsed stacks —
//! the `stack;stack;stack count` format consumed by every flamegraph
//! tool (inferno, speedscope, `flamegraph.pl`) — weighted in
//! microseconds of self time.

use crate::registry;
use crate::summary::SpanAgg;

/// Collapses a span chain (full dotted paths, outermost first) into a
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
/// per span with nonzero self time, weighted in whole microseconds (at
/// least 1, so a sub-microsecond span stays visible). Each weight is
/// within one unit of the exact self time, so the weights sum to the
/// root wall within one microsecond per line. Structurally exact, with
/// no detail inside a leaf span.
pub fn folded_from_aggs(aggs: &[SpanAgg]) -> Vec<(String, u64)> {
    let rows = self_times(aggs);
    let mut out = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if row.self_s <= 0.0 {
            continue;
        }
        let weight = ((row.self_s * 1e6).round() as u64).max(1);
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

/// Writes the live registry's self times to `path` as collapsed stacks
/// ([`folded_from_aggs`]): after any instrumented run the file holds one
/// line per span that did work of its own.
pub fn write_folded(path: &str) -> std::io::Result<()> {
    std::fs::write(path, render_folded(&folded_from_aggs(&registry_aggs())))
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
    fn folded_from_aggs_weights_by_self_us() {
        let aggs = vec![
            agg("w", 0.010, 0),
            agg("w.in", 0.004, 0),
            agg("tiny", 0.0000003, 0),
            agg("idle", 0.002, 0),
            agg("idle.all", 0.002, 0),
        ];
        let rows = folded_from_aggs(&aggs);
        // "tiny" (0.3 µs) keeps weight 1; "idle" has no self time at all.
        assert_eq!(
            rows,
            vec![
                ("idle;all".to_string(), 2000),
                ("tiny".to_string(), 1),
                ("w".to_string(), 6000),
                ("w;in".to_string(), 4000),
            ]
        );
        let text = render_folded(&rows[2..]);
        assert_eq!(text, "w 6000\nw;in 4000\n");
    }
}
