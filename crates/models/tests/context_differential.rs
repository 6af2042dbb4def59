//! Telemetry-context differential contract: training inside an entered
//! [`kgtosa_obs::TelemetryContext`] must not change trainer outputs by a
//! single bit, and the scoped bookkeeping (per-context counter/span
//! interception on every instrument touch) must stay within a <2%
//! wall-clock overhead budget.
//!
//! Single `#[test]`: the timing loop must not share cores with sibling
//! tests in the same binary. Plain and contexted reps alternate, so a
//! drift in CPU speed or steal time lands on both sides alike.

use std::time::Instant;

use kgtosa_kg::{HeteroGraph, KnowledgeGraph, Vid};
use kgtosa_models::{train_rgcn_nc, NcDataset, TrainConfig, TrainReport};
use kgtosa_obs::TelemetryContext;
use kgtosa_tensor::IGNORE_LABEL;

#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

/// Citation-flavoured toy graph, sized so a training run is long enough
/// (hundreds of milliseconds) to time stably but short enough for CI.
fn toy_nc(papers: usize) -> (KnowledgeGraph, Vec<u32>, Vec<Vid>) {
    let mut kg = KnowledgeGraph::new();
    for i in 0..papers {
        let venue = format!("v{}", i % 2);
        kg.add_triple_terms(&format!("p{i}"), "Paper", "publishedIn", &venue, "Venue");
        kg.add_triple_terms(&format!("a{}", i % 7), "Author", "writes", &format!("p{i}"), "Paper");
    }
    let paper_ids = kg.nodes_of_class(kg.find_class("Paper").unwrap());
    let mut labels = vec![IGNORE_LABEL; kg.num_nodes()];
    for &p in &paper_ids {
        let term = kg.node_term(p);
        labels[p.idx()] = (term[1..].parse::<usize>().unwrap() % 2) as u32;
    }
    (kg, labels, paper_ids)
}

fn train_once(data: &NcDataset<'_>) -> TrainReport {
    let cfg = TrainConfig {
        epochs: 12,
        dim: 32,
        lr: 0.05,
        batch_size: 16,
        // The CLI's observer wiring: per-epoch telemetry (the
        // `train.epochs` counter) runs on BOTH sides of the comparison,
        // so the timing delta isolates the context interception itself.
        observer: kgtosa_obs::Observer::new(kgtosa_obs::TelemetryObserver),
        ..Default::default()
    };
    let _probe = kgtosa_obs::span!("ctxtest.train");
    train_rgcn_nc(data, &cfg)
}

#[test]
fn contexts_are_bit_invisible_and_cheap() {
    let (kg, labels, papers) = toy_nc(160);
    let graph = HeteroGraph::build(&kg);
    let (train, rest) = papers.split_at(120);
    let (valid, test) = rest.split_at(20);
    let data = NcDataset {
        kg: &kg,
        graph: &graph,
        labels: &labels,
        num_labels: 2,
        train,
        valid,
        test,
    };

    const REPS: usize = 5;
    let timed = |ctx: Option<&TelemetryContext>| -> (f64, TrainReport) {
        let _scope = ctx.map(|c| c.enter());
        let start = Instant::now();
        let report = train_once(&data);
        (start.elapsed().as_secs_f64(), report)
    };

    // Warm-up rep so allocator/page-cache effects hit neither side.
    let _ = train_once(&data);

    let ctx = TelemetryContext::new("ctx-differential");
    let (mut base_s, mut ctx_s) = (f64::INFINITY, f64::INFINITY);
    let (mut base, mut contexted) = (None, None);
    for _ in 0..REPS {
        assert!(!kgtosa_obs::context_active(), "no context may be live at baseline time");
        let (s, report) = timed(None);
        base_s = base_s.min(s);
        base = Some(report);
        let (s, report) = timed(Some(&ctx));
        ctx_s = ctx_s.min(s);
        contexted = Some(report);
    }
    ctx.finish();
    let (base, contexted) = (base.expect("at least one rep"), contexted.expect("at least one rep"));

    // The context actually captured the runs — probe, not vibes: every
    // contexted epoch's counter bump and every probe span landed in the
    // scoped maps (if interception were broken, the overhead comparison
    // below would be vacuous).
    assert_eq!(
        ctx.counter_delta("train.epochs"),
        (12 * REPS) as u64,
        "per-epoch counter bumps missing from the context"
    );
    let probe = ctx
        .span_stats()
        .into_iter()
        .find(|(n, _)| n.contains("ctxtest.train"))
        .map(|(_, s)| s)
        .expect("probe span missing from the context tree");
    assert_eq!(probe.count, REPS as u64);

    // Bit-identical trainer outputs: scoped telemetry only mirrors
    // instrument touches into per-context maps, it never feeds back into
    // the numeric path.
    assert_eq!(base.param_hash, contexted.param_hash, "context changed trained parameters");
    assert_eq!(base.param_count, contexted.param_count);
    assert_eq!(base.metric, contexted.metric, "context changed the test metric");
    assert_eq!(
        base.trace.iter().map(|p| p.metric.to_bits()).collect::<Vec<_>>(),
        contexted.trace.iter().map(|p| p.metric.to_bits()).collect::<Vec<_>>(),
        "context changed the validation trace"
    );

    // Overhead budget: the contract is <2% wall. Every instrument touch
    // pays one relaxed load when no context exists anywhere, and a short
    // mutex-guarded map update when entered; spans and counters are far
    // off the inner matmul loops. Min-of-N absorbs scheduler noise; the
    // small absolute slack keeps a loaded CI box from flaking.
    let budget = base_s * 1.02 + 0.015;
    assert!(
        ctx_s <= budget,
        "contexted run too slow: base={base_s:.4}s contexted={ctx_s:.4}s budget={budget:.4}s"
    );
}
