//! pipeline-train: the KG-TOSA pipeline, repeated back to back. Each unit
//! extracts the PV/MAG d1h1 TOSG over SPARQL, transforms it to adjacency,
//! trains a full-batch RGCN on it and runs test inference. Tensor, nn and
//! models do most of the work; extraction is a small share.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use kgtosa_core::{extract_sparql, transform, ExtractionTask, GraphPattern};
use kgtosa_kg::{map_targets, HeteroGraph, InducedSubgraph, Vid};
use kgtosa_models::{train_rgcn_nc, NcDataset, TrainConfig, TrainReport};
use kgtosa_obs::{EpochEvent, Json, Observer, TrainObserver};
use kgtosa_rdf::{FetchConfig, RdfStore};

use crate::{stats, trace, Ctx, Outcome, SETUP_REPS};

/// MAG at scale 4: ≈670k triples, ≈227k-triple d1h1 TOSG.
const SCALE: f64 = 4.0;
const EPOCHS: usize = 15;
const DIM: usize = 16;
/// Test accuracy below this fails the run (≈0.9 is typical).
const ACCURACY_FLOOR: f64 = 0.6;

/// Records each epoch as a span and keeps the allocation counts.
struct EpochSpans {
    allocs: Mutex<Vec<u64>>,
}

impl TrainObserver for EpochSpans {
    fn on_epoch(&self, ev: &EpochEvent<'_>) {
        let end = Instant::now();
        let start = end - std::time::Duration::from_secs_f64(ev.epoch_s.max(0.0));
        trace::record("models.epoch", start, end);
        self.allocs
            .lock()
            .expect("alloc log poisoned")
            .push(ev.allocs);
    }
}

struct Unit {
    report: TrainReport,
    tosg_triples: usize,
    tosg_fingerprint: u64,
}

/// One pipeline: extract, transform, train and infer. Returns the TOSG
/// and its adjacency with the report, for checks outside the timing.
fn pipeline_once(
    store: &RdfStore<'_>,
    task: &ExtractionTask,
    nc: &kgtosa_datagen::NcTask,
    seed: u64,
    observer: Observer,
) -> Result<(TrainReport, InducedSubgraph, HeteroGraph), String> {
    let res = {
        let _s = trace::span("core.extract_sparql");
        extract_sparql(store, task, &GraphPattern::D1H1, &FetchConfig::default())
            .map_err(|e| format!("d1h1 extraction: {e}"))?
    };
    let (graph, _) = {
        let _s = trace::span("kg.transform");
        transform(&res.subgraph.kg)
    };
    let sub = &res.subgraph;
    let labels: Vec<u32> = (0..graph.num_nodes())
        .map(|v| nc.labels[sub.map_up(Vid(v as u32)).idx()])
        .collect();
    let (train, valid, test) = (
        map_targets(sub, &nc.train),
        map_targets(sub, &nc.valid),
        map_targets(sub, &nc.test),
    );
    let data = NcDataset {
        kg: &sub.kg,
        graph: &graph,
        labels: &labels,
        num_labels: nc.num_labels,
        train: &train,
        valid: &valid,
        test: &test,
    };
    let cfg = TrainConfig {
        epochs: EPOCHS,
        dim: DIM,
        lr: 0.02,
        seed,
        observer,
        ..Default::default()
    };
    let report = {
        let _s = trace::span("models.train_rgcn_nc");
        let report = train_rgcn_nc(&data, &cfg);
        // Test inference is the trainer's last step; it reports its time.
        let end = Instant::now();
        trace::record(
            "models.infer",
            end - std::time::Duration::from_secs_f64(report.inference_s),
            end,
        );
        report
    };
    Ok((report, res.subgraph, graph))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let d = crate::mag(SCALE, ctx.seed);
        std::hint::black_box(crate::store(&d.gen.kg));
        o.setup_s.push(crate::since(t));
    }
    let t = Instant::now();
    let d = crate::mag(SCALE, ctx.seed);
    let store = crate::store(&d.gen.kg);
    o.setup_s.push(crate::since(t));

    let nc = &d.nc[0];
    let task = ExtractionTask::node_classification(&nc.name, &nc.target_class, nc.targets());
    let epoch_log = Arc::new(EpochSpans {
        allocs: Mutex::new(Vec::new()),
    });

    kgtosa_memtrack::reset_peak();
    let (cpu0, t0) = (stats::cpu_s(), Instant::now());
    let mut units = Vec::new();
    let mut last_graph = None;
    let (mut traced_walls, mut plain_walls, mut windows) = (Vec::new(), Vec::new(), Vec::new());
    while units.len() < ctx.min_units() || t0.elapsed() < ctx.budget() {
        // A traced run alternates traced and untraced units, so the two
        // can be compared for the spans' own overhead.
        let traced = ctx.trace && units.len() % 2 == 0;
        trace::set_active(traced);
        let observer = if traced {
            Observer::from_arc(epoch_log.clone() as Arc<dyn TrainObserver>)
        } else {
            Observer::none()
        };
        let (start, cpu) = (Instant::now(), stats::cpu_s());
        let unit = pipeline_once(&store, &task, nc, ctx.seed, observer);
        let end = Instant::now();
        o.unit_cpu_ms.push((stats::cpu_s() - cpu) * 1e3);
        trace::set_active(ctx.trace);
        let (report, sub, graph) = unit?;
        let unit = Unit {
            report,
            tosg_triples: sub.kg.num_triples(),
            tosg_fingerprint: kgtosa_kg::fingerprint(&sub.kg),
        };
        if ctx.trace {
            // Kept for the kernel replay; untraced runs drop it at once.
            last_graph = Some(graph);
        }
        o.attempted += 1;
        let wall = (end - start).as_secs_f64();
        o.latencies_ms.push(wall * 1e3);
        if traced {
            traced_walls.push(wall);
            windows.push((trace::at(start), trace::at(end)));
        } else {
            plain_walls.push(wall);
        }
        units.push(unit);
    }
    let timed_s = crate::since(t0);
    o.mark_peaks();
    let cpu_util = o.timed_cpu(cpu0, timed_s);

    let first = &units[0];
    let acc = first.report.metric;
    o.check(acc >= ACCURACY_FLOOR, || {
        format!("test accuracy {acc:.4} below floor {ACCURACY_FLOOR}")
    });
    // Every unit must reproduce the first bit for bit.
    let differing = units
        .iter()
        .filter(|u| {
            u.report.param_hash != first.report.param_hash
                || u.tosg_fingerprint != first.tosg_fingerprint
        })
        .count();
    o.check(differing == 0, || {
        format!("{differing} units differ from unit 0 in param_hash or TOSG")
    });
    o.failed = differing as u64 + u64::from(acc < ACCURACY_FLOOR);
    o.note("kg_scale", Json::Num(SCALE));
    o.note("kg_triples", Json::Num(d.gen.kg.num_triples() as f64));
    o.note("tosg_d1h1_triples", Json::Num(first.tosg_triples as f64));
    o.note(
        "tosg_d1h1_fingerprint",
        Json::Str(format!("{:016x}", first.tosg_fingerprint)),
    );
    o.note("accuracy", Json::Num(acc));
    o.note(
        "param_hash",
        Json::Str(format!("{:016x}", first.report.param_hash)),
    );

    if ctx.trace {
        let spans = trace::spans();
        let named = crate::by_name(&spans);
        o.layer(
            "datagen.generate_s",
            crate::per_setup(&named, "datagen.mag"),
        );
        o.layer(
            "rdf.store_build_s",
            crate::per_setup(&named, "rdf.RdfStore::new"),
        );
        let timed: Vec<_> = windows
            .iter()
            .flat_map(|&(lo, hi)| crate::within(&spans, lo, hi))
            .collect();
        o.coverage(crate::layer_self_s(&timed), &traced_walls, &plain_walls);
        let timed_named = crate::by_name(&timed);
        let dur = |name: &str| -> Vec<f64> {
            timed_named
                .get(name)
                .map(|v| v.iter().map(|p| p.1).collect())
                .unwrap_or_default()
        };
        o.layer("wall_s", stats::median(&traced_walls));
        o.layer("accuracy", acc);
        o.layer("extract_s.d1h1", stats::median(&dur("core.extract_sparql")));
        o.layer("kg.transform_s", stats::median(&dur("kg.transform")));
        o.layer(
            "models.train_s",
            stats::median(&dur("models.train_rgcn_nc")),
        );
        o.layer("models.epoch_s", stats::median(&dur("models.epoch")));
        o.layer("models.infer_s", stats::median(&dur("models.infer")));
        let allocs = epoch_log.allocs.lock().expect("alloc log poisoned").clone();
        // Steady-state epochs: the difference between consecutive epochs
        // of one training run (the first epoch warms the arena).
        let per_epoch: Vec<f64> = allocs
            .chunks(EPOCHS)
            .flat_map(|run| {
                run.windows(2)
                    .map(|w| w[1].saturating_sub(w[0]) as f64)
                    .collect::<Vec<_>>()
            })
            .collect();
        o.layer("models.epoch_allocs", stats::median(&per_epoch));
        o.layer("par.cpu_util", cpu_util);
        let graph = last_graph.expect("traced runs keep the last TOSG graph");
        crate::replay::replay(&mut o, &graph, DIM, true);
    }
    Ok(o)
}
