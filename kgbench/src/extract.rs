//! extract-hops: TOSG extraction without training. Each unit is one round
//! of SPARQL d1h1, d2h1 and d1h2 plus IBS on MAG at scale 4, and SPARQL
//! d2h2 on MAG at scale 0.1 — the largest KG on which d2h2 finishes in
//! seconds. rdf, core, the kg subgraph build and the sampler do all the
//! work; tensor does none.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use kgtosa_core::{compile_subqueries, extract_ibs, extract_sparql, parent_triples};
use kgtosa_core::{ExtractionTask, GraphPattern};
use kgtosa_kg::{
    fingerprint, induced_subgraph, subgraph_from_triples_and_nodes, HeteroGraph, InducedSubgraph,
    KnowledgeGraph, Triple,
};
use kgtosa_obs::Json;
use kgtosa_rdf::{
    fetch_triples_robust, FetchConfig, InProcessEndpoint, Query, RdfError, RdfStore, ResultSet,
    SparqlEndpoint,
};
use kgtosa_sampler::{ibs_sample, IbsConfig};

use crate::{stats, trace, Ctx, Outcome, SETUP_REPS};

/// MAG at scale 4 (≈670k triples) for d1h1, d2h1, d1h2 and IBS.
const BIG: f64 = 4.0;
/// MAG at scale 0.1 (≈16k triples) for d2h2: it takes about as long there
/// as d1h2 takes on the 40× larger KG.
const SMALL: f64 = 0.1;

/// One extraction of a round.
#[derive(Clone, Copy)]
enum Job {
    Sparql(GraphPattern),
    Ibs,
}

const JOBS: [(Job, bool); 5] = [
    (Job::Sparql(GraphPattern::D1H1), true),
    (Job::Sparql(GraphPattern::D2H1), true),
    (Job::Sparql(GraphPattern::D1H2), true),
    (Job::Ibs, true),
    (Job::Sparql(GraphPattern::D2H2), false),
];

impl Job {
    fn label(self) -> String {
        match self {
            Job::Sparql(p) => p.label(),
            Job::Ibs => "ibs".into(),
        }
    }
}

/// `InProcessEndpoint` with the time spent inside `select` summed up.
struct TimedEndpoint<'s, 'kg> {
    inner: InProcessEndpoint<'s, 'kg>,
    busy_ns: AtomicU64,
}

impl SparqlEndpoint for TimedEndpoint<'_, '_> {
    fn select(&self, query: &Query) -> Result<ResultSet, RdfError> {
        let t = Instant::now();
        let rs = self.inner.select(query);
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        rs
    }
}

/// The `(?s ?p ?o)` variable names a subquery projects.
type TripleVars = (String, String, String);

/// What one extraction produced.
struct Done {
    seconds: f64,
    sub: InducedSubgraph,
    cost: Cost,
}

/// What a traced extraction cost per layer.
#[derive(Default)]
struct Cost {
    seconds: f64,
    triples: usize,
    selects: usize,
    rows: usize,
    select_busy_s: f64,
    fetch_s: f64,
}

/// Algorithm 3 as `extract_sparql` runs it, one public call at a time
/// under spans: compile the subqueries, fetch each variable group through
/// a timed endpoint, sort and deduplicate, build the subgraph.
fn sparql_traced(
    store: &RdfStore<'_>,
    task: &ExtractionTask,
    pattern: &GraphPattern,
) -> Result<Done, String> {
    let label = pattern.label();
    let t = Instant::now();
    let _s = trace::span(format!("extract.{label}"));
    let subqueries = {
        let _s = trace::span(format!("core.compile_subqueries.{label}"));
        compile_subqueries(task, pattern)
    };
    // Branches can project differently named triple variables; like
    // `extract_sparql`, fetch each variable group on its own.
    let mut grouped: Vec<(&TripleVars, Vec<Query>)> = Vec::new();
    for sq in &subqueries {
        match grouped
            .iter_mut()
            .find(|(vars, _)| **vars == sq.triple_vars)
        {
            Some((_, qs)) => qs.push(sq.query.clone()),
            None => grouped.push((&sq.triple_vars, vec![sq.query.clone()])),
        }
    }
    let ep = TimedEndpoint {
        inner: InProcessEndpoint::new(store),
        busy_ns: AtomicU64::new(0),
    };
    let mut triples: Vec<Triple> = Vec::new();
    let mut fetch_s = 0.0;
    for ((s, p, o), qs) in grouped {
        let _s = trace::span(format!("rdf.fetch_triples_robust.{label}"));
        let f = Instant::now();
        let out = fetch_triples_robust(&ep, store, &qs, (s, p, o), &FetchConfig::default())
            .map_err(|e| format!("{label} fetch: {e}"))?;
        fetch_s += crate::since(f);
        triples.extend(out.triples);
    }
    {
        let _s = trace::span(format!("core.sort_dedup.{label}"));
        triples.sort_unstable();
        triples.dedup();
    }
    let sub = {
        let _s = trace::span("kg.subgraph_from_triples_and_nodes");
        subgraph_from_triples_and_nodes(store.kg(), &triples, &task.targets)
    };
    let seconds = crate::since(t);
    let cost = Cost {
        seconds,
        triples: 0,
        selects: ep.inner.stats().requests(),
        rows: ep.inner.stats().rows(),
        select_busy_s: ep.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        fetch_s,
    };
    Ok(Done { seconds, sub, cost })
}

/// IBS as `extract_ibs` runs it: sample, then the induced subgraph.
fn ibs_traced(kg: &KnowledgeGraph, graph: &HeteroGraph, task: &ExtractionTask) -> Done {
    let t = Instant::now();
    let _s = trace::span("extract.ibs");
    let vs = {
        let _s = trace::span("sampler.ibs_sample");
        ibs_sample(graph, &task.targets, &IbsConfig::default())
    };
    let sub = {
        let _s = trace::span("kg.induced_subgraph");
        induced_subgraph(kg, &vs)
    };
    let seconds = crate::since(t);
    Done {
        seconds,
        sub,
        cost: Cost {
            seconds,
            ..Cost::default()
        },
    }
}

fn public(
    store: &RdfStore<'_>,
    graph: &HeteroGraph,
    task: &ExtractionTask,
    job: Job,
) -> Result<Done, String> {
    let res = match job {
        Job::Sparql(p) => extract_sparql(store, task, &p, &FetchConfig::default())
            .map_err(|e| format!("{} extraction: {e}", p.label()))?,
        Job::Ibs => extract_ibs(store.kg(), graph, task, &IbsConfig::default()),
    };
    Ok(Done {
        seconds: res.report.seconds,
        sub: res.subgraph,
        cost: Cost::default(),
    })
}

fn nc_task(d: &kgtosa_datagen::Dataset) -> ExtractionTask {
    let nc = &d.nc[0];
    ExtractionTask::node_classification(&nc.name, &nc.target_class, nc.targets())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let big = crate::mag(BIG, ctx.seed);
        let store = crate::store(&big.gen.kg);
        let graph = HeteroGraph::build(&big.gen.kg);
        let small = crate::mag(SMALL, ctx.seed);
        std::hint::black_box((&store, &graph, crate::store(&small.gen.kg)));
        o.setup_s.push(crate::since(t));
    }
    let t = Instant::now();
    let big = crate::mag(BIG, ctx.seed);
    let store = crate::store(&big.gen.kg);
    let graph = HeteroGraph::build(&big.gen.kg);
    let small = crate::mag(SMALL, ctx.seed);
    let small_store = crate::store(&small.gen.kg);
    let small_graph = HeteroGraph::build(&small.gen.kg);
    o.setup_s.push(crate::since(t));
    let (task, small_task) = (nc_task(&big), nc_task(&small));

    // Per job: (seconds, triples, fingerprint) of every round, and the
    // traced rounds' layer costs. Each TOSG is dropped once recorded, so
    // only one is alive at a time.
    let mut results: Vec<Vec<(f64, usize, u64)>> = vec![Vec::new(); JOBS.len()];
    let mut costs: Vec<Vec<Cost>> = (0..JOBS.len()).map(|_| Vec::new()).collect();
    let mut parents: BTreeMap<String, Vec<Triple>> = BTreeMap::new();
    let (mut traced_walls, mut plain_walls, mut windows) = (Vec::new(), Vec::new(), Vec::new());
    kgtosa_memtrack::reset_peak();
    let (cpu0, t0) = (stats::cpu_s(), Instant::now());
    let mut round = 0;
    while round < ctx.min_units() || t0.elapsed() < ctx.budget() {
        let traced = ctx.trace && round % 2 == 0;
        let (mut wall, mut cpu_s) = (0.0, 0.0);
        for (i, (job, on_big)) in JOBS.into_iter().enumerate() {
            let (st, gr, tk) = if on_big {
                (&store, &graph, &task)
            } else {
                (&small_store, &small_graph, &small_task)
            };
            trace::set_active(traced);
            let (start, cpu) = (Instant::now(), stats::cpu_s());
            let d = match (traced, job) {
                (true, Job::Sparql(p)) => sparql_traced(st, tk, &p),
                (true, Job::Ibs) => Ok(ibs_traced(st.kg(), gr, tk)),
                (false, _) => public(st, gr, tk, job),
            };
            let end = Instant::now();
            cpu_s += stats::cpu_s() - cpu;
            trace::set_active(ctx.trace);
            let d = d?;
            wall += (end - start).as_secs_f64();
            if traced {
                windows.push((trace::at(start), trace::at(end)));
            }
            let triples = d.sub.kg.num_triples();
            results[i].push((d.seconds, triples, fingerprint(&d.sub.kg)));
            if round == 0 && on_big && matches!(job, Job::Sparql(_)) {
                parents.insert(job.label(), parent_triples(store.kg(), &d.sub));
            }
            if traced {
                costs[i].push(Cost { triples, ..d.cost });
            }
        }
        o.latencies_ms.push(wall * 1e3);
        o.unit_cpu_ms.push(cpu_s * 1e3);
        o.attempted += JOBS.len() as u64;
        if traced {
            traced_walls.push(wall);
        } else {
            plain_walls.push(wall);
        }
        round += 1;
    }
    let timed_s = crate::since(t0);
    o.mark_peaks();
    let cpu_util = o.timed_cpu(cpu0, timed_s);

    // Checks: every round (traced or not) yields the same TOSG per job,
    // and d1h1's triples are contained in d2h1's and d1h2's.
    for (i, runs) in results.iter().enumerate() {
        let label = JOBS[i].0.label();
        let fp0 = runs[0].2;
        let differing = runs.iter().filter(|r| r.2 != fp0).count();
        o.failed += differing as u64;
        o.check(differing == 0, || {
            format!("{label}: {differing} rounds gave a different TOSG")
        });
        o.note(
            &format!("tosg_{label}_triples"),
            Json::Num(runs[0].1 as f64),
        );
        o.note(
            &format!("tosg_{label}_fingerprint"),
            Json::Str(format!("{fp0:016x}")),
        );
    }
    let d1h1 = &parents["d1h1"];
    for wider in ["d2h1", "d1h2"] {
        let mut set = parents[wider].clone();
        set.sort_unstable();
        let missing = d1h1
            .iter()
            .filter(|t| set.binary_search(t).is_err())
            .count();
        o.check(missing == 0, || {
            format!("{missing} d1h1 triples missing from {wider}")
        });
    }
    o.note("kg_scale", Json::Num(BIG));
    o.note("kg_triples", Json::Num(big.gen.kg.num_triples() as f64));
    o.note("d2h2_kg_scale", Json::Num(SMALL));
    o.note(
        "d2h2_kg_triples",
        Json::Num(small.gen.kg.num_triples() as f64),
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
        let selfs = trace::self_times(&timed);
        o.coverage(crate::layer_self_s(&timed), &traced_walls, &plain_walls);
        o.layer("wall_s", stats::median(&traced_walls));
        o.layer("par.cpu_util", cpu_util);
        // Self time of every span with this name, per traced round.
        let per_round = |name: &str| -> f64 {
            let total: f64 = timed
                .iter()
                .filter(|s| s.name == name)
                .map(|s| selfs[&s.id])
                .sum();
            total / traced_walls.len() as f64
        };
        o.layer(
            "kg.subgraph_s",
            per_round("kg.subgraph_from_triples_and_nodes") + per_round("kg.induced_subgraph"),
        );
        o.layer("sampler.ibs_s", per_round("sampler.ibs_sample"));
        let mut selects = vec![0.0; traced_walls.len()];
        let mut busy = vec![0.0; traced_walls.len()];
        for (i, (job, _)) in JOBS.iter().enumerate() {
            let l = &costs[i];
            let secs: Vec<f64> = l.iter().map(|d| d.seconds).collect();
            let label = job.label();
            let extract_s = stats::median(&secs);
            let triples = l.first().map(|d| d.triples).unwrap_or(0).max(1) as f64;
            o.layer(&format!("extract_s.{label}"), extract_s);
            for (r, d) in l.iter().enumerate() {
                selects[r] += d.selects as f64;
                busy[r] += d.select_busy_s;
            }
            if let Job::Sparql(_) = job {
                let fetch = stats::median(&l.iter().map(|d| d.fetch_s).collect::<Vec<_>>());
                let rows = stats::median(&l.iter().map(|d| d.rows as f64).collect::<Vec<_>>());
                o.layer(&format!("rdf.fetch_s.{label}"), fetch);
                o.layer(&format!("rdf.rows_per_triple.{label}"), rows / triples);
                o.layer(
                    &format!("core.s_per_ktriple.{label}"),
                    extract_s / (triples / 1000.0),
                );
            }
        }
        o.layer("rdf.selects", stats::median(&selects));
        o.layer("rdf.select_busy_s", stats::median(&busy));
    }
    Ok(o)
}
