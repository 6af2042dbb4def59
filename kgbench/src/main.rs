//! kgbench — the repository's end-to-end benchmark.
//!
//! ```text
//! kgbench --workload <pipeline-train|extract-hops|serve-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, sets up, measures for
//! about `S` seconds, checks the outputs, and prints one JSON object as
//! the last line of stdout: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end metrics untraced, the per-layer metrics with
//! `--trace 1`. The run record (git rev, cores, threads, SIMD level, KG
//! and TOSG sizes, checks) is printed on the line before and written under
//! `kgbench/out/`, next to the traced run's spans. Exits 1 when an output
//! check fails and 2 on a usage or set-up error. `--closed-loop` makes a
//! serve-mixed run measure the daemon's saturation throughput instead of
//! the open-loop load. See `kgbench/README.md`.

mod extract;
mod gen;
mod pipeline;
mod replay;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use kgtosa_datagen::Dataset;
use kgtosa_kg::KnowledgeGraph;
use kgtosa_obs::Json;
use kgtosa_rdf::RdfStore;

#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

/// End-to-end metrics, reported untraced by every workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_heap_mb", "MB"), ("cpu_ms", "ms")];

/// Per-layer metrics, reported by every traced run; 0 where the workload
/// does no work in that layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("wall_s", "s"),
    ("accuracy", "fraction"),
    ("extract_s.d1h1", "s"),
    ("extract_s.d2h1", "s"),
    ("extract_s.d1h2", "s"),
    ("extract_s.d2h2", "s"),
    ("extract_s.ibs", "s"),
    ("extract_p50_ms", "ms"),
    ("extract_tail_ms", "ms"),
    ("infer_p50_ms", "ms"),
    ("infer_tail_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_tail_ms", "ms"),
    ("datagen.generate_s", "s"),
    ("rdf.store_build_s", "s"),
    ("rdf.fetch_s.d1h1", "s"),
    ("rdf.fetch_s.d2h1", "s"),
    ("rdf.fetch_s.d1h2", "s"),
    ("rdf.fetch_s.d2h2", "s"),
    ("rdf.selects", "count"),
    ("rdf.select_busy_s", "s"),
    ("rdf.rows_per_triple.d1h1", "ratio"),
    ("rdf.rows_per_triple.d2h1", "ratio"),
    ("rdf.rows_per_triple.d1h2", "ratio"),
    ("rdf.rows_per_triple.d2h2", "ratio"),
    ("kg.subgraph_s", "s"),
    ("kg.transform_s", "s"),
    ("core.s_per_ktriple.d1h1", "s/ktriple"),
    ("core.s_per_ktriple.d2h1", "s/ktriple"),
    ("core.s_per_ktriple.d1h2", "s/ktriple"),
    ("core.s_per_ktriple.d2h2", "s/ktriple"),
    ("sampler.ibs_s", "s"),
    ("models.train_s", "s"),
    ("models.epoch_s", "s"),
    ("models.infer_s", "s"),
    ("models.epoch_allocs", "count"),
    ("tensor.matmul_s", "s"),
    ("nn.mean_aggregate_s", "s"),
    ("nn.rgcn_forward_s", "s"),
    ("tensor.t_matmul_s", "s"),
    ("nn.rgcn_backward_s", "s"),
    ("tensor.adam_s", "s"),
    ("peak_rss_mb", "MB"),
    ("par.cpu_util", "fraction"),
    ("cache.hit_ratio", "fraction"),
    ("cache.hit_ms", "ms"),
    ("cache.miss_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.infer_handler_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("update.swap_ms", "ms"),
    ("update.sweep_ms", "ms"),
    ("update.repaired", "count"),
    ("update.migrated", "count"),
    ("update.invalidated", "count"),
    ("update.rss_growth_mb", "MB"),
    ("coverage", "fraction"),
    ("obs.trace_overhead_pct", "%"),
];

/// Spans whose self time a per-layer metric reports, with that metric.
/// A name also covers `<name>.<pattern>` (the per-pattern metric). Only
/// these count towards coverage: wrappers (`extract.*`, the serve request
/// spans) and time the benchmark spends between calls do not.
pub const LAYER_SPANS: &[(&str, &str)] = &[
    ("datagen.mag", "datagen.generate_s"),
    ("rdf.RdfStore::new", "rdf.store_build_s"),
    ("core.extract_sparql", "extract_s.d1h1"),
    ("core.compile_subqueries", "core.s_per_ktriple"),
    ("rdf.fetch_triples_robust", "rdf.fetch_s"),
    ("core.sort_dedup", "core.s_per_ktriple"),
    ("kg.subgraph_from_triples_and_nodes", "kg.subgraph_s"),
    ("kg.induced_subgraph", "kg.subgraph_s"),
    ("sampler.ibs_sample", "sampler.ibs_s"),
    ("kg.transform", "kg.transform_s"),
    ("models.train_rgcn_nc", "models.train_s"),
    ("models.epoch", "models.epoch_s"),
    ("models.infer", "models.infer_s"),
    ("serve.queue", "serve.queue_ms"),
    ("serve.handler.hit", "cache.hit_ms"),
    ("serve.handler.miss", "cache.miss_ms"),
    ("serve.handler.infer", "serve.infer_handler_ms"),
    ("update.swap", "update.swap_ms"),
    ("update.sweep", "update.sweep_ms"),
];

/// Share of each workload's timed wall the self time of its layer spans
/// must cover in a traced run.
const MIN_COVERAGE: f64 = 0.95;

/// Set-up is repeated this many times per run and reported as the median.
pub const SETUP_REPS: usize = 3;

/// What a run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// serve-mixed only: measure saturation throughput in a closed loop
    /// instead of the open-loop load.
    pub closed_loop: bool,
    /// Working directory for the run, under `kgbench/work`.
    pub work: PathBuf,
    /// Path prefix for the run's output files under `kgbench/out`.
    pub out: PathBuf,
}

impl Ctx {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Batch workloads run at least this many units; a traced run needs a
    /// traced and an untraced one.
    pub fn min_units(&self) -> usize {
        if self.trace {
            2
        } else {
            1
        }
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty when the outputs are correct.
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Peak live heap over the timed phase (the peak is reset when it
    /// starts) and the process's peak RSS, both read at its end.
    pub peak_heap_mb: f64,
    pub peak_rss_mb: f64,
    /// CPU seconds of the whole process during the timed phase.
    pub timed_cpu_s: f64,
    /// Latency of each unit of work, in ms, timed from when it was due.
    pub latencies_ms: Vec<f64>,
    /// Process CPU time (user + system, all threads) of each unit of
    /// work, in ms; serve-mixed has one entry, the load's CPU time per
    /// request.
    pub unit_cpu_ms: Vec<f64>,
    /// Per-layer values by name (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Facts about the run: input sizes, fingerprints, tail percentiles.
    pub record: Vec<(String, Json)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.record.push((key.to_string(), value));
    }

    /// Records the CPU seconds spent since `cpu0` in a timed phase of
    /// `wall_s`, and returns them as a share of all cores.
    pub fn timed_cpu(&mut self, cpu0: f64, wall_s: f64) -> f64 {
        self.timed_cpu_s = stats::cpu_s() - cpu0;
        self.timed_cpu_s / (wall_s * stats::nproc() as f64)
    }

    /// Records the heap peak since the last `kgtosa_memtrack::reset_peak`
    /// and the process's peak RSS so far.
    pub fn mark_peaks(&mut self) {
        self.peak_heap_mb = kgtosa_memtrack::peak_bytes() as f64 / (1024.0 * 1024.0);
        self.peak_rss_mb = stats::peak_rss_mb();
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted layer metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    /// Records the traced run's coverage and tracing overhead: `traced`
    /// and `plain` are the walls of traced and untraced repetitions of the
    /// same unit of work, `covered_s` the self time of the layer spans
    /// inside the traced ones (`layer_self_s`).
    pub fn coverage(&mut self, covered_s: f64, traced: &[f64], plain: &[f64]) {
        let wall: f64 = traced.iter().sum();
        let coverage = if wall > 0.0 { covered_s / wall } else { 0.0 };
        self.layer("coverage", coverage);
        self.check(coverage >= MIN_COVERAGE, || {
            format!("span coverage {coverage:.4} below {MIN_COVERAGE}")
        });
        let (t, p) = (stats::median(traced), stats::median(plain));
        if p > 0.0 {
            self.layer("obs.trace_overhead_pct", 100.0 * (t - p) / p);
        }
    }
}

/// `kgtosa_datagen::mag` under a span.
pub fn mag(scale: f64, seed: u64) -> Dataset {
    let _s = trace::span("datagen.mag");
    kgtosa_datagen::mag(scale, seed)
}

/// `RdfStore::new` under a span.
pub fn store(kg: &KnowledgeGraph) -> RdfStore<'_> {
    let _s = trace::span("rdf.RdfStore::new");
    RdfStore::new(kg)
}

fn is_layer_span(name: &str) -> bool {
    LAYER_SPANS.iter().any(|(span, _)| {
        name.strip_prefix(span)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
    })
}

/// Self time of the layer spans among `spans`.
pub fn layer_self_s(spans: &[trace::Span]) -> f64 {
    let selfs = trace::self_times(spans);
    spans
        .iter()
        .filter(|s| is_layer_span(&s.name))
        .map(|s| selfs[&s.id])
        .sum()
}

/// Per-name lists of (self time, duration) over `spans`.
pub fn by_name(spans: &[trace::Span]) -> BTreeMap<String, Vec<(f64, f64)>> {
    let selfs = trace::self_times(spans);
    let mut out: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name.clone())
            .or_default()
            .push((selfs[&s.id], s.dur()));
    }
    out
}

/// Median self time of the spans called `name`.
pub fn median_self(named: &BTreeMap<String, Vec<(f64, f64)>>, name: &str) -> f64 {
    let xs: Vec<f64> = named
        .get(name)
        .map(|v| v.iter().map(|p| p.0).collect())
        .unwrap_or_default();
    stats::median(&xs)
}

/// Self time of the spans called `name`, per set-up.
pub fn per_setup(named: &BTreeMap<String, Vec<(f64, f64)>>, name: &str) -> f64 {
    named
        .get(name)
        .map(|v| v.iter().map(|p| p.0).sum::<f64>())
        .unwrap_or(0.0)
        / SETUP_REPS as f64
}

/// Spans that started inside `[lo, hi]`.
pub fn within(spans: &[trace::Span], lo: f64, hi: f64) -> Vec<trace::Span> {
    spans
        .iter()
        .filter(|s| s.start >= lo && s.start <= hi)
        .cloned()
        .collect()
}

pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    closed_loop: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let closed_loop = argv.iter().any(|a| a == "--closed-loop");
    if closed_loop && workload != "serve-mixed" {
        return Err("--closed-loop applies to serve-mixed only".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        closed_loop,
    })
}

/// The commit being measured, read from `.git` when the checkout has one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or_default()
                        .to_string()
                })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev
    }
}

fn metric_obj(table: &[(&str, &str)], value: impl Fn(&str) -> f64) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|(name, unit)| {
                let m = Json::Obj(vec![
                    ("value".into(), Json::Num(value(name))),
                    ("unit".into(), Json::Str(unit.to_string())),
                ]);
                (name.to_string(), m)
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kgbench: {e}");
            eprintln!(
                "usage: kgbench --workload <pipeline-train|extract-hops|serve-mixed> \
                 --seed N --seconds S --trace 0|1 [--closed-loop]"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("kgbench/out");
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        closed_loop: args.closed_loop,
        work: PathBuf::from("kgbench/work").join(format!("{tag}-{}", std::process::id())),
        out: out_dir.join(&tag),
    };
    if args.trace {
        trace::arm();
    }
    if let Err(e) =
        std::fs::create_dir_all(&ctx.work).and_then(|_| std::fs::create_dir_all(&out_dir))
    {
        eprintln!("kgbench: cannot create work dirs: {e}");
        return ExitCode::from(2);
    }
    let (run_start, steal0) = (Instant::now(), stats::steal_s());
    let result = match args.workload.as_str() {
        "pipeline-train" => pipeline::run(&ctx),
        "extract-hops" => extract::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kgbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };

    o.layer("peak_rss_mb", o.peak_rss_mb);
    o.layer("p50_ms", stats::median(&o.latencies_ms));
    let tail = stats::tail(&o.latencies_ms);
    let e2e: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&o.setup_s)),
        ("peak_heap_mb", o.peak_heap_mb),
        ("cpu_ms", stats::median(&o.unit_cpu_ms)),
    ]
    .into_iter()
    .collect();

    let correct = o.failures.is_empty();
    let mut record = vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("git_rev".into(), Json::Str(git_rev())),
        ("nproc".into(), Json::Num(stats::nproc() as f64)),
        (
            "threads".into(),
            Json::Num(kgtosa_par::current_threads() as f64),
        ),
        (
            "simd".into(),
            Json::Str(format!("{:?}", kgtosa_tensor::simd_level())),
        ),
        (
            "setup_runs_s".into(),
            Json::Arr(o.setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "unit_ms".into(),
            Json::Arr(o.latencies_ms.iter().map(|&l| Json::Num(l)).collect()),
        ),
        (
            "unit_cpu_ms".into(),
            Json::Arr(o.unit_cpu_ms.iter().map(|&c| Json::Num(c)).collect()),
        ),
        ("p50_ms".into(), Json::Num(stats::median(&o.latencies_ms))),
        ("peak_rss_mb".into(), Json::Num(o.peak_rss_mb)),
        ("timed_cpu_s".into(), Json::Num(o.timed_cpu_s)),
        (
            "mean_ms".into(),
            Json::Num(o.latencies_ms.iter().sum::<f64>() / o.latencies_ms.len().max(1) as f64),
        ),
        ("tail_ms".into(), Json::Num(tail.value)),
        ("tail_pct".into(), Json::Num(tail.pct)),
        ("tail_samples".into(), Json::Num(tail.samples as f64)),
        (
            "failures".into(),
            Json::Arr(o.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        (
            "machine_steal_pct".into(),
            Json::Num(
                100.0 * (stats::steal_s() - steal0) / (since(run_start) * stats::nproc() as f64),
            ),
        ),
    ];
    record.append(&mut o.record);
    record.push(("end_to_end".into(), metric_obj(END_TO_END, |n| e2e[n])));
    if args.trace {
        record.push((
            "per_layer".into(),
            metric_obj(PER_LAYER, |n| o.layers.get(n).copied().unwrap_or(0.0)),
        ));
    }
    let record = Json::Obj(record).to_string();
    if let Err(e) = std::fs::write(ctx.out.with_extension("json"), &record) {
        eprintln!("kgbench: cannot write the run record: {e}");
    }
    if args.trace {
        let path = ctx.out.with_extension("spans.jsonl");
        if let Err(e) = trace::write_jsonl(&path, &trace::spans()) {
            eprintln!("kgbench: cannot write spans: {e}");
        }
    }
    for f in &o.failures {
        eprintln!("kgbench: check failed: {f}");
    }

    let metrics = if args.trace {
        metric_obj(PER_LAYER, |n| o.layers.get(n).copied().unwrap_or(0.0))
    } else {
        metric_obj(END_TO_END, |n| e2e[n])
    };
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(o.attempted as f64)),
        ("failed".into(), Json::Num(o.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{record}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        match json.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), table(END_TO_END));
        assert_eq!(listed("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn every_layer_span_reports_a_listed_metric() {
        for (span, metric) in LAYER_SPANS {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == metric
                    || n.strip_prefix(metric).is_some_and(|r| r.starts_with('.'))),
                "{span} maps to unlisted {metric}"
            );
        }
    }

    fn span(id: u64, parent: u64, name: &str, start: f64, end: f64) -> trace::Span {
        trace::Span {
            id,
            parent,
            req: 0,
            lane: 0,
            name: name.into(),
            start,
            end,
        }
    }

    #[test]
    fn coverage_counts_layer_spans_only() {
        // A wrapper around an extraction whose layer calls fill 9.8 of its
        // 10 seconds.
        let spans = vec![
            span(1, 0, "extract.d1h1", 0.0, 10.0),
            span(2, 1, "core.compile_subqueries.d1h1", 0.0, 0.3),
            span(3, 1, "rdf.fetch_triples_robust.d1h1", 0.3, 6.0),
            span(4, 1, "core.sort_dedup.d1h1", 6.0, 6.5),
            span(5, 1, "kg.subgraph_from_triples_and_nodes", 6.5, 9.8),
        ];
        assert!(is_layer_span("rdf.fetch_triples_robust.d2h2"));
        assert!(!is_layer_span("rdf.fetch_triples_robustness"));
        assert!(!is_layer_span("extract.d1h1"));
        let mut o = Outcome::default();
        o.coverage(layer_self_s(&spans), &[10.0], &[]);
        assert!((o.layers["coverage"] - 0.98).abs() < 1e-9);
        assert!(o.failures.is_empty());
        // Without the subgraph span its time is the wrapper's, which does
        // not count, and the check fails.
        let mut o = Outcome::default();
        o.coverage(layer_self_s(&spans[..4]), &[10.0], &[]);
        assert!((o.layers["coverage"] - 0.65).abs() < 1e-9);
        assert_eq!(o.failures.len(), 1);
    }
}
