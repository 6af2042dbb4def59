//! serve-mixed: open-loop traffic from one process against an in-process
//! `kgtosa serve` daemon over HTTP. Requests follow a seeded arrival
//! schedule and are timed from when they were due. The mix: `/extract`
//! over class × pattern keys with skewed popularity (mostly cache hits,
//! a tail of misses), `/infer` for 8 test nodes, and a steady trickle of
//! `/admin/update` deltas that swap the epoch and sweep the cache while
//! reads go on. It is the only workload that reaches admission, the
//! artifact cache and the update path.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kgtosa_core::{extract_sparql, transform, ExtractionTask};
use kgtosa_kg::{apply_delta, fingerprint, DeltaOp, KgDelta, MultisetFingerprint};
use kgtosa_models::{train_rgcn_nc, CheckpointConfig, NcDataset, TrainConfig};
use kgtosa_obs::Json;
use kgtosa_rdf::FetchConfig;
use kgtosa_serve::client::post_json;
use kgtosa_serve::{DrainReport, ServeConfig, ServeState, Server};

use crate::gen::{self, Arrival, Request, CLASSES, MIX, PATTERNS};
use crate::{stats, trace, Ctx, Outcome, SETUP_REPS};

/// MAG at scale 1.0: ≈167k triples.
const SCALE: f64 = 1.0;
const DIM: usize = 16;
const LR: f32 = 0.02;
/// Epochs of the RGCN checkpoint trained during set-up.
const CKPT_EPOCHS: usize = 2;
const WORKERS: usize = 2;
const DELTA_OPS: usize = 8;
/// Alternating traced/untraced cached `/extract` calls that measure the
/// spans' overhead after the open loop.
const OVERHEAD_PAIRS: usize = 20;
const TIMEOUT: Duration = Duration::from_secs(120);

struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<DrainReport>>,
    param_hash: u64,
}

impl Daemon {
    fn stop(self) -> Result<DrainReport, String> {
        let r = post_json(self.addr, "/admin/shutdown", "{}", TIMEOUT)
            .map_err(|e| format!("shutdown: {e}"))?;
        if r.status != 202 {
            return Err(format!("shutdown answered {}", r.status));
        }
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

/// Set-up: train the served RGCN checkpoint on the full KG, then build the
/// daemon state and bind it.
fn start(ctx: &Ctx, rep: usize) -> Result<Daemon, String> {
    let dir = ctx.work.join(format!("daemon{rep}"));
    let (ckpt, cache) = (dir.join("ckpt"), dir.join("cache"));
    std::fs::create_dir_all(&ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let param_hash = {
        let d = crate::mag(SCALE, ctx.seed);
        let (graph, _) = {
            let _s = trace::span("kg.transform");
            transform(&d.gen.kg)
        };
        let nc = &d.nc[0];
        let data = NcDataset {
            kg: &d.gen.kg,
            graph: &graph,
            labels: &nc.labels,
            num_labels: nc.num_labels,
            train: &nc.train,
            valid: &nc.valid,
            test: &nc.test,
        };
        let cfg = TrainConfig {
            epochs: CKPT_EPOCHS,
            dim: DIM,
            lr: LR,
            seed: ctx.seed,
            checkpoint: Some(CheckpointConfig {
                dir: ckpt.clone(),
                interval: CKPT_EPOCHS,
            }),
            ..Default::default()
        };
        let _s = trace::span("models.train_rgcn_nc");
        train_rgcn_nc(&data, &cfg).param_hash
    };
    let cfg = ServeConfig {
        dataset: "mag".into(),
        scale: SCALE,
        seed: ctx.seed,
        dim: DIM,
        lr: LR,
        workers: WORKERS,
        default_deadline: Duration::from_secs(60),
        max_deadline: Duration::from_secs(60),
        cache_dir: Some(cache),
        checkpoint_dir: Some(ckpt),
        ..ServeConfig::default()
    };
    let state = {
        let _s = trace::span("serve.ServeState::from_dataset");
        ServeState::from_dataset(cfg)?
    };
    let server = Server::bind(state).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let thread = std::thread::Builder::new()
        .name("kgbench-daemon".into())
        .spawn(move || server.run())
        .map_err(|e| format!("spawn daemon: {e}"))?;
    Ok(Daemon {
        addr,
        thread,
        param_hash,
    })
}

fn num(j: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(j, |j, k| j.get(k))?.as_f64()
}

fn text(j: &Json, key: &str) -> Option<String> {
    j.get(key).and_then(Json::as_str).map(str::to_string)
}

fn op_json(op: &DeltaOp) -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    match op {
        DeltaOp::Add {
            s: sv,
            s_class,
            p,
            o,
            o_class,
        } => Json::Obj(vec![
            ("op".into(), s("add")),
            ("s".into(), s(sv)),
            ("s_class".into(), s(s_class)),
            ("p".into(), s(p)),
            ("o".into(), s(o)),
            ("o_class".into(), s(o_class)),
        ]),
        DeltaOp::Remove { s: sv, p, o } => Json::Obj(vec![
            ("op".into(), s("remove")),
            ("s".into(), s(sv)),
            ("p".into(), s(p)),
            ("o".into(), s(o)),
        ]),
    }
}

fn request(a: &Arrival, deltas: &[Vec<DeltaOp>]) -> (&'static str, &'static str, String) {
    match &a.req {
        Request::Extract { class, pattern } => (
            "extract",
            "/extract",
            Json::Obj(vec![
                ("target_class".into(), Json::Str(CLASSES[*class].into())),
                ("pattern".into(), Json::Str(PATTERNS[*pattern].label())),
                ("deadline_ms".into(), Json::Num(60_000.0)),
            ])
            .to_string(),
        ),
        Request::Infer { nodes } => (
            "infer",
            "/infer",
            Json::Obj(vec![
                ("checkpoint".into(), Json::Str("RGCN".into())),
                ("task".into(), Json::Str("PV/MAG".into())),
                (
                    "nodes".into(),
                    Json::Arr(nodes.iter().map(|&n| Json::Num(n as f64)).collect()),
                ),
                ("deadline_ms".into(), Json::Num(60_000.0)),
            ])
            .to_string(),
        ),
        Request::Update { index } => (
            "update",
            "/admin/update",
            Json::Obj(vec![(
                "ops".into(),
                Json::Arr(deltas[*index].iter().map(op_json).collect()),
            )])
            .to_string(),
        ),
    }
}

/// One request's fate as the client saw it.
struct Sent {
    index: usize,
    kind: &'static str,
    /// Generator lateness: send time minus due time, seconds.
    lag_s: f64,
    /// From due time to reply, seconds.
    latency_s: f64,
    /// From send to reply, seconds.
    rtt_s: f64,
    status: u16,
    body: Option<Json>,
    /// Resident set size right before sending and right after the reply
    /// (updates only).
    rss_mb: (f64, f64),
}

/// Replays the schedule over `clients` connections (threads). With two,
/// one carries `/extract` and the other `/infer` and `/admin/update`, so
/// a slow request never holds up a read on the client side and updates
/// go out one at a time in stream order.
fn open_loop(
    addr: SocketAddr,
    sched: &[Arrival],
    deltas: &[Vec<DeltaOp>],
    clients: usize,
) -> Vec<Sent> {
    let lanes: Vec<Vec<usize>> = if clients >= 2 {
        let (reads, rest): (Vec<usize>, Vec<usize>) =
            (0..sched.len()).partition(|&i| matches!(sched[i].req, Request::Extract { .. }));
        vec![reads, rest]
    } else {
        vec![(0..sched.len()).collect()]
    };
    let t0 = Instant::now();
    let mut all: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(lane, indices)| {
                scope.spawn(move || {
                    trace::set_lane(lane as u64 + 1);
                    indices
                        .iter()
                        .map(|&i| {
                            let due = t0 + Duration::from_secs_f64(sched[i].due_s);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            send(addr, due, i, &sched[i], deltas)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    all.sort_by_key(|s| s.index);
    all
}

/// Closed loop for `budget`: `clients` connections send the schedule's
/// `/extract` and `/infer` requests back to back, cycling through them,
/// after one warm-up request per key. Measures the daemon's saturation
/// throughput for the read mix; returns the replies and the loop's wall.
fn closed_loop(
    addr: SocketAddr,
    sched: &[Arrival],
    clients: usize,
    budget: Duration,
) -> (Vec<Sent>, f64) {
    let reads: Vec<usize> = (0..sched.len())
        .filter(|&i| !matches!(sched[i].req, Request::Update { .. }))
        .collect();
    let mut warmed = Vec::new();
    for &i in &reads {
        if matches!(sched[i].req, Request::Extract { .. }) && !warmed.contains(&sched[i].req) {
            warmed.push(sched[i].req.clone());
            send(addr, Instant::now(), i, &sched[i], &[]);
        }
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let t0 = Instant::now();
    let all: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while t0.elapsed() < budget {
                        let n = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let i = reads[n % reads.len()];
                        out.push(send(addr, Instant::now(), i, &sched[i], &[]));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (all, crate::since(t0))
}

/// Sends request `i`, due at `due`, and reads the reply. The client-side
/// request span holds the reply's phases as layer spans: the handler time
/// the daemon reports (split into swap and sweep for updates) and the
/// rest of the round trip as `serve.queue`.
fn send(addr: SocketAddr, due: Instant, i: usize, a: &Arrival, deltas: &[Vec<DeltaOp>]) -> Sent {
    let (kind, path, body) = request(a, deltas);
    let rss_before = if kind == "update" {
        stats::rss_mb()
    } else {
        0.0
    };
    let sent = Instant::now();
    let span = trace::request(format!("serve.{kind}"), i as u64 + 1);
    let reply = post_json(addr, path, &body, TIMEOUT);
    let recv = Instant::now();
    let (status, body) = match reply {
        Ok(r) => (r.status, Json::parse(&r.body).ok()),
        Err(_) => (0, None),
    };
    if let Some(b) = &body {
        record_phases(kind, b, sent, recv);
    }
    let rss_mb = if kind == "update" {
        (rss_before, stats::rss_mb())
    } else {
        (0.0, 0.0)
    };
    drop(span);
    Sent {
        index: i,
        kind,
        lag_s: sent.saturating_duration_since(due).as_secs_f64(),
        latency_s: recv.saturating_duration_since(due).as_secs_f64(),
        rtt_s: (recv - sent).as_secs_f64(),
        status,
        body,
        rss_mb,
    }
}

/// Records the phases of one reply, ending at `recv`, as spans.
fn record_phases(kind: &str, body: &Json, sent: Instant, recv: Instant) {
    let ms = |key: &str| num(body, &[key]).map(|ms| Duration::from_secs_f64(ms.max(0.0) / 1e3));
    let Some(handler) = ms("elapsed_ms") else {
        return;
    };
    let start = recv.checked_sub(handler).unwrap_or(sent).max(sent);
    trace::record("serve.queue", sent, start);
    match kind {
        "extract" => {
            let hit = body.get("cached").and_then(Json::as_bool) == Some(true);
            let name = if hit {
                "serve.handler.hit"
            } else {
                "serve.handler.miss"
            };
            trace::record(name, start, recv);
        }
        "infer" => trace::record("serve.handler.infer", start, recv),
        _ => {
            // swap_ms runs from the handler's start to the epoch swap;
            // the sweep follows. What is left of the handler is no layer's.
            let swapped = (start + ms("swap_ms").unwrap_or_default()).min(recv);
            let swept = (swapped + ms("staleness_window_ms").unwrap_or_default()).min(recv);
            trace::record("update.swap", start, swapped);
            trace::record("update.sweep", swapped, swept);
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    for rep in 1..SETUP_REPS {
        let t = Instant::now();
        let daemon = start(ctx, rep)?;
        o.setup_s.push(crate::since(t));
        daemon.stop()?;
    }
    let t = Instant::now();
    let daemon = start(ctx, 0)?;
    o.setup_s.push(crate::since(t));

    // Inputs: the same generator and seed as the daemon's KG, so deltas
    // name live triples and the local chain can re-derive every epoch.
    // The local KG is dropped before the load, so the heap peak is the
    // daemon's and the clients', and generated again for the checks.
    let (sched, deltas, kg_triples) = {
        let _pause = trace::Paused::new();
        let local = kgtosa_datagen::mag(SCALE, ctx.seed);
        let sched = gen::schedule(ctx.seed, ctx.seconds, &MIX, &local.nc[0].test);
        let deltas = gen::deltas(&local.gen.kg, ctx.seed, gen::updates(&sched), DELTA_OPS);
        (sched, deltas, local.gen.kg.num_triples())
    };
    o.note("kg_scale", Json::Num(SCALE));
    o.note("kg_triples", Json::Num(kg_triples as f64));
    let clients = stats::nproc().clamp(1, 2);
    if ctx.closed_loop {
        return saturate(o, daemon, &sched, clients, ctx.budget());
    }

    kgtosa_memtrack::reset_peak();
    let (cpu0, rss0, t0) = (stats::cpu_s(), stats::rss_mb(), Instant::now());
    o.note("rss_before_load_mb", Json::Num(rss0));
    let sent = open_loop(daemon.addr, &sched, &deltas, clients);
    let timed_s = crate::since(t0);
    o.mark_peaks();
    let cpu_util = o.timed_cpu(cpu0, timed_s);

    let overhead = if ctx.trace {
        Some(overhead_ab(daemon.addr)?)
    } else {
        None
    };
    let param_hash = daemon.param_hash;
    let drain = daemon.stop()?;
    if let Err(e) = write_requests(&ctx.out.with_extension("requests.jsonl"), &sched, &sent) {
        eprintln!("kgbench: cannot write the request log: {e}");
    }
    o.note("drain_served", Json::Num(drain.served as f64));
    o.note("drain_sheds", Json::Num(drain.sheds as f64));

    o.attempted = sent.len() as u64;
    o.failed = sent.iter().filter(|s| s.status != 200).count() as u64;
    for s in &sent {
        o.latencies_ms.push(s.latency_s * 1e3);
    }
    // Requests overlap, so their CPU is shared out evenly over the load.
    o.unit_cpu_ms
        .push(o.timed_cpu_s * 1e3 / sent.len().max(1) as f64);
    let errors5xx = sent
        .iter()
        .filter(|s| s.status >= 500 || s.status == 0)
        .count();
    let failed = o.failed;
    o.check(failed == 0, || {
        format!("{failed} requests not answered 200 ({errors5xx} with 5xx or no reply)")
    });
    let hash = format!("{param_hash:016x}");
    let bad_infer = sent
        .iter()
        .filter(|s| s.kind == "infer" && s.status == 200)
        .filter(|s| {
            s.body
                .as_ref()
                .and_then(|b| text(b, "param_hash"))
                .as_deref()
                != Some(hash.as_str())
        })
        .count();
    o.check(bad_infer == 0, || {
        format!("{bad_infer} /infer answers served a model other than the checkpoint")
    });
    verify_chain(&mut o, ctx.seed, &sched, &sent, &deltas)?;

    o.note("requests", Json::Num(sent.len() as f64));
    let rss_after: Vec<Json> = sent
        .iter()
        .filter(|s| s.kind == "update")
        .map(|s| Json::Num(s.rss_mb.1))
        .collect();
    o.note("rss_after_updates_mb", Json::Arr(rss_after));
    o.note("updates", Json::Num(deltas.len() as f64));
    o.note("offered_rps", Json::Num(sched.len() as f64 / ctx.seconds));
    let lags: Vec<f64> = sent.iter().map(|s| s.lag_s * 1e3).collect();
    o.note(
        "gen_lag_max_ms",
        Json::Num(lags.iter().copied().fold(0.0, f64::max)),
    );

    if ctx.trace {
        let local = {
            let _pause = trace::Paused::new();
            kgtosa_datagen::mag(SCALE, ctx.seed)
        };
        std::hint::black_box(crate::store(&local.gen.kg));
        let spans = trace::spans();
        let named = crate::by_name(&spans);
        o.layer(
            "datagen.generate_s",
            crate::per_setup(&named, "datagen.mag"),
        );
        o.layer(
            "rdf.store_build_s",
            crate::median_self(&named, "rdf.RdfStore::new"),
        );
        o.layer("kg.transform_s", crate::median_self(&named, "kg.transform"));
        o.layer(
            "models.train_s",
            crate::median_self(&named, "models.train_rgcn_nc"),
        );
        // Coverage against the time requests were in flight on the client
        // lanes: the request spans are the roots there.
        let lane_spans: Vec<_> = spans.iter().filter(|s| s.lane > 0).cloned().collect();
        let in_flight: Vec<f64> = lane_spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(trace::Span::dur)
            .collect();
        o.coverage(crate::layer_self_s(&lane_spans), &in_flight, &[]);
        let (traced_ms, plain_ms) = overhead.unwrap_or_default();
        if plain_ms > 0.0 {
            o.layer(
                "obs.trace_overhead_pct",
                100.0 * (traced_ms - plain_ms) / plain_ms,
            );
        }
        o.layer("wall_s", timed_s);
        o.layer("par.cpu_util", cpu_util);
        serve_layers(&mut o, &sent);
        let (graph, _) = transform(&local.gen.kg);
        crate::replay::replay(&mut o, &graph, DIM, false);
    }
    Ok(o)
}

/// `--closed-loop`: the daemon's saturation throughput on the read mix,
/// which the open loop's offered rate is a stated fraction of.
fn saturate(
    mut o: Outcome,
    daemon: Daemon,
    sched: &[Arrival],
    clients: usize,
    budget: Duration,
) -> Result<Outcome, String> {
    kgtosa_memtrack::reset_peak();
    let cpu0 = stats::cpu_s();
    let (sent, wall_s) = closed_loop(daemon.addr, sched, clients, budget);
    o.mark_peaks();
    o.timed_cpu(cpu0, wall_s);
    daemon.stop()?;
    o.attempted = sent.len() as u64;
    o.failed = sent.iter().filter(|s| s.status != 200).count() as u64;
    let failed = o.failed;
    o.check(failed == 0, || {
        format!("{failed} requests not answered 200")
    });
    o.latencies_ms = sent.iter().map(|s| s.rtt_s * 1e3).collect();
    o.unit_cpu_ms
        .push(o.timed_cpu_s * 1e3 / sent.len().max(1) as f64);
    o.note("closed_loop_clients", Json::Num(clients as f64));
    o.note("closed_loop_rps", Json::Num(sent.len() as f64 / wall_s));
    for kind in ["extract", "infer"] {
        let handler: Vec<f64> = sent
            .iter()
            .filter(|s| s.kind == kind)
            .filter_map(|s| s.body.as_ref().and_then(|b| num(b, &["elapsed_ms"])))
            .collect();
        o.note(
            &format!("closed_loop_{kind}_handler_ms"),
            Json::Num(stats::median(&handler)),
        );
        o.note(
            &format!("closed_loop_{kind}_handler_total_s"),
            Json::Num(handler.iter().sum::<f64>() / 1e3),
        );
    }
    Ok(o)
}

/// One JSON line per request: what was due when, and what came back.
fn write_requests(path: &std::path::Path, sched: &[Arrival], sent: &[Sent]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in sent {
        let a = &sched[s.index];
        let mut row = vec![
            ("index".into(), Json::Num(s.index as f64)),
            ("kind".into(), Json::Str(s.kind.into())),
            ("due_s".into(), Json::Num(a.due_s)),
            ("lag_ms".into(), Json::Num(s.lag_s * 1e3)),
            ("latency_ms".into(), Json::Num(s.latency_s * 1e3)),
            ("rtt_ms".into(), Json::Num(s.rtt_s * 1e3)),
            ("status".into(), Json::Num(f64::from(s.status))),
        ];
        if let Request::Extract { class, pattern } = a.req {
            row.push((
                "key".into(),
                Json::Str(format!("{}/{}", CLASSES[class], PATTERNS[pattern].label())),
            ));
        }
        if let Some(b) = &s.body {
            for key in [
                "elapsed_ms",
                "cached",
                "epoch",
                "swap_ms",
                "staleness_window_ms",
            ] {
                if let Some(v) = b.get(key) {
                    row.push((key.into(), v.clone()));
                }
            }
        }
        writeln!(out, "{}", Json::Obj(row))?;
    }
    out.flush()
}

/// Per-request-type latencies and the daemon-reported phase times.
fn serve_layers(o: &mut Outcome, sent: &[Sent]) {
    let ok = |kind: &'static str| {
        sent.iter()
            .filter(move |s| s.kind == kind && s.status == 200)
    };
    let field = |kind, key: &'static [&'static str]| -> Vec<f64> {
        ok(kind)
            .filter_map(|s| s.body.as_ref().and_then(|b| num(b, key)))
            .collect()
    };
    for (kind, p50, tail) in [
        ("extract", "extract_p50_ms", "extract_tail_ms"),
        ("infer", "infer_p50_ms", "infer_tail_ms"),
        ("update", "update_p50_ms", "update_tail_ms"),
    ] {
        // Failed requests count as missing any limit: they enter the tail
        // at infinite latency.
        let lat: Vec<f64> = sent
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| {
                if s.status == 200 {
                    s.latency_s * 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let t = stats::tail(&lat);
        o.layer(p50, stats::median(&lat));
        o.layer(tail, t.value);
        o.note(&format!("{tail}_pct"), Json::Num(t.pct));
        o.note(&format!("{tail}_samples"), Json::Num(t.samples as f64));
    }
    let extracts: Vec<&Sent> = ok("extract").collect();
    let cached = |s: &Sent| {
        s.body
            .as_ref()
            .and_then(|b| b.get("cached"))
            .and_then(Json::as_bool)
            == Some(true)
    };
    let handler_ms = |s: &Sent| {
        s.body
            .as_ref()
            .and_then(|b| num(b, &["elapsed_ms"]))
            .unwrap_or(0.0)
    };
    let hits: Vec<f64> = extracts
        .iter()
        .filter(|s| cached(s))
        .map(|s| handler_ms(s))
        .collect();
    let misses: Vec<f64> = extracts
        .iter()
        .filter(|s| !cached(s))
        .map(|s| handler_ms(s))
        .collect();
    o.layer(
        "cache.hit_ratio",
        hits.len() as f64 / extracts.len().max(1) as f64,
    );
    o.layer("cache.hit_ms", stats::median(&hits));
    o.layer("cache.miss_ms", stats::median(&misses));
    o.note("cache_misses", Json::Num(misses.len() as f64));
    let queue: Vec<f64> = sent
        .iter()
        .filter(|s| s.status == 200)
        .filter_map(|s| {
            s.body
                .as_ref()
                .and_then(|b| num(b, &["elapsed_ms"]))
                .map(|h| s.rtt_s * 1e3 - h)
        })
        .collect();
    o.layer("serve.queue_ms", stats::median(&queue));
    o.layer(
        "serve.infer_handler_ms",
        stats::median(&field("infer", &["elapsed_ms"])),
    );
    let lags: Vec<f64> = sent.iter().map(|s| s.lag_s * 1e3).collect();
    o.layer("serve.gen_lag_ms", stats::tail(&lags).value);
    o.layer(
        "update.swap_ms",
        stats::median(&field("update", &["swap_ms"])),
    );
    o.layer(
        "update.sweep_ms",
        stats::median(&field("update", &["staleness_window_ms"])),
    );
    let total = |key| field("update", key).iter().sum::<f64>();
    o.layer("update.repaired", total(&["cache", "repaired"]));
    o.layer("update.migrated", total(&["cache", "migrated"]));
    o.layer("update.invalidated", total(&["cache", "invalidated"]));
    // RSS across each update's round trip: mostly its leaked epoch KG,
    // plus whatever the concurrent reads allocated meanwhile.
    let growth: Vec<f64> = ok("update").map(|s| s.rss_mb.1 - s.rss_mb.0).collect();
    o.layer("update.rss_growth_mb", stats::median(&growth));
}

/// Re-applies the delta stream locally and checks that every update
/// reported the same base and result fingerprints, and that the
/// latest-epoch `/extract` answer of each pattern equals a local
/// `extract_sparql` on that epoch's KG.
fn verify_chain(
    o: &mut Outcome,
    seed: u64,
    sched: &[Arrival],
    sent: &[Sent],
    deltas: &[Vec<DeltaOp>],
) -> Result<(), String> {
    let _pause = trace::Paused::new();
    let local = kgtosa_datagen::mag(SCALE, seed);
    let updates: Vec<&Sent> = sent.iter().filter(|s| s.kind == "update").collect();
    // (epoch, class, pattern, served fingerprint)
    let mut sample: Vec<(usize, usize, usize, String)> = Vec::new();
    for p in 0..PATTERNS.len() {
        let best = sent
            .iter()
            .filter(|s| s.status == 200)
            .filter_map(|s| match sched[s.index].req {
                Request::Extract { class, pattern } if pattern == p => {
                    let b = s.body.as_ref()?;
                    let epoch = num(b, &["epoch"])? as usize;
                    Some((epoch, class, pattern, text(b, "subgraph_fingerprint")?))
                }
                _ => None,
            })
            .max_by_key(|a| a.0);
        sample.extend(best);
    }

    let mut kg = local.gen.kg.clone();
    let mut fp = fingerprint(&kg);
    let mut ms = MultisetFingerprint::of(&kg);
    let mut mismatches = 0;
    for epoch in 0..=deltas.len() {
        for (_, class, p, want) in sample.iter().filter(|a| a.0 == epoch) {
            let (class, pattern) = (CLASSES[*class], &PATTERNS[*p]);
            let cid = kg.find_class(class).ok_or("sampled class missing")?;
            let task = ExtractionTask::node_classification(class, class, kg.nodes_of_class(cid));
            let store = crate::store(&kg);
            let res = extract_sparql(&store, &task, pattern, &FetchConfig::default())
                .map_err(|e| format!("local extraction: {e}"))?;
            let got = format!("{:016x}", fingerprint(&res.subgraph.kg));
            o.check(&got == want, || {
                format!(
                    "/extract {class} {} at epoch {epoch}: served {want}, local {got}",
                    pattern.label()
                )
            });
        }
        let Some(ops) = deltas.get(epoch) else { break };
        let reply = updates.get(epoch).and_then(|s| s.body.as_ref());
        let base = reply.and_then(|b| text(b, "previous_fingerprint"));
        let delta = KgDelta {
            base_fingerprint: fp,
            ops: ops.clone(),
        };
        let app =
            apply_delta(&kg, fp, ms, &delta).map_err(|e| format!("local delta {epoch}: {e}"))?;
        kg = app.kg;
        ms = app.multiset;
        let next = fingerprint(&kg);
        let after = reply.and_then(|b| text(b, "kg_fingerprint"));
        if base != Some(format!("{fp:016x}")) || after != Some(format!("{next:016x}")) {
            mismatches += 1;
        }
        fp = next;
    }
    o.check(mismatches == 0, || {
        format!("{mismatches} updates disagree with the local delta chain")
    });
    o.note("sampled_extracts_checked", Json::Num(sample.len() as f64));
    o.note("final_kg_fingerprint", Json::Str(format!("{fp:016x}")));
    Ok(())
}

/// Median latency of traced and untraced cached `/extract` calls,
/// alternated on a warm key after the open loop.
fn overhead_ab(addr: SocketAddr) -> Result<(f64, f64), String> {
    let body = Json::Obj(vec![
        ("target_class".into(), Json::Str(CLASSES[0].into())),
        ("pattern".into(), Json::Str(PATTERNS[0].label())),
    ])
    .to_string();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for i in 0..2 * OVERHEAD_PAIRS + 1 {
        let on = i % 2 == 1;
        trace::set_active(on);
        let t = Instant::now();
        let r = {
            let _s = trace::request("serve.extract", 0);
            post_json(addr, "/extract", &body, TIMEOUT)
                .map_err(|e| format!("overhead probe: {e}"))?
        };
        let ms = crate::since(t) * 1e3;
        trace::set_active(true);
        if r.status != 200 {
            return Err(format!("overhead probe answered {}", r.status));
        }
        // The first call may miss the cache; it warms the key.
        if i > 0 {
            if on {
                traced.push(ms)
            } else {
                plain.push(ms)
            }
        }
    }
    Ok((stats::median(&traced), stats::median(&plain)))
}
