//! Seeded input generators for serve-mixed: the arrival schedule with its
//! request mix, and the stream of triple deltas sent to `/admin/update`.
//! The same seed always gives the same inputs; the daemon sees only the
//! generated requests.

use kgtosa_core::GraphPattern;
use kgtosa_kg::{DeltaOp, KnowledgeGraph, Vid};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Target classes `/extract` asks for, most popular first: the three
/// largest of MAG, so every key's TOSG is non-empty.
pub const CLASSES: [&str; 3] = ["Paper", "Author", "Patent"];

/// Patterns `/extract` asks for. d2h2 is left out: one d2h2 miss on the
/// served KG takes longer than a whole run.
pub const PATTERNS: [GraphPattern; 3] =
    [GraphPattern::D1H1, GraphPattern::D2H1, GraphPattern::D1H2];

#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `/extract` for key `CLASSES[class]` × `PATTERNS[pattern]`.
    Extract { class: usize, pattern: usize },
    /// `/infer` for these node ids.
    Infer { nodes: Vec<u32> },
    /// `/admin/update` carrying delta number `index` of the stream.
    Update { index: usize },
}

/// One request of the open-loop schedule, due `due_s` seconds after start.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub req: Request,
}

/// The offered load.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Rate of `/extract` + `/infer` arrivals, per second.
    pub rate: f64,
    /// Share of those arrivals that are `/infer`.
    pub infer_share: f64,
    /// Nodes per `/infer` request.
    pub infer_nodes: usize,
    /// One `/admin/update` every this many seconds.
    pub update_every_s: f64,
    /// Zipf exponent of key popularity over the class × pattern keys.
    pub zipf: f64,
}

/// The committed serve-mixed load. `kgbench/README.md` gives the basis of
/// each constant.
pub const MIX: Mix = Mix {
    rate: 8.0,
    infer_share: 0.04,
    infer_nodes: 8,
    update_every_s: 5.0,
    zipf: 0.8,
};

/// How many of `n` requests each class × pattern key gets under Zipf
/// popularity: the largest-remainder rounding of the Zipf shares, so the
/// counts sum to `n` and the same `n` always gives the same counts.
pub fn key_counts(n: usize, zipf: f64) -> Vec<usize> {
    let keys = CLASSES.len() * PATTERNS.len();
    let weights: Vec<f64> = (0..keys)
        .map(|k| 1.0 / ((k + 1) as f64).powf(zipf))
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| n as f64 * w / total).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..keys).collect();
    by_remainder.sort_by(|&a, &b| {
        let frac = |k: usize| exact[k] - exact[k].floor();
        frac(b).total_cmp(&frac(a)).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// The arrival schedule over `seconds`. Arrivals are paced at a constant
/// rate — every `1/rate` seconds, whatever the replies do — and every
/// seed offers the same load: the same number of `/infer` slots and the
/// same number of requests per key (`key_counts`). The seed picks the
/// order of the keys, the `/infer` nodes from `test` and which slots carry
/// `/infer`. Updates are evenly spaced.
pub fn schedule(seed: u64, seconds: f64, mix: &Mix, test: &[Vid]) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5c4e_d01e);
    let slots = (seconds * mix.rate - 0.5).ceil().max(0.0) as usize;
    let infer_every = (1.0 / mix.infer_share).round().max(1.0) as usize;
    let phase = rng.gen_range(0..infer_every);
    let is_infer = |slot: usize| slot % infer_every == phase;
    let extracts = (0..slots).filter(|&s| !is_infer(s)).count();
    let mut keys: Vec<usize> = key_counts(extracts, mix.zipf)
        .into_iter()
        .enumerate()
        .flat_map(|(k, c)| std::iter::repeat_n(k, c))
        .collect();
    keys.shuffle(&mut rng);
    let mut keys = keys.into_iter();
    let mut out = Vec::new();
    for slot in 0..slots {
        let due_s = (slot as f64 + 0.5) / mix.rate;
        let req = if is_infer(slot) {
            let nodes = test
                .choose_multiple(&mut rng, mix.infer_nodes)
                .map(|v| v.0)
                .collect();
            Request::Infer { nodes }
        } else {
            let k = keys.next().expect("one key per extract slot");
            Request::Extract {
                class: k / PATTERNS.len(),
                pattern: k % PATTERNS.len(),
            }
        };
        out.push(Arrival { due_s, req });
    }
    let mut due_s = mix.update_every_s / 2.0;
    let mut index = 0;
    while due_s < seconds {
        out.push(Arrival {
            due_s,
            req: Request::Update { index },
        });
        index += 1;
        due_s += mix.update_every_s;
    }
    out.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    out
}

/// Number of updates in a schedule.
pub fn updates(schedule: &[Arrival]) -> usize {
    schedule
        .iter()
        .filter(|a| matches!(a.req, Request::Update { .. }))
        .count()
}

/// `count` deltas of `ops` ops each against `kg`, alternating adds and
/// removes. Removes retract distinct triples of `kg` (each at most once
/// over the whole stream), so every op stays valid when the deltas are
/// applied in order. Adds connect existing vertices with an existing
/// relation, so the vertex set never changes and the served model keeps
/// its shape.
pub fn deltas(kg: &KnowledgeGraph, seed: u64, count: usize, ops: usize) -> Vec<Vec<DeltaOp>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00de_17a5);
    let triples = kg.triples();
    assert!(
        triples.len() > count * ops,
        "KG too small for the delta stream"
    );
    let mut removable = triples.choose_multiple(&mut rng, count * ops);
    let mut by_class: Vec<Option<Vec<Vid>>> = vec![None; kg.num_classes()];
    let class_term = |v: Vid| kg.class_term(kg.class_of(v)).to_string();
    (0..count)
        .map(|_| {
            (0..ops)
                .map(|i| {
                    if i % 2 == 0 {
                        let t = triples[rng.gen_range(0..triples.len())];
                        let class = kg.class_of(t.o);
                        let peers = by_class[class.0 as usize]
                            .get_or_insert_with(|| kg.nodes_of_class(class));
                        let o = *peers.choose(&mut rng).expect("class of a live vertex");
                        DeltaOp::Add {
                            s: kg.node_term(t.s).to_string(),
                            s_class: class_term(t.s),
                            p: kg.relation_term(t.p).to_string(),
                            o: kg.node_term(o).to_string(),
                            o_class: class_term(o),
                        }
                    } else {
                        let t = *removable.next().expect("sampled enough triples");
                        DeltaOp::Remove {
                            s: kg.node_term(t.s).to_string(),
                            p: kg.relation_term(t.p).to_string(),
                            o: kg.node_term(t.o).to_string(),
                        }
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::{apply_delta, fingerprint, KgDelta, MultisetFingerprint};

    /// The run length the benchmark is committed to (`run_seconds`).
    const SECONDS: f64 = 25.0;

    fn inputs(seed: u64) -> (u64, Vec<Arrival>, Vec<Vec<DeltaOp>>) {
        let d = kgtosa_datagen::mag(0.05, seed);
        let sched = schedule(seed, SECONDS, &MIX, &d.nc[0].test);
        let deltas = deltas(&d.gen.kg, seed, updates(&sched), 8);
        (fingerprint(&d.gen.kg), sched, deltas)
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(inputs(11), inputs(11));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (fa, sa, da) = inputs(11);
        let (fb, sb, db) = inputs(12);
        assert_ne!(fa, fb);
        assert_ne!(sa, sb);
        assert_ne!(da, db);
    }

    #[test]
    fn schedule_mixes_every_request_kind() {
        let (_, sched, deltas) = inputs(3);
        assert!(sched.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(sched.iter().all(|a| a.due_s >= 0.0 && a.due_s < SECONDS));
        let updates = (SECONDS / MIX.update_every_s).round() as usize;
        assert_eq!(super::updates(&sched), updates);
        assert_eq!(deltas.len(), updates);
        let reads = (SECONDS * MIX.rate).round() as usize;
        assert_eq!(sched.len(), reads + updates);
        let infers = sched
            .iter()
            .filter(|a| matches!(a.req, Request::Infer { .. }))
            .count();
        let want = reads as f64 * MIX.infer_share;
        assert!(
            (infers as f64 - want).abs() <= 1.0,
            "{infers} /infer, want {want}"
        );
        for a in &sched {
            if let Request::Infer { nodes } = &a.req {
                assert_eq!(nodes.len(), MIX.infer_nodes);
            }
        }
    }

    #[test]
    fn every_seed_offers_the_same_key_counts() {
        let count = |sched: &[Arrival]| {
            let mut c = vec![0; CLASSES.len() * PATTERNS.len()];
            for a in sched {
                if let Request::Extract { class, pattern } = a.req {
                    c[class * PATTERNS.len() + pattern] += 1;
                }
            }
            c
        };
        let (_, a, _) = inputs(3);
        let (_, b, _) = inputs(4);
        assert_ne!(a, b);
        assert_eq!(count(&a), count(&b));
        let c = count(&a);
        // Zipf popularity: every key is asked for, more popular first.
        assert!(c.iter().all(|&n| n > 0));
        assert!(c.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(
            key_counts(100, 0.0),
            vec![12, 11, 11, 11, 11, 11, 11, 11, 11]
        );
    }

    #[test]
    fn every_delta_applies_in_sequence() {
        for seed in [1, 2, 3] {
            let d = kgtosa_datagen::mag(0.05, seed);
            let stream = deltas(&d.gen.kg, seed, 12, 8);
            let mut kg = d.gen.kg.clone();
            let mut fp = fingerprint(&kg);
            let mut ms = MultisetFingerprint::of(&kg);
            let nodes = kg.num_nodes();
            for ops in stream {
                assert_eq!(ops.len(), 8);
                let removes = ops
                    .iter()
                    .filter(|o| matches!(o, DeltaOp::Remove { .. }))
                    .count();
                assert_eq!(removes, 4);
                let delta = KgDelta {
                    base_fingerprint: fp,
                    ops,
                };
                let app = apply_delta(&kg, fp, ms, &delta).expect("generated delta applies");
                assert!(app.new_nodes.is_empty());
                kg = app.kg;
                ms = app.multiset;
                fp = fingerprint(&kg);
            }
            assert_eq!(kg.num_nodes(), nodes);
            assert_eq!(ms, MultisetFingerprint::of(&kg));
        }
    }
}
