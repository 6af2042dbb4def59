//! Property-based tests: the hexastore and executor must agree with naive
//! reference implementations on arbitrary inputs.

use proptest::prelude::*;

use kgtosa_kg::KnowledgeGraph;
use kgtosa_rdf::{
    fetch_triples, parse, FetchConfig, Group, Hexastore, InProcessEndpoint, Query, RdfStore,
    Selection, SparqlEndpoint, SparqlEngine, Term, TriplePattern, NULL_ID,
};

fn arb_triples() -> impl Strategy<Value = Vec<[u32; 3]>> {
    proptest::collection::vec((0u32..12, 0u32..4, 0u32..12), 0..80)
        .prop_map(|v| v.into_iter().map(|(s, p, o)| [s, p, o]).collect())
}

fn arb_kg() -> impl Strategy<Value = KnowledgeGraph> {
    arb_triples().prop_map(|ts| {
        let mut kg = KnowledgeGraph::new();
        for v in 0..12u32 {
            kg.add_node(&format!("n{v}"), &format!("C{}", v % 3));
        }
        for r in 0..4u32 {
            kg.add_relation(&format!("r{r}"));
        }
        for [s, p, o] in ts {
            let s = kg.find_node(&format!("n{s}")).unwrap();
            let o = kg.find_node(&format!("n{o}")).unwrap();
            let p = kg.find_relation(&format!("r{p}")).unwrap();
            kg.add_triple(s, p, o);
        }
        kg
    })
}

/// Reference scan: filter the raw list.
fn naive_scan(
    triples: &[[u32; 3]],
    s: Option<u32>,
    p: Option<u32>,
    o: Option<u32>,
) -> Vec<[u32; 3]> {
    let mut out: Vec<[u32; 3]> = triples
        .iter()
        .copied()
        .filter(|t| {
            s.is_none_or(|v| v == t[0]) && p.is_none_or(|v| v == t[1]) && o.is_none_or(|v| v == t[2])
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// One hop of a random chain: direction (`true` = outgoing), predicate
/// choice and far-end choice, decoded by [`chain_query`].
type Hop = (bool, u32, u32);

/// Builds a DISTINCT chain query: an optional `?v0 a <Ck>` anchor, then one
/// pattern per hop from the current chain term. Predicates are constants,
/// fresh variables, the repeated `?p0` or `rdf:type`; far ends are fresh
/// variables, repeated chain variables, vertex or class constants.
/// `mask` picks the projected variables (at least one).
fn chain_query(anchor: u32, hops: &[Hop], mask: u32) -> Query {
    let var = |n: String| Term::Var(n);
    let mut patterns = Vec::new();
    if anchor < 3 {
        patterns.push(TriplePattern::new(
            var("v0".into()),
            Term::Const("rdf:type".into()),
            Term::Const(format!("C{anchor}")),
        ));
    }
    let mut from = var("v0".into());
    for (i, &(out, pc, ec)) in hops.iter().enumerate() {
        let p = match pc {
            0..=3 => Term::Const(format!("r{pc}")),
            4 | 5 => var(format!("p{i}")),
            6 => var("p0".into()),
            _ => Term::Const("rdf:type".into()),
        };
        let to = match ec {
            0..=7 | 15 => var(format!("v{}", i + 1)),
            8..=10 => var(format!("v{}", ec as usize % (i + 1))),
            11..=13 => Term::Const(format!("n{}", ec - 11)),
            _ => Term::Const("C1".into()),
        };
        let (s, o) = if out {
            (from, to.clone())
        } else {
            (to.clone(), from)
        };
        patterns.push(TriplePattern::new(s, p, o));
        from = to;
    }
    let group = Group::of_patterns(patterns);
    let vars = group.variables();
    let mut proj: Vec<String> = vars
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, v)| v.clone())
        .collect();
    if proj.is_empty() {
        proj.push(vars[0].clone());
    }
    Query {
        select: Selection::Vars(proj),
        distinct: true,
        group,
        limit: None,
        offset: None,
    }
}

/// Reference evaluation: bag semantics by nested loops over every stored
/// triple (data and `rdf:type`), patterns in written order, then project,
/// sort and dedup.
fn naive_distinct(store: &RdfStore<'_>, query: &Query) -> Vec<Vec<u32>> {
    let all: Vec<[u32; 3]> = store.hexastore().scan(None, None, None).collect();
    let vars = query.group.variables();
    let slot = |v: &str| vars.iter().position(|x| x == v).unwrap();
    let mut bindings = vec![vec![NULL_ID; vars.len()]];
    for el in &query.group.elements {
        let kgtosa_rdf::Element::Pattern(tp) = el else {
            unreachable!()
        };
        let mut next = Vec::new();
        for b in &bindings {
            for t in &all {
                let mut b = b.clone();
                let unify = |b: &mut Vec<u32>, term: &Term, value: u32, pred: bool| match term {
                    Term::Var(v) => {
                        let cell = &mut b[slot(v)];
                        if *cell == NULL_ID {
                            *cell = value;
                        }
                        *cell == value
                    }
                    Term::Const(c) => {
                        let id = if pred {
                            store.resolve_pred_term(c)
                        } else {
                            store.resolve_node_term(c)
                        };
                        id == Some(value)
                    }
                };
                if unify(&mut b, &tp.s, t[0], false)
                    && unify(&mut b, &tp.p, t[1], true)
                    && unify(&mut b, &tp.o, t[2], false)
                {
                    next.push(b);
                }
            }
        }
        bindings = next;
    }
    let Selection::Vars(proj) = &query.select else {
        unreachable!()
    };
    let mut rows: Vec<Vec<u32>> = bindings
        .iter()
        .map(|b| proj.iter().map(|v| b[slot(v)]).collect())
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

proptest! {
    /// Every bound-component combination returns exactly the naive filter's
    /// triple set, regardless of which of the six orderings serves it.
    #[test]
    fn hexastore_agrees_with_naive(triples in arb_triples(),
                                   s in proptest::option::of(0u32..13),
                                   p in proptest::option::of(0u32..5),
                                   o in proptest::option::of(0u32..13)) {
        let hex = Hexastore::build(&triples);
        let mut got: Vec<[u32; 3]> = hex.scan(s, p, o).collect();
        got.sort_unstable();
        prop_assert_eq!(got, naive_scan(&triples, s, p, o));
        prop_assert_eq!(hex.count(s, p, o), naive_scan(&triples, s, p, o).len());
    }

    /// A two-pattern join matches a brute-force double loop.
    #[test]
    fn join_agrees_with_bruteforce(kg in arb_kg()) {
        let store = RdfStore::new(&kg);
        let engine = SparqlEngine::new(&store);
        let rs = engine
            .execute_str("SELECT ?a ?b ?c WHERE { ?a <r0> ?b . ?b <r1> ?c }")
            .unwrap();
        // Brute force over data triples.
        let r0 = kg.find_relation("r0").unwrap();
        let r1 = kg.find_relation("r1").unwrap();
        let mut expect = Vec::new();
        for t1 in kg.triples().iter().filter(|t| t.p == r0) {
            for t2 in kg.triples().iter().filter(|t| t.p == r1) {
                if t1.o == t2.s {
                    expect.push(vec![t1.s.raw(), t1.o.raw(), t2.o.raw()]);
                }
            }
        }
        expect.sort();
        expect.dedup();
        let mut got: Vec<Vec<u32>> = rs.rows().map(|r| r.to_vec()).collect();
        got.sort();
        got.dedup();
        // Executor output is a bag; compare distinct solutions.
        prop_assert_eq!(got, expect);
    }

    /// Paginating a query in any batch size reassembles the full result.
    #[test]
    fn pagination_is_complete(kg in arb_kg(), batch in 1usize..17) {
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let q = parse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s a <C0> }").unwrap();
        let paged = fetch_triples(
            &ep, &store, std::slice::from_ref(&q), ("s", "p", "o"),
            &FetchConfig { batch_size: batch, threads: 2, ..FetchConfig::default() },
        ).unwrap();
        let full = fetch_triples(
            &ep, &store, &[q], ("s", "p", "o"),
            &FetchConfig { batch_size: 1_000_000, threads: 1, ..FetchConfig::default() },
        ).unwrap();
        prop_assert_eq!(paged, full);
    }

    /// DISTINCT never returns duplicates and preserves the solution set.
    #[test]
    fn distinct_is_set_semantics(kg in arb_kg()) {
        let store = RdfStore::new(&kg);
        let engine = SparqlEngine::new(&store);
        let bag = engine.execute_str("SELECT ?s ?o WHERE { ?s ?p ?o }").unwrap();
        let set = engine.execute_str("SELECT DISTINCT ?s ?o WHERE { ?s ?p ?o }").unwrap();
        let mut bag_rows: Vec<Vec<u32>> = bag.rows().map(|r| r.to_vec()).collect();
        bag_rows.sort();
        bag_rows.dedup();
        let set_rows: Vec<Vec<u32>> = set.rows().map(|r| r.to_vec()).collect();
        let mut sorted_set = set_rows.clone();
        sorted_set.sort();
        sorted_set.dedup();
        prop_assert_eq!(sorted_set.len(), set_rows.len(), "DISTINCT returned duplicates");
        prop_assert_eq!(sorted_set, bag_rows);
    }

    /// COUNT equals the materialized row count.
    #[test]
    fn count_matches_materialization(kg in arb_kg()) {
        let store = RdfStore::new(&kg);
        let engine = SparqlEngine::new(&store);
        let rows = engine.execute_str("SELECT ?s ?o WHERE { ?s <r2> ?o }").unwrap();
        let count = engine
            .execute_str("SELECT (COUNT(*) AS ?c) WHERE { ?s <r2> ?o }")
            .unwrap();
        prop_assert_eq!(count.row(0)[0] as usize, rows.len());
    }

    /// A DISTINCT chain query (1–3 hops, repeated and predicate variables,
    /// constants) evaluated with frontier pushdown returns exactly the
    /// reference's distinct projected rows, without duplicates.
    #[test]
    fn frontier_distinct_matches_naive(kg in arb_kg(),
                                       anchor in 0u32..4,
                                       hops in proptest::collection::vec(
                                           (any::<bool>(), 0u32..8, 0u32..16), 1..4),
                                       mask in 0u32..64) {
        let store = RdfStore::new(&kg);
        let q = chain_query(anchor, &hops, mask);
        let rs = SparqlEngine::new(&store).execute(&q).unwrap();
        let got: Vec<Vec<u32>> = rs.rows().map(|r| r.to_vec()).collect();
        let mut sorted = got.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), got.len(), "duplicates from {}", q);
        prop_assert_eq!(sorted, naive_distinct(&store, &q), "query {}", q);
    }

    /// Concatenated LIMIT/OFFSET pages of a DISTINCT chain query equal its
    /// unpaged result for every batch size — including the divisors of the
    /// row count, where the last page is full and an empty page follows —
    /// from a single evaluation that leaves no cursor open.
    #[test]
    fn pages_concatenate_to_the_unpaged_result(kg in arb_kg(),
                                               hops in proptest::collection::vec(
                                                   (any::<bool>(), 0u32..8, 0u32..16), 1..4),
                                               mask in 0u32..64) {
        let store = RdfStore::new(&kg);
        let q = chain_query(0, &hops, mask);
        let full = InProcessEndpoint::new(&store).select(&q).unwrap();
        let n = full.len();
        let batches: Vec<usize> = if n <= 64 {
            (1..=n + 1).collect()
        } else {
            (1..=n + 1).filter(|&b| b <= 16 || n.is_multiple_of(b) || b > n).collect()
        };
        for batch in batches {
            let ep = InProcessEndpoint::new(&store);
            let mut rows: Vec<u32> = Vec::new();
            let mut offset = 0;
            loop {
                let page = ep.select(&q.with_page(batch, offset)).unwrap();
                rows.extend(page.rows().flatten().copied());
                offset += batch;
                if page.len() < batch {
                    break;
                }
            }
            let expect: Vec<u32> = full.rows().flatten().copied().collect();
            prop_assert_eq!(rows, expect, "batch {} of {}", batch, q);
            prop_assert_eq!(ep.stats().evaluations(), 1);
            prop_assert_eq!(ep.open_cursors(), 0);
        }
    }
}
