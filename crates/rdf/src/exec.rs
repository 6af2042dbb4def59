//! BGP execution: planning, nested-index-loop joins, UNION, pagination.
//!
//! The executor follows how lightweight RDF engines answer basic graph
//! patterns over a hexastore:
//!
//! 1. constants are resolved against the term dictionaries once,
//! 2. triple patterns are greedily reordered — most-bound / most-selective
//!    first, using `O(log m)` index counts as the cardinality estimate,
//! 3. each pattern is joined by an index range scan per intermediate row,
//! 4. `UNION` branches are evaluated per-row and concatenated (bag
//!    semantics), then `DISTINCT` / `OFFSET` / `LIMIT` apply to the
//!    projected rows.
//!
//! A `DISTINCT` query over a group of triple patterns only (no `UNION`, no
//! `FILTER`) is evaluated as a *frontier* instead: after each join, every
//! variable that is neither projected nor used by a remaining pattern is
//! set to `NULL` and the rows are sort-deduplicated. Intermediate chain
//! vertices then get set semantics, so a multi-hop chain costs in
//! proportion to its distinct frontier, not to the number of paths.

use crate::ast::{CompareOp, Constraint, Element, Group, Query, Selection, Term, TriplePattern};
use crate::error::RdfError;
use crate::store::RdfStore;

/// Sentinel id representing an unbound (`NULL`) cell in a result row.
pub const NULL_ID: u32 = u32::MAX;

/// A table of query solutions. Rows are flat `u32` cells, `width` per row,
/// with [`NULL_ID`] marking unbound variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultSet {
    /// Projected variable names, in column order.
    pub vars: Vec<String>,
    /// Per-column flag: the variable was bound in predicate position, so
    /// its ids decode in the relation space rather than the node space.
    pred_cols: Vec<bool>,
    width: usize,
    data: Vec<u32>,
}

impl ResultSet {
    fn new(vars: Vec<String>) -> Self {
        let width = vars.len();
        Self {
            pred_cols: vec![false; width],
            vars,
            width,
            data: Vec::new(),
        }
    }

    /// An empty result set over the given columns — the shape a mock or
    /// remote endpoint returns when a query has no solutions.
    pub fn with_vars(vars: Vec<String>) -> Self {
        Self::new(vars)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Column index of a variable.
    pub fn col(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// Row accessor.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> {
        self.data.chunks_exact(self.width.max(1))
    }

    /// Approximate heap footprint in bytes, for cache budget accounting:
    /// the cell table plus per-column metadata.
    pub fn approx_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u32>()
            + self.pred_cols.len()
            + self.vars.iter().map(|v| v.len() + 24).sum::<usize>()
    }

    /// The rows `OFFSET offset LIMIT limit` keeps, as a new result set.
    pub(crate) fn page(&self, offset: usize, limit: Option<usize>) -> ResultSet {
        let start = offset.min(self.len());
        let end = start
            .saturating_add(limit.unwrap_or(usize::MAX))
            .min(self.len());
        ResultSet {
            vars: self.vars.clone(),
            pred_cols: self.pred_cols.clone(),
            width: self.width,
            data: self.data[start * self.width..end * self.width].to_vec(),
        }
    }

    fn count_of(n: usize) -> ResultSet {
        let mut rs = ResultSet::new(vec!["count".to_string()]);
        rs.data.push(n as u32);
        rs
    }

    /// Whether a column's ids live in the predicate space.
    pub fn is_predicate_col(&self, col: usize) -> bool {
        self.pred_cols.get(col).copied().unwrap_or(false)
    }

    /// Renders a row's terms for debugging/reporting, decoding each column
    /// in its id space (node vs predicate).
    pub fn row_terms<'a>(&'a self, store: &'a RdfStore<'_>, i: usize) -> Vec<&'a str> {
        self.row(i)
            .iter()
            .enumerate()
            .map(|(col, &id)| {
                if id == NULL_ID {
                    ""
                } else if self.is_predicate_col(col) {
                    store.pred_term_str(id)
                } else {
                    store.node_term_str(id)
                }
            })
            .collect()
    }
}

/// Flat intermediate binding table used during evaluation. The row count
/// is tracked explicitly so zero-width tables (queries without variables)
/// still represent "one empty solution" correctly.
struct Rows {
    width: usize,
    count: usize,
    data: Vec<u32>,
}

impl Rows {
    fn single_empty(width: usize) -> Self {
        Self {
            width,
            count: 1,
            data: vec![NULL_ID; width],
        }
    }

    fn empty(width: usize) -> Self {
        Self {
            width,
            count: 0,
            data: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.count
    }

    fn push_row(&mut self, row: &[u32]) {
        debug_assert_eq!(row.len(), self.width);
        self.data.extend_from_slice(row);
        self.count += 1;
    }

    /// Sets every cell whose column is not `live` to [`NULL_ID`], then
    /// sorts the rows and drops duplicates. Rows keyed on at most two
    /// columns — every step of a compiled chain keeps one — sort as packed
    /// `u64` keys: 6–8 ms against 25–37 ms for row slices on the 275k rows
    /// of d1h2's first hop at MAG scale 4 (2-core AVX2 host).
    fn retain_distinct(&mut self, live: &[bool]) {
        if self.width == 0 {
            self.count = self.count.min(1);
            return;
        }
        let cols: Vec<usize> = (0..self.width).filter(|&i| live[i]).collect();
        if cols.len() <= 2 {
            let pack = |row: &[u32]| {
                cols.iter()
                    .fold(0u64, |key, &c| (key << 32) | u64::from(row[c]))
            };
            let mut keys: Vec<u64> = self.iter().map(pack).collect();
            keys.sort_unstable();
            keys.dedup();
            self.count = keys.len();
            self.data = vec![NULL_ID; keys.len() * self.width];
            for (row, key) in self.data.chunks_exact_mut(self.width).zip(keys) {
                for (k, &c) in cols.iter().enumerate() {
                    row[c] = (key >> (32 * (cols.len() - 1 - k))) as u32;
                }
            }
            return;
        }
        for row in self.data.chunks_exact_mut(self.width) {
            for (cell, &keep) in row.iter_mut().zip(live) {
                if !keep {
                    *cell = NULL_ID;
                }
            }
        }
        let mut sorted: Vec<&[u32]> = self.data.chunks_exact(self.width).collect();
        sorted.sort_unstable();
        sorted.dedup();
        self.count = sorted.len();
        self.data = sorted.concat();
    }

    fn iter(&self) -> RowsIter<'_> {
        RowsIter {
            data: &self.data,
            width: self.width,
            remaining: self.count,
        }
    }
}

/// Row iterator that also handles the zero-width case.
struct RowsIter<'a> {
    data: &'a [u32],
    width: usize,
    remaining: usize,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (row, rest) = self.data.split_at(self.width);
        self.data = rest;
        Some(row)
    }
}

/// One side of a compiled FILTER comparison.
enum FilterSide {
    /// A variable slot; `predicate` selects the id space it decodes in.
    Var { slot: usize, predicate: bool },
    /// A constant, pre-resolved in both id spaces.
    Const {
        node: Option<u32>,
        pred: Option<u32>,
        text: String,
    },
}

/// A compiled FILTER constraint.
struct CompiledFilter {
    left: FilterSide,
    op: CompareOp,
    right: FilterSide,
}

impl CompiledFilter {
    /// Evaluates the constraint against a binding row. Comparisons
    /// involving an unbound variable evaluate to false (SPARQL's
    /// error-means-excluded semantics).
    fn eval(&self, row: &[u32]) -> bool {
        let equal = match (&self.left, &self.right) {
            (FilterSide::Var { slot: a, .. }, FilterSide::Var { slot: b, .. }) => {
                if row[*a] == NULL_ID || row[*b] == NULL_ID {
                    return false;
                }
                Some(row[*a] == row[*b])
            }
            (FilterSide::Var { slot, predicate }, FilterSide::Const { node, pred, .. })
            | (FilterSide::Const { node, pred, .. }, FilterSide::Var { slot, predicate }) => {
                if row[*slot] == NULL_ID {
                    return false;
                }
                let resolved = if *predicate { *pred } else { *node };
                // An unresolvable constant cannot equal any bound value.
                Some(resolved == Some(row[*slot]))
            }
            (FilterSide::Const { text: a, .. }, FilterSide::Const { text: b, .. }) => {
                Some(a == b)
            }
        };
        match (equal, self.op) {
            (Some(eq), CompareOp::Eq) => eq,
            (Some(eq), CompareOp::Neq) => !eq,
            (None, _) => false,
        }
    }
}

/// A compiled pattern component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Comp {
    /// Resolved constant id.
    Const(u32),
    /// Variable slot in the binding row.
    Var(usize),
    /// A constant term not present in the dictionary: matches nothing.
    Unresolvable,
}

#[derive(Debug, Clone, Copy)]
struct CompiledPattern {
    s: Comp,
    p: Comp,
    o: Comp,
}

impl CompiledPattern {
    fn has_unresolvable(&self) -> bool {
        [self.s, self.p, self.o]
            .iter()
            .any(|c| matches!(c, Comp::Unresolvable))
    }
}

/// The query engine: borrows an [`RdfStore`] and evaluates parsed queries.
pub struct SparqlEngine<'s, 'kg> {
    store: &'s RdfStore<'kg>,
}

impl<'s, 'kg> SparqlEngine<'s, 'kg> {
    /// Creates an engine over a store.
    pub fn new(store: &'s RdfStore<'kg>) -> Self {
        Self { store }
    }

    /// Parses and executes a query string.
    pub fn execute_str(&self, query: &str) -> Result<ResultSet, RdfError> {
        let q = crate::parser::parse(query)?;
        self.execute(&q)
    }

    /// Executes a parsed query.
    pub fn execute(&self, query: &Query) -> Result<ResultSet, RdfError> {
        // Assign every variable in the query (plus projected-only vars) a slot.
        let mut vars = query.group.variables();
        if let Selection::Vars(vs) | Selection::CountDistinct(vs) = &query.select {
            for v in vs {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.clone());
                }
            }
        }
        let width = vars.len();
        let pred_vars = Self::predicate_vars(&query.group);
        let pred_flags: Vec<bool> = vars
            .iter()
            .map(|v| pred_vars.iter().any(|pv| pv == v))
            .collect();
        let slots = |vs: &[String]| -> Vec<usize> {
            vs.iter()
                .map(|v| vars.iter().position(|x| x == v).expect("added above"))
                .collect()
        };
        let (proj, distinct) = match &query.select {
            Selection::All => ((0..width).collect(), query.distinct),
            Selection::Vars(vs) => (slots(vs), query.distinct),
            Selection::CountDistinct(vs) => (slots(vs), true),
            // COUNT(*) counts bag solutions.
            Selection::Count => (Vec::new(), false),
        };
        let patterns_only = query
            .group
            .elements
            .iter()
            .all(|el| matches!(el, Element::Pattern(_)));
        let frontier = distinct && patterns_only;
        let rows = self.eval_group(
            &query.group,
            Rows::single_empty(width),
            &vars,
            &pred_flags,
            frontier.then_some(proj.as_slice()),
        )?;
        if let Selection::Count = query.select {
            let count = ResultSet::count_of(rows.len());
            return Ok(count.page(query.offset.unwrap_or(0), query.limit));
        }

        // Project.
        let proj_vars: Vec<String> = proj.iter().map(|&i| vars[i].clone()).collect();
        let mut rs = ResultSet::new(proj_vars);
        rs.pred_cols = proj.iter().map(|&i| pred_flags[i]).collect();
        rs.data.reserve(rows.len() * proj.len());
        for row in rows.iter() {
            for &i in &proj {
                rs.data.push(row[i]);
            }
        }

        // The frontier's last join already left only distinct projections.
        if distinct && !frontier && rs.width > 0 {
            let mut sorted: Vec<&[u32]> = rs.data.chunks_exact(rs.width).collect();
            sorted.sort_unstable();
            sorted.dedup();
            rs.data = sorted.concat();
        }
        if let Selection::CountDistinct(_) = query.select {
            rs = ResultSet::count_of(rs.len());
        }
        Ok(rs.page(query.offset.unwrap_or(0), query.limit))
    }

    /// Frontier step after a join: clears the slots that are set but
    /// neither in `keep` nor used by a `remaining` pattern, and
    /// deduplicates the rows if that cleared any. A join of distinct rows
    /// against the (duplicate-free) hexastore yields distinct rows, so
    /// joins that clear nothing need no sort.
    fn clear_dead_slots(rows: &mut Rows, keep: &[usize], remaining: &[CompiledPattern]) {
        let mut live = vec![false; rows.width];
        for &i in keep {
            live[i] = true;
        }
        for comp in remaining.iter().flat_map(|p| [p.s, p.p, p.o]) {
            if let Comp::Var(i) = comp {
                live[i] = true;
            }
        }
        // Every join binds the same slots in every row, so the first row
        // shows which slots are set.
        let Some(first) = rows.iter().next() else {
            return;
        };
        let set: Vec<bool> = first.iter().map(|&v| v != NULL_ID).collect();
        if (0..rows.width).any(|i| set[i] && !live[i]) {
            for (keep, set) in live.iter_mut().zip(set) {
                *keep &= set;
            }
            rows.retain_distinct(&live);
        }
    }

    /// Evaluates a group against every input row. With `keep`, the group
    /// holds only triple patterns and is evaluated as a frontier: set
    /// semantics over the `keep` slots (see [`Self::clear_dead_slots`]).
    fn eval_group(
        &self,
        group: &Group,
        input: Rows,
        vars: &[String],
        pred_flags: &[bool],
        keep: Option<&[usize]>,
    ) -> Result<Rows, RdfError> {
        // Compile and split: joinable triple patterns, UNION elements, and
        // FILTER constraints (applied last, over the group's solutions).
        let mut patterns = Vec::new();
        let mut unions = Vec::new();
        let mut filters = Vec::new();
        for el in &group.elements {
            match el {
                Element::Pattern(tp) => patterns.push(self.compile(tp, vars)),
                Element::Union(branches) => unions.push(branches),
                Element::Filter(c) => filters.push(self.compile_filter(c, vars, pred_flags)),
            }
        }

        let mut rows = input;
        // Greedy join order over the patterns.
        let mut remaining: Vec<CompiledPattern> = patterns;
        let mut bound = self.initially_bound(&rows);
        while !remaining.is_empty() {
            let next = self.pick_next(&remaining, &bound);
            let pattern = remaining.swap_remove(next);
            rows = self.join_pattern(&pattern, rows)?;
            for comp in [pattern.s, pattern.p, pattern.o] {
                if let Comp::Var(i) = comp {
                    bound[i] = true;
                }
            }
            if rows.len() == 0 {
                // Short-circuit: the join is already empty.
                return Ok(rows);
            }
            if let Some(keep) = keep {
                Self::clear_dead_slots(&mut rows, keep, &remaining);
            }
        }

        // Apply unions: each input row fans out across branches.
        for branches in unions {
            let width = rows.width;
            let mut out = Rows::empty(width);
            for row in rows.iter() {
                for branch in branches.iter() {
                    let seed = Rows {
                        width,
                        count: 1,
                        data: row.to_vec(),
                    };
                    let produced = self.eval_group(branch, seed, vars, pred_flags, None)?;
                    out.count += produced.count;
                    out.data.extend_from_slice(&produced.data);
                }
            }
            rows = out;
        }

        // Apply filters.
        if !filters.is_empty() {
            let width = rows.width;
            let mut out = Rows::empty(width);
            'rows: for row in rows.iter() {
                for f in &filters {
                    if !f.eval(row) {
                        continue 'rows;
                    }
                }
                out.push_row(row);
            }
            rows = out;
        }
        Ok(rows)
    }

    /// Compiles a FILTER constraint against the variable table.
    fn compile_filter(
        &self,
        c: &Constraint,
        vars: &[String],
        pred_flags: &[bool],
    ) -> CompiledFilter {
        let side = |t: &Term| -> FilterSide {
            match t {
                Term::Var(v) => {
                    let slot = vars.iter().position(|x| x == v).expect("collected");
                    FilterSide::Var {
                        slot,
                        predicate: pred_flags[slot],
                    }
                }
                Term::Const(text) => FilterSide::Const {
                    node: self.store.resolve_node_term(text),
                    pred: self.store.resolve_pred_term(text),
                    text: text.clone(),
                },
            }
        };
        CompiledFilter {
            left: side(&c.left),
            op: c.op,
            right: side(&c.right),
        }
    }

    fn initially_bound(&self, rows: &Rows) -> Vec<bool> {
        // A var is considered bound for planning if it is bound in the first
        // input row (all rows share binding shape for our query forms).
        match rows.iter().next() {
            Some(row) => row.iter().map(|&v| v != NULL_ID).collect(),
            None => vec![false; rows.width],
        }
    }

    fn compile(&self, tp: &TriplePattern, vars: &[String]) -> CompiledPattern {
        let slot = |name: &str| vars.iter().position(|v| v == name).expect("collected");
        let comp_node = |t: &Term| match t {
            Term::Var(v) => Comp::Var(slot(v)),
            Term::Const(c) => self
                .store
                .resolve_node_term(c)
                .map_or(Comp::Unresolvable, Comp::Const),
        };
        let comp_pred = |t: &Term| match t {
            Term::Var(v) => Comp::Var(slot(v)),
            Term::Const(c) => self
                .store
                .resolve_pred_term(c)
                .map_or(Comp::Unresolvable, Comp::Const),
        };
        CompiledPattern {
            s: comp_node(&tp.s),
            p: comp_pred(&tp.p),
            o: comp_node(&tp.o),
        }
    }

    /// Greedy planner step: choose the remaining pattern with the most bound
    /// components, breaking ties with the hexastore's O(log m) count using
    /// constants only.
    fn pick_next(&self, remaining: &[CompiledPattern], bound: &[bool]) -> usize {
        let mut best = 0usize;
        let mut best_key = (usize::MAX, usize::MAX);
        for (i, pat) in remaining.iter().enumerate() {
            let is_bound = |c: &Comp| match c {
                Comp::Const(_) | Comp::Unresolvable => true,
                Comp::Var(v) => bound[*v],
            };
            let unbound = [&pat.s, &pat.p, &pat.o]
                .iter()
                .filter(|c| !is_bound(c))
                .count();
            let const_of = |c: &Comp| match c {
                Comp::Const(id) => Some(*id),
                _ => None,
            };
            let estimate = if pat.has_unresolvable() {
                0
            } else {
                self.store.hexastore().count(
                    const_of(&pat.s),
                    const_of(&pat.p),
                    const_of(&pat.o),
                )
            };
            let key = (unbound, estimate);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Joins one pattern against all rows via index scans.
    fn join_pattern(&self, pat: &CompiledPattern, rows: Rows) -> Result<Rows, RdfError> {
        let mut out = Rows::empty(rows.width);
        if pat.has_unresolvable() {
            return Ok(out);
        }
        let hex = self.store.hexastore();
        let mut new_row = vec![NULL_ID; rows.width];
        for row in rows.iter() {
            let fix = |c: Comp| -> Option<u32> {
                match c {
                    Comp::Const(id) => Some(id),
                    Comp::Var(i) => (row[i] != NULL_ID).then_some(row[i]),
                    Comp::Unresolvable => unreachable!("checked above"),
                }
            };
            let (s, p, o) = (fix(pat.s), fix(pat.p), fix(pat.o));
            for [ts, tp, to] in hex.scan(s, p, o) {
                new_row.copy_from_slice(row);
                if Self::bind(&mut new_row, pat.s, ts)
                    && Self::bind(&mut new_row, pat.p, tp)
                    && Self::bind(&mut new_row, pat.o, to)
                {
                    out.push_row(&new_row);
                }
            }
        }
        Ok(out)
    }

    /// Collects variables that appear in predicate position anywhere in the
/// group (including nested UNION branches).
fn predicate_vars(group: &Group) -> Vec<String> {
    fn walk(group: &Group, out: &mut Vec<String>) {
        for el in &group.elements {
            match el {
                Element::Pattern(tp) => {
                    if let Term::Var(v) = &tp.p {
                        if !out.iter().any(|x| x == v) {
                            out.push(v.clone());
                        }
                    }
                }
                Element::Union(branches) => {
                    for b in branches {
                        walk(b, out);
                    }
                }
                Element::Filter(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(group, &mut out);
    out
}

/// Binds a variable slot, verifying repeated-variable consistency.
    #[inline]
    fn bind(row: &mut [u32], comp: Comp, value: u32) -> bool {
        match comp {
            Comp::Var(i) => {
                if row[i] == NULL_ID {
                    row[i] = value;
                    true
                } else {
                    row[i] == value
                }
            }
            Comp::Const(c) => c == value,
            Comp::Unresolvable => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::KnowledgeGraph;

    fn kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("a1", "Author", "writes", "p1", "Paper");
        kg.add_triple_terms("a1", "Author", "writes", "p2", "Paper");
        kg.add_triple_terms("a2", "Author", "writes", "p2", "Paper");
        kg.add_triple_terms("p1", "Paper", "publishedIn", "v1", "Venue");
        kg.add_triple_terms("p2", "Paper", "publishedIn", "v1", "Venue");
        kg.add_triple_terms("p1", "Paper", "cites", "p2", "Paper");
        kg
    }

    fn run(kg: &KnowledgeGraph, q: &str) -> ResultSet {
        let store = RdfStore::new(kg);
        let engine = SparqlEngine::new(&store);
        engine.execute_str(q).unwrap()
    }

    #[test]
    fn single_pattern_by_predicate() {
        let kg = kg();
        let rs = run(&kg, "SELECT ?s ?o WHERE { ?s <writes> ?o }");
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn type_anchored_star() {
        let kg = kg();
        let rs = run(&kg, "SELECT ?v ?p ?o WHERE { ?v a <Paper> . ?v ?p ?o }");
        // p1: publishedIn v1, cites p2, rdf:type Paper → 3
        // p2: publishedIn v1, rdf:type Paper → 2
        assert_eq!(rs.len(), 5);
    }

    #[test]
    fn join_two_hops() {
        let kg = kg();
        let rs = run(
            &kg,
            "SELECT ?a ?v WHERE { ?a <writes> ?x . ?x <publishedIn> ?v }",
        );
        // a1→p1→v1, a1→p2→v1, a2→p2→v1
        assert_eq!(rs.len(), 3);
        let store = RdfStore::new(&kg);
        let terms = rs.row_terms(&store, 0);
        assert_eq!(terms.len(), 2);
    }

    #[test]
    fn distinct_dedups() {
        let kg = kg();
        let rs = run(
            &kg,
            "SELECT DISTINCT ?v WHERE { ?a <writes> ?x . ?x <publishedIn> ?v }",
        );
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn union_concatenates() {
        let kg = kg();
        let rs = run(
            &kg,
            "SELECT * WHERE { ?v a <Paper> . { ?v <publishedIn> ?o } UNION { ?i <cites> ?v } }",
        );
        // Branch 1: p1→v1, p2→v1. Branch 2: p1 cites p2 (v=p2).
        assert_eq!(rs.len(), 3);
        // Unbound cells are NULL.
        let o_col = rs.col("o").unwrap();
        let nulls = rs.rows().filter(|r| r[o_col] == NULL_ID).count();
        assert_eq!(nulls, 1);
    }

    #[test]
    fn limit_offset_paginate() {
        let kg = kg();
        let all = run(&kg, "SELECT ?s ?o WHERE { ?s <writes> ?o }");
        let page1 = run(&kg, "SELECT ?s ?o WHERE { ?s <writes> ?o } LIMIT 2 OFFSET 0");
        let page2 = run(&kg, "SELECT ?s ?o WHERE { ?s <writes> ?o } LIMIT 2 OFFSET 2");
        assert_eq!(page1.len(), 2);
        assert_eq!(page2.len(), 1);
        let mut merged: Vec<Vec<u32>> = page1
            .rows()
            .chain(page2.rows())
            .map(|r| r.to_vec())
            .collect();
        let mut expect: Vec<Vec<u32>> = all.rows().map(|r| r.to_vec()).collect();
        merged.sort();
        expect.sort();
        assert_eq!(merged, expect);
    }

    #[test]
    fn count_query() {
        let kg = kg();
        let rs = run(&kg, "SELECT (COUNT(*) AS ?c) WHERE { ?s <writes> ?o }");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.row(0)[0], 3);
    }

    #[test]
    fn unknown_constant_matches_nothing() {
        let kg = kg();
        let rs = run(&kg, "SELECT * WHERE { ?s <nonexistent> ?o }");
        assert!(rs.is_empty());
    }

    #[test]
    fn repeated_variable_must_match() {
        let mut kg = kg();
        // self-citation p3 cites p3
        let p3 = kg.add_node("p3", "Paper");
        let cites = kg.find_relation("cites").unwrap();
        kg.add_triple(p3, cites, p3);
        let rs = run(&kg, "SELECT ?x WHERE { ?x <cites> ?x }");
        assert_eq!(rs.len(), 1);
        let store = RdfStore::new(&kg);
        assert_eq!(rs.row_terms(&store, 0), vec!["p3"]);
    }

    #[test]
    fn projection_of_missing_var_is_null() {
        let kg = kg();
        let rs = run(&kg, "SELECT ?s ?ghost WHERE { ?s <cites> ?o }");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.row(0)[1], NULL_ID);
    }

    #[test]
    fn empty_group_yields_single_empty_row_projected() {
        let kg = kg();
        let rs = run(&kg, "SELECT (COUNT(*) AS ?c) WHERE { }");
        assert_eq!(rs.row(0)[0], 1);
    }

    #[test]
    fn filter_equality_with_constant() {
        let kg = kg();
        let rs = run(
            &kg,
            "SELECT ?x ?v WHERE { ?x <publishedIn> ?v . FILTER (?x = <p1>) }",
        );
        assert_eq!(rs.len(), 1);
        let store = RdfStore::new(&kg);
        assert_eq!(rs.row_terms(&store, 0), vec!["p1", "v1"]);
    }

    #[test]
    fn filter_inequality_between_vars() {
        let kg = kg();
        // Pairs of papers in the same venue, excluding self-pairs.
        let all = run(
            &kg,
            "SELECT ?a ?b WHERE { ?a <publishedIn> ?v . ?b <publishedIn> ?v }",
        );
        let distinct_pairs = run(
            &kg,
            "SELECT ?a ?b WHERE { ?a <publishedIn> ?v . ?b <publishedIn> ?v . FILTER (?a != ?b) }",
        );
        assert_eq!(all.len(), 4); // (p1,p1),(p1,p2),(p2,p1),(p2,p2)
        assert_eq!(distinct_pairs.len(), 2);
    }

    #[test]
    fn filter_on_predicate_variable() {
        let kg = kg();
        let rs = run(
            &kg,
            "SELECT ?p ?o WHERE { ?s ?p ?o . ?s a <Paper> . FILTER (?p = <cites>) }",
        );
        assert_eq!(rs.len(), 1);
        let store = RdfStore::new(&kg);
        assert_eq!(rs.row_terms(&store, 0)[0], "cites");
    }

    #[test]
    fn filter_with_unknown_constant() {
        let kg = kg();
        let eq = run(&kg, "SELECT ?s WHERE { ?s <writes> ?o . FILTER (?s = <ghost>) }");
        assert!(eq.is_empty());
        let neq = run(&kg, "SELECT ?s WHERE { ?s <writes> ?o . FILTER (?s != <ghost>) }");
        assert_eq!(neq.len(), 3, "everything differs from an unknown term");
    }

    #[test]
    fn filter_roundtrips_through_display() {
        let q = crate::parser::parse(
            "SELECT * WHERE { ?s ?p ?o . FILTER (?s != <x>) FILTER (?p = ?p) }",
        )
        .unwrap();
        let reparsed = crate::parser::parse(&q.to_string()).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn predicate_vars_decode_in_relation_space() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let engine = SparqlEngine::new(&store);
        let rs = engine
            .execute_str("SELECT ?p ?o WHERE { ?s a <Venue> . ?x ?p ?s . ?x <cites> ?o }")
            .unwrap();
        assert!(rs.is_predicate_col(rs.col("p").unwrap()));
        assert!(!rs.is_predicate_col(rs.col("o").unwrap()));
        let terms = rs.row_terms(&store, 0);
        assert_eq!(terms[0], "publishedIn");
        assert!(terms[1].starts_with('p'), "object decodes as a node: {terms:?}");
    }

    #[test]
    fn planner_prefers_selective_pattern() {
        // Correctness check regardless of order: anchored join returns the
        // same rows written either way.
        let kg = kg();
        let a = run(&kg, "SELECT ?x WHERE { ?x a <Venue> . ?p <publishedIn> ?x }");
        let b = run(&kg, "SELECT ?x WHERE { ?p <publishedIn> ?x . ?x a <Venue> }");
        assert_eq!(a.len(), b.len());
    }
}
