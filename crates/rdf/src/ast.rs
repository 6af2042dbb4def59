//! Abstract syntax tree for the SPARQL subset.
//!
//! The subset is exactly what KG-TOSA's BGP compiler (§IV-C) emits:
//! `SELECT (DISTINCT)? (*| ?vars | COUNT) WHERE { patterns, nested
//! `{...} UNION {...}` blocks } (LIMIT n)? (OFFSET n)?` with `PREFIX`
//! declarations, IRIs, prefixed names, the `a` keyword and string literals.

use std::fmt;

/// A subject/predicate/object position in a triple pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A variable, stored without the leading `?`.
    Var(String),
    /// A constant term (IRI, prefixed name or literal), stored as the exact
    /// dictionary string it must match.
    Const(String),
}

impl Term {
    /// Returns the variable name when this term is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "?{v}"),
            Term::Const(c) => write!(f, "<{c}>"),
        }
    }
}

/// One triple pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject term.
    pub s: Term,
    /// Predicate term.
    pub p: Term,
    /// Object term.
    pub o: Term,
}

impl TriplePattern {
    /// Convenience constructor.
    pub fn new(s: Term, p: Term, o: Term) -> Self {
        Self { s, p, o }
    }

    /// Iterates the three terms.
    pub fn terms(&self) -> [&Term; 3] {
        [&self.s, &self.p, &self.o]
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

/// A `FILTER` comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=`
    Neq,
}

/// A `FILTER (left op right)` constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Left operand.
    pub left: Term,
    /// Operator.
    pub op: CompareOp,
    /// Right operand.
    pub right: Term,
}

/// An element of a group graph pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Element {
    /// A triple pattern joined with the rest of the group.
    Pattern(TriplePattern),
    /// A union of alternative groups, joined with the rest of the group.
    Union(Vec<Group>),
    /// A `FILTER` constraint over the group's solutions.
    Filter(Constraint),
}

/// A group graph pattern: the conjunction of its elements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Group {
    /// Elements joined together (order is irrelevant semantically; the
    /// planner reorders patterns).
    pub elements: Vec<Element>,
}

impl Group {
    /// A group holding only triple patterns.
    pub fn of_patterns(patterns: Vec<TriplePattern>) -> Self {
        Self {
            elements: patterns.into_iter().map(Element::Pattern).collect(),
        }
    }

    /// Collects every variable mentioned anywhere in the group, in first-
    /// appearance order.
    pub fn variables(&self) -> Vec<String> {
        let mut vars = Vec::new();
        self.collect_vars(&mut vars);
        vars
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        for el in &self.elements {
            match el {
                Element::Pattern(tp) => {
                    for term in tp.terms() {
                        if let Term::Var(v) = term {
                            if !out.iter().any(|x| x == v) {
                                out.push(v.clone());
                            }
                        }
                    }
                }
                Element::Union(branches) => {
                    for b in branches {
                        b.collect_vars(out);
                    }
                }
                Element::Filter(c) => {
                    for term in [&c.left, &c.right] {
                        if let Term::Var(v) = term {
                            if !out.iter().any(|x| x == v) {
                                out.push(v.clone());
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The projection clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// `SELECT *` — every variable in the pattern.
    All,
    /// `SELECT ?a ?b …`
    Vars(Vec<String>),
    /// `SELECT (COUNT(*) AS ?count)` — a single row with the match count.
    Count,
    /// `SELECT (COUNT(DISTINCT ?a ?b …) AS ?count)` — a single row with
    /// the number of rows `SELECT DISTINCT ?a ?b …` returns (unbound cells
    /// included). The count `getGraphSize` issues for a DISTINCT query.
    CountDistinct(Vec<String>),
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Projection.
    pub select: Selection,
    /// Whether `DISTINCT` was requested.
    pub distinct: bool,
    /// The `WHERE` group.
    pub group: Group,
    /// Optional `LIMIT`.
    pub limit: Option<usize>,
    /// Optional `OFFSET`.
    pub offset: Option<usize>,
}

impl Query {
    /// The variables this query projects, in order.
    pub fn projected_vars(&self) -> Vec<String> {
        match &self.select {
            Selection::All => self.group.variables(),
            Selection::Vars(vs) => vs.clone(),
            Selection::Count | Selection::CountDistinct(_) => vec!["count".to_string()],
        }
    }

    /// Returns a copy with different pagination — the primitive behind
    /// Algorithm 3's per-subquery `LIMIT`/`OFFSET` pagination loop.
    pub fn with_page(&self, limit: usize, offset: usize) -> Query {
        let mut q = self.clone();
        q.limit = Some(limit);
        q.offset = Some(offset);
        q
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        let names = |vs: &[String]| {
            vs.iter()
                .map(|v| format!("?{v}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        match &self.select {
            Selection::All => write!(f, "*")?,
            Selection::Vars(vs) => write!(f, "{}", names(vs))?,
            Selection::Count => write!(f, "(COUNT(*) AS ?count)")?,
            Selection::CountDistinct(vs) => write!(f, "(COUNT(DISTINCT {}) AS ?count)", names(vs))?,
        }
        write!(f, " WHERE {{ ")?;
        fmt_group(&self.group, f)?;
        write!(f, "}}")?;
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(o) = self.offset {
            write!(f, " OFFSET {o}")?;
        }
        Ok(())
    }
}

fn fmt_group(g: &Group, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    for el in &g.elements {
        match el {
            Element::Pattern(tp) => write!(f, "{tp} ")?,
            Element::Union(branches) => {
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        write!(f, "UNION ")?;
                    }
                    write!(f, "{{ ")?;
                    fmt_group(b, f)?;
                    write!(f, "}} ")?;
                }
            }
            Element::Filter(c) => {
                let op = match c.op {
                    CompareOp::Eq => "=",
                    CompareOp::Neq => "!=",
                };
                write!(f, "FILTER ({} {} {}) ", c.left, op, c.right)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(v: &str) -> Term {
        Term::Var(v.into())
    }
    fn c(s: &str) -> Term {
        Term::Const(s.into())
    }

    #[test]
    fn variables_in_order_without_dupes() {
        let g = Group::of_patterns(vec![
            TriplePattern::new(var("s"), c("a"), c("Paper")),
            TriplePattern::new(var("s"), var("p"), var("o")),
        ]);
        assert_eq!(g.variables(), vec!["s", "p", "o"]);
    }

    #[test]
    fn union_variables_collected() {
        let g = Group {
            elements: vec![Element::Union(vec![
                Group::of_patterns(vec![TriplePattern::new(var("a"), c("r"), var("b"))]),
                Group::of_patterns(vec![TriplePattern::new(var("c"), c("r"), var("a"))]),
            ])],
        };
        assert_eq!(g.variables(), vec!["a", "b", "c"]);
    }

    #[test]
    fn display_roundtrippable_shape() {
        let q = Query {
            select: Selection::Vars(vec!["s".into(), "o".into()]),
            distinct: true,
            group: Group::of_patterns(vec![TriplePattern::new(var("s"), c("writes"), var("o"))]),
            limit: Some(10),
            offset: Some(20),
        };
        let s = q.to_string();
        assert!(s.contains("SELECT DISTINCT ?s ?o"));
        assert!(s.contains("<writes>"));
        assert!(s.contains("LIMIT 10"));
        assert!(s.contains("OFFSET 20"));
    }

    #[test]
    fn with_page_overrides() {
        let q = Query {
            select: Selection::All,
            distinct: false,
            group: Group::default(),
            limit: None,
            offset: None,
        };
        let p = q.with_page(100, 300);
        assert_eq!(p.limit, Some(100));
        assert_eq!(p.offset, Some(300));
    }

    #[test]
    fn projected_vars_for_count() {
        let q = Query {
            select: Selection::Count,
            distinct: false,
            group: Group::default(),
            limit: None,
            offset: None,
        };
        assert_eq!(q.projected_vars(), vec!["count"]);
    }
}
