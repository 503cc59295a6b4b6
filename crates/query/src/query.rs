use mwsj_geom::{Coord, Rect};
use serde::{Deserialize, Serialize};

use crate::graph::JoinGraph;
use crate::parser::{self, ParseError};

/// Index of a relation *position* in a query (0-based).
///
/// Positions, not datasets: a self-join such as the paper's
/// `Q2s = R Ov R and R Ov R` uses three positions all bound to the same
/// dataset at execution time. No triple may join a position with itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RelationId(pub u16);

impl RelationId {
    /// The position index as a `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A spatial join predicate.
///
/// `Overlap` and `Range` are the paper's predicates (§1.2). `Contains` is
/// the containment query its §10 lists as future work: it implies overlap,
/// so every routing and marking argument of the framework carries over
/// with the overlap crossing conditions, while the exact (directional)
/// test is evaluated locally.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// `Overlap(r1, r2)`: the closed rectangles share at least one point.
    Overlap,
    /// `Range(r1, r2, d)`: the rectangles are within distance `d`.
    Range(Coord),
    /// `Contains(r1, r2)`: `r1` contains `r2` (closed). **Directional** —
    /// the triple's left relation is the container.
    Contains,
}

impl Predicate {
    /// Evaluates the predicate on two rectangles, `a` being the triple's
    /// **left** side (the container for `Contains`).
    #[must_use]
    pub fn eval(&self, a: &Rect, b: &Rect) -> bool {
        match *self {
            Predicate::Overlap => a.overlaps(b),
            Predicate::Range(d) => a.within_distance(b, d),
            Predicate::Contains => a.contains_rect(b),
        }
    }

    /// Evaluates with explicit orientation: when `flipped`, `a` is the
    /// triple's *right* side.
    #[must_use]
    pub fn eval_oriented(&self, a: &Rect, b: &Rect, flipped: bool) -> bool {
        if flipped {
            self.eval(b, a)
        } else {
            self.eval(a, b)
        }
    }

    /// Whether argument order matters (`Contains` is the only asymmetric
    /// predicate).
    #[must_use]
    pub fn is_symmetric(&self) -> bool {
        !matches!(self, Predicate::Contains)
    }

    /// The predicate's distance parameter — the join-graph edge weight: 0
    /// for overlap, `d` for `Range(d)`. An overlap predicate is exactly a
    /// range predicate with distance 0 (§9).
    #[must_use]
    pub fn distance(&self) -> Coord {
        match *self {
            Predicate::Overlap | Predicate::Contains => 0.0,
            Predicate::Range(d) => d,
        }
    }

    /// Whether this is a range predicate with `d > 0`.
    #[must_use]
    pub fn is_range(&self) -> bool {
        matches!(self, Predicate::Range(d) if *d > 0.0)
    }
}

/// One join condition: `(P, R_left, R_right)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Triple {
    /// The spatial predicate.
    pub predicate: Predicate,
    /// Left relation position.
    pub left: RelationId,
    /// Right relation position.
    pub right: RelationId,
}

/// Errors from query construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query has no join condition.
    NoTriples,
    /// A triple joins a relation position with itself.
    SelfJoin(String),
    /// A range distance is negative or not finite.
    BadDistance(String),
    /// The join graph is not connected — the C-Rep framework (and any
    /// single-round join) requires a connected query (§7.4 footnote: the
    /// crossing conditions reason over paths in the join graph).
    Disconnected,
    /// More relation positions than supported (the subset enumeration in the
    /// round-1 marking is exponential in the number of relations).
    TooManyRelations(usize),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NoTriples => write!(f, "query has no join conditions"),
            QueryError::SelfJoin(name) => {
                write!(f, "relation position {name} is joined with itself; bind the same dataset to two positions instead")
            }
            QueryError::BadDistance(name) => {
                write!(
                    f,
                    "range distance for {name} must be finite and non-negative"
                )
            }
            QueryError::Disconnected => write!(f, "join graph must be connected"),
            QueryError::TooManyRelations(n) => {
                write!(
                    f,
                    "{n} relation positions exceed the supported maximum of 16"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Maximum number of relation positions in one query. The round-1 marking
/// procedure enumerates connected relation subsets (2^m worst case); the
/// paper's queries use 3-4 relations.
pub const MAX_RELATIONS: usize = 16;

/// A validated multi-way spatial join query: a conjunction of [`Triple`]s
/// over relation positions (§1.2, equation (1)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    names: Vec<String>,
    triples: Vec<Triple>,
}

impl Query {
    /// Starts building a query.
    #[must_use]
    pub fn builder() -> QueryBuilder {
        QueryBuilder::default()
    }

    /// Parses the textual form, e.g.
    /// `"R1 overlaps R2 and R2 within 100 of R3"`.
    ///
    /// Relation positions are created in order of first appearance. See
    /// [`crate::ParseError`] for the grammar.
    pub fn parse(text: &str) -> Result<Query, ParseError> {
        parser::parse(text)
    }

    pub(crate) fn from_parts(names: Vec<String>, triples: Vec<Triple>) -> Result<Self, QueryError> {
        if triples.is_empty() {
            return Err(QueryError::NoTriples);
        }
        if names.len() > MAX_RELATIONS {
            return Err(QueryError::TooManyRelations(names.len()));
        }
        for t in &triples {
            if t.left == t.right {
                return Err(QueryError::SelfJoin(names[t.left.index()].clone()));
            }
            let d = t.predicate.distance();
            if !(d.is_finite() && d >= 0.0) {
                return Err(QueryError::BadDistance(names[t.left.index()].clone()));
            }
        }
        let q = Self { names, triples };
        if !q.graph().is_connected() {
            return Err(QueryError::Disconnected);
        }
        Ok(q)
    }

    /// Number of relation positions (the cardinality of the paper's `R`).
    #[must_use]
    pub fn num_relations(&self) -> usize {
        self.names.len()
    }

    /// The join conditions.
    #[must_use]
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Name of a relation position.
    #[must_use]
    pub fn name(&self, r: RelationId) -> &str {
        &self.names[r.index()]
    }

    /// All relation position ids.
    pub fn relations(&self) -> impl Iterator<Item = RelationId> {
        (0..self.names.len() as u16).map(RelationId)
    }

    /// Builds the join graph view of the query.
    #[must_use]
    pub fn graph(&self) -> JoinGraph {
        JoinGraph::new(self)
    }

    /// The largest range distance in the query (0 for pure overlap queries)
    /// — the paper's upper bound `d` on all range parameters (§8).
    #[must_use]
    pub fn max_range_distance(&self) -> Coord {
        self.triples
            .iter()
            .map(|t| t.predicate.distance())
            .fold(0.0, Coord::max)
    }

    /// The canonical form of this query: a semantically identical query
    /// with a unique spelling, so that trivially-different phrasings of
    /// the same join compare (and hash, via their `Display` rendering) equal.
    /// Result caches key on the canonical text.
    ///
    /// Canonicalization (idempotent):
    /// 1. symmetric conjuncts are oriented with their endpoint names in
    ///    lexicographic order (`Contains` is directional and kept as-is),
    /// 2. conjuncts are sorted by (predicate kind, distance bit pattern,
    ///    left name, right name),
    /// 3. duplicate conjuncts are dropped (conjunction is idempotent),
    /// 4. relation positions are renumbered by first appearance in the
    ///    sorted conjunct list.
    #[must_use]
    pub fn canonical(&self) -> Query {
        fn rank(p: &Predicate) -> u8 {
            match p {
                Predicate::Overlap => 0,
                Predicate::Range(_) => 1,
                Predicate::Contains => 2,
            }
        }
        let mut conds: Vec<(Predicate, &str, &str)> = self
            .triples
            .iter()
            .map(|t| {
                let (l, r) = (self.name(t.left), self.name(t.right));
                if t.predicate.is_symmetric() && l > r {
                    (t.predicate, r, l)
                } else {
                    (t.predicate, l, r)
                }
            })
            .collect();
        conds.sort_by(|a, b| {
            rank(&a.0)
                .cmp(&rank(&b.0))
                .then_with(|| a.0.distance().to_bits().cmp(&b.0.distance().to_bits()))
                .then_with(|| a.1.cmp(b.1))
                .then_with(|| a.2.cmp(b.2))
        });
        conds.dedup_by(|a, b| {
            rank(&a.0) == rank(&b.0)
                && a.0.distance().to_bits() == b.0.distance().to_bits()
                && a.1 == b.1
                && a.2 == b.2
        });
        let mut builder = Query::builder();
        for (p, l, r) in conds {
            builder = builder.condition(p, l, r);
        }
        builder
            .build()
            .expect("canonicalization preserves query validity")
    }

    /// Checks a **full** tuple (one rectangle per position) against all
    /// join conditions.
    #[must_use]
    pub fn satisfied_by(&self, tuple: &[Rect]) -> bool {
        debug_assert_eq!(tuple.len(), self.num_relations());
        self.triples.iter().all(|t| {
            t.predicate
                .eval(&tuple[t.left.index()], &tuple[t.right.index()])
        })
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, t) in self.triples.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            match t.predicate {
                Predicate::Overlap => write!(
                    f,
                    "{} overlaps {}",
                    self.names[t.left.index()],
                    self.names[t.right.index()]
                )?,
                Predicate::Range(d) => write!(
                    f,
                    "{} within {} of {}",
                    self.names[t.left.index()],
                    d,
                    self.names[t.right.index()]
                )?,
                Predicate::Contains => write!(
                    f,
                    "{} contains {}",
                    self.names[t.left.index()],
                    self.names[t.right.index()]
                )?,
            }
        }
        Ok(())
    }
}

/// Incremental query construction. Relation positions are registered on
/// first use; [`QueryBuilder::build`] validates the result.
///
/// ```
/// use mwsj_query::{Predicate, Query};
/// let q = Query::builder()
///     .overlap("R1", "R2")
///     .range("R2", "R3", 100.0)
///     .build()
///     .unwrap();
/// assert_eq!(q.num_relations(), 3);
/// assert_eq!(q.triples().len(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct QueryBuilder {
    names: Vec<String>,
    triples: Vec<Triple>,
}

impl QueryBuilder {
    /// Registers (or looks up) a relation position by name.
    fn relation(&mut self, name: &str) -> RelationId {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            RelationId(pos as u16)
        } else {
            self.names.push(name.to_string());
            RelationId((self.names.len() - 1) as u16)
        }
    }

    /// Registers a relation position without adding a condition — useful
    /// to pin position numbering before adding conditions in an arbitrary
    /// order (positions are otherwise assigned by first appearance).
    #[must_use]
    pub fn declare(mut self, name: &str) -> Self {
        let _ = self.relation(name);
        self
    }

    /// Adds an overlap condition between two relation positions.
    #[must_use]
    pub fn overlap(mut self, left: &str, right: &str) -> Self {
        let (l, r) = (self.relation(left), self.relation(right));
        self.triples.push(Triple {
            predicate: Predicate::Overlap,
            left: l,
            right: r,
        });
        self
    }

    /// Adds a range condition (`Ra(d)`) between two relation positions.
    #[must_use]
    pub fn range(mut self, left: &str, right: &str, d: Coord) -> Self {
        let (l, r) = (self.relation(left), self.relation(right));
        self.triples.push(Triple {
            predicate: Predicate::Range(d),
            left: l,
            right: r,
        });
        self
    }

    /// Adds a containment condition: `left` contains `right`.
    #[must_use]
    pub fn contains(mut self, left: &str, right: &str) -> Self {
        let (l, r) = (self.relation(left), self.relation(right));
        self.triples.push(Triple {
            predicate: Predicate::Contains,
            left: l,
            right: r,
        });
        self
    }

    /// Adds a condition with an explicit predicate.
    #[must_use]
    pub fn condition(mut self, predicate: Predicate, left: &str, right: &str) -> Self {
        let (l, r) = (self.relation(left), self.relation(right));
        self.triples.push(Triple {
            predicate,
            left: l,
            right: r,
        });
        self
    }

    /// Validates and builds the query.
    pub fn build(self) -> Result<Query, QueryError> {
        Query::from_parts(self.names, self.triples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> Query {
        // The paper's Q2: R1 overlaps R2 and R2 overlaps R3.
        Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R3")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assigns_positions_in_order() {
        let q = chain3();
        assert_eq!(q.num_relations(), 3);
        assert_eq!(q.name(RelationId(0)), "R1");
        assert_eq!(q.name(RelationId(2)), "R3");
        assert_eq!(q.triples()[0].left, RelationId(0));
        assert_eq!(q.triples()[1].right, RelationId(2));
    }

    #[test]
    fn self_join_rejected() {
        let err = Query::builder().overlap("R", "R").build().unwrap_err();
        assert!(matches!(err, QueryError::SelfJoin(_)));
    }

    #[test]
    fn empty_query_rejected() {
        assert_eq!(Query::builder().build().unwrap_err(), QueryError::NoTriples);
    }

    #[test]
    fn disconnected_query_rejected() {
        let err = Query::builder()
            .overlap("R1", "R2")
            .overlap("R3", "R4")
            .build()
            .unwrap_err();
        assert_eq!(err, QueryError::Disconnected);
    }

    #[test]
    fn negative_distance_rejected() {
        let err = Query::builder()
            .range("R1", "R2", -1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, QueryError::BadDistance(_)));
    }

    #[test]
    fn predicate_eval() {
        let a = Rect::new(0.0, 10.0, 5.0, 5.0);
        let b = Rect::new(8.0, 10.0, 5.0, 5.0);
        assert!(!Predicate::Overlap.eval(&a, &b));
        assert!(Predicate::Range(3.0).eval(&a, &b));
        assert!(!Predicate::Range(2.0).eval(&a, &b));
        assert_eq!(Predicate::Overlap.distance(), 0.0);
        assert_eq!(Predicate::Range(3.0).distance(), 3.0);
    }

    #[test]
    fn overlap_equals_range_zero() {
        // §9: an overlap predicate is a range predicate with d = 0.
        let a = Rect::new(0.0, 10.0, 5.0, 5.0);
        for bx in [3.0, 5.0, 5.5] {
            let b = Rect::new(bx, 10.0, 5.0, 5.0);
            assert_eq!(
                Predicate::Overlap.eval(&a, &b),
                Predicate::Range(0.0).eval(&a, &b)
            );
        }
    }

    #[test]
    fn satisfied_by_full_tuple() {
        let q = chain3();
        let r1 = Rect::new(0.0, 10.0, 5.0, 5.0);
        let r2 = Rect::new(4.0, 10.0, 5.0, 5.0);
        let r3 = Rect::new(8.0, 10.0, 5.0, 5.0);
        assert!(q.satisfied_by(&[r1, r2, r3]));
        // r1 and r3 need not overlap (chain, not clique).
        assert!(!r1.overlaps(&r3));
        // Swap so the chain breaks.
        assert!(!q.satisfied_by(&[r1, r3, r2]));
    }

    #[test]
    fn max_range_distance_and_overlap_only() {
        let q = chain3();
        assert!(q.triples().iter().all(|t| !t.predicate.is_range()));
        assert_eq!(q.max_range_distance(), 0.0);
        let q4 = Query::builder()
            .overlap("R1", "R2")
            .range("R2", "R3", 200.0)
            .build()
            .unwrap();
        assert!(q4.triples().iter().any(|t| t.predicate.is_range()));
        assert_eq!(q4.max_range_distance(), 200.0);
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let q = Query::builder()
            .overlap("R1", "R2")
            .range("R2", "R3", 100.0)
            .build()
            .unwrap();
        let text = q.to_string();
        assert_eq!(text, "R1 overlaps R2 and R2 within 100 of R3");
        assert_eq!(Query::parse(&text).unwrap(), q);
    }

    #[test]
    fn canonical_is_idempotent() {
        let queries = [
            chain3(),
            Query::builder()
                .range("B", "A", 50.0)
                .contains("B", "C")
                .build()
                .unwrap(),
            Query::builder()
                .overlap("R2", "R1")
                .overlap("R3", "R2")
                .overlap("R1", "R3")
                .build()
                .unwrap(),
        ];
        for q in queries {
            let c = q.canonical();
            assert_eq!(c.canonical(), c, "canonical must be a fixed point");
        }
    }

    #[test]
    fn spelling_variants_share_one_canonical_form() {
        // Same join, three spellings: flipped symmetric endpoints and
        // reordered conjuncts.
        let a = Query::builder()
            .overlap("R1", "R2")
            .range("R2", "R3", 100.0)
            .build()
            .unwrap();
        let b = Query::builder()
            .range("R3", "R2", 100.0)
            .overlap("R2", "R1")
            .build()
            .unwrap();
        let c = Query::builder()
            .declare("R3")
            .declare("R2")
            .overlap("R2", "R1")
            .range("R2", "R3", 100.0)
            .build()
            .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), c.canonical());
        assert_eq!(a.canonical().to_string(), b.canonical().to_string());
        // Distinct queries stay distinct.
        let other = Query::builder()
            .overlap("R1", "R2")
            .range("R2", "R3", 101.0)
            .build()
            .unwrap();
        assert_ne!(a.canonical(), other.canonical());
    }

    #[test]
    fn canonical_preserves_contains_direction() {
        // Contains is directional: `B contains A` must NOT reorient to
        // `A contains B` even though "A" < "B".
        let q = Query::builder()
            .contains("B", "A")
            .overlap("A", "B")
            .build()
            .unwrap();
        let c = q.canonical();
        let t = c
            .triples()
            .iter()
            .find(|t| t.predicate == Predicate::Contains)
            .unwrap();
        assert_eq!(c.name(t.left), "B");
        assert_eq!(c.name(t.right), "A");
        // ...while its symmetric conjunct was reoriented.
        let o = c
            .triples()
            .iter()
            .find(|t| t.predicate == Predicate::Overlap)
            .unwrap();
        assert_eq!(c.name(o.left), "A");
    }

    #[test]
    fn canonical_dedups_repeated_conjuncts() {
        let q = Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R1")
            .overlap("R1", "R2")
            .range("R2", "R3", 5.0)
            .build()
            .unwrap();
        let c = q.canonical();
        assert_eq!(c.triples().len(), 2);
        assert_eq!(c.canonical(), c);
    }

    #[test]
    fn too_many_relations_rejected() {
        let mut b = Query::builder();
        for i in 0..17 {
            b = b.overlap(&format!("R{i}"), &format!("R{}", i + 1));
        }
        assert!(matches!(
            b.build().unwrap_err(),
            QueryError::TooManyRelations(_)
        ));
    }
}
