use crate::query::{Predicate, Query, RelationId};

/// The join-graph view of a query (§1.2): one vertex per relation position,
/// one edge per triple; edge weight 0 for overlap, `d` for `Range(d)`.
///
/// The C-Rep marking procedure and the local multi-way matcher both traverse
/// this graph; [`JoinGraph::connected_subsets`] enumerates the candidate
/// relation-sets of the round-1 conditions (§7.4, see `mwsj-local`).
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// `adj[i]` lists `(neighbor, predicate, forward)` for every triple
    /// touching `i`; `forward` is true when `i` is the triple's left side
    /// (the orientation `Contains` needs).
    adj: Vec<Vec<(RelationId, Predicate, bool)>>,
}

impl JoinGraph {
    /// Builds the graph from a query.
    #[must_use]
    pub fn new(query: &Query) -> Self {
        let mut adj = vec![Vec::new(); query.num_relations()];
        for t in query.triples() {
            adj[t.left.index()].push((t.right, t.predicate, true));
            adj[t.right.index()].push((t.left, t.predicate, false));
        }
        Self { adj }
    }

    /// The `(neighbor, predicate, forward)` entries incident to `r`
    /// (`forward` = `r` is the triple's left side). A pair of relations may
    /// be joined by several predicates; each appears here.
    #[must_use]
    pub fn neighbors(&self, r: RelationId) -> &[(RelationId, Predicate, bool)] {
        &self.adj[r.index()]
    }

    /// Whether the join graph is connected (required by the framework).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let n = self.adj.len();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _, _) in &self.adj[v] {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w.index());
                }
            }
        }
        count == n
    }

    /// A breadth-first traversal order starting from `start`; every vertex
    /// after the first is adjacent to some earlier vertex. The local
    /// multi-way matcher binds relations in such an order so each extension
    /// can be driven by an index probe from an already-bound neighbor.
    #[must_use]
    pub fn bfs_order(&self, start: RelationId) -> Vec<RelationId> {
        let n = self.adj.len();
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        seen[start.index()] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &(w, _, _) in &self.adj[v.index()] {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    queue.push_back(w);
                }
            }
        }
        order
    }

    /// Enumerates every **connected, non-empty** subset of vertices as a
    /// bitmask (bit `i` = relation position `i`). Proper subsets only when
    /// `proper_only` — the round-1 marking needs `S ⊊ R` (condition C3 rules
    /// out the full set, §7.4).
    ///
    /// Exponential in the number of relations, which the query model caps at
    /// 16; the paper's queries have 3-4.
    #[must_use]
    pub fn connected_subsets(&self, proper_only: bool) -> Vec<u32> {
        let n = self.adj.len();
        debug_assert!(n <= 16);
        let full: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };
        let mut out = Vec::new();
        for mask in 1u32..=full {
            if proper_only && mask == full {
                continue;
            }
            if self.is_connected_subset(mask) {
                out.push(mask);
            }
        }
        out
    }

    /// Whether the vertices in `mask` induce a connected subgraph.
    #[must_use]
    pub fn is_connected_subset(&self, mask: u32) -> bool {
        if mask == 0 {
            return false;
        }
        let start = mask.trailing_zeros() as usize;
        let mut seen: u32 = 1 << start;
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            for &(w, _, _) in &self.adj[v] {
                let bit = 1u32 << w.index();
                if mask & bit != 0 && seen & bit == 0 {
                    seen |= bit;
                    stack.push(w.index());
                }
            }
        }
        seen == mask
    }

    /// Whether any edge leaves the subset `mask` (condition C3: at least one
    /// pair `(R1 ∈ S, R2 ∉ S)` with a join condition).
    #[must_use]
    pub fn has_outside_edge(&self, mask: u32) -> bool {
        for v in 0..self.adj.len() {
            if mask & (1 << v) == 0 {
                continue;
            }
            for &(w, _, _) in &self.adj[v] {
                if mask & (1 << w.index()) == 0 {
                    return true;
                }
            }
        }
        false
    }

    /// The predicates on edges from vertex `r` to vertices **outside**
    /// `mask` — the per-member crossing obligations of condition C2.
    #[must_use]
    pub fn outside_edges(&self, r: RelationId, mask: u32) -> Vec<Predicate> {
        self.adj[r.index()]
            .iter()
            .filter(|(w, _, _)| mask & (1 << w.index()) == 0)
            .map(|&(_, p, _)| p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;

    fn chain4() -> Query {
        // The paper's Q1: R1 Ov R2 and R2 Ov R3 and R3 Ov R4.
        Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R3")
            .overlap("R3", "R4")
            .build()
            .unwrap()
    }

    #[test]
    fn adjacency_of_chain() {
        let g = chain4().graph();
        assert_eq!(g.neighbors(RelationId(0)).len(), 1);
        assert_eq!(g.neighbors(RelationId(1)).len(), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn bfs_order_extends_by_adjacency() {
        let g = chain4().graph();
        let order = g.bfs_order(RelationId(2));
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], RelationId(2));
        // Every later vertex is adjacent to an earlier one.
        for (i, &v) in order.iter().enumerate().skip(1) {
            assert!(order[..i]
                .iter()
                .any(|&u| g.neighbors(v).iter().any(|&(w, _, _)| w == u)));
        }
    }

    #[test]
    fn connected_subsets_of_chain4() {
        let g = chain4().graph();
        let subs = g.connected_subsets(true);
        // Connected subsets of a path 0-1-2-3 are contiguous runs:
        // 4 singletons + 3 pairs + 2 triples = 9 proper subsets.
        assert_eq!(subs.len(), 9);
        assert!(subs.contains(&0b0001));
        assert!(subs.contains(&0b0110));
        assert!(subs.contains(&0b0111));
        assert!(!subs.contains(&0b0101)); // {0, 2} is disconnected
        assert!(!subs.contains(&0b1111)); // full set excluded
                                          // Including the full set:
        assert_eq!(g.connected_subsets(false).len(), 10);
    }

    #[test]
    fn outside_edges_of_subsets() {
        let g = chain4().graph();
        // S = {1, 2}: vertex 1 has an outside edge to 0, vertex 2 to 3.
        let mask = 0b0110;
        assert!(g.has_outside_edge(mask));
        assert_eq!(g.outside_edges(RelationId(1), mask).len(), 1);
        assert_eq!(g.outside_edges(RelationId(2), mask).len(), 1);
        // The full set has no outside edge.
        assert!(!g.has_outside_edge(0b1111));
        // S = {0}: one outside edge (to 1).
        assert_eq!(g.outside_edges(RelationId(0), 0b0001).len(), 1);
    }

    #[test]
    fn star_query_subsets() {
        // Star: R2 in the middle (R1-R2, R2-R3), as in Q2.
        let q = Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R3")
            .build()
            .unwrap();
        let g = q.graph();
        let subs = g.connected_subsets(true);
        // Singletons {0},{1},{2}; pairs {0,1},{1,2}. {0,2} disconnected.
        assert_eq!(subs.len(), 5);
    }

    #[test]
    fn parallel_edges_are_kept() {
        // Hybrid pair: overlap AND range between the same two relations.
        let q = Query::builder()
            .overlap("A", "B")
            .range("A", "B", 10.0)
            .build()
            .unwrap();
        let g = q.graph();
        assert_eq!(g.neighbors(RelationId(0)).len(), 2);
        let preds = g.outside_edges(RelationId(0), 0b01);
        assert_eq!(preds.len(), 2);
    }
}
