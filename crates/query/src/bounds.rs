use mwsj_geom::Coord;

use crate::query::{Query, RelationId};

/// Computes the *C-Rep-L* per-relation replication distance bounds
/// (§7.9 for overlap chains, §8 for range chains, generalized to arbitrary
/// connected query graphs as the paper's footnote 3 sketches).
///
/// A rectangle `u` of relation `R_i` marked for replication only needs to
/// reach reducers that might hold a rectangle `v` of some relation `R_j`
/// joining (transitively) with `u`. Walking a path `R_i = V_0, V_1, …,
/// V_h = R_j` in the join graph, consecutive rectangles are at most
/// `d_edge` apart and each intermediate rectangle spans at most `body`, so
///
/// ```text
/// gap(u, v) ≤ Σ_path d_edge + (h - 1) · body .
/// ```
///
/// The paper charges every body its diagonal and bounds the distance; the
/// same walk bounds the gap on one axis with every body charged its side
/// there, since a gap on one axis never exceeds the distance. So `body` is
/// `l_max` for the x reach and `b_max` for the y reach (C-Rep-L's routing).
///
/// The replication bound for `R_i` is the maximum over all `R_j` of the
/// minimum such path cost — a weighted eccentricity, computed here with
/// Dijkstra where leaving a vertex other than the source costs `body` on
/// top of the edge's `d_edge`. Each intermediate vertex is charged as it
/// is crossed, never added and taken back: a one-hop bound is `d_edge` to
/// the bit, where `(d + body) − body` lands an ulp below `d` and, at a
/// range of exactly one cell width, lost the cell sitting at the bound.
///
/// For the paper's chains this reproduces the closed forms exactly:
/// * overlap chain of `m` relations: `(m-2)·body` at the ends (§7.9);
/// * range chain, all edges `d`: `(m-2)·body + (m-1)·d` at the ends and
///   `body + 2d` for the inner relations of a 4-chain (§8, Figure 8).
#[must_use]
pub fn replication_bounds(query: &Query, body: Coord) -> Vec<Coord> {
    assert!(body >= 0.0, "body must be non-negative");
    let g = query.graph();
    let n = query.num_relations();
    let mut bounds = Vec::with_capacity(n);
    let mut dist = vec![Coord::INFINITY; n];
    let mut visited = vec![false; n];
    for src in 0..n {
        // Dijkstra; a hop out of an intermediate vertex crosses its body.
        dist.fill(Coord::INFINITY);
        dist[src] = 0.0;
        visited.fill(false);
        for _ in 0..n {
            // n is tiny (≤ 16): linear extraction beats a heap.
            let Some(u) = (0..n)
                .filter(|&v| !visited[v])
                .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).expect("finite"))
            else {
                break;
            };
            if dist[u].is_infinite() {
                break;
            }
            visited[u] = true;
            let crossed = if u == src { 0.0 } else { body };
            for &(w, p, _) in g.neighbors(RelationId(u as u16)) {
                let cand = dist[u] + crossed + p.distance();
                if cand < dist[w.index()] {
                    dist[w.index()] = cand;
                }
            }
        }
        // The eccentricity; the source itself is at 0.
        bounds.push(dist.iter().copied().fold(0.0, Coord::max));
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;

    #[test]
    fn overlap_chain4_matches_paper_7_9() {
        // §7.9 / Figure 6, query Q1 (chain of 4, all overlap): ends need
        // 2 * d_max, inner relations d_max.
        let q = Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R3")
            .overlap("R3", "R4")
            .build()
            .unwrap();
        let d_max = 10.0;
        let b = replication_bounds(&q, d_max);
        assert_eq!(b, vec![20.0, 10.0, 10.0, 20.0]);
    }

    #[test]
    fn range_chain4_matches_paper_section8() {
        // §8 / Figure 8: chain of 4, all Ra(d): ends 2*d_max + 3*d, inner
        // d_max + 2*d.
        let d = 7.0;
        let d_max = 10.0;
        let q = Query::builder()
            .range("R1", "R2", d)
            .range("R2", "R3", d)
            .range("R3", "R4", d)
            .build()
            .unwrap();
        let b = replication_bounds(&q, d_max);
        assert_eq!(b[0], 2.0 * d_max + 3.0 * d);
        assert_eq!(b[3], 2.0 * d_max + 3.0 * d);
        assert_eq!(b[1], d_max + 2.0 * d);
        assert_eq!(b[2], d_max + 2.0 * d);
    }

    #[test]
    fn figure6_and_8_chains_bound_each_axis_by_its_side() {
        // Bodies up to 10 long and 4 broad: a chain charges each axis its
        // own side, so Q1's ends reach (2·l_max, 2·b_max) and Figure 8's
        // ends (2·l_max + 3d, 2·b_max + 3d).
        let (l_max, b_max) = (10.0, 4.0);
        let per_axis = |q: &Query| -> Vec<(Coord, Coord)> {
            let y = replication_bounds(q, b_max);
            replication_bounds(q, l_max).into_iter().zip(y).collect()
        };
        let q1 = Query::parse("R1 ov R2 and R2 ov R3 and R3 ov R4").unwrap();
        let (end, inner) = ((2.0 * l_max, 2.0 * b_max), (l_max, b_max));
        assert_eq!(per_axis(&q1), vec![end, inner, inner, end]);
        let d = 7.0;
        let q = Query::parse("R1 ra(7) R2 and R2 ra(7) R3 and R3 ra(7) R4").unwrap();
        let end = (2.0 * l_max + 3.0 * d, 2.0 * b_max + 3.0 * d);
        let inner = (l_max + 2.0 * d, b_max + 2.0 * d);
        assert_eq!(per_axis(&q), vec![end, inner, inner, end]);
    }

    #[test]
    fn overlap_chain3_general_formula() {
        // Q2 (3-chain): (m-2)*d_max = d_max at the ends; the middle
        // relation reaches either end in one hop: bound 0 intermediate,
        // i.e. 0 extra — max single-hop cost is d_max - d_max = 0? No:
        // ends: 2 hops = 2*d_max - d_max = d_max; middle: 1 hop = d_max -
        // d_max = 0. A middle rectangle only joins rectangles it touches.
        let q = Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R3")
            .build()
            .unwrap();
        let b = replication_bounds(&q, 10.0);
        assert_eq!(b, vec![10.0, 0.0, 10.0]);
    }

    #[test]
    fn hybrid_query_mixes_edge_weights() {
        // Q4: R1 Ov R2 and R2 Ra(d) R3 with d = 200.
        let q = Query::builder()
            .overlap("R1", "R2")
            .range("R2", "R3", 200.0)
            .build()
            .unwrap();
        let d_max = 10.0;
        let b = replication_bounds(&q, d_max);
        // R1 -> R3: 0 + d_max + 200 + d_max - d_max = 210.
        assert_eq!(b[0], 210.0);
        // R2 -> R3 one hop: 200 + d_max - d_max = 200 (larger than R2->R1).
        assert_eq!(b[1], 200.0);
        // R3 -> R1: symmetric to R1.
        assert_eq!(b[2], 210.0);
    }

    #[test]
    fn star_center_bound_smaller_than_leaves() {
        // Star with center C and three leaves: leaves are 2 hops apart.
        let q = Query::builder()
            .overlap("C", "L1")
            .overlap("C", "L2")
            .overlap("C", "L3")
            .build()
            .unwrap();
        let d_max = 5.0;
        let b = replication_bounds(&q, d_max);
        assert_eq!(b[0], 0.0); // center touches everything it joins
        assert_eq!(b[1], d_max); // leaf to leaf crosses the center
    }

    #[test]
    fn cycle_uses_shortest_path() {
        // Triangle: every pair adjacent; all bounds collapse to 0 for
        // overlap (one hop each).
        let q = Query::builder()
            .overlap("A", "B")
            .overlap("B", "C")
            .overlap("C", "A")
            .build()
            .unwrap();
        assert_eq!(replication_bounds(&q, 10.0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn one_hop_bound_is_the_edge_distance_to_the_bit() {
        // (d + d_max) - d_max is one ulp under d for these values; the
        // middle relation of the chain must get exactly d.
        let d = 1000.0 / 3.0;
        let q = Query::builder()
            .range("A", "B", d)
            .range("B", "C", d)
            .build()
            .unwrap();
        let d_max = 1000.0 * std::f64::consts::SQRT_2;
        assert!((d + d_max) - d_max < d, "the rounding this test is about");
        assert_eq!(replication_bounds(&q, d_max)[1], d);
    }

    #[test]
    fn zero_dmax_leaves_range_distances() {
        // Degenerate rectangles (points): chain of 3 ranges.
        let q = Query::builder()
            .range("A", "B", 5.0)
            .range("B", "C", 5.0)
            .build()
            .unwrap();
        let b = replication_bounds(&q, 0.0);
        assert_eq!(b, vec![10.0, 5.0, 10.0]);
    }
}
