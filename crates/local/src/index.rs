//! The reducer group's pair lists: one sweep per join-graph edge.
//!
//! Everything a reducer does with its group — C-Rep's arc-consistency
//! marking, the multi-way join — asks one question: which rectangles of
//! relation `w` lie within `d` of this one? A [`GroupIndex`] answers it for
//! a whole edge of the join graph at once. The first time an edge
//! `(a, b, d)` is asked for, the two relations are swept in ascending
//! `min_x` and the accepted pairs are stored as CSR adjacency in both
//! directions ([`PairList`]); from then on a probe is a row lookup, so the
//! round-1 reducer that marks and then joins the same group pays for one
//! sweep per edge.
//!
//! # The sweep
//!
//! Both relations are copied into coordinate columns in ascending `min_x`
//! (one sort per relation per group, kept across edges). A forward scan
//! merges the two columns: the entry with the smaller `min_x` *opens* and is
//! tested against the other side's entries from the merge cursor on, as
//! long as they start within its x-reach `max_x + d`. Each pair is met
//! exactly once — when the member that starts first opens — and is accepted
//! by [`Rect::bounds_within`](mwsj_geom::Rect::bounds_within), the test
//! every index in the workspace accepts by, written to the output without a
//! branch on the outcome.
//!
//! **The window is a one-sided filter.** `max_x + d` is a computed sum and
//! the exact test compares computed squares, so the reach is widened by a
//! few ulps (`reach`): a candidate the exact test accepts is never
//! outside the window; one a rounding error beyond it is tested and
//! rejected.
//!
//! **Strips.** The x-window alone admits every rectangle of the column
//! above or below the opening one. When the group is large and tall
//! against its rectangles (`Strips::of_group` — from the relations'
//! sizes, their y-extent and their mean height, nothing else), the columns
//! are cut into horizontal strips and swept strip by strip. A rectangle is
//! copied into every strip its y-range meets — the `from` side's range
//! padded by `d`, both widened like the x-reach — and a pair is kept only
//! in the strip where the later of the two ranges begins: the strip of the
//! reference point `max(a.min_y − d, b.min_y)`. That strip lies in both
//! ranges whenever the exact test can accept the pair, and the rule
//! compares strip *numbers*, so a pair is reported once whatever the
//! rounding of the strip boundaries.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use mwsj_geom::{Coord, Rect};

use crate::LocalRect;

/// One direction of an edge's pair list, in CSR form.
#[derive(Default)]
pub struct Rows {
    off: Vec<u32>,
    adj: Vec<u32>,
}

impl Rows {
    /// The positions, in the other relation, of the partners of the
    /// rectangle at position `i`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.adj[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Counting sort of `pairs` by member `key`; rows list member
    /// `1 - key`. `off[r + 1]` is row `r`'s write cursor during the fill
    /// and therefore row `r + 1`'s start after it.
    fn from_pairs(n: usize, pairs: &[[u32; 2]], key: usize) -> Self {
        let mut off = vec![0u32; n + 2];
        for p in pairs {
            off[p[key] as usize + 2] += 1;
        }
        for r in 2..off.len() {
            off[r] += off[r - 1];
        }
        let mut adj = vec![0u32; pairs.len()];
        for p in pairs {
            let cursor = &mut off[p[key] as usize + 1];
            adj[*cursor as usize] = p[1 - key];
            *cursor += 1;
        }
        Self { off, adj }
    }
}

/// The pairs of one edge `(a, b, d)`: every `(i, j)` with `a[i]` within
/// `d` of `b[j]`, as adjacency rows in both directions.
pub struct PairList {
    /// `[lower position → higher, higher → lower]`.
    rows: [Rows; 2],
}

impl PairList {
    /// The rows of relation position `from` listing partners in `to`.
    #[must_use]
    pub fn from(&self, from: usize, to: usize) -> &Rows {
        &self.rows[usize::from(from > to)]
    }
}

/// `x + d`, widened upward by more than the rounding of the sum and of the
/// squared-distance test: nothing the exact test accepts starts beyond it.
/// The map-side join cuts a stored cell's `min_x`-sorted run with it too.
#[must_use]
pub fn reach(x: Coord, d: Coord) -> Coord {
    x + d + (x.abs() + d) * (4.0 * Coord::EPSILON)
}

/// One relation's `min_x` order and the y-statistics the strip count reads.
struct Order {
    by_min_x: Vec<u32>,
    y_range: (Coord, Coord),
    height_sum: Coord,
}

impl Order {
    fn of(rel: &[LocalRect]) -> Self {
        let mut keyed: Vec<(Coord, u32)> = rel.iter().map(|(r, _)| r.min_x()).zip(0..).collect();
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let (y_range, height_sum) = rel.iter().fold(
            ((Coord::INFINITY, Coord::NEG_INFINITY), 0.0),
            |((lo, hi), sum), (r, _)| ((lo.min(r.min_y()), hi.max(r.max_y())), sum + r.b()),
        );
        Self {
            by_min_x: keyed.into_iter().map(|(_, i)| i).collect(),
            y_range,
            height_sum,
        }
    }
}

/// The horizontal cut of one sweep.
struct Strips {
    y0: Coord,
    per_unit: Coord,
    count: usize,
}

impl Strips {
    /// Fewest entries of the smaller relation a strip is worth: below it
    /// the copies and the per-strip merge cost more than the tests saved.
    const MIN_ENTRIES: usize = 256;

    /// Strips four mean (padded) heights tall, as many as the smaller
    /// side can fill: one for a cell-sized group, tens for a whole input.
    fn of_group(a: (&Order, usize), b: (&Order, usize), d: Coord) -> Self {
        let y0 = a.0.y_range.0.min(b.0.y_range.0) - d;
        let extent = a.0.y_range.1.max(b.0.y_range.1) + d - y0;
        let mean = (a.0.height_sum + b.0.height_sum) / (a.1 + b.1) as Coord + d;
        let count = ((extent / (4.0 * mean)) as usize)
            .min(a.1.min(b.1) / Self::MIN_ENTRIES)
            .max(1);
        Self {
            y0,
            per_unit: count as Coord / extent,
            count,
        }
    }

    /// The strip holding `y`; anything outside the extent (or not a
    /// number, for a degenerate extent) lands in an end strip.
    fn of(&self, y: Coord) -> usize {
        (((y - self.y0) * self.per_unit) as usize).min(self.count - 1)
    }
}

/// One relation in ascending `min_x` as coordinate columns, cut into
/// strips: strip `s` is `strips[s]..strips[s + 1]`.
#[derive(Default)]
struct Columns {
    /// `min_x`, `min_y`, `max_x`, `max_y`.
    corners: [Vec<Coord>; 4],
    pos: Vec<u32>,
    /// Whether the entry's strip range begins in this strip.
    first: Vec<bool>,
    strips: Vec<usize>,
}

impl Columns {
    /// Copies the `alive` rectangles of `rel` in, each into every strip
    /// its y-range padded by `pad` meets.
    fn fill(
        &mut self,
        rel: &[LocalRect],
        order: &[u32],
        alive: Option<&[bool]>,
        pad: Coord,
        strips: &Strips,
    ) {
        let entries = || {
            let live = order
                .iter()
                .filter(move |&&p| alive.is_none_or(|a| a[p as usize]));
            live.map(move |&p| {
                let bounds = rel[p as usize].0.bounds();
                let lo = strips.of(-reach(-bounds[1], pad));
                (p, bounds, lo, strips.of(reach(bounds[3], pad)))
            })
        };
        self.strips.clear();
        self.strips.resize(strips.count + 2, 0);
        for (_, _, lo, hi) in entries() {
            for s in lo..=hi {
                self.strips[s + 2] += 1;
            }
        }
        for s in 2..self.strips.len() {
            self.strips[s] += self.strips[s - 1];
        }
        let total = self.strips[strips.count + 1];
        for column in &mut self.corners {
            column.resize(total, 0.0);
        }
        self.pos.resize(total, 0);
        self.first.resize(total, false);
        for (p, bounds, lo, hi) in entries() {
            for s in lo..=hi {
                let at = self.strips[s + 1];
                self.strips[s + 1] += 1;
                for (column, c) in self.corners.iter_mut().zip(bounds) {
                    column[at] = c;
                }
                self.pos[at] = p;
                self.first[at] = s == lo;
            }
        }
    }
}

/// Sweep working memory, kept per thread across groups.
#[derive(Default)]
struct Sweep {
    sides: [Columns; 2],
    /// Accepted pairs in `..found`; past that, room the scan writes each
    /// candidate into before it knows whether the candidate is accepted.
    pairs: Vec<[u32; 2]>,
    found: usize,
}

thread_local! {
    static SWEEP: RefCell<Sweep> = RefCell::new(Sweep::default());
}

impl Sweep {
    /// Entry `i` of side `SIDE` opens: tests it against the other side's
    /// entries `from..to` that start within its x-reach, keeping each
    /// accepted pair (this side's position in slot `SIDE`) in the strip
    /// that owns it. Returns the tests made.
    fn open<const SIDE: usize>(&mut self, i: usize, from: usize, to: usize, d: Coord) -> usize {
        let (me, other) = (&self.sides[SIDE], &self.sides[1 - SIDE]);
        let [x0, y0, x1, y1] = [0, 1, 2, 3].map(|c| me.corners[c][i]);
        let rect = Rect::from_bounds(x0, y0, x1, y1).expect("copied from a rectangle");
        let limit = reach(x1, d);
        let [min_x, min_y, max_x, max_y] = [0, 1, 2, 3].map(|c| &other.corners[c][from..to]);
        let (pos, first) = (&other.pos[from..to], &other.first[from..to]);
        let (own, mut pair) = (me.first[i], [me.pos[i]; 2]);
        if self.pairs.len() < self.found + (to - from) {
            self.pairs.resize(2 * (self.found + (to - from)), [0; 2]);
        }
        let out = &mut self.pairs[self.found..][..to - from];
        let (mut k, mut n) = (0, 0);
        while k < min_x.len() && min_x[k] <= limit {
            pair[1 - SIDE] = pos[k];
            out[n] = pair;
            let hit = rect.bounds_within([min_x[k], min_y[k], max_x[k], max_y[k]], d * d);
            n += usize::from((own | first[k]) & hit);
            k += 1;
        }
        self.found += n;
        k
    }

    /// The forward scan over the filled sides, strip by strip: of the two
    /// entries at the merge cursors the one that starts first opens.
    /// Returns the tests made.
    fn run(&mut self, strips: usize, d: Coord) -> usize {
        self.found = 0;
        let mut tests = 0;
        for s in 0..strips {
            let [a, b] = [0, 1].map(|side| &self.sides[side].strips);
            let ((mut i, a_end), (mut j, b_end)) = ((a[s], a[s + 1]), (b[s], b[s + 1]));
            while i < a_end && j < b_end {
                if self.sides[0].corners[0][i] <= self.sides[1].corners[0][j] {
                    tests += self.open::<0>(i, j, b_end, d);
                    i += 1;
                } else {
                    tests += self.open::<1>(j, i, a_end, d);
                    j += 1;
                }
            }
        }
        tests
    }
}

/// A complete list the group has built, by `(lower, higher, d bits)`.
type Built = ((usize, usize, u64), Rc<PairList>);

/// The local relations of one reducer group, with a lazily built pair list
/// per join-graph edge.
pub struct GroupIndex<'a> {
    relations: &'a [Vec<LocalRect>],
    orders: Vec<OnceCell<Order>>,
    built: RefCell<Vec<Built>>,
    tests: Cell<u64>,
    pairs: Cell<u64>,
}

impl<'a> GroupIndex<'a> {
    /// Wraps a group; `relations[i]` holds the local rectangles of query
    /// position `i`. Nothing is sorted or swept until an edge is asked for.
    #[must_use]
    pub fn new(relations: &'a [Vec<LocalRect>]) -> Self {
        Self {
            relations,
            orders: relations.iter().map(|_| OnceCell::new()).collect(),
            built: RefCell::default(),
            tests: Cell::new(0),
            pairs: Cell::new(0),
        }
    }

    /// The relations the index was built over.
    #[must_use]
    pub fn relations(&self) -> &'a [Vec<LocalRect>] {
        self.relations
    }

    /// `(overlap tests executed, pairs materialized)` by this group's
    /// sweeps so far; their ratio is what the strip rule controls.
    #[must_use]
    pub fn sweep_counts(&self) -> (u64, u64) {
        (self.tests.get(), self.pairs.get())
    }

    /// The pair list of edge `(from, to, d)`: every rectangle of `to`
    /// within distance `d` (closed; `d = 0` is overlap) of one of `from`.
    ///
    /// With `alive = None` the list is complete in both directions, swept
    /// on first use and kept. With `Some(alive)` the caller only reads
    /// rows `from → to` of rectangles `alive` flags: a complete list is
    /// handed out if the group holds one, otherwise only those rows are
    /// swept (and not kept) — a forward semi-join, so a join seeded by four
    /// rectangles never materializes a full `R2 ⋈ R3`. Such a list has no
    /// rows `to → from`.
    #[must_use]
    pub fn pairs(&self, from: usize, to: usize, d: Coord, alive: Option<&[bool]>) -> Rc<PairList> {
        let key = (from.min(to), from.max(to), d.to_bits());
        if let Some((_, list)) = self.built.borrow().iter().find(|b| b.0 == key) {
            return Rc::clone(list);
        }
        // The padded, filtered side is `from`; a complete list has none.
        let (a, b) = if alive.is_some() {
            (from, to)
        } else {
            (key.0, key.1)
        };
        let order = |w: usize| self.orders[w].get_or_init(|| Order::of(&self.relations[w]));
        let [(rel_a, order_a), (rel_b, order_b)] = [a, b].map(|w| (&self.relations[w], order(w)));
        let mut rows = SWEEP.with_borrow_mut(|sweep| {
            let live = alive.map_or(rel_a.len(), |f| f.iter().filter(|&&on| on).count());
            let strips = Strips::of_group((order_a, live), (order_b, rel_b.len()), d);
            sweep.sides[0].fill(rel_a, &order_a.by_min_x, alive, d, &strips);
            sweep.sides[1].fill(rel_b, &order_b.by_min_x, None, 0.0, &strips);
            let tests = sweep.run(strips.count, d);
            let pairs = &sweep.pairs[..sweep.found];
            self.tests.set(self.tests.get() + tests as u64);
            self.pairs.set(self.pairs.get() + pairs.len() as u64);
            let back = match alive {
                None => Rows::from_pairs(rel_b.len(), pairs, 1),
                Some(_) => Rows::default(),
            };
            [Rows::from_pairs(rel_a.len(), pairs, 0), back]
        });
        if a > b {
            rows.swap(0, 1);
        }
        let list = Rc::new(PairList { rows });
        if alive.is_none() {
            self.built.borrow_mut().push((key, Rc::clone(&list)));
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `n` rectangles whose corners sit on half-cell multiples of a grid
    /// with `cols` cells across `[0, 1000]` — coordinates are products
    /// that are not representable, so sums and gaps round — among them
    /// zero-area rectangles, exact duplicates, the whole extent, and (all
    /// sizes being multiples of the half cell) many that share an edge.
    fn snapped_relation(n: usize, cols: usize, seed: u64) -> Vec<LocalRect> {
        let mut rng = StdRng::seed_from_u64(seed);
        let half = 1000.0 / cols as Coord / 2.0;
        let mut rel: Vec<LocalRect> = Vec::with_capacity(n);
        for i in 0..n {
            let rect = match rng.random_range(0..20) {
                0 if i > 0 => rel[rng.random_range(0..i)].0,
                1 => Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0).unwrap(),
                _ => {
                    let corner =
                        |rng: &mut StdRng| rng.random_range(0..2 * cols - 3) as Coord * half;
                    let side = |rng: &mut StdRng| rng.random_range(0..4) as Coord * half;
                    let (x, y) = (corner(&mut rng), corner(&mut rng));
                    Rect::from_bounds(x, y, x + side(&mut rng), y + side(&mut rng)).unwrap()
                }
            };
            // Ids are not positions: lists speak positions.
            rel.push((rect, 1_000 + i as u32));
        }
        rel
    }

    fn brute_force(a: &[LocalRect], b: &[LocalRect], d: Coord) -> Vec<[u32; 2]> {
        let mut out = Vec::new();
        for (i, (ra, _)) in a.iter().enumerate() {
            for (j, (rb, _)) in b.iter().enumerate() {
                if ra.bounds_within(rb.bounds(), d * d) {
                    out.push([i as u32, j as u32]);
                }
            }
        }
        out
    }

    /// A positive gap between an `a` and a `b` along `axis` (0: x, 1: y) —
    /// a distance some pairs sit at exactly. The smallest one that does not
    /// survive the round trip `hi + (lo − hi) < lo` if there is one (there
    /// the unwidened reach `hi + d` falls short of a partner at exactly
    /// `d`), the smallest otherwise.
    fn a_gap(a: &[LocalRect], b: &[LocalRect], axis: usize) -> Coord {
        let ends = a.iter().flat_map(|(ra, _)| {
            b.iter()
                .map(move |(rb, _)| (rb.bounds()[axis], ra.bounds()[axis + 2]))
        });
        ends.map(|(lo, hi)| (hi + (lo - hi) >= lo, lo - hi))
            .filter(|&(_, gap)| gap > 0.0)
            .min_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)))
            .map_or(Coord::INFINITY, |(_, gap)| gap)
    }

    fn rows_as_pairs(rows: &Rows, n: usize, flip: bool) -> Vec<[u32; 2]> {
        let mut out: Vec<[u32; 2]> = (0..n)
            .flat_map(|i| rows.row(i).iter().map(move |&j| [i as u32, j]))
            .map(|[i, j]| if flip { [j, i] } else { [i, j] })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn swept_pair_lists_equal_the_brute_force_pair_set() {
        // (size, grid columns): one strip up to 335, many at 5 000.
        for (n, cols) in [
            (0, 7),
            (1, 7),
            (2, 7),
            (47, 7),
            (48, 13),
            (335, 37),
            (5_000, 143),
        ] {
            let rels = vec![
                snapped_relation(n, cols, 17),
                snapped_relation(n.max(3), cols, 18),
            ];
            let (a, b) = (&rels[0], &rels[1]);
            let mut distances = vec![0.0, 12.5];
            distances.extend(
                [a_gap(a, b, 0), a_gap(a, b, 1)]
                    .iter()
                    .filter(|g| g.is_finite()),
            );
            assert!(
                n < 2 || distances.len() == 4,
                "no gaps to sit on at n = {n}"
            );
            for d in distances {
                let want = brute_force(a, b, d);
                let group = GroupIndex::new(&rels);
                // Whichever end names the edge, one complete list.
                let list = group.pairs(1, 0, d, None);
                let same = |rows: &Rows, n: usize, flip: bool, want: &[[u32; 2]]| {
                    let got = rows_as_pairs(rows, n, flip);
                    let odd = got.iter().zip(want).find(|(g, w)| g != w);
                    let (found, brute) = (got.len(), want.len());
                    assert!(
                        got == want,
                        "n {n} d {d}: {found} for {brute}, first at {odd:?}"
                    );
                };
                same(list.from(0, 1), a.len(), false, &want);
                same(list.from(1, 0), b.len(), true, &want);
                assert!(
                    Rc::ptr_eq(&list, &group.pairs(0, 1, d, None)),
                    "swept twice"
                );
                assert!(Rc::ptr_eq(&list, &group.pairs(0, 1, d, Some(&[]))));
                assert_eq!(group.sweep_counts().1, want.len() as u64);

                // A forward semi-join holds exactly the flagged rows, from
                // either end of the edge.
                let fresh = GroupIndex::new(&rels);
                let alive: Vec<bool> = (0..b.len()).map(|j| j % 3 == 0).collect();
                let rows = fresh.pairs(1, 0, d, Some(&alive));
                let mut kept: Vec<[u32; 2]> = want
                    .iter()
                    .copied()
                    .filter(|p| alive[p[1] as usize])
                    .collect();
                kept.sort_unstable();
                same(rows.from(1, 0), b.len(), true, &kept);
                assert_eq!(fresh.sweep_counts().1, kept.len() as u64);

                let strips =
                    Strips::of_group((&Order::of(a), a.len()), (&Order::of(b), b.len()), d).count;
                assert_eq!(strips > 1, n == 5_000, "n {n} d {d}: {strips} strips");
            }
        }
    }

    #[test]
    fn strip_count_follows_the_group_not_a_setting() {
        let count = |n: usize, height: Coord, extent: Coord, d: Coord| {
            let mut rng = StdRng::seed_from_u64(3);
            let rel: Vec<LocalRect> = (0..n as u32)
                .map(|i| {
                    let y = rng.random_range(height..extent);
                    (Rect::new(rng.random_range(0.0..extent), y, 10.0, height), i)
                })
                .collect();
            let order = Order::of(&rel);
            Strips::of_group((&order, n), (&order, n), d).count
        };
        // A cell-sized group is one strip however tall its cell is.
        assert_eq!(count(335, 50.0, 1_250.0, 0.0), 1);
        assert_eq!(count(335, 1.0, 100_000.0, 0.0), 1);
        // A whole input: strips about four mean heights tall...
        assert!((40..=50).contains(&count(20_000, 50.0, 10_000.0, 0.0)));
        // ...fewer when the range distance pads every rectangle...
        assert!((15..=25).contains(&count(20_000, 50.0, 10_000.0, 60.0)));
        // ...or when the rectangles are as tall as the group...
        assert_eq!(count(20_000, 5_000.0, 10_000.0, 0.0), 1);
        // ...and never more than the smaller side can fill.
        assert!(count(1_000, 1.0, 10_000.0, 0.0) <= 1_000 / Strips::MIN_ENTRIES);
    }
}
