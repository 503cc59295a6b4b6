//! The reducer group's pair lists, one sweep per join-graph edge, and the
//! kNN join's outward scan of one sorted run ([`SortedRun`]).
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
//! Each relation's `min_x` order is found once per group, by one stable
//! sort, and kept across edges. A relation read off stored cells arrives as
//! ascending runs (one per cell a map-side gather read; the start relation
//! is one), and the run-adaptive sort merges the long ones as they are, so
//! a stored cell is a sorted run the sweep does not sort again. Both
//! relations are copied in that order into entry arrays, and a forward scan
//! merges the two: the entry with the smaller `min_x` *opens* and is tested
//! against the other side's entries from the merge cursor on, as long as
//! they start within its x-reach `max_x + d`. Each pair is met exactly once
//! — when the member that starts first opens — and is accepted by
//! [`bounds_within`], the body of
//! [`Rect::bounds_within`](mwsj_geom::Rect::bounds_within) that every index
//! in the workspace accepts by, on the corners as copied (they came from a
//! `Rect`, so nothing is validated again), and written to the output
//! without a branch on the outcome.
//!
//! **The window is a one-sided filter.** `max_x + d` is a computed sum and
//! the exact test compares computed squares, so the reach is widened by a
//! few ulps (`reach`): a candidate the exact test accepts is never
//! outside the window; one a rounding error beyond it is tested and
//! rejected.
//!
//! **Strips.** The x-window alone admits every rectangle of the column
//! above or below the opening one. The entries are therefore cut into
//! horizontal strips about four mean heights tall, as many as the smaller
//! side fills with 32 entries a strip (`Strips::of_group` — from the
//! relations' sizes, their y-extent and their mean height, nothing else),
//! and swept strip by strip: a cell-sized group of about 335 a relation
//! is six or seven strips, and its sweep makes about three tests per kept
//! pair instead of fourteen. A rectangle is copied into every strip its
//! y-range meets — the `from` side's range padded by `d`, both widened
//! like the x-reach — and a pair is kept only in the strip where the later
//! of the two ranges begins: the strip of the reference point
//! `max(a.min_y − d, b.min_y)`. That strip lies in both ranges whenever
//! the exact test can accept the pair, and the rule compares strip
//! *numbers*, so a pair is reported once whatever the rounding of the
//! strip boundaries.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use mwsj_geom::{bounds_within, Coord, Rect};
use mwsj_partition::{CellClass, CellId, Grid};

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
/// The map-side join cuts a stored cell's `min_x`-sorted run with it too,
/// and mirrored (`-reach(-x, d)`) on the run's left.
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
        let (y_range, height_sum) = rel.iter().fold(
            ((Coord::INFINITY, Coord::NEG_INFINITY), 0.0),
            |((lo, hi), sum), (r, _)| ((lo.min(r.min_y()), hi.max(r.max_y())), sum + r.b()),
        );
        // A relation read off stored cells is a few ascending runs (one per
        // cell a map-side gather read; the start relation is one): the
        // run-adaptive stable sort merges the long ones as they are. It
        // sorts positions, so its scratch is 4 B a record, not a keyed copy.
        let mut by_min_x: Vec<u32> = (0..rel.len() as u32).collect();
        by_min_x.sort_by(|&a, &b| {
            let x = |p: u32| rel[p as usize].0.min_x();
            x(a).total_cmp(&x(b))
        });
        Self {
            by_min_x,
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
    /// Fewest entries of the smaller relation a strip is worth, measured
    /// on the benchmark's map-side groups (DESIGN §7): at 256 every
    /// cell-sized group was one strip and its sweep made 14 tests per
    /// kept pair; at 32 the height bound decides (6–7 strips, 3.2 tests a
    /// pair, the scan a third faster for a dearer fill); 16 changes
    /// nothing there.
    const MIN_ENTRIES: usize = 32;

    /// Strips four mean (padded) heights tall, as many as the smaller
    /// side can fill: a few for a cell-sized group, tens for a whole input.
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

/// One rectangle's copy in one strip.
#[derive(Clone, Copy, Default)]
struct Entry {
    /// `[min_x, min_y, max_x, max_y]`, copied from the rectangle.
    bounds: [Coord; 4],
    pos: u32,
    /// Whether the entry's strip range begins in this strip.
    first: bool,
}

/// One side of a sweep: a relation in ascending `min_x`, cut into strips —
/// strip `s` is `entries[strips[s]..strips[s + 1]]`.
#[derive(Default)]
struct Side {
    entries: Vec<Entry>,
    strips: Vec<usize>,
    /// The fill's `[position, first strip, last strip]` per live entry.
    spans: Vec<[u32; 3]>,
}

impl Side {
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
        let live = order
            .iter()
            .filter(|&&p| alive.is_none_or(|a| a[p as usize]));
        self.spans.clear();
        self.spans.reserve(order.len());
        self.spans.extend(live.map(|&p| {
            let [_, min_y, _, max_y] = rel[p as usize].0.bounds();
            let lo = strips.of(-reach(-min_y, pad));
            [p, lo as u32, strips.of(reach(max_y, pad)) as u32]
        }));
        self.strips.clear();
        self.strips.resize(strips.count + 2, 0);
        for &[_, lo, hi] in &self.spans {
            for s in lo..hi + 1 {
                self.strips[s as usize + 2] += 1;
            }
        }
        for s in 2..self.strips.len() {
            self.strips[s] += self.strips[s - 1];
        }
        self.entries
            .resize(self.strips[strips.count + 1], Entry::default());
        for &[pos, lo, hi] in &self.spans {
            let bounds = rel[pos as usize].0.bounds();
            for s in lo..hi + 1 {
                let at = &mut self.strips[s as usize + 1];
                self.entries[*at] = Entry {
                    bounds,
                    pos,
                    first: s == lo,
                };
                *at += 1;
            }
        }
    }
}

/// Sweep working memory, kept per thread across groups.
#[derive(Default)]
struct Sweep {
    sides: [Side; 2],
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
        let me = self.sides[SIDE].entries[i];
        let others = &self.sides[1 - SIDE].entries[from..to];
        // Copied from a rectangle: nothing to validate.
        let [x0, y0, x1, y1] = me.bounds;
        debug_assert!(Rect::from_bounds(x0, y0, x1, y1).is_some());
        let (limit, d_sq) = (reach(x1, d), d * d);
        if self.pairs.len() < self.found + others.len() {
            self.pairs.resize(2 * (self.found + others.len()), [0; 2]);
        }
        let out = &mut self.pairs[self.found..][..others.len()];
        let mut pair = [me.pos; 2];
        let (mut tests, mut n) = (0, 0);
        for other in others {
            if other.bounds[0] > limit {
                break;
            }
            pair[1 - SIDE] = other.pos;
            out[n] = pair;
            let hit = bounds_within(me.bounds, other.bounds, d_sq);
            n += usize::from((me.first | other.first) & hit);
            tests += 1;
        }
        self.found += n;
        tests
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
                let x = |side: usize, k: usize| self.sides[side].entries[k].bounds[0];
                if x(0, i) <= x(1, j) {
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
/// per join-graph edge and, once asked for, each member's class against
/// the reducer's cell.
pub struct GroupIndex<'a> {
    relations: &'a [Vec<LocalRect>],
    orders: Vec<OnceCell<Order>>,
    built: RefCell<Vec<Built>>,
    classes: OnceCell<(CellId, Vec<Vec<CellClass>>)>,
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
            classes: OnceCell::new(),
            tests: Cell::new(0),
            pairs: Cell::new(0),
        }
    }

    /// The relations the index was built over.
    #[must_use]
    pub fn relations(&self) -> &'a [Vec<LocalRect>] {
        self.relations
    }

    /// Every member's [`CellClass`] against `cell` of `grid`, aligned with
    /// the relations: classified by comparison on first use and kept, so
    /// marking, round 1's home test and the count read one classification.
    ///
    /// # Panics
    /// Panics if the group was classified against another cell.
    #[must_use]
    pub fn classes(&self, grid: &Grid, cell: CellId) -> &[Vec<CellClass>] {
        let (at, classes) = self.classes.get_or_init(|| {
            let bounds = grid.cell_bounds(cell);
            let classify =
                |rel: &Vec<LocalRect>| rel.iter().map(|(r, _)| bounds.classify(r)).collect();
            (cell, self.relations.iter().map(classify).collect())
        });
        assert_eq!(*at, cell, "a group is classified against one cell");
        classes
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

/// One relation in ascending `min_x` with its longest body: the run the
/// k-nearest search scans outward from each probe.
pub struct SortedRun {
    run: Vec<LocalRect>,
    longest: Coord,
}

impl SortedRun {
    /// Sorts `run` by `min_x` (ids need not be positions).
    #[must_use]
    pub fn new(mut run: Vec<LocalRect>) -> Self {
        run.sort_by(|a, b| a.0.min_x().total_cmp(&b.0.min_x()));
        let longest = run.iter().map(|(r, _)| r.l()).fold(0.0, Coord::max);
        Self { run, longest }
    }

    /// Fills `best` with the `k` members nearest to `probe` (fewer when the
    /// run is shorter) as `(distance², id)`, ascending in that order, so
    /// ties resolve to the smaller id.
    ///
    /// Two cursors leave the probe's `min_x` position. A member right of
    /// its cursor is at least `min_x − probe.max_x` away. A member left of
    /// its cursor ends no further right than `min_x` plus the run's longest
    /// body — an inner that starts far left can still reach the probe — so
    /// it is at least `probe.min_x − (min_x + longest)` away, that sum
    /// widened by [`reach`] so it is never short of a member's `max_x`.
    /// Either gap is thus never more than the x gap [`Rect::distance_sq`]
    /// computes for a member past its cursor. The side with the smaller gap
    /// steps, and the scan stops once that gap, squared, exceeds the k-th
    /// distance²: a member left unread is farther than every kept one, so
    /// every equal distance is read.
    pub fn k_best(&self, probe: &Rect, k: usize, best: &mut Vec<(Coord, u32)>) {
        best.clear();
        if k == 0 {
            return;
        }
        let run = &self.run;
        let split = run.partition_point(|(r, _)| r.min_x() < probe.min_x());
        let (mut left, mut right) = (split, split);
        loop {
            let l =
                (left > 0).then(|| probe.min_x() - reach(run[left - 1].0.min_x(), self.longest));
            let r = (right < run.len()).then(|| run[right].0.min_x() - probe.max_x());
            let (gap, at) = match (l, r) {
                (Some(l), Some(r)) if r < l => (r, right),
                (Some(l), _) => (l, left - 1),
                (None, Some(r)) => (r, right),
                (None, None) => break,
            };
            if best.len() == k && gap > 0.0 && gap * gap > best[k - 1].0 {
                break;
            }
            if at < split {
                left = at;
            } else {
                right = at + 1;
            }
            let (rect, id) = run[at];
            let cand = (rect.distance_sq(probe), id);
            if best.len() < k || cand < best[k - 1] {
                best.insert(best.partition_point(|b| *b < cand), cand);
                best.truncate(k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
        // (size, grid columns): one strip up to 48, several from 335
        // unless the distance (a gap of 148 at 335) pads every rectangle
        // past the strip height.
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
                let cut = n >= 335 && d < 100.0;
                assert_eq!(strips > 1, cut, "n {n} d {d}: {strips} strips");
            }
        }
    }

    /// Every pair of every edge, both directions, as record ids.
    fn id_pairs(rels: &[Vec<LocalRect>], d: Coord) -> Vec<Vec<[u32; 2]>> {
        let group = GroupIndex::new(rels);
        let edges = [(0, 1), (1, 2), (0, 2)];
        let directed = edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)]);
        directed
            .map(|(from, to)| {
                let rows = group.pairs(from, to, d, None);
                let (rows, n) = (rows.from(from, to), rels[from].len());
                let ids = |i: usize, j: u32| [rels[from][i].1, rels[to][j as usize].1];
                let mut out: Vec<[u32; 2]> = (0..n)
                    .flat_map(|i| rows.row(i).iter().map(move |&j| ids(i, j)))
                    .collect();
                out.sort_unstable();
                out
            })
            .collect()
    }

    #[test]
    fn concatenated_sorted_runs_give_the_pairs_of_any_order() {
        // A map-side group: each relation one run per stored cell read,
        // each run in ascending `min_x`, their x-ranges overlapping — and
        // the same records in no order at all.
        for runs in 1..=9 {
            let mut rng = StdRng::seed_from_u64(runs as u64);
            let n = 40 * runs + 7;
            let as_runs: Vec<Vec<LocalRect>> = (0..3)
                .map(|k| {
                    let rel = snapped_relation(n + k, 13, 100 * runs as u64 + k as u64);
                    let mut cells: Vec<Vec<LocalRect>> = vec![Vec::new(); runs];
                    for r in rel {
                        cells[rng.random_range(0..runs)].push(r);
                    }
                    for cell in &mut cells {
                        cell.sort_by(|a, b| a.0.min_x().total_cmp(&b.0.min_x()));
                    }
                    cells.concat()
                })
                .collect();
            let shuffled: Vec<Vec<LocalRect>> = as_runs
                .iter()
                .map(|rel| {
                    let mut rel = rel.clone();
                    for i in (1..rel.len()).rev() {
                        rel.swap(i, rng.random_range(0..=i));
                    }
                    rel
                })
                .collect();
            let (a, b) = (&as_runs[0], &as_runs[1]);
            for d in [0.0, a_gap(a, b, 0), a_gap(a, b, 1)] {
                let got = id_pairs(&as_runs, d);
                assert_eq!(got, id_pairs(&shuffled, d), "{runs} runs, d {d}");
                let ids = |(i, j): (usize, usize)| [a[i].1, b[j].1];
                let mut want: Vec<[u32; 2]> = brute_force(a, b, d)
                    .into_iter()
                    .map(|[i, j]| ids((i as usize, j as usize)))
                    .collect();
                want.sort_unstable();
                assert_eq!(got[0], want, "{runs} runs, d {d}");
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
        // A cell-sized group: strips about four mean heights tall...
        assert_eq!(count(335, 50.0, 1_250.0, 0.0), 6);
        // ...as many as its smaller side fills however tall its cell is...
        assert_eq!(count(335, 1.0, 100_000.0, 0.0), 335 / Strips::MIN_ENTRIES);
        // ...and one when that side cannot fill two.
        assert_eq!(count(47, 1.0, 100_000.0, 0.0), 1);
        // A whole input: strips about four mean heights tall...
        assert!((40..=50).contains(&count(20_000, 50.0, 10_000.0, 0.0)));
        // ...fewer when the range distance pads every rectangle...
        assert!((15..=25).contains(&count(20_000, 50.0, 10_000.0, 60.0)));
        // ...or when the rectangles are as tall as the group...
        assert_eq!(count(20_000, 5_000.0, 10_000.0, 0.0), 1);
        // ...and never more than the smaller side can fill.
        assert!(count(1_000, 1.0, 10_000.0, 0.0) <= 1_000 / Strips::MIN_ENTRIES);
    }

    /// The `k` best of `run` by `(distance², id)`, every member measured.
    fn brute_k_best(run: &[LocalRect], probe: &Rect, k: usize) -> Vec<(Coord, u32)> {
        let mut all: Vec<(Coord, u32)> = run
            .iter()
            .map(|(r, id)| (r.distance_sq(probe), *id))
            .collect();
        all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    fn k_best(run: &[LocalRect], probe: &Rect, k: usize) -> Vec<(Coord, u32)> {
        let mut best = vec![(0.0, 0)];
        SortedRun::new(run.to_vec()).k_best(probe, k, &mut best);
        best
    }

    #[test]
    fn k_best_matches_brute_force() {
        // Snapped relations tie often: duplicates, shared edges, members
        // spanning the whole extent, zero-area ones.
        for (n, cols) in [(1, 7), (17, 7), (335, 37), (2_000, 143)] {
            let run = snapped_relation(n, cols, 40 + n as u64);
            let probes = snapped_relation(60, cols, 900 + n as u64);
            let mut rng = StdRng::seed_from_u64(n as u64);
            let floats = (0..60).map(|_| {
                let (x, y) = (rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0));
                Rect::from_bounds(x, y, x + rng.random_range(0.0..5.0), y + 1.0).unwrap()
            });
            for probe in probes.iter().map(|p| p.0).chain(floats) {
                for k in [1, 3, 10, 50] {
                    let want = brute_k_best(&run, &probe, k);
                    assert_eq!(k_best(&run, &probe, k), want, "n {n}, k {k}, {probe:?}");
                }
            }
        }
    }

    #[test]
    fn k_zero_and_k_exceeding_the_run() {
        let run = snapped_relation(5, 7, 22);
        let probe = Rect::from_bounds(100.0, 100.0, 101.0, 101.0).unwrap();
        assert!(k_best(&run, &probe, 0).is_empty());
        assert_eq!(k_best(&run, &probe, 50), brute_k_best(&run, &probe, 5));
        assert_eq!(k_best(&run, &probe, 50).len(), 5);
    }

    #[test]
    fn an_empty_run_has_no_k_best() {
        let probe = Rect::from_bounds(0.0, 1.0, 1.0, 2.0).unwrap();
        for k in [0, 1, 3] {
            assert!(k_best(&[], &probe, k).is_empty(), "k {k}");
        }
    }

    /// `n` rectangles at float corners on `[0, 1000]²`, ids `0..n`.
    fn random_relation(n: usize, seed: u64) -> Vec<LocalRect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let (x, y) = (
                    rng.random_range(0.0..1000.0),
                    rng.random_range(20.0..1000.0),
                );
                let (l, b) = (rng.random_range(0.0..30.0), rng.random_range(0.0..15.0));
                (Rect::from_bounds(x, y, x + l, y + b).unwrap(), i as u32)
            })
            .collect()
    }

    fn random_probe(rng: &mut StdRng) -> Rect {
        let (x, y) = (
            rng.random_range(0.0..1000.0),
            rng.random_range(10.0..1000.0),
        );
        let (l, b) = (rng.random_range(0.0..10.0), rng.random_range(0.0..10.0));
        Rect::from_bounds(x, y, x + l, y + b).unwrap()
    }

    #[test]
    fn k_one_matches_brute_force() {
        let run = random_relation(600, 5);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            let probe = random_probe(&mut rng);
            let got = k_best(&run, &probe, 1);
            let (d, id) = got[0];
            assert_eq!(got, brute_k_best(&run, &probe, 1), "{probe:?}");
            assert_eq!(
                d.to_bits(),
                run[id as usize].0.distance_sq(&probe).to_bits()
            );
        }
    }

    #[test]
    fn k_best_is_sorted_by_distance_then_id() {
        let run = snapped_relation(400, 23, 23);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let probe = random_probe(&mut rng);
            let best = k_best(&run, &probe, 20);
            assert_eq!(best.len(), 20);
            for w in best.windows(2) {
                assert!(
                    w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                    "{w:?}"
                );
            }
        }
    }

    #[test]
    fn k_best_of_any_input_order_agrees_with_a_linear_scan() {
        // The run sorts what it is given: reversed, shuffled or already
        // sorted input answers alike.
        for n in [1usize, 17, 1000] {
            let items = random_relation(n, 70 + n as u64);
            let mut rng = StdRng::seed_from_u64(300 + n as u64);
            let mut shuffled = items.clone();
            for i in (1..n).rev() {
                shuffled.swap(i, rng.random_range(0..=i));
            }
            let mut sorted = items.clone();
            sorted.sort_by(|a, b| a.0.min_x().total_cmp(&b.0.min_x()));
            let reversed: Vec<LocalRect> = items.iter().rev().copied().collect();
            for _ in 0..40 {
                let probe = random_probe(&mut rng);
                let mut scan: Vec<Coord> =
                    items.iter().map(|(r, _)| r.distance_sq(&probe)).collect();
                scan.sort_unstable_by(Coord::total_cmp);
                for k in [1usize, 3, 50] {
                    let want = brute_k_best(&items, &probe, k);
                    for order in [&items, &shuffled, &sorted, &reversed] {
                        let got = k_best(order, &probe, k);
                        let dist: Vec<Coord> = got.iter().map(|b| b.0).collect();
                        assert_eq!(dist, scan[..k.min(n)], "n = {n}, k = {k}");
                        assert_eq!(got, want, "n = {n}, k = {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_probe_inside_a_member_is_at_distance_zero() {
        let run = snapped_relation(100, 13, 6);
        let (probe, id) = run[42];
        let best = k_best(&run, &probe, 1);
        assert_eq!(best[0].0, 0.0);
        assert!(best[0].1 <= id);
    }

    #[test]
    fn a_long_body_starting_far_left_is_found() {
        // The nearest member starts 1 000 left of the probe and touches it;
        // the next member right of the probe is 50 away, and short bodies
        // lie in between. A left scan that stopped on `min_x` alone would
        // take the right neighbour and never open the long body.
        let probe = Rect::from_bounds(1_000.0, 0.0, 1_001.0, 1.0).unwrap();
        let mut run: Vec<LocalRect> = vec![
            (Rect::from_bounds(0.0, 0.0, 1_000.0, 1.0).unwrap(), 5),
            (Rect::from_bounds(1_051.0, 0.0, 1_052.0, 1.0).unwrap(), 0),
        ];
        run.extend((0..20).map(|i| {
            let x = 100.0 + 40.0 * Coord::from(i);
            (Rect::from_bounds(x, 300.0, x + 1.0, 301.0).unwrap(), 10 + i)
        }));
        assert_eq!(k_best(&run, &probe, 1), vec![(0.0, 5)]);
        assert_eq!(k_best(&run, &probe, 2), vec![(0.0, 5), (2_500.0, 0)]);
        for k in [1, 2, 5] {
            assert_eq!(k_best(&run, &probe, k), brute_k_best(&run, &probe, k));
        }
    }

    #[test]
    fn equal_distances_on_both_sides_resolve_to_the_smaller_id() {
        // Both members sit 5 from the probe, one left and one right of it.
        let probe = Rect::from_bounds(100.0, 0.0, 101.0, 1.0).unwrap();
        let left = Rect::from_bounds(90.0, 0.0, 95.0, 1.0).unwrap();
        let right = Rect::from_bounds(106.0, 0.0, 110.0, 1.0).unwrap();
        for (left_id, right_id) in [(9, 4), (3, 8)] {
            let run = [(left, left_id), (right, right_id)];
            let smaller = left_id.min(right_id);
            assert_eq!(k_best(&run, &probe, 1), vec![(25.0, smaller)]);
            assert_eq!(k_best(&run, &probe, 1), brute_k_best(&run, &probe, 1));
            assert_eq!(k_best(&run, &probe, 2), brute_k_best(&run, &probe, 2));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_k_best_equals_brute_force(
            rects in proptest::collection::vec(
                (0.0..400.0f64, 0.0..400.0f64, 0.0..200.0f64, 0.0..40.0f64), 1..80),
            px in 0.0..400.0f64, py in 0.0..400.0f64, k in 1usize..8,
        ) {
            let run: Vec<LocalRect> = rects
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, l, b))| (Rect::from_bounds(x, y, x + l, y + b).unwrap(), i as u32))
                .collect();
            let probe = Rect::from_bounds(px, py, px + 1.0, py + 1.0).unwrap();
            prop_assert_eq!(k_best(&run, &probe, k), brute_k_best(&run, &probe, k));
        }
    }
}
