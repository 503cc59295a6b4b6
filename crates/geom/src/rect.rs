use serde::{Deserialize, Serialize};

use crate::{Coord, Point};

/// A rectangle (MBR) in the paper's `(x, y, l, b)` representation.
///
/// `(x, y)` is the **top-left vertex** — the rectangle's *start point* — and
/// the body extends `l` units to the right and `b` units down (the y axis
/// points up, so the vertical extent is `[y - b, y]`).
///
/// Internally the rectangle stores its corner coordinates, so that derived
/// operations (`union`, `intersection`, `enlarge`) are exact per-corner
/// floating-point operations: `a.union(&b).contains_rect(&a)` holds bit-for-
/// bit, which the partitioning and duplicate-avoidance logic rely on.
///
/// All predicates are **closed**: rectangles sharing only a boundary point
/// are considered overlapping, and `within_distance(d)` is satisfied at
/// exactly distance `d`. This matches the filter-step semantics of the paper
/// (a filter may over-approximate but must never drop a candidate pair).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    min_x: Coord,
    min_y: Coord,
    max_x: Coord,
    max_y: Coord,
}

impl Rect {
    /// Creates a rectangle from its start point (top-left vertex), length and
    /// breadth — the paper's `(x, y, l, b)` form.
    ///
    /// # Panics
    /// Panics if `l` or `b` is negative or any input is not finite.
    #[must_use]
    pub fn new(x: Coord, y: Coord, l: Coord, b: Coord) -> Self {
        assert!(
            l >= 0.0
                && b >= 0.0
                && l.is_finite()
                && b.is_finite()
                && x.is_finite()
                && y.is_finite(),
            "invalid rectangle ({x}, {y}, {l}, {b})"
        );
        Self {
            min_x: x,
            min_y: y - b,
            max_x: x + l,
            max_y: y,
        }
    }

    /// Creates a rectangle from two opposite corners (in any order).
    #[must_use]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Self {
            min_x: a.x.min(b.x),
            max_x: a.x.max(b.x),
            min_y: a.y.min(b.y),
            max_y: a.y.max(b.y),
        }
    }

    /// Creates a rectangle directly from its corner extents, without any
    /// reordering or arithmetic — the accessors return exactly the values
    /// passed in, bit for bit (unlike [`Rect::from_corners`], whose
    /// `min`/`max` normalization can swap `-0.0`/`0.0`). This is the
    /// round-trip constructor for serialized rectangles.
    ///
    /// Returns `None` when a coordinate is non-finite or an extent is
    /// inverted (`min > max`).
    #[must_use]
    pub fn from_bounds(min_x: Coord, min_y: Coord, max_x: Coord, max_y: Coord) -> Option<Self> {
        let finite =
            min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite();
        (finite && min_x <= max_x && min_y <= max_y).then_some(Self {
            min_x,
            min_y,
            max_x,
            max_y,
        })
    }

    fn from_extents(min_x: Coord, min_y: Coord, max_x: Coord, max_y: Coord) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y);
        Self {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// x coordinate of the start point (top-left vertex).
    #[must_use]
    pub fn x(&self) -> Coord {
        self.min_x
    }

    /// y coordinate of the start point (top-left vertex).
    #[must_use]
    pub fn y(&self) -> Coord {
        self.max_y
    }

    /// Length: extent along the x axis.
    #[must_use]
    pub fn l(&self) -> Coord {
        self.max_x - self.min_x
    }

    /// Breadth: extent along the y axis.
    #[must_use]
    pub fn b(&self) -> Coord {
        self.max_y - self.min_y
    }

    /// The start point (top-left vertex).
    #[must_use]
    pub fn start_point(&self) -> Point {
        Point::new(self.min_x, self.max_y)
    }

    /// Smallest x coordinate covered by the rectangle.
    #[must_use]
    pub fn min_x(&self) -> Coord {
        self.min_x
    }

    /// Largest x coordinate covered by the rectangle.
    #[must_use]
    pub fn max_x(&self) -> Coord {
        self.max_x
    }

    /// Smallest y coordinate covered by the rectangle.
    #[must_use]
    pub fn min_y(&self) -> Coord {
        self.min_y
    }

    /// Largest y coordinate covered by the rectangle.
    #[must_use]
    pub fn max_y(&self) -> Coord {
        self.max_y
    }

    /// Area of the rectangle.
    #[must_use]
    pub fn area(&self) -> Coord {
        self.l() * self.b()
    }

    /// Length of the rectangle's diagonal. The paper's *C-Rep-L* bounds
    /// (§7.9) charge each rectangle a path crosses its diagonal; bounding
    /// one axis at a time charges its side there ([`Rect::l`], [`Rect::b`]).
    #[must_use]
    pub fn diagonal(&self) -> Coord {
        let l = self.l();
        let b = self.b();
        (l * l + b * b).sqrt()
    }

    /// The center of the rectangle.
    #[must_use]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Closed containment test for a point.
    #[must_use]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Closed containment test for another rectangle.
    #[must_use]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// The paper's `Overlap(r1, r2)` predicate (§1.2): true iff the closed
    /// rectangles share at least one point.
    #[must_use]
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.bounds_within(other.bounds(), 0.0)
    }

    /// The rectangular intersection of two rectangles, or `None` if they do
    /// not overlap. A shared edge or corner yields a degenerate (zero-area)
    /// rectangle — its start point drives duplicate avoidance (§5.2).
    #[must_use]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.overlaps(other) {
            return None;
        }
        Some(Rect::from_extents(
            self.min_x.max(other.min_x),
            self.min_y.max(other.min_y),
            self.max_x.min(other.max_x),
            self.max_y.min(other.max_y),
        ))
    }

    /// Minimum Euclidean distance between the closed rectangles (0 when they
    /// overlap).
    #[must_use]
    pub fn distance(&self, other: &Rect) -> Coord {
        self.distance_sq(other).sqrt()
    }

    /// Squared minimum distance between the closed rectangles.
    #[must_use]
    pub fn distance_sq(&self, other: &Rect) -> Coord {
        let dx = axis_gap(self.min_x, self.max_x, other.min_x, other.max_x);
        let dy = axis_gap(self.min_y, self.max_y, other.min_y, other.max_y);
        dx * dx + dy * dy
    }

    /// The paper's `Range(r1, r2, d)` predicate (§1.2): true iff some point of
    /// `self` is within distance `d` of some point of `other`.
    #[must_use]
    pub fn within_distance(&self, other: &Rect, d: Coord) -> bool {
        self.bounds_within(other.bounds(), d * d)
    }

    /// The closed within-distance test on raw bounds: whether the rectangle
    /// `[min_x, min_y, max_x, max_y]` lies within distance `√d_sq` of
    /// `self`. Every index in the workspace stores rectangles as four
    /// coordinates (R-tree words, the reducer kernel's coordinate arrays)
    /// and accepts a candidate through this one function, so an index
    /// probe and the predicate it stands for cannot disagree.
    ///
    /// `d_sq == 0` is the overlap test and is decided by comparisons alone:
    /// the square of a subnormal gap underflows to zero, which would accept
    /// two rectangles that do not touch. The four comparisons are combined
    /// without short-circuit: the reducer's sweep compacts its candidates
    /// with no branch on the outcome, and a tree walk branches once per
    /// node or entry instead of up to four times.
    #[inline]
    #[must_use]
    pub fn bounds_within(&self, bounds: [Coord; 4], d_sq: Coord) -> bool {
        bounds_within(self.bounds(), bounds, d_sq)
    }

    /// The corner coordinates as `[min_x, min_y, max_x, max_y]` — the
    /// order every serialized form uses and [`Rect::bounds_within`] takes.
    #[inline]
    #[must_use]
    pub fn bounds(&self) -> [Coord; 4] {
        [self.min_x, self.min_y, self.max_x, self.max_y]
    }

    /// Enlarges the rectangle by `d` units on every side (§5.3): the top-left
    /// vertex moves to `(x - d, y + d)` and the bottom-right vertex to
    /// `(x2 + d, y2 - d)`.
    ///
    /// `r1.within_distance(r2, d)` implies `r1.enlarge(d).overlaps(r2)` (but
    /// not conversely — the enlarged overlap is the *filter*, the distance
    /// check the *refinement*).
    #[must_use]
    pub fn enlarge(&self, d: Coord) -> Rect {
        assert!(d >= 0.0, "enlargement distance must be non-negative");
        Rect::from_extents(
            self.min_x - d,
            self.min_y - d,
            self.max_x + d,
            self.max_y + d,
        )
    }

    /// Enlarges the rectangle by factor `k` keeping its center fixed
    /// (§7.8.6): each side is scaled by `k`.
    #[must_use]
    pub fn enlarge_factor(&self, k: Coord) -> Rect {
        assert!(k >= 0.0, "enlargement factor must be non-negative");
        let gx = self.l() * (k - 1.0) / 2.0;
        let gy = self.b() * (k - 1.0) / 2.0;
        Rect::from_extents(
            self.min_x - gx,
            self.min_y - gy,
            self.max_x + gx,
            self.max_y + gy,
        )
    }

    /// The smallest rectangle covering both `self` and `other`.
    #[must_use]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect::from_extents(
            self.min_x.min(other.min_x),
            self.min_y.min(other.min_y),
            self.max_x.max(other.max_x),
            self.max_y.max(other.max_y),
        )
    }
}

/// [`Rect::bounds_within`] with both rectangles as raw bounds — the one
/// body of the test, for a caller that holds a rectangle's corners in
/// columns (the reducer sweep) and would otherwise re-validate them into a
/// [`Rect`] per call. `a` must be the bounds of a rectangle: finite, with
/// `min ≤ max` on both axes.
#[inline]
#[must_use]
pub fn bounds_within(a: [Coord; 4], [min_x, min_y, max_x, max_y]: [Coord; 4], d_sq: Coord) -> bool {
    if d_sq == 0.0 {
        return (min_x <= a[2]) & (a[0] <= max_x) & (min_y <= a[3]) & (a[1] <= max_y);
    }
    let dx = axis_gap(a[0], a[2], min_x, max_x);
    let dy = axis_gap(a[1], a[3], min_y, max_y);
    dx * dx + dy * dy <= d_sq
}

/// Gap between closed intervals `[a_lo, a_hi]` and `[b_lo, b_hi]` (0 if they
/// intersect).
fn axis_gap(a_lo: Coord, a_hi: Coord, b_lo: Coord, b_hi: Coord) -> Coord {
    (b_lo - a_hi).max(a_lo - b_hi).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(x: Coord, y: Coord, l: Coord, b: Coord) -> Rect {
        Rect::new(x, y, l, b)
    }

    #[test]
    fn extents_follow_top_left_convention() {
        let a = r(10.0, 20.0, 4.0, 6.0);
        assert_eq!(a.min_x(), 10.0);
        assert_eq!(a.max_x(), 14.0);
        assert_eq!(a.max_y(), 20.0);
        assert_eq!(a.min_y(), 14.0);
        assert_eq!((a.x(), a.y(), a.l(), a.b()), (10.0, 20.0, 4.0, 6.0));
        assert_eq!(a.start_point(), Point::new(10.0, 20.0));
        assert_eq!(a.area(), 24.0);
    }

    #[test]
    fn from_corners_normalizes_order() {
        let a = Rect::from_corners(Point::new(5.0, 1.0), Point::new(1.0, 5.0));
        assert_eq!(a, r(1.0, 5.0, 4.0, 4.0));
    }

    #[test]
    fn from_bounds_is_bit_exact_and_validated() {
        let a = Rect::from_bounds(-0.0, 1.0, 0.0, 2.0).unwrap();
        assert_eq!(a.min_x().to_bits(), (-0.0f64).to_bits());
        assert_eq!(a.max_x().to_bits(), 0.0f64.to_bits());
        assert!(Rect::from_bounds(1.0, 0.0, 0.0, 1.0).is_none());
        assert!(Rect::from_bounds(f64::NAN, 0.0, 1.0, 1.0).is_none());
        assert!(Rect::from_bounds(0.0, f64::INFINITY, 1.0, f64::INFINITY).is_none());
    }

    #[test]
    fn overlap_is_closed_at_shared_edge() {
        let a = r(0.0, 10.0, 5.0, 5.0);
        let edge = r(5.0, 10.0, 5.0, 5.0); // shares the x = 5 edge
        let corner = r(5.0, 5.0, 5.0, 5.0); // shares only the (5, 5) corner
        let apart = r(5.1, 10.0, 5.0, 5.0);
        assert!(a.overlaps(&edge));
        assert!(a.overlaps(&corner));
        assert!(!a.overlaps(&apart));
    }

    #[test]
    fn intersection_of_touching_rects_is_degenerate() {
        let a = r(0.0, 10.0, 5.0, 5.0);
        let b = r(5.0, 10.0, 5.0, 5.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.l(), 0.0);
        assert_eq!(i.start_point(), Point::new(5.0, 10.0));
    }

    #[test]
    fn intersection_matches_paper_figure2_example() {
        // Figure 2(a): the overlapping area of r3 and r4 starts in cell 14;
        // here we only check the intersection geometry logic.
        let r3 = r(1.0, 4.0, 4.0, 3.0);
        let r4 = r(3.0, 3.0, 4.0, 2.0);
        let o = r3.intersection(&r4).unwrap();
        assert_eq!(o, r(3.0, 3.0, 2.0, 2.0));
    }

    #[test]
    fn distance_zero_when_overlapping() {
        let a = r(0.0, 10.0, 5.0, 5.0);
        let b = r(3.0, 8.0, 5.0, 5.0);
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn distance_axis_aligned_gap() {
        let a = r(0.0, 10.0, 5.0, 5.0);
        let b = r(8.0, 10.0, 5.0, 5.0);
        assert_eq!(a.distance(&b), 3.0);
    }

    #[test]
    fn distance_diagonal_gap() {
        let a = r(0.0, 10.0, 2.0, 2.0); // covers [0,2] x [8,10]
        let b = r(5.0, 4.0, 2.0, 2.0); // covers [5,7] x [2,4]
        assert_eq!(a.distance(&b), 5.0); // gap (3, 4)
    }

    #[test]
    fn within_distance_is_closed() {
        let a = r(0.0, 10.0, 5.0, 5.0);
        let b = r(8.0, 10.0, 5.0, 5.0);
        assert!(a.within_distance(&b, 3.0));
        assert!(!a.within_distance(&b, 2.999));
    }

    #[test]
    fn overlap_is_exact_where_a_squared_gap_underflows() {
        // A gap of 1e-200 squares to zero: only comparisons keep the
        // d = 0 test from reporting two disjoint rectangles as touching.
        let a = Rect::from_bounds(-1.0, 0.0, 0.0, 1.0).unwrap();
        let b = Rect::from_bounds(1e-200, 0.0, 1.0, 1.0).unwrap();
        assert_eq!(a.distance_sq(&b), 0.0, "the underflow this test is about");
        assert!(!a.overlaps(&b));
        assert!(!a.within_distance(&b, 0.0));
        assert!(!a.bounds_within(b.bounds(), 0.0));
        assert!(a.within_distance(&b, 1e-100));
    }

    #[test]
    fn enlarge_moves_both_corners() {
        let a = r(10.0, 20.0, 4.0, 6.0);
        let e = a.enlarge(2.0);
        assert_eq!(e, r(8.0, 22.0, 8.0, 10.0));
    }

    #[test]
    fn enlarge_factor_keeps_center() {
        let a = r(10.0, 20.0, 4.0, 6.0);
        let e = a.enlarge_factor(2.0);
        assert_eq!(e.center(), a.center());
        assert_eq!(e.l(), 8.0);
        assert_eq!(e.b(), 12.0);
    }

    #[test]
    fn enlarge_factor_one_is_identity() {
        let a = r(10.0, 20.0, 4.0, 6.0);
        assert_eq!(a.enlarge_factor(1.0), a);
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 10.0, 2.0, 2.0);
        let b = r(5.0, 4.0, 2.0, 2.0);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(0.0, 10.0, 7.0, 8.0));
    }

    #[test]
    fn contains_point_closed() {
        let a = r(0.0, 10.0, 5.0, 5.0);
        assert!(a.contains_point(&Point::new(0.0, 5.0)));
        assert!(a.contains_point(&Point::new(5.0, 10.0)));
        assert!(!a.contains_point(&Point::new(5.0001, 10.0)));
    }

    #[test]
    fn diagonal_is_hypotenuse() {
        assert_eq!(r(0.0, 0.0, 3.0, 4.0).diagonal(), 5.0);
    }

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (
            -1000.0..1000.0f64,
            -1000.0..1000.0f64,
            0.0..500.0f64,
            0.0..500.0f64,
        )
            .prop_map(|(x, y, l, b)| Rect::new(x, y, l, b))
    }

    proptest! {
        #[test]
        fn prop_overlap_symmetric(a in arb_rect(), b in arb_rect()) {
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        }

        #[test]
        fn prop_distance_symmetric(a in arb_rect(), b in arb_rect()) {
            prop_assert_eq!(a.distance_sq(&b), b.distance_sq(&a));
        }

        #[test]
        fn prop_overlap_iff_distance_zero(a in arb_rect(), b in arb_rect()) {
            prop_assert_eq!(a.overlaps(&b), a.distance_sq(&b) == 0.0);
        }

        #[test]
        fn prop_bounds_within_is_the_distance_test(a in arb_rect(), b in arb_rect(), d in 0.0..300.0f64) {
            // On raw bounds or on rectangles, from either side, one answer:
            // the squared distance against d².
            let want = a.distance_sq(&b) <= d * d;
            prop_assert_eq!(a.bounds_within(b.bounds(), d * d), want);
            prop_assert_eq!(b.bounds_within(a.bounds(), d * d), want);
            prop_assert_eq!(a.within_distance(&b, d), want);
        }

        #[test]
        fn prop_range_implies_enlarged_overlap(a in arb_rect(), b in arb_rect(), d in 0.0..200.0f64) {
            // §5.3: if r1 and r2 are within distance d then r2 overlaps
            // r1.enlarge(d). (The converse need not hold.)
            if a.within_distance(&b, d) {
                prop_assert!(a.enlarge(d).overlaps(&b));
            }
        }

        #[test]
        fn prop_enlarged_overlap_bounds_distance(a in arb_rect(), b in arb_rect(), d in 0.0..200.0f64) {
            // The filter over-approximation is bounded: enlarged overlap
            // implies the rectangles are within sqrt(2) * d.
            if a.enlarge(d).overlaps(&b) {
                prop_assert!(a.distance(&b) <= d * 2.0f64.sqrt() + 1e-9);
            }
        }

        #[test]
        fn prop_intersection_commutes(a in arb_rect(), b in arb_rect()) {
            prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        }

        #[test]
        fn prop_intersection_contained_in_both(a in arb_rect(), b in arb_rect()) {
            if let Some(i) = a.intersection(&b) {
                prop_assert!(a.contains_rect(&i));
                prop_assert!(b.contains_rect(&i));
            }
        }

        #[test]
        fn prop_union_contains_both(a in arb_rect(), b in arb_rect()) {
            let u = a.union(&b);
            prop_assert!(u.contains_rect(&a));
            prop_assert!(u.contains_rect(&b));
        }

        #[test]
        fn prop_enlarge_monotone(a in arb_rect(), d1 in 0.0..100.0f64, d2 in 0.0..100.0f64) {
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(a.enlarge(hi).contains_rect(&a.enlarge(lo)));
        }

        #[test]
        fn prop_distance_bounded_by_center_distance(a in arb_rect(), b in arb_rect()) {
            // The rect distance never exceeds the distance between centers.
            prop_assert!(a.distance(&b) <= a.center().distance(&b.center()) + 1e-9);
        }

        #[test]
        fn prop_paper_form_roundtrip(a in arb_rect()) {
            let back = Rect::new(a.x(), a.y(), a.l(), a.b());
            // Corner representation means x/y roundtrip exactly; l/b may
            // differ by float re-association but extents stay within 1 ulp.
            prop_assert_eq!(back.min_x(), a.min_x());
            prop_assert_eq!(back.max_y(), a.max_y());
            prop_assert!((back.max_x() - a.max_x()).abs() <= 1e-9 * (1.0 + a.max_x().abs()));
            prop_assert!((back.min_y() - a.min_y()).abs() <= 1e-9 * (1.0 + a.min_y().abs()));
        }
    }
}
