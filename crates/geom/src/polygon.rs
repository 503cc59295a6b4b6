use serde::{Deserialize, Serialize};

use crate::{Coord, Point, Rect};

/// A simple polygon (non-self-intersecting, at least 3 vertices), used by the
/// *refinement* step (§1.1): the filter step works on MBRs, and candidate
/// tuples that pass the filter are re-checked against the exact geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from its vertices in order (either winding).
    ///
    /// # Panics
    /// Panics if fewer than 3 vertices are supplied.
    #[must_use]
    pub fn new(vertices: Vec<Point>) -> Self {
        assert!(vertices.len() >= 3, "a polygon needs at least 3 vertices");
        Self { vertices }
    }

    /// The polygon's vertices.
    #[must_use]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Iterates over the polygon's edges as vertex pairs.
    pub fn edges(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| (self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Minimum bounding rectangle of the polygon — the object handed to the
    /// filter step (Figure 1 of the paper shows a pentagon and its MBR).
    #[must_use]
    pub fn mbr(&self) -> Rect {
        let mut min_x = Coord::INFINITY;
        let mut max_x = Coord::NEG_INFINITY;
        let mut min_y = Coord::INFINITY;
        let mut max_y = Coord::NEG_INFINITY;
        for v in &self.vertices {
            min_x = min_x.min(v.x);
            max_x = max_x.max(v.x);
            min_y = min_y.min(v.y);
            max_y = max_y.max(v.y);
        }
        Rect::from_bounds(min_x, min_y, max_x, max_y).expect("a polygon has finite vertices")
    }

    /// Point-in-polygon test (even-odd rule; boundary points count as
    /// inside).
    #[must_use]
    pub fn contains_point(&self, p: &Point) -> bool {
        // Boundary check first: a point on an edge is inside.
        for (a, b) in self.edges() {
            if point_on_segment(p, &a, &b) {
                return true;
            }
        }
        let mut inside = false;
        for (a, b) in self.edges() {
            if (a.y > p.y) != (b.y > p.y) {
                let t = (p.y - a.y) / (b.y - a.y);
                let x = a.x + t * (b.x - a.x);
                if p.x < x {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Exact intersection test between two simple polygons: true when edges
    /// cross or one polygon contains a vertex of the other.
    #[must_use]
    pub fn intersects(&self, other: &Polygon) -> bool {
        for (a1, a2) in self.edges() {
            for (b1, b2) in other.edges() {
                if segments_intersect(&a1, &a2, &b1, &b2) {
                    return true;
                }
            }
        }
        self.contains_point(&other.vertices[0]) || other.contains_point(&self.vertices[0])
    }

    /// Exact minimum distance between two polygons (0 when they intersect).
    #[must_use]
    pub fn distance(&self, other: &Polygon) -> Coord {
        if self.intersects(other) {
            return 0.0;
        }
        let mut best = Coord::INFINITY;
        for (a1, a2) in self.edges() {
            for (b1, b2) in other.edges() {
                best = best.min(segment_distance(&a1, &a2, &b1, &b2));
            }
        }
        best
    }

    /// Exact range predicate: polygons within distance `d`.
    #[must_use]
    pub fn within_distance(&self, other: &Polygon, d: Coord) -> bool {
        self.distance(other) <= d
    }
}

fn cross(o: &Point, a: &Point, b: &Point) -> Coord {
    (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
}

fn point_on_segment(p: &Point, a: &Point, b: &Point) -> bool {
    cross(a, b, p).abs() <= 1e-12
        && p.x >= a.x.min(b.x) - 1e-12
        && p.x <= a.x.max(b.x) + 1e-12
        && p.y >= a.y.min(b.y) - 1e-12
        && p.y <= a.y.max(b.y) + 1e-12
}

fn segments_intersect(a1: &Point, a2: &Point, b1: &Point, b2: &Point) -> bool {
    let d1 = cross(b1, b2, a1);
    let d2 = cross(b1, b2, a2);
    let d3 = cross(a1, a2, b1);
    let d4 = cross(a1, a2, b2);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    point_on_segment(a1, b1, b2)
        || point_on_segment(a2, b1, b2)
        || point_on_segment(b1, a1, a2)
        || point_on_segment(b2, a1, a2)
}

fn point_segment_distance(p: &Point, a: &Point, b: &Point) -> Coord {
    let ab = Point::new(b.x - a.x, b.y - a.y);
    let len_sq = ab.x * ab.x + ab.y * ab.y;
    if len_sq == 0.0 {
        return p.distance(a);
    }
    let t = (((p.x - a.x) * ab.x + (p.y - a.y) * ab.y) / len_sq).clamp(0.0, 1.0);
    p.distance(&Point::new(a.x + t * ab.x, a.y + t * ab.y))
}

fn segment_distance(a1: &Point, a2: &Point, b1: &Point, b2: &Point) -> Coord {
    if segments_intersect(a1, a2, b1, b2) {
        return 0.0;
    }
    point_segment_distance(a1, b1, b2)
        .min(point_segment_distance(a2, b1, b2))
        .min(point_segment_distance(b1, a1, a2))
        .min(point_segment_distance(b2, a1, a2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x: Coord, y: Coord, s: Coord) -> Polygon {
        // Top-left (x, y), side s, counter-clockwise.
        Polygon::new(vec![
            Point::new(x, y),
            Point::new(x, y - s),
            Point::new(x + s, y - s),
            Point::new(x + s, y),
        ])
    }

    #[test]
    fn mbr_of_pentagon() {
        // Figure 1: a pentagon and its MBR.
        let pentagon = Polygon::new(vec![
            Point::new(2.0, 6.0),
            Point::new(0.0, 3.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(4.0, 3.0),
        ]);
        assert_eq!(pentagon.mbr(), Rect::new(0.0, 6.0, 4.0, 6.0));
    }

    #[test]
    fn contains_point_inside_and_outside() {
        let sq = square(0.0, 10.0, 10.0);
        assert!(sq.contains_point(&Point::new(5.0, 5.0)));
        assert!(sq.contains_point(&Point::new(0.0, 10.0))); // vertex
        assert!(sq.contains_point(&Point::new(0.0, 5.0))); // edge
        assert!(!sq.contains_point(&Point::new(-0.1, 5.0)));
        assert!(!sq.contains_point(&Point::new(11.0, 5.0)));
    }

    #[test]
    fn intersects_overlapping_squares() {
        let a = square(0.0, 10.0, 10.0);
        let b = square(5.0, 15.0, 10.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
    }

    #[test]
    fn intersects_containment() {
        let outer = square(0.0, 10.0, 10.0);
        let inner = square(3.0, 7.0, 2.0);
        assert!(outer.intersects(&inner));
        assert!(inner.intersects(&outer));
    }

    #[test]
    fn disjoint_squares_do_not_intersect() {
        let a = square(0.0, 10.0, 2.0);
        let b = square(5.0, 10.0, 2.0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn distance_between_squares() {
        let a = square(0.0, 2.0, 2.0); // covers [0,2] x [0,2]
        let b = square(5.0, 2.0, 2.0); // covers [5,7] x [0,2]
        assert!((a.distance(&b) - 3.0).abs() < 1e-9);
        assert!(a.within_distance(&b, 3.0));
        assert!(!a.within_distance(&b, 2.9));
    }

    #[test]
    fn distance_zero_when_touching() {
        let a = square(0.0, 2.0, 2.0);
        let b = square(2.0, 2.0, 2.0);
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn mbr_filter_never_misses_refinement_pair() {
        // The filter guarantee: exact intersection implies MBR overlap.
        let a = Polygon::new(vec![
            Point::new(0.0, 5.0),
            Point::new(5.0, 0.0),
            Point::new(0.0, 0.0),
        ]);
        let b = Polygon::new(vec![
            Point::new(1.0, 4.0),
            Point::new(6.0, 4.0),
            Point::new(6.0, 1.0),
        ]);
        if a.intersects(&b) {
            assert!(a.mbr().overlaps(&b.mbr()));
        }
        // MBRs may overlap while exact shapes do not (the false positive the
        // refinement step removes).
        let c = Polygon::new(vec![
            Point::new(4.5, 5.0),
            Point::new(5.0, 5.0),
            Point::new(5.0, 4.5),
        ]);
        assert!(a.mbr().overlaps(&c.mbr()));
        assert!(!a.intersects(&c));
    }
}
