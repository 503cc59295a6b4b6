//! A generator calibrated to the paper's California road dataset
//! (§7.8.2, "Details of real-life California Road Data").
//!
//! The paper flattens Census 2000 TIGER/Line road shapes into 2,092,079
//! MBBs and reports these statistics, all of which this generator
//! reproduces (see [`CaliforniaStats`] and the tests):
//!
//! * space: x ∈ [0, 63K], y ∈ [0, 100K] (|x|/|y| = 0.63);
//! * average length 18, average breadth 8;
//! * minimum side 1; maximum length 2285, maximum breadth 1344;
//! * 97% of MBBs have both sides < 100; 99% have both sides < 1000.
//!
//! Road MBBs are also spatially *clustered* (dense urban grids, sparse
//! rural areas); the generator places 80% of rectangles around urban
//! cluster centers and the rest uniformly.

use mwsj_geom::{Coord, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the road-like generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaliforniaConfig {
    /// Number of road MBBs (the full dataset has 2,092,079; experiments
    /// scale this down).
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
    /// Linear scale applied to the space extents (1.0 = the paper's
    /// 63K x 100K). Road sizes, cluster radii and per-cluster road counts
    /// are *not* scaled, so [`CaliforniaConfig::scaled_to`] keeps the local
    /// road density — and thus join selectivity — of the full dataset while
    /// generating far fewer roads.
    pub space_scale: f64,
}

impl CaliforniaConfig {
    /// A dataset of `n` road MBBs over the full-size space.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            n,
            seed,
            space_scale: 1.0,
        }
    }

    /// A dataset of `n` road MBBs over a space shrunk by
    /// `sqrt(n / 2,092,079)`, preserving the full dataset's density.
    #[must_use]
    pub fn scaled_to(n: usize, seed: u64) -> Self {
        Self {
            n,
            seed,
            space_scale: ((n as f64) / Self::FULL_COUNT as f64).sqrt().min(1.0),
        }
    }

    /// The full dataset's road count (§7.8.2).
    pub const FULL_COUNT: usize = 2_092_079;

    /// The generated space's x extent.
    #[must_use]
    pub fn x_extent(&self) -> Coord {
        Self::X_RANGE.1 * self.space_scale
    }

    /// The generated space's y extent.
    #[must_use]
    pub fn y_extent(&self) -> Coord {
        Self::Y_RANGE.1 * self.space_scale
    }

    /// The x range of the flattened dataset.
    pub const X_RANGE: (Coord, Coord) = (0.0, 63_000.0);
    /// The y range of the flattened dataset.
    pub const Y_RANGE: (Coord, Coord) = (0.0, 100_000.0);
    /// Maximum MBB length reported by the paper.
    pub const MAX_LENGTH: Coord = 2_285.0;
    /// Maximum MBB breadth reported by the paper.
    pub const MAX_BREADTH: Coord = 1_344.0;
    /// Minimum MBB side reported by the paper.
    pub const MIN_SIDE: Coord = 1.0;

    /// Generates the dataset.
    ///
    /// Road MBBs come from splitting road *polylines* into segments, so
    /// consecutive MBBs of the same road touch end-to-end: each generated
    /// rectangle overlaps a handful of chain neighbours (plus occasional
    /// cross streets), not a stack of unrelated rectangles. Streets run
    /// roughly axis-aligned (the TIGER street-grid pattern) and originate
    /// mostly inside urban clusters.
    #[must_use]
    pub fn generate(&self) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (x_hi, y_hi) = (self.x_extent(), self.y_extent());

        // Urban clusters: most road segments concentrate in a few dozen
        // metropolitan areas.
        let num_clusters = (self.n / 2_000).clamp(8, 64);
        let clusters: Vec<(Coord, Coord, Coord)> = (0..num_clusters)
            .map(|_| {
                (
                    rng.random_range(0.0..x_hi),
                    rng.random_range(0.0..y_hi),
                    // Cluster radius is NOT scaled: intra-cluster density
                    // (roads per cluster / cluster area) stays the paper's.
                    rng.random_range(800.0_f64.min(x_hi / 4.0)..5_000.0_f64.min(x_hi / 2.0)),
                )
            })
            .collect();

        let mut out = Vec::with_capacity(self.n);
        while out.len() < self.n {
            // Start a new street.
            let (mut cx, mut cy) = if rng.random_bool(0.8) {
                let &(x, y, radius) = &clusters[rng.random_range(0..clusters.len())];
                (x + normal(&mut rng) * radius, y + normal(&mut rng) * radius)
            } else {
                (rng.random_range(0.0..x_hi), rng.random_range(0.0..y_hi))
            };
            let horizontal = rng.random_bool(0.8);
            let segments = rng.random_range(2..16usize).min(self.n - out.len());
            for _ in 0..segments {
                let (l, b) = sample_sides(&mut rng);
                // Orient the segment along the street, respecting the
                // per-axis maxima the paper reports.
                let (l, b) = if horizontal {
                    (l.max(b), l.min(b).min(Self::MAX_BREADTH))
                } else {
                    (l.min(b), l.max(b).min(Self::MAX_BREADTH))
                };
                // Heavily scaled-down spaces may be smaller than the longest
                // freeway segments; clip so the MBB fits.
                let (l, b) = (l.min(x_hi), b.min(y_hi));
                let x = cx.clamp(0.0, (x_hi - l).max(0.0));
                // On a scaled (non-round) space `(x_hi - l) + l` can round an
                // ulp past `x_hi`; only such a rectangle is shortened, so
                // every dataset that fitted its space is bit-identical.
                let l = if x + l > x_hi { x_hi - x } else { l };
                let y = cy.clamp(b.min(y_hi), y_hi);
                out.push(Rect::new(x, y, l, b));
                // Walk to the next segment: end-to-end with small jitter.
                if horizontal {
                    cx = x + l;
                    cy = y + rng.random_range(-2.0..2.0);
                } else {
                    cy = y - b;
                    cx = x + rng.random_range(-2.0..2.0);
                }
            }
        }
        out
    }
}

/// Samples `(length, breadth)` from a three-class mixture calibrated to the
/// paper's marginals. Road segments are elongated, so the major dimension is
/// assigned to length with probability 0.7 (matching avg length 18 > avg
/// breadth 8), except that the class tails respect the distinct per-axis
/// maxima.
fn sample_sides(rng: &mut StdRng) -> (Coord, Coord) {
    let class = rng.random_range(0.0..1.0);
    let (major, minor) = if class < 0.965 {
        // Local streets: both sides small (< 100).
        let major = lognormal(rng, 13.0_f64.ln(), 0.85).clamp(1.0, 99.9);
        let minor = lognormal(rng, 5.0_f64.ln(), 0.80).clamp(1.0, 99.9);
        (major, minor)
    } else if class < 0.995 {
        // Arterials / highways segments: major side in [100, 1000).
        let major = loguniform(rng, 100.0, 999.9);
        let minor = lognormal(rng, 12.0_f64.ln(), 1.0).clamp(1.0, 999.9);
        (major, minor)
    } else {
        // Long freeway segments: major side in [1000, max].
        let major = loguniform(rng, 1_000.0, CaliforniaConfig::MAX_LENGTH);
        let minor = loguniform(rng, 4.0, CaliforniaConfig::MAX_BREADTH);
        (major, minor)
    };
    // Orientation: length is the major dimension ~70% of the time.
    if rng.random_bool(0.7) {
        (major, minor.min(CaliforniaConfig::MAX_BREADTH))
    } else {
        (
            minor.min(CaliforniaConfig::MAX_LENGTH),
            major.min(CaliforniaConfig::MAX_BREADTH),
        )
    }
}

fn normal(rng: &mut StdRng) -> Coord {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn lognormal(rng: &mut StdRng, mu: f64, sigma: f64) -> Coord {
    (mu + sigma * normal(rng)).exp()
}

fn loguniform(rng: &mut StdRng, lo: Coord, hi: Coord) -> Coord {
    (rng.random_range(lo.ln()..hi.ln())).exp()
}

/// Summary statistics of a rectangle dataset, mirroring the figures the
/// paper reports for the California road data.
#[derive(Debug, Clone, Serialize)]
pub struct CaliforniaStats {
    /// Mean length.
    pub mean_length: Coord,
    /// Mean breadth.
    pub mean_breadth: Coord,
    /// Minimum of all sides.
    pub min_side: Coord,
    /// Maximum length.
    pub max_length: Coord,
    /// Maximum breadth.
    pub max_breadth: Coord,
    /// Fraction with both sides < 100.
    pub frac_both_under_100: f64,
    /// Fraction with both sides < 1000.
    pub frac_both_under_1000: f64,
}

impl CaliforniaStats {
    /// Computes the statistics of a dataset.
    #[must_use]
    pub fn of(data: &[Rect]) -> Self {
        assert!(!data.is_empty());
        let n = data.len() as f64;
        let mean_length = data.iter().map(Rect::l).sum::<Coord>() / n;
        let mean_breadth = data.iter().map(Rect::b).sum::<Coord>() / n;
        let min_side = data
            .iter()
            .map(|r| r.l().min(r.b()))
            .fold(Coord::INFINITY, Coord::min);
        let max_length = data.iter().map(Rect::l).fold(0.0, Coord::max);
        let max_breadth = data.iter().map(Rect::b).fold(0.0, Coord::max);
        let both_under =
            |cap: Coord| data.iter().filter(|r| r.l() < cap && r.b() < cap).count() as f64 / n;
        Self {
            mean_length,
            mean_breadth,
            min_side,
            max_length,
            max_breadth,
            frac_both_under_100: both_under(100.0),
            frac_both_under_1000: both_under(1_000.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Vec<Rect> {
        CaliforniaConfig::new(60_000, 2013).generate()
    }

    #[test]
    fn stays_inside_flattened_space() {
        let space = Rect::new(0.0, 100_000.0, 63_000.0, 100_000.0);
        assert!(dataset().iter().all(|r| space.contains_rect(r)));
    }

    /// A scaled space is not a round number, so a street clamped to the
    /// right edge used to land `x + l` an ulp past it (the `tables` bench
    /// at `MWSJ_SCALE=0.05` is this dataset).
    #[test]
    fn scaled_dataset_stays_inside_its_scaled_space() {
        let cfg = CaliforniaConfig::scaled_to(100_000, 2013);
        let space = Rect::new(0.0, cfg.y_extent(), cfg.x_extent(), cfg.y_extent());
        let outside: Vec<Rect> = cfg
            .generate()
            .into_iter()
            .filter(|r| !space.contains_rect(r))
            .collect();
        assert_eq!(outside, Vec::new());
    }

    #[test]
    fn side_extremes_match_paper() {
        let s = CaliforniaStats::of(&dataset());
        // Corner-based Rect storage reconstructs sides to within 1 ulp.
        assert!(s.min_side >= 0.999, "min side {}", s.min_side);
        assert!(s.max_length <= CaliforniaConfig::MAX_LENGTH);
        assert!(s.max_breadth <= CaliforniaConfig::MAX_BREADTH);
        // The tails are actually exercised.
        assert!(s.max_length > 1_000.0, "max length {}", s.max_length);
        assert!(s.max_breadth > 200.0, "max breadth {}", s.max_breadth);
    }

    #[test]
    fn mean_sides_match_paper_scale() {
        // Paper: average length 18, breadth 8. Allow generous tolerance —
        // the experiments depend on the scale, not the exact mean.
        let s = CaliforniaStats::of(&dataset());
        assert!(
            (10.0..=35.0).contains(&s.mean_length),
            "mean length {}",
            s.mean_length
        );
        assert!(
            (4.0..=20.0).contains(&s.mean_breadth),
            "mean breadth {}",
            s.mean_breadth
        );
        assert!(s.mean_length > s.mean_breadth);
    }

    #[test]
    fn size_quantiles_match_paper() {
        // Paper: 97% of rectangles have both sides < 100; 99% < 1000.
        let s = CaliforniaStats::of(&dataset());
        assert!(
            (0.94..=0.99).contains(&s.frac_both_under_100),
            "under 100: {}",
            s.frac_both_under_100
        );
        assert!(
            s.frac_both_under_1000 >= 0.985,
            "under 1000: {}",
            s.frac_both_under_1000
        );
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = CaliforniaConfig::new(1_000, 1).generate();
        let b = CaliforniaConfig::new(1_000, 1).generate();
        let c = CaliforniaConfig::new(1_000, 2).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn positions_are_clustered() {
        // Divide the space into a 10x10 grid of equal boxes; clustered data
        // concentrates mass far above the uniform 1% per box.
        let data = dataset();
        let mut boxes = vec![0usize; 100];
        for r in &data {
            let cx = ((r.x() / 6_300.0) as usize).min(9);
            let cy = ((r.y() / 10_000.0) as usize).min(9);
            boxes[cy * 10 + cx] += 1;
        }
        let max_box = *boxes.iter().max().unwrap() as f64 / data.len() as f64;
        assert!(max_box > 0.03, "max box fraction {max_box}");
    }
}
