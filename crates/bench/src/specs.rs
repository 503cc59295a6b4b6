//! The evaluation as data: one [`Spec`] per table of the paper (§7.8,
//! §8.1, §9.1), plus the reducer-grid ablation and the optimizer check.

use mwsj_core::Algorithm::{
    self, AllReplicate, Auto, ControlledReplicate, ControlledReplicateLimit, Hypercube,
    TwoWayCascade,
};

/// The parameter a spec sweeps down its rows; the variant's column header
/// is [`Param::header`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    /// Dataset size `nI` per relation, as a multiple of the input's base
    /// size. Relations are regenerated per row (seeds + row index); the
    /// row label is the scaled count.
    Size,
    /// Maximum rectangle sides `l_max = b_max`.
    MaxSide,
    /// The range distance `d`, substituted for `{d}` in the query text.
    Distance,
    /// The enlargement factor `k` applied to every road rectangle.
    Enlarge,
    /// The reducer-grid side (the paper fixes 8).
    Grid,
}

impl Param {
    /// The label column's header.
    #[must_use]
    pub fn header(self) -> &'static str {
        match self {
            Param::Size => "nI",
            Param::MaxSide => "l_max,b_max",
            Param::Distance => "d",
            Param::Enlarge => "k",
            Param::Grid => "grid",
        }
    }
}

/// Where a spec's three relations come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Input {
    /// `Uniform(millions, seeds)`: three independent uniform relations
    /// (`dX,dY,dL,dB = Uniform`, sides in `[0, 100]` unless swept) over the
    /// scaled `[0, 100K]²` space, of `millions` × 1M rectangles each at the
    /// paper's scale (a [`Param::Size`] sweep multiplies that by the row's
    /// value), from the three generator `seeds` of the first row.
    Uniform(f64, [u64; 3]),
    /// `Roads(sample_seed)`: the California road data (2M MBBs at the
    /// paper's scale, generator seed 2013) bound to all three positions of
    /// a self-join; with a seed, Bernoulli-sampled at p = 0.5 (§7.8.6's
    /// 1M-road experiments).
    Roads(Option<u64>),
}

/// One table: what to generate, what to sweep, which algorithms to run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Selects the spec on the command line; names `BENCH_<name>.json` and
    /// the `<!-- measured:<name> -->` block of EXPERIMENTS.md.
    pub name: &'static str,
    /// Printed caption.
    pub caption: &'static str,
    /// The query; `{d}` stands for the swept distance.
    pub query: &'static str,
    /// The input generator.
    pub input: Input,
    /// The swept parameter.
    pub param: Param,
    /// Its values, one row each.
    pub values: &'static [f64],
    /// Scale applied on top of `MWSJ_SCALE`: the range and large-side
    /// tables' outputs grow superlinearly, so they run at a further ×0.05.
    pub extra_scale: f64,
    /// The algorithm columns, in print order.
    pub algorithms: &'static [Algorithm],
    /// `(algorithm, rows)`: the algorithm runs on the first `rows` rows
    /// only, as the paper cuts All-Rep off beyond 2M ("> 03:00"); later
    /// rows print its replication counts computed without running it.
    pub cutoff: Option<(Algorithm, usize)>,
}

const Q2: &str = "R1 ov R2 and R2 ov R3";
const PAPER_THREE: &[Algorithm] = &[TwoWayCascade, ControlledReplicate, ControlledReplicateLimit];
const CREP_PAIR: &[Algorithm] = &[ControlledReplicate, ControlledReplicateLimit];
const ONE_TO_FIVE: &[f64] = &[1.0, 2.0, 3.0, 4.0, 5.0];
const HUNDREDS: &[f64] = &[100.0, 200.0, 300.0, 400.0, 500.0];

/// Every spec, in the order a bare `--bench tables` runs them.
pub const SPECS: &[Spec] = &[
    Spec {
        name: "table2",
        caption: "Q2, varying the dataset size",
        query: Q2,
        input: Input::Uniform(1.0, [1000, 2000, 3000]),
        param: Param::Size,
        values: ONE_TO_FIVE,
        extra_scale: 1.0,
        algorithms: &[
            TwoWayCascade,
            AllReplicate,
            ControlledReplicate,
            ControlledReplicateLimit,
        ],
        cutoff: Some((AllReplicate, 2)),
    },
    Spec {
        name: "table3",
        caption: "Q2, varying rectangle dimensions",
        query: Q2,
        input: Input::Uniform(2.0, [31, 32, 33]),
        param: Param::MaxSide,
        values: HUNDREDS,
        extra_scale: 0.05,
        algorithms: PAPER_THREE,
        cutoff: None,
    },
    Spec {
        name: "table4",
        caption: "Q2s, California road data, varying the enlargement factor",
        query: "Ra ov Rb and Rb ov Rc",
        input: Input::Roads(None),
        param: Param::Enlarge,
        values: &[1.0, 1.25, 1.5, 1.75, 2.0],
        extra_scale: 1.0,
        algorithms: PAPER_THREE,
        cutoff: None,
    },
    Spec {
        name: "table5",
        caption: "Q3, varying the dataset size (d = 100)",
        query: "R1 ra(100) R2 and R2 ra(100) R3",
        input: Input::Uniform(1.0, [52, 152, 252]),
        param: Param::Size,
        values: ONE_TO_FIVE,
        extra_scale: 0.05,
        algorithms: PAPER_THREE,
        cutoff: None,
    },
    Spec {
        name: "table6",
        caption: "Q3, varying the distance parameter d",
        query: "R1 ra({d}) R2 and R2 ra({d}) R3",
        input: Input::Uniform(1.0, [61, 62, 63]),
        param: Param::Distance,
        values: HUNDREDS,
        extra_scale: 0.05,
        algorithms: CREP_PAIR,
        cutoff: None,
    },
    Spec {
        name: "table7",
        caption: "Q3s, California road data (sampled p=0.5), varying d",
        query: "Ra ra({d}) Rb and Rb ra({d}) Rc",
        input: Input::Roads(Some(8)),
        param: Param::Distance,
        values: &[5.0, 10.0, 15.0, 20.0],
        extra_scale: 1.0,
        algorithms: PAPER_THREE,
        cutoff: None,
    },
    Spec {
        name: "table8",
        caption: "Q4 (hybrid, d = 200), varying the dataset size",
        query: "R1 ov R2 and R2 ra(200) R3",
        input: Input::Uniform(1.0, [82, 182, 282]),
        param: Param::Size,
        values: ONE_TO_FIVE,
        extra_scale: 0.05,
        algorithms: CREP_PAIR,
        cutoff: None,
    },
    Spec {
        name: "table9",
        caption: "Q4s (hybrid), California road data (sampled p=0.5), varying d",
        query: "Ra ov Rb and Rb ra({d}) Rc",
        input: Input::Roads(Some(9)),
        param: Param::Distance,
        values: &[10.0, 20.0, 30.0, 40.0],
        extra_scale: 1.0,
        algorithms: CREP_PAIR,
        cutoff: None,
    },
    // Beyond the paper: finer grids mean more crossing rectangles (more
    // marked) but smaller cells to replicate across; coarser grids mark
    // less but each reducer does more local work.
    Spec {
        name: "ablation_grid",
        caption: "Q2 under varying reducer-grid sides (the paper fixes 8x8)",
        query: Q2,
        input: Input::Uniform(2.0, [41, 42, 43]),
        param: Param::Grid,
        values: &[2.0, 4.0, 8.0, 16.0],
        extra_scale: 1.0,
        algorithms: CREP_PAIR,
        cutoff: None,
    },
    // Table 2's workload again, the cost-based planner's choice against
    // every pinned algorithm: a well-calibrated cost model keeps auto's
    // wall near the best pinned one.
    Spec {
        name: "opt",
        caption: "Q2, auto vs every pinned algorithm",
        query: Q2,
        input: Input::Uniform(1.0, [1000, 2000, 3000]),
        param: Param::Size,
        values: ONE_TO_FIVE,
        extra_scale: 1.0,
        algorithms: &[
            Auto,
            TwoWayCascade,
            AllReplicate,
            ControlledReplicate,
            ControlledReplicateLimit,
            Hypercube,
        ],
        cutoff: Some((AllReplicate, 2)),
    },
];
