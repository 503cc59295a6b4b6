//! Cell-range planning and counter gathering for a map-side join.
//!
//! A stored-dataset map-side join splits across N shards: each shard
//! owns a disjoint, contiguous range of grid cells and enumerates
//! exactly the tuples whose *start-relation seed* is homed in its range
//! (its groups are still gathered from every cell, so no shard needs
//! another shard's data to finish its slice). A single-node run is the
//! gather of one full-range partial ([`crate::Cluster::submit_stored`]);
//! the split is the gather an out-of-process scatter would use.
//! Because the map-side join already attributes every tuple to its §6.2
//! designated cell for accounting, the per-cell tallies of the shards
//! are disjoint and sum element-wise — gathering reconstructs the
//! *identical* logical counters a single-node run reports:
//!
//! * `reduce_input_groups` — non-empty designated cells of the summed
//!   tally;
//! * `max_partition_records` — max of the summed tally (a designated
//!   cell's tuples all come from the one shard owning their seeds, so
//!   the sum preserves per-cell maxima);
//! * `tuple_count` / `reduce_output_records` — tally sums;
//! * tuples — the partials' flat id buffers concatenated, sorted once
//!   by row and deduplicated, and built into one `Vec` per tuple only
//!   then: the order and contents [`mwsj_local::multiway::normalized`]
//!   gives every other join output (disjoint seeding makes the dedup a
//!   no-op).
//!
//! Only wall-clock fields (`reduce_wall`, `total_wall`,
//! `index_open_wall`) are physical rather than logical; the gatherer
//! stamps them from its own clock, and the service's counter JSON
//! never includes them — which is what "sharded results are
//! byte-identical to single-node" means and what `tests/crep_rounds.rs`
//! asserts.

use std::ops::Range;
use std::time::Duration;

use mwsj_mapreduce::{JobMetrics, MetricsReport};

use crate::algorithms::Algorithm;
use crate::{JoinOutput, ReplicationStats};

/// Splits `num_cells` grid cells into at most `shards` disjoint,
/// contiguous, near-equal ranges covering `0..num_cells`.
///
/// Degenerate inputs clamp: zero shards plans like one, and more
/// shards than cells yields one range per cell (never an empty range).
#[must_use]
pub fn seed_cell_ranges(num_cells: u32, shards: u32) -> Vec<Range<u32>> {
    if num_cells == 0 {
        #[allow(clippy::single_range_in_vec_init)] // one empty range, not a Vec of 0
        return vec![0..0];
    }
    let shards = shards.clamp(1, num_cells);
    let base = num_cells / shards;
    let extra = num_cells % shards;
    let mut ranges = Vec::with_capacity(shards as usize);
    let mut at = 0;
    for i in 0..shards {
        let len = base + u32::from(i < extra);
        ranges.push(at..at + len);
        at += len;
    }
    ranges
}

/// The combined input fingerprint of a run's stored inputs — the same
/// recipe [`crate::Cluster::submit_stored`] stamps into its metrics, so
/// a gathering front-end can fill [`GatherSpec::input_fingerprint`]
/// without submitting a full run.
#[must_use]
pub fn combined_fingerprint(stores: &[&mwsj_store::StoredDataset]) -> u64 {
    let fingerprints: Vec<u64> = stores.iter().map(|s| s.fingerprint()).collect();
    crate::combine_fingerprints(&fingerprints)
}

/// One shard's slice of a map-side run: the tuples seeded from its
/// cell range and the per-designated-cell tally they produced.
#[derive(Debug, Default)]
pub struct ShardPartial {
    /// Unnormalized output tuples, row-major: row `r` is
    /// `ids[r * arity..(r + 1) * arity]` (empty in count-only mode).
    pub ids: Vec<u32>,
    /// Ids per tuple: the query's relation count.
    pub arity: usize,
    /// Per-designated-cell tuple counts, length `num_cells`.
    pub tally: Vec<u64>,
}

impl ShardPartial {
    /// Folds `partials` into one: tallies summed cell by cell, id buffers
    /// appended in order (the first non-empty buffer is kept, so a lone
    /// partial is never copied).
    pub(crate) fn merge(partials: impl IntoIterator<Item = ShardPartial>) -> ShardPartial {
        let mut merged = ShardPartial::default();
        for p in partials {
            debug_assert!(
                p.ids.is_empty() || merged.ids.is_empty() || p.arity == merged.arity,
                "one run, one arity"
            );
            merged.arity = merged.arity.max(p.arity);
            let tally = &mut merged.tally;
            tally.resize(tally.len().max(p.tally.len()), 0);
            tally.iter_mut().zip(p.tally).for_each(|(t, c)| *t += c);
            if merged.ids.is_empty() {
                merged.ids = p.ids;
            } else {
                merged.ids.extend(p.ids);
            }
        }
        merged
    }
}

/// The run-level context [`gather`] needs to reconstruct the exact
/// single-node [`JobMetrics`].
#[derive(Debug, Clone)]
pub struct GatherSpec {
    /// Total records across every bound store (`map_input_records`).
    pub record_total: u64,
    /// Whether the run was count-only.
    pub count_only: bool,
    /// Summed index-open wall across the bindings.
    pub open_wall: Duration,
    /// Wall time of the scatter/gather join phase.
    pub join_wall: Duration,
    /// The combined input fingerprint of the bound stores.
    pub input_fingerprint: u64,
}

/// Merges shard partials into the [`JoinOutput`] a single-node
/// map-side run over the same stores would produce (logical fields
/// byte-identical; wall-clock fields stamped from `spec`).
#[must_use]
pub fn gather(partials: Vec<ShardPartial>, spec: &GatherSpec) -> JoinOutput {
    let ShardPartial { ids, arity, tally } = ShardPartial::merge(partials);
    let tuple_count: u64 = tally.iter().sum();
    let groups = tally.iter().filter(|&&t| t > 0).count() as u64;
    let metrics = JobMetrics {
        job_name: "map-side".to_string(),
        map_input_records: spec.record_total,
        reduce_input_groups: groups,
        max_partition_records: tally.iter().copied().max().unwrap_or(0),
        reduce_output_records: if spec.count_only { groups } else { tuple_count },
        reduce_wall: spec.join_wall,
        total_wall: spec.open_wall + spec.join_wall,
        index_open_wall: spec.open_wall,
        input_fingerprint: spec.input_fingerprint,
        ..JobMetrics::default()
    };
    JoinOutput {
        algorithm: Algorithm::MapSide,
        tuples: sorted_rows(ids, arity),
        tuple_count,
        stats: ReplicationStats::default(),
        report: MetricsReport {
            jobs: vec![metrics],
            dfs_read_bytes: 0,
            dfs_write_bytes: 0,
            dfs_transient_read_failures: 0,
        },
    }
}

/// The distinct rows of the row-major buffer `ids` in ascending order,
/// one `Vec` of capacity `arity` each: what
/// [`mwsj_local::multiway::normalized`] returns for the same rows, with one
/// allocation per distinct tuple. Rows of arity 2 to 4 are sorted and
/// deduplicated in place; other arities sort `u32` row indices.
fn sorted_rows(mut ids: Vec<u32>, arity: usize) -> Vec<Vec<u32>> {
    if ids.is_empty() {
        return Vec::new();
    }
    debug_assert_eq!(ids.len() % arity, 0, "whole rows only");
    match arity {
        2 => sorted_fixed_rows::<2>(&mut ids),
        3 => sorted_fixed_rows::<3>(&mut ids),
        4 => sorted_fixed_rows::<4>(&mut ids),
        _ => {
            let rows =
                u32::try_from(ids.len() / arity).expect("fewer than 2^32 tuples in one result");
            let row = |r: u32| &ids[r as usize * arity..(r as usize + 1) * arity];
            let mut order: Vec<u32> = (0..rows).collect();
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            order.dedup_by(|a, b| row(*a) == row(*b));
            order.into_iter().map(|r| row(r).to_vec()).collect()
        }
    }
}

/// [`sorted_rows`] for rows of `N` ids: sorts the rows of `ids` as arrays,
/// moves each distinct row to the front, and copies those out.
fn sorted_fixed_rows<const N: usize>(ids: &mut [u32]) -> Vec<Vec<u32>> {
    let rows = ids.as_chunks_mut::<N>().0;
    rows.sort_unstable();
    let mut kept = 1;
    for r in 1..rows.len() {
        if rows[r] != rows[kept - 1] {
            rows[kept] = rows[r];
            kept += 1;
        }
    }
    rows[..kept].iter().map(|row| row.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_cells() {
        for (cells, shards) in [(64, 4), (64, 5), (7, 3), (1, 8), (16, 16), (9, 1), (5, 0)] {
            let ranges = seed_cell_ranges(cells, shards);
            assert!(!ranges.is_empty());
            let mut at = 0;
            for r in &ranges {
                assert_eq!(r.start, at, "{cells} cells / {shards} shards");
                assert!(r.end > r.start, "no empty ranges");
                at = r.end;
            }
            assert_eq!(at, cells);
            let spread: Vec<u32> = ranges.iter().map(|r| r.end - r.start).collect();
            let (min, max) = (
                *spread.iter().min().expect("nonempty"),
                *spread.iter().max().expect("nonempty"),
            );
            assert!(max - min <= 1, "near-equal split: {spread:?}");
        }
    }

    #[test]
    fn zero_cells_degenerate_to_one_empty_range() {
        assert_eq!(seed_cell_ranges(0, 4), vec![0..0]);
    }

    #[test]
    fn gather_sums_tallies_and_normalizes_tuples() {
        let partials = vec![
            ShardPartial {
                ids: vec![2, 0, 1, 1],
                arity: 2,
                tally: vec![1, 1, 0, 0],
            },
            ShardPartial {
                ids: vec![0, 0],
                arity: 2,
                tally: vec![0, 0, 1, 0],
            },
        ];
        let spec = GatherSpec {
            record_total: 6,
            count_only: false,
            open_wall: Duration::from_millis(2),
            join_wall: Duration::from_millis(5),
            input_fingerprint: 0xABCD,
        };
        let out = gather(partials, &spec);
        assert_eq!(out.algorithm, Algorithm::MapSide);
        assert_eq!(out.tuple_count, 3);
        assert_eq!(out.tuples, vec![vec![0, 0], vec![1, 1], vec![2, 0]]);
        let job = &out.report.jobs[0];
        assert_eq!(job.job_name, "map-side");
        assert_eq!(job.map_input_records, 6);
        assert_eq!(job.reduce_input_groups, 3);
        assert_eq!(job.max_partition_records, 1);
        assert_eq!(job.reduce_output_records, 3);
        assert_eq!(job.input_fingerprint, 0xABCD);
    }

    #[test]
    fn gather_of_partials_is_the_single_node_run_field_for_field() {
        use crate::{Algorithm, Cluster, ClusterConfig, StoredRun};
        use mwsj_geom::Rect;
        use mwsj_query::Query;
        use mwsj_store::{StoreBuilder, StoredDataset};

        let cluster = Cluster::new(ClusterConfig::for_space((0.0, 100.0), (0.0, 100.0), 6));
        let grid = cluster.grid().clone();
        let mut state = 0x9E37_79B9_u64;
        let mut rects = |n: usize, lmax: f64| -> Vec<Rect> {
            (0..n)
                .map(|_| {
                    let mut next = || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 11) as f64 / (1u64 << 53) as f64
                    };
                    let x = next() * (100.0 - lmax);
                    let y = next() * (100.0 - lmax) + lmax;
                    Rect::new(x, y, next() * lmax + 0.01, next() * lmax + 0.01)
                })
                .collect()
        };
        let bytes: Vec<Vec<u8>> = [rects(160, 8.0), rects(120, 6.0), rects(90, 7.0)]
            .iter()
            .map(|r| StoreBuilder::new(&grid).build(r).expect("build store"))
            .collect();
        let stores: Vec<StoredDataset> = bytes
            .iter()
            .map(|b| StoredDataset::from_bytes(b).expect("open store"))
            .collect();
        let refs: Vec<&StoredDataset> = stores.iter().collect();
        let query = Query::parse("a ov b and b within 4 of c").expect("query");

        // Everything but the three wall-clock fields gather stamps.
        let logical = |mut out: JoinOutput| {
            for job in &mut out.report.jobs {
                job.reduce_wall = Duration::ZERO;
                job.total_wall = Duration::ZERO;
                job.index_open_wall = Duration::ZERO;
            }
            format!("{out:?}")
        };
        for (count_only, shards) in [(false, 1), (false, 2), (false, 5), (true, 1), (true, 5)] {
            let run = StoredRun::new(&query, &refs)
                .algorithm(Algorithm::MapSide)
                .count_only(count_only);
            let single = cluster.submit_stored(&run).expect("single-node run");
            assert!(single.tuple_count > 0, "test data should join");
            assert_eq!(single.tuples.is_empty(), count_only);

            let partials: Vec<ShardPartial> = seed_cell_ranges(grid.num_cells(), shards)
                .into_iter()
                .map(|range| {
                    cluster
                        .submit_stored_partial(&run, range)
                        .expect("shard run")
                })
                .collect();
            assert_eq!(partials.len(), shards as usize);
            let spec = GatherSpec {
                record_total: refs.iter().map(|s| s.record_count()).sum(),
                count_only,
                open_wall: Duration::ZERO,
                join_wall: Duration::ZERO,
                input_fingerprint: combined_fingerprint(&refs),
            };
            assert_eq!(
                logical(gather(partials, &spec)),
                logical(single),
                "{shards} shards, count_only={count_only}"
            );
        }
    }

    #[test]
    fn count_only_gather_reports_groups_not_tuples() {
        let partials = vec![ShardPartial {
            ids: Vec::new(),
            arity: 2,
            tally: vec![4, 0, 2, 0],
        }];
        let spec = GatherSpec {
            record_total: 10,
            count_only: true,
            open_wall: Duration::ZERO,
            join_wall: Duration::ZERO,
            input_fingerprint: 1,
        };
        let out = gather(partials, &spec);
        assert_eq!(out.tuple_count, 6);
        assert!(out.tuples.is_empty());
        assert_eq!(out.report.jobs[0].reduce_output_records, 2);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Gathering flat partials returns what `normalized` returns
            /// for the same rows as one `Vec` each — duplicates within and
            /// across partials, empty and count-only partials included —
            /// and every row it builds holds exactly `arity` ids.
            #[test]
            fn flat_gather_equals_normalized_rows(
                arity in 1usize..6,
                partials in proptest::collection::vec(
                    (proptest::collection::vec(0u32..3, 0..40), proptest::bool::ANY),
                    0..5,
                ),
            ) {
                let mut rows = Vec::new();
                let partials: Vec<ShardPartial> = partials
                    .into_iter()
                    .map(|(mut ids, count_only)| {
                        if count_only {
                            ids.clear();
                        }
                        ids.truncate(ids.len() / arity * arity);
                        rows.extend(ids.chunks(arity).map(<[u32]>::to_vec));
                        let tally = vec![(ids.len() / arity) as u64];
                        ShardPartial { ids, arity, tally }
                    })
                    .collect();
                let spec = GatherSpec {
                    record_total: 0,
                    count_only: false,
                    open_wall: Duration::ZERO,
                    join_wall: Duration::ZERO,
                    input_fingerprint: 0,
                };
                let out = gather(partials, &spec);
                prop_assert!(out.tuples.iter().all(|t| t.capacity() == arity));
                prop_assert_eq!(out.tuples, mwsj_local::multiway::normalized(rows));
            }
        }
    }
}
