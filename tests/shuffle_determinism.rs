//! Determinism suite for the sorted-run shuffle.
//!
//! The engine's k-way merge of mapper-sorted spill runs must be
//! *observationally identical* to the simplest possible shuffle: emit every
//! pair single-threaded in input order, stable-sort each partition by key,
//! group adjacent equal keys. Whatever the chunking, the thread count, the
//! reducer count, or the fault plan, every reducer must see the same keys in
//! the same order with byte-identical value streams, and the logical
//! counters (`kv` pairs, shuffle bytes, groups) must not move.

use std::sync::atomic::{AtomicBool, Ordering};

use mwsj_mapreduce::{Engine, EngineConfig, FaultPlan, JobMetrics, JobSpec};
use proptest::prelude::*;

/// Deterministic pseudo-random records (SplitMix64).
fn synth(n: usize, seed: u64) -> Vec<u64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// The job's mapper: two emits per record so key groups carry several
/// values and partitions fill unevenly.
fn map_pairs(x: &u64, emit: &mut dyn FnMut(u64, u64)) {
    emit(x % 97, *x);
    emit((x >> 7) % 61, x.wrapping_mul(3));
}

fn route(k: &u64, n: usize) -> usize {
    usize::try_from(*k).expect("small key") % n
}

/// The reference shuffle the engine must match: single-threaded, emits in
/// input order, one *stable* sort per partition (so equal keys keep emit
/// order), adjacent grouping. No runs, no tags, no merge — nothing shared
/// with the engine implementation.
fn reference_shuffle(input: &[u64], reducers: usize) -> Vec<(u64, Vec<u64>)> {
    let mut parts: Vec<Vec<(u64, u64)>> = (0..reducers).map(|_| Vec::new()).collect();
    for record in input {
        map_pairs(record, &mut |k, v| parts[route(&k, reducers)].push((k, v)));
    }
    let mut out = Vec::new();
    for mut part in parts {
        part.sort_by_key(|a| a.0); // stable: equal keys keep emit order
        let mut groups: Vec<(u64, Vec<u64>)> = Vec::new();
        for (k, v) in part {
            match groups.last_mut() {
                Some((g, vs)) if *g == k => vs.push(v),
                _ => groups.push((k, vec![v])),
            }
        }
        out.extend(groups);
    }
    out
}

/// Runs the job on a real engine and returns the reducers' view of the
/// shuffle — `(key, value-stream)` in partition order, key order within —
/// plus the job's metrics.
fn engine_shuffle(
    slots: usize,
    reducers: usize,
    plan: Option<FaultPlan>,
    input: &[u64],
) -> (Vec<(u64, Vec<u64>)>, JobMetrics) {
    let e = Engine::new(EngineConfig {
        fault_plan: plan,
        slots,
        ..EngineConfig::default()
    });
    e.run(
        JobSpec::new("shuffle-determinism")
            .reducers(reducers)
            .map(|x: &u64, emit| map_pairs(x, emit))
            .partition(route)
            .reduce(|&k: &u64, vs: &[u64], out| out((k, vs.to_vec()))),
        input,
    )
    .expect("fault-free or within attempt budget")
}

/// Logical (data-dependent) counters that must be byte-identical across
/// every configuration and fault plan.
fn logical(m: &JobMetrics) -> (u64, u64, u64, u64, u64, u64) {
    (
        m.map_input_records,
        m.map_output_records,
        m.shuffle_bytes,
        m.reduce_input_records,
        m.reduce_input_groups,
        m.reduce_output_records,
    )
}

/// The merged shuffle equals the single-threaded reference for every
/// combination of seed, input length, reducer count and slot count — runs
/// merged in task order put equal keys in global input order whatever the
/// chunking, so even the *value streams* are chunking-invariant. Lengths
/// around the map-task count cover fewer records than tasks, one per task
/// and one chunk longer than the rest; the chunking depends on the length
/// alone, so every counter, spill runs included, is the same at every
/// slot count.
#[test]
fn matches_single_threaded_reference_across_configs() {
    for seed in [1u64, 42, 1234] {
        for len in [0usize, 1, 7, 8, 9, 2_000] {
            let input = synth(len, seed);
            for reducers in [1usize, 3, 8] {
                let expect = reference_shuffle(&input, reducers);
                let mut counters = None;
                for slots in [1usize, 2, 4, 8] {
                    let (got, m) = engine_shuffle(slots, reducers, None, &input);
                    assert_eq!(
                        got, expect,
                        "seed {seed}, {len} records, {reducers} reducers, {slots} slots \
                         deviates from the reference"
                    );
                    let l = (logical(&m), m.spill_runs);
                    assert_eq!(*counters.get_or_insert(l), l, "counters drift with slots");
                }
            }
        }
    }
}

/// Retried and speculative attempts must commit byte-identical output:
/// under a chaos fault plan the reducers' view of the shuffle — and every
/// logical counter, including the deterministic spill-run count — equals
/// the fault-free run's.
#[test]
fn chaos_runs_commit_identical_shuffles() {
    let input = synth(3_000, 7);
    let (clean, clean_m) = engine_shuffle(4, 8, None, &input);
    assert_eq!(clean, reference_shuffle(&input, 8));

    for fault_seed in [3u64, 77, 2024] {
        let mut plan = FaultPlan::chaos(fault_seed, 0.25, 0.1).with_max_attempts(8);
        plan.straggler_delay = std::time::Duration::from_millis(1);
        let (faulty, faulty_m) = engine_shuffle(4, 8, Some(plan), &input);
        assert_eq!(
            faulty, clean,
            "value streams drift under fault seed {fault_seed}"
        );
        assert_eq!(logical(&faulty_m), logical(&clean_m));
        assert_eq!(
            faulty_m.spill_runs, clean_m.spill_runs,
            "a retried map task must commit exactly one set of runs"
        );
        assert!(
            faulty_m.retries > 0 || faulty_m.speculative_launched > 0,
            "fault seed {fault_seed} injected nothing"
        );
    }
}

/// Commit order is not merge order: with two map workers, map task 0 is
/// held at its first record until the last record has been mapped. The
/// other worker claims tasks 1, 2, … in turn and commits each before its
/// next claim, so task 0's runs reach every partition after those of tasks
/// 1 to k − 2 — and every group's value stream must still equal the
/// reference, which only the shuffle's task-order step guarantees.
#[test]
fn first_task_committing_late_still_merges_in_task_order() {
    let input = synth(2_000, 5);
    let (first, last) = (input[0], input[input.len() - 1]);
    for reducers in [3usize, 8] {
        let last_mapped = AtomicBool::new(false);
        let e = Engine::new(EngineConfig::default().with_slots(2));
        let (got, _) = e
            .run(
                JobSpec::new("late-first-task")
                    .reducers(reducers)
                    .map(|x: &u64, emit| {
                        while *x == first && !last_mapped.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        map_pairs(x, emit);
                        if *x == last {
                            last_mapped.store(true, Ordering::SeqCst);
                        }
                    })
                    .partition(route)
                    .reduce(|&k: &u64, vs: &[u64], out| out((k, vs.to_vec()))),
                &input,
            )
            .expect("fault-free");
        assert_eq!(
            got,
            reference_shuffle(&input, reducers),
            "{reducers} reducers"
        );
    }
}

/// The ≤ 1-run fast path (no heap) and the k-way path agree: a job small
/// enough for a single map chunk produces exactly one spill run per
/// non-empty partition and still matches the reference.
#[test]
fn single_run_fast_path_matches_reference() {
    let input = synth(1, 9); // one record → one chunk
    let (got, m) = engine_shuffle(1, 1, None, &input);
    assert_eq!(got, reference_shuffle(&input, 1));
    assert_eq!(m.spill_runs, 1, "one map task, one non-empty partition");

    // Larger single-reducer job: every map task contributes one run to the
    // only partition, so the merge is a genuine k-way.
    let input = synth(500, 9);
    let (got, m) = engine_shuffle(2, 1, None, &input);
    assert_eq!(got, reference_shuffle(&input, 1));
    assert!(m.spill_runs > 1, "multiple chunks must spill multiple runs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: the group slices handed to reducers partition the merged
    /// partition exactly — strictly increasing keys within each partition,
    /// every merged record in exactly one group — and the whole thing
    /// equals the single-threaded reference.
    #[test]
    fn prop_group_slices_partition_merged_input(
        n in 0usize..300,
        seed in 0u64..1_000,
        reducers in 1usize..9,
        slots in 1usize..5,
    ) {
        let input = synth(n, seed);
        let (got, m) = engine_shuffle(slots, reducers, None, &input);
        prop_assert_eq!(&got, &reference_shuffle(&input, reducers));

        // Strictly increasing keys within each partition: no split or
        // duplicated group anywhere.
        for p in 0..reducers {
            let keys: Vec<u64> = got
                .iter()
                .map(|(k, _)| *k)
                .filter(|k| route(k, reducers) == p)
                .collect();
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        }

        // The slices cover every merged record exactly once.
        let covered: u64 = got.iter().map(|(_, vs)| vs.len() as u64).sum();
        prop_assert_eq!(covered, m.reduce_input_records);
        prop_assert_eq!(m.reduce_input_records, 2 * n as u64);
        prop_assert_eq!(got.len() as u64, m.reduce_input_groups);
    }
}
