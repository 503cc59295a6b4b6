//! A panic outside every attempt. Each reduce task merges its partition
//! before its attempts run, so a key whose `Ord` panics there escapes
//! attempt isolation. The engine must still return every slot it took
//! and hand the panic to the submitter, whichever worker hit it — and
//! the engine must stay usable. The binary holds this one test: were a
//! slot leaked, the scheduler's leak check could abort the process while
//! the panic unwinds.

use std::any::Any;
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mwsj_mapreduce::{Engine, EngineConfig, JobSpec, RecordSize};

const RECORDS: u32 = 128;
const PARTITIONS: u32 = 64;
const RUNS: usize = 40;
const MESSAGE: &str = "two 7s met in a merge";

/// A key whose comparison panics when two 7s meet. Record `r` has key
/// `r % 64`, so each key comes from two records 64 apart — in two map
/// tasks, which never compare them — and they first meet when the reduce
/// task merges partition 7.
#[derive(PartialEq, Eq)]
struct Key(u32);

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == 7 && other.0 == 7 {
            panic!("{MESSAGE}");
        }
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl RecordSize for Key {
    fn size_bytes(&self) -> usize {
        4
    }
}

/// A panic payload's message, whether it was formatted or not.
fn message(payload: &(dyn Any + Send)) -> Option<&str> {
    let literal = payload.downcast_ref::<&str>().copied();
    literal.or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

#[test]
fn a_panic_outside_an_attempt_returns_every_slot_and_reaches_the_submitter() {
    // Two workers a phase on two slots: the merge that panics runs on the
    // submitter in some runs and on its helper in others.
    let engine = Engine::new(EngineConfig::default().with_slots(2));
    let input: Vec<u32> = (0..RECORDS).collect();
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if message(info.payload()) != Some(MESSAGE) {
            default_hook(info);
        }
    }));

    for run in 0..RUNS {
        let result = catch_unwind(AssertUnwindSafe(|| {
            engine.run(
                JobSpec::new("panicking-merge")
                    .reducers(PARTITIONS as usize)
                    .map(|&r: &u32, emit| emit(Key(r % PARTITIONS), r))
                    .partition(|k: &Key, n| k.0 as usize % n)
                    .reduce(|k: &Key, vs: &[u32], out| out((k.0, vs.iter().sum::<u32>()))),
                &input,
            )
        }));
        match result {
            Ok(out) => panic!(
                "run {run}: the panic was lost, the job returned {:?}",
                out.map(|(groups, _)| groups.len())
            ),
            Err(payload) => assert_eq!(
                message(&*payload),
                Some(MESSAGE),
                "run {run}: another panic reached the submitter"
            ),
        }
        let scheduler = engine.scheduler();
        assert_eq!(
            scheduler.available(),
            scheduler.slots(),
            "run {run}: a slot was not returned"
        );
    }

    // The engine is still whole: a clean job gets every group, exactly.
    let (out, _) = engine
        .run(
            JobSpec::new("clean")
                .reducers(PARTITIONS as usize)
                .map(|&r: &u32, emit| emit(r % PARTITIONS, r))
                .partition(|&k: &u32, n| k as usize % n)
                .reduce(|&k: &u32, vs: &[u32], out| out((k, vs.iter().sum::<u32>()))),
            &input,
        )
        .expect("clean job");
    let want: Vec<(u32, u32)> = (0..PARTITIONS).map(|k| (k, 2 * k + PARTITIONS)).collect();
    assert_eq!(out, want);
}
