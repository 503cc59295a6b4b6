//! The counter counts what the measured call asks of the heap on its own
//! thread, and nothing else. This binary installs it, as every footprint
//! test binary does, and its tests run side by side without a lock.

use std::hint::black_box;
use std::sync::Barrier;

use mwsj_heapcount::{measure, Counting, Heap};

#[global_allocator]
static HEAP: Counting = Counting;

#[test]
fn one_allocation_is_one_request_of_its_size() {
    let (buffer, heap) = measure(|| Vec::<u8>::with_capacity(1000));
    assert_eq!(buffer.capacity(), 1000);
    assert_eq!(
        heap,
        Heap {
            requests: 1,
            largest: 1000,
            peak: 1000,
            live: 1000,
        }
    );
}

/// A thread started before the window and released into it by a barrier
/// allocates 1 MiB while the window is open: none of it is counted. (A
/// process-wide counter read 7.7 KB of the harness's other test thread
/// inside a measured store open, about one run in ten.)
#[test]
fn another_threads_requests_are_not_counted() {
    let (open, allocated) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            open.wait();
            black_box(vec![1u8; 1 << 20]);
            allocated.wait();
        });
        let ((), heap) = measure(|| {
            open.wait();
            allocated.wait();
        });
        assert_eq!(heap, Heap::default());
    });
}

#[test]
fn freeing_older_memory_lowers_live_below_zero_and_leaves_the_peak() {
    let older = black_box(Vec::<u8>::with_capacity(1000));
    let ((), heap) = measure(|| drop(older));
    assert_eq!(
        heap,
        Heap {
            requests: 0,
            largest: 0,
            peak: 0,
            live: -1000,
        }
    );
}
