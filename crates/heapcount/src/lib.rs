//! A counting global allocator for the footprint tests: what one call asks
//! of the heap.
//!
//! A test binary installs [`Counting`] with one line and wraps the work it
//! pins in [`measure`]:
//!
//! ```
//! #[global_allocator]
//! static HEAP: mwsj_heapcount::Counting = mwsj_heapcount::Counting;
//!
//! fn main() {
//!     let (_buffer, heap) = mwsj_heapcount::measure(|| vec![0u32; 256]);
//!     assert_eq!((heap.requests, heap.peak), (1, 1024));
//! }
//! ```
//!
//! The counters are thread-locals of the thread that makes each request,
//! and [`measure`] reads the calling thread's: no other thread's request
//! is counted — the harness's other test threads included — so tests
//! measure side by side without a lock. Work the call hands to other
//! threads is not counted either; an engine under measurement runs at one
//! slot, where every task runs on the submitting thread, and then a run's
//! figures repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the work under [`measure`] asked of the heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Heap {
    /// Allocations plus reallocations.
    pub requests: usize,
    /// The largest single request, in bytes.
    pub largest: usize,
    /// The most bytes live at once beyond those live when the work
    /// started.
    pub peak: usize,
    /// The bytes live when the work returned beyond those live when it
    /// started: negative when it freed more older memory than it kept.
    pub live: isize,
}

impl Heap {
    const ZERO: Heap = Heap {
        requests: 0,
        largest: 0,
        peak: 0,
        live: 0,
    };
}

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, so the allocator may, on any thread at any time.
    static COUNTS: Cell<Heap> = const { Cell::new(Heap::ZERO) };
}

fn count(update: impl FnOnce(&mut Heap)) {
    let _ = COUNTS.try_with(|counts| {
        let mut heap = counts.get();
        update(&mut heap);
        counts.set(heap);
    });
}

fn granted(size: usize) {
    count(|heap| {
        heap.requests += 1;
        heap.largest = heap.largest.max(size);
        heap.live += size as isize;
        heap.peak = heap.peak.max(heap.live.max(0) as usize);
    });
}

fn released(size: usize) {
    count(|heap| heap.live -= size as isize);
}

/// Runs `work` and returns what it returned with what it asked of the
/// heap on this thread. Windows do not nest: a `measure` inside `work`
/// restarts the counts.
pub fn measure<T>(work: impl FnOnce() -> T) -> (T, Heap) {
    COUNTS.set(Heap::ZERO);
    let out = work();
    (out, COUNTS.get())
}

/// `System`, counting each request on the thread that makes it.
pub struct Counting;

// SAFETY: every method passes its arguments to `System` unchanged and
// returns what `System` returned; the counters only observe, and updating
// them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            granted(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        released(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            released(layout.size());
            granted(new_size);
        }
        new
    }
}
