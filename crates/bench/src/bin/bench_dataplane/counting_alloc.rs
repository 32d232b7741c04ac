//! Counting global allocator for `bench_dataplane`, so its zero-alloc
//! gates are measured in-process rather than asserted.
//!
//! It lives in the bin, not the library crate, because the library forbids
//! `unsafe`, which a `GlobalAlloc` impl needs. Only allocations — not
//! frees — are counted: dropping consumed packets is fine, *acquiring*
//! memory on the warm path is not. The count is per thread and armed only
//! inside [`count`], so work on other threads never lands in a measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// This thread's allocation count while armed by [`count`]; `None`
    /// (disarmed) everywhere else. A `const` initialiser with no
    /// destructor, so touching it from the allocator never allocates.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    // `try_with`: allocations during thread teardown are simply not counted.
    let _ = ALLOCS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

/// Run `f` with this thread's allocation counter armed; returns `f`'s
/// result and the number of allocations it made on this thread.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|c| c.set(Some(0)));
    let r = f();
    let n = ALLOCS.with(|c| c.take()).expect("counter armed above");
    (r, n)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
