//! Allocation counting for the timed inject calls.
//!
//! The counter is per thread and only counts while armed, so set-up work,
//! input generation and any other thread never land in the measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// System allocator that counts allocations (not frees: dropping consumed
/// packets is fine; acquiring memory per packet is what the metric shows)
/// made by the current thread while armed.
pub struct CountingAlloc;

fn note() {
    // `try_with`: thread-local storage may already be torn down while a
    // thread exits; such allocations are never inside a measured window.
    let armed = ARMED.try_with(Cell::get).unwrap_or(false);
    if armed {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter update, which
// never allocates (const-initialised `Cell`s).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged; the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` and `layout` come from this allocator, which hands
        // out `System` blocks, so `System.realloc` receives what it issued.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Count the current thread's allocations during `f`.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = COUNT.with(Cell::get);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, COUNT.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_armed_allocations_on_this_thread() {
        let (v, n) = counted(|| vec![1u8; 32]);
        assert_eq!(n, 1);
        drop(v);
        let (_, n) = counted(|| {
            std::thread::scope(|s| {
                s.spawn(|| vec![0u8; 64]).join().expect("thread ran");
            })
        });
        // The spawn itself allocates on this thread; the other thread's
        // vector is not counted, so the count is what spawning costs here.
        let (_, spawn_only) = counted(|| {
            std::thread::scope(|s| {
                s.spawn(|| ()).join().expect("thread ran");
            })
        });
        assert_eq!(n, spawn_only);
        let (_, none) = counted(|| 1 + 1);
        assert_eq!(none, 0);
    }
}
