//! At width 1 a parallel iterator runs as one loop on the calling
//! thread: terminals that return a value, not a container, allocate
//! nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rayon::prelude::*;

/// Counts the calling thread's allocations, so the test harness's own
/// threads do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

#[test]
fn width_one_terminals_allocate_nothing() {
    let v: Vec<u64> = (0..10_000u64).collect();
    rayon::set_threads_for_test(Some(1));
    let (sum, n_sum) = allocations(|| v.par_iter().map(|&x| x * 2).sum::<u64>());
    let (count, n_count) = allocations(|| v.par_iter().filter(|&&x| x % 3 == 0).count());
    let (_, n_for_each) = allocations(|| {
        v.par_iter().for_each(|x| {
            std::hint::black_box(x);
        })
    });
    let (max, n_max) = allocations(|| v.par_iter().copied().max());
    rayon::set_threads_for_test(None);
    assert_eq!(sum, 9_999 * 10_000);
    assert_eq!(count, 3_334);
    assert_eq!(max, Some(9_999));
    assert_eq!(
        (n_sum, n_count, n_for_each, n_max),
        (0, 0, 0, 0),
        "allocations by map().sum(), filter().count(), for_each, copied().max()"
    );
}
