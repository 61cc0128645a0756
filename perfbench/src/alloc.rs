//! A counting global allocator, switched on only in traced runs.
//!
//! Untraced runs pay one relaxed load per allocation call; their peak
//! memory comes from the kernel's high-water mark, not from here.
//! Each thread counts into its own cache line with a plain load and
//! store, so counting costs no locked instruction and no contention.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Per-thread counter slots. Slot 0 belongs to the first thread that
/// counts (the main thread); later threads take slots 1..SLOTS in turn.
/// Two threads share a slot only if 63 threads were started between
/// them while both stay alive, which the workloads' short-lived shard
/// workers never do.
const SLOTS: usize = 64;

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTERS: [Slot; SLOTS] = [const {
    Slot {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Forwards to [`System`], counting allocations while enabled.
pub struct CountingAllocator;

fn note(size: usize) {
    // Relaxed: these are statistics and publish no other data.
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let slot = MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            let n = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
            s.set(if n == 0 { 0 } else { 1 + (n - 1) % (SLOTS - 1) });
        }
        s.get()
    });
    let c = &COUNTERS[slot];
    // Only this thread writes its slot, so load + store loses nothing.
    c.allocs
        .store(c.allocs.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    c.bytes.store(
        c.bytes.load(Ordering::Relaxed) + size as u64,
        Ordering::Relaxed,
    );
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and `note` itself never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator and
        // the caller's size obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting allocations (traced runs only).
pub fn enable() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocation calls and bytes requested so far, over every thread.
/// Exact for threads that have been joined, which is every thread a
/// stage starts by the time the stage's span closes.
pub fn totals() -> (u64, u64) {
    COUNTERS.iter().fold((0, 0), |(a, b), c| {
        (
            a + c.allocs.load(Ordering::Relaxed),
            b + c.bytes.load(Ordering::Relaxed),
        )
    })
}
