//! A global allocator that can count: the heap the fleet holds between
//! events over one stretch of the benchmark process. That is a property
//! of the program's data (plan caches, probe memos, fleet state), unlike
//! resident memory, which also depends on how the system allocator
//! spreads short-lived worker threads over its arenas, and unlike the
//! heap's overall peak, which is set by whichever searches' scratch
//! happen to overlap.
//!
//! Counting is off unless [`count`] is running, so timed runs see the
//! system allocator behind one relaxed load of a flag that never changes
//! while they run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// The counters are statistics that publish no other data, so every
/// access is `Relaxed`. `LIVE` is net bytes allocated since counting
/// began; it goes negative when older memory is freed.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static HELD: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting bytes in use while [`count`] runs.
pub struct Counting;

fn grew(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics that never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Heap growth while [`count`] ran, in bytes.
pub struct Growth {
    /// The highest growth at any moment.
    pub peak: usize,
    /// The highest growth at a call to [`between_events`].
    pub held: usize,
}

/// Runs `f` with counting on and returns its result with the heap growth
/// while it ran. Memory `f` frees that was allocated before it started
/// lowers the count, so the figures are net growth.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Growth) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    HELD.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let bytes = |a: &AtomicIsize| a.load(Ordering::Relaxed).max(0) as usize;
    let growth = Growth {
        peak: bytes(&PEAK),
        held: bytes(&HELD),
    };
    (out, growth)
}

/// Runs `f` with counting off, for work whose memory is all freed again
/// by the time it returns.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let was = COUNTING.swap(false, Ordering::Relaxed);
    let out = f();
    COUNTING.store(was, Ordering::Relaxed);
    out
}

/// Marks a moment between two events, when no decision's scratch is
/// live, so the heap in use is what the fleet holds.
pub fn between_events() {
    if COUNTING.load(Ordering::Relaxed) {
        HELD.fetch_max(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}
