//! The workspace's one counting global allocator (dev-only: nothing but
//! tests and benches depends on this crate).
//!
//! Allocation proofs — "`encode_into` allocates nothing", "a repair's
//! working set is chunk-sized", "a warm cell takes every block from the
//! pool", "the compact index costs ≤ 48 B/block" — all need the same
//! instrument: a [`GlobalAlloc`] that forwards to [`System`] and keeps books
//! while a measurement window is open. A binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: drc_testalloc::CountingAlloc = drc_testalloc::CountingAlloc;
//! ```
//!
//! and brackets the measured code with [`open_window`] / [`close_window`]
//! (or reads [`tally`] while the window is open). The window says *whose*
//! traffic counts ([`Threads`]) and *how large* an allocation must be to be
//! on the books (`min_size`); the [`Tally`] reports the allocation count,
//! the count of exactly `min_size` bytes, and net live / peak bytes.
//!
//! The books are process-wide statics, so a binary measures one window at a
//! time: give each proof its own integration-test binary, or serialise the
//! tests of a binary behind a lock.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Whose allocations a measurement window counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Only the thread that opened the window. The libtest harness's main
    /// thread (blocked in a channel `recv` while a test body runs, its waker
    /// registration allocating at a nondeterministic moment) and any other
    /// thread stay off the books.
    Current,
    /// Every thread of the process, so the experiment harness's scoped cell
    /// threads are counted too. Nothing else may allocate concurrently.
    All,
}

/// What a measurement window saw, relative to its opening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Allocations (`alloc` and `realloc` calls) of at least the window's
    /// `min_size` bytes.
    pub allocs: usize,
    /// Those of exactly `min_size` bytes. With the threshold at a block
    /// size this is the number of fresh block buffers, and
    /// `allocs - exact` the number of larger (file-sized) ones.
    pub exact: usize,
    /// Net bytes allocated in allocations of at least `min_size` (signed:
    /// frees of pre-window memory may drive it below zero).
    pub live: isize,
    /// High-water mark of `live`.
    pub peak: isize,
}

/// `WINDOW` value while no window is open.
const CLOSED: usize = 0;
/// `WINDOW` value of a [`Threads::All`] window.
const ALL_THREADS: usize = usize::MAX;

/// [`CLOSED`], [`ALL_THREADS`], or the marker address of the one measured
/// thread.
static WINDOW: AtomicUsize = AtomicUsize::new(CLOSED);
static MIN_SIZE: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static EXACT: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// A per-thread address that identifies the thread inside `alloc`
    /// without allocating (const-initialised TLS never lazily allocates).
    static THREAD_MARKER: u8 = const { 0 };
}

/// The calling thread's marker address, or `None` during thread teardown,
/// when TLS is gone.
fn thread_marker() -> Option<usize> {
    THREAD_MARKER.try_with(|m| m as *const u8 as usize).ok()
}

/// Opens a measurement window with zeroed books, replacing any open one.
pub fn open_window(threads: Threads, min_size: usize) {
    WINDOW.store(CLOSED, Ordering::SeqCst);
    MIN_SIZE.store(min_size, Ordering::SeqCst);
    ALLOCS.store(0, Ordering::SeqCst);
    EXACT.store(0, Ordering::SeqCst);
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    let window = match threads {
        Threads::All => ALL_THREADS,
        // A thread that is opening a window is not being torn down; were
        // it, the window would simply stay closed.
        Threads::Current => thread_marker().unwrap_or(CLOSED),
    };
    WINDOW.store(window, Ordering::SeqCst);
}

/// The books of the open window so far (or of the last one, once closed).
pub fn tally() -> Tally {
    Tally {
        allocs: ALLOCS.load(Ordering::SeqCst),
        exact: EXACT.load(Ordering::SeqCst),
        live: LIVE.load(Ordering::SeqCst),
        peak: PEAK.load(Ordering::SeqCst),
    }
}

/// Closes the window and returns its books.
pub fn close_window() -> Tally {
    WINDOW.store(CLOSED, Ordering::SeqCst);
    tally()
}

/// Whether the calling thread's traffic is on the books right now.
fn counted() -> bool {
    match WINDOW.load(Ordering::SeqCst) {
        CLOSED => false,
        ALL_THREADS => true,
        measured => thread_marker() == Some(measured),
    }
}

/// Books one allocator call — `freed` bytes leaving, `allocated` bytes
/// arriving — each side only if it reaches the threshold.
fn book(freed: Option<usize>, allocated: Option<usize>) {
    if !counted() {
        return;
    }
    let min = MIN_SIZE.load(Ordering::Relaxed);
    let mut delta = 0isize;
    if let Some(size) = freed.filter(|&size| size >= min) {
        delta -= size as isize;
    }
    if let Some(size) = allocated.filter(|&size| size >= min) {
        delta += size as isize;
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if size == min {
            EXACT.fetch_add(1, Ordering::Relaxed);
        }
    }
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// The counting allocator; see the crate docs.
pub struct CountingAlloc;

// SAFETY: `unsafe` is required by the `GlobalAlloc` contract; every call
// forwards to `System` with the caller's layout and pointer unchanged, so
// the contract is upheld verbatim, and the books are plain atomics plus a
// const-initialised thread-local that never allocates or touches allocator
// state.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the `GlobalAlloc` contract; forwarded to
    // `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(None, Some(layout.size()));
        // SAFETY: same arguments the caller handed us.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds the `GlobalAlloc` contract; forwarded to
    // `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(Some(layout.size()), None);
        // SAFETY: same arguments the caller handed us.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds the `GlobalAlloc` contract; forwarded to
    // `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(Some(layout.size()), Some(new_size));
        // SAFETY: same arguments the caller handed us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
