//! The counting allocator's own books, checked against allocations of known
//! size. One `#[test]` drives every case: the books are process-wide.

use std::hint::black_box;

use drc_testalloc::{close_window, open_window, tally, CountingAlloc, Tally, Threads};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const KIB: usize = 1024;

#[test]
fn windows_threshold_and_thread_scope() {
    // Count, live and peak bytes, with realloc booked as free + allocate.
    open_window(Threads::Current, 0);
    let mut v: Vec<u8> = black_box(Vec::with_capacity(4 * KIB));
    let w: Vec<u8> = black_box(Vec::with_capacity(KIB));
    assert_eq!(tally().allocs, 2);
    assert_eq!(tally().live, 5 * KIB as isize);
    v.reserve_exact(8 * KIB);
    drop(w);
    let seen = close_window();
    assert_eq!(seen.allocs, 3);
    assert_eq!(seen.live, 8 * KIB as isize);
    assert!(seen.peak >= 9 * KIB as isize, "peak {}", seen.peak);
    assert_eq!(tally(), seen, "a closed window keeps its books");

    // A closed window counts nothing.
    let closed: Vec<u8> = black_box(Vec::with_capacity(KIB));
    assert_eq!(tally(), seen);

    // The threshold: smaller traffic is off the books on both sides, and
    // allocations of exactly the threshold are told apart from larger ones.
    open_window(Threads::All, 4 * KIB);
    drop(closed);
    let small: Vec<u8> = black_box(Vec::with_capacity(4 * KIB - 1));
    let exact: Vec<u8> = black_box(Vec::with_capacity(4 * KIB));
    let large: Vec<u8> = black_box(Vec::with_capacity(64 * KIB));
    drop(v);
    assert_eq!(
        close_window(),
        Tally {
            allocs: 2,
            exact: 1,
            live: 60 * KIB as isize,
            peak: 68 * KIB as isize,
        }
    );
    drop((small, exact, large));

    // Scope: another thread's traffic counts under `All` only.
    for (threads, want) in [(Threads::Current, 0), (Threads::All, 1)] {
        open_window(threads, 16 * KIB);
        std::thread::scope(|s| {
            s.spawn(|| drop(black_box(Vec::<u8>::with_capacity(16 * KIB))));
        });
        assert_eq!(close_window().exact, want, "{threads:?}");
    }
}
