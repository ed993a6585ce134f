//! Buffer policy for block- and file-sized byte buffers: a process-wide
//! free list of reusable block buffers, and the constructor for caller-owned
//! bulk buffers.
//!
//! The experiment layer runs many independent simulation cells back to back
//! (and, with the cell harness, in parallel); each cell writes, repairs and
//! drops files made of megabyte-scale blocks. Without reuse every cell
//! mallocs and frees gigabytes of 1 MiB buffers — page-fault churn that
//! dwarfs the arithmetic. This pool keeps the allocations alive between
//! cells: [`take`] hands out a zeroed buffer (recycled when one of matching
//! capacity is shelved, freshly allocated otherwise) and [`recycle`] shelves
//! an allocation for the next taker.
//!
//! # Determinism
//!
//! A recycled buffer is indistinguishable from a fresh one: [`take`] always
//! returns `len` zeroed bytes and [`take_copy`] the caller's bytes then
//! zeros, so stale contents can never leak between
//! cells and simulation output is byte-identical whether a buffer was
//! pooled or not. Which allocation backs a buffer is the only thing that
//! varies (and races, under a parallel harness) — never the bytes.
//!
//! # Bounds
//!
//! Only buffers of at least [`MIN_POOLED_CAPACITY`] are pooled (small
//! vectors are cheap to allocate and would only churn the shelf), and the
//! shelf retains at most [`MAX_POOLED_BYTES`] in total — recycling beyond
//! the cap simply frees the buffer.
//!
//! # Caller-owned bulk buffers
//!
//! A buffer that leaves the product for good — `read_file`'s file-sized
//! output, a placement index's host arena and its postings slab, an
//! experiment's test payload —
//! cannot come from the shelf: the caller owns it and frees it, so every
//! one is fresh memory whose first touch the kernel must fault in.
//! [`bulk_with_capacity`] is the constructor for those, for any element
//! type: on Linux it asks for transparent huge pages over the aligned
//! interior of the buffer's bytes, so filling it front to back takes one
//! fault per 2 MiB instead of one per 4 KiB. It is
//! this crate's second audited `unsafe` exception (one `madvise` call; see
//! the function's docs), and the advice changes nothing but how the kernel
//! backs the pages — never a byte, a length or a capacity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Buffers with less capacity than this are never pooled.
pub const MIN_POOLED_CAPACITY: usize = 64 * 1024;

/// Total capacity the shelf may retain; recycling past it frees instead.
pub const MAX_POOLED_BYTES: usize = 512 * 1024 * 1024;

struct Shelf {
    bufs: Vec<Vec<u8>>,
    bytes: usize,
}

static SHELF: Mutex<Shelf> = Mutex::new(Shelf {
    bufs: Vec::new(),
    bytes: 0,
});
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn shelf() -> std::sync::MutexGuard<'static, Shelf> {
    SHELF.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pops the smallest shelved allocation that holds `len` bytes, counting
/// the hit or (for a pool-eligible `len`) the miss.
fn take_shelved(len: usize) -> Option<Vec<u8>> {
    if len < MIN_POOLED_CAPACITY {
        return None;
    }
    let reused = {
        let mut shelf = shelf();
        // Prefer the smallest shelved buffer that fits, so a small request
        // does not pin an oversized allocation.
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in shelf.bufs.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
                if cap == len {
                    break;
                }
            }
        }
        best.map(|(i, _)| {
            let b = shelf.bufs.swap_remove(i);
            shelf.bytes -= b.capacity();
            b
        })
    };
    let counter = if reused.is_some() { &HITS } else { &MISSES };
    counter.fetch_add(1, Ordering::Relaxed);
    reused
}

/// Returns a buffer of exactly `len` zeroed bytes, reusing a shelved
/// allocation when one of sufficient capacity is available.
pub fn take(len: usize) -> Vec<u8> {
    match take_shelved(len) {
        Some(mut b) => {
            b.clear();
            b.resize(len, 0);
            b
        }
        None => vec![0u8; len],
    }
}

/// Returns a buffer of exactly `len` bytes holding `src` followed by zero
/// padding, reusing a shelved allocation like [`take`]. Every byte is
/// written exactly once — where `take` + `copy_from_slice` zeroes the whole
/// buffer first and then overwrites it — and every byte is defined by
/// `src` and `len` alone, so the result never depends on what a recycled
/// allocation held.
///
/// # Panics
///
/// Panics if `src` is longer than `len`.
pub fn take_copy(src: &[u8], len: usize) -> Vec<u8> {
    assert!(
        src.len() <= len,
        "take_copy source exceeds the buffer length"
    );
    let mut b = take_shelved(len).unwrap_or_else(|| Vec::with_capacity(len));
    b.clear();
    b.extend_from_slice(src);
    b.resize(len, 0);
    b
}

/// Shelves an allocation for a later [`take`]. Buffers below
/// [`MIN_POOLED_CAPACITY`], or arriving once the shelf holds
/// [`MAX_POOLED_BYTES`], are simply dropped.
pub fn recycle(buf: Vec<u8>) {
    let cap = buf.capacity();
    if cap < MIN_POOLED_CAPACITY {
        return;
    }
    let mut shelf = shelf();
    if shelf.bytes + cap > MAX_POOLED_BYTES {
        return;
    }
    shelf.bytes += cap;
    shelf.bufs.push(buf);
}

/// Size and alignment of a transparent huge page on the targets the advice
/// is compiled for (x86-64, and aarch64 with 4 KiB base pages). On an
/// aarch64 kernel with larger base pages the huge page is larger too; a
/// 2 MiB-aligned range is still page-aligned there, so the advice stays
/// valid and merely covers less than a whole huge page at each end.
const HUGE_PAGE: usize = 2 * 1024 * 1024;

/// The largest [`HUGE_PAGE`]-aligned range inside the allocation
/// `[start, start + capacity)`, as `(offset from start, length)`; `None`
/// when the allocation holds no whole huge page.
fn aligned_interior(start: usize, capacity: usize) -> Option<(usize, usize)> {
    let end = start.checked_add(capacity)?;
    let lo = start.checked_next_multiple_of(HUGE_PAGE)?;
    let hi = end - end % HUGE_PAGE;
    (lo < hi).then(|| (lo - start, hi - lo))
}

/// An empty buffer of capacity at least `len` elements for a caller that is
/// about to fill it front to back and keep it (a whole file's bytes, a
/// placement arena's host ids, its postings' arena offsets).
///
/// Exactly `Vec::with_capacity(len)`, plus — on Linux, when the capacity's
/// bytes (`capacity × size_of::<T>()`) hold at least one whole aligned
/// 2 MiB page — a request that the kernel back that aligned interior with
/// transparent huge pages. First-touching the fresh memory then costs one
/// page fault per 2 MiB instead of one per 4 KiB, which is most of what
/// filling a file-sized buffer costs. The request is honoured when the host
/// runs transparent huge pages in `madvise` or `always` mode and has a free
/// huge page; otherwise (mode `never`, a fragmented host, another platform,
/// Miri) the buffer is an ordinary one. Smaller buffers never make the
/// system call.
pub fn bulk_with_capacity<T>(len: usize) -> Vec<T> {
    let mut buf = Vec::<T>::with_capacity(len);
    if let Some((offset, length)) = advised_interior(&buf) {
        advise_huge_pages(buf.as_mut_ptr().cast::<u8>().wrapping_add(offset), length);
    }
    buf
}

/// The [`aligned_interior`] of `buf`'s allocation, measured in bytes: a
/// `Vec<u32>` of 1 Mi elements spans 4 MiB, not 1.
fn advised_interior<T>(buf: &Vec<T>) -> Option<(usize, usize)> {
    aligned_interior(buf.as_ptr() as usize, buf.capacity() * size_of::<T>())
}

/// Asks the kernel to back `[addr, addr + length)` with transparent huge
/// pages; a no-op off Linux and under Miri.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
))]
#[allow(unsafe_code)]
fn advise_huge_pages(addr: *mut u8, length: usize) {
    use std::ffi::{c_int, c_void};

    extern "C" {
        /// `madvise(2)` of the libc `std` already links.
        fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }
    /// `asm-generic/mman-common.h`; the value on both gated architectures.
    const MADV_HUGEPAGE: c_int = 14;

    // SAFETY: the one caller passes the aligned interior of a `Vec` it
    // exclusively owns, so no other mapping is named — and the call would
    // be harmless on any range: `MADV_HUGEPAGE` only sets a flag on the
    // mapping that steers how the kernel backs its pages from now on. It
    // reads, writes, unmaps and moves nothing, so it cannot invalidate an
    // allocation, its (here uninitialised) contents or a pointer into it.
    // The result is ignored because the advice is advisory: on failure
    // (`EINVAL` on a kernel built without transparent huge pages, `ENOMEM`)
    // the buffer is simply an ordinary one.
    let _ = unsafe { madvise(addr.cast(), length, MADV_HUGEPAGE) };
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
)))]
fn advise_huge_pages(_addr: *mut u8, _length: usize) {}

/// Total capacity currently shelved.
pub fn pooled_bytes() -> usize {
    shelf().bytes
}

/// Number of [`take`] calls served from the shelf so far.
pub fn hits() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// Number of pool-eligible [`take`] calls that had to allocate fresh.
pub fn misses() -> u64 {
    MISSES.load(Ordering::Relaxed)
}

/// Frees every shelved buffer, returning how many bytes were released.
/// Intended for tests that want a cold pool.
pub fn drain() -> usize {
    let mut shelf = shelf();
    let freed = shelf.bytes;
    shelf.bufs.clear();
    shelf.bytes = 0;
    freed
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The pool is process-global and libtest runs tests on parallel
    // threads; serialize the tests so one test's take cannot steal the
    // buffer another just shelved.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn take_returns_zeroed_exact_length() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let len = MIN_POOLED_CAPACITY + 13;
        let mut a = take(len);
        assert_eq!(a.len(), len);
        assert!(a.iter().all(|&b| b == 0));
        a.iter_mut().for_each(|b| *b = 0xA5);
        recycle(a);
        let b = take(len);
        assert_eq!(b.len(), len);
        assert!(b.iter().all(|&x| x == 0), "recycled buffer must be zeroed");
    }

    #[test]
    fn take_copy_is_the_source_then_zero_padding() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let len = MIN_POOLED_CAPACITY + 29;
        let src: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
        // Full, short and empty sources, each into a dirty recycled buffer
        // and (after a drain) into a fresh one.
        for n in [len, len / 3, 1, 0] {
            let mut want = src[..n].to_vec();
            want.resize(len, 0);
            recycle(vec![0xA5u8; len]);
            let (hits_before, misses_before) = (hits(), misses());
            let warm = take_copy(&src[..n], len);
            assert_eq!(warm, want, "recycled buffer, {n} source bytes");
            assert_eq!(hits(), hits_before + 1, "served from the shelf");
            drain();
            let cold = take_copy(&src[..n], len);
            assert_eq!(cold, want, "fresh buffer, {n} source bytes");
            assert_eq!(misses(), misses_before + 1, "a cold take_copy is a miss");
        }
        // Tiny buffers bypass the pool and its counters, as with `take`.
        let (hits_before, misses_before) = (hits(), misses());
        assert_eq!(take_copy(&[9, 8], 5), vec![9, 8, 0, 0, 0]);
        assert_eq!((hits(), misses()), (hits_before, misses_before));
    }

    #[test]
    #[should_panic(expected = "exceeds the buffer length")]
    fn take_copy_rejects_an_oversized_source() {
        take_copy(&[1, 2, 3], 2);
    }

    #[test]
    fn small_buffers_are_not_pooled() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = pooled_bytes();
        recycle(vec![1u8; 16]);
        assert_eq!(pooled_bytes(), before);
        let misses_before = misses();
        let v = take(16);
        assert_eq!(v.len(), 16);
        assert_eq!(misses(), misses_before, "tiny takes are not pool-eligible");
    }

    #[test]
    fn recycle_then_take_is_a_hit() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let len = MIN_POOLED_CAPACITY * 2 + 7;
        recycle(vec![0u8; len]);
        let hits_before = hits();
        let v = take(len);
        assert_eq!(v.len(), len);
        assert!(
            hits() > hits_before,
            "a matching shelved buffer must be reused"
        );
    }

    /// An offset within a huge page, biased to its edges.
    fn page_offset() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(0usize),
            Just(1usize),
            Just(HUGE_PAGE - 1),
            0usize..HUGE_PAGE,
        ]
    }

    proptest! {
        /// The advised range is the allocation's maximal huge-page-aligned
        /// interior: aligned at both ends, inside `[start, start + capacity)`,
        /// less than one huge page short of it on either side — and absent
        /// exactly when no whole aligned huge page fits.
        #[test]
        fn aligned_interior_is_the_maximal_aligned_subrange(
            start_page in 0usize..(1 << 20),
            start_off in page_offset(),
            cap_pages in 0usize..20,
            cap_off in page_offset(),
        ) {
            let start = start_page * HUGE_PAGE + start_off;
            let capacity = cap_pages * HUGE_PAGE + cap_off;
            let end = start + capacity;
            match aligned_interior(start, capacity) {
                Some((offset, length)) => {
                    let (lo, hi) = (start + offset, start + offset + length);
                    prop_assert!(length > 0);
                    prop_assert_eq!(lo % HUGE_PAGE, 0);
                    prop_assert_eq!(hi % HUGE_PAGE, 0);
                    prop_assert!(hi <= end, "inside the allocation");
                    prop_assert!(offset < HUGE_PAGE && end - hi < HUGE_PAGE, "maximal");
                }
                None => {
                    let first_page_end = start.next_multiple_of(HUGE_PAGE) + HUGE_PAGE;
                    prop_assert!(first_page_end > end, "a whole aligned page was missed");
                }
            }
            if capacity < HUGE_PAGE {
                prop_assert_eq!(aligned_interior(start, capacity), None);
            }
            if capacity >= 2 * HUGE_PAGE - 1 {
                prop_assert!(aligned_interior(start, capacity).is_some());
            }
        }
    }

    #[test]
    fn aligned_interior_of_degenerate_allocations_is_empty() {
        // The dangling pointer of a zero-capacity `Vec`.
        let empty = Vec::<u8>::new();
        assert_eq!(
            aligned_interior(empty.as_ptr() as usize, empty.capacity()),
            None
        );
        // Ranges whose end, or whose rounded-up start, does not fit a usize.
        assert_eq!(aligned_interior(usize::MAX - 5, 10), None);
        assert_eq!(aligned_interior(usize::MAX - 5, 5), None);
        // Exactly one aligned page, and one byte short of it.
        assert_eq!(
            aligned_interior(3 * HUGE_PAGE, HUGE_PAGE),
            Some((0, HUGE_PAGE))
        );
        assert_eq!(aligned_interior(3 * HUGE_PAGE + 1, HUGE_PAGE - 1), None);
    }

    /// On either side of the selection the constructor is an empty `Vec` of
    /// at least the requested capacity that fills like any other — for
    /// bytes and for the placement arena's `u32` host ids alike.
    #[test]
    fn bulk_with_capacity_is_an_ordinary_empty_vec() {
        fn fills_like_any_vec<T: Copy + PartialEq + std::fmt::Debug>(len: usize, fill: T) {
            let mut buf = bulk_with_capacity::<T>(len);
            assert!(buf.is_empty());
            assert!(buf.capacity() >= len);
            let before = buf.as_ptr();
            buf.resize(len, fill);
            assert_eq!(buf.as_ptr(), before, "filling to `len` never reallocates");
            assert!(buf.iter().all(|&x| x == fill));
        }
        // Under Miri every byte written is interpreted; one huge page's
        // worth is enough to cross the selection there.
        let largest = if cfg!(miri) { 2 } else { 8 } * HUGE_PAGE + 5;
        for len in [0, 1, HUGE_PAGE - 1, 2 * HUGE_PAGE - 1, largest] {
            fills_like_any_vec(len, 0xA5u8);
            // The same byte spans in `u32`s: the selection is by bytes.
            fills_like_any_vec(len / size_of::<u32>(), 0xA5A5_5A5Au32);
        }
    }

    /// The exact-capacity contract the pinned `metadata_scale` table rests
    /// on: an index's `heap_bytes` reads `capacity()`, so a bulk arena must
    /// not round it up.
    #[test]
    fn bulk_with_capacity_is_exact() {
        for len in [0, 1, 4095, HUGE_PAGE, 3 * HUGE_PAGE + 7] {
            assert_eq!(bulk_with_capacity::<u8>(len).capacity(), len);
            assert_eq!(bulk_with_capacity::<u32>(len).capacity(), len);
        }
    }

    /// The advice covers the allocation's bytes, not its element count: a
    /// 1 Mi-element `u32` arena spans 4 MiB and so holds at least one whole
    /// aligned huge page wherever malloc put it.
    #[test]
    fn a_u32_buffer_is_advised_over_its_bytes() {
        let buf = bulk_with_capacity::<u32>(1 << 20);
        let (offset, length) = advised_interior(&buf).expect("4 MiB hold an aligned huge page");
        assert!(length >= HUGE_PAGE, "advised {length} bytes");
        assert!(offset + length <= buf.capacity() * size_of::<u32>());
        // The same element count of bytes (1 MiB) holds none.
        assert_eq!(advised_interior(&bulk_with_capacity::<u8>(1 << 20)), None);
    }

    /// Report only, never asserted: whether the advice took on this host. A
    /// host in THP mode `never`, or one too fragmented to have a free huge
    /// page, shows 0 kB and is still correct.
    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn bulk_buffer_huge_page_report() {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let anon_huge = || {
            read("/proc/self/smaps_rollup")
                .lines()
                .find(|l| l.starts_with("AnonHugePages:"))
                .map_or("AnonHugePages: unavailable".to_string(), str::to_string)
        };
        let thp = |setting: &str| {
            read(&format!("/sys/kernel/mm/transparent_hugepage/{setting}"))
                .trim()
                .to_string()
        };
        let before = anon_huge();
        let mut buf = bulk_with_capacity::<u8>(8 * HUGE_PAGE);
        buf.resize(8 * HUGE_PAGE, 1);
        let after_bytes = anon_huge();
        let cells = 8 * HUGE_PAGE / size_of::<u32>();
        let mut arena = bulk_with_capacity::<u32>(cells);
        arena.extend((0..cells as u32).map(|cell| cell % 1000));
        println!(
            "transparent_hugepage/enabled: {}\ntransparent_hugepage/defrag:  {}\n\
             before a 16 MiB bulk buffer:     {before}\n\
             after filling it:                {after_bytes}\n\
             after a filled 16 MiB u32 arena: {}",
            thp("enabled"),
            thp("defrag"),
            anon_huge()
        );
        assert_eq!(std::hint::black_box(&buf)[buf.len() - 1], 1);
        assert_eq!(
            std::hint::black_box(&arena)[cells - 1],
            (cells as u32 - 1) % 1000
        );
    }
}
