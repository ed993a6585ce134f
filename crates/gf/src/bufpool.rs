//! Process-wide free list of reusable block-sized byte buffers.
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
}
