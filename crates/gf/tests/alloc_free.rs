//! Proves the zero-allocation claim of the `*_into` encode paths with a
//! counting global allocator: once buffers exist and the kernel dispatch is
//! warm, `ReedSolomon::encode_into`, `slice::linear_combination_into` and
//! `slice::matrix_mul_into` perform no heap allocation at all.
//!
//! This lives in its own integration-test binary, and the window only
//! counts allocations made by the *measured thread*: the libtest harness's
//! main thread blocks in a channel `recv` while the test body runs, and its
//! waker registration allocates at a nondeterministic moment — fast kernels
//! made that land inside the measured window often enough to flake.

use drc_gf::{slice, Gf256, ReedSolomon};
use drc_testalloc::{open_window, tally, CountingAlloc, Threads};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    tally().allocs
}

#[test]
fn into_paths_are_allocation_free() {
    open_window(Threads::Current, 0);
    encode_into_is_allocation_free();
    slice_into_helpers_are_allocation_free();
}

fn encode_into_is_allocation_free() {
    let rs = ReedSolomon::new(10, 4).expect("valid parameters");
    let shard = 8 * 1024;
    let data: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8 + 1; shard]).collect();
    let mut parity = vec![vec![0u8; shard]; 4];

    // Warm up the cached kernel selection (and any lazy statics).
    rs.encode_into(&data, &mut parity).expect("encodes");

    let before = allocations();
    for _ in 0..32 {
        rs.encode_into(&data, &mut parity).expect("encodes");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "encode_into must not allocate with caller-owned buffers"
    );

    // The result is still correct, not just fast.
    for (p, got) in parity.iter().enumerate() {
        let expected = slice::linear_combination(rs.generator().row(10 + p), &data, got.len());
        assert_eq!(got, &expected, "parity {p}");
    }
}

fn slice_into_helpers_are_allocation_free() {
    let len = 4 * 1024;
    let blocks: Vec<Vec<u8>> = (0..6).map(|i| vec![(i * 17 + 3) as u8; len]).collect();
    let coeffs: Vec<Gf256> = (1..=6).map(Gf256::new).collect();
    let mut out = vec![0u8; len];
    let mut outs = vec![vec![0u8; len]; 2];
    let matrix: Vec<Gf256> = (1..=12).map(Gf256::new).collect();

    slice::linear_combination_into(&coeffs, &blocks, &mut out);
    slice::matrix_mul_into(&matrix, 6, &blocks, &mut outs);

    let before = allocations();
    for _ in 0..32 {
        slice::linear_combination_into(&coeffs, &blocks, &mut out);
        slice::matrix_mul_into(&matrix, 6, &blocks, &mut outs);
    }
    assert_eq!(
        allocations() - before,
        0,
        "slice *_into helpers must not allocate"
    );
}
