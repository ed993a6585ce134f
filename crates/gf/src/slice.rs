//! Bulk GF(2^8) operations on byte slices.
//!
//! Storage blocks are megabytes of payload; encoding and repairing them means
//! applying the same field operation to every byte of a block. Every function
//! here dispatches to the widest SIMD [`crate::kernel`] the host CPU
//! supports (GFNI / AVX2 / SSSE3 / scalar reference), selected once per
//! process.
//!
//! Two API tiers:
//!
//! * the original allocating helpers ([`xor_all`], [`linear_combination`])
//!   used by cold paths and tests, and
//! * zero-allocation `*_into` variants ([`linear_combination_into`],
//!   [`matrix_mul_into`]) where the caller owns every output buffer —
//!   [`matrix_mul_into`] additionally applies a whole parity sub-matrix per
//!   cache tile (all outputs advance together through one [`TILE`]-sized
//!   window of the inputs) instead of making one full pass per output row,
//!   which is what the Reed–Solomon encoder and the erasure-code stripe
//!   encoders build on.
//!
//! Every operation runs on the calling thread. The workspace's one parallel
//! layer is the experiment harness, which runs whole cells on their own
//! threads; the crate's `INTERNALS.md` records the byte-range split this
//! module used to do and why it was removed.

use crate::kernel;
use crate::Gf256;

/// Tile width (bytes) for the fused matrix–vector product: small enough that
/// one source tile plus a handful of output tiles stay resident in L1 while
/// every parity row consumes the source tile.
pub const TILE: usize = 4096;

/// XOR-accumulates `src` into `dst` (`dst[i] += src[i]` over GF(2^8)).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_assign(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "xor_assign requires equal-length slices"
    );
    kernel::active().xor_assign(dst, src);
}

/// Returns the element-wise XOR of all input slices.
///
/// Returns an empty vector when `slices` is empty.
///
/// # Panics
///
/// Panics if the slices do not all have the same length.
pub fn xor_all<S: AsRef<[u8]>>(slices: &[S]) -> Vec<u8> {
    let Some(first) = slices.first() else {
        return Vec::new();
    };
    let mut out = first.as_ref().to_vec();
    for s in &slices[1..] {
        xor_assign(&mut out, s.as_ref());
    }
    out
}

/// Multiplies every byte of `data` by the scalar `coeff` in place.
pub fn scale_assign(data: &mut [u8], coeff: Gf256) {
    if coeff == Gf256::ONE {
        return;
    }
    if coeff == Gf256::ZERO {
        data.fill(0);
        return;
    }
    kernel::active().scale_assign(data, coeff.value());
}

/// Computes `dst[i] += coeff * src[i]` over GF(2^8).
///
/// This is the fused multiply-accumulate at the heart of matrix–vector
/// encoding: a parity block is the sum of `coeff_j * data_j` over all data
/// blocks `j`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_acc(dst: &mut [u8], src: &[u8], coeff: Gf256) {
    assert_eq!(dst.len(), src.len(), "mul_acc requires equal-length slices");
    if coeff == Gf256::ZERO {
        return;
    }
    if coeff == Gf256::ONE {
        kernel::active().xor_assign(dst, src);
        return;
    }
    kernel::active().mul_acc(dst, src, coeff.value());
}

/// Computes the linear combination `sum_j coeffs[j] * blocks[j]`.
///
/// Returns a zero-filled vector of length `len` when `blocks` is empty.
///
/// # Panics
///
/// Panics if `coeffs` and `blocks` have different lengths, or if any block's
/// length differs from `len`.
pub fn linear_combination<S: AsRef<[u8]>>(coeffs: &[Gf256], blocks: &[S], len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    linear_combination_into(coeffs, blocks, &mut out);
    out
}

/// Computes `out = sum_j coeffs[j] * blocks[j]` into a caller-owned buffer.
///
/// Allocation-free: `out` is fully overwritten (it does not need to be
/// zeroed beforehand).
///
/// # Panics
///
/// Panics if `coeffs` and `blocks` have different lengths, or if any block's
/// length differs from `out.len()`.
pub fn linear_combination_into<S: AsRef<[u8]>>(coeffs: &[Gf256], blocks: &[S], out: &mut [u8]) {
    assert_eq!(
        coeffs.len(),
        blocks.len(),
        "one coefficient is required per block"
    );
    out.fill(0);
    for (c, b) in coeffs.iter().zip(blocks) {
        mul_acc(out, b.as_ref(), *c);
    }
}

/// Fused, cache-blocked matrix × block-vector product:
/// `outs[p] = sum_j coeffs[p * k + j] * blocks[j]` for every output row `p`.
///
/// `coeffs` is a row-major `outs.len() × k` coefficient matrix (one row per
/// output block). Instead of computing each output with a separate full pass
/// over the inputs, the product walks the blocks one [`TILE`] at a time and
/// applies the *whole* sub-matrix to that tile, so each source tile is read
/// from L1 once per output row instead of once per output row per pass, and
/// the output tiles stay cache-resident across all `k` accumulations.
///
/// Callers own every buffer; `outs` are fully overwritten. No heap
/// allocation.
///
/// # Panics
///
/// Panics if `blocks.len() != k`, `coeffs.len() != outs.len() * k`, or any
/// block/output length differs from the common block length.
pub fn matrix_mul_into<S, B>(coeffs: &[Gf256], k: usize, blocks: &[S], outs: &mut [B])
where
    S: AsRef<[u8]>,
    B: AsMut<[u8]>,
{
    assert_eq!(blocks.len(), k, "one block per matrix column is required");
    assert_eq!(
        coeffs.len(),
        outs.len() * k,
        "coefficient matrix must be outs.len() x k"
    );
    let len = blocks
        .first()
        .map(|b| b.as_ref().len())
        .unwrap_or_else(|| outs.first_mut().map(|o| o.as_mut().len()).unwrap_or(0));
    for b in blocks {
        assert_eq!(b.as_ref().len(), len, "blocks must have equal lengths");
    }
    for o in outs.iter_mut() {
        assert_eq!(o.as_mut().len(), len, "outputs must match the block length");
    }
    let kern = kernel::active();
    let mut start = 0;
    while start < len {
        let end = (start + TILE).min(len);
        // Zero one output tile at a time, right before the accumulations
        // that fill it: the stores land in L1, where a whole-buffer fill up
        // front would be a DRAM pass of its own over every output.
        for out in outs.iter_mut() {
            out.as_mut()[start..end].fill(0);
        }
        for (j, block) in blocks.iter().enumerate() {
            let src = &block.as_ref()[start..end];
            for (p, out) in outs.iter_mut().enumerate() {
                let c = coeffs[p * k + j];
                if c == Gf256::ZERO {
                    continue;
                }
                let dst = &mut out.as_mut()[start..end];
                if c == Gf256::ONE {
                    kern.xor_assign(dst, src);
                } else {
                    kern.mul_acc(dst, src, c.value());
                }
            }
        }
        start = end;
    }
}

/// One independent matrix × block-vector product inside a
/// [`matrix_mul_batch`] call: a row-major `outs.len() × k` coefficient
/// matrix applied to `k` equal-length source slices, writing `outs.len()`
/// equal-length outputs (the same contract as [`matrix_mul_into`]).
///
/// The sources and outputs are plain borrowed slices so callers can batch
/// work over buffers of heterogeneous ownership (reference-counted block
/// handles as inputs, freshly allocated rebuild buffers as outputs).
pub struct MatrixMulTask<'a> {
    /// Row-major `outs.len() × k` coefficient matrix.
    pub coeffs: &'a [Gf256],
    /// Number of source blocks (matrix columns).
    pub k: usize,
    /// The `k` source blocks, all of one common length.
    pub sources: Vec<&'a [u8]>,
    /// The output blocks, each of the sources' common length.
    pub outs: Vec<&'a mut [u8]>,
}

/// Runs many independent matrix × block-vector products, one
/// [`matrix_mul_into`] per task in order — the same tile loop, so the
/// result is byte-identical to calling it on each task alone.
///
/// # Panics
///
/// Panics if any task violates the [`matrix_mul_into`] shape contract.
pub fn matrix_mul_batch(tasks: &mut [MatrixMulTask<'_>]) {
    for task in tasks.iter_mut() {
        matrix_mul_into(task.coeffs, task.k, &task.sources, &mut task.outs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_assign_basic() {
        let mut a = vec![0b1010u8, 0xff, 0x00];
        xor_assign(&mut a, &[0b0110, 0xff, 0x55]);
        assert_eq!(a, vec![0b1100, 0x00, 0x55]);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn xor_assign_length_mismatch_panics() {
        let mut a = vec![0u8; 3];
        xor_assign(&mut a, &[0u8; 4]);
    }

    #[test]
    fn xor_all_handles_empty_and_single() {
        let empty: Vec<Vec<u8>> = vec![];
        assert!(xor_all(&empty).is_empty());
        assert_eq!(xor_all(&[vec![1u8, 2, 3]]), vec![1, 2, 3]);
    }

    #[test]
    fn xor_all_is_parity() {
        let blocks = vec![vec![1u8, 2, 3], vec![4u8, 5, 6], vec![7u8, 8, 9]];
        let p = xor_all(&blocks);
        assert_eq!(p, vec![1 ^ 4 ^ 7, 2 ^ 5 ^ 8, 3 ^ 6 ^ 9]);
        // XOR of the parity with all but one block recovers the remaining block.
        let recovered = xor_all(&[p.as_slice(), blocks[0].as_slice(), blocks[2].as_slice()]);
        assert_eq!(recovered, blocks[1]);
    }

    #[test]
    fn scale_assign_special_cases() {
        let mut d = vec![1u8, 2, 3];
        scale_assign(&mut d, Gf256::ONE);
        assert_eq!(d, vec![1, 2, 3]);
        scale_assign(&mut d, Gf256::ZERO);
        assert_eq!(d, vec![0, 0, 0]);
    }

    #[test]
    fn scale_assign_matches_elementwise_mul() {
        let mut d: Vec<u8> = (0..=255).collect();
        let c = Gf256::new(0x1d);
        scale_assign(&mut d, c);
        for (i, b) in d.iter().enumerate() {
            assert_eq!(*b, (Gf256::new(i as u8) * c).value());
        }
    }

    #[test]
    fn mul_acc_matches_manual() {
        let src: Vec<u8> = (0..16).collect();
        let mut dst = vec![0xaau8; 16];
        let c = Gf256::new(7);
        let expected: Vec<u8> = dst
            .iter()
            .zip(&src)
            .map(|(d, s)| d ^ (Gf256::new(*s) * c).value())
            .collect();
        mul_acc(&mut dst, &src, c);
        assert_eq!(dst, expected);
    }

    #[test]
    fn mul_acc_zero_and_one_coefficients() {
        let src = vec![9u8, 8, 7];
        let mut dst = vec![1u8, 2, 3];
        mul_acc(&mut dst, &src, Gf256::ZERO);
        assert_eq!(dst, vec![1, 2, 3]);
        mul_acc(&mut dst, &src, Gf256::ONE);
        assert_eq!(dst, vec![1 ^ 9, 2 ^ 8, 3 ^ 7]);
    }

    #[test]
    fn linear_combination_of_unit_vectors_selects_block() {
        let blocks = vec![vec![1u8, 1, 1], vec![2u8, 2, 2], vec![3u8, 3, 3]];
        let coeffs = [Gf256::ZERO, Gf256::ONE, Gf256::ZERO];
        assert_eq!(linear_combination(&coeffs, &blocks, 3), vec![2, 2, 2]);
    }

    #[test]
    fn linear_combination_empty_inputs() {
        let blocks: Vec<Vec<u8>> = vec![];
        let coeffs: Vec<Gf256> = vec![];
        assert_eq!(linear_combination(&coeffs, &blocks, 4), vec![0u8; 4]);
    }

    #[test]
    fn linear_combination_into_overwrites_dirty_buffer() {
        let blocks = vec![vec![3u8; 8], vec![5u8; 8]];
        let coeffs = [Gf256::new(2), Gf256::new(7)];
        let fresh = linear_combination(&coeffs, &blocks, 8);
        let mut out = vec![0xffu8; 8];
        linear_combination_into(&coeffs, &blocks, &mut out);
        assert_eq!(out, fresh);
    }

    #[test]
    fn matrix_mul_into_matches_row_by_row() {
        // 3 outputs x 4 inputs, over lengths spanning several tiles.
        let k = 4;
        let len = 3 * TILE + 17;
        let blocks: Vec<Vec<u8>> = (0..k)
            .map(|j| (0..len).map(|i| (i * 31 + j * 7 + 1) as u8).collect())
            .collect();
        let coeffs: Vec<Gf256> = (0..3 * k)
            .map(|i| Gf256::new([0, 1, 2, 0x1d, 0x80, 255][i % 6]))
            .collect();
        let mut outs = vec![vec![0xabu8; len], vec![0xcdu8; len], vec![0xefu8; len]];
        matrix_mul_into(&coeffs, k, &blocks, &mut outs);
        for p in 0..3 {
            let row = &coeffs[p * k..(p + 1) * k];
            assert_eq!(outs[p], linear_combination(row, &blocks, len), "row {p}");
        }
    }

    /// The outputs are zeroed tile by tile inside the product, never by the
    /// caller: both entry points fully overwrite `0xAB`-prefilled buffers,
    /// ragged last tile included.
    #[test]
    fn dirty_outputs_are_fully_overwritten_on_every_path() {
        let k = 4;
        let rows = 3;
        let len = 5 * TILE + 77;
        let blocks: Vec<Vec<u8>> = (0..k)
            .map(|j| (0..len).map(|i| (i * 17 + j * 41 + 3) as u8).collect())
            .collect();
        // Zero and one coefficients take the skip and XOR branches.
        let coeffs: Vec<Gf256> = (0..rows * k)
            .map(|i| Gf256::new([0, 1, 0x53, 0xca, 2][i % 5]))
            .collect();
        let want: Vec<Vec<u8>> = (0..rows)
            .map(|p| linear_combination(&coeffs[p * k..(p + 1) * k], &blocks, len))
            .collect();
        let mut outs = vec![vec![0xABu8; len]; rows];
        matrix_mul_into(&coeffs, k, &blocks, &mut outs);
        assert_eq!(outs, want, "matrix_mul_into");

        let mut outs = vec![vec![0xABu8; len]; rows];
        matrix_mul_batch(&mut [MatrixMulTask {
            coeffs: &coeffs,
            k,
            sources: blocks.iter().map(|b| b.as_slice()).collect(),
            outs: outs.iter_mut().map(|o| o.as_mut_slice()).collect(),
        }]);
        assert_eq!(outs, want, "matrix_mul_batch");

        let mut out = vec![0xABu8; len];
        linear_combination_into(&coeffs[..k], &blocks, &mut out);
        assert_eq!(out, want[0], "linear_combination_into");
    }

    #[test]
    fn batch_matches_per_task() {
        // Heterogeneous batch: task lengths straddle TILE boundaries, and
        // every output row is held to its own linear combination.
        let shapes = [
            (3usize, 2usize, 5 * TILE + 17),
            (2, 1, TILE / 2),
            (4, 3, 6 * TILE),
            (1, 1, 3 * TILE + 1),
            (5, 2, 4 * TILE + 4095),
        ];
        let sources: Vec<Vec<Vec<u8>>> = shapes
            .iter()
            .map(|&(k, _, len)| {
                (0..k)
                    .map(|j| (0..len).map(|i| (i * 31 + j * 7 + 3) as u8).collect())
                    .collect()
            })
            .collect();
        let coeffs: Vec<Vec<Gf256>> = shapes
            .iter()
            .map(|&(k, outs, _)| {
                (0..k * outs)
                    .map(|i| Gf256::new((i * 29 + 1) as u8))
                    .collect()
            })
            .collect();
        let expected: Vec<Vec<Vec<u8>>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(k, outs, len))| {
                (0..outs)
                    .map(|p| linear_combination(&coeffs[i][p * k..(p + 1) * k], &sources[i], len))
                    .collect()
            })
            .collect();
        let mut got: Vec<Vec<Vec<u8>>> = shapes
            .iter()
            .map(|&(_, outs, len)| vec![vec![0xa5u8; len]; outs])
            .collect();
        let mut tasks: Vec<MatrixMulTask<'_>> = got
            .iter_mut()
            .enumerate()
            .map(|(i, outs)| MatrixMulTask {
                coeffs: &coeffs[i],
                k: shapes[i].0,
                sources: sources[i].iter().map(|s| s.as_slice()).collect(),
                outs: outs.iter_mut().map(|o| o.as_mut_slice()).collect(),
            })
            .collect();
        matrix_mul_batch(&mut tasks);
        drop(tasks);
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_batch_and_empty_task_are_noops() {
        matrix_mul_batch(&mut []);
        let mut tasks = vec![MatrixMulTask {
            coeffs: &[],
            k: 0,
            sources: vec![],
            outs: vec![],
        }];
        matrix_mul_batch(&mut tasks);
    }

    #[test]
    fn matrix_mul_into_zero_outputs_and_blocks() {
        let blocks: Vec<Vec<u8>> = vec![];
        let coeffs: Vec<Gf256> = vec![];
        let mut outs: Vec<Vec<u8>> = vec![];
        matrix_mul_into(&coeffs, 0, &blocks, &mut outs);
        let mut outs = vec![vec![7u8; 5]];
        matrix_mul_into(&[], 0, &blocks, &mut outs);
        assert_eq!(outs[0], vec![0u8; 5], "no inputs yields the zero block");
    }
}
