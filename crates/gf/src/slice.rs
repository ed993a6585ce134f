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
//! # Shard parallelism
//!
//! Blocks of at least [`PAR_ENGAGE_MIN`] bytes (enough total work to
//! amortise one pool dispatch) are split — giving every worker at least a
//! [`PAR_MIN_LEN`] share, see [`workers_for`] — into [`TILE`]-aligned byte
//! ranges and
//! spread over the workspace worker pool (the vendored `rayon` stand-in — a
//! persistent pool of condvar-parked workers; worker count from
//! `DRC_SIM_THREADS`, the sibling knob of `DRC_GF_KERNEL`).
//! Every output byte is computed by the same sequence of field operations
//! regardless of the split, so parallel and single-threaded runs are
//! **byte-identical** — `DRC_SIM_THREADS=1` (or short blocks) takes the
//! serial path, which remains allocation-free; the parallel path allocates
//! only per-range bookkeeping, never block-sized buffers.

use crate::kernel;
use crate::Gf256;

/// Tile width (bytes) for the fused matrix–vector product: small enough that
/// one source tile plus a handful of output tiles stay resident in L1 while
/// every parity row consumes the source tile.
pub const TILE: usize = 4096;

/// Minimum bytes of work *per worker* when splitting across the pool: a
/// woken worker's share of the arithmetic must dwarf its share of the
/// dispatch. At the ~10 GB/s these kernels sustain, 16 KiB is ~1.6 µs of
/// GF work per worker against a sub-microsecond per-worker wake — the
/// floor below which an extra worker stops paying for itself.
///
/// The vendored pool keeps its workers parked on a condvar between calls
/// (see `vendor/rayon`), so this per-worker floor can sit at 16 KiB instead
/// of the 64 KiB the spawn-per-call pool needed. Whether to parallelise *at
/// all* is a separate question — see [`PAR_ENGAGE_MIN`].
pub const PAR_MIN_LEN: usize = 4 * TILE;

/// Minimum *total* block length for engaging the pool at all: the scope
/// itself pays the whole dispatch round-trip (measured ~0.5 µs at width 2,
/// ~1.3 µs at width 4 — the "Pool dispatch" table in `INTERNALS.md`), so
/// the time a split can save must clear that fixed cost by a wide margin. A
/// 2-way split of 64 KiB saves ~3.2 µs of ~6.4 µs serial work — several
/// times the dispatch even before bandwidth contention; at half this
/// length the saving (~1.6 µs) is too thin a multiple to survive it, and
/// measured 2-thread throughput drops below serial. Blocks shorter than
/// this stay on the serial, allocation-free path regardless of pool width.
pub const PAR_ENGAGE_MIN: usize = 16 * TILE;

/// How many pool workers a `len`-byte operation should actually use: zero
/// (serial) for blocks under [`PAR_ENGAGE_MIN`], otherwise capped so every
/// worker gets at least [`PAR_MIN_LEN`] bytes. A result below 2 means
/// "stay serial".
pub fn workers_for(len: usize) -> usize {
    if len < PAR_ENGAGE_MIN {
        return 0;
    }
    rayon::current_num_threads().min(len / PAR_MIN_LEN)
}

/// Splits `len` bytes into at most `workers` contiguous `(start, end)`
/// ranges with [`TILE`]-aligned interior boundaries (the last range takes
/// the slack). This is the splitting the parallel paths here use; it is
/// public so sibling crates can spread their own per-byte-range work over
/// the same worker pool with identical chunking.
pub fn par_ranges(len: usize, workers: usize) -> impl Iterator<Item = (usize, usize)> {
    // A zero worker count (e.g. `workers_for` on a short buffer) means "one
    // serial range", not a division by zero.
    let chunk = len.div_ceil(workers.max(1)).div_ceil(TILE).max(1) * TILE;
    (0..len.div_ceil(chunk)).map(move |i| (i * chunk, ((i + 1) * chunk).min(len)))
}

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
    let workers = workers_for(out.len());
    if workers > 1 && !blocks.is_empty() {
        let len = out.len();
        let views: Vec<&[u8]> = blocks.iter().map(|b| b.as_ref()).collect();
        for b in &views {
            assert_eq!(b.len(), len, "blocks must match the output length");
        }
        let views = &views;
        rayon::scope(|s| {
            let mut rest = &mut *out;
            for (start, end) in par_ranges(len, workers) {
                let (head, tail) = rest.split_at_mut(end - start);
                rest = tail;
                s.spawn(move |_| {
                    head.fill(0);
                    for (c, b) in coeffs.iter().zip(views) {
                        mul_acc(head, &b[start..end], *c);
                    }
                });
            }
        });
        return;
    }
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
/// Callers own every buffer; `outs` are fully overwritten. Blocks large
/// enough to feed several workers (see [`workers_for`]) are additionally
/// split into TILE-aligned ranges across the worker pool (byte-identical to
/// the serial path); the serial path performs no heap allocation.
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
    let workers = workers_for(len);
    if workers > 1 && !outs.is_empty() && k > 0 {
        matrix_mul_into_parallel(coeffs, k, blocks, outs, len, workers);
        return;
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

/// The parallel arm of [`matrix_mul_into`]: every output buffer is split at
/// the same TILE-aligned boundaries, and each byte range (with its window of
/// every output) becomes one worker-pool task running the same fused tile
/// loop. Ranges are disjoint, so the result is byte-identical to the serial
/// path; only per-range bookkeeping is allocated.
fn matrix_mul_into_parallel<S, B>(
    coeffs: &[Gf256],
    k: usize,
    blocks: &[S],
    outs: &mut [B],
    len: usize,
    workers: usize,
) where
    S: AsRef<[u8]>,
    B: AsMut<[u8]>,
{
    let views: Vec<&[u8]> = blocks.iter().map(|b| b.as_ref()).collect();
    let ranges: Vec<(usize, usize)> = par_ranges(len, workers).collect();
    let mut chunked: Vec<Vec<&mut [u8]>> = ranges
        .iter()
        .map(|_| Vec::with_capacity(outs.len()))
        .collect();
    for o in outs.iter_mut() {
        let mut rest = o.as_mut();
        for (ci, (start, end)) in ranges.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(end - start);
            chunked[ci].push(head);
            rest = tail;
        }
    }
    let views = &views;
    let ranges = &ranges;
    rayon::scope(|s| {
        for (ci, mut window) in chunked.into_iter().enumerate() {
            let (start, end) = ranges[ci];
            s.spawn(move |_| matrix_mul_window(coeffs, k, views, start, end, &mut window));
        }
    });
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

impl MatrixMulTask<'_> {
    fn len(&self) -> usize {
        self.sources
            .first()
            .map(|s| s.len())
            .or_else(|| self.outs.first().map(|o| o.len()))
            .unwrap_or(0)
    }

    fn validate(&self) {
        assert_eq!(
            self.sources.len(),
            self.k,
            "one source per matrix column is required"
        );
        assert_eq!(
            self.coeffs.len(),
            self.outs.len() * self.k,
            "coefficient matrix must be outs.len() x k"
        );
        let len = self.len();
        for s in &self.sources {
            assert_eq!(s.len(), len, "sources must have equal lengths");
        }
        for o in &self.outs {
            assert_eq!(o.len(), len, "outputs must match the source length");
        }
    }
}

/// One pool unit of a batched product: the owning task's coefficients and
/// source count, its source payloads, the `[start, end)` byte range, and
/// the output windows covering exactly that range.
type BatchUnit<'a> = (
    &'a [Gf256],
    usize,
    &'a [&'a [u8]],
    usize,
    usize,
    Vec<&'a mut [u8]>,
);

/// Runs many independent matrix × block-vector products as **one** worker
/// pool dispatch, splitting the pool across the *total* bytes of the batch.
///
/// [`matrix_mul_into`] decides whether to engage the pool from one
/// product's block length, so a caller looping over many small stripes
/// (e.g. a repair pass rebuilding chunk-sized pieces of hundreds of
/// stripes) either stays serial per stripe or pays one dispatch per
/// stripe. This entry point makes the engagement decision on the batch:
/// when `Σ len` clears [`PAR_ENGAGE_MIN`], every task is cut into
/// [`TILE`]-aligned byte ranges and all `(task, range)` units run under a
/// single [`rayon::scope`], so the pool is saturated across stripes even
/// when each individual product is far below the per-block threshold.
///
/// Tiles never interact — each output byte is produced by the same
/// sequence of field operations regardless of the split — so the result is
/// **byte-identical** to calling [`matrix_mul_into`] on each task alone,
/// at any pool width.
///
/// # Panics
///
/// Panics if any task violates the [`matrix_mul_into`] shape contract.
pub fn matrix_mul_batch(tasks: &mut [MatrixMulTask<'_>]) {
    for task in tasks.iter() {
        task.validate();
    }
    let total: usize = tasks.iter().map(|t| t.len()).sum();
    let workers = workers_for(total);
    if workers > 1 {
        // One TILE-aligned target share per worker, measured on the batch.
        let share = total.div_ceil(workers).div_ceil(TILE).max(1) * TILE;
        let mut units: Vec<BatchUnit<'_>> = Vec::new();
        for task in tasks.iter_mut() {
            let len = task.len();
            let ranges: Vec<(usize, usize)> = (0..len.div_ceil(share).max(usize::from(len == 0)))
                .map(|i| (i * share, ((i + 1) * share).min(len)))
                .collect();
            let mut rests: Vec<&mut [u8]> = task.outs.iter_mut().map(|o| &mut o[..]).collect();
            for &(start, end) in &ranges {
                let mut window = Vec::with_capacity(rests.len());
                for rest in rests.iter_mut() {
                    let taken = std::mem::take(rest);
                    let (head, tail) = taken.split_at_mut(end - start);
                    window.push(head);
                    *rest = tail;
                }
                units.push((task.coeffs, task.k, &task.sources, start, end, window));
            }
        }
        rayon::scope(|s| {
            for (coeffs, k, sources, start, end, mut window) in units {
                s.spawn(move |_| matrix_mul_window(coeffs, k, sources, start, end, &mut window));
            }
        });
        return;
    }
    for task in tasks.iter_mut() {
        let len = task.len();
        matrix_mul_window(task.coeffs, task.k, &task.sources, 0, len, &mut task.outs);
    }
}

/// Applies the whole coefficient sub-matrix to the byte range
/// `offset..limit` of the source blocks, writing the matching windows of the
/// outputs (`window[p]` is `outs[p][offset..limit]`).
fn matrix_mul_window(
    coeffs: &[Gf256],
    k: usize,
    blocks: &[&[u8]],
    offset: usize,
    limit: usize,
    window: &mut [&mut [u8]],
) {
    let kern = kernel::active();
    let mut start = offset;
    while start < limit {
        let end = (start + TILE).min(limit);
        // Per-tile zeroing, as in `matrix_mul_into`'s serial loop.
        for out in window.iter_mut() {
            out[start - offset..end - offset].fill(0);
        }
        for (j, block) in blocks.iter().enumerate() {
            let src = &block[start..end];
            for (p, out) in window.iter_mut().enumerate() {
                let c = coeffs[p * k + j];
                if c == Gf256::ZERO {
                    continue;
                }
                let dst = &mut out[start - offset..end - offset];
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

    #[test]
    fn workers_for_respects_both_floors() {
        rayon::with_num_threads(8, || {
            // Below the engagement floor: serial, no matter how wide the pool.
            assert_eq!(workers_for(PAR_ENGAGE_MIN - 1), 0);
            // At the floor the split engages, each worker >= PAR_MIN_LEN.
            let w = workers_for(PAR_ENGAGE_MIN);
            assert!(w >= 2, "engagement floor must actually engage, got {w}");
            assert!(PAR_ENGAGE_MIN / w >= PAR_MIN_LEN);
            // Large blocks are capped by the pool width.
            assert_eq!(workers_for(64 * PAR_ENGAGE_MIN), 8);
        });
        // A 1-wide pool never splits.
        rayon::with_num_threads(1, || assert!(workers_for(64 * PAR_ENGAGE_MIN) < 2));
    }

    #[test]
    fn parallel_split_matches_serial_byte_for_byte() {
        let k = 5;
        let len = PAR_ENGAGE_MIN + 3 * PAR_MIN_LEN + 123; // several parallel ranges + slack
        let blocks: Vec<Vec<u8>> = (0..k)
            .map(|j| (0..len).map(|i| (i * 13 + j * 29 + 5) as u8).collect())
            .collect();
        let coeffs: Vec<Gf256> = (0..3 * k).map(|i| Gf256::new((i * 7 + 1) as u8)).collect();

        let mut serial = vec![vec![0u8; len]; 3];
        rayon::with_num_threads(1, || matrix_mul_into(&coeffs, k, &blocks, &mut serial));
        let mut parallel = vec![vec![0u8; len]; 3];
        rayon::with_num_threads(4, || matrix_mul_into(&coeffs, k, &blocks, &mut parallel));
        assert_eq!(serial, parallel);

        let mut lin_serial = vec![0u8; len];
        rayon::with_num_threads(1, || {
            linear_combination_into(&coeffs[..k], &blocks, &mut lin_serial)
        });
        let mut lin_parallel = vec![0xffu8; len];
        rayon::with_num_threads(4, || {
            linear_combination_into(&coeffs[..k], &blocks, &mut lin_parallel)
        });
        assert_eq!(lin_serial, lin_parallel);
    }

    /// The outputs are zeroed tile by tile inside the product, never by the
    /// caller: every path — serial, parallel arm, batch at either width —
    /// fully overwrites `0xAB`-prefilled buffers, ragged last tile included.
    #[test]
    fn dirty_outputs_are_fully_overwritten_on_every_path() {
        let k = 4;
        let rows = 3;
        let len = PAR_ENGAGE_MIN + 2 * PAR_MIN_LEN + 77;
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
        for threads in [1, 4] {
            let mut outs = vec![vec![0xABu8; len]; rows];
            rayon::with_num_threads(threads, || matrix_mul_into(&coeffs, k, &blocks, &mut outs));
            assert_eq!(outs, want, "matrix_mul_into at {threads} threads");

            let mut outs = vec![vec![0xABu8; len]; rows];
            rayon::with_num_threads(threads, || {
                matrix_mul_batch(&mut [MatrixMulTask {
                    coeffs: &coeffs,
                    k,
                    sources: blocks.iter().map(|b| b.as_slice()).collect(),
                    outs: outs.iter_mut().map(|o| o.as_mut_slice()).collect(),
                }]);
            });
            assert_eq!(outs, want, "matrix_mul_batch at {threads} threads");
        }
    }

    #[test]
    fn par_ranges_are_tile_aligned_and_cover() {
        // workers == 0 (what workers_for returns for short buffers) must
        // degrade to one serial range, not panic.
        assert_eq!(par_ranges(5 * TILE, 0).collect::<Vec<_>>(), [(0, 5 * TILE)]);
        for (len, workers) in [(PAR_MIN_LEN, 4), (3 * PAR_MIN_LEN + 17, 3), (TILE + 1, 8)] {
            let ranges: Vec<_> = par_ranges(len, workers).collect();
            assert!(ranges.len() <= workers);
            assert_eq!(ranges.first().map(|r| r.0), Some(0));
            assert_eq!(ranges.last().map(|r| r.1), Some(len));
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
                assert_eq!(w[0].1 % TILE, 0, "interior boundaries are TILE-aligned");
            }
        }
    }

    #[test]
    fn batch_matches_per_task_at_any_pool_width() {
        // Heterogeneous batch: task lengths straddle TILE boundaries and
        // none alone clears PAR_ENGAGE_MIN, but the batch total does — the
        // case matrix_mul_into would run serially task-by-task.
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
        let mut expected: Vec<Vec<Vec<u8>>> = shapes
            .iter()
            .map(|&(_, outs, len)| vec![vec![0u8; len]; outs])
            .collect();
        for (i, &(k, _, _)) in shapes.iter().enumerate() {
            matrix_mul_into(&coeffs[i], k, &sources[i], &mut expected[i]);
        }
        for threads in [1, 4] {
            let mut got: Vec<Vec<Vec<u8>>> = shapes
                .iter()
                .map(|&(_, outs, len)| vec![vec![0xa5u8; len]; outs])
                .collect();
            rayon::with_num_threads(threads, || {
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
            });
            assert_eq!(got, expected, "batch at {threads} threads");
        }
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
