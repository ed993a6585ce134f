//! Property-based tests for the GF(2^8) field, matrices and the RS codec —
//! including differential tests that every bulk kernel variant (SIMD,
//! reference) agrees byte-for-byte.

use drc_gf::{kernel, slice, Gf256, Matrix, ReedSolomon};
use proptest::prelude::*;

fn gf_elem() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256::new)
}

/// Deterministic pseudo-random buffer from a seed (keeps the strategies
/// cheap: generating whole megabyte buffers through proptest would dominate
/// the run time).
fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// Lengths that exercise empty input, single bytes, lane remainders and
/// multi-lane spans for every kernel width (16/32/64 bytes — the 63/64/65
/// and 127/128/129 points straddle the AVX-512 gfni lane boundary).
fn awkward_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(7usize),
        Just(8usize),
        Just(15usize),
        Just(16usize),
        Just(31usize),
        Just(32usize),
        Just(33usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(127usize),
        Just(128usize),
        Just(129usize),
        1usize..260,
    ]
}

/// All `k + m` coded shards: the data verbatim, then `encode_into`'s
/// parities (written over dirty buffers, which must be fully overwritten).
fn rs_encode(rs: &ReedSolomon, data: &[Vec<u8>], len: usize) -> Vec<Vec<u8>> {
    let mut parity = vec![vec![0xa5u8; len]; rs.parity_shards()];
    rs.encode_into(data, &mut parity).unwrap();
    data.iter().cloned().chain(parity).collect()
}

/// Schoolbook carry-less multiplication with reduction by 0x11d — shares no
/// table and no code with any kernel.
fn slow_mul(a: u8, b: u8) -> u8 {
    let (mut a, mut b, mut result) = (a as u16, b, 0u16);
    while b != 0 {
        if b & 1 != 0 {
            result ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= 0x11d;
        }
        b >>= 1;
    }
    result as u8
}

/// Every SIMD tier hands its sub-lane tail to the reference scalar
/// functions, so every length up to several lanes of the widest tier is
/// checked exhaustively rather than sampled.
#[test]
fn every_kernel_matches_schoolbook_at_every_short_length() {
    for kern in kernel::all() {
        for len in 0..=200usize {
            let src = fill(len as u64, len);
            let dst0 = fill(len as u64 ^ 0x5eed, len);
            let mut dst = dst0.clone();
            kern.xor_assign(&mut dst, &src);
            let expected: Vec<u8> = dst0.iter().zip(&src).map(|(d, s)| d ^ s).collect();
            assert_eq!(dst, expected, "xor_assign: {} len={len}", kern.name());
            for coeff in [0u8, 1, 2, 0x1d, 0x8e, 0xff] {
                let mut dst = dst0.clone();
                kern.scale_assign(&mut dst, coeff);
                let expected: Vec<u8> = dst0.iter().map(|d| slow_mul(coeff, *d)).collect();
                assert_eq!(
                    dst,
                    expected,
                    "scale_assign: {} len={len} coeff={coeff:#04x}",
                    kern.name()
                );
                let mut dst = dst0.clone();
                kern.mul_acc(&mut dst, &src, coeff);
                let expected: Vec<u8> = dst0
                    .iter()
                    .zip(&src)
                    .map(|(d, s)| d ^ slow_mul(coeff, *s))
                    .collect();
                assert_eq!(
                    dst,
                    expected,
                    "mul_acc: {} len={len} coeff={coeff:#04x}",
                    kern.name()
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn field_axioms(a in gf_elem(), b in gf_elem(), c in gf_elem()) {
        // Commutativity
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        // Associativity
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        // Distributivity
        prop_assert_eq!(a * (b + c), a * b + a * c);
        // Identities
        prop_assert_eq!(a + Gf256::ZERO, a);
        prop_assert_eq!(a * Gf256::ONE, a);
        // Additive inverse (characteristic 2)
        prop_assert_eq!(a + a, Gf256::ZERO);
    }

    #[test]
    fn division_inverts_multiplication(a in gf_elem(), b in gf_elem()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!((a * b) / b, a);
        prop_assert_eq!((a / b) * b, a);
    }

    #[test]
    fn pow_homomorphism(a in gf_elem(), e1 in 0u32..600, e2 in 0u32..600) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn xor_all_order_independent(mut blocks in prop::collection::vec(prop::collection::vec(any::<u8>(), 16), 1..6)) {
        let p1 = slice::xor_all(&blocks);
        blocks.reverse();
        let p2 = slice::xor_all(&blocks);
        prop_assert_eq!(p1, p2);
    }

    #[test]
    fn linear_combination_is_linear(
        data in prop::collection::vec(prop::collection::vec(any::<u8>(), 8), 3),
        c1 in gf_elem(), c2 in gf_elem(), c3 in gf_elem(), s in gf_elem(),
    ) {
        let coeffs = [c1, c2, c3];
        let combo = slice::linear_combination(&coeffs, &data, 8);
        // Scaling all coefficients scales the result.
        let scaled_coeffs: Vec<Gf256> = coeffs.iter().map(|c| *c * s).collect();
        let mut scaled_combo = combo.clone();
        slice::scale_assign(&mut scaled_combo, s);
        prop_assert_eq!(slice::linear_combination(&scaled_coeffs, &data, 8), scaled_combo);
    }

    #[test]
    fn square_vandermonde_invertible(n in 1usize..12) {
        let rows: Vec<usize> = (0..n).collect();
        let m = Matrix::vandermonde(20, n).unwrap().select_rows(&rows);
        prop_assert_eq!(m.rank(), n);
        let inv = m.inverse().unwrap();
        prop_assert_eq!(&m * &inv, Matrix::identity(n));
    }

    #[test]
    fn matrix_mul_associative(
        a in prop::collection::vec(prop::collection::vec(any::<u8>(), 3), 3),
        b in prop::collection::vec(prop::collection::vec(any::<u8>(), 3), 3),
        c in prop::collection::vec(prop::collection::vec(any::<u8>(), 3), 3),
    ) {
        let a = Matrix::from_rows(&a).unwrap();
        let b = Matrix::from_rows(&b).unwrap();
        let c = Matrix::from_rows(&c).unwrap();
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn kernels_agree_on_mul_acc(
        len in awkward_len(),
        offset in 0usize..17,
        coeff in prop_oneof![Just(0u8), Just(1u8), any::<u8>()],
        seed in any::<u64>(),
    ) {
        // Operate on a sub-slice at `offset` so the SIMD paths see every
        // possible misalignment of the 16/32-byte lanes.
        let src = fill(seed, offset + len);
        let dst0 = fill(seed ^ 0xabcd, offset + len);
        let mut expected = dst0.clone();
        kernel::reference().mul_acc(&mut expected[offset..], &src[offset..], coeff);
        for kern in kernel::all() {
            let mut dst = dst0.clone();
            kern.mul_acc(&mut dst[offset..], &src[offset..], coeff);
            prop_assert_eq!(&dst, &expected, "kernel {} disagrees (len={}, offset={}, coeff={:#04x})", kern.name(), len, offset, coeff);
        }
    }

    #[test]
    fn kernels_agree_on_xor_and_scale(
        len in awkward_len(),
        offset in 0usize..17,
        coeff in prop_oneof![Just(0u8), Just(1u8), any::<u8>()],
        seed in any::<u64>(),
    ) {
        let src = fill(seed, offset + len);
        let dst0 = fill(seed ^ 0x1234, offset + len);
        let mut expected_xor = dst0.clone();
        kernel::reference().xor_assign(&mut expected_xor[offset..], &src[offset..]);
        let mut expected_scale = dst0.clone();
        kernel::reference().scale_assign(&mut expected_scale[offset..], coeff);
        for kern in kernel::all() {
            let mut dst = dst0.clone();
            kern.xor_assign(&mut dst[offset..], &src[offset..]);
            prop_assert_eq!(&dst, &expected_xor, "xor: kernel {} disagrees", kern.name());
            let mut dst = dst0.clone();
            kern.scale_assign(&mut dst[offset..], coeff);
            prop_assert_eq!(&dst, &expected_scale, "scale: kernel {} disagrees (coeff={:#04x})", kern.name(), coeff);
        }
    }

    #[test]
    fn kernel_mul_acc_matches_field_arithmetic(
        len in 1usize..80,
        coeff in any::<u8>(),
        seed in any::<u64>(),
    ) {
        // The kernels must implement the same field the scalar Gf256 does.
        let src = fill(seed, len);
        let mut dst = fill(seed ^ 0x77, len);
        let expected: Vec<u8> = dst
            .iter()
            .zip(&src)
            .map(|(d, s)| d ^ (Gf256::new(*s) * Gf256::new(coeff)).value())
            .collect();
        slice::mul_acc(&mut dst, &src, Gf256::new(coeff));
        prop_assert_eq!(dst, expected);
    }

    #[test]
    fn linear_combination_into_matches_allocating(
        k in 1usize..8,
        len in awkward_len(),
        seed in any::<u64>(),
    ) {
        let blocks: Vec<Vec<u8>> = (0..k).map(|j| fill(seed ^ j as u64, len)).collect();
        let coeffs: Vec<Gf256> = (0..k).map(|j| Gf256::new(fill(seed ^ 0xfe, k)[j])).collect();
        let expected = slice::linear_combination(&coeffs, &blocks, len);
        let mut out = fill(!seed, len); // dirty buffer must be overwritten
        slice::linear_combination_into(&coeffs, &blocks, &mut out);
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn matrix_mul_into_matches_row_by_row(
        k in 1usize..6,
        m in 1usize..5,
        len in awkward_len(),
        seed in any::<u64>(),
    ) {
        let blocks: Vec<Vec<u8>> = (0..k).map(|j| fill(seed ^ j as u64, len)).collect();
        let coeff_bytes = fill(seed ^ 0xc0ffee, m * k);
        let coeffs: Vec<Gf256> = coeff_bytes.iter().copied().map(Gf256::new).collect();
        let mut outs = vec![vec![0xa5u8; len]; m];
        slice::matrix_mul_into(&coeffs, k, &blocks, &mut outs);
        for p in 0..m {
            let expected = slice::linear_combination(&coeffs[p * k..(p + 1) * k], &blocks, len);
            prop_assert_eq!(&outs[p], &expected, "row {}", p);
        }
    }

    #[test]
    fn encode_into_applies_the_generator_parity_rows(
        k in 1usize..9,
        m in 1usize..5,
        len in awkward_len(),
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let data: Vec<Vec<u8>> = (0..k).map(|j| fill(seed ^ j as u64, len)).collect();
        let coded = rs_encode(&rs, &data, len);
        prop_assert_eq!(&coded[..k], data.as_slice(), "systematic prefix");
        for p in 0..m {
            let expected = slice::linear_combination(rs.generator().row(k + p), &data, len);
            prop_assert_eq!(&coded[k + p], &expected, "parity {}", p);
        }
    }

    #[test]
    fn reconstruct_into_recovers_lost_data_shards(
        k in 2usize..7,
        m in 1usize..4,
        len in 1usize..40,
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let data: Vec<Vec<u8>> = (0..k).map(|j| fill(seed ^ j as u64, len)).collect();
        let coded = rs_encode(&rs, &data, len);
        // Drop the first m shards (worst case: data shards lost).
        let present: Vec<Option<&[u8]>> = coded
            .iter()
            .enumerate()
            .map(|(i, s)| (i >= m).then_some(s.as_slice()))
            .collect();
        let mut out = vec![vec![0xeeu8; len]; k + m];
        rs.reconstruct_into(&present, len, &mut out).unwrap();
        prop_assert_eq!(&out, &coded);
    }

    #[test]
    fn rs_reconstructs_random_losses(
        k in 2usize..8,
        m in 1usize..5,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| (seed as usize + i * 31 + j * 7) as u8).collect())
            .collect();
        let coded = rs_encode(&rs, &data, len);
        // Drop exactly m shards chosen pseudo-randomly from the seed.
        let mut present: Vec<Option<&[u8]>> = coded.iter().map(|s| Some(s.as_slice())).collect();
        let mut dropped = 0usize;
        let mut idx = seed as usize;
        while dropped < m {
            idx = idx.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pos = idx % (k + m);
            if present[pos].is_some() {
                present[pos] = None;
                dropped += 1;
            }
        }
        let mut rec = vec![vec![0u8; len]; k + m];
        rs.reconstruct_into(&present, len, &mut rec).unwrap();
        prop_assert_eq!(rec, coded);
    }
}
