//! Differential proptests for the shard-parallel paths: reconstruction and
//! encoding split across the worker pool must equal the single-threaded
//! result **byte-for-byte**, for every erasure pattern up to `r` losses.
//!
//! Buffers are sized past `slice::PAR_ENGAGE_MIN` with slack, so the
//! parallel split actually engages and the last range is a partial one (the
//! pool is pinned per-call via `rayon::with_num_threads`, so this holds
//! even on single-core hosts).

use proptest::prelude::*;

use drc_gf::{slice, Gf256, ReedSolomon};

/// All index subsets of `0..n` with at most `r` elements (including the
/// empty pattern — reconstruction with nothing missing must also agree).
fn erasure_patterns(n: usize, r: usize) -> Vec<Vec<usize>> {
    let mut patterns: Vec<Vec<usize>> = vec![Vec::new()];
    for size in 1..=r {
        let mut subset: Vec<usize> = (0..size).collect();
        loop {
            patterns.push(subset.clone());
            let mut i = size;
            let mut done = true;
            while i > 0 {
                i -= 1;
                if subset[i] != i + n - size {
                    subset[i] += 1;
                    for j in i + 1..size {
                        subset[j] = subset[j - 1] + 1;
                    }
                    done = false;
                    break;
                }
            }
            if done {
                break;
            }
        }
    }
    patterns
}

fn shard(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + salt * 131 + 7) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_reconstruct_matches_single_thread_for_all_patterns(
        k in 2usize..6,
        r in 1usize..4,
        extra in 0usize..257,
        threads in 2usize..5,
    ) {
        let len = slice::PAR_ENGAGE_MIN + extra; // engages the parallel split
        let rs = ReedSolomon::new(k, r).expect("valid parameters");
        let data: Vec<Vec<u8>> = (0..k).map(|i| shard(len, i)).collect();
        let mut parity = vec![vec![0u8; len]; r];
        rayon::with_num_threads(1, || rs.encode_into(&data, &mut parity).expect("encodes"));
        let coded: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

        for pattern in erasure_patterns(k + r, r) {
            let present: Vec<Option<&[u8]>> = coded
                .iter()
                .enumerate()
                .map(|(i, s)| (!pattern.contains(&i)).then_some(s.as_slice()))
                .collect();
            let mut serial = vec![vec![0u8; len]; k + r];
            rayon::with_num_threads(1, || {
                rs.reconstruct_into(&present, len, &mut serial).expect("reconstructs")
            });
            let mut parallel = vec![vec![0xa5u8; len]; k + r];
            rayon::with_num_threads(threads, || {
                rs.reconstruct_into(&present, len, &mut parallel).expect("reconstructs")
            });
            prop_assert_eq!(&serial, &parallel, "pattern {:?} diverged", pattern);
            prop_assert_eq!(&serial, &coded, "pattern {:?} misreconstructed", pattern);
        }
    }

    #[test]
    fn parallel_encode_matches_single_thread(
        k in 1usize..8,
        m in 1usize..4,
        extra in 0usize..257,
        threads in 2usize..5,
    ) {
        let len = slice::PAR_ENGAGE_MIN + extra;
        let rs = ReedSolomon::new(k, m).expect("valid parameters");
        let data: Vec<Vec<u8>> = (0..k).map(|i| shard(len, i + 3)).collect();
        let mut serial = vec![vec![0u8; len]; m];
        rayon::with_num_threads(1, || rs.encode_into(&data, &mut serial).expect("encodes"));
        let mut parallel = vec![vec![0x5au8; len]; m];
        rayon::with_num_threads(threads, || {
            rs.encode_into(&data, &mut parallel).expect("encodes")
        });
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_linear_combination_matches_single_thread(
        n in 1usize..7,
        extra in 0usize..513,
        threads in 2usize..5,
        coeff_seed in any::<u8>(),
    ) {
        let len = slice::PAR_ENGAGE_MIN + extra;
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| shard(len, i)).collect();
        let coeffs: Vec<Gf256> = (0..n)
            .map(|i| Gf256::new(coeff_seed.wrapping_mul(29).wrapping_add(i as u8)))
            .collect();
        let mut serial = vec![0u8; len];
        rayon::with_num_threads(1, || {
            slice::linear_combination_into(&coeffs, &blocks, &mut serial)
        });
        let mut parallel = vec![0xffu8; len];
        rayon::with_num_threads(threads, || {
            slice::linear_combination_into(&coeffs, &blocks, &mut parallel)
        });
        prop_assert_eq!(serial, parallel);
    }
}
