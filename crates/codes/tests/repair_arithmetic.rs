//! Repair and encode arithmetic on block-sized payloads, held to the direct
//! definition: every partial-parity combination of every repair plan, for
//! **every** failure pattern up to each array code's fault tolerance, is
//! the `mul_acc` sum it stands for, and every code's stripe encode applies
//! its generator's parity rows.

use std::collections::BTreeSet;

use drc_codes::{combine_partial_parity_into, CodeKind, TransferPayload};
use drc_gf::{slice, Gf256};

/// All node subsets of `0..n` with 1..=r elements.
fn failure_patterns(n: usize, r: usize) -> Vec<BTreeSet<usize>> {
    let mut patterns = Vec::new();
    for size in 1..=r {
        let mut subset: Vec<usize> = (0..size).collect();
        loop {
            patterns.push(subset.iter().copied().collect());
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

fn payload(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 + salt * 101 + 13) as u8).collect()
}

/// Every partial-parity transfer of every repair plan, for every failure
/// pattern up to the code's tolerance, combined into a dirty buffer: the
/// bytes must equal the direct `mul_acc` sum.
#[test]
fn partial_parity_combine_is_the_direct_sum_for_all_patterns() {
    let len = 4 * slice::TILE + 129;
    for kind in [
        CodeKind::Pentagon,
        CodeKind::Heptagon,
        CodeKind::HeptagonLocal,
    ] {
        let code = kind.build().expect("code builds");
        let blocks: Vec<Vec<u8>> = (0..code.distinct_blocks())
            .map(|b| payload(len, b))
            .collect();
        // A coefficient per distinct block (plans may combine parity blocks
        // too, whose XOR weight the caller supplies): non-zero pseudo-random
        // weights exercise the full GF path, not just the XOR fast path.
        let weights: Vec<Gf256> = (0..code.distinct_blocks())
            .map(|b| Gf256::new((b * 17 + 3) as u8))
            .collect();
        let tolerance = code.fault_tolerance();
        // Plan every failure pattern up to tolerance, collecting the distinct
        // (combines, target) partial-parity transfers across all of them —
        // identical transfers recur in many patterns, so deduplicating keeps
        // the block-sized combine work bounded without losing coverage.
        let mut partials: BTreeSet<(Vec<usize>, usize)> = BTreeSet::new();
        for pattern in failure_patterns(code.node_count(), tolerance) {
            let plan = code
                .repair_plan(&pattern)
                .unwrap_or_else(|e| panic!("{kind}: {pattern:?} must be repairable: {e}"));
            for transfer in &plan.transfers {
                if let TransferPayload::PartialParity { combines, target } = &transfer.payload {
                    partials.insert((combines.clone(), *target));
                }
            }
        }
        assert!(
            !partials.is_empty(),
            "{kind}: the array codes must exercise partial-parity transfers"
        );
        for (combines, target) in &partials {
            let inputs: Vec<&[u8]> = combines.iter().map(|&b| blocks[b].as_slice()).collect();
            let mut combined = vec![0xeeu8; len];
            combine_partial_parity_into(&weights, combines, &inputs, &mut combined);
            let mut expect = vec![0u8; len];
            for (&b, input) in combines.iter().zip(&inputs) {
                slice::mul_acc(&mut expect, input, weights[b]);
            }
            assert_eq!(
                combined, expect,
                "{kind}: partial parity for target block {target} is wrong"
            );
        }
    }
}

/// Stripe encoding through the default `encode_into` (the fused matrix
/// product) writes, over dirty buffers, each parity block as its generator
/// row applied to the data, for every evaluated code.
#[test]
fn stripe_encode_applies_the_generator_parity_rows_for_every_code() {
    let len = 4 * slice::TILE + 321;
    for kind in [
        CodeKind::TWO_REP,
        CodeKind::Pentagon,
        CodeKind::Heptagon,
        CodeKind::HeptagonLocal,
        CodeKind::RAID_M_10_9,
        CodeKind::ReedSolomon { data: 6, parity: 3 },
    ] {
        let code = kind.build().expect("code builds");
        let k = code.data_blocks();
        let data: Vec<Vec<u8>> = (0..k).map(|i| payload(len, i)).collect();
        let parity_count = code.distinct_blocks() - k;
        let mut parities = vec![vec![0x11u8; len]; parity_count];
        code.encode_into(&data, &mut parities).expect("encodes");
        for (p, parity) in parities.iter().enumerate() {
            let row = code.structure().generator.row(k + p);
            assert_eq!(
                *parity,
                slice::linear_combination(row, &data, len),
                "{kind}: parity block {}",
                k + p
            );
        }
    }
}
