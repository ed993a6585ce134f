//! Encode arithmetic on block-sized payloads, held to the direct
//! definition: every code's stripe encode applies its generator's parity
//! rows. (`plan_execution.rs` evaluates every partial parity of every
//! repair and degraded read on its own, as its sender's row-weighted sum,
//! and holds the partials for each target to the encoded target.)

use drc_codes::CodeKind;
use drc_gf::slice;

fn payload(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 + salt * 101 + 13) as u8).collect()
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
