//! Buffer-reusing stripe encoding.
//!
//! Writing a large file means encoding stripe after stripe with the same
//! code and block length. [`StripeEncoder`] owns the parity scratch buffers
//! and hands them to [`ErasureCode::encode_into`], so after the first stripe
//! every subsequent encode performs **no heap allocation** — the buffers are
//! only reallocated when the code geometry or block length changes.
//! `encode_into` bottoms out in the fused, cache-tiled
//! `drc_gf::slice::matrix_mul_into`, which runs on the calling thread.

use crate::{CodeError, ErasureCode};

/// Reusable scratch buffers for encoding a sequence of stripes.
///
/// # Example
///
/// ```
/// use drc_codes::{CodeKind, ErasureCode, StripeEncoder};
///
/// # fn main() -> Result<(), drc_codes::CodeError> {
/// let code = CodeKind::Pentagon.build()?;
/// let mut encoder = StripeEncoder::new();
/// for stripe in 0..4u8 {
///     let data: Vec<Vec<u8>> = (0..9).map(|i| vec![stripe ^ i; 1024]).collect();
///     // After the first iteration this allocates nothing.
///     let parities = encoder.encode(code.as_ref(), &data)?;
///     assert_eq!(parities.len(), 1); // the pentagon's XOR parity
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct StripeEncoder {
    parities: Vec<Vec<u8>>,
}

impl StripeEncoder {
    /// Creates an encoder with no scratch space yet.
    pub fn new() -> Self {
        StripeEncoder::default()
    }

    /// Encodes one stripe, returning the non-data distinct blocks (blocks
    /// `k..distinct_blocks()` — the local and global parities).
    ///
    /// The data blocks may live in any borrowable container (`Vec<u8>`,
    /// `bytes::Bytes`, `&[u8]` views): the encoder reads them in place, so
    /// a repair path holding freshly decoded blocks feeds them straight in
    /// without cloning each one into a `Vec<u8>` first.
    ///
    /// The returned slice borrows the encoder's scratch buffers; copy out
    /// whatever must outlive the next call.
    ///
    /// # Errors
    ///
    /// As [`ErasureCode::encode_into`].
    pub fn encode<'a, B: AsRef<[u8]>>(
        &'a mut self,
        code: &dyn ErasureCode,
        data: &[B],
    ) -> Result<&'a [Vec<u8>], CodeError> {
        let parity_count = code.distinct_blocks() - code.data_blocks();
        let len = data.first().map(|b| b.as_ref().len()).unwrap_or(0);
        if self.parities.len() != parity_count || self.parities.iter().any(|b| b.len() != len) {
            // Geometry changed: shelve the old scratch and draw fresh
            // buffers from the block pool so back-to-back encoders (one per
            // experiment cell) stop malloc/freeing block-sized vectors.
            for old in self.parities.drain(..) {
                drc_gf::bufpool::recycle(old);
            }
            for _ in 0..parity_count {
                self.parities.push(drc_gf::bufpool::take(len));
            }
        }
        crate::traits::encode_parities_into(code, data, &mut self.parities)?;
        Ok(&self.parities)
    }
}

impl Drop for StripeEncoder {
    fn drop(&mut self) {
        for buf in self.parities.drain(..) {
            drc_gf::bufpool::recycle(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodeKind;

    #[test]
    fn matches_plain_encode_for_every_code() {
        let mut encoder = StripeEncoder::new();
        for kind in [
            CodeKind::TWO_REP,
            CodeKind::Pentagon,
            CodeKind::Heptagon,
            CodeKind::HeptagonLocal,
            CodeKind::RAID_M_10_9,
            CodeKind::ReedSolomon { data: 6, parity: 3 },
        ] {
            let code = kind.build().unwrap();
            let k = code.data_blocks();
            let data: Vec<Vec<u8>> = (0..k)
                .map(|i| (0..97).map(|j| (i * 13 + j * 7 + 3) as u8).collect())
                .collect();
            let full = code.encode(&data).unwrap();
            let parities = encoder.encode(code.as_ref(), &data).unwrap();
            assert_eq!(parities, &full[k..], "parity mismatch for {kind}");
        }
    }

    #[test]
    fn reuses_buffers_across_stripes() {
        let code = CodeKind::Heptagon.build().unwrap();
        let mut encoder = StripeEncoder::new();
        let k = code.data_blocks();
        let data: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8; 256]).collect();
        let first_ptr = {
            let p = encoder.encode(code.as_ref(), &data).unwrap();
            p[0].as_ptr()
        };
        let second_ptr = {
            let p = encoder.encode(code.as_ref(), &data).unwrap();
            p[0].as_ptr()
        };
        assert_eq!(first_ptr, second_ptr, "scratch buffers must be reused");
    }
}
