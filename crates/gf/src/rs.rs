//! A systematic Reed–Solomon erasure codec over GF(2^8).
//!
//! The codec turns `k` equally-sized data shards into `k + m` coded shards
//! (the first `k` are the data shards verbatim) such that *any* `k` of the
//! coded shards suffice to reconstruct the data. It is used in two places in
//! the reproduction:
//!
//! * as the stand-alone single-copy Reed–Solomon baseline (the kind of code
//!   Facebook's HDFS-RAID applies to cold data, mentioned in the paper's
//!   introduction), and
//! * to compute the two *global parity* blocks of the heptagon-local code,
//!   which the paper describes as "Galois field arithmetic as in the case of
//!   RAID-6".

use crate::slice;
use crate::{GfError, Matrix};

/// A systematic Reed–Solomon codec with `data` data shards and `parity`
/// parity shards.
///
/// # Example
///
/// ```
/// use drc_gf::ReedSolomon;
///
/// # fn main() -> Result<(), drc_gf::GfError> {
/// let rs = ReedSolomon::new(6, 3)?;
/// assert_eq!(rs.total_shards(), 9);
/// assert_eq!(rs.parity_shards(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReedSolomon {
    data: usize,
    parity: usize,
    /// Full generator matrix: identity on top, parity rows below.
    generator: Matrix,
}

impl ReedSolomon {
    /// Creates a codec with the given numbers of data and parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::InvalidShardCounts`] if either count is zero or the
    /// total exceeds 256 (the construction would run out of distinct
    /// evaluation points).
    pub fn new(data: usize, parity: usize) -> Result<Self, GfError> {
        if data == 0 || parity == 0 || data + parity > 256 {
            return Err(GfError::InvalidShardCounts { data, parity });
        }
        // Build a systematic generator from a Vandermonde matrix: take the
        // (data+parity) x data Vandermonde matrix, then right-multiply by the
        // inverse of its top square so the top block becomes the identity.
        let vand = Matrix::vandermonde(data + parity, data)?;
        let top: Vec<usize> = (0..data).collect();
        let top_inv = vand.select_rows(&top).inverse()?;
        let generator = vand.checked_mul(&top_inv)?;
        Ok(ReedSolomon {
            data,
            parity,
            generator,
        })
    }

    /// Number of parity shards `m`.
    pub fn parity_shards(&self) -> usize {
        self.parity
    }

    /// Total number of coded shards `k + m`.
    pub fn total_shards(&self) -> usize {
        self.data + self.parity
    }

    /// Returns the full systematic generator matrix (`(k+m) × k`).
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// Computes the parity shards into caller-owned output buffers, without
    /// allocating.
    ///
    /// `parity_out` must hold exactly `m` buffers, each of the common shard
    /// length; they are fully overwritten (no zeroing needed beforehand).
    /// This is the hot encode path: it applies the whole parity sub-matrix
    /// through the fused, cache-blocked [`slice::matrix_mul_into`] and
    /// performs **no heap allocation** — per block or otherwise.
    ///
    /// # Errors
    ///
    /// Returns an error if the number or lengths of the data shards are
    /// wrong, or if `parity_out` does not match the parity count / shard
    /// length.
    pub fn encode_into<S, B>(&self, shards: &[S], parity_out: &mut [B]) -> Result<(), GfError>
    where
        S: AsRef<[u8]>,
        B: AsMut<[u8]>,
    {
        let len = self.validate_data_shards(shards)?;
        if parity_out.len() != self.parity {
            return Err(GfError::WrongShardCount {
                expected: self.parity,
                found: parity_out.len(),
            });
        }
        if parity_out.iter_mut().any(|b| b.as_mut().len() != len) {
            return Err(GfError::UnequalShardLengths);
        }
        let coeffs = self.generator.rows_flat(self.data, self.total_shards());
        slice::matrix_mul_into(coeffs, self.data, shards, parity_out);
        Ok(())
    }

    /// Checks shard count and length consistency, returning the shard length.
    fn validate_data_shards<S: AsRef<[u8]>>(&self, shards: &[S]) -> Result<usize, GfError> {
        if shards.len() != self.data {
            return Err(GfError::WrongShardCount {
                expected: self.data,
                found: shards.len(),
            });
        }
        let len = shards[0].as_ref().len();
        if shards.iter().any(|s| s.as_ref().len() != len) {
            return Err(GfError::UnequalShardLengths);
        }
        Ok(len)
    }

    /// Reconstructs all `k + m` shards from any `k` surviving shards into
    /// caller-owned output buffers.
    ///
    /// `present[i]` is `Some(bytes)` if coded shard `i` survives and `None`
    /// otherwise; `shard_len` gives the length every shard must have (used
    /// when all data shards are missing). `out` must hold `k + m` buffers of
    /// length `shard_len`, which are fully overwritten. No block-sized
    /// buffers are allocated: surviving data shards are copied, missing ones
    /// decoded directly into their output buffer, and parities re-encoded
    /// through the fused zero-allocation path (only the small `k × k`
    /// decoding matrix is heap-allocated, and only when a data shard is
    /// actually missing).
    ///
    /// No product layer calls this — the stack decodes through
    /// `drc_codes::StripeReconstructor` plans over the generator — it stays
    /// because the benchmark ledger's `gf.rs_reconstruct_into_gib_s` probe
    /// binds it.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than `k` shards are present, lengths are
    /// inconsistent, or `present` / `out` is not of length `k + m`.
    pub fn reconstruct_into<B>(
        &self,
        present: &[Option<&[u8]>],
        shard_len: usize,
        out: &mut [B],
    ) -> Result<(), GfError>
    where
        B: AsRef<[u8]> + AsMut<[u8]>,
    {
        if present.len() != self.total_shards() {
            return Err(GfError::WrongShardCount {
                expected: self.total_shards(),
                found: present.len(),
            });
        }
        if out.len() != self.total_shards() {
            return Err(GfError::WrongShardCount {
                expected: self.total_shards(),
                found: out.len(),
            });
        }
        if out.iter_mut().any(|b| b.as_mut().len() != shard_len) {
            return Err(GfError::UnequalShardLengths);
        }
        let available: Vec<usize> = present
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|_| i))
            .collect();
        if available.len() < self.data {
            return Err(GfError::TooFewShards {
                needed: self.data,
                present: available.len(),
            });
        }
        if present.iter().flatten().any(|s| s.len() != shard_len) {
            return Err(GfError::UnequalShardLengths);
        }

        let (data_out, parity_out) = out.split_at_mut(self.data);

        if (0..self.data).all(|j| present[j].is_some()) {
            // All data shards survive: plain copies, no matrix inversion.
            for (j, buf) in data_out.iter_mut().enumerate() {
                buf.as_mut()
                    // drc-lint: allow(panic-hygiene): this branch requires all data
                    // shards present (the `all(is_some)` condition above).
                    .copy_from_slice(present[j].expect("checked present"));
            }
        } else {
            // Select k surviving rows of the generator and invert them to
            // obtain the decoding matrix.
            let chosen = &available[..self.data];
            let sub = self.generator.select_rows(chosen);
            let decode = sub.inverse()?;
            let chosen_shards: Vec<&[u8]> = chosen
                .iter()
                // drc-lint: allow(panic-hygiene): `chosen` indexes only shards that
                // were present when the row subset was selected above.
                .map(|&i| present[i].expect("chosen shard must be present"))
                .collect();
            // Recover each data shard directly into its output buffer:
            // data_j = sum_i decode[j][i] * shard[chosen[i]]. Surviving data
            // shards are cheaper to copy than to re-derive.
            for (j, buf) in data_out.iter_mut().enumerate() {
                match present[j] {
                    Some(shard) => buf.as_mut().copy_from_slice(shard),
                    None => {
                        slice::linear_combination_into(decode.row(j), &chosen_shards, buf.as_mut())
                    }
                }
            }
        }
        // Re-encode every parity from the recovered data (fused, no
        // allocation); restoring surviving parities by copy would cost the
        // same memory traffic.
        self.encode_into(&*data_out, parity_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 37 + j * 11 + 5) as u8).collect())
            .collect()
    }

    /// All `k + m` coded shards: the data verbatim, then `encode_into`'s
    /// parities.
    fn encode(rs: &ReedSolomon, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, GfError> {
        let len = data.first().map_or(0, Vec::len);
        let mut parity = vec![vec![0u8; len]; rs.parity_shards()];
        rs.encode_into(data, &mut parity)?;
        Ok(data.iter().cloned().chain(parity).collect())
    }

    fn reconstruct(
        rs: &ReedSolomon,
        present: &[Option<&[u8]>],
        shard_len: usize,
    ) -> Result<Vec<Vec<u8>>, GfError> {
        let mut out = vec![vec![0u8; shard_len]; rs.total_shards()];
        rs.reconstruct_into(present, shard_len, &mut out)?;
        Ok(out)
    }

    #[test]
    fn constructor_validation() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(3, 0).is_err());
        assert!(ReedSolomon::new(200, 100).is_err());
        assert!(ReedSolomon::new(10, 4).is_ok());
    }

    #[test]
    fn generator_is_systematic() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let top: Vec<usize> = (0..4).collect();
        assert_eq!(rs.generator().select_rows(&top), Matrix::identity(4));
        // Parities are the generator's parity rows applied to the data.
        let data = sample_data(4, 32);
        let coded = encode(&rs, &data).unwrap();
        assert_eq!(coded.len(), 6);
        for p in 0..2 {
            let expect = slice::linear_combination(rs.generator().row(4 + p), &data, 32);
            assert_eq!(coded[4 + p], expect);
        }
    }

    #[test]
    fn single_parity_protects_any_single_loss() {
        // With one parity shard, losing any single shard must be recoverable.
        let rs = ReedSolomon::new(5, 1).unwrap();
        assert!(rs.generator().row(5).iter().all(|c| !c.is_zero()));
        let data = sample_data(5, 16);
        let coded = encode(&rs, &data).unwrap();
        for lost in 0..6 {
            let present: Vec<Option<&[u8]>> = coded
                .iter()
                .enumerate()
                .map(|(i, s)| (i != lost).then_some(s.as_slice()))
                .collect();
            assert_eq!(reconstruct(&rs, &present, 16).unwrap(), coded);
        }
    }

    #[test]
    fn reconstruct_from_every_possible_loss_pattern() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = sample_data(5, 24);
        let coded = encode(&rs, &data).unwrap();
        let n = rs.total_shards();
        // Every subset of up to 3 lost shards must be recoverable.
        for a in 0..n {
            for b in a..n {
                for c in b..n {
                    let mut present: Vec<Option<&[u8]>> =
                        coded.iter().map(|s| Some(s.as_slice())).collect();
                    present[a] = None;
                    present[b] = None;
                    present[c] = None;
                    let rec = reconstruct(&rs, &present, 24).unwrap();
                    assert_eq!(rec, coded, "failed for losses {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn reconstruct_fails_with_too_few_shards() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 8);
        let coded = encode(&rs, &data).unwrap();
        let present: Vec<Option<&[u8]>> = coded
            .iter()
            .enumerate()
            .map(|(i, s)| if i < 3 { Some(s.as_slice()) } else { None })
            .collect();
        assert_eq!(
            reconstruct(&rs, &present, 8),
            Err(GfError::TooFewShards {
                needed: 4,
                present: 3
            })
        );
    }

    #[test]
    fn shard_count_and_length_validation() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        assert_eq!(
            encode(&rs, &sample_data(2, 8)),
            Err(GfError::WrongShardCount {
                expected: 3,
                found: 2
            })
        );
        let mut bad = sample_data(3, 8);
        bad[1].push(0);
        assert_eq!(encode(&rs, &bad), Err(GfError::UnequalShardLengths));
        // Parity buffers of the wrong count / length are rejected too.
        let data = sample_data(3, 8);
        assert_eq!(
            rs.encode_into(&data, &mut [vec![0u8; 8]]),
            Err(GfError::WrongShardCount {
                expected: 2,
                found: 1
            })
        );
        assert_eq!(
            rs.encode_into(&data, &mut [vec![0u8; 8], vec![0u8; 7]]),
            Err(GfError::UnequalShardLengths)
        );
        let coded = encode(&rs, &data).unwrap();
        let mut present: Vec<Option<&[u8]>> = coded.iter().map(|s| Some(s.as_slice())).collect();
        present.pop();
        assert!(reconstruct(&rs, &present, 8).is_err());
    }

    #[test]
    fn accessors() {
        let rs = ReedSolomon::new(9, 1).unwrap();
        assert_eq!(rs.parity_shards(), 1);
        assert_eq!(rs.total_shards(), 10);
        assert_eq!(rs.generator().rows(), 10);
        assert_eq!(rs.generator().cols(), 9);
    }
}
