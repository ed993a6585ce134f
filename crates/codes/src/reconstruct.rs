//! Targeted stripe reconstruction: rebuild exactly the missing blocks
//! (data *or* parity) as linear combinations of whichever distinct blocks
//! survive, without materialising the whole decoded stripe.
//!
//! [`CodeStructure::decode`] answers "give me every data block", which the
//! repair path then re-encodes to regenerate lost parities — O(stripe) of
//! compute and buffers even when a single block is missing.
//! [`StripeReconstructor`] instead solves, once per failure pattern, for a
//! small coefficient matrix `C` with `target_rows = C · source_rows` over
//! the code's generator, and then applies `C` to the surviving payloads
//! with one fused [`drc_gf::slice::matrix_mul_into`] — over whole blocks,
//! or over any byte sub-range of them.
//!
//! The source selection mirrors `decode`'s greedy chooser (ascending,
//! data rows first) so the blocks it reads are the blocks a decode would
//! have read; the outputs are byte-identical because exact GF(2^8) linear
//! algebra has a unique answer for every recoverable pattern.

use std::collections::BTreeSet;

use drc_gf::Gf256;

use crate::error::CodeError;
use crate::layout::CodeStructure;

/// A solved reconstruction: which surviving blocks to read and the
/// coefficient row rebuilding each requested block from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeReconstructor {
    sources: Vec<usize>,
    targets: Vec<usize>,
    /// Row-major `targets.len() × sources.len()`.
    coeffs: Vec<Gf256>,
}

impl StripeReconstructor {
    /// Solves for the requested `targets` (distinct-block indices, data or
    /// parity) in terms of the `available` distinct blocks.
    ///
    /// # Errors
    ///
    /// [`CodeError::IndexOutOfRange`] for an out-of-range block index and
    /// [`CodeError::Unrecoverable`] when the available blocks do not span
    /// some target.
    pub fn plan(
        structure: &CodeStructure,
        available: &BTreeSet<usize>,
        targets: &[usize],
    ) -> Result<Self, CodeError> {
        let k = structure.data_blocks;
        let distinct = structure.layout.distinct_blocks();
        for &b in available.iter().chain(targets) {
            if b >= distinct {
                return Err(CodeError::IndexOutOfRange {
                    what: "distinct block",
                    index: b,
                    limit: distinct,
                });
            }
        }
        // Greedy independent source selection, in decode's order: ascending
        // with data (identity) rows first keeps the solved system small and
        // the read set identical to what a full decode would fetch.
        let mut candidates: Vec<usize> = available.iter().copied().collect();
        candidates.sort_by_key(|&b| (b >= k, b));
        let mut sources: Vec<usize> = Vec::with_capacity(k);
        for &b in &candidates {
            if sources.len() == k {
                break;
            }
            sources.push(b);
            if structure.generator.select_rows(&sources).rank() != sources.len() {
                sources.pop();
            }
        }
        // Solve C · G[sources] = G[targets] by Gauss–Jordan on the
        // transposed augmented system: columns are the k generator
        // coordinates, unknowns are one coefficient row per target.
        let r = sources.len();
        let t = targets.len();
        // aug[row][col]: row < k are generator coordinates; cols 0..r hold
        // G[sources]ᵀ, cols r.. hold G[targets]ᵀ.
        let mut aug: Vec<Vec<Gf256>> = (0..k)
            .map(|coord| {
                let mut row: Vec<Gf256> = Vec::with_capacity(r + t);
                row.extend(sources.iter().map(|&s| structure.generator.row(s)[coord]));
                row.extend(targets.iter().map(|&g| structure.generator.row(g)[coord]));
                row
            })
            .collect();
        let mut pivot_of: Vec<usize> = Vec::with_capacity(r);
        let mut row = 0;
        for col in 0..r {
            let Some(p) = (row..k).find(|&i| aug[i][col] != Gf256::ZERO) else {
                // Cannot happen: the source rows were chosen independent.
                continue;
            };
            aug.swap(row, p);
            let inv = aug[row][col].checked_inv()?;
            for x in aug[row].iter_mut() {
                *x *= inv;
            }
            // Eliminate the pivot column from every other row; the pivot row
            // is taken out so the borrow of its coefficients is disjoint.
            let pivot = std::mem::take(&mut aug[row]);
            for (i, other) in aug.iter_mut().enumerate() {
                if i != row && other[col] != Gf256::ZERO {
                    let f = other[col];
                    for (x, &p) in other.iter_mut().zip(&pivot) {
                        *x += f * p;
                    }
                }
            }
            aug[row] = pivot;
            pivot_of.push(col);
            row += 1;
        }
        // Rows beyond the pivot rank must be consistent (all-zero in the
        // augmented columns too), or the target is outside the span.
        let mut coeffs = vec![Gf256::ZERO; t * r];
        for (ti, &target) in targets.iter().enumerate() {
            if aug[row..k].iter().any(|a| a[r + ti] != Gf256::ZERO) {
                return Err(CodeError::Unrecoverable {
                    detail: format!(
                        "block {target} is outside the span of the {r} available \
                         independent blocks"
                    ),
                });
            }
            for (ri, &col) in pivot_of.iter().enumerate() {
                coeffs[ti * r + col] = aug[ri][r + ti];
            }
        }
        Ok(StripeReconstructor {
            sources,
            targets: targets.to_vec(),
            coeffs,
        })
    }

    /// The distinct-block indices to read, in the order
    /// [`StripeReconstructor::reconstruct_range`] expects its payloads.
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// The distinct-block indices being rebuilt, in output order.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// The row-major `targets × sources` coefficient matrix.
    pub fn coefficients(&self) -> &[Gf256] {
        &self.coeffs
    }

    /// Rebuilds the byte range `offset..limit` of every target:
    /// `outs[t][offset..limit] = Σ coeffs[t][s] · sources[s][offset..limit]`.
    ///
    /// `sources` and `outs` are whole-block buffers in
    /// [`StripeReconstructor::sources`] / [`StripeReconstructor::targets`]
    /// order; only the requested window is touched, so a caller can stream
    /// a stripe chunk by chunk while the rest of each block is still in
    /// flight.
    ///
    /// # Panics
    ///
    /// Panics on a count/length mismatch or a range beyond the block length.
    pub fn reconstruct_range<S, B>(
        &self,
        sources: &[S],
        outs: &mut [B],
        offset: usize,
        limit: usize,
    ) where
        S: AsRef<[u8]>,
        B: AsMut<[u8]>,
    {
        assert_eq!(sources.len(), self.sources.len(), "one payload per source");
        assert_eq!(outs.len(), self.targets.len(), "one buffer per target");
        let views: Vec<&[u8]> = sources.iter().map(|s| &s.as_ref()[offset..limit]).collect();
        let mut windows: Vec<&mut [u8]> = outs
            .iter_mut()
            .map(|o| &mut o.as_mut()[offset..limit])
            .collect();
        drc_gf::slice::matrix_mul_into(&self.coeffs, self.sources.len(), &views, &mut windows);
    }

    /// Rebuilds every target in full (the whole-block convenience over
    /// [`StripeReconstructor::reconstruct_range`]).
    ///
    /// # Panics
    ///
    /// As [`StripeReconstructor::reconstruct_range`].
    pub fn reconstruct_into<S, B>(&self, sources: &[S], outs: &mut [B])
    where
        S: AsRef<[u8]>,
        B: AsMut<[u8]>,
    {
        let len = sources
            .first()
            .map(|s| s.as_ref().len())
            .or_else(|| outs.first_mut().map(|o| o.as_mut().len()))
            .unwrap_or(0);
        self.reconstruct_range(sources, outs, 0, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CodeKind;
    use std::collections::BTreeMap;

    fn sample_block(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + salt * 7 + 1) as u8).collect()
    }

    /// Every code, every failure pattern within tolerance: the solver's
    /// rebuild of each missing block (data *and* parity) matches what
    /// encode produced.
    #[test]
    fn rebuilds_match_encode_for_every_code_and_single_and_double_failures() {
        let len = 512;
        for kind in [
            CodeKind::TWO_REP,
            CodeKind::THREE_REP,
            CodeKind::Pentagon,
            CodeKind::Heptagon,
            CodeKind::HeptagonLocal,
        ] {
            let code = kind.build().unwrap();
            let s = code.structure();
            let k = code.data_blocks();
            let data: Vec<Vec<u8>> = (0..k).map(|b| sample_block(len, b)).collect();
            // `encode` returns every distinct block (data prefix + parities).
            let coded = code.encode(&data).unwrap();
            let block = |b: usize| -> &[u8] { &coded[b] };
            let tol = code.fault_tolerance();
            let n = code.node_count();
            for f1 in 0..n {
                for f2 in f1..n {
                    let failed: BTreeSet<usize> = if f1 == f2 {
                        [f1].into()
                    } else if tol >= 2 {
                        [f1, f2].into()
                    } else {
                        continue;
                    };
                    let lost: BTreeSet<usize> = failed
                        .iter()
                        .flat_map(|&node| code.node_blocks(node).iter().copied())
                        .collect();
                    let available: BTreeSet<usize> = (0..code.distinct_blocks())
                        .filter(|b| {
                            code.block_locations(*b)
                                .iter()
                                .any(|node| !failed.contains(node))
                        })
                        .collect();
                    let targets: Vec<usize> = lost
                        .iter()
                        .copied()
                        .filter(|b| !available.contains(b))
                        .collect();
                    if targets.is_empty() {
                        continue;
                    }
                    let rec = StripeReconstructor::plan(s, &available, &targets)
                        .unwrap_or_else(|e| panic!("{kind}: plan {failed:?}: {e}"));
                    let sources: Vec<&[u8]> = rec.sources().iter().map(|&b| block(b)).collect();
                    let mut outs = vec![vec![0xeeu8; len]; targets.len()];
                    rec.reconstruct_into(&sources, &mut outs);
                    for (ti, &t) in rec.targets().iter().enumerate() {
                        assert_eq!(outs[ti], block(t), "{kind}: block {t} after {failed:?}");
                    }
                }
            }
        }
    }

    /// Chunked application is byte-identical to one whole-block pass, with
    /// non-dividing chunk sizes.
    #[test]
    fn range_application_is_chunk_invariant() {
        let len = 40_000;
        let code = CodeKind::Heptagon.build().unwrap();
        let k = code.data_blocks();
        let data: Vec<Vec<u8>> = (0..k).map(|b| sample_block(len, b)).collect();
        let coded = code.encode(&data).unwrap();
        // Withhold the first data block from the available set to force a
        // real GF solve rather than a unit-row copy.
        let lost = 0usize;
        let available: BTreeSet<usize> = (1..code.distinct_blocks()).collect();
        let rec = StripeReconstructor::plan(code.structure(), &available, &[lost]).unwrap();
        let sources: Vec<&[u8]> = rec.sources().iter().map(|&b| coded[b].as_slice()).collect();
        let mut whole = vec![vec![0u8; len]];
        rec.reconstruct_into(&sources, &mut whole);
        assert_eq!(whole[0], data[lost]);
        for chunk in [len + 5, 4096, 7777] {
            let mut chunked = vec![vec![0x11u8; len]];
            let mut off = 0;
            while off < len {
                let lim = (off + chunk).min(len);
                rec.reconstruct_range(&sources, &mut chunked, off, lim);
                off = lim;
            }
            assert_eq!(chunked, whole, "chunk {chunk}");
        }
    }

    /// The source selection mirrors decode's: a full decode from the same
    /// available set reads exactly the reconstructor's sources (plus the
    /// data rows it returns directly).
    #[test]
    fn unavailable_target_is_unrecoverable() {
        let code = CodeKind::TWO_REP.build().unwrap();
        // Both replicas of block 0 lost: nothing spans it.
        let available: BTreeSet<usize> = (1..code.data_blocks()).collect();
        let err = StripeReconstructor::plan(code.structure(), &available, &[0]).unwrap_err();
        assert!(matches!(err, CodeError::Unrecoverable { .. }), "{err}");
    }

    /// Against the oracle: targeted reconstruction agrees with the full
    /// decode on every data block it is asked for.
    #[test]
    fn agrees_with_full_decode() {
        let len = 256;
        // A Reed–Solomon stripe can afford to lose two distinct blocks;
        // the polygon codes only carry one parity among their distinct
        // blocks (their tolerance comes from replication).
        let code = CodeKind::ReedSolomon { data: 6, parity: 3 }
            .build()
            .unwrap();
        let s = code.structure();
        let k = code.data_blocks();
        let data: Vec<Vec<u8>> = (0..k).map(|b| sample_block(len, b)).collect();
        let coded = code.encode(&data).unwrap();
        // Drop data blocks 0 and 3.
        let mut payloads: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        for (b, payload) in coded.iter().enumerate() {
            if b == 0 || b == 3 {
                continue;
            }
            payloads.insert(b, payload.clone());
        }
        let decoded = s.decode(&payloads, len).unwrap();
        let available: BTreeSet<usize> = payloads.keys().copied().collect();
        let rec = StripeReconstructor::plan(s, &available, &[0, 3]).unwrap();
        let sources: Vec<&[u8]> = rec
            .sources()
            .iter()
            .map(|&b| payloads[&b].as_slice())
            .collect();
        let mut outs = vec![vec![0u8; len]; 2];
        rec.reconstruct_into(&sources, &mut outs);
        assert_eq!(outs[0], decoded[0]);
        assert_eq!(outs[1], decoded[3]);
    }
}
