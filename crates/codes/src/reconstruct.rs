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
//! with one fused [`drc_gf::slice::matrix_mul_into`].
//!
//! The source selection is `decode`'s greedy chooser
//! (`CodeStructure::independent_rows`: ascending, data rows first) so the
//! blocks it reads are the blocks a decode would have read; the outputs are byte-identical because exact GF(2^8) linear
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
        // Decode's chooser, so the read set is what a full decode would fetch.
        let sources = structure.independent_rows(available.iter().copied());
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
    /// [`StripeReconstructor::reconstruct_into`] expects its payloads.
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

    /// Rebuilds every target in full:
    /// `outs[t] = Σ coeffs[t][s] · sources[s]`, with `sources` and `outs` in
    /// [`StripeReconstructor::sources`] / [`StripeReconstructor::targets`]
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on a count/length mismatch between the payloads and the
    /// sources / targets.
    pub fn reconstruct_into<S, B>(&self, sources: &[S], outs: &mut [B])
    where
        S: AsRef<[u8]>,
        B: AsMut<[u8]>,
    {
        assert_eq!(sources.len(), self.sources.len(), "one payload per source");
        assert_eq!(outs.len(), self.targets.len(), "one buffer per target");
        let views: Vec<&[u8]> = sources.iter().map(AsRef::as_ref).collect();
        let mut outs: Vec<&mut [u8]> = outs.iter_mut().map(AsMut::as_mut).collect();
        drc_gf::slice::matrix_mul_into(&self.coeffs, self.sources.len(), &views, &mut outs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CodeKind;

    // Every rebuild against the encoded stripe — every code, every failure
    // pattern within tolerance, data and parity targets — is
    // `tests/plan_execution.rs`: the plan executor solves each fully-lost
    // block with this type.

    #[test]
    fn unavailable_target_is_unrecoverable() {
        let code = CodeKind::TWO_REP.build().unwrap();
        // Both replicas of block 0 lost: nothing spans it.
        let available: BTreeSet<usize> = (1..code.data_blocks()).collect();
        let err = StripeReconstructor::plan(code.structure(), &available, &[0]).unwrap_err();
        assert!(matches!(err, CodeError::Unrecoverable { .. }), "{err}");
    }
}
