//! Galois-field arithmetic substrate for the double-replication Hadoop codes.
//!
//! The heptagon-local code of the paper computes two *global parity* blocks as
//! RAID-6-style functions of all 40 data blocks, which requires arithmetic over
//! a finite field. This crate provides a self-contained implementation of
//! GF(2^8):
//!
//! * [`Gf256`] — a field element with full arithmetic (add/sub = XOR,
//!   branch-free table multiplication, inversion, exponentiation),
//! * [`mod@slice`] — bulk operations on byte slices (XOR-accumulate,
//!   multiply-accumulate, fused matrix×block-vector products) used on whole
//!   storage blocks,
//! * [`kernel`] — the runtime-dispatched SIMD kernel layer behind [`mod@slice`],
//! * [`Matrix`] — dense matrices over GF(2^8) with Gauss–Jordan inversion
//!   and the Vandermonde constructor,
//! * [`ReedSolomon`] — a systematic Reed–Solomon erasure codec built on the
//!   matrix machinery; it backs both the stand-alone RS baseline and the
//!   global-parity computation of the heptagon-local code,
//! * [`bufpool`] — buffer policy for the layers above: the shelf of reusable
//!   block buffers and the constructor for caller-owned bulk buffers.
//!
//! # Kernel dispatch and performance
//!
//! Bulk operations bottom out in table-lookup SIMD kernels. On AVX-512
//! hosts with GFNI, a per-coefficient 8×8 bit-matrix drives one
//! `gf2p8affineqb` per 64-byte lane; elsewhere, split-nibble lookups — for a
//! coefficient `c`, the products of `c` with all 16 low nibbles and all 16
//! high nibbles are precomputed (at compile time, for every `c`) into two
//! 16-byte tables, so a single `pshufb` instruction multiplies 16–32 bytes
//! at once; see the `tables` internals and [`kernel`] for the four variants
//! (GFNI, AVX2, SSSE3, scalar reference) and the crate's `INTERNALS.md` for
//! the ones measured and rejected. The widest kernel the CPU supports is
//! detected **once** per process via `is_x86_feature_detected!` and cached;
//! everything in [`mod@slice`] then dispatches through two function-pointer
//! loads per *block-sized* call.
//!
//! Encode paths are allocation-free end to end: callers hand
//! [`ReedSolomon::encode_into`] (and the `*_into` functions in [`mod@slice`])
//! caller-owned output buffers, and the fused [`slice::matrix_mul_into`]
//! applies the whole parity sub-matrix one cache tile at a time rather than
//! one full pass per parity row.
//!
//! On top of the SIMD kernels, block-sized operations are *shard-parallel*:
//! buffers of at least [`slice::PAR_ENGAGE_MIN`] bytes are split into
//! tile-aligned byte ranges (each worker getting at least a
//! [`slice::PAR_MIN_LEN`] share) across the workspace worker pool. The pool width comes from
//! `DRC_SIM_THREADS` (the sibling knob of `DRC_GF_KERNEL`; both are trimmed,
//! treat an empty value as unset and warn once on stderr before falling back
//! from a bad one); `DRC_SIM_THREADS=1` keeps every path serial and
//! allocation-free, and all thread counts produce byte-identical output.
//!
//! # Safety
//!
//! The crate is `#![deny(unsafe_code)]` with two audited exceptions. One is
//! the [`kernel`] module, whose module docs state the two invariants (CPU
//! feature verified before a SIMD kernel becomes reachable; all pointer
//! arithmetic in-bounds with unaligned-tolerant loads/stores) that every
//! `unsafe` block there upholds. The other is a single foreign call in
//! [`bufpool`]: [`bufpool::bulk_with_capacity`] passes the aligned interior of a `Vec` it
//! just allocated to `madvise(MADV_HUGEPAGE)` — advice that changes how the
//! kernel backs those pages and nothing else, compiled only on Linux
//! (x86-64 / aarch64) and never under Miri.
//!
//! # Example
//!
//! ```
//! use drc_gf::{Gf256, ReedSolomon};
//!
//! # fn main() -> Result<(), drc_gf::GfError> {
//! // Field arithmetic.
//! let a = Gf256::new(0x57);
//! let b = Gf256::new(0x83);
//! assert_eq!(a * b, Gf256::new(0x31));
//! assert_eq!((a / b) * b, a);
//!
//! // Erasure coding: 4 data shards, 2 parity shards, any 2 losses
//! // recoverable; parities land in caller-owned buffers, no allocation.
//! let rs = ReedSolomon::new(4, 2)?;
//! let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
//! let mut parity = vec![vec![0u8; 16]; 2];
//! rs.encode_into(&data, &mut parity)?;
//!
//! // Lose a data shard and a parity shard.
//! let mut present: Vec<Option<&[u8]>> =
//!     data.iter().chain(&parity).map(|s| Some(s.as_slice())).collect();
//! present[1] = None;
//! present[4] = None;
//! let mut recovered = vec![vec![0u8; 16]; 6];
//! rs.reconstruct_into(&present, 16, &mut recovered)?;
//! assert_eq!(recovered[1], vec![1u8; 16]);
//! assert_eq!(recovered[4], parity[0]);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod bufpool;
mod error;
mod gf256;
pub mod kernel;
mod matrix;
mod rs;
pub mod slice;
mod tables;

pub use error::GfError;
pub use gf256::{Gf256, FIELD_SIZE, GROUP_ORDER, PRIMITIVE_POLY};
pub use matrix::Matrix;
pub use rs::ReedSolomon;
