//! Compile-time lookup tables for GF(2^8) arithmetic.
//!
//! Three table families, all generated by `const` evaluation from the
//! primitive polynomial `0x11d`:
//!
//! * [`EXP`] / [`LOG`] — antilog/log tables laid out so that scalar
//!   multiplication is **branch-free**: `LOG[0]` is the sentinel
//!   [`LOG_ZERO`], and `EXP` is zero-padded far enough that any
//!   log-sum involving the sentinel lands in the
//!   zero pad, yielding the correct product `0` without testing the operands.
//!   Non-zero log sums reach at most `254 + 254 = 508`.
//! * [`NIB_LO`] / [`NIB_HI`] — split-nibble tables: for each coefficient
//!   `c`, `NIB_LO[c][x] = c·x` and `NIB_HI[c][x] = c·(x << 4)` for
//!   `x < 16`. Because multiplication by `c` is GF(2)-linear,
//!   `c·b = NIB_LO[c][b & 0xf] ^ NIB_HI[c][b >> 4]`; the two 16-entry
//!   tables fit exactly in one `pshufb` register each, which is what the
//!   split-nibble SIMD kernels exploit.
//! * [`GFNI`] — per-coefficient 8×8 GF(2) bit-matrices in the operand
//!   layout of `gf2p8affineqb`: multiplication by a constant is GF(2)-linear
//!   over the input bits, so one affine instruction computes 64 products per
//!   cycle *in our 0x11d field* (the sibling `gf2p8mulb` instruction is
//!   hard-wired to the AES polynomial 0x11b and cannot be used directly).
//!   The instruction's convention is `out.bit[i] = parity(matrix.byte[7-i] &
//!   in_byte)`, i.e. qword byte `7-i` holds row `i`, whose bit `j` is bit
//!   `i` of `c·x^j`.

/// The primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 used to construct the
/// field (the RAID-6 polynomial).
pub const PRIMITIVE_POLY: u16 = 0x11d;

/// Number of elements in the field.
pub const FIELD_SIZE: usize = 256;

/// Order of the multiplicative group (number of non-zero elements).
pub const GROUP_ORDER: usize = FIELD_SIZE - 1;

/// Sentinel "logarithm of zero". The doubled antilog table occupies indices
/// `0..=509`; any index sum involving the sentinel is at least `510` (and at
/// most `2 * 510 = 1020`), landing in the zero padding.
pub(crate) const LOG_ZERO: u16 = 510;

/// Length of the padded antilog table: must exceed `2 * LOG_ZERO = 1020`.
pub(crate) const EXP_LEN: usize = 1024;

pub(crate) struct Tables {
    /// `exp[i] = g^(i mod 255)` for `i <= 508`, zero beyond (see [`LOG_ZERO`]).
    pub exp: [u8; EXP_LEN],
    /// `log[a]` = discrete log of `a`; `log[0]` = [`LOG_ZERO`].
    pub log: [u16; FIELD_SIZE],
    /// `nib_lo[c][x] = c · x` for `x < 16`.
    pub nib_lo: [[u8; 16]; FIELD_SIZE],
    /// `nib_hi[c][x] = c · (x << 4)` for `x < 16`.
    pub nib_hi: [[u8; 16]; FIELD_SIZE],
    /// `gfni[c]` = the multiply-by-`c` bit-matrix for `gf2p8affineqb`
    /// (see the module docs for the byte/row layout).
    pub gfni: [u64; FIELD_SIZE],
}

/// `a · b` through the tables under construction (the const-context twin of
/// `Gf256::mul_bytes`).
const fn product(exp: &[u8; EXP_LEN], log: &[u16; FIELD_SIZE], a: usize, b: usize) -> u8 {
    exp[log[a] as usize + log[b] as usize]
}

const fn build_tables() -> Tables {
    let mut exp = [0u8; EXP_LEN];
    let mut log = [0u16; FIELD_SIZE];
    log[0] = LOG_ZERO;
    let mut x: u16 = 1;
    let mut i = 0;
    while i < GROUP_ORDER {
        exp[i] = x as u8;
        exp[i + GROUP_ORDER] = x as u8;
        log[x as usize] = i as u16;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    // Indices 510.. stay zero: every log-sum involving LOG_ZERO lands there.
    // Non-zero log sums never exceed 254 + 254 = 508.

    let mut nib_lo = [[0u8; 16]; FIELD_SIZE];
    let mut nib_hi = [[0u8; 16]; FIELD_SIZE];
    let mut c = 0usize;
    while c < FIELD_SIZE {
        let mut x = 0usize;
        while x < 16 {
            nib_lo[c][x] = product(&exp, &log, c, x);
            nib_hi[c][x] = product(&exp, &log, c, x << 4);
            x += 1;
        }
        c += 1;
    }

    let mut gfni = [0u64; FIELD_SIZE];
    let mut c = 0usize;
    while c < FIELD_SIZE {
        let mut mat = 0u64;
        let mut i = 0; // output bit index
        while i < 8 {
            let mut row = 0u8; // mask over input bits j
            let mut j = 0;
            while j < 8 {
                if (product(&exp, &log, c, 1 << j) >> i) & 1 != 0 {
                    row |= 1 << j;
                }
                j += 1;
            }
            mat |= (row as u64) << ((7 - i) * 8);
            i += 1;
        }
        gfni[c] = mat;
        c += 1;
    }

    Tables {
        exp,
        log,
        nib_lo,
        nib_hi,
        gfni,
    }
}

pub(crate) static TABLES: Tables = build_tables();

#[cfg(test)]
mod tests {
    use super::*;

    /// Schoolbook carry-less multiplication with reduction — the ground truth.
    fn slow_mul(a: u8, b: u8) -> u8 {
        let mut result: u16 = 0;
        let mut a = a as u16;
        let mut b = b as u16;
        while b != 0 {
            if b & 1 != 0 {
                result ^= a;
            }
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= PRIMITIVE_POLY;
            }
            b >>= 1;
        }
        result as u8
    }

    #[test]
    fn mul_bytes_matches_reference() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(crate::Gf256::mul_bytes(a, b), slow_mul(a, b), "{a}*{b}");
            }
        }
    }

    #[test]
    fn branch_free_log_layout_covers_zero() {
        // exp[log[a] + log[b]] must be correct for EVERY byte pair, including
        // zeros, with no conditionals.
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                let idx = TABLES.log[a as usize] as usize + TABLES.log[b as usize] as usize;
                assert!(idx < EXP_LEN);
                assert_eq!(
                    TABLES.exp[idx],
                    slow_mul(a as u8, b as u8),
                    "exp path {a}*{b}"
                );
            }
        }
    }

    #[test]
    fn gfni_matrices_multiply_correctly() {
        // Scalar model of gf2p8affineqb: out.bit[i] = parity(byte[7-i] & b).
        fn affine_apply(mat: u64, b: u8) -> u8 {
            let mut out = 0u8;
            for i in 0..8 {
                let row = (mat >> ((7 - i) * 8)) as u8;
                out |= (((row & b).count_ones() & 1) as u8) << i;
            }
            out
        }
        for c in 0..=255u16 {
            for b in 0..=255u16 {
                assert_eq!(
                    affine_apply(TABLES.gfni[c as usize], b as u8),
                    slow_mul(c as u8, b as u8),
                    "gfni matrix path {c}*{b}"
                );
            }
        }
    }

    #[test]
    fn split_nibble_tables_compose() {
        for c in 0..=255u16 {
            for b in 0..=255u16 {
                let lo = TABLES.nib_lo[c as usize][(b & 0x0f) as usize];
                let hi = TABLES.nib_hi[c as usize][(b >> 4) as usize];
                assert_eq!(lo ^ hi, slow_mul(c as u8, b as u8), "nibble path {c}*{b}");
            }
        }
    }
}
