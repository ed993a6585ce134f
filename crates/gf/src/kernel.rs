//! Runtime-dispatched bulk kernels for GF(2^8) slice operations.
//!
//! # Design
//!
//! A [`Kernel`] is a named bundle of three function pointers — bulk XOR,
//! bulk scalar multiply, and fused multiply-accumulate — that every public
//! operation in [`crate::slice`] is built from. Implementations:
//!
//! | name | lane width | technique | available |
//! |---|---|---|---|
//! | `gfni` | 64 B | `gf2p8affineqb` with per-coefficient 8×8 bit-matrices | x86-64 with GFNI + AVX-512F |
//! | `avx2` | 32 B | split-nibble `vpshufb` table lookups | x86-64 with AVX2 |
//! | `ssse3` | 16 B | split-nibble `pshufb` table lookups | x86-64 with SSSE3 |
//! | `reference` | 1 B | branch-free log/antilog scalar | everywhere |
//!
//! The dispatch tier order is `gfni > avx2 > ssse3 > reference`: the GFNI
//! kernel computes a whole 64-byte product in **one** `gf2p8affineqb`
//! instruction — constant-multiplication in GF(2^8) is GF(2)-linear, so it
//! is an 8×8 bit-matrix applied per byte, which also side-steps
//! `gf2p8mulb`'s hard-wired AES polynomial (0x11b, not our 0x11d) — while
//! the other two SIMD tiers are the familiar split-nibble lookup. Every SIMD
//! tier hands the bytes past its last whole lane to the `reference` scalar
//! functions. The tiers measured and dropped are recorded in the crate's
//! `INTERNALS.md`.
//!
//! [`active`] picks the widest kernel the CPU supports **once** (cached in an
//! atomic) so steady-state dispatch is a single relaxed load plus an indirect
//! call per bulk operation — amortised over whole blocks, not per byte. The
//! `DRC_GF_KERNEL` environment variable (`gfni|avx2|ssse3|reference`) pins
//! the choice for benchmarks and differential tests. It is trimmed, an
//! empty value counts as unset, and a
//! value that names no kernel runnable on this host falls back to
//! auto-detection **with a one-time stderr warning** naming the valid set,
//! so a typo cannot silently benchmark the wrong kernel. [`all`] lists every
//! kernel the host can run, which the proptests use to verify byte-for-byte
//! agreement and the benches use for per-variant throughput curves;
//! [`with_forced`] pins the active kernel for a closure (bench/test hook).
//!
//! # Safety
//!
//! This is the only module in the crate allowed to use `unsafe`, and every
//! unsafe block is one of exactly two shapes:
//!
//! 1. **ISA intrinsics behind verified CPU support.** The `target_feature`
//!    functions (`*_gfni`, `*_avx512`, `*_avx2`, `*_ssse3`) are only ever
//!    reachable through a [`Kernel`] whose constructor site is guarded by
//!    `is_x86_feature_detected!`. Calling them is therefore never UB by
//!    reason of unsupported instructions.
//! 2. **Unaligned loads/stores inside bounds.** All pointer arithmetic walks
//!    `chunks_exact`-style over ranges `i * LANE .. (i + 1) * LANE` with
//!    `i < len / LANE`, so every access is in-bounds, and the `loadu`/
//!    `storeu` forms have no alignment requirement. Residual tails are
//!    handled with safe scalar code.
//!
//! The wrappers additionally `assert_eq!` slice lengths *before* entering
//! unsafe code, so the invariants above hold for any caller input.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicPtr, Ordering};

use crate::tables::TABLES;

/// A bundle of bulk GF(2^8) kernels sharing one implementation technique.
///
/// All functions require `dst.len() == src.len()`; the safe wrappers in
/// [`crate::slice`] check this before dispatch.
pub struct Kernel {
    name: &'static str,
    xor_assign: fn(&mut [u8], &[u8]),
    scale_assign: fn(&mut [u8], u8),
    mul_acc: fn(&mut [u8], &[u8], u8),
}

impl Kernel {
    /// The kernel's name (`gfni`, `avx2`, `ssse3` or `reference`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `dst[i] ^= src[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn xor_assign(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "xor_assign requires equal lengths");
        (self.xor_assign)(dst, src);
    }

    /// `dst[i] = coeff · dst[i]`.
    #[inline]
    pub fn scale_assign(&self, dst: &mut [u8], coeff: u8) {
        (self.scale_assign)(dst, coeff);
    }

    /// `dst[i] ^= coeff · src[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn mul_acc(&self, dst: &mut [u8], src: &[u8], coeff: u8) {
        assert_eq!(dst.len(), src.len(), "mul_acc requires equal lengths");
        (self.mul_acc)(dst, src, coeff);
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("name", &self.name).finish()
    }
}

// ---------------------------------------------------------------------------
// Reference kernel: branch-free scalar log/antilog.
// ---------------------------------------------------------------------------

fn xor_assign_scalar(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

fn scale_assign_reference(dst: &mut [u8], coeff: u8) {
    let log_c = TABLES.log[coeff as usize] as usize;
    for d in dst.iter_mut() {
        *d = TABLES.exp[log_c + TABLES.log[*d as usize] as usize];
    }
}

fn mul_acc_reference(dst: &mut [u8], src: &[u8], coeff: u8) {
    let log_c = TABLES.log[coeff as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= TABLES.exp[log_c + TABLES.log[*s as usize] as usize];
    }
}

static REFERENCE: Kernel = Kernel {
    name: "reference",
    xor_assign: xor_assign_scalar,
    scale_assign: scale_assign_reference,
    mul_acc: mul_acc_reference,
};

// ---------------------------------------------------------------------------
// x86-64 SIMD kernels: split-nibble pshufb.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Caller must ensure SSSE3 is available and `dst.len() == src.len()`.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_acc_ssse3_impl(dst: &mut [u8], src: &[u8], coeff: u8) {
        // SAFETY: the caller upholds this fn's `# Safety` contract (the
        // required CPU feature is enabled, lengths match); all pointer
        // arithmetic below stays inside the slices' bounds.
        unsafe {
            let lo_tbl = _mm_loadu_si128(TABLES.nib_lo[coeff as usize].as_ptr() as *const __m128i);
            let hi_tbl = _mm_loadu_si128(TABLES.nib_hi[coeff as usize].as_ptr() as *const __m128i);
            let mask = _mm_set1_epi8(0x0f);
            let lanes = dst.len() / 16;
            let d_ptr = dst.as_mut_ptr();
            let s_ptr = src.as_ptr();
            for i in 0..lanes {
                let s = _mm_loadu_si128(s_ptr.add(i * 16) as *const __m128i);
                let lo = _mm_and_si128(s, mask);
                let hi = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
                let prod =
                    _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi));
                let d = _mm_loadu_si128(d_ptr.add(i * 16) as *const __m128i);
                _mm_storeu_si128(d_ptr.add(i * 16) as *mut __m128i, _mm_xor_si128(d, prod));
            }
            mul_acc_reference(&mut dst[lanes * 16..], &src[lanes * 16..], coeff);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure SSSE3 is available and `dst.len() == src.len()`.
    #[target_feature(enable = "ssse3")]
    unsafe fn scale_assign_ssse3_impl(dst: &mut [u8], coeff: u8) {
        // SAFETY: the caller upholds this fn's `# Safety` contract (the
        // required CPU feature is enabled, lengths match); all pointer
        // arithmetic below stays inside the slices' bounds.
        unsafe {
            let lo_tbl = _mm_loadu_si128(TABLES.nib_lo[coeff as usize].as_ptr() as *const __m128i);
            let hi_tbl = _mm_loadu_si128(TABLES.nib_hi[coeff as usize].as_ptr() as *const __m128i);
            let mask = _mm_set1_epi8(0x0f);
            let lanes = dst.len() / 16;
            let d_ptr = dst.as_mut_ptr();
            for i in 0..lanes {
                let d = _mm_loadu_si128(d_ptr.add(i * 16) as *const __m128i);
                let lo = _mm_and_si128(d, mask);
                let hi = _mm_and_si128(_mm_srli_epi64(d, 4), mask);
                let prod =
                    _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi));
                _mm_storeu_si128(d_ptr.add(i * 16) as *mut __m128i, prod);
            }
            scale_assign_reference(&mut dst[lanes * 16..], coeff);
        }
    }

    fn mul_acc_ssse3(dst: &mut [u8], src: &[u8], coeff: u8) {
        // SAFETY: this kernel is only registered after
        // `is_x86_feature_detected!("ssse3")`; lengths checked by the wrapper.
        unsafe { mul_acc_ssse3_impl(dst, src, coeff) }
    }

    fn scale_assign_ssse3(dst: &mut [u8], coeff: u8) {
        // SAFETY: as above.
        unsafe { scale_assign_ssse3_impl(dst, coeff) }
    }

    pub(super) static SSSE3: Kernel = Kernel {
        name: "ssse3",
        xor_assign: xor_assign_scalar,
        scale_assign: scale_assign_ssse3,
        mul_acc: mul_acc_ssse3,
    };

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_acc_avx2_impl(dst: &mut [u8], src: &[u8], coeff: u8) {
        // SAFETY: the caller upholds this fn's `# Safety` contract (the
        // required CPU feature is enabled, lengths match); all pointer
        // arithmetic below stays inside the slices' bounds.
        unsafe {
            let lo_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                TABLES.nib_lo[coeff as usize].as_ptr() as *const __m128i,
            ));
            let hi_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                TABLES.nib_hi[coeff as usize].as_ptr() as *const __m128i,
            ));
            let mask = _mm256_set1_epi8(0x0f);
            let lanes = dst.len() / 32;
            let d_ptr = dst.as_mut_ptr();
            let s_ptr = src.as_ptr();
            for i in 0..lanes {
                let s = _mm256_loadu_si256(s_ptr.add(i * 32) as *const __m256i);
                let lo = _mm256_and_si256(s, mask);
                let hi = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_tbl, lo),
                    _mm256_shuffle_epi8(hi_tbl, hi),
                );
                let d = _mm256_loadu_si256(d_ptr.add(i * 32) as *const __m256i);
                _mm256_storeu_si256(d_ptr.add(i * 32) as *mut __m256i, _mm256_xor_si256(d, prod));
            }
            mul_acc_reference(&mut dst[lanes * 32..], &src[lanes * 32..], coeff);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn scale_assign_avx2_impl(dst: &mut [u8], coeff: u8) {
        // SAFETY: the caller upholds this fn's `# Safety` contract (the
        // required CPU feature is enabled, lengths match); all pointer
        // arithmetic below stays inside the slices' bounds.
        unsafe {
            let lo_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                TABLES.nib_lo[coeff as usize].as_ptr() as *const __m128i,
            ));
            let hi_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                TABLES.nib_hi[coeff as usize].as_ptr() as *const __m128i,
            ));
            let mask = _mm256_set1_epi8(0x0f);
            let lanes = dst.len() / 32;
            let d_ptr = dst.as_mut_ptr();
            for i in 0..lanes {
                let d = _mm256_loadu_si256(d_ptr.add(i * 32) as *const __m256i);
                let lo = _mm256_and_si256(d, mask);
                let hi = _mm256_and_si256(_mm256_srli_epi64(d, 4), mask);
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_tbl, lo),
                    _mm256_shuffle_epi8(hi_tbl, hi),
                );
                _mm256_storeu_si256(d_ptr.add(i * 32) as *mut __m256i, prod);
            }
            scale_assign_reference(&mut dst[lanes * 32..], coeff);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn xor_assign_avx2_impl(dst: &mut [u8], src: &[u8]) {
        // SAFETY: the caller upholds this fn's `# Safety` contract (the
        // required CPU feature is enabled, lengths match); all pointer
        // arithmetic below stays inside the slices' bounds.
        unsafe {
            let lanes = dst.len() / 32;
            let d_ptr = dst.as_mut_ptr();
            let s_ptr = src.as_ptr();
            for i in 0..lanes {
                let s = _mm256_loadu_si256(s_ptr.add(i * 32) as *const __m256i);
                let d = _mm256_loadu_si256(d_ptr.add(i * 32) as *const __m256i);
                _mm256_storeu_si256(d_ptr.add(i * 32) as *mut __m256i, _mm256_xor_si256(d, s));
            }
            xor_assign_scalar(&mut dst[lanes * 32..], &src[lanes * 32..]);
        }
    }

    fn mul_acc_avx2(dst: &mut [u8], src: &[u8], coeff: u8) {
        // SAFETY: this kernel is only registered after
        // `is_x86_feature_detected!("avx2")`; lengths checked by the wrapper.
        unsafe { mul_acc_avx2_impl(dst, src, coeff) }
    }

    fn scale_assign_avx2(dst: &mut [u8], coeff: u8) {
        // SAFETY: as above.
        unsafe { scale_assign_avx2_impl(dst, coeff) }
    }

    fn xor_assign_avx2(dst: &mut [u8], src: &[u8]) {
        // SAFETY: as above.
        unsafe { xor_assign_avx2_impl(dst, src) }
    }

    pub(super) static AVX2: Kernel = Kernel {
        name: "avx2",
        xor_assign: xor_assign_avx2,
        scale_assign: scale_assign_avx2,
        mul_acc: mul_acc_avx2,
    };

    // -----------------------------------------------------------------------
    // AVX-512 tier: 64-byte lanes.
    //
    // `gfni` applies the per-coefficient 8×8 bit-matrix from `TABLES.gfni`
    // with one `gf2p8affineqb` per lane (the matrix route is mandatory: the
    // dedicated `gf2p8mulb` multiplier is hard-wired to the AES polynomial
    // 0x11b, not this field's 0x11d).
    // -----------------------------------------------------------------------

    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available and `dst.len() == src.len()`.
    #[target_feature(enable = "avx512f")]
    unsafe fn xor_assign_avx512_impl(dst: &mut [u8], src: &[u8]) {
        // SAFETY: the caller upholds this fn's `# Safety` contract (the
        // required CPU feature is enabled, lengths match); all pointer
        // arithmetic below stays inside the slices' bounds.
        unsafe {
            let lanes = dst.len() / 64;
            let d_ptr = dst.as_mut_ptr();
            let s_ptr = src.as_ptr();
            for i in 0..lanes {
                let s = _mm512_loadu_si512(s_ptr.add(i * 64) as *const _);
                let d = _mm512_loadu_si512(d_ptr.add(i * 64) as *const _);
                _mm512_storeu_si512(d_ptr.add(i * 64) as *mut _, _mm512_xor_si512(d, s));
            }
            xor_assign_scalar(&mut dst[lanes * 64..], &src[lanes * 64..]);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure GFNI + AVX-512F are available and
    /// `dst.len() == src.len()`.
    #[target_feature(enable = "gfni,avx512f")]
    unsafe fn mul_acc_gfni_impl(dst: &mut [u8], src: &[u8], coeff: u8) {
        // SAFETY: the caller upholds this fn's `# Safety` contract (the
        // required CPU feature is enabled, lengths match); all pointer
        // arithmetic below stays inside the slices' bounds.
        unsafe {
            let mat = _mm512_set1_epi64(TABLES.gfni[coeff as usize] as i64);
            let lanes = dst.len() / 64;
            let d_ptr = dst.as_mut_ptr();
            let s_ptr = src.as_ptr();
            for i in 0..lanes {
                let s = _mm512_loadu_si512(s_ptr.add(i * 64) as *const _);
                let prod = _mm512_gf2p8affine_epi64_epi8::<0>(s, mat);
                let d = _mm512_loadu_si512(d_ptr.add(i * 64) as *const _);
                _mm512_storeu_si512(d_ptr.add(i * 64) as *mut _, _mm512_xor_si512(d, prod));
            }
            mul_acc_reference(&mut dst[lanes * 64..], &src[lanes * 64..], coeff);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure GFNI + AVX-512F are available.
    #[target_feature(enable = "gfni,avx512f")]
    unsafe fn scale_assign_gfni_impl(dst: &mut [u8], coeff: u8) {
        // SAFETY: the caller upholds this fn's `# Safety` contract (the
        // required CPU feature is enabled, lengths match); all pointer
        // arithmetic below stays inside the slices' bounds.
        unsafe {
            let mat = _mm512_set1_epi64(TABLES.gfni[coeff as usize] as i64);
            let lanes = dst.len() / 64;
            let d_ptr = dst.as_mut_ptr();
            for i in 0..lanes {
                let d = _mm512_loadu_si512(d_ptr.add(i * 64) as *const _);
                let prod = _mm512_gf2p8affine_epi64_epi8::<0>(d, mat);
                _mm512_storeu_si512(d_ptr.add(i * 64) as *mut _, prod);
            }
            scale_assign_reference(&mut dst[lanes * 64..], coeff);
        }
    }

    fn mul_acc_gfni(dst: &mut [u8], src: &[u8], coeff: u8) {
        // SAFETY: this kernel is only registered after
        // `is_x86_feature_detected!("gfni")` + `("avx512f")`; lengths
        // checked by the wrapper.
        unsafe { mul_acc_gfni_impl(dst, src, coeff) }
    }

    fn scale_assign_gfni(dst: &mut [u8], coeff: u8) {
        // SAFETY: as above.
        unsafe { scale_assign_gfni_impl(dst, coeff) }
    }

    fn xor_assign_avx512(dst: &mut [u8], src: &[u8]) {
        // SAFETY: the one registration site (gfni) verifies avx512f; lengths
        // checked by the wrapper.
        unsafe { xor_assign_avx512_impl(dst, src) }
    }

    pub(super) static GFNI: Kernel = Kernel {
        name: "gfni",
        xor_assign: xor_assign_avx512,
        scale_assign: scale_assign_gfni,
        mul_acc: mul_acc_gfni,
    };
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Every kernel the current host can execute, widest first
/// (`gfni > avx2 > ssse3 > reference`).
pub fn all() -> Vec<&'static Kernel> {
    let mut kernels: Vec<&'static Kernel> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("gfni")
            && std::arch::is_x86_feature_detected!("avx512f")
        {
            kernels.push(&x86::GFNI);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            kernels.push(&x86::AVX2);
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            kernels.push(&x86::SSSE3);
        }
    }
    kernels.push(&REFERENCE);
    kernels
}

/// The portable scalar kernel (differential-testing baseline).
pub fn reference() -> &'static Kernel {
    &REFERENCE
}

/// Resolves a raw `DRC_GF_KERNEL` value under the policy both env knobs
/// share: the value is trimmed, an empty one counts as unset (`Ok(None)`),
/// the name of a host-runnable kernel is `Ok(Some(_))`, and anything else is
/// `Err` carrying the warning that names the valid set.
fn parse_override(raw: &str) -> Result<Option<&'static Kernel>, String> {
    let name = raw.trim();
    if name.is_empty() {
        return Ok(None);
    }
    let kernels = all();
    if let Some(kern) = kernels.iter().copied().find(|k| k.name() == name) {
        return Ok(Some(kern));
    }
    let valid: Vec<&'static str> = kernels.iter().map(|k| k.name()).collect();
    Err(format!(
        "drc_gf: DRC_GF_KERNEL={name:?} matches no kernel runnable on this host; \
         falling back to auto-detection ({}). Valid values here: {}.",
        valid[0],
        valid.join(", ")
    ))
}

fn select() -> &'static Kernel {
    match parse_override(&std::env::var("DRC_GF_KERNEL").unwrap_or_default()) {
        Ok(Some(kern)) => return kern,
        Ok(None) => {}
        Err(warning) => {
            // Warn exactly once: a typo'd benchmark run must not silently
            // measure the auto-detected kernel.
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| eprintln!("{warning}"));
        }
    }
    all()[0]
}

static ACTIVE: AtomicPtr<Kernel> = AtomicPtr::new(std::ptr::null_mut());

/// The kernel used by [`crate::slice`]: the widest supported one, selected
/// once and cached.
pub fn active() -> &'static Kernel {
    let cached = ACTIVE.load(Ordering::Relaxed);
    if !cached.is_null() {
        // SAFETY: the pointer was stored from a `&'static Kernel` below or
        // in `with_forced`.
        return unsafe { &*cached };
    }
    let chosen = select();
    ACTIVE.store(chosen as *const Kernel as *mut Kernel, Ordering::Relaxed);
    chosen
}

/// Runs `f` with the **process-wide** active kernel pinned to `kern`,
/// restoring the previous selection on exit (including on panic).
///
/// Bench/test hook: because the pin is global rather than thread-local, work
/// on every thread of the process runs on `kern` while it is in force. Do
/// not race it against concurrent measurements that care about *their*
/// kernel choice.
pub fn with_forced<R>(kern: &'static Kernel, f: impl FnOnce() -> R) -> R {
    struct Restore(*mut Kernel);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.store(self.0, Ordering::Relaxed);
        }
    }
    let prev = ACTIVE.swap(kern as *const Kernel as *mut Kernel, Ordering::Relaxed);
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiers this crate ships, widest first.
    const TIERS: [&str; 4] = ["gfni", "avx2", "ssse3", "reference"];

    #[test]
    fn all_is_an_ordered_subset_of_the_four_tiers_ending_in_reference() {
        let names: Vec<&str> = all().iter().map(|k| k.name()).collect();
        assert_eq!(names.last(), Some(&"reference"));
        let tier = |n: &str| {
            TIERS
                .iter()
                .position(|t| *t == n)
                .unwrap_or_else(|| panic!("unexpected kernel {n}"))
        };
        for pair in names.windows(2) {
            assert!(tier(pair[0]) < tier(pair[1]), "order violated: {names:?}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gfni_registers_first_on_supporting_hosts() {
        if std::arch::is_x86_feature_detected!("gfni")
            && std::arch::is_x86_feature_detected!("avx512f")
        {
            assert_eq!(
                all()[0].name(),
                "gfni",
                "gfni host must dispatch-select gfni"
            );
        }
    }

    #[test]
    fn override_resolves_every_host_kernel_trimmed_and_treats_empty_as_unset() {
        for kern in all() {
            for raw in [kern.name().to_string(), format!(" {}\n", kern.name())] {
                let found = parse_override(&raw).expect("listed kernel resolves");
                assert!(
                    std::ptr::eq(found.expect("not unset"), kern),
                    "{raw:?} must return the listed kernel"
                );
            }
        }
        assert!(matches!(parse_override(""), Ok(None)));
        assert!(matches!(parse_override("  \t"), Ok(None)));
        assert!(parse_override("not-a-kernel").is_err());
        assert!(parse_override("AVX2").is_err(), "names are case-sensitive");
    }

    #[test]
    fn unknown_override_warning_names_the_valid_set() {
        let msg = parse_override(" avx512 ").expect_err("no such kernel");
        assert!(msg.contains("DRC_GF_KERNEL=\"avx512\""), "{msg}");
        assert!(msg.contains("falling back to auto-detection"), "{msg}");
        // Exactly the host's kernels, each one of the four kept tiers.
        let names: Vec<&str> = all().iter().map(|k| k.name()).collect();
        assert!(names.iter().all(|n| TIERS.contains(n)), "{names:?}");
        let listed = format!("Valid values here: {}.", names.join(", "));
        assert!(msg.ends_with(&listed), "{msg}");
    }

    #[test]
    fn with_forced_pins_and_restores() {
        let outer = active();
        let forced = reference();
        with_forced(forced, || {
            assert!(std::ptr::eq(active(), forced));
        });
        assert!(std::ptr::eq(active(), outer));
        // Restores even when the closure panics.
        let r = std::panic::catch_unwind(|| with_forced(forced, || panic!("boom")));
        assert!(r.is_err());
        assert!(std::ptr::eq(active(), outer));
    }
}
