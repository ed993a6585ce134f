//! Cell-based fan-out for the experiment layer.
//!
//! A **cell** is one independent unit of experimental work — one
//! experiment × [`drc_codes::CodeKind`] × configuration point — that builds
//! its own private `ClusterNet` and rng, shares nothing with its siblings,
//! and returns a typed result. Every experiment module expresses its sweep
//! as an ordered list of cells and hands them to [`run_cells`], which fans
//! them out across the persistent `rayon` worker pool and merges the
//! results **in the original cell order after the join**.
//!
//! # Determinism
//!
//! Emitted results are byte-identical at every harness width:
//!
//! * each cell seeds its own rng and simulates in virtual time, so its
//!   result does not depend on when or where it runs;
//! * results are merged in fixed cell order after all cells complete, so
//!   scheduling order never reaches the output;
//! * if several cells fail, the error of the *earliest* cell in cell order
//!   is returned, regardless of which failure was observed first.
//!
//! Cells must not communicate through shared mutable state; the
//! `parallel-float-reduction` rule in `drc-lint` additionally rejects
//! float accumulation inside pool closures across the workspace's library
//! sources, so cross-cell reductions stay on the caller after the join.
//!
//! # Width
//!
//! The fan-out width is resolved per [`run_cells`] call: a thread-local
//! [`with_jobs`] override (used by differential tests and the benchmark),
//! else the worker-pool width (`rayon::current_num_threads()`, which
//! `DRC_SIM_THREADS` sets). The harness has no environment variable of its
//! own.
//!
//! Width 1 — `with_jobs(1, …)` or `DRC_SIM_THREADS=1` — is the fully serial
//! path: the cells run inline on the caller, in order.
//!
//! # Payload bytes
//!
//! The virtual-time cells store none. Every figure `overlap`,
//! `shuffle_contention`, `failure_trace` and `repair_pipeline` report is
//! virtual time or a byte count, and both are functions of block *lengths*:
//! a driver calls [`stripe_files`], which builds one length-only
//! [`EncodedFile`] per code (`EncodedFile::sized` — the stripes × blocks
//! structure with nothing behind it), and every cell of that code ingests
//! it through `write_encoded`. Placement draws, timed events, plans, chunk
//! trains, phases and counters are exactly those of a real payload of that
//! length (`crates/hdfs/tests/sized_differential.rs` holds the two to each
//! other step by step); what is skipped is the payload fill, the parity
//! encode and the GF rebuilds nobody read. A block costs no memory, so the
//! full-effort arms run the paper's 128 MiB blocks.
//!
//! Real bytes live where they are the point: `encoding` measures real
//! encodes over a [`pattern_payload`], and the byte-exactness proofs (the
//! hdfs tests, `repair_pipeline`'s `#[cfg(test)]` replica check) build
//! `EncodedFile::encode(pattern_payload(..))` files. A cell that needs the
//! whole-file read's *timing* calls `read_file_blocks` — the handle read
//! works on both kinds — never `read_file`, which is a typed error on a
//! length-only file.

use std::cell::Cell;

use drc_cluster::ClusterSpec;
use drc_codes::CodeKind;
use drc_hdfs::{Bytes, EncodedFile};

use crate::DrcError;

/// The storage experiments' deployment: the paper's 25-node simulation
/// cluster with `block_bytes` blocks.
///
/// # Errors
///
/// [`ClusterSpec`] counts its block size in whole MiB: a zero or
/// non-whole-MiB `block_bytes` is [`DrcError::InvalidExperiment`] rather
/// than a silently different block size.
pub fn byte_cluster_spec(block_bytes: usize) -> Result<ClusterSpec, DrcError> {
    const MIB: usize = 1024 * 1024;
    if block_bytes == 0 || !block_bytes.is_multiple_of(MIB) {
        return Err(DrcError::InvalidExperiment {
            reason: format!(
                "block size must be a positive whole number of MiB, got {block_bytes} bytes"
            ),
        });
    }
    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = (block_bytes / MIB) as u64;
    Ok(spec)
}

/// The deterministic test pattern every byte experiment stores: byte `i` is
/// the old period-256 ramp `(i * 31 + 7) as u8` XORed with a hash of its
/// 256-byte line index `i >> 8`.
///
/// The line salt makes block-aligned windows pairwise distinct — with the
/// bare ramp every block of every file was identical, so a repair or
/// degraded read that restored the *wrong* block still passed every byte
/// comparison. Byte `i` depends on `i` alone, so a prefix of a long payload
/// equals the short payload: cells of different sizes slice one buffer.
pub fn pattern_payload(len: usize) -> Bytes {
    let ramp: [u8; 256] = std::array::from_fn(|i| (i * 31 + 7) as u8);
    let mut buf = vec![0u8; len];
    for (line, chunk) in buf.chunks_mut(ramp.len()).enumerate() {
        // Fibonacci hashing: the top byte of line × 2^32/φ.
        let salt = ((line as u32).wrapping_mul(0x9E37_79B1) >> 24) as u8;
        // One broadcast XOR per line: auto-vectorises at memory speed.
        for (byte, r) in chunk.iter_mut().zip(&ramp) {
            *byte = r ^ salt;
        }
    }
    Bytes::from(buf)
}

/// Builds one experiment's files: per code, a length-only [`EncodedFile`]
/// of `stripes_of(k)` whole stripes of `block_bytes` blocks (`k` being the
/// code's data blocks per stripe). See the module docs: the cells' figures
/// depend on lengths alone, so no payload is filled and nothing is encoded.
///
/// # Errors
///
/// Returns an error if `block_bytes` is not a positive whole number of MiB
/// (see [`byte_cluster_spec`]) or a code fails to build.
pub fn stripe_files(
    codes: &[CodeKind],
    block_bytes: usize,
    stripes_of: impl Fn(usize) -> usize,
) -> Result<Vec<EncodedFile>, DrcError> {
    byte_cluster_spec(block_bytes)?;
    codes
        .iter()
        .map(|&code| {
            let k = code.build()?.data_blocks();
            let len = stripes_of(k) * k * block_bytes;
            Ok(EncodedFile::sized(code, block_bytes, len)?)
        })
        .collect()
}

thread_local! {
    /// 0 = no override in force.
    static JOBS_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with the calling thread's harness width pinned to `n`.
///
/// The override is thread-local and restored on exit, including on panic —
/// the same discipline as `rayon::with_num_threads`, and safe under a
/// parallel test runner where mutating the environment would race.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "harness width must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = JOBS_OVERRIDE.with(|c| {
        let prev = c.get();
        c.set(n);
        Restore(prev)
    });
    f()
}

/// The harness width [`run_cells`] will use on this thread: the
/// [`with_jobs`] override, else the pool width.
fn current_jobs() -> usize {
    match JOBS_OVERRIDE.with(|c| c.get()) {
        0 => rayon::current_num_threads(),
        n => n,
    }
}

/// Runs an ordered list of independent cells, each returning a typed
/// result, and hands back the results in the original cell order.
///
/// At width 1 the cells run inline on the caller, in order (the serial
/// path). At width N > 1 they are spawned onto the persistent worker pool
/// with the caller participating; results land in per-cell slots and are
/// merged in cell order after the join, so the output is identical at
/// every width. See the module docs for the full determinism contract.
///
/// Note that the width override only pins the *harness* fan-out: a cell
/// executing on a pool worker still sees the global pool width for any
/// nested shard-parallel work (GF encodes), which is itself byte-identical
/// at every width.
///
/// # Errors
///
/// Returns the error of the earliest failing cell in cell order. (The
/// serial path stops at the first error; the parallel path completes every
/// cell first, then picks the earliest — the reported error is the same.)
pub fn run_cells<T, F>(cells: Vec<F>) -> Result<Vec<T>, DrcError>
where
    T: Send,
    F: FnOnce() -> Result<T, DrcError> + Send,
{
    let width = current_jobs().min(cells.len()).max(1);
    if width <= 1 {
        let mut out = Vec::with_capacity(cells.len());
        for cell in cells {
            out.push(cell()?);
        }
        return Ok(out);
    }
    let mut slots: Vec<Option<Result<T, DrcError>>> = Vec::new();
    slots.resize_with(cells.len(), || None);
    rayon::with_num_threads(width, || {
        rayon::scope(|s| {
            for (slot, cell) in slots.iter_mut().zip(cells) {
                s.spawn(move |_| *slot = Some(cell()));
            }
        })
    });
    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            // Unreachable: the scope joins every spawned task (panics
            // propagate out of `scope`), but stay panic-free regardless.
            None => {
                return Err(DrcError::InvalidExperiment {
                    reason: "harness cell completed without a result".to_string(),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order_at_any_width() {
        let cells = |n: usize| {
            (0..n)
                .map(|i| move || -> Result<usize, DrcError> { Ok(i * i) })
                .collect::<Vec<_>>()
        };
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for width in [1, 2, 4] {
            let got = with_jobs(width, || run_cells(cells(37))).unwrap();
            assert_eq!(got, expect, "width {width}");
        }
    }

    #[test]
    fn earliest_error_in_cell_order_wins() {
        let cells = (0..8)
            .map(|i| {
                move || -> Result<usize, DrcError> {
                    if i % 2 == 1 {
                        Err(DrcError::InvalidExperiment {
                            reason: format!("cell {i}"),
                        })
                    } else {
                        Ok(i)
                    }
                }
            })
            .collect::<Vec<_>>();
        for width in [1, 4] {
            let err = with_jobs(width, || run_cells(cells.clone())).unwrap_err();
            assert_eq!(
                err,
                DrcError::InvalidExperiment {
                    reason: "cell 1".to_string()
                },
                "width {width}"
            );
        }
    }

    #[test]
    fn with_jobs_overrides_and_restores() {
        let ambient = current_jobs();
        assert_eq!(ambient, rayon::current_num_threads());
        with_jobs(3, || {
            assert_eq!(current_jobs(), 3);
            with_jobs(1, || assert_eq!(current_jobs(), 1));
            assert_eq!(current_jobs(), 3);
        });
        assert_eq!(current_jobs(), ambient);
    }

    #[test]
    fn cells_borrow_the_drivers_payload() {
        let payload = pattern_payload(4096);
        let payload = &payload;
        let cells = (1..=4usize)
            .map(|i| move || -> Result<Bytes, DrcError> { Ok(payload.slice(0..i * 1024)) })
            .collect::<Vec<_>>();
        let views = with_jobs(2, || run_cells(cells)).unwrap();
        for (i, view) in views.iter().enumerate() {
            assert_eq!(view.as_ptr(), payload.as_ptr(), "zero-copy");
            assert_eq!(view.len(), (i + 1) * 1024);
        }
    }

    #[test]
    fn no_two_block_aligned_windows_of_a_payload_are_equal() {
        // 512 windows is past the 256 a one-byte per-block offset could
        // ever tell apart; 1 MiB is the experiments' block size.
        let payload = pattern_payload(32 << 20);
        for block in [64 << 10, 1 << 20] {
            let windows: std::collections::BTreeSet<&[u8]> = payload.chunks(block).collect();
            assert_eq!(windows.len(), payload.len() / block, "block size {block}");
        }
    }

    #[test]
    fn a_payload_prefix_is_the_shorter_payload() {
        let long = pattern_payload(70_000);
        for len in [0, 1, 255, 256, 257, 65_536, 69_999] {
            assert_eq!(pattern_payload(len), long.slice(..len), "len {len}");
        }
        // The first line keeps the historical ramp.
        assert_eq!(&long[..3], &[7, 38, 69]);
    }

    #[test]
    fn stripe_files_are_length_only_and_reject_fractional_mib_blocks() {
        let codes = [CodeKind::TWO_REP, CodeKind::Pentagon];
        let files = stripe_files(&codes, 2 << 20, |k| 10usize.div_ceil(k)).unwrap();
        let lens: Vec<usize> = files.iter().map(EncodedFile::len).collect();
        // 2-rep: 10 stripes of 1 block; pentagon: 2 stripes of 9.
        assert_eq!(lens, [10 * (2 << 20), 18 * (2 << 20)]);
        assert!(files.iter().all(|f| f.block_size() == 2 << 20));
        assert_eq!(byte_cluster_spec(2 << 20).unwrap().block_size_mb, 2);
        // 1.5 MiB used to run at 1 MiB, 512 KiB and 0 at 1 MiB too.
        for bad in [0, 512 * 1024, 1536 * 1024, (1 << 20) + 1] {
            for err in [
                byte_cluster_spec(bad).err(),
                stripe_files(&codes, bad, |_| 1).err(),
            ] {
                assert!(
                    matches!(err, Some(DrcError::InvalidExperiment { .. })),
                    "{bad}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn empty_cell_list_is_fine() {
        let cells: Vec<fn() -> Result<u8, DrcError>> = Vec::new();
        assert_eq!(run_cells(cells).unwrap(), Vec::<u8>::new());
    }
}
