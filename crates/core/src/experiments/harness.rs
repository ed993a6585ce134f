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
//! Real bytes exist in the experiments only to prove the codes and repairs
//! correct; every reported figure is virtual time or a byte count. As in
//! the paper's deployment, a file is therefore striped and encoded **once
//! per experiment**, not once per cell: a driver calls [`stripe_files`],
//! which builds one [`pattern_payload`] as long as its largest file and one
//! [`EncodedFile`] per code over a zero-copy prefix of it, and every cell
//! of that code ingests the same file through `write_encoded` — handle
//! clones, no payload byte touched. The driver owns the files and the
//! cells borrow them ([`run_cells`] has no `'static` bound), so payload and
//! parities are released when the driver returns: immutable data shared
//! for the length of one experiment, never process-wide state.

use std::cell::Cell;

use drc_cluster::ClusterSpec;
use drc_codes::CodeKind;
use drc_hdfs::{Bytes, EncodedFile};

use crate::DrcError;

/// The byte experiments' deployment: the paper's 25-node simulation cluster
/// with `block_bytes` blocks (whole MiB, at least one).
pub fn byte_cluster_spec(block_bytes: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = (block_bytes as u64 / (1024 * 1024)).max(1);
    spec
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

/// Builds one experiment's files: per code, `stripes_of(k)` whole stripes
/// of `block_bytes` blocks (`k` being the code's data blocks per stripe) of
/// the [`pattern_payload`], striped and encoded once. All files are prefixes
/// of one shared payload, so the data blocks of every file are views of the
/// same allocation.
///
/// # Errors
///
/// Returns an error only if a code fails to build.
pub fn stripe_files(
    codes: &[CodeKind],
    block_bytes: usize,
    stripes_of: impl Fn(usize) -> usize,
) -> Result<Vec<EncodedFile>, DrcError> {
    let block_size = byte_cluster_spec(block_bytes).block_size_bytes() as usize;
    let lens = codes
        .iter()
        .map(|code| {
            let k = code.build()?.data_blocks();
            Ok(stripes_of(k) * k * block_size)
        })
        .collect::<Result<Vec<usize>, DrcError>>()?;
    let payload = pattern_payload(lens.iter().copied().max().unwrap_or(0));
    codes
        .iter()
        .zip(lens)
        .map(|(&code, len)| Ok(EncodedFile::encode(payload.slice(..len), code, block_size)?))
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
pub fn current_jobs() -> usize {
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
    fn empty_cell_list_is_fine() {
        let cells: Vec<fn() -> Result<u8, DrcError>> = Vec::new();
        assert_eq!(run_cells(cells).unwrap(), Vec::<u8>::new());
    }
}
