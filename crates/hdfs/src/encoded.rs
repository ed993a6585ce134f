//! A file striped and encoded once, ready to be ingested any number of times.
//!
//! In the paper's HDFS-RAID deployment a file is striped and encoded *once*;
//! the experiments then vary what happens to it. [`EncodedFile`] is that
//! artefact: every stripe's distinct blocks as shared [`Block`] handles,
//! which [`crate::DistributedFileSystem::write_encoded`] distributes without
//! touching a payload byte. The stripe encode itself ([`encode_stripe`]) is
//! the one `write_file(&[u8])` runs per stripe — the two write entry points
//! differ only in *when* it runs and where a data block's handle comes from.
//!
//! A file whose bytes nobody will read — every figure of a virtual-time
//! experiment is a function of block lengths — is built with
//! [`EncodedFile::sized`] instead: the same stripes × distinct-blocks
//! structure with no payload, no parities and no allocation behind it.

use bytes::Bytes;

use drc_codes::{encode_parities_into, CodeKind, ErasureCode};

use crate::block::Block;
use crate::HdfsError;

/// One file's stripes, encoded with one code at one block size.
///
/// Full data blocks are zero-copy views of the payload handed to
/// [`EncodedFile::encode`]; a short tail block is one pooled zero-padded
/// copy, blocks of the last stripe past the end of the file are pooled zero
/// blocks, and parities are pooled buffers filled by
/// [`drc_codes::encode_parities_into`].
///
/// # Ownership
///
/// Ingesting the file clones these handles onto DataNodes, so a pooled block
/// is shared between the `EncodedFile` and every replica of every file
/// system it was written to. Whoever drops the **last** handle returns the
/// buffer to [`drc_gf::bufpool`] — `Bytes::try_unwrap` succeeds for nobody
/// else — so a DataNode wipe or drop never shelves a block a live
/// `EncodedFile` still holds, and each buffer is recycled exactly once: by
/// this type's `Drop` when it outlives the file systems (the experiment
/// drivers' case), by the last DataNode otherwise.
#[derive(Debug)]
pub struct EncodedFile {
    code: CodeKind,
    block_size: usize,
    len: usize,
    /// Per stripe, the code's distinct blocks in block-index order (data
    /// first, then parities). `None` for a sized file, whose every block is
    /// `Block::sized(block_size)`.
    stripes: Option<Vec<Vec<Block>>>,
}

impl EncodedFile {
    /// Stripes `data` into `block_size`-byte blocks and encodes every
    /// stripe with `code`, reading each payload byte once.
    ///
    /// # Errors
    ///
    /// Returns an error if the code fails to build or `block_size` is zero.
    pub fn encode(data: Bytes, code: CodeKind, block_size: usize) -> Result<Self, HdfsError> {
        check_block_size(block_size)?;
        let built = code.build()?;
        let stripes = data
            .len()
            .div_ceil(block_size)
            .div_ceil(built.data_blocks());
        let stripes = (0..stripes)
            .map(|stripe| {
                encode_stripe(built.as_ref(), stripe, block_size, |start| {
                    if start + block_size <= data.len() {
                        data.slice(start..start + block_size)
                    } else {
                        pooled_block(&data, start, block_size)
                    }
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(EncodedFile {
            code,
            block_size,
            len: data.len(),
            stripes: Some(stripes),
        })
    }

    /// A `len`-byte file striped with `code` at `block_size` that carries
    /// block lengths only: ingesting it issues the timed events, placement
    /// draws and accounting [`EncodedFile::encode`] of any `len`-byte
    /// payload would, and every later read, degraded read and repair plans
    /// and moves the same bytes — but nothing allocates, encodes or
    /// rebuilds a block, and the content-returning calls fail with
    /// [`HdfsError::NoContent`].
    ///
    /// # Errors
    ///
    /// As [`EncodedFile::encode`]: the code fails to build or `block_size`
    /// is zero.
    pub fn sized(code: CodeKind, block_size: usize, len: usize) -> Result<Self, HdfsError> {
        check_block_size(block_size)?;
        code.build()?;
        Ok(EncodedFile {
            code,
            block_size,
            len,
            stripes: None,
        })
    }

    /// The code the stripes were encoded with.
    pub fn code(&self) -> CodeKind {
        self.code
    }

    /// The block size the file was striped at, in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The file's length in bytes (the payload's, without padding).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the file holds no bytes (and therefore no stripes).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the file carries bytes ([`EncodedFile::encode`]) or block
    /// lengths only ([`EncodedFile::sized`]).
    pub(crate) fn has_content(&self) -> bool {
        self.stripes.is_some()
    }

    /// Handles to the distinct blocks of stripe `stripe` (`code` is this
    /// file's code, built).
    pub(crate) fn stripe_blocks(&self, code: &dyn ErasureCode, stripe: usize) -> Vec<Block> {
        match &self.stripes {
            Some(stripes) => stripes[stripe].clone(),
            None => vec![Block::sized(self.block_size); code.distinct_blocks()],
        }
    }
}

impl Drop for EncodedFile {
    fn drop(&mut self) {
        let stripes = self.stripes.take().unwrap_or_default();
        stripes
            .into_iter()
            .flatten()
            .for_each(Block::recycle_if_sole);
    }
}

fn check_block_size(block_size: usize) -> Result<(), HdfsError> {
    if block_size == 0 {
        return Err(HdfsError::InvalidRequest {
            reason: "block size must be positive".to_string(),
        });
    }
    Ok(())
}

/// The distinct blocks of stripe `stripe` of a file: its `k` data blocks —
/// `data_block(start)` yields the block of file content at byte offset
/// `start`, zero-padded to `block_size` — followed by the parities, encoded
/// straight into the pooled buffers that become their payloads.
pub(crate) fn encode_stripe(
    code: &dyn ErasureCode,
    stripe: usize,
    block_size: usize,
    data_block: impl Fn(usize) -> Bytes,
) -> Result<Vec<Block>, HdfsError> {
    let k = code.data_blocks();
    let data: Vec<Bytes> = (stripe * k..(stripe + 1) * k)
        .map(|index| data_block(index * block_size))
        .collect();
    let mut parities: Vec<Vec<u8>> = (k..code.distinct_blocks())
        .map(|_| drc_gf::bufpool::take(block_size))
        .collect();
    encode_parities_into(code, &data, &mut parities)?;
    let parities = parities.into_iter().map(Bytes::from);
    Ok(data.into_iter().chain(parities).map(Block::from).collect())
}

/// A pooled copy of the `block_size` bytes of `data` at `start`, zero-padded
/// where `data` ends short (or before `start`). One pass: every byte of the
/// buffer is written once.
pub(crate) fn pooled_block(data: &[u8], start: usize, block_size: usize) -> Bytes {
    let tail = data.get(start..).unwrap_or(&[]);
    let n = tail.len().min(block_size);
    Bytes::from(drc_gf::bufpool::take_copy(&tail[..n], block_size))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: usize = drc_gf::bufpool::MIN_POOLED_CAPACITY;

    fn payload(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i * 13 + 5) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn full_blocks_are_views_and_the_rest_is_padded() {
        let code = CodeKind::Pentagon;
        let built = code.build().unwrap();
        let k = built.data_blocks();
        // One whole stripe, then two whole blocks and a 100-byte tail.
        let len = (k + 2) * BLOCK + 100;
        let data = payload(len);
        let file = EncodedFile::encode(data.clone(), code, BLOCK).unwrap();
        assert_eq!(
            (file.code(), file.block_size(), file.len()),
            (code, BLOCK, len)
        );
        assert!(!file.is_empty());
        let stripes = file.stripes.as_ref().unwrap();
        assert_eq!(stripes.len(), 2);
        for (stripe, blocks) in stripes.iter().enumerate() {
            assert_eq!(blocks.len(), built.distinct_blocks());
            let blocks: Vec<&Bytes> = blocks.iter().map(|b| b.bytes().unwrap()).collect();
            for (b, block) in blocks[..k].iter().enumerate() {
                let start = (stripe * k + b) * BLOCK;
                assert_eq!(block.len(), BLOCK);
                if start + BLOCK <= len {
                    assert_eq!(block.as_ptr(), data[start..].as_ptr(), "zero-copy view");
                } else {
                    let have = len.saturating_sub(start).min(BLOCK);
                    assert_eq!(&block[..have], &data[len - have..]);
                    assert!(block[have..].iter().all(|&x| x == 0), "zero padding");
                }
            }
            let want = built
                .encode(&blocks[..k].iter().map(|b| b.to_vec()).collect::<Vec<_>>())
                .unwrap();
            for (b, block) in blocks.iter().enumerate() {
                assert_eq!(&block[..], &want[b][..], "stripe {stripe} block {b}");
            }
        }
    }

    #[test]
    fn empty_payload_and_zero_block_size() {
        let file = EncodedFile::encode(Bytes::new(), CodeKind::TWO_REP, BLOCK).unwrap();
        assert!(file.is_empty());
        assert!(file.stripes.as_ref().unwrap().is_empty());
        assert!(matches!(
            EncodedFile::encode(payload(10), CodeKind::TWO_REP, 0),
            Err(HdfsError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn a_sized_file_has_encodes_shape_and_edges() {
        let code = CodeKind::Pentagon;
        let built = code.build().unwrap();
        let len = (built.data_blocks() + 2) * BLOCK + 100;
        let sized = EncodedFile::sized(code, BLOCK, len).unwrap();
        let real = EncodedFile::encode(payload(len), code, BLOCK).unwrap();
        assert_eq!(
            (
                sized.code(),
                sized.block_size(),
                sized.len(),
                sized.is_empty()
            ),
            (real.code(), real.block_size(), real.len(), real.is_empty())
        );
        assert!(real.has_content() && !sized.has_content());
        for stripe in 0..2 {
            let lens = |file: &EncodedFile| -> Vec<usize> {
                let blocks = file.stripe_blocks(built.as_ref(), stripe);
                blocks.iter().map(Block::len).collect()
            };
            assert_eq!(lens(&sized), lens(&real), "stripe {stripe}");
            assert!(sized
                .stripe_blocks(built.as_ref(), stripe)
                .iter()
                .all(|b| b.bytes() == Err(HdfsError::NoContent { len: BLOCK as u64 })));
        }
        // The same edges as `encode`: an empty file is a value, a zero
        // block size and an unbuildable code are errors.
        assert!(EncodedFile::sized(code, BLOCK, 0).unwrap().is_empty());
        assert!(matches!(
            EncodedFile::sized(code, 0, 10),
            Err(HdfsError::InvalidRequest { .. })
        ));
        let bad = CodeKind::ReedSolomon { data: 0, parity: 0 };
        assert_eq!(
            EncodedFile::sized(bad, BLOCK, 10).err(),
            EncodedFile::encode(payload(10), bad, BLOCK).err()
        );
    }
}
