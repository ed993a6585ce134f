//! The plan executor: the one path from a [`RepairPlan`] or a [`ReadPlan`]
//! to block contents.
//!
//! Executing a plan runs its transfers in plan order against a view of what
//! each stripe-local node holds:
//!
//! * `Replica` / `Reconstructed` hand the receiver a clone of the sender's
//!   handle;
//! * `PartialParity` checks that the sender holds every block it combines
//!   and files those blocks at the receiver under the partial's target;
//! * a node that must produce a block it lacks — to send it, to combine it,
//!   or to store it as a repaired node — solves it from exactly what the
//!   plan delivered there: the whole blocks it received or rebuilt, plus the
//!   blocks of the partials filed under that target, and nothing else.
//!   [`StripeReconstructor::plan`] picks the sources and coefficients. The
//!   partial targets that reached the node earlier are solved first, so a
//!   block it rebuilt can feed a later solve.
//!
//! **Plan order defines the view.** A block is available to a transfer only
//! if its sender held it before the plan started or was sent what rebuilds
//! it by an *earlier* transfer: that is what lets the heptagon-local
//! global-parity partial sums be sent from a replacement that rebuilt a
//! block earlier in the same plan, and it is what makes a plan that reads
//! from a dead node fail ([`CodeError::NotHeld`]) instead of being priced and
//! then solved from whatever else survives. A target the delivered blocks do
//! not span is [`CodeError::Unrecoverable`].
//!
//! **A partial is its sender's terms of the target's row.** The partials
//! filed under a target must combine pairwise disjoint blocks, and the solve
//! must read every one of those blocks with a nonzero weight; anything else
//! is [`CodeError::NotATerm`]. Each sender's partial is then the sum of its
//! blocks weighted by the target's row (a parity's generator row; for a
//! data block, the parity row that holds it, solved for it), and the
//! partials plus the receiver's own terms — blocks it holds whole — add up
//! to the target. A block named by two partials would cancel out of their
//! GF(2^8) sum while the union of their blocks stayed the same.
//!
//! **The solve is fused.** By linearity the target is the sum of the
//! partials, and that sum is a single combination of the blocks they
//! combine with the row's weights. Each target is therefore evaluated once,
//! by one fused pass over its source blocks into one output buffer: no
//! buffer per partial, and the same GF work as solving the target from the
//! same sources directly. The plan's other fully-lost blocks that the node can
//! rebuild from exactly the same inputs (a decode's further lost blocks,
//! the second global parity) join that pass as further rows of one matrix
//! product, so the sources are read once per receiver, as one solve per
//! stripe read them before the executor.
//!
//! Length-only handles give length-only results: a solve whose sources have
//! no bytes still runs [`StripeReconstructor::plan`] (so an unspanned target
//! is the same error) and skips the evaluation. This is the one place that
//! asks whether there is anything to compute.

use std::collections::BTreeSet;

use drc_gf::Gf256;

use crate::layout::CodeStructure;
use crate::reconstruct::StripeReconstructor;
use crate::repair::{ReadPlan, RepairPlan, Transfer, TransferPayload};
use crate::CodeError;

/// A stored block as the executor sees it: a cheaply cloned handle with a
/// length and — unless the block is length-only — its bytes.
pub trait BlockHandle: Clone {
    /// The block's length in bytes.
    fn len(&self) -> usize;

    /// Whether the block is zero bytes long.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block's bytes, or `None` for a length-only block.
    fn content(&self) -> Option<&[u8]>;

    /// A rebuilt `len`-byte block: `content` is a filled
    /// [`drc_gf::bufpool::take`] buffer, or `None` when the sources were
    /// length-only.
    fn rebuilt(len: usize, content: Option<Vec<u8>>) -> Self;
}

/// Every block of a repair's failed nodes, as `(node, block, handle)`.
type Restored<P> = Vec<(usize, usize, P)>;

impl RepairPlan {
    /// Executes the plan: runs every transfer in order against `view`
    /// (`view(node, block)` is stripe-local `node`'s handle to distinct
    /// `block`, or `None` if it cannot serve it) and returns every block of
    /// every failed node as `(node, block, handle)`, in `failed_nodes` ×
    /// layout order, together with the bytes the transfers moved.
    ///
    /// # Errors
    ///
    /// [`CodeError::NotHeld`] if a transfer reads a block its sender neither
    /// holds nor can rebuild from what reached it earlier in the plan,
    /// [`CodeError::Unrecoverable`] if what reached a node does not span a
    /// block it must rebuild, [`CodeError::NotATerm`] if a partial combines
    /// a block that is not its sender's term, and
    /// [`CodeError::IndexOutOfRange`] for a node or block outside the stripe.
    pub fn execute<P: BlockHandle>(
        &self,
        structure: &CodeStructure,
        view: impl Fn(usize, usize) -> Option<P>,
    ) -> Result<(Restored<P>, u64), CodeError> {
        let layout = &structure.layout;
        let mut run = Run::new(structure, view, &self.transfers, &self.fully_lost_blocks)?;
        let mut restored = Vec::with_capacity(self.blocks_to_restore.len());
        for &node in &self.failed_nodes {
            check(node, layout.node_count())?;
            for &block in layout.node_blocks(node) {
                restored.push((node, block, run.obtain(node, block)?));
            }
        }
        Ok((restored, run.moved))
    }
}

impl ReadPlan {
    /// Executes the read: runs every transfer in order against `view` (as in
    /// [`RepairPlan::execute`]) and returns the block as the reader holds it
    /// afterwards — the replica it was sent, or the rebuild of what it was
    /// sent — together with the bytes the transfers moved.
    ///
    /// # Errors
    ///
    /// As [`RepairPlan::execute`].
    pub fn execute<P: BlockHandle>(
        &self,
        structure: &CodeStructure,
        view: impl Fn(usize, usize) -> Option<P>,
    ) -> Result<(P, u64), CodeError> {
        let reader = structure.layout.node_count();
        let lost = std::slice::from_ref(&self.block);
        let mut run = Run::new(structure, view, &self.transfers, lost)?;
        Ok((run.obtain(reader, self.block)?, run.moved))
    }
}

fn check(node: usize, limit: usize) -> Result<(), CodeError> {
    let (index, what) = (node, "node");
    (index < limit)
        .then_some(())
        .ok_or(CodeError::IndexOutOfRange { what, index, limit })
}

/// One execution: what each node (the stripe's, then the reader) was sent.
struct Run<'a, P, V> {
    structure: &'a CodeStructure,
    view: V,
    /// The plan's fully-lost blocks: the ones a node may have to rebuild.
    lost: &'a [usize],
    /// Per node: whole blocks received or rebuilt, in arrival order.
    whole: Vec<Vec<(usize, P)>>,
    /// Per node: `(target, block, handle)` filed by partial parities, in
    /// arrival order.
    partial: Vec<Vec<(usize, usize, P)>>,
    /// Bytes the transfers moved: one sent block each.
    moved: u64,
}

impl<'a, P: BlockHandle, V: Fn(usize, usize) -> Option<P>> Run<'a, P, V> {
    /// Runs every transfer of the plan.
    fn new(
        structure: &'a CodeStructure,
        view: V,
        transfers: &[Transfer],
        lost: &'a [usize],
    ) -> Result<Self, CodeError> {
        let nodes = structure.layout.node_count() + 1;
        let mut run = Run {
            structure,
            view,
            lost,
            whole: vec![Vec::new(); nodes],
            partial: vec![Vec::new(); nodes],
            moved: 0,
        };
        for t in transfers {
            check(t.to_node, nodes)?;
            match &t.payload {
                TransferPayload::Replica { block } | TransferPayload::Reconstructed { block } => {
                    let handle = run.obtain(t.from_node, *block)?;
                    run.moved += handle.len() as u64;
                    run.whole[t.to_node].push((*block, handle));
                }
                TransferPayload::PartialParity { combines, target } => {
                    let mut len = 0;
                    for &block in combines {
                        let handle = run.obtain(t.from_node, block)?;
                        len = handle.len();
                        run.partial[t.to_node].push((*target, block, handle));
                    }
                    run.moved += len as u64;
                }
            }
        }
        Ok(run)
    }

    /// `node`'s handle to `block` without rebuilding: one it received or
    /// rebuilt, or one it held before the plan.
    fn held(&self, node: usize, block: usize) -> Option<P> {
        if let Some((_, handle)) = self.whole[node].iter().find(|(b, _)| *b == block) {
            return Some(handle.clone());
        }
        let stripe_node = node < self.structure.layout.node_count();
        stripe_node.then(|| (self.view)(node, block)).flatten()
    }

    /// `node`'s handle to `block`: held, or rebuilt from what reached it.
    fn obtain(&mut self, node: usize, block: usize) -> Result<P, CodeError> {
        check(node, self.whole.len())?;
        if let Some(handle) = self.held(node, block) {
            return Ok(handle);
        }
        if self.whole[node].is_empty() && self.partial[node].is_empty() {
            return Err(CodeError::NotHeld { node, block });
        }
        // First the partial targets that reached `node` before `block`'s
        // own first partial (all of them if `block` has none): a block
        // rebuilt here may be a source of this one.
        let mut earlier: Vec<usize> = Vec::new();
        for &(target, _, _) in &self.partial[node] {
            if target == block {
                break;
            }
            if !earlier.contains(&target) {
                earlier.push(target);
            }
        }
        for target in earlier {
            if self.held(node, target).is_none() {
                self.solve(node, target)?;
            }
        }
        self.solve(node, block)
    }

    /// The distinct blocks `node` may rebuild `target` from: the whole
    /// blocks it holds and the blocks of the partials filed under `target`.
    fn inputs(&self, node: usize, target: usize) -> BTreeSet<usize> {
        let whole = self.whole[node].iter().map(|(b, _)| *b);
        let partial = self.partial[node].iter().filter(|(t, _, _)| *t == target);
        whole.chain(partial.map(|(_, b, _)| *b)).collect()
    }

    /// Rebuilds `target` at `node` from [`Run::inputs`], with one fused
    /// combination — together with every other fully-lost block `node` can
    /// rebuild from exactly the same inputs, so the lost blocks a receiver
    /// rebuilds share one pass over their sources.
    fn solve(&mut self, node: usize, target: usize) -> Result<P, CodeError> {
        let available = self.inputs(node, target);
        let mut targets = vec![target];
        for &block in self.lost {
            if !targets.contains(&block)
                && self.held(node, block).is_none()
                && self.inputs(node, block) == available
            {
                targets.push(block);
            }
        }
        let rec = StripeReconstructor::plan(self.structure, &available, &targets)
            .or_else(|_| StripeReconstructor::plan(self.structure, &available, &[target]))?;
        let sources = rec.sources();
        let partials = &self.partial[node];
        // Every block a target's partials combine is a source with a nonzero
        // weight in that target's row, and no other partial combines it.
        let rows = rec.coefficients().chunks(sources.len().max(1));
        for (row, &target) in rows.zip(rec.targets()) {
            let mut seen = BTreeSet::new();
            for &(_, block, _) in partials.iter().filter(|p| p.0 == target) {
                let at = sources.iter().position(|&s| s == block);
                if !seen.insert(block) || at.is_none_or(|i| row[i] == Gf256::ZERO) {
                    return Err(CodeError::NotATerm {
                        node,
                        target,
                        block,
                    });
                }
            }
        }
        let whole = &self.whole[node];
        let handle_of = |s: usize| {
            let partial = partials.iter().find(|p| p.0 == target && p.1 == s);
            partial
                .map(|p| &p.2)
                .or_else(|| whole.iter().find(|(b, _)| *b == s).map(|(_, h)| h))
        };
        let sources: Vec<&P> = sources.iter().filter_map(|&s| handle_of(s)).collect();
        let len = sources.first().map_or(0, |s| s.len());
        let bytes: Option<Vec<&[u8]>> = sources.iter().map(|s| s.content()).collect();
        let mut outs = bytes.map(|bytes| {
            let mut outs: Vec<Vec<u8>> = rec
                .targets()
                .iter()
                .map(|_| drc_gf::bufpool::take(len))
                .collect();
            rec.reconstruct_into(&bytes, &mut outs);
            outs.into_iter()
        });
        // `target` leads `rec.targets()`, so it is the first block pushed.
        let at = self.whole[node].len();
        for &block in rec.targets() {
            let handle = P::rebuilt(len, outs.as_mut().and_then(Iterator::next));
            self.whole[node].push((block, handle));
        }
        Ok(self.whole[node][at].1.clone())
    }
}
