//! Every plan, executed: for each code `sized_differential` runs plus
//! RS(10,4), every repair of a node set `R` while a disjoint set `U` is
//! unusable (`|R ∪ U|` within the fault tolerance), and every degraded read
//! of every data block under every down set within the tolerance, run
//! through the plan executor against an encoded stripe.
//!
//! Required of each: the executed blocks equal the encoded stripe byte for
//! byte, no transfer touches an unusable node, the bytes the transfers
//! moved are `network_blocks × len`, and the same plan over length-only
//! handles gives length-only blocks of the right length without a byte of
//! GF work. A pentagon / heptagon single-node repair moves only replicas
//! and solves nothing. Independently of the executor, every partial parity
//! of every plan, evaluated on its own as its sender's row-weighted sum, adds
//! up with the other partials for its target to the encoded target. A plan
//! with a transfer dropped, with a partial parity combining a block its
//! sender does not hold, with one block in two partials, or with a block
//! the target's row does not weigh, must fail.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use drc_codes::{BlockHandle, CodeError, CodeKind, ErasureCode, Transfer, TransferPayload};
use drc_gf::{slice, Gf256};

thread_local! {
    /// Rebuilds produced by the executor on this thread.
    static SOLVES: Cell<usize> = const { Cell::new(0) };
}

/// A block with bytes, or length-only.
#[derive(Debug, Clone, PartialEq)]
struct Handle {
    len: usize,
    bytes: Option<Vec<u8>>,
}

impl BlockHandle for Handle {
    fn len(&self) -> usize {
        self.len
    }

    fn content(&self) -> Option<&[u8]> {
        self.bytes.as_deref()
    }

    fn rebuilt(len: usize, content: Option<Vec<u8>>) -> Self {
        SOLVES.with(|s| s.set(s.get() + 1));
        if let Some(bytes) = &content {
            assert_eq!(bytes.len(), len, "a rebuild has the sources' length");
        }
        Handle {
            len,
            bytes: content,
        }
    }
}

const KINDS: [CodeKind; 8] = [
    CodeKind::TWO_REP,
    CodeKind::THREE_REP,
    CodeKind::Pentagon,
    CodeKind::Heptagon,
    CodeKind::HeptagonLocal,
    CodeKind::RAID_M_10_9,
    CodeKind::ReedSolomon { data: 6, parity: 3 },
    CodeKind::ReedSolomon {
        data: 10,
        parity: 4,
    },
];

const LEN: usize = 48;

/// The encoded stripe of `code`: every distinct block.
fn stripe(code: &dyn ErasureCode) -> Vec<Vec<u8>> {
    let data: Vec<Vec<u8>> = (0..code.data_blocks())
        .map(|b| (0..LEN).map(|i| (i * 37 + b * 101 + 13) as u8).collect())
        .collect();
    code.encode(&data).expect("encodes")
}

/// Every subset of `0..n` with `1..=max` elements, ascending.
fn subsets(n: usize, max: usize) -> Vec<BTreeSet<usize>> {
    (1u32..1 << n)
        .filter(|m| m.count_ones() as usize <= max)
        .map(|m| (0..n).filter(|i| m & (1 << i) != 0).collect())
        .collect()
}

/// What node `node` serves: its blocks, unless it is in `dead`; with bytes
/// unless `sized`.
fn view<'a>(
    code: &'a dyn ErasureCode,
    coded: &'a [Vec<u8>],
    dead: &'a BTreeSet<usize>,
    sized: bool,
) -> impl Fn(usize, usize) -> Option<Handle> + 'a {
    move |node, block| {
        (!dead.contains(&node) && code.node_blocks(node).contains(&block)).then(|| Handle {
            len: LEN,
            bytes: (!sized).then(|| coded[block].clone()),
        })
    }
}

fn solves() -> usize {
    SOLVES.with(Cell::get)
}

/// The weights `w` with `block target = Σ w_b · block b` over the blocks of
/// the partials for `target`: a parity target's generator row over the data
/// blocks; for a data target, the one parity row among `union` that holds
/// it, solved for it.
fn target_row(code: &dyn ErasureCode, target: usize, union: &BTreeSet<usize>) -> Vec<Gf256> {
    let (k, generator) = (code.data_blocks(), &code.structure().generator);
    let mut row = vec![Gf256::ZERO; code.distinct_blocks()];
    if target >= k {
        row[..k].copy_from_slice(generator.row(target));
        return row;
    }
    let parities: Vec<usize> = union.iter().copied().filter(|&b| b >= k).collect();
    assert_eq!(parities.len(), 1, "one parity relates data block {target}");
    let parity = parities[0];
    let scale = Gf256::ONE / generator.row(parity)[target];
    for (d, &g) in generator.row(parity).iter().enumerate() {
        row[d] = g * scale;
    }
    row[target] = Gf256::ZERO;
    row[parity] = scale;
    row
}

/// Every partial parity of `transfers` evaluated on its own — its sender's
/// blocks weighted by the target's row — XORed with the other partials sent
/// to the same receiver for the same target and with the receiver's own
/// terms: the encoded target. Every combined block has a weight in that
/// row, and a weighted block no partial combines is one the receiver holds
/// whole (sent to it, or the target of other partials it received).
fn check_partial_sums(code: &dyn ErasureCode, coded: &[Vec<u8>], transfers: &[Transfer], at: &str) {
    let mut groups: BTreeMap<(usize, usize), Vec<&[usize]>> = BTreeMap::new();
    let mut own: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for t in transfers {
        let block = match &t.payload {
            TransferPayload::Replica { block } | TransferPayload::Reconstructed { block } => *block,
            TransferPayload::PartialParity { combines, target } => {
                groups
                    .entry((t.to_node, *target))
                    .or_default()
                    .push(combines);
                *target
            }
        };
        own.entry(t.to_node).or_default().insert(block);
    }
    for ((node, target), partials) in groups {
        let union: BTreeSet<usize> = partials.iter().flat_map(|c| c.iter().copied()).collect();
        let row = target_row(code, target, &union);
        let weighted: BTreeSet<usize> = (0..row.len()).filter(|&b| row[b] != Gf256::ZERO).collect();
        let at = format!("{at}: the partials for {target} at {node}");
        assert!(union.is_subset(&weighted), "{at}: {union:?} ⊄ {weighted:?}");
        let rest: Vec<usize> = weighted.difference(&union).copied().collect();
        assert!(
            rest.iter().all(|b| own[&node].contains(b)),
            "{at}: {rest:?} not held"
        );
        let mut sum = vec![0u8; LEN];
        for combines in partials {
            let mut partial = vec![0u8; LEN];
            for &b in combines {
                slice::mul_acc(&mut partial, &coded[b], row[b]);
            }
            slice::xor_assign(&mut sum, &partial);
        }
        for b in rest {
            slice::mul_acc(&mut sum, &coded[b], row[b]);
        }
        assert_eq!(sum, coded[target], "{at}");
    }
}

#[test]
fn every_repair_around_every_unusable_set_restores_the_encoded_stripe() {
    let mut executed = 0usize;
    for kind in KINDS {
        let code = kind.build().expect("code builds");
        let code = code.as_ref();
        let coded = stripe(code);
        let n = code.node_count();
        for failed in subsets(n, code.fault_tolerance()) {
            // Every split of the failed set into repaired R ≠ ∅ and unusable U.
            for repair in subsets(failed.len(), failed.len()) {
                let repair: BTreeSet<usize> = failed
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| repair.contains(i))
                    .map(|(_, &node)| node)
                    .collect();
                let unusable: BTreeSet<usize> = failed.difference(&repair).copied().collect();
                let plan = code
                    .repair_plan_around(&repair, &unusable)
                    .unwrap_or_else(|e| panic!("{kind}: R {repair:?} U {unusable:?}: {e}"));
                let at = format!("{kind}: R {repair:?} U {unusable:?}");
                for t in &plan.transfers {
                    assert!(repair.contains(&t.to_node), "{at}: {t:?} is received by R");
                    assert!(!unusable.contains(&t.from_node), "{at}: {t:?} reads U");
                }
                check_partial_sums(code, &coded, &plan.transfers, &at);
                for sized in [false, true] {
                    let before = solves();
                    let (restored, moved) = plan
                        .execute(code.structure(), view(code, &coded, &failed, sized))
                        .unwrap_or_else(|e| panic!("{at} (sized {sized}): {e}"));
                    assert_eq!(moved, (plan.network_blocks() * LEN) as u64, "{at}");
                    let expect: Vec<(usize, usize)> = repair
                        .iter()
                        .flat_map(|&node| code.node_blocks(node).iter().map(move |&b| (node, b)))
                        .collect();
                    let got: Vec<(usize, usize)> = restored.iter().map(|r| (r.0, r.1)).collect();
                    assert_eq!(got, expect, "{at}: every block of R, in order");
                    for (node, block, handle) in restored {
                        let want = Handle {
                            len: LEN,
                            bytes: (!sized).then(|| coded[block].clone()),
                        };
                        assert_eq!(handle, want, "{at}: block {block} at node {node}");
                    }
                    let single_array_repair =
                        matches!(kind, CodeKind::Pentagon | CodeKind::Heptagon)
                            && failed.len() == 1;
                    if single_array_repair {
                        assert_eq!(solves(), before, "{at}: repair by transfer solves nothing");
                        assert!(plan
                            .transfers
                            .iter()
                            .all(|t| matches!(t.payload, TransferPayload::Replica { .. })));
                    }
                }
                executed += 1;
            }
        }
    }
    assert!(executed > 20_000, "{executed} repairs executed");
}

#[test]
fn every_degraded_read_within_tolerance_returns_the_encoded_block() {
    let mut executed = 0usize;
    for kind in KINDS {
        let code = kind.build().expect("code builds");
        let code = code.as_ref();
        let coded = stripe(code);
        let mut down_sets = subsets(code.node_count(), code.fault_tolerance());
        down_sets.push(BTreeSet::new());
        for down in &down_sets {
            for block in 0..code.data_blocks() {
                let at = format!("{kind}: block {block}, down {down:?}");
                let plan = code
                    .degraded_read_plan(block, down)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(plan.network_blocks, plan.transfers.len(), "{at}");
                for t in &plan.transfers {
                    assert_eq!(
                        t.to_node,
                        code.node_count(),
                        "{at}: {t:?} goes to the reader"
                    );
                    assert!(
                        !down.contains(&t.from_node),
                        "{at}: {t:?} reads a down node"
                    );
                }
                check_partial_sums(code, &coded, &plan.transfers, &at);
                for sized in [false, true] {
                    let (got, moved) = plan
                        .execute(code.structure(), view(code, &coded, down, sized))
                        .unwrap_or_else(|e| panic!("{at} (sized {sized}): {e}"));
                    assert_eq!(moved, (plan.network_blocks * LEN) as u64, "{at}");
                    let want = Handle {
                        len: LEN,
                        bytes: (!sized).then(|| coded[block].clone()),
                    };
                    assert_eq!(got, want, "{at}");
                }
                executed += 1;
            }
        }
    }
    assert!(executed > 30_000, "{executed} reads executed");
}

/// The §2.2 combine functions of a heptagon-local global-node repair: each
/// helper sends, per global parity, the sum of its data blocks weighted by
/// that parity's generator row; XORed together they are the parity, and
/// the executor rebuilds the same blocks from the same plan.
#[test]
fn global_parity_partial_sums_combine_to_the_parity_block() {
    let code = CodeKind::HeptagonLocal.build().expect("code builds");
    let code = code.as_ref();
    let coded = stripe(code);
    let global = code.node_count() - 1;
    let failed: BTreeSet<usize> = [global].into_iter().collect();
    let plan = code.repair_plan(&failed).expect("plans");
    for &target in code.node_blocks(global) {
        let row = code.structure().generator.row(target);
        let mut rebuilt = vec![0u8; LEN];
        for t in &plan.transfers {
            let TransferPayload::PartialParity {
                combines,
                target: g,
            } = &t.payload
            else {
                panic!("a global-node repair sends only partial parities");
            };
            if *g != target {
                continue;
            }
            let mut partial = vec![0u8; LEN];
            for &b in combines {
                assert!(
                    code.node_blocks(t.from_node).contains(&b),
                    "sender holds {b}"
                );
                slice::mul_acc(&mut partial, &coded[b], row[b]);
            }
            slice::xor_assign(&mut rebuilt, &partial);
        }
        assert_eq!(
            rebuilt, coded[target],
            "global parity {target} from partial sums"
        );
    }
    let live = view(code, &coded, &failed, false);
    let (restored, moved) = plan.execute(code.structure(), live).expect("executes");
    assert_eq!(moved, (plan.network_blocks() * LEN) as u64);
    for (node, block, handle) in restored {
        assert_eq!((node, handle.bytes), (global, Some(coded[block].clone())));
    }
}

/// The array codes' two-node repairs need every transfer they name. A
/// partial parity over a block its sender does not hold is caught, and so
/// is one over a block its sender holds but another partial for the same
/// target combines: the union of the combined blocks stays as it was, but
/// the block cancels out of the partials' sum.
#[test]
fn a_dropped_transfer_or_a_misassigned_combined_block_fails() {
    let mut repeated = 0;
    for kind in [CodeKind::Pentagon, CodeKind::Heptagon] {
        let code = kind.build().expect("code builds");
        let code = code.as_ref();
        let coded = stripe(code);
        for failed in subsets(code.node_count(), 2)
            .into_iter()
            .filter(|f| f.len() == 2)
        {
            let plan = code.repair_plan(&failed).expect("plans");
            let live = view(code, &coded, &failed, false);
            for drop in 0..plan.transfers.len() {
                let mut broken = plan.clone();
                broken.transfers.remove(drop);
                assert!(
                    broken.execute(code.structure(), &live).is_err(),
                    "{kind} {failed:?}: dropping {:?} must fail",
                    plan.transfers[drop]
                );
            }
            for (i, t) in plan.transfers.iter().enumerate() {
                let TransferPayload::PartialParity { combines, target } = &t.payload else {
                    continue;
                };
                let held = code.node_blocks(t.from_node);
                let foreign = (0..code.distinct_blocks())
                    .find(|b| !held.contains(b))
                    .expect("a node holds only some blocks");
                let foreign_err = CodeError::NotHeld {
                    node: t.from_node,
                    block: foreign,
                };
                let repeat = plan.transfers.iter().find_map(|o| match &o.payload {
                    TransferPayload::PartialParity {
                        combines: c,
                        target: g,
                    } if o.to_node == t.to_node && g == target => c
                        .iter()
                        .copied()
                        .find(|b| !combines.contains(b) && held.contains(b)),
                    _ => None,
                });
                let repeat_err = repeat.map(|block| CodeError::NotATerm {
                    node: t.to_node,
                    target: *target,
                    block,
                });
                repeated += usize::from(repeat.is_some());
                let cases = [(Some(foreign), Some(foreign_err)), (repeat, repeat_err)];
                for (extra, want) in cases.into_iter().filter_map(|(b, e)| Some((b?, e?))) {
                    let mut broken = plan.clone();
                    let TransferPayload::PartialParity { combines: c, .. } =
                        &mut broken.transfers[i].payload
                    else {
                        unreachable!()
                    };
                    c.push(extra);
                    let err = broken.execute(code.structure(), &live).unwrap_err();
                    assert_eq!(err, want, "{kind} {failed:?}: {combines:?} + {extra}");
                }
            }
        }
    }
    assert!(repeated > 50, "{repeated} partials given a repeated block");
}

/// A block the target's row does not weigh — a local parity sent as a
/// partial of a global parity — is not its sender's term.
#[test]
fn a_block_outside_the_targets_row_fails() {
    let code = CodeKind::HeptagonLocal.build().expect("code builds");
    let code = code.as_ref();
    let coded = stripe(code);
    let global = code.node_count() - 1;
    let failed: BTreeSet<usize> = [global].into_iter().collect();
    let mut broken = code.repair_plan(&failed).expect("plans");
    let k = code.data_blocks();
    let (from_node, local_parity) = (0..global)
        .find_map(|n| Some((n, *code.node_blocks(n).iter().find(|&&b| b >= k)?)))
        .expect("a local node holds a local parity");
    let target = code.node_blocks(global)[0];
    broken.transfers.push(Transfer {
        from_node,
        to_node: global,
        payload: TransferPayload::PartialParity {
            combines: vec![local_parity],
            target,
        },
    });
    let live = view(code, &coded, &failed, false);
    assert_eq!(
        broken.execute(code.structure(), &live).unwrap_err(),
        CodeError::NotATerm {
            node: global,
            target,
            block: local_parity
        }
    );
}
