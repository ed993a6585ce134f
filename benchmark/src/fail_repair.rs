//! `fail_repair`: the same `hdfs`/`codes`/`gf` layers used the other way.
//!
//! Set-up stores ≈ 75 MiB per code in one file system per code on a 15-node
//! cluster (the smallest every code fits). Per iteration, per code: a
//! tolerance-sized set of seeded victims (1/2/2/3/4 nodes) fail-stops
//! through the trace path, every file is read while degraded, the detection
//! boundary fires and the RaidNode repairs, every file is read again, and
//! both read-backs are byte-compared. The repair re-provisions the victims
//! under their old ids, so the file system is healthy again and the next
//! iteration reuses it with the next window of victims.

use std::collections::BTreeSet;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::surface::{self, Code, Failure, FileId, Fs, Net, NodeId, Reconstructor};
use crate::trace::span;
use crate::workload::{
    sub_seed, timed, Attribution, Checks, Iteration, Meter, Model, Payload, Size, Victims,
    Workload, BLOCK, REBUILD_WAVE, REPAIR_NODES,
};

/// Chunk size the file system streams repairs in (its default, 1 MiB).
const CHUNK: u64 = BLOCK as u64;

struct Stored {
    code: Code,
    fs: Fs,
    files: Vec<FileId>,
    victims: Victims,
    /// Victims of the last iteration, for the replays.
    last_victims: Vec<NodeId>,
}

pub struct FailRepair {
    stored: Vec<Stored>,
    payload: Payload,
}

impl FailRepair {
    pub fn new(seed: u64, size: &Size) -> Result<FailRepair, Failure> {
        let codes = surface::byte_codes()?;
        let payload = Payload::new(
            sub_seed(seed, 3),
            &codes,
            size.repair_files,
            size.repair_file_blocks,
        );
        let mut stored = Vec::with_capacity(codes.len());
        for (ci, code) in codes.into_iter().enumerate() {
            let mut fs = Fs::new(
                surface::spec_small(REPAIR_NODES),
                sub_seed(seed, 4 + ci as u64),
                code.name,
            );
            let mut files = Vec::with_capacity(payload.files);
            for f in 0..payload.files {
                let name = format!("/bench/{}/{f}", code.name);
                files.push(fs.write_file(&name, payload.file(&code, f), &code)?);
            }
            fs.sync_ns();
            stored.push(Stored {
                code,
                fs,
                files,
                victims: Victims::new(sub_seed(seed, 20 + ci as u64)),
                last_victims: Vec::new(),
            });
        }
        Ok(FailRepair { stored, payload })
    }
}

impl Workload for FailRepair {
    fn work_unit(&self) -> &'static str {
        "MiB degraded-read+rebuilt"
    }

    fn iterations_repeat(&self) -> bool {
        false
    }

    fn iterate(&mut self, iter: u32, checks: &mut Checks) -> Result<Iteration, Failure> {
        let mut meter = Meter::default();
        let mut model = Model::default();
        let mut canon = String::new();
        let mut work = 0.0;
        for s in &mut self.stored {
            let name = s.code.name;
            let victims = s.victims.round(iter as usize, s.code.tolerance);
            let files = &s.files;
            let fs = &mut s.fs;
            let (before, degraded, degraded_ns, reports, healthy, healthy_ns, after) =
                meter.run(|| {
                    let before = fs.stats();
                    let t0 = fs.now_ns();
                    fs.fail_now(&victims, name)?;
                    let mut degraded = Vec::with_capacity(files.len());
                    for &id in files {
                        degraded.push(fs.read_file(id, name)?);
                    }
                    let t1 = fs.sync_ns();
                    let reports = fs.detect_and_repair(name)?;
                    let t2 = fs.sync_ns();
                    let mut healthy = Vec::with_capacity(files.len());
                    for &id in files {
                        healthy.push(fs.read_file(id, name)?);
                    }
                    let t3 = fs.sync_ns();
                    let after = fs.stats();
                    Ok::<_, Failure>((before, degraded, t1 - t0, reports, healthy, t3 - t2, after))
                })?;

            for f in 0..files.len() {
                let want = self.payload.file(&s.code, f);
                checks.check(degraded[f] == want, || {
                    format!("{name}: file {f} differs when read degraded (victims {victims:?})")
                });
                checks.check(healthy[f] == want, || {
                    format!("{name}: file {f} differs after repair (victims {victims:?})")
                });
            }
            let unrecoverable: usize = reports.iter().map(|r| r.unrecoverable_stripes).sum();
            checks.check(unrecoverable == 0, || {
                format!("{name}: {unrecoverable} unrecoverable stripes (victims {victims:?})")
            });
            let reported: u64 = reports.iter().map(|r| r.network_bytes).sum();
            let counted = after.repair_network_bytes - before.repair_network_bytes;
            checks.check(counted == reported, || {
                format!("{name}: FsStats counted {counted} repair bytes, reports sum to {reported}")
            });
            checks.check(after.stored_bytes == before.stored_bytes, || {
                format!(
                    "{name}: {} B stored after repair, {} B before the failure",
                    after.stored_bytes, before.stored_bytes
                )
            });
            let (num, den) = s.code.overhead;
            let user_bytes = (files.len() * self.payload.file_bytes(&s.code)) as u64;
            checks.check(after.stored_bytes * den == user_bytes * num, || {
                format!("{name}: stored overhead is not Table 1's {num}/{den}")
            });
            meter.run(|| drop((degraded, healthy)));

            let restored: usize = reports.iter().map(|r| r.blocks_restored).sum();
            let repair_ns: u64 = reports
                .iter()
                .map(|r| r.completed_at.0 - r.issued_at.0)
                .sum();
            let read_net = after.read_network_bytes - before.read_network_bytes;
            work += user_bytes as f64 / BLOCK as f64 + restored as f64;
            model.virtual_s += (degraded_ns + repair_ns) as f64 / 1e9;
            model.net_bytes += (read_net + counted) as f64;
            model.user_bytes += 2.0 * user_bytes as f64;
            model.stored_bytes += after.stored_bytes as f64;
            model.stored_user_bytes += user_bytes as f64;
            canon.push_str(&format!(
                "{name}:victims={victims:?}:degraded_ns={degraded_ns}:healthy_ns={healthy_ns}:\
                 read_net={read_net}:stored={}:{reports:?}\n",
                after.stored_bytes
            ));
            s.last_victims = victims;
        }
        Ok(Iteration {
            meter,
            work,
            model,
            canon,
        })
    }

    /// `hdfs` is entered from outside. Below it, for the failure pattern each
    /// stripe actually saw in the last iteration: `codes` plans and rebuilds
    /// every lost data block once for the degraded read and every lost block
    /// once for the repair (which bottoms out in `gf` as `matrix_mul_into`
    /// resp. `matrix_mul_batch` waves), `sim` streams the plans' helper
    /// fetches and replacement stores as chunk trains, and `cluster` scans
    /// the victims' reverse postings.
    fn attribute(&mut self, top: &Attribution) -> Result<Attribution, Failure> {
        let mut codes_s = 0.0;
        let mut gf_s = 0.0;
        let mut sim_s = 0.0;
        let mut cluster_s = 0.0;
        let block = vec![0x5au8; BLOCK];
        let spec = surface::spec_small(REPAIR_NODES);
        for s in &self.stored {
            let (code, victims) = (&s.code, &s.last_victims);
            let mut patterns: Vec<BTreeSet<usize>> = Vec::new();
            for &id in &s.files {
                patterns.extend(
                    s.fs.failed_locals(id, victims)?
                        .into_iter()
                        .filter(|p| !p.is_empty()),
                );
            }
            let losses = patterns
                .iter()
                .map(|p| surface::stripe_loss(code, p))
                .collect::<Result<Vec<_>, _>>()?;

            // codes: plan + rebuild, per lost data block (degraded read) and
            // per stripe (repair).
            let mut rebuilds: Vec<Reconstructor> = Vec::new();
            codes_s += timed(|| {
                span("codes", "replay plan + reconstruct_into", code.name, || {
                    for loss in &losses {
                        for &b in loss.lost.iter().filter(|&&b| b < code.k()) {
                            let rec = Reconstructor::plan(code, &loss.available, &[b])?;
                            let sources = vec![&block[..]; rec.sources()];
                            let mut outs = vec![vec![0u8; BLOCK]];
                            rec.reconstruct_into(&sources, &mut outs);
                            rebuilds.push(rec);
                        }
                        if !loss.lost.is_empty() {
                            let rec = Reconstructor::plan(code, &loss.available, &loss.lost)?;
                            let sources = vec![&block[..]; rec.sources()];
                            let mut outs = vec![vec![0u8; BLOCK]; rec.targets()];
                            rec.reconstruct_into(&sources, &mut outs);
                            rebuilds.push(rec);
                        }
                    }
                    Ok(())
                })
            })?;

            // gf: the same coefficient shapes without the planning. Degraded
            // reads are single products; repairs go through fused waves.
            gf_s += timed(|| {
                span("gf", "replay matrix_mul_into/batch", code.name, || {
                    for wave in rebuilds.chunks(REBUILD_WAVE) {
                        for rec in wave {
                            let sources = vec![&block[..]; rec.sources()];
                            if rec.targets() == 1 {
                                let mut outs = vec![vec![0u8; BLOCK]];
                                surface::matrix_mul_into(
                                    rec.coefficients(),
                                    rec.sources(),
                                    &sources,
                                    &mut outs,
                                );
                            } else {
                                let mut outs = vec![vec![vec![0u8; BLOCK]; rec.targets()]];
                                surface::matrix_mul_batch(
                                    rec.coefficients(),
                                    rec.sources(),
                                    &sources,
                                    &mut outs,
                                );
                            }
                        }
                    }
                    Ok(())
                })
            })?;

            // sim: helper-fetch and replacement-store trains, plus one
            // timeline phase per degraded block and per repaired stripe.
            let net = Net::new(&spec);
            let mut fetches = 0;
            let mut stores = 0;
            let mut phases = 0;
            for (loss, pattern) in losses.iter().zip(&patterns) {
                for &b in loss.lost.iter().filter(|&&b| b < code.k()) {
                    fetches += surface::degraded_read_fetches(code, b, pattern)?;
                    phases += 1;
                }
                fetches += loss.repair_transfers;
                stores += loss.repair_stores;
                phases += 1;
            }
            sim_s += timed(|| {
                span("sim", "replay pull_train + push_train", code.name, || {
                    for i in 0..fetches {
                        net.pull_train(0, NodeId(i % REPAIR_NODES), &[CHUNK]);
                    }
                    for i in 0..stores {
                        net.push_train(0, NodeId(i % REPAIR_NODES), &[CHUNK]);
                    }
                    surface::timeline_records(phases);
                    Ok(())
                })
            })?;

            // cluster: the repair pass walks each victim's stripes per file.
            let stripes = s.files.len() * self.payload.file_bytes(code) / BLOCK / code.k();
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            let placement = surface::place(code, &spec, stripes, &mut rng)?;
            cluster_s += timed(|| {
                span(
                    "cluster",
                    "replay for_each_stripe_on_node",
                    code.name,
                    || {
                        for &v in victims {
                            surface::scan_node_stripes(&placement, v)?;
                        }
                        Ok(())
                    },
                )
            })?;
        }
        let hdfs_total = top.get("hdfs").copied().unwrap_or(0.0);
        Ok(Attribution::from([
            ("hdfs", (hdfs_total - codes_s - sim_s - cluster_s).max(0.0)),
            ("codes", (codes_s - gf_s).max(0.0)),
            ("gf", gf_s),
            ("sim", sim_s),
            ("cluster", cluster_s),
        ]))
    }
}
