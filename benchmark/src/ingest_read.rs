//! `ingest_read`: the healthy foreground path on real bytes.
//!
//! Per iteration, for each of the five byte codes: a fresh file system on
//! the 25-node simulation cluster with 1 MiB blocks, `write_file` of ≈ 150
//! MiB in four whole-stripe files, `read_file` of each, byte-compare. The
//! `gf` kernels, the stripe encoder and the DataNode copies do nearly all
//! the work; `mapreduce` does none and nothing is reconstructed.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::surface::{self, Code, Encoder, Failure, Fs, Net, NodeId};
use crate::trace::span;
use crate::workload::{
    sub_seed, timed, Attribution, Checks, Iteration, Meter, Model, Payload, Size, Workload, BLOCK,
};

pub struct IngestRead {
    codes: Vec<Code>,
    payload: Payload,
    fs_seed: u64,
}

impl IngestRead {
    pub fn new(seed: u64, size: &Size) -> Result<IngestRead, Failure> {
        let codes = surface::byte_codes()?;
        let payload = Payload::new(
            sub_seed(seed, 1),
            &codes,
            size.ingest_files,
            size.ingest_file_blocks,
        );
        Ok(IngestRead {
            codes,
            payload,
            fs_seed: sub_seed(seed, 2),
        })
    }

    /// The stripes of every file of `code`, each as `k` block-sized views
    /// into the payload (what `write_file` hands the encoder, minus its copy).
    fn stripes<'a>(&'a self, code: &'a Code) -> impl Iterator<Item = Vec<&'a [u8]>> + 'a {
        (0..self.payload.files).flat_map(move |f| {
            self.payload
                .file(code, f)
                .chunks(code.k() * BLOCK)
                .map(|stripe| stripe.chunks(BLOCK).collect())
        })
    }
}

impl Workload for IngestRead {
    fn work_unit(&self) -> &'static str {
        "MiB written+read"
    }

    fn iterations_repeat(&self) -> bool {
        true
    }

    fn iterate(&mut self, _iter: u32, checks: &mut Checks) -> Result<Iteration, Failure> {
        let mut meter = Meter::default();
        let mut model = Model::default();
        let mut canon = String::new();
        let mut work = 0.0;
        for code in &self.codes {
            let user_bytes = (self.payload.files * self.payload.file_bytes(code)) as u64;
            let (fs, backs, write_ns, read_ns, stats) = meter.run(|| {
                let mut fs = Fs::new(surface::spec_sim25(), self.fs_seed, code.name);
                let t0 = fs.now_ns();
                let mut ids = Vec::with_capacity(self.payload.files);
                for f in 0..self.payload.files {
                    let name = format!("/bench/{}/{f}", code.name);
                    ids.push(fs.write_file(&name, self.payload.file(code, f), code)?);
                }
                let t1 = fs.sync_ns();
                let mut backs = Vec::with_capacity(self.payload.files);
                for id in ids {
                    backs.push(fs.read_file(id, code.name)?);
                }
                let t2 = fs.sync_ns();
                let stats = fs.stats();
                Ok::<_, Failure>((fs, backs, t1 - t0, t2 - t1, stats))
            })?;
            for (f, back) in backs.iter().enumerate() {
                checks.check(back.as_slice() == self.payload.file(code, f), || {
                    format!("{}: file {f} read back differently", code.name)
                });
            }
            let (num, den) = code.overhead;
            checks.check(stats.stored_bytes * den == user_bytes * num, || {
                format!(
                    "{}: stored {} B for {user_bytes} user B, Table 1 says {num}/{den}",
                    code.name, stats.stored_bytes
                )
            });
            // Freeing the read-back buffers and the file system (whose block
            // buffers return to the product's pool) is the caller's cost too.
            meter.run(|| drop((fs, backs)));

            work += 2.0 * user_bytes as f64 / BLOCK as f64;
            model.virtual_s += (write_ns + read_ns) as f64 / 1e9;
            model.net_bytes += (stats.write_network_bytes + stats.read_network_bytes) as f64;
            model.user_bytes += user_bytes as f64;
            model.stored_bytes += stats.stored_bytes as f64;
            model.stored_user_bytes += user_bytes as f64;
            canon.push_str(&format!(
                "{}:write_ns={write_ns}:read_ns={read_ns}:{stats:?}\n",
                code.name
            ));
        }
        Ok(Iteration {
            meter,
            work,
            model,
            canon,
        })
    }

    /// `hdfs` is entered from outside; below it one iteration encodes every
    /// stripe (`codes`, which bottoms out in `gf`), places every file and
    /// looks every block up twice (`cluster`), and reserves one store per
    /// replica and one fetch per data block (`sim`).
    fn attribute(&mut self, top: &Attribution) -> Result<Attribution, Failure> {
        let mut codes_s = 0.0;
        let mut gf_s = 0.0;
        let mut cluster_s = 0.0;
        let mut sim_s = 0.0;
        let mut rng = ChaCha8Rng::seed_from_u64(self.fs_seed);
        for code in &self.codes {
            let mut encoder = Encoder::default();
            codes_s += timed(|| {
                span("codes", "replay StripeEncoder::encode", code.name, || {
                    self.stripes(code)
                        .try_for_each(|s| encoder.encode(code, &s).map(drop))
                })
            })?;

            let coeffs = surface::parity_matrix(code);
            let mut outs = vec![vec![0u8; BLOCK]; coeffs.len() / code.k()];
            gf_s += timed(|| {
                span("gf", "replay matrix_mul_into", code.name, || {
                    for s in self.stripes(code) {
                        surface::matrix_mul_into(&coeffs, code.k(), &s, &mut outs);
                    }
                    Ok(())
                })
            })?;

            let stripes_per_file = self.payload.file_bytes(code) / BLOCK / code.k();
            let spec = surface::spec_sim25();
            let mut stored = 0;
            cluster_s += timed(|| {
                span("cluster", "replay place + locations", code.name, || {
                    for _ in 0..self.payload.files {
                        let placement = surface::place(code, &spec, stripes_per_file, &mut rng)?;
                        stored += surface::lookup_all(&placement)?;
                        surface::lookup_all(&placement)?;
                    }
                    Ok(())
                })
            })?;

            let net = Net::new(&spec);
            let fetched = self.payload.files * self.payload.file_bytes(code) / BLOCK;
            sim_s += timed(|| {
                span(
                    "sim",
                    "replay store + fetch reservations",
                    code.name,
                    || {
                        for i in 0..stored {
                            net.push_train(0, NodeId(i % spec.data_nodes), &[BLOCK as u64]);
                        }
                        for i in 0..fetched {
                            net.pull_train(0, NodeId(i % spec.data_nodes), &[BLOCK as u64]);
                        }
                        surface::timeline_records(2 * self.payload.files);
                        Ok(())
                    },
                )
            })?;
        }
        let hdfs_total = top.get("hdfs").copied().unwrap_or(0.0);
        Ok(Attribution::from([
            ("hdfs", (hdfs_total - codes_s - cluster_s - sim_s).max(0.0)),
            ("codes", (codes_s - gf_s).max(0.0)),
            ("gf", gf_s),
            ("cluster", cluster_s),
            ("sim", sim_s),
        ]))
    }
}
