//! `mr_sweep`: the MapReduce engine and the schedulers, no payload bytes.
//!
//! Per iteration: Terasort provisioned at 400 % load (four waves of map
//! tasks) on a datacenter-shaped cluster for 3-rep, 2-rep, pentagon,
//! heptagon and heptagon-local, ten engine runs each, through
//! `run_terasort_sweep`; plus `simulate_locality` on the same cluster and
//! load for the delay, max-matching and peeling schedulers. The engine, the
//! schedulers, `sim::Resource` and the `cluster` index do all the work; no
//! `gf`, `codes` or `hdfs` byte moves, so a kernel or buffer-pool change
//! predicts no change here.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::surface::{self, Code, Failure, Net, NodeId, Pipe};
use crate::trace::span;
use crate::workload::{
    sub_seed, timed, Attribution, Checks, Iteration, Meter, Model, Size, Workload, MR_LOAD_PERCENT,
};

pub struct MrSweep {
    codes: Vec<Code>,
    nodes: usize,
    locality_trials: usize,
    locality_seed: u64,
}

impl MrSweep {
    pub fn new(seed: u64, size: &Size) -> Result<MrSweep, Failure> {
        Ok(MrSweep {
            codes: surface::mr_codes()?,
            nodes: size.mr_nodes,
            locality_trials: size.mr_locality_trials,
            locality_seed: sub_seed(seed, 30),
        })
    }

    fn tasks(&self) -> usize {
        surface::spec_datacenter(self.nodes).tasks_for_load(MR_LOAD_PERCENT)
    }

    /// The code the three scheduler comparisons place: the pentagon, the
    /// paper's running example.
    fn locality_code(&self) -> &Code {
        &self.codes[2]
    }
}

impl Workload for MrSweep {
    fn work_unit(&self) -> &'static str {
        "map tasks"
    }

    fn iterations_repeat(&self) -> bool {
        true
    }

    fn iterate(&mut self, _iter: u32, checks: &mut Checks) -> Result<Iteration, Failure> {
        let mut meter = Meter::default();
        let spec = surface::spec_datacenter(self.nodes);
        let (sweep, localities) = meter.run(|| {
            let sweep = surface::terasort_sweep(spec.clone(), &self.codes, MR_LOAD_PERCENT)?;
            let mut localities = Vec::with_capacity(3);
            for scheduler in surface::schedulers() {
                localities.push(surface::locality(
                    self.locality_code(),
                    scheduler,
                    spec.clone(),
                    MR_LOAD_PERCENT,
                    self.locality_trials,
                    self.locality_seed,
                )?);
            }
            Ok::<_, Failure>((sweep, localities))
        })?;

        let tasks = self.tasks();
        let trials = surface::terasort_trials();
        checks.check(sweep.points.len() == self.codes.len(), || {
            format!(
                "sweep returned {} points for {} codes",
                sweep.points.len(),
                self.codes.len()
            )
        });
        let mut model = Model::default();
        for (code, p) in self.codes.iter().zip(&sweep.points) {
            checks.check(p.code == code.kind && p.trials == trials, || {
                format!(
                    "{}: point is {:?} with {} trials",
                    code.name, p.code, p.trials
                )
            });
            checks.check(p.job_time_s.is_finite() && p.job_time_s > 0.0, || {
                format!("{}: job time {}", code.name, p.job_time_s)
            });
            checks.check((0.0..=100.0).contains(&p.data_locality_percent), || {
                format!("{}: locality {} %", code.name, p.data_locality_percent)
            });
            checks.check(p.degraded_reads == 0.0, || {
                format!(
                    "{}: {} degraded reads on a healthy cluster",
                    code.name, p.degraded_reads
                )
            });
            model.virtual_s += p.job_time_s;
            model.net_bytes += p.network_traffic_gb * (1u64 << 30) as f64;
            model.user_bytes += (tasks as u64 * spec.block_size_bytes()) as f64;
            model.locality_pct += p.data_locality_percent / self.codes.len() as f64;
        }
        for l in &localities {
            checks.check(l.tasks == tasks && l.trials == self.locality_trials, || {
                format!(
                    "{}: {} tasks provisioned, {tasks} expected",
                    l.scheduler, l.tasks
                )
            });
            checks.check((0.0..=100.0).contains(&l.mean_locality_percent), || {
                format!("{}: locality {} %", l.scheduler, l.mean_locality_percent)
            });
        }
        let work = (tasks * (self.codes.len() * trials + 3 * self.locality_trials)) as f64;
        Ok(Iteration {
            meter,
            work,
            model,
            canon: format!("{:?}\n{localities:?}\n", sweep.points),
        })
    }

    /// `run_terasort_sweep` (core) is a trial loop around provisioning
    /// (`workloads`, which places the input: `cluster`) and the engine
    /// (`mapreduce`), which reserves a map slot per task, the fabric per
    /// wave and one transfer per reduce task and source node (`sim`). The
    /// engine is not on the bound surface, so it cannot be replayed alone:
    /// what the replays of `workloads`, `cluster` and `sim` do not explain
    /// of the core span is `mapreduce`'s (core's own loop is a `for`).
    fn attribute(&mut self, top: &Attribution) -> Result<Attribution, Failure> {
        let spec = surface::spec_datacenter(self.nodes);
        let trials = surface::terasort_trials();
        let mut rng = ChaCha8Rng::seed_from_u64(self.locality_seed);
        let mut provision_s = 0.0;
        let mut place_s = 0.0;
        let mut lookup_s = 0.0;
        let mut sim_s = 0.0;
        for code in &self.codes {
            let mut shape = (0, 0, 0);
            provision_s += timed(|| {
                for _ in 0..trials {
                    shape = surface::provision_terasort(code, &spec, MR_LOAD_PERCENT, &mut rng)?;
                }
                Ok(())
            })?;
            let (maps, reduces, stripes) = shape;
            // Provisioning's own placement, then the engine's lookup of
            // every block when it builds its task graph.
            let mut placed = Vec::with_capacity(trials);
            place_s += timed(|| {
                span("cluster", "replay place", code.name, || {
                    for _ in 0..trials {
                        placed.push(surface::place(code, &spec, stripes, &mut rng)?);
                    }
                    Ok(())
                })
            })?;
            lookup_s += timed(|| {
                span("cluster", "replay locations", code.name, || {
                    placed
                        .iter()
                        .try_for_each(|p| surface::lookup_all(p).map(drop))
                })
            })?;
            let slot = Pipe::new(1.0);
            let net = Net::new(&spec);
            sim_s += timed(|| {
                span(
                    "sim",
                    "replay slot + shuffle reservations",
                    code.name,
                    || {
                        for _ in 0..trials {
                            for t in 0..maps {
                                slot.reserve_bytes(t as u64, 1);
                            }
                            for r in 0..reduces {
                                for n in 0..self.nodes {
                                    net.transfer(0, NodeId(n), NodeId(r % self.nodes), 1 << 20);
                                }
                            }
                        }
                        Ok(())
                    },
                )
            })?;
        }
        // The three `simulate_locality` points each place their input too.
        let stripes = self.tasks().div_ceil(self.locality_code().k());
        let locality_place_s = timed(|| {
            span("cluster", "replay place", "locality", || {
                for _ in 0..3 * self.locality_trials {
                    surface::place(self.locality_code(), &spec, stripes, &mut rng)?;
                }
                Ok(())
            })
        })?;
        let entered =
            top.get("core").copied().unwrap_or(0.0) + top.get("mapreduce").copied().unwrap_or(0.0);
        let below = provision_s + lookup_s + locality_place_s + sim_s;
        Ok(Attribution::from([
            ("mapreduce", (entered - below).max(0.0)),
            ("workloads", (provision_s - place_s).max(0.0)),
            ("cluster", place_s + lookup_s + locality_place_s),
            ("sim", sim_s),
        ]))
    }
}
