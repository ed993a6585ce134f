//! Cluster hardware specifications, including the paper's two experimental
//! set-ups (§4).

/// A finite `f64` greater than zero: the type of every bandwidth and
/// slowdown factor (the field or parameter name carries the unit).
/// [`Positive::new`] is the only way in, so a NaN, zero, negative or
/// infinite bandwidth — which would time every transfer as free — cannot
/// reach the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Positive(f64);

impl Positive {
    /// `Some` if `value` is finite and greater than zero.
    pub const fn new(value: f64) -> Option<Self> {
        if value.is_finite() && value > 0.0 {
            Some(Positive(value))
        } else {
            None
        }
    }

    /// The wrapped value, bit for bit what was passed to [`Positive::new`].
    pub const fn get(self) -> f64 {
        self.0
    }
}

/// A preset's bandwidth literal, in MiB/s. Every call sits in a `const`
/// block, so a literal that is not finite and positive fails the build.
const fn preset(mib_s: f64) -> Positive {
    match Positive::new(mib_s) {
        Some(bandwidth) => bandwidth,
        // drc-lint: allow(panic-hygiene): evaluated at compile time only (every
        // call is in a `const` block), so a bad literal fails the build, not a run.
        None => panic!("a preset bandwidth must be finite and positive"),
    }
}

/// Static description of a homogeneous Hadoop cluster.
///
/// The fields mirror the knobs the paper varies or reports: node count, map
/// and reduce slots per node, block size, and the disk / network bandwidth
/// that determine how much slower a remote (non-local) map task is than a
/// local one.
///
/// # Example
///
/// ```
/// use drc_cluster::ClusterSpec;
///
/// let s1 = ClusterSpec::setup1();
/// assert_eq!(s1.data_nodes, 25);
/// assert_eq!(s1.map_slots_per_node, 2);
/// assert_eq!(s1.total_map_slots(), 50);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable name of the set-up.
    pub name: String,
    /// Number of data nodes (excludes the master that hosts NameNode,
    /// JobTracker and RaidNode).
    pub data_nodes: usize,
    /// Number of racks the data nodes are spread over.
    pub racks: usize,
    /// Map slots configured per node.
    pub map_slots_per_node: usize,
    /// Reduce slots configured per node.
    pub reduce_slots_per_node: usize,
    /// Processor cores per node.
    pub cores_per_node: usize,
    /// HDFS block size in MiB.
    pub block_size_mb: u64,
    /// Sustained disk read bandwidth per node, in MiB/s.
    pub disk_bandwidth_mbps: Positive,
    /// Usable network bandwidth per node, in MiB/s.
    pub network_bandwidth_mbps: Positive,
    /// RAM per node in GiB (informational; not used by the simulator).
    pub ram_gb: u64,
}

impl ClusterSpec {
    /// The paper's set-up 1: 25 dual-core IBM laptops, 3 GB RAM, 128 MB
    /// blocks, 2 map + 1 reduce slots, shared 10 Gbps LAN.
    pub fn setup1() -> Self {
        ClusterSpec {
            name: "setup1 (25 nodes, 2 map slots)".to_string(),
            data_nodes: 25,
            racks: 1,
            map_slots_per_node: 2,
            reduce_slots_per_node: 1,
            cores_per_node: 2,
            block_size_mb: 128,
            // Laptop-class disks and a 10 Gbps LAN shared by 25 nodes:
            // effective per-node network bandwidth is what limits remote reads.
            disk_bandwidth_mbps: const { preset(90.0) },
            network_bandwidth_mbps: const { preset(45.0) },
            ram_gb: 3,
        }
    }

    /// The paper's set-up 2: 9 server-class nodes with 4 cores, 24 GB RAM,
    /// 512 MB blocks, 4 map + 2 reduce slots.
    pub fn setup2() -> Self {
        ClusterSpec {
            name: "setup2 (9 nodes, 4 map slots)".to_string(),
            data_nodes: 9,
            racks: 1,
            map_slots_per_node: 4,
            reduce_slots_per_node: 2,
            cores_per_node: 4,
            block_size_mb: 512,
            disk_bandwidth_mbps: const { preset(160.0) },
            network_bandwidth_mbps: const { preset(110.0) },
            ram_gb: 24,
        }
    }

    /// The 25-node system used for the Fig. 3 locality simulations and the
    /// Table 1 MTTDL analysis, parameterised by map slots per node.
    pub fn simulation_25(map_slots_per_node: usize) -> Self {
        ClusterSpec {
            name: format!("simulated 25-node cluster ({map_slots_per_node} map slots)"),
            data_nodes: 25,
            racks: 3,
            map_slots_per_node,
            reduce_slots_per_node: 1,
            cores_per_node: map_slots_per_node,
            block_size_mb: 128,
            disk_bandwidth_mbps: const { preset(100.0) },
            network_bandwidth_mbps: const { preset(60.0) },
            ram_gb: 8,
        }
    }

    /// A general custom cluster with sensible defaults for the remaining
    /// parameters.
    pub fn custom(data_nodes: usize, racks: usize, map_slots_per_node: usize) -> Self {
        ClusterSpec {
            name: format!("{data_nodes}-node cluster"),
            data_nodes,
            racks: racks.max(1),
            map_slots_per_node,
            reduce_slots_per_node: 1,
            cores_per_node: map_slots_per_node,
            block_size_mb: 128,
            disk_bandwidth_mbps: const { preset(100.0) },
            network_bandwidth_mbps: const { preset(60.0) },
            ram_gb: 8,
        }
    }

    /// A datacenter-scale cluster for the metadata-plane experiments:
    /// `data_nodes` server-class nodes spread over racks of 40, with the
    /// set-up-2 per-node hardware. Node counts of 1000+ are the intended
    /// range; placement and indexing stay O(blocks), not O(nodes × blocks).
    pub fn datacenter(data_nodes: usize) -> Self {
        ClusterSpec {
            name: format!("datacenter ({data_nodes} nodes)"),
            data_nodes,
            racks: data_nodes.div_ceil(40).max(1),
            map_slots_per_node: 4,
            reduce_slots_per_node: 2,
            cores_per_node: 4,
            block_size_mb: 128,
            disk_bandwidth_mbps: const { preset(160.0) },
            network_bandwidth_mbps: const { preset(110.0) },
            ram_gb: 24,
        }
    }

    /// Total map slots in the cluster (the denominator of the paper's *load*
    /// definition in §3.2).
    pub fn total_map_slots(&self) -> usize {
        self.data_nodes * self.map_slots_per_node
    }

    /// Total reduce slots in the cluster.
    pub fn total_reduce_slots(&self) -> usize {
        self.data_nodes * self.reduce_slots_per_node
    }

    /// The number of map tasks corresponding to a given load percentage
    /// (load = tasks / total map slots × 100, §3.2).
    pub fn tasks_for_load(&self, load_percent: f64) -> usize {
        // drc-lint: allow(lossy-float-cast): explicitly rounded; in-repo
        // loads are positive grid constants (25..=400 %), and both callers
        // that take a load from outside (simulate_locality,
        // provision_workload) reject non-finite and non-positive ones first.
        ((load_percent / 100.0) * self.total_map_slots() as f64).round() as usize
    }

    /// Block size in bytes.
    pub fn block_size_bytes(&self) -> u64 {
        self.block_size_mb * 1024 * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup1_matches_paper() {
        let s = ClusterSpec::setup1();
        assert_eq!(s.data_nodes, 25);
        assert_eq!(s.map_slots_per_node, 2);
        assert_eq!(s.reduce_slots_per_node, 1);
        assert_eq!(s.cores_per_node, 2);
        assert_eq!(s.block_size_mb, 128);
        assert_eq!(s.total_map_slots(), 50);
    }

    #[test]
    fn setup2_matches_paper() {
        let s = ClusterSpec::setup2();
        assert_eq!(s.data_nodes, 9);
        assert_eq!(s.map_slots_per_node, 4);
        assert_eq!(s.reduce_slots_per_node, 2);
        assert_eq!(s.block_size_mb, 512);
        assert_eq!(s.total_map_slots(), 36);
    }

    #[test]
    fn load_math_matches_paper_example() {
        // §3.2: "A 100-node system that handles 250 map tasks, with 4 map
        // slots per node, is operating under a load of 62.5%."
        let s = ClusterSpec::custom(100, 1, 4);
        assert_eq!(s.total_map_slots(), 400);
        assert_eq!(s.tasks_for_load(62.5), 250);
    }

    #[test]
    fn simulation_cluster_slots() {
        for mu in [2, 4, 8] {
            let s = ClusterSpec::simulation_25(mu);
            assert_eq!(s.total_map_slots(), 25 * mu);
            assert_eq!(s.tasks_for_load(100.0), 25 * mu);
            assert_eq!(s.tasks_for_load(50.0), 25 * mu / 2);
        }
    }

    #[test]
    fn datacenter_scales_racks_with_nodes() {
        let s = ClusterSpec::datacenter(1000);
        assert_eq!(s.data_nodes, 1000);
        assert_eq!(s.racks, 25);
        assert_eq!(s.total_map_slots(), 4000);
        assert_eq!(ClusterSpec::datacenter(1).racks, 1);
    }

    #[test]
    fn positive_admits_exactly_the_finite_values_above_zero() {
        for bad in [f64::NAN, 0.0, -0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Positive::new(bad), None, "{bad}");
        }
        let subnormal = f64::from_bits(1);
        for good in [subnormal, f64::MIN_POSITIVE, 1.0, f64::MAX] {
            let wrapped = Positive::new(good).map(Positive::get);
            assert_eq!(wrapped.map(f64::to_bits), Some(good.to_bits()), "{good}");
        }
    }

    #[test]
    fn block_size_conversion() {
        assert_eq!(ClusterSpec::setup1().block_size_bytes(), 128 * 1024 * 1024);
    }
}
