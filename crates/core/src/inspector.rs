//! Device inspector (§3.2): assesses the target GPU on the fly and tunes
//! the frontier word width, subgroup size, workgroup size and coarsening
//! factor. Also hosts the optimization toggles ablated in Figure 7.

use serde::{Deserialize, Serialize};
use sygraph_sim::{DeviceProfile, Plan, PlanInputs, Vendor};

use crate::engine::recovery::RecoveryPolicy;

/// Advance load-balancing policy (§4.2): how compacted frontier vertices
/// are mapped onto execution resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Balancing {
    /// The original single-path mapping: every non-zero bitmap word is
    /// owned by one subgroup (MSI) or workgroup, and every vertex in it is
    /// expanded subgroup-cooperatively regardless of degree.
    WorkgroupMapped,
    /// Degree-aware three-bucket dispatch: small-degree vertices are
    /// lane-mapped, medium-degree vertices subgroup-cooperative, and
    /// large-degree vertices split into workgroup-sized neighbor chunks
    /// that spread across compute units (Gunrock-TWC / Tigr style).
    Bucketed,
    /// Pick per superstep: bucketed when the frontier is big enough to
    /// amortize the binning kernel *and* the graph's degree histogram
    /// (precomputed at load) shows hub vertices; workgroup-mapped
    /// otherwise.
    Auto,
}

/// Frontier representation policy: how the active set is materialized for
/// the advance (GraphBLAST-style sparse/dense mask switching).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Representation {
    /// Always the bitmap path — the paper's §4.3 two-layer layout with
    /// its per-superstep compaction scan.
    Dense,
    /// Always the item-list path: advance walks an explicit duplicate-free
    /// vertex list, skipping the compaction scan entirely.
    Sparse,
    /// Pick per superstep from the population count the engine already
    /// syncs for convergence, with hysteresis (see [`Tuning::plan`]).
    #[default]
    Auto,
}

/// Traversal direction policy (§3.4): whether the advance expands the
/// frontier's out-edges (push) or scans unvisited vertices' in-edges
/// against the frontier bitmap (pull), à la Beamer's direction-optimizing
/// BFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Direction {
    /// Always push: the classic top-down advance over the CSR.
    Push,
    /// Always pull: every superstep scans candidate vertices' in-edges
    /// (the CSC view) and adopts on the first frontier hit. Requires a
    /// graph built with a pull view ([`crate::graph::Graph::with_pull`]);
    /// the engine falls back to push when none is available.
    Pull,
    /// Beamer-style per-superstep selection with hysteresis (see
    /// [`Tuning::plan`]): pull when the frontier about to be expanded is
    /// larger than `n / DIRECTION_ALPHA`, back to push once it is smaller
    /// than `n / DIRECTION_BETA`. The population is the input's own
    /// measure — its list length or counted compaction, the one host
    /// read-back the superstep makes anyway — so the switch lands on the
    /// superstep whose frontier crossed the threshold, at no extra
    /// synchronization.
    #[default]
    Auto,
}

/// Which of the paper's §4 optimizations are enabled. Figure 7 ablates:
/// plain bitmap (all off), *MSI*, *CF*, *2LB* and *All*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptConfig {
    /// Match Subgroup-to-Integer size: pick the bitmap word width equal to
    /// the device's subgroup width (32 on NVIDIA/Intel, 64 on AMD).
    pub msi: bool,
    /// Coarsening Factor: each subgroup processes several bitmap words so
    /// the whole compute unit stays busy.
    pub coarsening: bool,
    /// Two-Layer Bitmap: skip all-zero words via the second layer.
    pub two_layer: bool,
    /// Advance load-balancing policy. Bucketed dispatch needs the counted
    /// compaction, so it degrades to workgroup-mapped on single-layer
    /// bitmaps.
    pub balancing: Balancing,
    /// Frontier representation policy. Sparse and auto need the hybrid /
    /// list frontiers, which build on the two-layer machinery; with
    /// `two_layer` off the engine stays on the plain dense bitmap.
    pub representation: Representation,
    /// Traversal direction policy. `Auto` is safe as a default: graphs
    /// without a pull (CSC) view simply stay on the push path.
    pub direction: Direction,
    /// Fault-recovery policy for the superstep engine (default:
    /// all-disabled — faults propagate as errors).
    pub recovery: RecoveryPolicy,
}

impl OptConfig {
    /// Everything on — the shipping configuration.
    pub fn all() -> Self {
        OptConfig {
            msi: true,
            coarsening: true,
            two_layer: true,
            balancing: Balancing::Auto,
            representation: Representation::Auto,
            direction: Direction::Auto,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Plain §4.1 bitmap, no optimizations (Figure 7 baseline).
    pub fn baseline() -> Self {
        OptConfig {
            msi: false,
            coarsening: false,
            two_layer: false,
            balancing: Balancing::WorkgroupMapped,
            representation: Representation::Dense,
            direction: Direction::Push,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// `all()` with an explicit balancing strategy — the configuration
    /// axis of the `advance_balancing` ablation.
    pub fn with_balancing(balancing: Balancing) -> Self {
        OptConfig {
            balancing,
            ..Self::all()
        }
    }

    /// `all()` with an explicit frontier representation — the
    /// configuration axis of the `frontier_rep` ablation and the CLI's
    /// `--frontier` flag.
    pub fn with_representation(representation: Representation) -> Self {
        OptConfig {
            representation,
            ..Self::all()
        }
    }

    /// `all()` with an explicit traversal direction — the configuration
    /// axis of the `direction_opt` ablation and the CLI's `--direction`
    /// flag.
    pub fn with_direction(direction: Direction) -> Self {
        OptConfig {
            direction,
            ..Self::all()
        }
    }

    pub fn msi_only() -> Self {
        OptConfig {
            msi: true,
            ..Self::baseline()
        }
    }

    pub fn cf_only() -> Self {
        OptConfig {
            coarsening: true,
            ..Self::baseline()
        }
    }

    pub fn two_layer_only() -> Self {
        OptConfig {
            two_layer: true,
            ..Self::baseline()
        }
    }

    /// The five Figure 7 configurations, labelled.
    pub fn ablation_suite() -> Vec<(&'static str, OptConfig)> {
        vec![
            ("Base", Self::baseline()),
            ("MSI", Self::msi_only()),
            ("CF", Self::cf_only()),
            ("2LB", Self::two_layer_only()),
            ("All", Self::all()),
        ]
    }
}

impl Default for OptConfig {
    fn default() -> Self {
        Self::all()
    }
}

/// Tuning parameters the inspector derives for a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tuning {
    /// Bitmap word width in bits (32 or 64).
    pub word_bits: u32,
    /// Subgroup width used by frontier kernels.
    pub sg_size: u32,
    /// Subgroups per workgroup.
    pub subgroups_per_wg: u32,
    /// Bitmap words each subgroup processes per advance (≥ 1).
    pub coarsening: u32,
    /// Advance load-balancing policy (see [`Balancing`]).
    pub balancing: Balancing,
    /// Bucketed dispatch: vertices with out-degree ≤ this go to the
    /// lane-mapped small bucket (one lane walks the whole adjacency).
    pub small_max_degree: u32,
    /// Bucketed dispatch: vertices with out-degree ≥ this go to the
    /// chunked large bucket (one workgroup per neighbor chunk). The chunk
    /// size equals this threshold, so every chunk saturates a workgroup.
    pub large_min_degree: u32,
    /// Frontier representation policy (see [`Representation`]); `Auto`
    /// switches at [`SPARSE_ENTER_DIV`] / [`SPARSE_EXIT_DIV`].
    pub representation: Representation,
    /// Traversal direction policy (see [`Direction`]); `Auto` switches at
    /// [`DIRECTION_ALPHA`] / [`DIRECTION_BETA`].
    pub direction: Direction,
    /// Fault-recovery policy consulted by the superstep engine.
    pub recovery: RecoveryPolicy,
}

impl Tuning {
    pub fn wg_size(&self) -> u32 {
        self.sg_size * self.subgroups_per_wg
    }

    /// Whether whole words map to single subgroups (MSI on: word width ≤
    /// subgroup width). Otherwise a workgroup owns each word and its
    /// subgroups split the bits.
    pub fn subgroup_mapped(&self) -> bool {
        self.word_bits <= self.sg_size
    }

    /// Bitmap words one workgroup covers.
    pub fn words_per_group(&self) -> u32 {
        if self.subgroup_mapped() {
            self.subgroups_per_wg * self.coarsening
        } else {
            self.coarsening
        }
    }

    /// Local memory bytes an advance workgroup declares: one u32 slot per
    /// bit of every word the group compacts (paper §4.2: "local memory
    /// for each workgroup is defined by the coarsening factor and the
    /// range of a bitmap's single integer").
    pub fn advance_local_bytes(&self) -> u32 {
        self.words_per_group() * self.word_bits * 4
    }

    /// Neighbor-range chunk size for the large bucket. Chunks are exactly
    /// `large_min_degree` edges so every chunk is at least one full
    /// workgroup-wide pass (`wg_size × 4` edges by default).
    pub fn large_chunk(&self) -> u32 {
        self.large_min_degree.max(1)
    }

    /// Resolve `Auto` against the graph's degree profile (None = unknown,
    /// stay conservative). The choice is per graph, not per superstep:
    /// bucketed dispatch pays a binning kernel plus a host round-trip for
    /// three counters, which only a skewed graph earns back
    /// ([`Tuning::bins`]) — and on one it earns it back even for a one-word
    /// frontier, because that word may hold the hub.
    pub fn effective_balancing(&self, profile: Option<&DegreeProfile>) -> Balancing {
        let (max_degree, word_skew) = profile.map_or((0, 0.0), |p| (p.max_degree, p.word_skew));
        if self.bins(max_degree, word_skew) {
            Balancing::Bucketed
        } else {
            Balancing::WorkgroupMapped
        }
    }

    /// The `Auto` balancing bar. The graph has hub vertices: its maximum
    /// degree reaches `large_min_degree` — uniform-degree graphs (meshes,
    /// road grids, chains) would bin everything into one bucket and gain
    /// nothing. And the hubs are *clustered*: the edge mass of the heaviest
    /// 32-vertex ID window dwarfs the average window
    /// ([`DegreeProfile::word_skew`] ≥ [`AUTO_MIN_WORD_SKEW`]). The
    /// workgroup-mapped path's unit of work is a bitmap word, so it only
    /// suffers when one word concentrates far more edges than its peers —
    /// a graph whose hubs are spread evenly across words (e.g. the
    /// indochina stand-in) keeps every workgroup equally fed and pays the
    /// binning pass for nothing. Explicit strategies ignore the graph.
    fn bins(&self, max_degree: u32, word_skew: f64) -> bool {
        match self.balancing {
            Balancing::Auto => {
                max_degree >= self.large_min_degree && word_skew >= AUTO_MIN_WORD_SKEW
            }
            forced => forced == Balancing::Bucketed,
        }
    }

    /// The representation rule, for an estimate `est` of a frontier's
    /// population against its `capacity`. `est` is an upper bound: exact
    /// when the frontier is listed, `nonzero_words × word_bits` when it
    /// ran dense. `sparse` feeds the hysteresis: a dense frontier goes
    /// sparse only below `capacity / SPARSE_ENTER_DIV` (n/64) and a sparse
    /// one goes dense only above `capacity / SPARSE_EXIT_DIV` (n/32), so a
    /// wavefront sitting on one boundary never pays conversion every
    /// superstep.
    fn lists(&self, est: usize, capacity: usize, sparse: bool) -> bool {
        match self.representation {
            Representation::Dense => false,
            Representation::Sparse => true,
            Representation::Auto if sparse => est <= capacity / SPARSE_EXIT_DIV as usize,
            Representation::Auto => est <= capacity / SPARSE_ENTER_DIV as usize,
        }
    }

    /// Decides how one superstep runs — a pure function of `i`: every
    /// number in it is one the engine already holds host-side (the counted
    /// compaction it reads back for convergence, a list length, the
    /// graph's load-time degree profile), so the decision costs no extra
    /// host round-trip and a recorded one replays from the trace log
    /// alone. It is `represent` with the direction from `pulls`; the
    /// engine calls the two halves on either side of measuring the input.
    pub fn plan(&self, i: &PlanInputs) -> Plan {
        Plan {
            pull: self.pulls(i),
            ..self.represent(i)
        }
    }

    /// The plan's representation half, decided before the superstep
    /// launches anything — the measure it would want is taken over the
    /// layout it picks — so it never reads `measured` (its `pull` is
    /// `false`).
    ///
    /// *Representation, input side*: the rule above on the larger of the
    /// previous superstep's count and the forward estimate — that count
    /// lags a superstep, so without the forward term a wavefront that just
    /// exploded would be asked to go sparse and pay a doomed list rebuild.
    /// A frontier that cannot list stays dense.
    ///
    /// *Representation, output side*: the output adopts before the advance
    /// inserts into it, on a forward estimate: the input's exact
    /// population when it is listed, the estimate otherwise. The
    /// hysteresis gap absorbs ordinary growth, but a frontier no wider
    /// than one bitmap word can hide a hub whose degree the mean conceals
    /// — the explosion superstep of every hub-seeded search — so
    /// `max_degree` is added there. An output adopted dense stops
    /// maintaining its item list, so the widest superstep pays no
    /// per-insert list tax.
    pub(crate) fn represent(&self, i: &PlanInputs) -> Plan {
        let est = i.last_estimate.max(i.predicted);
        let sparse_in = i.listable && self.lists(est, i.capacity, i.prev_sparse);
        let in_pop = if sparse_in {
            i.listed.unwrap_or(est)
        } else {
            est
        };
        let mut predicted = in_pop;
        if in_pop <= self.word_bits as usize {
            predicted = predicted.saturating_add(i.max_degree as usize);
        }
        Plan {
            sparse_in,
            sparse_out: self.lists(predicted, i.capacity, sparse_in),
            pull: false,
            bucketed: self.bins(i.max_degree, i.word_skew),
            predicted,
        }
    }

    /// The plan's direction half (Beamer, §3.4), decided on the measured
    /// population of the frontier this superstep expands, as GraphBLAST
    /// switches on the nnz of the vector it is about to multiply — not on
    /// the forward estimate, whose `max_degree` boost would pin a
    /// hub-carrying web graph in pull for the whole tail. Single-layer
    /// bitmaps have no measure and fall back to the previous superstep's
    /// count. A pushing traversal switches to pull only above
    /// `n / DIRECTION_ALPHA` (n/4), a pulling one returns to push only
    /// below `n / DIRECTION_BETA` (n/24); between the two the current
    /// direction is kept, so a frontier hovering at one boundary never
    /// alternates kernels. `Auto` pulls only when the scan can exit early:
    /// an all-vertices pull never offers the functor fewer edges than the
    /// push it replaces, so only a forced [`Direction::Pull`] takes it.
    pub(crate) fn pulls(&self, i: &PlanInputs) -> bool {
        let pop = i.measured.unwrap_or(i.last_estimate);
        i.pull_available
            && match self.direction {
                Direction::Push => false,
                Direction::Pull => true,
                Direction::Auto if !i.pull_exits_early => false,
                Direction::Auto if i.prev_pull => pop >= i.n / DIRECTION_BETA as usize,
                Direction::Auto => pop > i.n / DIRECTION_ALPHA as usize,
            }
    }
}

/// Minimum [`DegreeProfile::word_skew`] before `Auto` considers the
/// graph's hubs clustered enough for bucketed dispatch to pay off. The
/// generator suite separates cleanly: R-MAT/social stand-ins measure
/// 16–43, the web stand-in ≈ 3.4 and road networks ≈ 1.2.
pub const AUTO_MIN_WORD_SKEW: f64 = 8.0;

/// `Auto` representation entry divisor: a dense frontier adopts
/// the sparse list once its estimated population drops below n/64. The
/// dense estimate is `nonzero_words × word_bits` — an upper bound that
/// already over-counts scattered frontiers — so the divisor is kept
/// conservative.
pub const SPARSE_ENTER_DIV: u32 = 64;

/// `Auto` representation exit divisor: a sparse frontier falls
/// back to the dense bitmap once its (exact) population exceeds n/32.
/// Half the entry divisor — a 2× hysteresis band.
pub const SPARSE_EXIT_DIV: u32 = 32;

/// Beamer's α: `Auto` direction pulls a superstep whose input frontier
/// measures more than n/4. The dense measure over-counts
/// (`nonzero_words × word_bits`), which errs toward pulling early on
/// scale-free graphs — exactly where pull pays.
pub const DIRECTION_ALPHA: u32 = 4;

/// Beamer's β: `Auto` direction leaves pull once the population
/// drops below n/24. The 6× gap between the two thresholds is the
/// hysteresis band that keeps a hovering frontier from flapping.
pub const DIRECTION_BETA: u32 = 24;

/// Vertex-ID window used for [`DegreeProfile::word_skew`]: one 32-bit
/// bitmap word's worth of vertices (the workgroup-mapped advance's unit
/// of work; close enough for 64-bit words too).
const WORD_SKEW_WINDOW: usize = 32;

/// Out-degree histogram the inspector precomputes once at graph upload
/// (log₂ buckets), plus the summary statistics `Auto` consults per
/// superstep. Computing this on the host during CSR upload is free next
/// to the edge-list sort the upload already does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegreeProfile {
    /// Maximum out-degree over all vertices.
    pub max_degree: u32,
    /// Mean out-degree (edges / vertices).
    pub avg_degree: f64,
    /// `buckets[0]` counts degree-0 vertices; for `d ≥ 1` a vertex lands
    /// in bucket `1 + ceil(log2(d))` — so `buckets[1]` is degree 1,
    /// `buckets[2]` degree 2, `buckets[3]` degrees 3–4, `buckets[4]`
    /// degrees 5–8, and so on (clamped at 32).
    pub buckets: Vec<u64>,
    /// Hub clustering: max edge mass of any 32-consecutive-vertex ID
    /// window over the mean window mass (1.0 = uniform, 0.0 = empty).
    /// Predicts the workgroup-mapped path's load imbalance, whose unit of
    /// work is one bitmap word of vertices.
    pub word_skew: f64,
}

impl DegreeProfile {
    pub fn from_degrees(degrees: &[u32]) -> Self {
        let mut max_degree = 0u32;
        let mut sum = 0u64;
        let mut buckets = vec![0u64; 33];
        for &d in degrees {
            max_degree = max_degree.max(d);
            sum += d as u64;
            let b = if d == 0 {
                0
            } else {
                (32 - (d - 1).max(1).leading_zeros()) as usize + usize::from(d > 1)
            };
            buckets[b.min(32)] += 1;
        }
        // Trim trailing empty buckets so the histogram's length tracks
        // log2(max_degree).
        while buckets.len() > 1 && *buckets.last().unwrap() == 0 {
            buckets.pop();
        }
        let word_skew = if sum == 0 {
            0.0
        } else {
            let windows = degrees.len().div_ceil(WORD_SKEW_WINDOW);
            let max_mass = degrees
                .chunks(WORD_SKEW_WINDOW)
                .map(|w| w.iter().map(|&d| d as u64).sum::<u64>())
                .max()
                .unwrap_or(0);
            max_mass as f64 * windows as f64 / sum as f64
        };
        DegreeProfile {
            max_degree,
            avg_degree: if degrees.is_empty() {
                0.0
            } else {
                sum as f64 / degrees.len() as f64
            },
            buckets,
            word_skew,
        }
    }

    /// Skew ratio: max degree over mean degree (∞-free; 0 for empty).
    pub fn skew(&self) -> f64 {
        if self.avg_degree > 0.0 {
            self.max_degree as f64 / self.avg_degree
        } else {
            0.0
        }
    }
}

/// Inspects `profile` and derives tuned parameters (§4.3's discussion):
///
/// * word width: subgroup-matched under MSI (32-bit + warp on NVIDIA,
///   64-bit + wavefront on AMD, 32-bit + SIMD32 on Intel); 64-bit
///   otherwise (the natural "one integer = 64 vertices" default).
/// * coarsening: sized so `total_words / (CU × resident groups)`
///   workgroups saturate the device, clamped to `[1, 8]`.
pub fn inspect(profile: &DeviceProfile, opts: &OptConfig, num_vertices: usize) -> Tuning {
    let sg_size = match profile.vendor {
        Vendor::Intel if profile.supports_subgroup(32) => 32,
        _ => profile.preferred_subgroup,
    };
    let word_bits = if opts.msi { sg_size.min(64) } else { 64 };
    let subgroups_per_wg = 4.min(profile.max_workgroup_size / sg_size).max(1);
    let coarsening = if opts.coarsening {
        // Enough workgroups to keep every CU busy for a few waves; beyond
        // that, coarsening trades scheduling overhead for per-group work.
        let words = num_vertices.div_ceil(word_bits as usize).max(1);
        let groups_uncoarsened = if word_bits <= sg_size {
            words.div_ceil(subgroups_per_wg as usize)
        } else {
            words
        };
        let target_groups = (profile.compute_units as usize * 8).max(1);
        (groups_uncoarsened.div_ceil(target_groups) as u32).clamp(1, 16)
    } else {
        1
    };
    // Bucket thresholds scale with the device's execution widths: a lane
    // can absorb up to half a subgroup-width of edges serially before
    // cooperative expansion wins, and a vertex only deserves whole
    // workgroups once its adjacency covers several full wg-wide passes.
    let wg_size = sg_size * subgroups_per_wg;
    Tuning {
        word_bits,
        sg_size,
        subgroups_per_wg,
        coarsening,
        balancing: opts.balancing,
        small_max_degree: (sg_size / 2).max(2),
        large_min_degree: wg_size * 4,
        representation: opts.representation,
        direction: opts.direction,
        recovery: opts.recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msi_matches_vendor_widths() {
        let n = 1 << 20;
        let t = inspect(&DeviceProfile::v100s(), &OptConfig::all(), n);
        assert_eq!(t.word_bits, 32);
        assert_eq!(t.sg_size, 32);
        let t = inspect(&DeviceProfile::mi100(), &OptConfig::all(), n);
        assert_eq!(t.word_bits, 64);
        assert_eq!(t.sg_size, 64);
        let t = inspect(&DeviceProfile::max1100(), &OptConfig::all(), n);
        assert_eq!(t.word_bits, 32);
        assert_eq!(t.sg_size, 32);
    }

    #[test]
    fn without_msi_word_is_64() {
        let t = inspect(&DeviceProfile::v100s(), &OptConfig::baseline(), 1 << 20);
        assert_eq!(t.word_bits, 64);
        assert_eq!(t.sg_size, 32, "subgroup stays native");
    }

    #[test]
    fn coarsening_grows_with_graph() {
        let p = DeviceProfile::v100s();
        let small = inspect(&p, &OptConfig::all(), 10_000);
        let large = inspect(&p, &OptConfig::all(), 20_000_000);
        assert!(large.coarsening >= small.coarsening);
        assert!(large.coarsening <= 16);
        assert!(large.coarsening > 1, "20M vertices should coarsen");
        let off = inspect(&p, &OptConfig::baseline(), 20_000_000);
        assert_eq!(off.coarsening, 1);
    }

    #[test]
    fn ablation_suite_has_five_configs() {
        let suite = OptConfig::ablation_suite();
        assert_eq!(suite.len(), 5);
        assert_eq!(suite[0].0, "Base");
        assert_eq!(suite[4].0, "All");
        assert_eq!(suite[4].1, OptConfig::default());
    }

    #[test]
    fn local_bytes_scale_with_coarsening() {
        let t = Tuning {
            word_bits: 32,
            sg_size: 32,
            subgroups_per_wg: 4,
            coarsening: 2,
            balancing: Balancing::WorkgroupMapped,
            small_max_degree: 16,
            large_min_degree: 512,
            representation: Representation::Dense,
            direction: Direction::Push,
            recovery: RecoveryPolicy::default(),
        };
        assert_eq!(t.wg_size(), 128);
        assert_eq!(t.words_per_group(), 8);
        assert_eq!(t.advance_local_bytes(), 8 * 32 * 4);
    }

    #[test]
    fn baseline_and_ablation_configs_stay_dense() {
        assert_eq!(OptConfig::baseline().representation, Representation::Dense);
        assert_eq!(OptConfig::all().representation, Representation::Auto);
        assert_eq!(
            OptConfig::with_representation(Representation::Sparse).representation,
            Representation::Sparse
        );
        assert_eq!(OptConfig::baseline().direction, Direction::Push);
        assert_eq!(
            OptConfig::with_direction(Direction::Pull).direction,
            Direction::Pull
        );
        for (label, cfg) in OptConfig::ablation_suite() {
            if label != "All" {
                assert_eq!(cfg.representation, Representation::Dense, "{label}");
            }
        }
    }

    #[test]
    fn inspect_derives_bucket_thresholds() {
        let t = inspect(&DeviceProfile::v100s(), &OptConfig::all(), 1 << 20);
        assert_eq!(t.small_max_degree, 16);
        assert_eq!(t.large_min_degree, t.wg_size() * 4);
        assert_eq!(t.large_chunk(), t.large_min_degree);
        assert_eq!(t.balancing, Balancing::Auto);
        let base = inspect(&DeviceProfile::v100s(), &OptConfig::baseline(), 1 << 20);
        assert_eq!(base.balancing, Balancing::WorkgroupMapped);
    }

    #[test]
    fn degree_profile_histogram() {
        let p = DegreeProfile::from_degrees(&[0, 1, 2, 3, 4, 8, 1000]);
        assert_eq!(p.max_degree, 1000);
        assert_eq!(p.buckets[0], 1); // degree 0
        assert_eq!(p.buckets[1], 1); // degree 1
        assert_eq!(p.buckets[2], 1); // degree 2
        assert_eq!(p.buckets[3], 2); // degrees 3-4
        assert_eq!(p.buckets[4], 1); // degrees 5-8
        assert_eq!(p.buckets[11], 1); // degrees 513-1024
        assert_eq!(p.buckets.len(), 12, "trailing empty buckets trimmed");
        assert!(p.skew() > 1.0);
        assert_eq!(p.word_skew, 1.0, "a single window is its own mean");
        let empty = DegreeProfile::from_degrees(&[]);
        assert_eq!(empty.max_degree, 0);
        assert_eq!(empty.skew(), 0.0);
        assert_eq!(empty.word_skew, 0.0);
    }

    #[test]
    fn word_skew_measures_hub_clustering() {
        // One hot window among 16: all edge mass in vertices 0..32.
        let mut clustered = vec![0u32; 512];
        for d in clustered.iter_mut().take(32) {
            *d = 100;
        }
        let p = DegreeProfile::from_degrees(&clustered);
        assert!((p.word_skew - 16.0).abs() < 1e-9);
        // Same total mass spread evenly: every window identical.
        let uniform = vec![100u32 / 16; 512];
        let p = DegreeProfile::from_degrees(&uniform);
        assert!((p.word_skew - 1.0).abs() < 1e-9);
    }

    #[test]
    fn auto_resolution_is_the_graph_skew_alone() {
        let t = inspect(&DeviceProfile::v100s(), &OptConfig::all(), 1 << 20);
        // A hub clustered into one hot window among many quiet ones.
        let mut hub_degrees = vec![1u32; 1024];
        hub_degrees[0] = t.large_min_degree + 1;
        let hubby = DegreeProfile::from_degrees(&hub_degrees);
        assert!(hubby.word_skew >= AUTO_MIN_WORD_SKEW);
        let flat = DegreeProfile::from_degrees(&[2, 3, 4]);
        // A hub per window: heavy vertices exist but no word is hotter
        // than any other (the web-crawl shape).
        let mut spread_degrees = vec![1u32; 1024];
        for i in (0..1024).step_by(32) {
            spread_degrees[i] = t.large_min_degree + 1;
        }
        let spread = DegreeProfile::from_degrees(&spread_degrees);
        // Auto bins exactly where the engine allocates a pool: on a graph
        // with clustered hubs, whatever the frontier's size.
        for (profile, want) in [
            (Some(&hubby), Balancing::Bucketed),
            (Some(&flat), Balancing::WorkgroupMapped),
            (Some(&spread), Balancing::WorkgroupMapped),
            (None, Balancing::WorkgroupMapped),
        ] {
            assert_eq!(t.effective_balancing(profile), want);
        }
        // Explicit strategies ignore the profile.
        for forced in [Balancing::Bucketed, Balancing::WorkgroupMapped] {
            let t = Tuning {
                balancing: forced,
                ..t
            };
            assert_eq!(t.effective_balancing(None), forced);
            assert_eq!(t.effective_balancing(Some(&hubby)), forced);
        }
    }
}
