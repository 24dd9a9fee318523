//! Device profiles describing the simulated GPUs.
//!
//! A [`DeviceProfile`] captures the architectural parameters the cost model
//! needs: compute-unit count, subgroup (warp/wavefront) widths, cache
//! hierarchy geometry, DRAM bandwidth and kernel-launch overhead. The three
//! built-in profiles mirror Table 4 of the paper (NVIDIA Tesla V100S, AMD
//! MI100, Intel Data Center GPU MAX 1100); a fourth host profile is a small
//! deterministic device used by unit tests.

use serde::{Deserialize, Serialize};

/// GPU vendor, which determines defaults such as the wavefront width and the
/// bitmap word size chosen by the device inspector (the paper's MSI
/// optimization: 32-bit words on NVIDIA/Intel, 64-bit on AMD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    Nvidia,
    Amd,
    Intel,
    /// Reference host device used in tests: tiny caches, deterministic.
    Host,
}

impl Vendor {
    /// SYCL backend name reported for this vendor, as in Table 4.
    pub fn backend(&self) -> &'static str {
        match self {
            Vendor::Nvidia => "CUDA",
            Vendor::Amd => "ROCm",
            Vendor::Intel => "LevelZero",
            Vendor::Host => "OpenCL(host)",
        }
    }
}

/// Architectural description of a simulated device.
///
/// All quantities are per-device unless stated otherwise. The cost model in
/// [`crate::cost`] consumes these numbers; the cache model in
/// [`crate::cache`] consumes the cache geometry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Marketing name, e.g. `"Tesla V100S"`.
    pub name: String,
    pub vendor: Vendor,
    /// Number of compute units (SMs on NVIDIA, CUs on AMD, Xe-cores on Intel).
    pub compute_units: u32,
    /// Subgroup widths the device supports (Intel supports several).
    pub subgroup_sizes: Vec<u32>,
    /// Width used when the kernel does not request a specific one.
    pub preferred_subgroup: u32,
    /// Maximum work-items per workgroup.
    pub max_workgroup_size: u32,
    /// Maximum resident workgroups per compute unit.
    pub max_workgroups_per_cu: u32,
    /// Maximum resident work-items per compute unit (occupancy ceiling).
    pub max_threads_per_cu: u32,
    /// Core clock in GHz; converts cycles to nanoseconds.
    pub clock_ghz: f64,
    /// Aggregate DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// Device memory capacity in bytes (drives simulated OOM).
    pub vram_bytes: u64,
    /// Per-CU L1 cache size in bytes.
    pub l1_bytes: u32,
    /// L1 associativity (ways).
    pub l1_assoc: u32,
    /// Cache line size in bytes (both levels).
    pub line_bytes: u32,
    /// Total L2 size in bytes (modelled as per-CU slices).
    pub l2_bytes: u64,
    /// L2 associativity (ways).
    pub l2_assoc: u32,
    /// Local (shared) memory per workgroup limit, bytes.
    pub local_mem_bytes: u32,
    /// L1 hit service cost in cycles.
    pub l1_latency: u32,
    /// L2 hit service cost in cycles.
    pub l2_latency: u32,
    /// DRAM service cost in cycles.
    pub dram_latency: u32,
    /// L2 transactions serviced per cycle per CU slice. CDNA parts (MI100)
    /// compensate a small L1 with a very wide, banked L2.
    pub l2_throughput: f64,
    /// Fixed host-side kernel launch overhead in microseconds. SYCL adds
    /// runtime overhead compared to native CUDA; profiles carry that here.
    pub launch_overhead_us: f64,
}

impl DeviceProfile {
    /// NVIDIA Tesla V100S: 80 SMs, warp 32, 32 GB HBM2, 6 MB L2 (Table 4).
    pub fn v100s() -> Self {
        DeviceProfile {
            name: "Tesla V100S".into(),
            vendor: Vendor::Nvidia,
            compute_units: 80,
            subgroup_sizes: vec![32],
            preferred_subgroup: 32,
            max_workgroup_size: 1024,
            max_workgroups_per_cu: 32,
            max_threads_per_cu: 2048,
            clock_ghz: 1.597,
            dram_bandwidth_gbps: 1134.0,
            vram_bytes: 32 << 30,
            l1_bytes: 128 << 10,
            l1_assoc: 4,
            line_bytes: 128,
            l2_bytes: 6 << 20,
            l2_assoc: 16,
            local_mem_bytes: 96 << 10,
            l1_latency: 28,
            l2_latency: 193,
            dram_latency: 400,
            l2_throughput: 1.0,
            launch_overhead_us: 1.2,
        }
    }

    /// AMD MI100: 120 CUs, wavefront 64, 32 GB HBM2, 8 MB L2 (Table 4).
    pub fn mi100() -> Self {
        DeviceProfile {
            name: "MI100".into(),
            vendor: Vendor::Amd,
            compute_units: 120,
            subgroup_sizes: vec![64],
            preferred_subgroup: 64,
            max_workgroup_size: 1024,
            max_workgroups_per_cu: 40,
            max_threads_per_cu: 2560,
            clock_ghz: 1.502,
            dram_bandwidth_gbps: 1228.0,
            vram_bytes: 32 << 30,
            l1_bytes: 16 << 10,
            l1_assoc: 4,
            line_bytes: 64,
            l2_bytes: 8 << 20,
            l2_assoc: 16,
            local_mem_bytes: 64 << 10,
            l1_latency: 34,
            l2_latency: 230,
            dram_latency: 470,
            l2_throughput: 4.0,
            launch_overhead_us: 1.6,
        }
    }

    /// Intel Data Center GPU MAX 1100: 56 Xe-cores, subgroups {16, 32},
    /// 48 GB HBM2e and a very large 108 MB L2 (Table 4). The large L2 is
    /// what makes this device comparatively strong on sparse road graphs in
    /// Figure 10.
    pub fn max1100() -> Self {
        DeviceProfile {
            name: "MAX 1100".into(),
            vendor: Vendor::Intel,
            compute_units: 56,
            subgroup_sizes: vec![16, 32],
            preferred_subgroup: 32,
            max_workgroup_size: 1024,
            max_workgroups_per_cu: 64,
            max_threads_per_cu: 4096,
            clock_ghz: 1.55,
            dram_bandwidth_gbps: 1228.8,
            vram_bytes: 48 << 30,
            l1_bytes: 192 << 10,
            l1_assoc: 4,
            line_bytes: 64,
            l2_bytes: 108 << 20,
            l2_assoc: 16,
            local_mem_bytes: 128 << 10,
            l1_latency: 33,
            l2_latency: 220,
            dram_latency: 510,
            l2_throughput: 2.0,
            launch_overhead_us: 2.0,
        }
    }

    /// Small deterministic device for unit tests: 4 CUs, subgroup 8,
    /// minuscule caches so cache behaviour is easy to reason about.
    pub fn host_test() -> Self {
        DeviceProfile {
            name: "host-test".into(),
            vendor: Vendor::Host,
            compute_units: 4,
            subgroup_sizes: vec![8],
            preferred_subgroup: 8,
            max_workgroup_size: 64,
            max_workgroups_per_cu: 4,
            max_threads_per_cu: 256,
            clock_ghz: 1.0,
            dram_bandwidth_gbps: 100.0,
            vram_bytes: 1 << 30,
            l1_bytes: 1 << 10,
            l1_assoc: 2,
            line_bytes: 32,
            l2_bytes: 16 << 10,
            l2_assoc: 4,
            local_mem_bytes: 16 << 10,
            l1_latency: 4,
            l2_latency: 20,
            dram_latency: 100,
            l2_throughput: 1.0,
            launch_overhead_us: 0.8,
        }
    }

    /// The profile a command line names: `v100s | max1100 | mi100 | host`.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "v100s" => Some(Self::v100s()),
            "max1100" => Some(Self::max1100()),
            "mi100" => Some(Self::mi100()),
            "host" => Some(Self::host_test()),
            _ => None,
        }
    }

    /// All three paper devices, in Table 4 order (machines A, B, C).
    pub fn paper_machines() -> Vec<DeviceProfile> {
        vec![Self::v100s(), Self::max1100(), Self::mi100()]
    }

    /// Whether `width` is a legal subgroup size on this device.
    pub fn supports_subgroup(&self, width: u32) -> bool {
        self.subgroup_sizes.contains(&width)
    }

    /// Cycles-per-nanosecond conversion factor.
    pub fn cycles_per_ns(&self) -> f64 {
        self.clock_ghz
    }

    /// DRAM bandwidth expressed as bytes per cycle across the device.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        // GB/s / (cycles/s) = bytes/cycle. 1 GB = 1e9 bytes here (vendor math).
        self.dram_bandwidth_gbps * 1e9 / (self.clock_ghz * 1e9)
    }

    /// Returns a copy with scaled VRAM. Experiments on scaled-down datasets
    /// scale VRAM by the same factor so framework OOM behaviour (e.g.
    /// Gunrock on road-USA BC in the paper) is preserved.
    pub fn with_vram(mut self, bytes: u64) -> Self {
        self.vram_bytes = bytes;
        self
    }

    /// Returns a copy with scaled L2 capacity. Experiments on scaled-down
    /// datasets scale the L2 by the same factor so cache-fitting behaviour
    /// (which working sets are L2-resident) carries over from full size.
    pub fn with_l2(mut self, bytes: u64) -> Self {
        self.l2_bytes = bytes.max(16 << 10);
        self
    }

    /// Returns a copy with a different preferred subgroup width; panics if
    /// the width is unsupported. Mirrors SYCL's `sub_group_size` kernel
    /// property (used on Intel, where both 16 and 32 are available).
    pub fn with_preferred_subgroup(mut self, width: u32) -> Self {
        assert!(
            self.supports_subgroup(width),
            "device {} does not support subgroup width {width}",
            self.name
        );
        self.preferred_subgroup = width;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machines_match_table4() {
        let machines = DeviceProfile::paper_machines();
        assert_eq!(machines.len(), 3);
        assert_eq!(machines[0].vendor, Vendor::Nvidia);
        assert_eq!(machines[0].vram_bytes, 32 << 30);
        assert_eq!(machines[0].l2_bytes, 6 << 20);
        assert_eq!(machines[1].vendor, Vendor::Intel);
        assert_eq!(machines[1].vram_bytes, 48 << 30);
        assert_eq!(machines[1].l2_bytes, 108 << 20);
        assert_eq!(machines[2].vendor, Vendor::Amd);
        assert_eq!(machines[2].l2_bytes, 8 << 20);
    }

    #[test]
    fn by_name_resolves_the_four_profiles() {
        for (name, vendor) in [
            ("v100s", Vendor::Nvidia),
            ("max1100", Vendor::Intel),
            ("mi100", Vendor::Amd),
            ("host", Vendor::Host),
        ] {
            assert_eq!(DeviceProfile::by_name(name).unwrap().vendor, vendor);
        }
        assert!(DeviceProfile::by_name("tpu").is_none());
    }

    #[test]
    fn subgroup_support() {
        let intel = DeviceProfile::max1100();
        assert!(intel.supports_subgroup(16));
        assert!(intel.supports_subgroup(32));
        assert!(!intel.supports_subgroup(64));
        let amd = DeviceProfile::mi100();
        assert!(amd.supports_subgroup(64));
        assert!(!amd.supports_subgroup(32));
    }

    #[test]
    fn with_preferred_subgroup_switches() {
        let intel = DeviceProfile::max1100().with_preferred_subgroup(16);
        assert_eq!(intel.preferred_subgroup, 16);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn with_preferred_subgroup_rejects_bad_width() {
        let _ = DeviceProfile::v100s().with_preferred_subgroup(64);
    }

    #[test]
    fn bandwidth_conversion_is_sane() {
        let v100 = DeviceProfile::v100s();
        let bpc = v100.dram_bytes_per_cycle();
        // ~1134 GB/s at ~1.6 GHz is ~710 bytes/cycle.
        assert!(bpc > 600.0 && bpc < 800.0, "bytes/cycle {bpc}");
    }

    #[test]
    fn with_l2_scales_and_floors() {
        let p = DeviceProfile::v100s().with_l2(1 << 20);
        assert_eq!(p.l2_bytes, 1 << 20);
        let tiny = DeviceProfile::v100s().with_l2(1);
        assert_eq!(tiny.l2_bytes, 16 << 10, "floored at 16 KiB");
    }

    #[test]
    fn vram_override() {
        let p = DeviceProfile::mi100().with_vram(123);
        assert_eq!(p.vram_bytes, 123);
    }

    #[test]
    fn backend_names() {
        assert_eq!(Vendor::Nvidia.backend(), "CUDA");
        assert_eq!(Vendor::Amd.backend(), "ROCm");
        assert_eq!(Vendor::Intel.backend(), "LevelZero");
    }
}
