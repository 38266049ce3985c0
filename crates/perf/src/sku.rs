//! Performance-relevant SKU profiles (the hardware side of the slowdown
//! model).

/// Local DDR5 load-to-use latency the paper reports (§III).
pub const LOCAL_MEM_LATENCY_NS: f64 = 140.0;
/// CXL-attached DDR4 latency at medium load (§III).
pub const CXL_MEM_LATENCY_NS: f64 = 280.0;

/// How VM memory is placed across DDR5 and CXL-attached DDR4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryPlacement {
    /// All memory on local DDR5 (no CXL traffic).
    LocalOnly,
    /// Memory naively interleaved across DDR5 and CXL; the application's
    /// `cxl_naive_fraction` of traffic is served at CXL latency. This is
    /// the Fig. 8 configuration.
    Naive,
    /// Pond-style placement: only untouched memory lands on CXL, so hot
    /// traffic stays local and no slowdown is incurred (the paper's
    /// production policy; 98 % of applications see <5 % slowdown).
    Pond,
    /// The entire VM memory is CXL-backed (the adoption question for the
    /// ~20 % of CXL-tolerant core-hours).
    FullCxl,
    /// Hardware-managed tiering on future CPUs (§III, citing the CXL
    /// tiering line of work): memory is naively spread but the hardware
    /// promotes hot pages, mitigating most of the latency penalty.
    HardwareTiered,
}

impl MemoryPlacement {
    /// Fraction of the naive CXL penalty that hardware tiering fails to
    /// hide (hot-page promotion covers the rest).
    pub const HW_TIERING_RESIDUAL: f64 = 0.3;
}

/// CXL memory tier attached to a SKU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CxlTier {
    /// Access latency of the CXL tier in nanoseconds.
    pub latency_ns: f64,
    /// Additional memory bandwidth the tier contributes, GB/s per socket.
    pub extra_bandwidth_gbps: f64,
}

/// The architectural parameters of a SKU that the slowdown model uses.
#[derive(Debug, Clone, PartialEq)]
pub struct SkuPerfProfile {
    /// Profile name (matches the carbon-model SKU names).
    pub name: &'static str,
    /// Maximum core frequency in GHz.
    pub freq_ghz: f64,
    /// Socket-level LLC capacity in MiB.
    pub llc_socket_mib: f64,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// Socket memory bandwidth in GB/s (local channels only).
    pub mem_bandwidth_gbps: f64,
    /// Local memory latency in nanoseconds.
    pub mem_latency_ns: f64,
    /// Generation-on-generation IPC factor relative to Gen3 (Zen4 = 1.0).
    pub ipc_factor: f64,
    /// CXL memory tier, if the SKU has one.
    pub cxl: Option<CxlTier>,
}

impl SkuPerfProfile {
    /// LLC capacity per core in MiB.
    pub fn llc_per_core_mib(&self) -> f64 {
        self.llc_socket_mib / f64::from(self.cores_per_socket)
    }

    /// Memory bandwidth per core in GB/s, counting the CXL tier's
    /// contribution when present.
    pub fn bandwidth_per_core_gbps(&self) -> f64 {
        let extra = self.cxl.map_or(0.0, |c| c.extra_bandwidth_gbps);
        (self.mem_bandwidth_gbps + extra) / f64::from(self.cores_per_socket)
    }

    /// Gen1 baseline: AMD Rome (Zen2).
    pub fn gen1() -> Self {
        Self {
            name: "Gen1 (Rome)",
            freq_ghz: 3.0,
            llc_socket_mib: 256.0,
            cores_per_socket: 64,
            mem_bandwidth_gbps: 205.0,
            mem_latency_ns: LOCAL_MEM_LATENCY_NS,
            ipc_factor: 0.88,
            cxl: None,
        }
    }

    /// Gen2 baseline: AMD Milan (Zen3).
    pub fn gen2() -> Self {
        Self {
            name: "Gen2 (Milan)",
            freq_ghz: 3.7,
            llc_socket_mib: 256.0,
            cores_per_socket: 64,
            mem_bandwidth_gbps: 205.0,
            mem_latency_ns: LOCAL_MEM_LATENCY_NS,
            ipc_factor: 0.96,
            cxl: None,
        }
    }

    /// Gen3 baseline: AMD Genoa (Zen4) — the reference SKU (slowdown 1.0
    /// by construction).
    pub fn gen3() -> Self {
        Self {
            name: "Gen3 (Genoa)",
            freq_ghz: 3.7,
            llc_socket_mib: 384.0,
            cores_per_socket: 80,
            mem_bandwidth_gbps: 460.0,
            mem_latency_ns: LOCAL_MEM_LATENCY_NS,
            ipc_factor: 1.0,
            cxl: None,
        }
    }

    /// GreenSKU-Efficient: AMD Bergamo (Zen4c), no CXL.
    pub fn greensku_efficient() -> Self {
        Self {
            name: "GreenSKU-Efficient",
            freq_ghz: 3.0,
            llc_socket_mib: 256.0,
            cores_per_socket: 128,
            mem_bandwidth_gbps: 460.0,
            mem_latency_ns: LOCAL_MEM_LATENCY_NS,
            ipc_factor: 1.0,
            cxl: None,
        }
    }

    /// GreenSKU-CXL / GreenSKU-Full: Bergamo with reused DDR4 behind CXL
    /// (32 PCIe5 lanes ≈ 100 GB/s extra bandwidth at 280 ns).
    pub fn greensku_cxl() -> Self {
        Self {
            name: "GreenSKU-CXL",
            cxl: Some(CxlTier { latency_ns: CXL_MEM_LATENCY_NS, extra_bandwidth_gbps: 100.0 }),
            ..Self::greensku_efficient()
        }
    }

    /// The baseline profile for a server generation.
    pub fn for_generation(generation: gsf_workloads::ServerGeneration) -> Self {
        match generation {
            gsf_workloads::ServerGeneration::Gen1 => Self::gen1(),
            gsf_workloads::ServerGeneration::Gen2 => Self::gen2(),
            gsf_workloads::ServerGeneration::Gen3 => Self::gen3(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn per_core_derivations_match_paper() {
        // §III: Genoa offers 5.8 GB/s per core, Bergamo with CXL 4.4.
        assert!((SkuPerfProfile::gen3().bandwidth_per_core_gbps() - 5.75).abs() < 0.1);
        assert!((SkuPerfProfile::greensku_cxl().bandwidth_per_core_gbps() - 4.375).abs() < 0.1);
        // Bergamo has 2 MiB LLC per core vs Genoa's 4.8.
        assert!((SkuPerfProfile::greensku_efficient().llc_per_core_mib() - 2.0).abs() < 1e-9);
        assert!((SkuPerfProfile::gen3().llc_per_core_mib() - 4.8).abs() < 1e-9);
    }

    #[test]
    fn cxl_profile_differs_only_in_memory() {
        let eff = SkuPerfProfile::greensku_efficient();
        let cxl = SkuPerfProfile::greensku_cxl();
        assert_eq!(eff.freq_ghz, cxl.freq_ghz);
        assert_eq!(eff.cores_per_socket, cxl.cores_per_socket);
        assert!(eff.cxl.is_none());
        assert_eq!(cxl.cxl.unwrap().latency_ns, 280.0);
    }

    #[test]
    fn generation_lookup() {
        use gsf_workloads::ServerGeneration::*;
        assert_eq!(SkuPerfProfile::for_generation(Gen1).name, "Gen1 (Rome)");
        assert_eq!(SkuPerfProfile::for_generation(Gen3).ipc_factor, 1.0);
    }

    #[test]
    fn gen_ipc_increases_over_time() {
        assert!(SkuPerfProfile::gen1().ipc_factor < SkuPerfProfile::gen2().ipc_factor);
        assert!(SkuPerfProfile::gen2().ipc_factor < SkuPerfProfile::gen3().ipc_factor);
    }
}
