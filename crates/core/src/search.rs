//! Design-space search (§VIII, "Navigating component search space").
//!
//! The paper's authors iterated through hundreds of configurations with
//! parts of GSF and name a search framework as future work: one that
//! considers component interactions (performance *and* carbon) and
//! repeatedly runs GSF to evaluate emissions. This module implements
//! that loop:
//!
//! 1. [`CandidateSpace`] enumerates SKU configurations (CPU choice ×
//!    memory:core ratio × CXL-reuse share × SSD-reuse share);
//! 2. each candidate is materialized into a full [`GreenSkuDesign`]
//!    (carbon bill of materials + performance profile);
//! 3. [`evaluate_space`] scores every candidate with the carbon model
//!    *and* the fleet-weighted, adoption-aware effective savings (a
//!    candidate that starves applications scores poorly no matter how
//!    little carbon it embodies);
//! 4. [`pareto_front`] keeps the designs that are not dominated on
//!    (effective savings, adoption rate).

use crate::context::EvalContext;
use crate::design::GreenSkuDesign;
use crate::error::GsfError;
use gsf_carbon::component::{ComponentClass, ComponentSpec};
use gsf_carbon::datasets::open_source as data;
use gsf_carbon::units::{KgCo2e, Watts};
use gsf_carbon::{ModelParams, ServerSpec};
use gsf_cluster::parallel::{default_workers, map_parallel};
use gsf_perf::scaling::scaling_for_generation;
use gsf_perf::{MemoryPlacement, SkuPerfProfile};
use gsf_workloads::{FleetMix, ServerGeneration};

/// Which CPU the candidate uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuChoice {
    /// The Gen3 baseline CPU (80 performance cores).
    Genoa,
    /// The efficiency CPU (128 dense cores).
    Bergamo,
}

impl CpuChoice {
    fn cores(&self) -> u32 {
        match self {
            CpuChoice::Genoa => 80,
            CpuChoice::Bergamo => 128,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            CpuChoice::Genoa => "Genoa",
            CpuChoice::Bergamo => "Bergamo",
        }
    }
}

/// One point of the design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkuConfig {
    /// CPU choice.
    pub cpu: CpuChoice,
    /// Total memory per core, GB.
    pub mem_per_core_gb: f64,
    /// Share of memory served by reused DDR4 behind CXL, `[0, 1)`.
    pub cxl_share: f64,
    /// Share of SSD capacity served by reused drives, `[0, 1]`.
    pub reused_ssd_share: f64,
    /// Total SSD capacity, TB.
    pub ssd_total_tb: f64,
}

impl SkuConfig {
    /// Human-readable configuration name.
    pub fn name(&self) -> String {
        format!(
            "{} {:.0}GB/core, {:.0}% CXL, {:.0}% reused SSD",
            self.cpu.label(),
            self.mem_per_core_gb,
            self.cxl_share * 100.0,
            self.reused_ssd_share * 100.0
        )
    }

    /// Materializes the configuration into a full design.
    ///
    /// # Errors
    ///
    /// Returns [`GsfError::InvalidConfig`] for out-of-range shares and
    /// propagates carbon-model construction failures.
    pub fn build(&self) -> Result<GreenSkuDesign, GsfError> {
        if !(0.0..1.0).contains(&self.cxl_share)
            || !(0.0..=1.0).contains(&self.reused_ssd_share)
            || self.mem_per_core_gb <= 0.0
            || self.ssd_total_tb <= 0.0
        {
            return Err(GsfError::InvalidConfig(format!("out-of-range candidate: {self:?}")));
        }
        let cores = self.cpu.cores();
        let total_gb = self.mem_per_core_gb * f64::from(cores);
        let cxl_gb = total_gb * self.cxl_share;
        let ddr5_gb = total_gb - cxl_gb;
        let reused_tb = self.ssd_total_tb * self.reused_ssd_share;
        let new_tb = self.ssd_total_tb - reused_tb;

        let (cpu_tdp, cpu_emb) = match self.cpu {
            CpuChoice::Genoa => (data::GENOA_TDP_W, data::GENOA_EMBODIED_KG),
            CpuChoice::Bergamo => (data::BERGAMO_TDP_W, data::BERGAMO_EMBODIED_KG),
        };
        let mut builder = ServerSpec::builder(self.name(), cores, 2).component(
            ComponentSpec::new(
                "CPU",
                ComponentClass::Cpu,
                1.0,
                Watts::new(cpu_tdp),
                KgCo2e::new(cpu_emb),
            )?
            .with_derate(data::DERATE)?
            .with_loss_factor(data::CPU_VR_LOSS)?,
        );
        if ddr5_gb > 0.0 {
            builder = builder.component(
                ComponentSpec::new(
                    "DDR5",
                    ComponentClass::Dram,
                    ddr5_gb,
                    Watts::new(data::DDR5_TDP_W_PER_GB),
                    KgCo2e::new(data::DDR5_EMBODIED_KG_PER_GB),
                )?
                .with_derate(data::DERATE)?
                .with_device_count(12),
            );
        }
        if cxl_gb > 0.0 {
            // One controller card per four 32 GB DIMMs (128 GB).
            let controllers = (cxl_gb / 128.0).ceil();
            let dimms = (cxl_gb / 32.0).ceil() as u32;
            builder = builder
                .component(
                    ComponentSpec::new(
                        "Reused DDR4 (CXL)",
                        ComponentClass::CxlDram,
                        cxl_gb,
                        Watts::new(data::REUSED_DDR4_TDP_W_PER_GB),
                        KgCo2e::new(data::DDR5_EMBODIED_KG_PER_GB),
                    )?
                    .with_derate(data::DERATE)?
                    .with_device_count(dimms)
                    .reused(),
                )
                .component(
                    ComponentSpec::new(
                        "CXL controller",
                        ComponentClass::CxlController,
                        controllers,
                        Watts::new(data::CXL_CONTROLLER_TDP_W),
                        KgCo2e::new(data::CXL_CONTROLLER_EMBODIED_KG),
                    )?
                    .with_derate(data::DERATE)?,
                );
        }
        if new_tb > 0.0 {
            builder = builder.component(
                ComponentSpec::new(
                    "SSD (new)",
                    ComponentClass::Ssd,
                    new_tb,
                    Watts::new(data::SSD_TDP_W_PER_TB),
                    KgCo2e::new(data::SSD_EMBODIED_KG_PER_TB),
                )?
                .with_derate(data::DERATE)?
                .with_device_count((new_tb / 4.0).ceil().max(1.0) as u32),
            );
        }
        if reused_tb > 0.0 {
            builder = builder.component(
                ComponentSpec::new(
                    "SSD (reused)",
                    ComponentClass::Ssd,
                    reused_tb,
                    Watts::new(data::REUSED_SSD_TDP_W_PER_TB),
                    KgCo2e::new(data::SSD_EMBODIED_KG_PER_TB),
                )?
                .with_derate(data::DERATE)?
                .with_device_count(reused_tb.ceil().max(1.0) as u32)
                .reused(),
            );
        }
        let carbon = builder.build()?;
        let perf = match (self.cpu, self.cxl_share > 0.0) {
            (CpuChoice::Genoa, _) => SkuPerfProfile::gen3(),
            (CpuChoice::Bergamo, false) => SkuPerfProfile::greensku_efficient(),
            (CpuChoice::Bergamo, true) => SkuPerfProfile::greensku_cxl(),
        };
        let placement =
            if self.cxl_share > 0.0 { MemoryPlacement::Pond } else { MemoryPlacement::LocalOnly };
        Ok(GreenSkuDesign { carbon, perf, placement })
    }
}

/// The enumerated design space (cartesian product of the axes).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSpace {
    /// CPU options.
    pub cpus: Vec<CpuChoice>,
    /// Memory:core ratios to try, GB/core.
    pub mem_per_core_gb: Vec<f64>,
    /// CXL shares to try.
    pub cxl_shares: Vec<f64>,
    /// Reused-SSD shares to try.
    pub reused_ssd_shares: Vec<f64>,
    /// Total SSD capacity, TB (fixed across candidates).
    pub ssd_total_tb: f64,
}

impl CandidateSpace {
    /// The space the paper's prototypes live in.
    pub fn paper_neighborhood() -> Self {
        Self {
            cpus: vec![CpuChoice::Genoa, CpuChoice::Bergamo],
            mem_per_core_gb: vec![6.0, 8.0, 9.6],
            cxl_shares: vec![0.0, 0.25, 0.5],
            reused_ssd_shares: vec![0.0, 0.6, 1.0],
            ssd_total_tb: 20.0,
        }
    }

    /// All candidate configurations.
    pub fn candidates(&self) -> Vec<SkuConfig> {
        let mut out = Vec::new();
        for &cpu in &self.cpus {
            for &mem in &self.mem_per_core_gb {
                for &cxl in &self.cxl_shares {
                    for &ssd in &self.reused_ssd_shares {
                        out.push(SkuConfig {
                            cpu,
                            mem_per_core_gb: mem,
                            cxl_share: cxl,
                            reused_ssd_share: ssd,
                            ssd_total_tb: self.ssd_total_tb,
                        });
                    }
                }
            }
        }
        out
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The configuration.
    pub config: SkuConfig,
    /// Display name.
    pub name: String,
    /// Per-core CO₂e at DC level, kg.
    pub per_core_kg: f64,
    /// Core-hour-weighted adoption rate vs Gen3.
    pub adoption_rate: f64,
    /// Fleet-weighted effective savings vs the Gen3 baseline: each
    /// application contributes `weight × (1 − factor × green/base)` if
    /// it adopts and zero otherwise.
    pub effective_savings: f64,
}

/// Evaluates every candidate in `space` against the Gen3 baseline.
///
/// Uses a private assessment cache and the machine's full parallelism;
/// see [`evaluate_space_with`] to share a cache across calls or pin the
/// worker count.
///
/// # Errors
///
/// Propagates candidate construction and carbon-assessment failures.
pub fn evaluate_space(
    space: &CandidateSpace,
    params: ModelParams,
) -> Result<Vec<SearchResult>, GsfError> {
    evaluate_space_with(space, params, &EvalContext::new(), default_workers())
}

/// [`evaluate_space`] against a caller-supplied assessment cache and
/// worker count.
///
/// Candidates are scored on `workers` threads; the result order (stable
/// sort by effective savings, ties in enumeration order) is identical
/// for any worker count and for cached vs. uncached contexts.
///
/// # Errors
///
/// Propagates candidate construction and carbon-assessment failures.
pub fn evaluate_space_with(
    space: &CandidateSpace,
    params: ModelParams,
    ctx: &EvalContext,
    workers: usize,
) -> Result<Vec<SearchResult>, GsfError> {
    let baseline = ctx.gen3(&params)?;
    let base_pc = baseline.total_per_core().get();
    let mix = FleetMix::standard();

    let candidates = space.candidates();
    let mut results = map_parallel(&candidates, workers, |_, config| -> Result<_, GsfError> {
        let design = config.build()?;
        let assessment = ctx.assess(&params, &design.carbon)?;
        let green_pc = assessment.total_per_core().get();

        let mut adoption = 0.0;
        let mut effective = 0.0;
        for (i, app) in mix.apps().iter().enumerate() {
            let factor =
                scaling_for_generation(app, &design.perf, design.placement, ServerGeneration::Gen3);
            if let Some(f) = crate::adoption::decide(factor, green_pc, base_pc).factor() {
                let w = mix.fraction(i);
                adoption += w;
                effective += w * (1.0 - f * green_pc / base_pc);
            }
        }
        Ok(SearchResult {
            name: config.name(),
            config: *config,
            per_core_kg: green_pc,
            adoption_rate: adoption,
            effective_savings: effective,
        })
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    results.sort_by(|a, b| b.effective_savings.total_cmp(&a.effective_savings));
    Ok(results)
}

/// Keeps the candidates not dominated on (effective savings, adoption
/// rate) — both maximized.
pub fn pareto_front(results: &[SearchResult]) -> Vec<&SearchResult> {
    results
        .iter()
        .filter(|a| {
            !results.iter().any(|b| {
                (b.effective_savings > a.effective_savings && b.adoption_rate >= a.adoption_rate)
                    || (b.effective_savings >= a.effective_savings
                        && b.adoption_rate > a.adoption_rate)
            })
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn results() -> Vec<SearchResult> {
        evaluate_space(&CandidateSpace::paper_neighborhood(), ModelParams::default_open_source())
            .unwrap()
    }

    #[test]
    fn space_enumerates_cartesian_product() {
        let space = CandidateSpace::paper_neighborhood();
        assert_eq!(space.candidates().len(), 2 * 3 * 3 * 3);
    }

    #[test]
    fn full_like_candidate_in_top_half_and_leaner_configs_win() {
        // The GreenSKU-Full-like point (Bergamo, 8 GB/core, 25 % CXL,
        // 60 % reused SSD) ranks in the top half; the overall winner
        // uses even less memory per core and more reuse — exactly the
        // §VIII observation that the prototypes "may not be the optimal
        // configuration".
        let rs = results();
        let idx = rs
            .iter()
            .position(|r| {
                r.config.cpu == CpuChoice::Bergamo
                    && (r.config.mem_per_core_gb - 8.0).abs() < 1e-9
                    && (r.config.cxl_share - 0.25).abs() < 1e-9
                    && (r.config.reused_ssd_share - 0.6).abs() < 1e-9
            })
            .expect("candidate present");
        assert!(idx < rs.len() / 2, "rank {idx} of {}", rs.len());
        let best = &rs[0].config;
        assert!(best.mem_per_core_gb <= 8.0);
        assert!(best.reused_ssd_share >= 0.6);
    }

    #[test]
    fn best_candidate_uses_the_efficient_cpu() {
        // Genoa candidates reach full adoption (no per-core slowdown)
        // but never beat the best Bergamo candidate on effective
        // savings.
        let rs = results();
        assert_eq!(rs[0].config.cpu, CpuChoice::Bergamo);
        let best_genoa = rs
            .iter()
            .filter(|r| r.config.cpu == CpuChoice::Genoa)
            .map(|r| r.effective_savings)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best_genoa < rs[0].effective_savings);
        // And Genoa's adoption is total (it *is* the baseline CPU).
        let genoa_adoption =
            rs.iter().find(|r| r.config.cpu == CpuChoice::Genoa).unwrap().adoption_rate;
        assert!((genoa_adoption - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scores_are_pinned() {
        // The winner's scores by bits, and a fold of every candidate's
        // adoption rate and effective savings in rank order. The last
        // three candidates adopt nowhere: every app rejects on carbon
        // or on performance.
        let rs = results();
        assert_eq!(rs[0].name, "Bergamo 6GB/core, 50% CXL, 100% reused SSD");
        assert_eq!(rs[0].adoption_rate.to_bits(), 0x3fea_d40a_57eb_5027); // 0.8384
        assert_eq!(rs[0].effective_savings.to_bits(), 0x3fd0_0109_6a5a_8ac7); // 0.2501
        assert!(rs[rs.len() - 3..].iter().all(|r| r.adoption_rate == 0.0));
        let fold = rs
            .iter()
            .flat_map(|r| [r.adoption_rate.to_bits(), r.effective_savings.to_bits()])
            .fold(0xcbf2_9ce4_8422_2325u64, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(fold, 0x9da9_0c3a_b6ad_c3dd);
    }

    #[test]
    fn pareto_front_is_nonempty_and_non_dominated() {
        let rs = results();
        let front = pareto_front(&rs);
        assert!(!front.is_empty());
        for a in &front {
            for b in &rs {
                assert!(
                    !(b.effective_savings > a.effective_savings
                        && b.adoption_rate > a.adoption_rate),
                    "{} dominated by {}",
                    a.name,
                    b.name
                );
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = SkuConfig {
            cpu: CpuChoice::Bergamo,
            mem_per_core_gb: 8.0,
            cxl_share: 1.2,
            reused_ssd_share: 0.0,
            ssd_total_tb: 20.0,
        };
        assert!(bad.build().is_err());
    }

    #[test]
    fn built_designs_are_consistent() {
        let config = SkuConfig {
            cpu: CpuChoice::Bergamo,
            mem_per_core_gb: 8.0,
            cxl_share: 0.25,
            reused_ssd_share: 0.6,
            ssd_total_tb: 20.0,
        };
        let design = config.build().unwrap();
        assert_eq!(design.carbon.cores(), 128);
        assert!((design.carbon.memory_capacity().get() - 1024.0).abs() < 1e-9);
        assert!((design.carbon.cxl_memory_capacity().get() - 256.0).abs() < 1e-9);
        assert!(design.perf.cxl.is_some());
        assert_eq!(design.placement, MemoryPlacement::Pond);
    }
}
