//! Fig. 9 — CDF of mean core/memory packing density across the 35
//! cluster traces: the all-baseline cluster vs the GreenSKU-Full pool of
//! the final mixed cluster.

use crate::context::{ExpContext, ExpError};
use gsf_carbon::ModelParams;
use gsf_cluster::parallel::{default_workers, map_parallel};
use gsf_cluster::sizing::{right_size, MixedSearch, SizingRequest};
use gsf_core::{GreenSkuDesign, VmRouter};
use gsf_stats::cdf::EmpiricalCdf;
use gsf_stats::rng::SeedFactory;
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultPlan, PlacementPolicy, PlacementRequest, PreparedTrace,
    ServerShape,
};
use gsf_workloads::{tracegen, Trace, TraceGenerator, VmSpec};

/// Per-trace packing statistics.
#[derive(Debug, Clone, Copy)]
pub struct TracePacking {
    /// Mean core density, all-baseline cluster.
    pub baseline_core: f64,
    /// Mean memory density, all-baseline cluster.
    pub baseline_mem: f64,
    /// Mean core density of GreenSKUs in the mixed cluster.
    pub green_core: f64,
    /// Mean memory density of GreenSKUs in the mixed cluster.
    pub green_mem: f64,
    /// Mean per-server max memory utilization, baseline cluster.
    pub baseline_max_mem_util: f64,
    /// Mean per-server max memory utilization, GreenSKU pool.
    pub green_max_mem_util: f64,
}

/// Runs the packing study over `n_traces` synthetic traces for
/// `design`, in parallel. Shared by Figs. 9 and 10.
pub fn packing_study(
    seeds: &SeedFactory,
    design: &GreenSkuDesign,
    n_traces: usize,
    trace_hours: f64,
) -> Result<Vec<TracePacking>, ExpError> {
    let router = VmRouter::new(ModelParams::default_open_source(), design)?;
    let suite = tracegen::standard_suite();
    let traces: Vec<Trace> = suite
        .iter()
        .take(n_traces)
        .enumerate()
        .map(|(i, params)| {
            let mut p = params.clone();
            p.duration_hours = trace_hours;
            TraceGenerator::new(p).generate(seeds, i as u64)
        })
        .collect();

    let policy = PlacementPolicy::BestFit;
    let baseline_shape = ServerShape::baseline_gen3();
    let green_shape =
        ServerShape { cores: design.carbon.cores(), mem_gb: design.carbon.memory_capacity().get() };
    let workers = default_workers();
    let results = map_parallel(&traces, workers, |_, trace| -> Result<TracePacking, ExpError> {
        let prepared_base = PreparedTrace::new(trace, &PlacementRequest::baseline_only);
        let prepared_green = PreparedTrace::new(trace, &|vm: &VmSpec| router.request(vm));
        let (n0, plan) = right_size(&SizingRequest {
            mixed: Some(MixedSearch { prepared: &prepared_green, green_shape }),
            ..SizingRequest::new(&prepared_base, baseline_shape, policy)
        })?;
        let replay = |config: ClusterConfig, prepared: &PreparedTrace| {
            AllocationSim::new(config, policy)
                .replay_prepared_faulted(prepared, &FaultPlan::empty())
                .0
        };
        let base_outcome = replay(ClusterConfig::baseline_only(n0), &prepared_base);
        let mixed_config = ClusterConfig {
            baseline_count: plan.baseline,
            baseline_shape,
            green_count: plan.green,
            green_shape,
        };
        let mixed_outcome = replay(mixed_config, &prepared_green);

        Ok(TracePacking {
            baseline_core: base_outcome.metrics.baseline.mean_core_density(),
            baseline_mem: base_outcome.metrics.baseline.mean_mem_density(),
            green_core: mixed_outcome.metrics.green.mean_core_density(),
            green_mem: mixed_outcome.metrics.green.mean_mem_density(),
            baseline_max_mem_util: base_outcome.metrics.baseline.mean_max_mem_util(),
            green_max_mem_util: mixed_outcome.metrics.green.mean_max_mem_util(),
        })
    });
    results.into_iter().collect()
}

/// Regenerates Fig. 9's four CDFs.
pub fn run(ctx: &ExpContext) -> Result<(), ExpError> {
    let n_traces = ctx.scaled(6, 35);
    let hours = ctx.scaled(12.0, 72.0);
    let stats = packing_study(ctx.seeds(), &GreenSkuDesign::full(), n_traces, hours)?;

    let cdf =
        |f: fn(&TracePacking) -> f64| EmpiricalCdf::from_samples(stats.iter().map(f).collect());
    let series = [
        ("baseline_core", cdf(|s| s.baseline_core)),
        ("baseline_mem", cdf(|s| s.baseline_mem)),
        ("green_core", cdf(|s| s.green_core)),
        ("green_mem", cdf(|s| s.green_mem)),
    ];
    for (name, c) in &series {
        let rows: Vec<Vec<f64>> = c.series().iter().map(|&(x, y)| vec![x, y]).collect();
        ctx.write_series(&format!("fig9_cdf_{name}.csv"), &["density", "cdf"], &rows)?;
    }
    let med = |c: &EmpiricalCdf| c.quantile(0.5).unwrap_or(f64::NAN);
    ctx.note(&format!(
        "fig9: median densities — baseline core {:.2} / mem {:.2}; green core {:.2} / mem {:.2} \
         (paper: GreenSKU-Full trades worse core packing for better memory packing)",
        med(&series[0].1),
        med(&series[1].1),
        med(&series[2].1),
        med(&series[3].1),
    ));
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn small_study_produces_sane_densities() {
        let seeds = SeedFactory::new(33);
        let stats = packing_study(&seeds, &GreenSkuDesign::full(), 3, 8.0).unwrap();
        assert_eq!(stats.len(), 3);
        for s in &stats {
            for v in [s.baseline_core, s.baseline_mem, s.green_core, s.green_mem] {
                assert!((0.0..=1.0).contains(&v), "{s:?}");
            }
        }
    }

    #[test]
    fn greensku_memory_packs_denser_relative_to_cores() {
        // The paper's Fig. 9 claim: the GreenSKU's lower memory:core
        // ratio (8 vs 9.6) shifts pressure to memory: the gap
        // (mem − core density) is larger on GreenSKUs than on baselines.
        let seeds = SeedFactory::new(34);
        let stats = packing_study(&seeds, &GreenSkuDesign::full(), 4, 10.0).unwrap();
        let base_gap: f64 = stats.iter().map(|s| s.baseline_mem - s.baseline_core).sum::<f64>()
            / stats.len() as f64;
        let green_gap: f64 =
            stats.iter().map(|s| s.green_mem - s.green_core).sum::<f64>() / stats.len() as f64;
        assert!(green_gap > base_gap, "green {green_gap} vs base {base_gap}");
    }
}
