//! Design ablations (DESIGN.md §4): each row varies one design choice
//! and records the outcome it moves — right-sized cluster and its
//! packing density, repair rate, per-core savings, tail-latency
//! estimate, or buffered cluster size.

use crate::context::{ExpContext, ExpError};
use gsf_carbon::datasets::open_source;
use gsf_carbon::{CarbonModel, ModelParams};
use gsf_cluster::buffer::GrowthBufferPolicy;
use gsf_cluster::sizing::{right_size, ClusterPlan, SizingRequest};
use gsf_core::GsfError;
use gsf_maintenance::{FipPolicy, ServerAfr};
use gsf_perf::analytic::MmcQueue;
use gsf_perf::des::{simulate, DesConfig, ServiceDist};
use gsf_stats::table::{fmt_f, fmt_pct, Table};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultPlan, PlacementPolicy, PlacementRequest, PreparedTrace,
    ServerShape,
};
use gsf_workloads::{TraceGenerator, TraceParams};

/// Regenerates the ablation table.
///
/// # Errors
///
/// Propagates carbon-model and artifact-write failures.
pub fn run(ctx: &ExpContext) -> Result<(), ExpError> {
    ctx.write_table("ablations", &table(ctx)?)
}

/// One row per (ablation, setting, metric).
fn table(ctx: &ExpContext) -> Result<Table, ExpError> {
    let seeds = ctx.seeds().child("ablations");
    let mut t = Table::new(vec!["Ablation", "Setting", "Metric", "Value"])
        .with_title("Design ablations (DESIGN.md §4)");
    let mut row = |ablation: &str, setting: &str, metric: &str, value: String| {
        t.row(vec![ablation.to_string(), setting.to_string(), metric.to_string(), value]);
    };

    // Placement policy: each policy right-sizes one 24 h trace of
    // ~4,800 VMs. A cluster that fits every policy would show no
    // rejections and hide the difference between them.
    let trace = TraceGenerator::new(TraceParams {
        duration_hours: 24.0,
        arrivals_per_hour: 200.0,
        ..TraceParams::default()
    })
    .generate(&seeds, 0);
    let prepared = PreparedTrace::new(&trace, &PlacementRequest::baseline_only);
    for policy in [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit] {
        let (n0, _) =
            right_size(&SizingRequest::new(&prepared, ServerShape::baseline_gen3(), policy))?;
        let (out, _) = AllocationSim::new(ClusterConfig::baseline_only(n0), policy)
            .replay_prepared_faulted(&prepared, &FaultPlan::empty());
        let policy = policy.to_string();
        row(
            "Placement policy",
            &policy,
            "core density",
            fmt_f(out.metrics.baseline.mean_core_density(), 3),
        );
        row("Placement policy", &policy, "servers needed (n0)", n0.to_string());
    }

    // Fail-In-Place effectiveness on repair rates (per 100 servers).
    for effectiveness in [0.0, 0.5, 0.75] {
        let fip = FipPolicy { effectiveness };
        let setting = fmt_pct(effectiveness, 0);
        for (sku, afr) in
            [("Baseline", ServerAfr::baseline()), ("GreenSKU-Full", ServerAfr::greensku_full())]
        {
            row(
                "FIP effectiveness",
                &setting,
                &format!("{sku} repair rate"),
                fmt_f(fip.repair_rate(&afr), 2),
            );
        }
    }

    // CXL controller cards on GreenSKU-Full's per-core savings.
    let model = CarbonModel::new(ModelParams::default_open_source());
    let baseline = open_source::baseline_gen3();
    for (setting, sku) in [
        ("one card", open_source::greensku_full()),
        ("two cards", open_source::greensku_full_two_cxl_cards()),
    ] {
        let savings = model.savings(&baseline, &sku)?;
        row("CXL controller cards", setting, "per-core savings", fmt_pct(savings.total, 1));
    }

    // Tail estimator: DES vs analytic p95 for M/M/8 at 80 % load.
    let des = DesConfig {
        cores: 8,
        qps: 3200.0,
        mean_service_ms: 2.0,
        dist: ServiceDist::Exponential,
        requests: ctx.scaled(2_000, 20_000),
        warmup_fraction: 0.1,
    };
    let queue = MmcQueue::new(des.cores, des.qps, des.mean_service_ms)
        .map_err(|e| GsfError::InvalidConfig(e.to_string()))?;
    let des_p95 = simulate(&des, &mut seeds.stream("des")).p95_ms;
    let setting = "M/M/8 at 80% load";
    row("Tail estimator", setting, "DES requests", des.requests.to_string());
    row("Tail estimator", setting, "DES p95 (ms)", fmt_f(des_p95, 3));
    row("Tail estimator", setting, "analytic p95 (ms)", fmt_f(queue.p95_response_ms(), 3));

    // Growth buffer on a 4 baseline + 20 GreenSKU plan.
    let plan = ClusterPlan { baseline: 4, green: 20 };
    for capacity_fraction in [0.0, 0.05, 0.10, 0.20] {
        let buffered = GrowthBufferPolicy { capacity_fraction }.apply(
            &plan,
            ServerShape::baseline_gen3().cores,
            ServerShape::greensku().cores,
        );
        let setting = fmt_pct(capacity_fraction, 0);
        row("Growth buffer", &setting, "baseline servers", buffered.baseline.to_string());
        row("Growth buffer", &setting, "GreenSKU servers", buffered.green.to_string());
    }
    Ok(t)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn every_ablation_moves_its_outcome() {
        let dir = std::env::temp_dir().join(format!("gsf-ablations-{}", std::process::id()));
        let ctx = ExpContext::new(&dir, 42, true).unwrap().quiet();
        let t = table(&ctx).unwrap();
        std::fs::remove_dir_all(dir).ok();
        assert_eq!(t.rows().len(), 25);
        let cell = |ablation: &str, setting: &str, metric: &str| -> &str {
            let row =
                t.rows().iter().find(|r| r[0] == ablation && r[1] == setting && r[2] == metric);
            row.map_or_else(
                || panic!("missing {ablation} / {setting} / {metric}"),
                |r| r[3].as_str(),
            )
        };
        let num = |ablation: &str, setting: &str, metric: &str| -> f64 {
            cell(ablation, setting, metric).trim_end_matches('%').parse().unwrap()
        };
        // Best-fit packs at least as tightly as first-fit, and both need
        // fewer servers than worst-fit.
        let n0 = |policy: &str| num("Placement policy", policy, "servers needed (n0)");
        assert!(n0("best-fit") <= n0("first-fit"), "{} vs {}", n0("best-fit"), n0("first-fit"));
        assert!(n0("first-fit") < n0("worst-fit"), "{} vs {}", n0("first-fit"), n0("worst-fit"));
        // Without FIP every failure is a repair; FIP cuts the rate.
        assert_eq!(cell("FIP effectiveness", "0%", "Baseline repair rate"), "4.80");
        assert!(
            num("FIP effectiveness", "75%", "GreenSKU-Full repair rate")
                < num("FIP effectiveness", "0%", "GreenSKU-Full repair rate")
        );
        // A second CXL card costs carbon.
        assert!(
            num("CXL controller cards", "two cards", "per-core savings")
                < num("CXL controller cards", "one card", "per-core savings")
        );
        // The quick run simulates fewer requests; both estimators are
        // positive and within 25 % of each other at this load.
        assert_eq!(cell("Tail estimator", "M/M/8 at 80% load", "DES requests"), "2000");
        let des = num("Tail estimator", "M/M/8 at 80% load", "DES p95 (ms)");
        let analytic = num("Tail estimator", "M/M/8 at 80% load", "analytic p95 (ms)");
        assert!(analytic > 0.0 && (des / analytic - 1.0).abs() < 0.25, "{des} vs {analytic}");
        // The buffer adds baseline servers only, more for a larger fraction.
        assert_eq!(cell("Growth buffer", "0%", "baseline servers"), "4");
        assert_eq!(cell("Growth buffer", "20%", "GreenSKU servers"), "20");
        assert!(
            num("Growth buffer", "20%", "baseline servers")
                > num("Growth buffer", "5%", "baseline servers")
        );
    }
}
