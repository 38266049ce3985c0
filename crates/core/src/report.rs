//! One-page deployment reports: everything GSF knows about a design,
//! rendered as markdown for human review.
//!
//! The paper "recommends humans in the SKU design process" (§IV); this
//! module produces the artifact those humans would review — SKU shape,
//! per-core carbon, adoption, cluster plan, savings, maintenance
//! overheads, and the top carbon-consuming applications.

use crate::attribution::AttributionReport;
use crate::design::GreenSkuDesign;
use crate::error::GsfError;
use crate::pipeline::{GsfPipeline, PipelineOutcome};
use gsf_workloads::{catalog, Trace};
use std::fmt::Write as _;

/// Renders the full markdown report for `design` evaluated on `trace`.
///
/// # Errors
///
/// Propagates pipeline and carbon-model failures.
pub fn deployment_report(
    pipeline: &GsfPipeline,
    design: &GreenSkuDesign,
    trace: &Trace,
) -> Result<String, GsfError> {
    let outcome = pipeline.evaluate(design, trace)?;
    let params = &pipeline.config().carbon_params;
    let attribution = AttributionReport::new(
        &outcome.replay.usage,
        &catalog::applications(),
        &*pipeline.context().gen3(params)?,
        &*pipeline.context().assess(params, &design.carbon)?,
        params.lifetime.hours(),
    );
    Ok(render(design, trace, &outcome, &attribution))
}

fn render(
    design: &GreenSkuDesign,
    trace: &Trace,
    o: &PipelineOutcome,
    attribution: &AttributionReport,
) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "# GSF deployment report — {}\n", design.name());

    let _ = writeln!(w, "## SKU");
    let _ = writeln!(
        w,
        "- {} cores, {:.0} GB memory ({:.0} GB CXL-attached), {:.0} TB SSD",
        design.carbon.cores(),
        design.carbon.memory_capacity().get(),
        design.carbon.cxl_memory_capacity().get(),
        design.carbon.ssd_capacity().get()
    );
    let _ = writeln!(
        w,
        "- average server power {:.0} W; embodied {:.0} kg CO2e \
         ({:.0} kg avoided through reuse)",
        design.carbon.average_power().get(),
        design.carbon.embodied().get(),
        design.carbon.embodied_avoided_by_reuse().get()
    );
    let _ = writeln!(
        w,
        "- per-core CO2e {:.1} kg vs baseline {:.1} kg ({:.1} % lower)\n",
        o.green_per_core,
        o.baseline_per_core,
        (1.0 - o.green_per_core / o.baseline_per_core) * 100.0
    );

    let _ = writeln!(w, "## Workload");
    let (peak_cores, peak_mem) = trace.peak_demand();
    let _ = writeln!(
        w,
        "- {} VMs over {:.0} h; peak demand {} cores / {:.0} GB",
        trace.vms().len(),
        trace.duration_s() / 3600.0,
        peak_cores,
        peak_mem
    );
    let _ = writeln!(
        w,
        "- adoption: {:.1} % of fleet core-hours run on the GreenSKU (vs Gen3)\n",
        o.adoption_rate * 100.0
    );

    let _ = writeln!(w, "## Cluster plan");
    let _ = writeln!(
        w,
        "- all-baseline: {} servers ({} with growth buffer)",
        o.baseline_only_servers, o.baseline_only_buffered
    );
    let _ = writeln!(
        w,
        "- mixed: {} baseline + {} GreenSKU ({} + {} buffered)",
        o.plan.baseline, o.plan.green, o.plan_buffered.baseline, o.plan_buffered.green
    );
    let _ = writeln!(
        w,
        "- placement: {} VMs on GreenSKUs, {} on baseline ({} overflowed); {} rejections",
        o.replay.placed_green, o.replay.placed_baseline, o.replay.green_overflow, o.replay.rejected
    );
    let _ = writeln!(
        w,
        "- maintenance: out-of-service fractions {:.3} % (baseline) / {:.3} % (GreenSKU)\n",
        o.oos_baseline * 100.0,
        o.oos_green * 100.0
    );

    let _ = writeln!(w, "## Savings");
    let _ = writeln!(
        w,
        "- cluster-level: **{:.1} %** vs the all-baseline cluster",
        o.cluster_savings * 100.0
    );
    let _ = writeln!(
        w,
        "- data-center-level: **{:.1} %** (compute's share of DC emissions applied)\n",
        o.dc_savings * 100.0
    );

    let _ = writeln!(w, "## Top applications by attributed carbon");
    for row in attribution.apps.iter().take(5) {
        let _ = writeln!(
            w,
            "- {}: {:.1} kg ({:.0} baseline + {:.0} GreenSKU core-hours)",
            row.app, row.kg_co2e, row.baseline_core_hours, row.green_core_hours
        );
    }
    let _ = writeln!(
        w,
        "\nAttributed savings vs an all-baseline counterfactual: {:.1} %.",
        attribution.attributed_savings() * 100.0
    );
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use gsf_stats::rng::SeedFactory;
    use gsf_workloads::{TraceGenerator, TraceParams};

    fn trace() -> Trace {
        TraceGenerator::new(TraceParams {
            duration_hours: 12.0,
            arrivals_per_hour: 40.0,
            ..TraceParams::default()
        })
        .generate(&SeedFactory::new(3), 0)
    }

    #[test]
    fn report_contains_every_section() {
        let pipeline = GsfPipeline::new(PipelineConfig::default());
        let report = deployment_report(&pipeline, &GreenSkuDesign::full(), &trace()).unwrap();
        for heading in
            ["# GSF deployment report", "## SKU", "## Workload", "## Cluster plan", "## Savings"]
        {
            assert!(report.contains(heading), "missing {heading}");
        }
        assert!(report.contains("GreenSKU-Full"));
        assert!(report.contains("Attributed savings"));
    }

    #[test]
    fn report_numbers_match_outcome() {
        let pipeline = GsfPipeline::new(PipelineConfig::default());
        let t = trace();
        let o = pipeline.evaluate(&GreenSkuDesign::cxl(), &t).unwrap();
        let report = deployment_report(&pipeline, &GreenSkuDesign::cxl(), &t).unwrap();
        assert!(report.contains(&format!(
            "- mixed: {} baseline + {} GreenSKU",
            o.plan.baseline, o.plan.green
        )));
    }
}
