//! §VI adoption statistics: which applications adopt each GreenSKU,
//! the CXL-tolerant core-hour fraction, and the low-load latency
//! comparison.

use crate::context::{ExpContext, ExpError};
use gsf_carbon::ModelParams;
use gsf_core::{GreenSkuDesign, VmRouter};
use gsf_perf::lowload::median_low_load_ratio;
use gsf_perf::{MemoryPlacement, SkuPerfProfile};
use gsf_stats::table::{fmt_pct, Table};
use gsf_workloads::{catalog, FleetMix, ServerGeneration};

/// Regenerates the adoption statistics.
pub fn run(ctx: &ExpContext) -> Result<(), ExpError> {
    let mix = FleetMix::standard();

    // Adoption rate per design (core-hour weighted, vs Gen3).
    let mut t = Table::new(vec!["Design", "Adoption rate vs Gen3 (core-hours)"])
        .with_title("Adoption rates");
    for design in GreenSkuDesign::all_three() {
        let router = VmRouter::new(ModelParams::default_open_source(), &design)?;
        t.row(vec![design.name().to_string(), fmt_pct(router.adoption_rate_gen3(), 1)]);
    }
    ctx.write_table("adoption_rates", &t)?;

    // CXL tolerance (paper: 20.2 % of core-hours can run fully
    // CXL-backed).
    let tolerant = mix.weighted_fraction(|a| a.tolerates_full_cxl());
    ctx.write_text(
        "adoption_cxl_tolerance.txt",
        &format!(
            "core-hours tolerating full-CXL memory backing: {} (paper: 20.2%)\n\
             tolerant applications: {}\n",
            fmt_pct(tolerant, 1),
            catalog::applications()
                .iter()
                .filter(|a| a.tolerates_full_cxl())
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join(", "),
        ),
    )?;

    // Low-load latency medians (paper: −8.3 % vs Gen1, −2 % vs Gen2,
    // +16 % vs Gen3).
    let apps = catalog::applications();
    let green = SkuPerfProfile::greensku_efficient();
    let mut ll = Table::new(vec!["Baseline", "Median low-load p95 ratio", "Paper"])
        .with_title("Low-load latency of scaled GreenSKU-Efficient VMs");
    for (generation, base, paper) in [
        (ServerGeneration::Gen1, SkuPerfProfile::gen1(), "-8.3%"),
        (ServerGeneration::Gen2, SkuPerfProfile::gen2(), "-2%"),
        (ServerGeneration::Gen3, SkuPerfProfile::gen3(), "+16%"),
    ] {
        let median = median_low_load_ratio(&apps, &green, MemoryPlacement::LocalOnly, &base)
            .expect("latency apps exist");
        ll.row(vec![
            generation.label().to_string(),
            format!("{:+.1}%", (median - 1.0) * 100.0),
            paper.to_string(),
        ]);
    }
    ctx.write_table("adoption_low_load_latency", &ll)?;

    // Per-application carbon attribution (§IV-A): replay one trace on
    // the GreenSKU-Full cluster and attribute emissions to apps.
    attribution_report(ctx)?;
    ctx.note(&format!("adoption: CXL-tolerant core-hours {}", fmt_pct(tolerant, 1)));
    Ok(())
}

/// Writes the per-application attribution table for one replayed trace.
fn attribution_report(ctx: &ExpContext) -> Result<(), ExpError> {
    use gsf_core::attribution::AttributionReport;
    use gsf_core::{GreenSkuDesign, GsfPipeline, PipelineConfig};
    use gsf_stats::rng::SeedFactory;
    use gsf_workloads::{TraceGenerator, TraceParams};

    let trace = TraceGenerator::new(TraceParams {
        duration_hours: ctx.scaled(12.0, 48.0),
        arrivals_per_hour: ctx.scaled(40.0, 100.0),
        ..TraceParams::default()
    })
    .generate(&SeedFactory::new(ctx.seeds().root() ^ 0xa77), 0);

    let design = GreenSkuDesign::full();
    let pipeline = GsfPipeline::new(PipelineConfig::default());
    let outcome = pipeline.evaluate(&design, &trace)?;
    let params = &pipeline.config().carbon_params;
    let report = AttributionReport::new(
        &outcome.replay.usage,
        &catalog::applications(),
        &*pipeline.context().gen3(params)?,
        &*pipeline.context().assess(params, &design.carbon)?,
        params.lifetime.hours(),
    );

    let mut t =
        Table::new(vec!["Application", "Baseline core-h", "GreenSKU core-h", "kg CO2e", "Share"])
            .with_title("Per-application carbon attribution (GreenSKU-Full cluster)");
    let total = report.total_kg().max(f64::MIN_POSITIVE);
    for row in report.apps.iter().take(10) {
        t.row(vec![
            row.app.clone(),
            format!("{:.0}", row.baseline_core_hours),
            format!("{:.0}", row.green_core_hours),
            format!("{:.1}", row.kg_co2e),
            fmt_pct(row.kg_co2e / total, 1),
        ]);
    }
    ctx.write_table("adoption_attribution", &t)?;
    ctx.note(&format!(
        "attribution: {} apps, total {:.0} kg, attributed savings vs all-baseline {}",
        report.apps.len(),
        report.total_kg(),
        fmt_pct(report.attributed_savings(), 1)
    ));
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn writes_artifacts() {
        let dir = std::env::temp_dir().join(format!("gsf-adopt-{}", std::process::id()));
        let ctx = ExpContext::new(&dir, 13, true).unwrap().quiet();
        run(&ctx).unwrap();
        assert!(dir.join("adoption_rates.csv").exists());
        let txt = std::fs::read_to_string(dir.join("adoption_cxl_tolerance.txt")).unwrap();
        assert!(txt.contains("Shore"));
        let ll = std::fs::read_to_string(dir.join("adoption_low_load_latency.csv")).unwrap();
        assert!(ll.contains("Gen3"));
        std::fs::remove_dir_all(dir).ok();
    }
}
