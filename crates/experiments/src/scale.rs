//! Scale sweep — streamed vs in-memory evaluation as the fleet grows.
//!
//! Evaluates the same synthetic trace through the materialized
//! [`Trace`] path and the chunked stream path at increasing scale,
//! asserting bit-identity at every point and recording the chunked
//! artifact size alongside the savings headline. Both paths prepare
//! their plans through one builder, so the identity checked here is the
//! chunk codec's and the streamed pipeline's. Experiments stay
//! wall-clock-free so their artifacts are a pure function of the seed:
//! the timing and peak-RSS side of the same comparison was measured once
//! at ~1M VMs by a since-retired bench, and its figures are history in
//! `results/BENCH_pr8.json`.

use crate::context::{ExpContext, ExpError};
use gsf_core::{GreenSkuDesign, GsfError, GsfPipeline, PipelineConfig};
use gsf_stats::table::{fmt_pct, Table};
use gsf_workloads::{
    write_chunks, Trace, TraceChunkReader, TraceGenerator, TraceParams, DEFAULT_CHUNK_EVENTS,
};

fn trace_at(ctx: &ExpContext, hours: f64, arrivals: f64) -> Trace {
    TraceGenerator::new(TraceParams {
        duration_hours: hours,
        arrivals_per_hour: arrivals,
        ..TraceParams::default()
    })
    .generate(ctx.seeds(), 8)
}

/// Regenerates the streamed-equivalence scale sweep.
///
/// # Errors
///
/// Propagates pipeline and artifact-write failures.
pub fn run(ctx: &ExpContext) -> Result<(), ExpError> {
    let scales: &[(f64, f64)] = if ctx.is_quick() {
        &[(2.0, 20.0), (4.0, 40.0)]
    } else {
        &[(6.0, 50.0), (24.0, 200.0), (24.0, 1000.0), (72.0, 1000.0)]
    };
    let design = GreenSkuDesign::full();
    let pipeline = GsfPipeline::new(PipelineConfig::default());

    let mut t =
        Table::new(vec!["VMs", "Events", "Chunked MB", "Streamed == in-memory", "DC savings"])
            .with_title("Scale sweep — streamed vs in-memory evaluation");
    let mut rows = Vec::new();
    for &(hours, arrivals) in scales {
        let trace = trace_at(ctx, hours, arrivals);
        let in_memory = pipeline.evaluate(&design, &trace)?;

        let mut buf = Vec::new();
        let digest =
            write_chunks(&trace, &mut buf, DEFAULT_CHUNK_EVENTS).map_err(GsfError::from)?;
        let mut reader = TraceChunkReader::new(&buf[..]).map_err(GsfError::from)?;
        let streamed = pipeline.evaluate_streamed(&design, &mut reader)?;

        let identical = streamed == in_memory && digest == trace.content_hash();
        let mb = buf.len() as f64 / 1e6;
        t.row(vec![
            trace.vms().len().to_string(),
            trace.events().len().to_string(),
            format!("{mb:.2}"),
            if identical { "yes" } else { "NO" }.to_string(),
            fmt_pct(in_memory.dc_savings, 1),
        ]);
        rows.push(vec![
            trace.vms().len() as f64,
            trace.events().len() as f64,
            mb,
            f64::from(u8::from(identical)),
            in_memory.dc_savings,
        ]);
        if !identical {
            ctx.note(&format!(
                "scale sweep: streamed outcome diverged at {hours} h x {arrivals} VMs/h"
            ));
        }
    }
    ctx.write_series(
        "scale_streamed.csv",
        &["vms", "events", "chunked_mb", "bit_identical", "dc_savings"],
        &rows,
    )?;
    ctx.write_table("scale_streamed_table", &t)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_bit_identical_at_every_point() {
        let dir = std::env::temp_dir().join(format!("gsf-scale-{}", std::process::id()));
        let ctx = ExpContext::new(&dir, 13, true).unwrap().quiet();
        run(&ctx).unwrap();
        let csv = std::fs::read_to_string(dir.join("scale_streamed.csv")).unwrap();
        for line in csv.lines().skip(1) {
            let identical: f64 = line.split(',').nth(3).unwrap().parse().unwrap();
            assert!((identical - 1.0).abs() < 1e-9, "divergent row: {line}");
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
