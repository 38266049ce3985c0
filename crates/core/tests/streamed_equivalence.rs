//! Equivalence suite for the streamed evaluation path: running the
//! pipeline from a chunked trace stream must be *bit-identical* to
//! running it from the materialized [`Trace`] — same outcome, same
//! replay statistics, same fault and availability summaries — and the
//! two paths must share cache entries (the verified stream digest is
//! pinned equal to [`Trace::content_hash`]).
//!
//! Both paths build their prepared plans through one
//! `PreparedTraceBuilder`, so prepare agreement holds by construction.
//! The suite pins the rest: the chunk codec (encoding, decoding and the
//! digest identity) and the streamed pipeline around the builder (the
//! one-pass, two-plan `PreparedTrace::from_chunk_stream` call, the
//! header's duration seeding fault plans, and the shared cache keys).

use gsf_carbon::units::CarbonIntensity;
use gsf_core::design::GreenSkuDesign;
use gsf_core::pipeline::{GsfPipeline, PipelineConfig};
use gsf_core::EvalContext;
use gsf_maintenance::FaultModel;
use gsf_stats::rng::SeedFactory;
use gsf_workloads::{
    write_chunks, Trace, TraceChunkReader, TraceGenerator, TraceParams, DEFAULT_CHUNK_EVENTS,
};
use proptest::prelude::*;
use std::sync::Arc;

fn trace(seed: u64, hours: f64, arrivals: f64) -> Trace {
    TraceGenerator::new(TraceParams {
        duration_hours: hours,
        arrivals_per_hour: arrivals,
        ..TraceParams::default()
    })
    .generate(&SeedFactory::new(seed), 0)
}

fn designs() -> [GreenSkuDesign; 3] {
    [GreenSkuDesign::efficient(), GreenSkuDesign::cxl(), GreenSkuDesign::full()]
}

/// Chunk-encodes `trace` and evaluates the stream.
fn evaluate_streamed(
    pipeline: &GsfPipeline,
    design: &GreenSkuDesign,
    trace: &Trace,
    ci: CarbonIntensity,
    chunk_events: usize,
) -> gsf_core::pipeline::PipelineOutcome {
    let mut buf = Vec::new();
    write_chunks(trace, &mut buf, chunk_events).unwrap();
    let mut reader = TraceChunkReader::new(&buf[..]).unwrap();
    pipeline.evaluate_streamed_at(design, &mut reader, ci).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Streamed and in-memory evaluation agree bitwise for random
    /// traces, designs, carbon intensities, and chunk sizes — and the
    /// two paths hit the same sizing/prepared cache entries.
    #[test]
    fn streamed_evaluation_matches_in_memory(
        seed in 0u64..1000,
        design_index in 0usize..3,
        ci in 0.02..0.5f64,
        chunk_events in 1usize..5000,
    ) {
        let t = trace(seed, 6.0, 30.0);
        let design = &designs()[design_index];
        let ci = CarbonIntensity::new(ci);

        let pipeline = GsfPipeline::new(PipelineConfig::default());
        let in_memory = pipeline.evaluate_at(design, &t, ci).unwrap();
        let streamed = evaluate_streamed(&pipeline, design, &t, ci, chunk_events);
        prop_assert_eq!(&in_memory, &streamed);

        // The streamed run keyed the same entries the in-memory run
        // populated: no second sizing, no second prepared build.
        let stats = pipeline.context().stats();
        prop_assert_eq!(stats.sizing_misses, 1);
        prop_assert!(stats.sizing_hits >= 1, "sizing hits {}", stats.sizing_hits);
        prop_assert_eq!(stats.prepared_misses, 2);

        // And in the opposite order (stream first) on a fresh context.
        let pipeline2 = GsfPipeline::new(PipelineConfig::default());
        let streamed_first = evaluate_streamed(&pipeline2, design, &t, ci, chunk_events);
        let then_in_memory = pipeline2.evaluate_at(design, &t, ci).unwrap();
        prop_assert_eq!(&streamed_first, &then_in_memory);
        prop_assert_eq!(&streamed_first, &in_memory);
        prop_assert_eq!(pipeline2.context().stats().sizing_misses, 1);
    }

    /// The equivalence holds under fault injection and sharded replay,
    /// where the trace duration (taken from the stream header rather
    /// than the materialized trace) seeds the fault plan.
    #[test]
    fn streamed_matches_in_memory_with_faults_and_shards(
        seed in 0u64..200,
        shards in 1usize..4,
    ) {
        let t = trace(seed, 6.0, 40.0);
        let design = GreenSkuDesign::full();
        let config = PipelineConfig {
            faults: FaultModel::paper(7),
            shards,
            ..PipelineConfig::default()
        };
        let pipeline = GsfPipeline::new(config);
        let ci = pipeline.config().carbon_params.carbon_intensity;
        let in_memory = pipeline.evaluate(&design, &t).unwrap();
        let streamed = evaluate_streamed(&pipeline, &design, &t, ci, 512);
        prop_assert_eq!(&in_memory, &streamed);
        prop_assert_eq!(in_memory.faults, streamed.faults);
        prop_assert_eq!(in_memory.availability, streamed.availability);
    }
}

/// An uncached pipeline (no keys at all) agrees with a cached one on
/// the streamed path, closing the chain uncached-in-memory ==
/// cached-in-memory == cached-streamed == uncached-streamed.
#[test]
fn uncached_streamed_agrees_with_cached() {
    let t = trace(11, 6.0, 35.0);
    let design = GreenSkuDesign::cxl();
    let ci = CarbonIntensity::new(0.12);
    let cached = GsfPipeline::new(PipelineConfig::default());
    let uncached =
        GsfPipeline::with_context(PipelineConfig::default(), Arc::new(EvalContext::uncached()));
    let a = cached.evaluate_at(&design, &t, ci).unwrap();
    let b = evaluate_streamed(&uncached, &design, &t, ci, 257);
    let c = evaluate_streamed(&cached, &design, &t, ci, 257);
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert_eq!(uncached.context().stats().sizing_entries, 0);
}

/// A trace synthesized directly to a chunked stream (never held in
/// memory) evaluates identically to the same generator run through
/// [`TraceGenerator::generate`].
#[test]
fn synthesized_stream_evaluates_like_generated_trace() {
    let params = TraceParams {
        duration_hours: 6.0,
        arrivals_per_hour: 40.0,
        diurnal_amplitude: 0.3,
        ..TraceParams::default()
    };
    let g = TraceGenerator::new(params);
    let seeds = SeedFactory::new(33);
    let design = GreenSkuDesign::full();

    let mut buf = Vec::new();
    g.synthesize_streamed(&seeds, 0, &mut buf, 1024).unwrap();
    let pipeline = GsfPipeline::new(PipelineConfig::default());
    let mut reader = TraceChunkReader::new(&buf[..]).unwrap();
    let streamed = pipeline.evaluate_streamed(&design, &mut reader).unwrap();

    let in_memory = pipeline.evaluate(&design, &g.generate(&seeds, 0)).unwrap();
    assert_eq!(streamed, in_memory);
}

/// The 24k-VM fleet fixture, whose mixed sizing lands above 1024
/// servers: streamed evaluation is bit-identical to in-memory. Ignored by
/// default (fleet-scale debug runs are slow); ci.sh runs it in release
/// via `--include-ignored`.
#[test]
#[ignore = "fleet-scale; ci.sh runs it in release"]
fn fleet_scale_streamed_replay_is_bit_identical() {
    // Large size classes; memory stays at or below 8 GB/core so the
    // 64-core class fits both server shapes after scaling-factor
    // inflation.
    let t = TraceGenerator::new(TraceParams {
        duration_hours: 24.0,
        arrivals_per_hour: 1000.0,
        size_classes: vec![(8, 0.4), (16, 0.3), (32, 0.2), (64, 0.1)],
        mem_per_core_classes: vec![(4.0, 0.6), (8.0, 0.4)],
        ..TraceParams::default()
    })
    .generate(&SeedFactory::new(2024), 2);
    assert!(t.vms().len() > 20_000, "fixture drifted: {} VMs", t.vms().len());

    let design = GreenSkuDesign::full();
    let pipeline = GsfPipeline::new(PipelineConfig::default());
    let ci = pipeline.config().carbon_params.carbon_intensity;
    let in_memory = pipeline.evaluate(&design, &t).unwrap();
    let streamed = evaluate_streamed(&pipeline, &design, &t, ci, DEFAULT_CHUNK_EVENTS);
    assert_eq!(in_memory, streamed);
    assert_eq!(in_memory.replay, streamed.replay);
    // One sizing pass served both runs.
    assert_eq!(pipeline.context().stats().sizing_misses, 1);
}
