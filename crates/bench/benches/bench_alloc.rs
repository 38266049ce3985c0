//! Allocation and workload benches: the code paths behind Figs. 2, 9,
//! and 10.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gsf_bench::{bench_seeds, bench_trace, bench_trace_large};
use gsf_cluster::sizing::{right_size, SizingRequest};
use gsf_maintenance::{FailureSim, FailureSimParams};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultPlan, PlacementPolicy, PlacementRequest, PreparedTrace,
    ServerShape,
};
use gsf_workloads::{
    decode_chunks, write_chunks, TraceGenerator, TraceParams, VmSpec, DEFAULT_CHUNK_EVENTS,
};

fn baseline_transform(vm: &VmSpec) -> PlacementRequest {
    PlacementRequest::baseline_only(vm)
}

/// Fig. 9/10 inner loop: prepare and replay one trace on a fixed
/// cluster.
fn fig9_replay(c: &mut Criterion) {
    let trace = bench_trace();
    c.bench_function("fig9_replay_500vm_trace", |b| {
        b.iter(|| {
            let mut sim =
                AllocationSim::new(ClusterConfig::baseline_only(24), PlacementPolicy::BestFit);
            let prepared = PreparedTrace::new(&trace, &baseline_transform);
            black_box(sim.replay_prepared_faulted(&prepared, &FaultPlan::empty()))
        })
    });
}

/// Fig. 9/10 outer loop: the right-sizing binary search.
fn fig9_sizing_search(c: &mut Criterion) {
    let trace = bench_trace_large();
    c.bench_function("fig9_right_size_baseline", |b| {
        b.iter(|| {
            let prepared = PreparedTrace::new(&trace, &baseline_transform);
            let request = SizingRequest::new(
                &prepared,
                ServerShape::baseline_gen3(),
                PlacementPolicy::BestFit,
            );
            black_box(right_size(&request).unwrap())
        })
    });
}

/// Fig. 2: the failure-trace simulation.
fn fig2_failures(c: &mut Criterion) {
    let sim = FailureSim::new(FailureSimParams::default());
    c.bench_function("fig2_failure_sim_84_months", |b| {
        b.iter(|| {
            let mut rng = bench_seeds().stream("bench-fig2");
            black_box(sim.run(&mut rng))
        })
    });
}

/// Trace generation (the synthetic substrate for Figs. 9/10).
fn trace_generation(c: &mut Criterion) {
    let generator = TraceGenerator::new(TraceParams {
        duration_hours: 12.0,
        arrivals_per_hour: 40.0,
        ..TraceParams::default()
    });
    c.bench_function("trace_generate_500vms", |b| {
        b.iter(|| black_box(generator.generate(&bench_seeds(), 0)))
    });
}

/// §II characterization of a 500-VM trace.
fn sec2_characterize(c: &mut Criterion) {
    let trace = bench_trace();
    c.bench_function("sec2_characterize_500vm_trace", |b| {
        b.iter(|| black_box(gsf_workloads::characterize(&trace)))
    });
}

/// Chunked trace codec round trip, at the default chunk size.
fn trace_codec(c: &mut Criterion) {
    let trace = bench_trace();
    let mut encoded = Vec::new();
    write_chunks(&trace, &mut encoded, DEFAULT_CHUNK_EVENTS).unwrap();
    c.bench_function("trace_write_chunks", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(encoded.len());
            black_box(write_chunks(&trace, &mut out, DEFAULT_CHUNK_EVENTS).unwrap());
            out
        })
    });
    c.bench_function("trace_decode_chunks", |b| {
        b.iter(|| black_box(decode_chunks(&encoded[..]).unwrap()))
    });
}

criterion_group!(
    benches,
    fig9_replay,
    fig9_sizing_search,
    fig2_failures,
    trace_generation,
    sec2_characterize,
    trace_codec
);
criterion_main!(benches);
