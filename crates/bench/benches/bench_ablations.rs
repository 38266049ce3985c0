//! Ablation benches for the design choices DESIGN.md §4 calls out.
//!
//! These measure *outcomes* as well as time: each ablation prints the
//! quality metric it changes (packing density, repair rate, savings) so
//! `cargo bench ablation` doubles as the ablation study.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gsf_bench::bench_trace;
use gsf_carbon::datasets::open_source;
use gsf_carbon::{CarbonModel, ModelParams};
use gsf_maintenance::{FipPolicy, ServerAfr};
use gsf_perf::analytic::MmcQueue;
use gsf_perf::des::{simulate, DesConfig, ServiceDist};
use gsf_stats::rng::SeedFactory;
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultPlan, PlacementPolicy, PlacementRequest, PreparedTrace,
    ServerShape,
};
use gsf_workloads::VmSpec;

fn baseline_transform(vm: &VmSpec) -> PlacementRequest {
    PlacementRequest::baseline_only(vm)
}

/// Prints an ablation's JSON summary. The `results/BENCH_pr*.json`
/// files keep the summaries recorded before the repository benchmark
/// (`benchmark/`) existed; runs no longer overwrite them.
fn print_summary(json: &str) {
    println!("[ablation] summary:\n{json}");
}

/// Ablation: best-fit vs first-fit vs worst-fit packing density.
fn ablation_placement_policy(c: &mut Criterion) {
    let prepared = PreparedTrace::new(&bench_trace(), &baseline_transform);
    let mut group = c.benchmark_group("ablation_placement_policy");
    for policy in [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit] {
        // Print the quality outcome once per policy.
        let (out, _) = AllocationSim::new(ClusterConfig::baseline_only(24), policy)
            .replay_prepared_faulted(&prepared, &FaultPlan::empty());
        println!(
            "[ablation] {policy}: core density {:.3}, rejected {}",
            out.metrics.baseline.mean_core_density(),
            out.rejected
        );
        group.bench_function(policy.to_string(), |b| {
            b.iter(|| {
                let mut sim = AllocationSim::new(ClusterConfig::baseline_only(24), policy);
                black_box(sim.replay_prepared_faulted(&prepared, &FaultPlan::empty()))
            })
        });
    }
    group.finish();
}

/// Ablation: FIP effectiveness 0 % / 50 % / 75 % on repair rates.
fn ablation_fip_effectiveness(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fip");
    for eff in [0.0, 0.5, 0.75] {
        let fip = FipPolicy { effectiveness: eff };
        println!(
            "[ablation] FIP {:.0}%: baseline repair {:.2}, GreenSKU-Full repair {:.2}",
            eff * 100.0,
            fip.repair_rate(&ServerAfr::baseline()),
            fip.repair_rate(&ServerAfr::greensku_full())
        );
        group.bench_function(format!("fip_{:.0}pct", eff * 100.0), |b| {
            b.iter(|| {
                black_box(fip.repair_rate(&ServerAfr::baseline()));
                black_box(fip.repair_rate(&ServerAfr::greensku_full()));
            })
        });
    }
    group.finish();
}

/// Ablation: one vs two CXL controller cards on per-core savings.
fn ablation_cxl_cards(c: &mut Criterion) {
    let model = CarbonModel::new(ModelParams::default_open_source());
    let baseline = open_source::baseline_gen3();
    let mut group = c.benchmark_group("ablation_cxl_cards");
    for (label, sku) in [
        ("one_card", open_source::greensku_full()),
        ("two_cards", open_source::greensku_full_two_cxl_cards()),
    ] {
        let savings = model.savings(&baseline, &sku).unwrap();
        println!("[ablation] {label}: total per-core savings {:.1}%", savings.total * 100.0);
        group.bench_function(label, |b| {
            b.iter(|| black_box(model.savings(&baseline, &sku).unwrap()))
        });
    }
    group.finish();
}

/// Ablation: DES vs analytic M/M/c tail estimation (accuracy vs speed).
fn ablation_des_vs_analytic(c: &mut Criterion) {
    let config = DesConfig {
        cores: 8,
        qps: 3200.0,
        mean_service_ms: 2.0,
        dist: ServiceDist::Exponential,
        requests: 20_000,
        warmup_fraction: 0.1,
    };
    let queue = MmcQueue::new(8, 3200.0, 2.0).unwrap();
    let mut rng = SeedFactory::new(5).stream("ablation");
    let des_p95 = simulate(&config, &mut rng).p95_ms;
    println!(
        "[ablation] p95 estimate: DES {:.3} ms vs analytic {:.3} ms",
        des_p95,
        queue.p95_response_ms()
    );
    let mut group = c.benchmark_group("ablation_tail_estimator");
    group.bench_function("des_20k_requests", |b| {
        b.iter(|| {
            let mut rng = SeedFactory::new(5).stream("ablation");
            black_box(simulate(&config, &mut rng))
        })
    });
    group.bench_function("analytic_mmc", |b| b.iter(|| black_box(queue.p95_response_ms())));
    group.finish();
}

/// Ablation: growth-buffer headroom fraction on the buffered plan.
fn ablation_buffer_fraction(c: &mut Criterion) {
    use gsf_cluster::buffer::GrowthBufferPolicy;
    use gsf_cluster::sizing::ClusterPlan;
    let plan = ClusterPlan { baseline: 4, green: 20 };
    let mut group = c.benchmark_group("ablation_buffer");
    for frac in [0.0, 0.05, 0.10, 0.20] {
        let policy = GrowthBufferPolicy { capacity_fraction: frac };
        let buffered = policy.apply(&plan, ServerShape::baseline_gen3().cores, 128);
        println!(
            "[ablation] buffer {:.0}%: {} baseline + {} green servers",
            frac * 100.0,
            buffered.baseline,
            buffered.green
        );
        group.bench_function(format!("buffer_{:.0}pct", frac * 100.0), |b| {
            b.iter(|| black_box(policy.apply(&plan, 80, 128)))
        });
    }
    group.finish();
}

/// Ablation: assessment cache on/off for a single pipeline evaluation
/// (the cache serves the design + Gen1–Gen3 baseline assessments that
/// `evaluate_at` needs on every call).
fn ablation_eval_cache(c: &mut Criterion) {
    use gsf_carbon::units::CarbonIntensity;
    use gsf_core::{EvalContext, GreenSkuDesign, GsfPipeline, PipelineConfig};
    use std::sync::Arc;
    let trace = bench_trace();
    let design = GreenSkuDesign::full();
    let mut group = c.benchmark_group("ablation_eval_cache");
    group.bench_function("uncached", |b| {
        let pipeline =
            GsfPipeline::with_context(PipelineConfig::default(), Arc::new(EvalContext::uncached()));
        b.iter(|| {
            black_box(pipeline.evaluate_at(&design, &trace, CarbonIntensity::new(0.1)).unwrap())
        })
    });
    group.bench_function("cached", |b| {
        let pipeline = GsfPipeline::new(PipelineConfig::default());
        b.iter(|| {
            black_box(pipeline.evaluate_at(&design, &trace, CarbonIntensity::new(0.1)).unwrap())
        })
    });
    group.finish();
}

/// Ablation: sharded vs unsharded fleet replay — one replay of the
/// sized ≥1024-server cluster through the unsharded engine, the
/// 1-shard sharded engine (its overhead budget is ≤5 %), and K-shard
/// serial vs parallel drivers. Asserts the bit-identity chain
/// (unsharded == 1-shard; serial == parallel per K) on every rep it
/// times, and prints a JSON summary in the shape of
/// `results/BENCH_pr6.json`.
fn ablation_sharded_replay(c: &mut Criterion) {
    use gsf_bench::bench_trace_fleet;
    use gsf_cluster::parallel::default_workers;
    use gsf_cluster::sharded::replay_sharded;
    use gsf_cluster::sizing::{right_size, MixedSearch, SizingRequest};
    use gsf_vmalloc::ShardedSim;
    use std::time::{Duration, Instant};

    let test_mode = std::env::args().any(|a| a == "--test");
    let trace = if test_mode { bench_trace() } else { bench_trace_fleet() };
    let transform = |vm: &VmSpec| {
        if vm.full_node {
            PlacementRequest::baseline_only(vm)
        } else {
            PlacementRequest::prefer_green(vm, 1.25)
        }
    };
    let prepared = PreparedTrace::new(&trace, &transform);
    let prepared_baseline = PreparedTrace::new(&trace, &baseline_transform);
    let baseline_shape = ServerShape::baseline_gen3();
    let green_shape = ServerShape::greensku();

    // Size once (unsharded) and replay that fixed cluster under every
    // engine, so the ablation isolates replay cost from sizing.
    let (_, plan) = right_size(&SizingRequest {
        mixed: Some(MixedSearch { prepared: &prepared, green_shape }),
        ..SizingRequest::new(&prepared_baseline, baseline_shape, PlacementPolicy::BestFit)
    })
    .unwrap();
    let config = ClusterConfig {
        baseline_count: plan.baseline,
        baseline_shape,
        green_count: plan.green,
        green_shape,
    };
    let workers = default_workers();

    let unsharded_outcome = {
        let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);
        sim.replay_prepared_faulted(&prepared, &FaultPlan::empty()).0
    };
    let time_unsharded = |reps: u32| -> Duration {
        let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);
        (0..reps)
            .map(|_| {
                sim.reset(config);
                let t = Instant::now();
                black_box(sim.replay_prepared_faulted(&prepared, &FaultPlan::empty()));
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    // Each timed rep also re-verifies determinism: the parallel result
    // must equal the serial reference of the same shard count.
    let time_sharded = |shards: usize, run_workers: usize, reps: u32| -> Duration {
        let mut sim = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
        let serial = ShardedSim::new(config, PlacementPolicy::BestFit, shards)
            .replay_prepared_faulted(&prepared, &FaultPlan::empty());
        (0..reps)
            .map(|_| {
                sim.reset(config);
                let t = Instant::now();
                let got = black_box(replay_sharded(
                    &mut sim,
                    &prepared,
                    &FaultPlan::empty(),
                    run_workers,
                ));
                let elapsed = t.elapsed();
                assert_eq!(got, serial, "parallel != serial at K={shards}");
                if shards == 1 {
                    assert_eq!(got.0, unsharded_outcome, "1 shard != unsharded engine");
                }
                elapsed
            })
            .min()
            .unwrap()
    };

    let replay_unsharded = time_unsharded(5);
    let replay_one_shard = time_sharded(1, 1, 5);
    let one_shard_overhead = replay_one_shard.as_secs_f64() / replay_unsharded.as_secs_f64();
    println!(
        "[ablation] unsharded replay {:.1} ms vs 1-shard {:.1} ms ({:.3}x overhead) at {} servers",
        replay_unsharded.as_secs_f64() * 1e3,
        replay_one_shard.as_secs_f64() * 1e3,
        one_shard_overhead,
        config.total_servers(),
    );

    let mut multi = Vec::new();
    for shards in [2usize, 4, 8] {
        let serial = time_sharded(shards, 1, 3);
        let parallel = time_sharded(shards, workers, 3);
        println!(
            "[ablation] K={shards}: serial {:.1} ms, parallel({} workers) {:.1} ms ({:.2}x)",
            serial.as_secs_f64() * 1e3,
            workers,
            parallel.as_secs_f64() * 1e3,
            serial.as_secs_f64() / parallel.as_secs_f64(),
        );
        multi.push((shards, serial, parallel));
    }

    if !test_mode {
        let per_shard = multi
            .iter()
            .map(|(k, s, p)| {
                format!(
                    "    \"shards_{k}\": {{\"serial\": {:.0}, \"parallel\": {:.0}}}",
                    s.as_secs_f64() * 1e9,
                    p.as_secs_f64() * 1e9,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let json = format!(
            "{{\n  \"bench\": \"ablation_sharded_replay\",\n  \"trace\": {{\"vms\": {}}},\n  \"plan\": {{\"baseline\": {}, \"green\": {}, \"total\": {}}},\n  \"workers\": {},\n  \"ns_per_iter\": {{\n    \"replay_unsharded\": {:.0},\n    \"replay_shards_1\": {:.0},\n{}\n  }},\n  \"one_shard_overhead\": {:.3}\n}}\n",
            trace.vms().len(),
            plan.baseline,
            plan.green,
            plan.total(),
            workers,
            replay_unsharded.as_secs_f64() * 1e9,
            replay_one_shard.as_secs_f64() * 1e9,
            per_shard,
            one_shard_overhead,
        );
        print_summary(&json);
    }

    let mut group = c.benchmark_group("ablation_sharded_replay");
    group.bench_function("unsharded", |b| {
        let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);
        b.iter(|| {
            sim.reset(config);
            black_box(sim.replay_prepared_faulted(&prepared, &FaultPlan::empty()))
        })
    });
    for shards in [1usize, 4] {
        group.bench_function(format!("sharded_k{shards}"), |b| {
            let mut sim = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
            b.iter(|| {
                sim.reset(config);
                black_box(replay_sharded(&mut sim, &prepared, &FaultPlan::empty(), workers))
            })
        });
    }
    group.finish();
}

/// Ablation: streamed vs materialized trace handling — the chunked-
/// trace subsystem's cost/benefit. At ~1M VMs over two weeks it
/// synthesizes straight to a chunked file, then replays end-to-end
/// streamed (file → builder → replay, no materialized `Trace`) versus
/// materialized (decode → prepare → replay), sampling process peak RSS
/// after each phase. VmHWM is a lifetime high-water mark, so the
/// streamed phase runs FIRST: the materialized phase can only push the
/// mark higher, and the gap is memory the streamed path never
/// allocates. Prints a JSON summary in the shape of
/// `results/BENCH_pr8.json`'s `million` section. (Both phases prepare
/// through the same builder; an A/B of preparation alone would time it
/// against itself.)
fn ablation_streamed_trace(_: &mut Criterion) {
    use gsf_bench::BENCH_SEED;
    use gsf_workloads::{
        decode_chunks, TraceChunkReader, TraceGenerator, TraceParams, DEFAULT_CHUNK_EVENTS,
    };
    use std::io::{BufReader, BufWriter, Write as _};
    use std::time::Instant;

    /// Process-lifetime peak resident set (`VmHWM`) in kB; 0 when
    /// `/proc` is unavailable.
    fn peak_rss_kb() -> u64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    l.strip_prefix("VmHWM:")?.trim().trim_end_matches("kB").trim().parse().ok()
                })
            })
            .unwrap_or(0)
    }

    // A ~1M-VM run has no smoke-sized form: `--test` runs skip it.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let transform = |vm: &VmSpec| {
        if vm.full_node {
            PlacementRequest::baseline_only(vm)
        } else {
            PlacementRequest::prefer_green(vm, 1.25)
        }
    };

    // ~1M VMs over two weeks: end-to-end replay, streamed first.
    let generator = TraceGenerator::new(TraceParams {
        duration_hours: 14.0 * 24.0,
        arrivals_per_hour: 3000.0,
        size_classes: vec![(8, 0.4), (16, 0.3), (32, 0.2), (64, 0.1)],
        mem_per_core_classes: vec![(4.0, 0.6), (8.0, 0.4)],
        ..TraceParams::default()
    });
    let path = std::env::temp_dir().join("gsf_ablation_streamed_1m.gst");

    let t = Instant::now();
    {
        let mut out = BufWriter::new(std::fs::File::create(&path).unwrap());
        generator
            .synthesize_streamed(&SeedFactory::new(BENCH_SEED), 9, &mut out, DEFAULT_CHUNK_EVENTS)
            .unwrap();
        out.flush().unwrap();
    }
    let synthesize = t.elapsed();
    let file_bytes = std::fs::metadata(&path).unwrap().len();
    let rss_after_synth_kb = peak_rss_kb();

    // Streamed phase: file → chunk reader → builder → replay. The
    // cluster is sized once here, from the prepared peak demand
    // with headroom, and shared by both phases so the ablation
    // isolates the data path, not sizing.
    let t = Instant::now();
    let (streamed_outcome, streamed_digest, vms, events, config) = {
        let file = BufReader::new(std::fs::File::open(&path).unwrap());
        let mut reader = TraceChunkReader::new(file).unwrap();
        let [prepared] = PreparedTrace::from_chunk_stream(&mut reader, [&transform]).unwrap();
        let digest = reader.content_hash().expect("chunked stream must end with a footer");
        let (peak_cores, peak_mem_gb) = prepared.peak_demand();
        let baseline_shape = ServerShape::baseline_gen3();
        let green_shape = ServerShape::greensku();
        let servers = |shape: ServerShape, share: f64| -> u32 {
            let by_cores = (peak_cores as f64 * share / f64::from(shape.cores)).ceil();
            let by_mem = (peak_mem_gb * share / shape.mem_gb).ceil();
            by_cores.max(by_mem) as u32 + 2
        };
        let config = ClusterConfig {
            baseline_count: servers(baseline_shape, 0.5),
            baseline_shape,
            green_count: servers(green_shape, 1.0),
            green_shape,
        };
        let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);
        let outcome = black_box(sim.replay_prepared_faulted(&prepared, &FaultPlan::empty()));
        (outcome, digest, prepared.vm_count(), prepared.event_count(), config)
    };
    let streamed_replay = t.elapsed();
    let rss_streamed_kb = peak_rss_kb();

    // Materialized phase: decode the whole file into a Trace, then
    // the standard in-memory prepare + replay of the same cluster.
    let t = Instant::now();
    let (materialized_outcome, materialized_hash) = {
        let file = BufReader::new(std::fs::File::open(&path).unwrap());
        let trace_1m = decode_chunks(file).unwrap();
        let hash = trace_1m.content_hash();
        let prepared = PreparedTrace::new(&trace_1m, &transform);
        let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);
        (black_box(sim.replay_prepared_faulted(&prepared, &FaultPlan::empty())), hash)
    };
    let materialized_replay = t.elapsed();
    let rss_materialized_kb = peak_rss_kb();
    std::fs::remove_file(&path).ok();

    assert!(vms > 900_000, "scale fixture drifted: {vms} VMs");
    assert_eq!(streamed_digest, materialized_hash, "digest drift between phases");
    assert_eq!(
        streamed_outcome, materialized_outcome,
        "streamed end-to-end replay must be bit-identical to materialized"
    );
    if rss_streamed_kb > 0 {
        assert!(
            rss_streamed_kb < rss_materialized_kb,
            "streamed peak RSS {rss_streamed_kb} kB not below materialized {rss_materialized_kb} kB"
        );
    }
    println!(
        "[ablation] 1M-scale ({vms} VMs, {events} events, {:.1} MB file, {} servers): \
         synth {:.1} s, streamed replay {:.1} s, materialized {:.1} s",
        file_bytes as f64 / 1e6,
        config.baseline_count + config.green_count,
        synthesize.as_secs_f64(),
        streamed_replay.as_secs_f64(),
        materialized_replay.as_secs_f64(),
    );
    println!(
        "[ablation] peak RSS: after synth {:.0} MB, streamed {:.0} MB, materialized {:.0} MB \
         (streamed saves {:.0} MB)",
        rss_after_synth_kb as f64 / 1e3,
        rss_streamed_kb as f64 / 1e3,
        rss_materialized_kb as f64 / 1e3,
        (rss_materialized_kb - rss_streamed_kb) as f64 / 1e3,
    );

    let json = format!(
        "{{\n  \"bench\": \"ablation_streamed_trace\",\n  \"million\": {{\n    \"vms\": {},\n    \"events\": {},\n    \"file_bytes\": {},\n    \"servers\": {},\n    \"ms\": {{\n      \"synthesize\": {:.0},\n      \"streamed_replay\": {:.0},\n      \"materialized_replay\": {:.0}\n    }},\n    \"peak_rss_kb\": {{\n      \"after_synthesize\": {},\n      \"after_streamed\": {},\n      \"after_materialized\": {}\n    }},\n    \"streamed_peak_below_materialized\": {}\n  }}\n}}\n",
        vms,
        events,
        file_bytes,
        config.baseline_count + config.green_count,
        synthesize.as_secs_f64() * 1e3,
        streamed_replay.as_secs_f64() * 1e3,
        materialized_replay.as_secs_f64() * 1e3,
        rss_after_synth_kb,
        rss_streamed_kb,
        rss_materialized_kb,
        rss_streamed_kb < rss_materialized_kb,
    );
    print_summary(&json);
}

/// Ablation: fresh simulator per replay vs reset-reuse (what the sizing
/// binary searches do on every feasibility probe).
fn ablation_sim_reuse(c: &mut Criterion) {
    let prepared = PreparedTrace::new(&bench_trace(), &baseline_transform);
    let empty = FaultPlan::empty();
    let config = ClusterConfig::baseline_only(24);
    let mut group = c.benchmark_group("ablation_sim_reuse");
    group.bench_function("fresh_each_replay", |b| {
        b.iter(|| {
            let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);
            black_box(sim.replay_prepared_faulted(&prepared, &empty))
        })
    });
    group.bench_function("reset_reuse", |b| {
        let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);
        b.iter(|| {
            sim.reset(config);
            black_box(sim.replay_prepared_faulted(&prepared, &empty))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_placement_policy,
    ablation_fip_effectiveness,
    ablation_cxl_cards,
    ablation_des_vs_analytic,
    ablation_buffer_fraction,
    ablation_eval_cache,
    ablation_sharded_replay,
    ablation_streamed_trace,
    ablation_sim_reuse
);
criterion_main!(benches);
