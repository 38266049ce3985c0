//! Property-based tests over the cross-crate invariants DESIGN.md §6
//! calls out.

use greensku::carbon::component::{ComponentClass, ComponentSpec};
use greensku::carbon::units::{CarbonIntensity, KgCo2e, Watts};
use greensku::carbon::{CarbonModel, ModelParams, ServerSpec};
use greensku::perf::analytic::MmcQueue;
use greensku::perf::slowdown::slowdown_from_sensitivity;
use greensku::perf::{MemoryPlacement, SkuPerfProfile};
use greensku::stats::cdf::EmpiricalCdf;
use greensku::vmalloc::{
    AllocationSim, ClusterConfig, FaultPlan, PlacementPolicy, PlacementRequest, PreparedTrace,
    ServerState, VmArena,
};
use greensku::workloads::{
    decode_chunks, write_chunks, HardwareSensitivity, ServerGeneration, Trace, TraceChunkReader,
    TraceCodecError, TraceHasher, TraceStreamError, VmEvent, VmEventKind, VmSpec,
};
use proptest::prelude::*;

fn arb_server(cores: u32) -> impl Strategy<Value = ServerSpec> {
    (50.0..800.0f64, 100.0..3000.0f64).prop_map(move |(power, embodied)| {
        ServerSpec::builder("prop", cores, 2)
            .component(
                ComponentSpec::new(
                    "blob",
                    ComponentClass::Other,
                    1.0,
                    Watts::new(power),
                    KgCo2e::new(embodied),
                )
                .expect("valid ranges"),
            )
            .build()
            .expect("valid server")
    })
}

proptest! {
    #[test]
    fn carbon_emissions_monotone_in_intensity(
        server in arb_server(96),
        ci_lo in 0.0..0.3f64,
        delta in 0.01..0.5f64,
    ) {
        let at = |ci: f64| {
            CarbonModel::new(
                ModelParams::default_open_source()
                    .with_carbon_intensity(CarbonIntensity::new(ci)),
            )
            .assess(&server)
            .unwrap()
        };
        let a = at(ci_lo);
        let b = at(ci_lo + delta);
        prop_assert!(b.op_per_core() > a.op_per_core());
        prop_assert!((b.emb_per_core().get() - a.emb_per_core().get()).abs() < 1e-9);
    }

    #[test]
    fn identical_skus_have_zero_savings(server in arb_server(64)) {
        let model = CarbonModel::new(ModelParams::default_open_source());
        let s = model.savings(&server, &server).unwrap();
        prop_assert!(s.operational.abs() < 1e-12);
        prop_assert!(s.embodied.abs() < 1e-12);
        prop_assert!(s.total.abs() < 1e-12);
    }

    #[test]
    fn slowdown_at_least_one_on_weaker_hardware(
        freq_w in 0.0..1.5f64,
        // Working sets within Gen3's LLC budget (384 MiB socket,
        // 4.8 MiB/core) — beyond that even the reference SKU is
        // legitimately penalized and slowdowns are relative, not 1.
        sock_mib in 0.0..384.0f64,
        sock_w in 0.0..3.0f64,
        core_mib in 0.0..4.8f64,
        core_w in 0.0..3.0f64,
        bw in 0.0..5.0f64,
        cxl_w in 0.0..1.0f64,
        cxl_frac in 0.0..1.0f64,
    ) {
        let s = HardwareSensitivity {
            freq_weight: freq_w,
            socket_cache_mib: sock_mib,
            socket_cache_weight: sock_w,
            core_cache_mib: core_mib,
            core_cache_weight: core_w,
            mem_bandwidth_gbps_per_core: bw,
            cxl_latency_weight: cxl_w,
            cxl_naive_fraction: cxl_frac,
        };
        // Gen3 is the reference optimum: every modelled SKU is >= 1.
        for sku in [
            SkuPerfProfile::gen1(),
            SkuPerfProfile::gen2(),
            SkuPerfProfile::gen3(),
            SkuPerfProfile::greensku_efficient(),
            SkuPerfProfile::greensku_cxl(),
        ] {
            let v = slowdown_from_sensitivity(&s, &sku, MemoryPlacement::Naive);
            prop_assert!(v >= 1.0 - 1e-12, "{} -> {v}", sku.name);
        }
        // Gen3 itself is exactly 1 regardless of sensitivity.
        let g3 = slowdown_from_sensitivity(&s, &SkuPerfProfile::gen3(), MemoryPlacement::Naive);
        prop_assert!((g3 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mmc_latency_monotone_in_load(
        cores in 1u32..32,
        service_ms in 0.2..20.0f64,
        rho_lo in 0.05..0.8f64,
        bump in 0.01..0.15f64,
    ) {
        let capacity = f64::from(cores) * 1000.0 / service_ms;
        let q_lo = MmcQueue::new(cores, rho_lo * capacity, service_ms).unwrap();
        let q_hi = MmcQueue::new(cores, (rho_lo + bump) * capacity, service_ms).unwrap();
        prop_assert!(q_hi.mean_response_ms() >= q_lo.mean_response_ms());
        prop_assert!(q_hi.p95_response_ms() >= q_lo.p95_response_ms() - 1e-9);
    }

    #[test]
    fn allocator_conserves_vms(
        n_vms in 1usize..60,
        cluster in 1u32..6,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut vms = Vec::new();
        let mut events = Vec::new();
        for id in 0..n_vms as u64 {
            let cores = *[1u32, 2, 4, 8, 16].get(rng.gen_range(0..5)).unwrap();
            vms.push(VmSpec {
                id,
                cores,
                mem_gb: f64::from(cores) * 4.0,
                app_index: 0,
                generation: ServerGeneration::Gen3,
                full_node: false,
                max_mem_util: 0.5,
                avg_cpu_util: 0.2,
            });
            let t = rng.gen_range(0.0..500.0);
            events.push(VmEvent { time_s: t, kind: VmEventKind::Arrival, vm_id: id });
            events.push(VmEvent {
                time_s: t + rng.gen_range(1.0..500.0),
                kind: VmEventKind::Departure,
                vm_id: id,
            });
        }
        let trace = Trace::new(1100.0, vms, events);
        let mut sim = AllocationSim::new(
            ClusterConfig::baseline_only(cluster),
            PlacementPolicy::BestFit,
        );
        let prepared = PreparedTrace::new(&trace, &PlacementRequest::baseline_only);
        let (out, _) = sim.replay_prepared_faulted(&prepared, &FaultPlan::empty());
        // Every arrival is either placed or rejected, exactly once.
        prop_assert_eq!(out.placed_baseline + out.placed_green + out.rejected, n_vms);
        prop_assert_eq!(out.placed_green, 0);
        // Densities are valid fractions.
        let d = out.metrics.baseline.mean_core_density();
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn trace_codec_roundtrip(
        // The chunk writer and `Trace::try_new` (the decode gate) both
        // reject empty VM lists, so the roundtrip property quantifies
        // over non-empty traces; the empty case is pinned by
        // `empty_trace_fails_decode` below.
        n_vms in 1usize..40,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut vms = Vec::new();
        let mut events = Vec::new();
        for id in 0..n_vms as u64 {
            vms.push(VmSpec {
                id,
                cores: rng.gen_range(1..64),
                mem_gb: rng.gen_range(1.0..512.0),
                app_index: rng.gen_range(0..20),
                generation: *[
                    ServerGeneration::Gen1,
                    ServerGeneration::Gen2,
                    ServerGeneration::Gen3,
                ]
                .get(rng.gen_range(0..3))
                .unwrap(),
                full_node: rng.gen_bool(0.05),
                max_mem_util: rng.gen_range(0.05..1.0),
                avg_cpu_util: rng.gen_range(0.01..1.0),
            });
            let t = rng.gen_range(0.0..100.0);
            events.push(VmEvent { time_s: t, kind: VmEventKind::Arrival, vm_id: id });
            events.push(VmEvent {
                time_s: t + rng.gen_range(0.1..100.0),
                kind: VmEventKind::Departure,
                vm_id: id,
            });
        }
        let trace = Trace::new(250.0, vms, events);
        let mut raw = Vec::new();
        write_chunks(&trace, &mut raw, 1 + seed as usize % 64).unwrap();
        prop_assert_eq!(trace, decode_chunks(&raw[..]).unwrap());
    }

    #[test]
    fn cdf_eval_monotone(samples in prop::collection::vec(-100.0..100.0f64, 0..100)) {
        let cdf = EmpiricalCdf::from_samples(samples);
        let mut prev = 0.0;
        for i in -20..=20 {
            let x = f64::from(i) * 5.0;
            let y = cdf.eval(x);
            prop_assert!((0.0..=1.0).contains(&y));
            prop_assert!(y >= prev);
            prev = y;
        }
    }

    #[test]
    fn arena_storage_consistent_under_random_ops(
        ops in prop::collection::vec((0u8..5, 0usize..4, 0u64..40), 1..120),
    ) {
        use greensku::vmalloc::server::PlacedVm;
        use greensku::vmalloc::ServerShape;

        // Drive a shared arena through random place / remove / fail /
        // degrade / reset sequences and check the DESIGN.md §13
        // storage invariants after every step: per-server occupancy
        // sums to the arena's live count, and each server's
        // cores/mem aggregates match a fold over its arena slots.
        let shape = ServerShape { cores: 16, mem_gb: 128.0 };
        let mut arena = VmArena::new();
        let mut servers = vec![ServerState::new(shape); 4];
        let mut scratch = Vec::new();
        for &(op, si, vm_id) in &ops {
            let s = &mut servers[si];
            match op {
                0 | 1 => {
                    // Place: skip ids already resident on this server
                    // (place() treats duplicates as a scheduler bug)
                    // and requests that do not fit.
                    let cores = 1 + u32::try_from(vm_id % 7).unwrap();
                    let vm = PlacedVm {
                        cores,
                        mem_gb: f64::from(cores) * 7.5,
                        max_mem_util: 0.5,
                    };
                    if s.fits(vm.cores, vm.mem_gb)
                        && s.remove(&mut arena, vm_id).is_none()
                    {
                        s.place(&mut arena, vm_id, vm);
                    }
                }
                2 => {
                    s.remove(&mut arena, vm_id);
                }
                3 => {
                    scratch.clear();
                    if vm_id % 3 == 0 {
                        s.fail(&mut arena, &mut scratch);
                        // A failed server is repairable: model the
                        // return-to-service reset on pristine shape.
                        s.reset(shape);
                    } else {
                        s.degrade(&mut arena, 3, 24.0, &mut scratch);
                    }
                }
                _ => {
                    // Full-cluster reset: every occupancy list and the
                    // arena restart empty together.
                    for srv in &mut servers {
                        srv.reset(shape);
                    }
                    arena.reset();
                }
            }
            let occupancy: usize = servers.iter().map(ServerState::vm_count).sum();
            prop_assert_eq!(occupancy, arena.live());
            for srv in &servers {
                prop_assert!(srv.storage_consistent(&arena));
            }
        }
    }

    #[test]
    fn rack_packing_monotone_in_power(
        base_power in 100.0..1000.0f64,
        extra in 1.0..500.0f64,
    ) {
        use greensku::carbon::rack::RackFill;
        use greensku::carbon::params::RackParams;
        let server = |p: f64| {
            ServerSpec::builder("s", 64, 1)
                .component(
                    ComponentSpec::new(
                        "c",
                        ComponentClass::Other,
                        1.0,
                        Watts::new(p),
                        KgCo2e::new(100.0),
                    )
                    .unwrap(),
                )
                .build()
                .unwrap()
        };
        let params = RackParams::open_source();
        let lo = RackFill::pack(&server(base_power), &params).unwrap();
        let hi = RackFill::pack(&server(base_power + extra), &params).unwrap();
        prop_assert!(hi.servers() <= lo.servers());
    }
}

#[test]
fn empty_trace_fails_decode() {
    // The writer refuses to store a trace without VMs ...
    let empty = Trace::new(250.0, vec![], vec![]);
    assert!(write_chunks(&empty, Vec::new(), 64).is_err());
    // ... and the reader, which the streamed pipeline trusts without
    // `Trace::try_new`, refuses a hand-made stream of one: the header
    // (magic, version 1, horizon), then a footer whose totals and
    // digest are those of no VMs and no events.
    let mut raw = 0x6753_5443u32.to_be_bytes().to_vec();
    raw.extend_from_slice(&1u16.to_be_bytes());
    raw.extend_from_slice(&250f64.to_bits().to_be_bytes());
    raw.push(0);
    raw.extend_from_slice(&[0; 16]);
    let (a, b) = TraceHasher::new().digest(250.0);
    raw.extend_from_slice(&a.to_be_bytes());
    raw.extend_from_slice(&b.to_be_bytes());
    let mut reader = TraceChunkReader::new(&raw[..]).unwrap();
    assert!(matches!(
        reader.next_chunk(),
        Err(TraceStreamError::Codec(TraceCodecError::Corrupt("trace has no VMs")))
    ));
}
