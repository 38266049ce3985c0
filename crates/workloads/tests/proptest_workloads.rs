//! Property tests for workload and trace generation.

use gsf_stats::rng::SeedFactory;
use gsf_workloads::{decode_chunks, write_chunks, TraceGenerator, TraceParams, VmEventKind};
use proptest::prelude::*;

fn params(arrivals: f64, hours: f64, diurnal: f64, full_node: f64) -> TraceParams {
    TraceParams {
        duration_hours: hours,
        arrivals_per_hour: arrivals,
        diurnal_amplitude: diurnal,
        full_node_fraction: full_node,
        ..TraceParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn traces_are_well_formed(
        arrivals in 5.0..120.0f64,
        hours in 2.0..48.0f64,
        diurnal in 0.0..0.9f64,
        full_node in 0.0..0.05f64,
        seed in 0u64..500,
    ) {
        let g = TraceGenerator::new(params(arrivals, hours, diurnal, full_node));
        let trace = g.generate(&SeedFactory::new(seed), 0);
        // Every VM valid; exactly one arrival + one departure each,
        // ordered, inside the horizon.
        let mut arrived = std::collections::HashSet::new();
        let mut departed = std::collections::HashSet::new();
        let mut last_t = 0.0;
        for e in trace.events() {
            prop_assert!(e.time_s >= last_t - 1e-9, "events sorted");
            last_t = e.time_s;
            prop_assert!(e.time_s >= 0.0 && e.time_s <= trace.duration_s());
            match e.kind {
                VmEventKind::Arrival => prop_assert!(arrived.insert(e.vm_id)),
                VmEventKind::Departure => {
                    prop_assert!(arrived.contains(&e.vm_id));
                    prop_assert!(departed.insert(e.vm_id));
                }
            }
        }
        prop_assert_eq!(arrived.len(), trace.vms().len());
        prop_assert_eq!(departed.len(), trace.vms().len());
        for vm in trace.vms() {
            prop_assert!(vm.is_valid(), "{vm:?}");
        }
    }

    #[test]
    fn codec_roundtrips_generated_traces(
        arrivals in 5.0..60.0f64,
        seed in 0u64..500,
        index in 0u64..8,
    ) {
        let g = TraceGenerator::new(params(arrivals, 6.0, 0.3, 0.01));
        let trace = g.generate(&SeedFactory::new(seed), index);
        // Encode → decode → encode is bitwise stable at an arbitrary
        // chunk size.
        let chunk_events = 1 + (seed as usize % 3000);
        let mut chunked = Vec::new();
        let digest = write_chunks(&trace, &mut chunked, chunk_events).unwrap();
        let from_chunks = decode_chunks(&chunked[..]).unwrap();
        let mut reencoded = Vec::new();
        write_chunks(&from_chunks, &mut reencoded, chunk_events).unwrap();
        prop_assert_eq!(&chunked, &reencoded);
        prop_assert_eq!(&trace, &from_chunks);
        // The streamed digest is the in-memory content hash.
        prop_assert_eq!(digest, trace.content_hash());
    }

    #[test]
    fn streamed_synthesis_equals_in_memory_generation(
        arrivals in 5.0..80.0f64,
        hours in 2.0..24.0f64,
        diurnal in 0.0..0.8f64,
        seed in 0u64..300,
        chunk_events in 1usize..4096,
    ) {
        let g = TraceGenerator::new(params(arrivals, hours, diurnal, 0.01));
        let seeds = SeedFactory::new(seed);
        let in_memory = g.generate(&seeds, 0);
        let mut buf = Vec::new();
        let digest = g.synthesize_streamed(&seeds, 0, &mut buf, chunk_events).unwrap();
        let decoded = decode_chunks(&buf[..]).unwrap();
        prop_assert_eq!(&in_memory, &decoded);
        prop_assert_eq!(digest, in_memory.content_hash());
    }

    #[test]
    fn peak_demand_bounds_any_instant(
        arrivals in 5.0..60.0f64,
        seed in 0u64..200,
    ) {
        let g = TraceGenerator::new(params(arrivals, 8.0, 0.0, 0.01));
        let trace = g.generate(&SeedFactory::new(seed), 0);
        let (peak_cores, peak_mem) = trace.peak_demand();
        // Recompute concurrency at event granularity and verify the
        // reported peak is an upper bound reached at least once.
        let mut cores = 0i64;
        let mut mem = 0.0;
        let mut seen_core_peak = false;
        for e in trace.events() {
            let vm = trace.vm(e.vm_id).unwrap();
            match e.kind {
                VmEventKind::Arrival => {
                    cores += i64::from(vm.cores);
                    mem += vm.mem_gb;
                }
                VmEventKind::Departure => {
                    cores -= i64::from(vm.cores);
                    mem -= vm.mem_gb;
                }
            }
            prop_assert!(cores as u64 <= peak_cores);
            prop_assert!(mem <= peak_mem + 1e-6);
            if cores as u64 == peak_cores {
                seen_core_peak = true;
            }
        }
        prop_assert!(seen_core_peak || trace.vms().is_empty());
    }

    #[test]
    fn distinct_indices_give_distinct_traces(
        seed in 0u64..200,
        i in 0u64..4,
        j in 5u64..9,
    ) {
        let g = TraceGenerator::new(params(30.0, 6.0, 0.0, 0.0));
        let a = g.generate(&SeedFactory::new(seed), i);
        let b = g.generate(&SeedFactory::new(seed), j);
        prop_assert_ne!(a, b);
    }
}

// The decoder is every trace file's only way in, so it gets the default
// 256 cases rather than the 32 above.
proptest! {
    #[test]
    fn decoder_rejects_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        // Fuzz the codec: any byte soup must yield Err, never a panic.
        prop_assert!(decode_chunks(&bytes[..]).is_err());
    }

    #[test]
    fn decoder_rejects_any_overwritten_byte(
        arrivals in 5.0..30.0f64,
        seed in 0u64..100,
        chunk_events in 1usize..64,
        at in any::<usize>(),
        value in any::<u8>(),
    ) {
        let g = TraceGenerator::new(params(arrivals, 4.0, 0.0, 0.0));
        let trace = g.generate(&SeedFactory::new(seed), 0);
        let mut raw = Vec::new();
        write_chunks(&trace, &mut raw, chunk_events).unwrap();
        // Overwrite one byte anywhere in the file: a changed byte must
        // fail typed, an unchanged one must decode to the same trace.
        let i = at % raw.len();
        let changed = raw[i] != value;
        raw[i] = value;
        match decode_chunks(&raw[..]) {
            Ok(decoded) => {
                prop_assert!(!changed, "byte {i} of {} set to {value:#04x} decoded", raw.len());
                prop_assert_eq!(&decoded, &trace);
            }
            Err(e) => prop_assert!(changed, "unchanged file failed: {e}"),
        }
    }
}
