//! Mutation suite over the chunked trace format: every truncation and
//! every single-bit flip of a small `write_chunks` file must end in a
//! typed `TraceStreamError`, from the materializing decoder and from
//! the streamed `PreparedTrace` builder alike, and never in a panic.
//!
//! The builder indexes its per-VM shape table by each event's slot, so
//! a slot the reader had not validated would panic there; the suite
//! pins that the reader checks every byte before the builder sees it.

use gsf_vmalloc::{PlacementRequest, PreparedTrace};
use gsf_workloads::{
    decode_chunks, write_chunks, ServerGeneration, Trace, TraceChunkReader, TraceStreamError,
    VmEvent, VmEventKind, VmSpec,
};

/// A small file in chunks of two records: sparse ids listed out of id
/// order, every server generation's discriminant, a full-node VM, a VM
/// that never arrives, a re-arrival, and a VM resident to the horizon.
fn sample_file() -> Vec<u8> {
    let vm = |id: u64, cores: u32, generation, full_node| VmSpec {
        id,
        cores,
        mem_gb: f64::from(cores) * 4.0,
        app_index: (id % 7) as u16,
        generation,
        full_node,
        max_mem_util: 0.5,
        avg_cpu_util: 0.2,
    };
    let event = |time_s: f64, kind, vm_id| VmEvent { time_s, kind, vm_id };
    let (arrive, depart) = (VmEventKind::Arrival, VmEventKind::Departure);
    let trace = Trace::new(
        900.0,
        vec![
            vm(1040, 8, ServerGeneration::Gen3, false),
            vm(1007, 80, ServerGeneration::Gen2, true),
            vm(1021, 2, ServerGeneration::Gen1, false),
            vm(1000, 4, ServerGeneration::Gen3, false),
        ],
        vec![
            event(10.0, arrive, 1007),
            event(20.0, arrive, 1040),
            event(30.0, depart, 1007),
            event(30.0, arrive, 1000),
            event(45.5, depart, 1000),
            event(60.0, arrive, 1000),
            event(700.0, depart, 1040),
        ],
    );
    let mut file = Vec::new();
    write_chunks(&trace, &mut file, 2).unwrap_or_else(|e| panic!("sample trace rejected: {e}"));
    file
}

/// What the decoder and the streamed builder make of `bytes`.
fn consume(bytes: &[u8]) -> [Result<(), TraceStreamError>; 2] {
    let decoded = decode_chunks(bytes).map(drop);
    let prepared = TraceChunkReader::new(bytes).and_then(|mut reader| {
        let routed = |vm: &VmSpec| PlacementRequest::prefer_green(vm, 1.25);
        PreparedTrace::from_chunk_stream(&mut reader, [&routed]).map(drop)
    });
    [decoded, prepared]
}

/// Asserts both consumers reject `bytes` with a typed codec error.
fn assert_rejected(variant: &str, bytes: &[u8]) {
    let verdicts = std::panic::catch_unwind(|| consume(bytes))
        .unwrap_or_else(|_| panic!("{variant}: a consumer panicked"));
    for verdict in verdicts {
        assert!(matches!(verdict, Err(TraceStreamError::Codec(_))), "{variant}: {verdict:?}");
    }
}

#[test]
fn the_unmutated_file_is_accepted() {
    for verdict in consume(&sample_file()) {
        assert!(verdict.is_ok(), "{verdict:?}");
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let file = sample_file();
    for len in 0..file.len() {
        assert_rejected(&format!("truncated to {len} of {} bytes", file.len()), &file[..len]);
    }
}

#[test]
fn every_bit_flip_is_a_typed_error() {
    let file = sample_file();
    for byte in 0..file.len() {
        for bit in 0..8 {
            let mut flipped = file.clone();
            flipped[byte] ^= 1 << bit;
            assert_rejected(&format!("bit {bit} of byte {byte} flipped"), &flipped);
        }
    }
}
