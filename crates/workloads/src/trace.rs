//! VM trace container, its validating constructor and its content hash.
//!
//! Traces can be large (tens of thousands of VMs × 35 cluster traces).
//! On disk they take one format, the chunked stream of [`crate::chunks`];
//! in memory a trace is identified by [`Trace::content_hash`], which the
//! `EvalContext` caches key on and every chunk of a stream carries a
//! running copy of.

use crate::vm::{ServerGeneration, VmEvent, VmEventKind, VmSpec};
use std::fmt;

/// The first word [`TraceHasher::digest`] absorbs. It packs the magic
/// ("GSTG") and version of a single-blob codec that has since been
/// retired, so the value is kept as it was: changing it changes every
/// content hash, and with them every cache key, the benchmark's pinned
/// digests and the digests stored inside every chunked file on disk.
const HASH_TAG: u64 = 0x6753_5447 << 16 | 2;

/// A VM arrival/departure trace over a fixed horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    duration_s: f64,
    vms: Vec<VmSpec>,
    events: Vec<VmEvent>,
}

/// Errors decoding a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCodecError {
    /// Buffer too short or truncated mid-record.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported codec version.
    BadVersion(u16),
    /// A decoded enum discriminant was out of range.
    BadDiscriminant(u8),
    /// Structurally valid but semantically corrupt data (non-finite
    /// times, events referencing unknown VMs).
    Corrupt(&'static str),
    /// A record count exceeds the codec's `u32` length fields; encoding
    /// would silently truncate the count and produce a buffer that
    /// decodes "successfully" into a different trace.
    TooLarge(&'static str),
}

impl fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceCodecError::Truncated => write!(f, "trace file truncated"),
            TraceCodecError::BadMagic => {
                write!(f, "not a chunked GSF trace file (wrong magic bytes)")
            }
            TraceCodecError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceCodecError::BadDiscriminant(d) => {
                write!(f, "invalid enum discriminant {d} in trace file")
            }
            TraceCodecError::Corrupt(what) => write!(f, "corrupt trace file: {what}"),
            TraceCodecError::TooLarge(what) => {
                write!(f, "trace too large to encode: {what} count exceeds u32")
            }
        }
    }
}

impl std::error::Error for TraceCodecError {}

impl Trace {
    /// Creates a trace from VMs and events.
    ///
    /// Events are sorted by time (departures before arrivals at exactly
    /// equal timestamps, so a freed slot can be reused).
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if an event references an unknown VM id.
    pub fn new(duration_s: f64, vms: Vec<VmSpec>, mut events: Vec<VmEvent>) -> Self {
        #[cfg(debug_assertions)]
        {
            let ids: std::collections::BTreeSet<u64> = vms.iter().map(|v| v.id).collect();
            for e in &events {
                debug_assert!(ids.contains(&e.vm_id), "event references unknown VM {}", e.vm_id);
            }
        }
        events.sort_by(|a, b| {
            a.time_s
                .total_cmp(&b.time_s)
                .then_with(|| departure_first(a.kind).cmp(&departure_first(b.kind)))
        });
        Self { duration_s, vms, events }
    }

    /// Validating constructor for externally-sourced traces (file
    /// loading, decoding): rejects non-finite or negative numbers, empty
    /// VM lists, and events referencing unknown VMs, instead of letting
    /// them poison a replay later.
    ///
    /// # Errors
    ///
    /// Returns [`TraceCodecError::Corrupt`] describing the first failed
    /// check.
    pub fn try_new(
        duration_s: f64,
        vms: Vec<VmSpec>,
        events: Vec<VmEvent>,
    ) -> Result<Self, TraceCodecError> {
        if !duration_s.is_finite() || duration_s < 0.0 {
            return Err(TraceCodecError::Corrupt("duration is not a finite non-negative number"));
        }
        if vms.is_empty() {
            return Err(TraceCodecError::Corrupt("trace has no VMs"));
        }
        for vm in &vms {
            validate_vm(vm)?;
        }
        let ids: std::collections::BTreeSet<u64> = vms.iter().map(|v| v.id).collect();
        if ids.len() != vms.len() {
            return Err(TraceCodecError::Corrupt("duplicate VM ids"));
        }
        for e in &events {
            if !e.time_s.is_finite() {
                return Err(TraceCodecError::Corrupt("event time is not finite"));
            }
            if e.time_s < 0.0 {
                return Err(TraceCodecError::Corrupt("event time is negative"));
            }
            if !ids.contains(&e.vm_id) {
                return Err(TraceCodecError::Corrupt("event references an unknown VM"));
            }
        }
        // The replay fault-merge loop assumes time-sorted events.
        // `Trace::new` would silently sort, but an externally-sourced
        // trace arriving unsorted is evidence of corruption (the codec
        // always writes sorted events), so reject rather than repair.
        if events.windows(2).any(|w| w[1].time_s < w[0].time_s) {
            return Err(TraceCodecError::Corrupt("events are not time-sorted"));
        }
        Ok(Self::new(duration_s, vms, events))
    }

    /// Trace horizon in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// All VMs referenced by the trace.
    pub fn vms(&self) -> &[VmSpec] {
        &self.vms
    }

    /// Time-sorted events.
    pub fn events(&self) -> &[VmEvent] {
        &self.events
    }

    /// Each event's VM slot (its index in [`Self::vms`]), in event
    /// order. An id stored at its own index resolves in O(1); any other
    /// id through one id-sorted table, built on the first such event —
    /// never through the linear scan of [`Self::vm`], so traces with
    /// opaque ids resolve in O(events · log VMs).
    ///
    /// # Panics
    ///
    /// The iterator panics at an event whose VM id is missing from the
    /// trace's VM table (generated and decoded traces are always
    /// self-consistent).
    pub fn event_slots(&self) -> impl Iterator<Item = u32> + '_ {
        let mut by_id: Vec<(u64, u32)> = Vec::new();
        self.events.iter().map(move |e| {
            if self.vms.get(e.vm_id as usize).is_some_and(|vm| vm.id == e.vm_id) {
                return e.vm_id as u32;
            }
            if by_id.is_empty() {
                by_id = self.vms.iter().enumerate().map(|(i, vm)| (vm.id, i as u32)).collect();
                by_id.sort_unstable();
            }
            let i = by_id
                .binary_search_by_key(&e.vm_id, |&(id, _)| id)
                .expect("trace events reference known VMs");
            by_id[i].1
        })
    }

    /// Looks up a VM by id (ids are dense in generated traces, but the
    /// lookup does not assume it).
    pub fn vm(&self, id: u64) -> Option<&VmSpec> {
        // Generated traces use dense ids; try O(1) first.
        if let Some(vm) = self.vms.get(id as usize) {
            if vm.id == id {
                return Some(vm);
            }
        }
        self.vms.iter().find(|v| v.id == id)
    }

    /// Peak concurrent demand over the trace, in (cores, memory GB) —
    /// a lower bound on the cluster capacity needed.
    ///
    /// # Panics
    ///
    /// Panics if an event references a VM id missing from the trace's
    /// VM table (generated traces are always self-consistent).
    pub fn peak_demand(&self) -> (u64, f64) {
        let mut cores = 0i64;
        let mut mem = 0.0f64;
        let mut peak_cores = 0i64;
        let mut peak_mem = 0.0f64;
        for (e, slot) in self.events.iter().zip(self.event_slots()) {
            let vm = &self.vms[slot as usize];
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
            peak_cores = peak_cores.max(cores);
            peak_mem = peak_mem.max(mem);
        }
        (peak_cores.max(0) as u64, peak_mem.max(0.0))
    }

    /// A 128-bit structural content hash over every field of the trace,
    /// computed without encoding it. Two traces hash equal iff they are
    /// identical field for field (floats compare by bit pattern), which
    /// is also when their chunked encodings at one chunk size are, so
    /// the hash stands in for the trace wherever only identity matters
    /// — the `EvalContext` caches in `gsf-core` key on it instead of
    /// embedding O(trace) bytes into every cache entry.
    ///
    /// The digest is defined by [`TraceHasher`], which absorbs one word
    /// per field and can therefore be fed incrementally from a chunked
    /// stream (see [`crate::chunks`]) and still produce the same value.
    pub fn content_hash(&self) -> (u64, u64) {
        let mut h = TraceHasher::new();
        for vm in &self.vms {
            h.push_vm(vm);
        }
        for e in &self.events {
            h.push_event(e.time_s, e.kind, e.vm_id);
        }
        h.digest(self.duration_s)
    }
}

/// Checks a single VM record for the invariants `try_new` demands of
/// externally-sourced traces; shared with the chunked codec so streamed
/// VMs face the same gate without materializing a [`Trace`].
pub(crate) fn validate_vm(vm: &VmSpec) -> Result<(), TraceCodecError> {
    if vm.cores == 0 {
        // A zero-core VM poisons replay later: the green-scaled
        // request divides by `cores`, yielding NaN memory and a
        // zero-core placement.
        return Err(TraceCodecError::Corrupt("VM has zero cores"));
    }
    if !vm.mem_gb.is_finite() || vm.mem_gb < 0.0 {
        return Err(TraceCodecError::Corrupt("VM memory is not finite non-negative"));
    }
    if !vm.max_mem_util.is_finite()
        || vm.max_mem_util < 0.0
        || !vm.avg_cpu_util.is_finite()
        || vm.avg_cpu_util < 0.0
    {
        return Err(TraceCodecError::Corrupt("VM utilization is not finite non-negative"));
    }
    Ok(())
}

/// Narrows a record count to the codec's `u32` length fields, refusing
/// (rather than truncating) counts that do not fit.
pub(crate) fn ensure_u32(n: usize, what: &'static str) -> Result<u32, TraceCodecError> {
    u32::try_from(n).map_err(|_| TraceCodecError::TooLarge(what))
}

/// Wire discriminant for a server generation (shared by the chunked
/// codec and the content hash).
pub(crate) fn generation_code(generation: ServerGeneration) -> u8 {
    match generation {
        ServerGeneration::Gen1 => 1,
        ServerGeneration::Gen2 => 2,
        ServerGeneration::Gen3 => 3,
    }
}

/// Wire discriminant for an event kind (0 = arrival, 1 = departure).
pub(crate) fn kind_code(kind: VmEventKind) -> u8 {
    match kind {
        VmEventKind::Arrival => 0,
        VmEventKind::Departure => 1,
    }
}

/// Incremental form of [`Trace::content_hash`]: push VMs and events one
/// at a time (in trace order) and ask for the digest at any point.
///
/// The digest over a prefix equals `Trace::content_hash` of the trace
/// holding exactly that prefix, so a chunked stream can both carry
/// per-chunk running hashes and arrive at the same final value as the
/// in-memory path — the property the `EvalContext` caches rely on to
/// share entries between streamed and materialized evaluations.
///
/// Every field is absorbed as its own `u64` word. Packing several
/// narrow fields into one word (as an earlier revision did with
/// `vms.len() << 32 | events.len()`) lets values past their lane width
/// bleed into neighboring fields and collide; one word per field makes
/// the absorbed stream injective in the field values.
///
/// VMs and events are hashed into two independent lane pairs so the
/// digest does not depend on how pushes interleave with each other —
/// only on the VM sequence, the event sequence, and the duration. A
/// final combiner absorbs the format tag, duration, both counts, and
/// the four lane words.
#[derive(Debug, Clone)]
pub struct TraceHasher {
    vm_lane: ContentHasher,
    event_lane: ContentHasher,
    n_vms: u64,
    n_events: u64,
}

impl TraceHasher {
    /// Creates an empty hasher.
    pub fn new() -> Self {
        Self {
            vm_lane: ContentHasher::new(),
            event_lane: ContentHasher::new(),
            n_vms: 0,
            n_events: 0,
        }
    }

    /// Absorbs one VM record (call in [`Trace::vms`] order).
    pub fn push_vm(&mut self, vm: &VmSpec) {
        self.vm_lane.absorb(vm.id);
        self.vm_lane.absorb(u64::from(vm.cores));
        self.vm_lane.absorb(u64::from(vm.app_index));
        self.vm_lane.absorb(u64::from(generation_code(vm.generation)));
        self.vm_lane.absorb(u64::from(vm.full_node));
        self.vm_lane.absorb(vm.mem_gb.to_bits());
        self.vm_lane.absorb(vm.max_mem_util.to_bits());
        self.vm_lane.absorb(vm.avg_cpu_util.to_bits());
        self.n_vms += 1;
    }

    /// Absorbs one event (call in [`Trace::events`] order).
    pub fn push_event(&mut self, time_s: f64, kind: VmEventKind, vm_id: u64) {
        self.event_lane.absorb(time_s.to_bits());
        self.event_lane.absorb(u64::from(kind_code(kind)));
        self.event_lane.absorb(vm_id);
        self.n_events += 1;
    }

    /// Number of VMs absorbed so far.
    pub fn vms_pushed(&self) -> u64 {
        self.n_vms
    }

    /// Number of events absorbed so far.
    pub fn events_pushed(&self) -> u64 {
        self.n_events
    }

    /// The 128-bit digest of everything pushed so far, for a trace of
    /// horizon `duration_s`. Non-destructive: the hasher can keep
    /// absorbing afterwards, so chunk writers take a running digest per
    /// chunk and one final digest from a single hasher.
    pub fn digest(&self, duration_s: f64) -> (u64, u64) {
        let (va, vb) = self.vm_lane.finish();
        let (ea, eb) = self.event_lane.finish();
        let mut h = ContentHasher::new();
        h.absorb(HASH_TAG);
        h.absorb(duration_s.to_bits());
        h.absorb(self.n_vms);
        h.absorb(self.n_events);
        h.absorb(va);
        h.absorb(vb);
        h.absorb(ea);
        h.absorb(eb);
        h.finish()
    }
}

impl Default for TraceHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Streaming 128-bit hasher behind [`TraceHasher`]: two independent
/// multiply-rotate lanes absorbing one `u64` word at a time. Not
/// cryptographic — it only needs to make accidental collisions between
/// distinct traces vanishingly unlikely for cache keying, and to change
/// whenever any encoded field changes.
#[derive(Debug, Clone, Copy)]
struct ContentHasher {
    a: u64,
    b: u64,
}

impl ContentHasher {
    fn new() -> Self {
        // Fractional bits of sqrt(2) and sqrt(3): arbitrary distinct
        // non-zero lane seeds.
        Self { a: 0x6A09_E667_F3BC_C908, b: 0xBB67_AE85_84CA_A73B }
    }

    fn absorb(&mut self, word: u64) {
        self.a = (self.a ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27);
        self.b =
            (self.b ^ word.rotate_left(32)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F).rotate_left(31);
    }

    fn finish(&self) -> (u64, u64) {
        // splitmix64-style finalizers so trailing zero words still
        // avalanche into every output bit.
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        (mix(self.a ^ self.b.rotate_left(17)), mix(self.b ^ self.a.rotate_left(43)))
    }
}

/// Sort key putting departures before arrivals at equal timestamps.
fn departure_first(kind: VmEventKind) -> u8 {
    match kind {
        VmEventKind::Departure => 0,
        VmEventKind::Arrival => 1,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::chunks::{decode_chunks, write_chunks};

    /// The trace's chunked encoding, two events to a chunk.
    fn encode(t: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_chunks(t, &mut buf, 2).unwrap();
        buf
    }

    fn vm(id: u64, cores: u32) -> VmSpec {
        VmSpec {
            id,
            cores,
            mem_gb: cores as f64 * 4.0,
            app_index: 3,
            generation: ServerGeneration::Gen2,
            full_node: false,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        }
    }

    fn sample_trace() -> Trace {
        Trace::new(
            3600.0,
            vec![vm(0, 4), vm(1, 8)],
            vec![
                VmEvent { time_s: 10.0, kind: VmEventKind::Arrival, vm_id: 0 },
                VmEvent { time_s: 20.0, kind: VmEventKind::Arrival, vm_id: 1 },
                VmEvent { time_s: 100.0, kind: VmEventKind::Departure, vm_id: 0 },
            ],
        )
    }

    #[test]
    fn vm_lookup_handles_dense_but_permuted_ids() {
        // Regression: the O(1) fast path `vms[id]` must verify the
        // record's id before trusting it. With dense-but-permuted ids
        // (decoded traces preserve file order, which need not be id
        // order), the unguarded fast path returned the *wrong VM's*
        // spec — silently corrupting peak-demand and replay accounting.
        let t = Trace::new(
            100.0,
            vec![vm(1, 8), vm(0, 4)], // dense ids, out of order
            vec![
                VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: 0 },
                VmEvent { time_s: 2.0, kind: VmEventKind::Arrival, vm_id: 1 },
            ],
        );
        assert_eq!(t.vm(0).unwrap().cores, 4);
        assert_eq!(t.vm(1).unwrap().cores, 8);
        assert!(t.vm(2).is_none());
        // Sparse ids fall back to the linear scan.
        let sparse = Trace::new(
            100.0,
            vec![vm(7, 2)],
            vec![VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: 7 }],
        );
        assert_eq!(sparse.vm(7).unwrap().cores, 2);
        assert!(sparse.vm(0).is_none());
    }

    #[test]
    fn events_sorted_with_departures_first_on_tie() {
        let t = Trace::new(
            100.0,
            vec![vm(0, 4), vm(1, 8)],
            vec![
                VmEvent { time_s: 50.0, kind: VmEventKind::Arrival, vm_id: 1 },
                VmEvent { time_s: 50.0, kind: VmEventKind::Departure, vm_id: 0 },
                VmEvent { time_s: 10.0, kind: VmEventKind::Arrival, vm_id: 0 },
            ],
        );
        assert_eq!(t.events()[0].time_s, 10.0);
        assert_eq!(t.events()[1].kind, VmEventKind::Departure);
        assert_eq!(t.events()[2].kind, VmEventKind::Arrival);
    }

    #[test]
    fn content_hash_is_stable_across_clone_and_codec() {
        let t = sample_trace();
        let h = t.content_hash();
        assert_eq!(h, t.content_hash(), "hashing is pure");
        assert_eq!(h, t.clone().content_hash());
        assert_eq!(h, decode_chunks(&encode(&t)[..]).unwrap().content_hash());
        assert_ne!(h, (0, 0));
    }

    #[test]
    fn content_hash_is_pinned() {
        // Cache keys, the benchmark's pinned digests and the digests
        // inside every chunked file on disk are all this function's
        // output: any change to the hash tag or the absorbed words
        // shows here first.
        assert_eq!(sample_trace().content_hash(), (0x9dac_8e7e_b9bc_41a4, 0x8174_6180_266b_3ef4));
    }

    #[test]
    fn incremental_hash_matches_in_memory_and_prefixes() {
        let t = sample_trace();
        let mut h = TraceHasher::new();
        for vm in t.vms() {
            h.push_vm(vm);
        }
        // Digest over the VM-only prefix equals the hash of the trace
        // holding exactly that prefix.
        assert_eq!(
            h.digest(t.duration_s()),
            Trace::new(t.duration_s(), t.vms().to_vec(), vec![]).content_hash()
        );
        for e in t.events() {
            h.push_event(e.time_s, e.kind, e.vm_id);
        }
        assert_eq!(h.digest(t.duration_s()), t.content_hash());
        assert_eq!(h.vms_pushed(), t.vms().len() as u64);
        assert_eq!(h.events_pushed(), t.events().len() as u64);
    }

    #[test]
    fn content_hash_distinguishes_every_field() {
        let base = sample_trace();
        let h0 = base.content_hash();
        let mut variants: Vec<Trace> = Vec::new();

        // Duration.
        variants.push(Trace::new(3601.0, base.vms.clone(), base.events.clone()));
        // Each scalar VM field, one at a time.
        let mutate_vm = |f: &dyn Fn(&mut VmSpec)| {
            let mut vms = base.vms.clone();
            f(&mut vms[0]);
            Trace::new(base.duration_s, vms, base.events.clone())
        };
        variants.push(mutate_vm(&|v| v.cores += 1));
        variants.push(mutate_vm(&|v| v.mem_gb += 0.5));
        variants.push(mutate_vm(&|v| v.app_index += 1));
        variants.push(mutate_vm(&|v| v.generation = ServerGeneration::Gen3));
        variants.push(mutate_vm(&|v| v.full_node = true));
        variants.push(mutate_vm(&|v| v.max_mem_util += 0.1));
        variants.push(mutate_vm(&|v| v.avg_cpu_util += 0.1));
        // Event time, kind, and target.
        let mutate_event = |f: &dyn Fn(&mut VmEvent)| {
            let mut events = base.events.clone();
            f(&mut events[2]);
            Trace::new(base.duration_s, base.vms.clone(), events)
        };
        variants.push(mutate_event(&|e| e.time_s += 1.0));
        variants.push(mutate_event(&|e| e.kind = VmEventKind::Arrival));
        variants.push(mutate_event(&|e| e.vm_id = 1));
        // Dropping an event entirely.
        variants.push(Trace::new(base.duration_s, base.vms.clone(), base.events[..2].to_vec()));

        let mut seen = vec![h0];
        for (i, v) in variants.iter().enumerate() {
            let h = v.content_hash();
            assert!(!seen.contains(&h), "variant {i} collided");
            seen.push(h);
        }
        // Hash agrees with encoded-bytes equality in both directions.
        for v in &variants {
            assert_ne!(encode(v), encode(&base));
        }
        assert_eq!(h0, decode_chunks(&encode(&base)[..]).unwrap().content_hash());
    }

    /// Regression for the packed-word hash: the old layout absorbed
    /// `vms.len() << 32 | events.len()` and `cores << 32 | app_index <<
    /// 16 | generation << 8 | full_node` as single words, so values at
    /// or past a lane boundary could bleed into the neighboring field
    /// and collide. One word per field keeps every boundary value
    /// distinct.
    #[test]
    fn content_hash_distinguishes_lane_boundary_values() {
        let with_counts = |n_vms: u64, n_events: usize| {
            let vms: Vec<VmSpec> = (0..n_vms).map(|i| vm(i, 4)).collect();
            let events: Vec<VmEvent> = (0..n_events)
                .map(|i| VmEvent {
                    time_s: i as f64,
                    kind: VmEventKind::Arrival,
                    vm_id: i as u64 % n_vms,
                })
                .collect();
            Trace::new(100.0, vms, events).content_hash()
        };
        // Old layout: (2 << 32) | 1 == (1 << 32) | (1 << 32 | 1)? No —
        // but counts interact: e.g. a length pair whose packed word
        // matches another pair's. Directly check small count pairs all
        // hash distinctly.
        let pairs = [(1u64, 1usize), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)];
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for (nv, ne) in pairs {
            let h = with_counts(nv, ne);
            assert!(!seen.contains(&h), "count pair ({nv},{ne}) collided");
            seen.push(h);
        }

        // VM-field lane boundaries: each extreme perturbs the hash, and
        // extremes of neighboring fields don't alias each other.
        let base = sample_trace();
        let mutate_vm = |f: &dyn Fn(&mut VmSpec)| {
            let mut vms = base.vms().to_vec();
            f(&mut vms[0]);
            Trace::new(base.duration_s(), vms, base.events().to_vec()).content_hash()
        };
        let boundary_variants = [
            mutate_vm(&|v| v.cores = u32::MAX),
            mutate_vm(&|v| v.cores = 1 << 16),
            mutate_vm(&|v| v.app_index = u16::MAX),
            mutate_vm(&|v| v.app_index = 1 << 8),
            mutate_vm(&|v| {
                v.cores = u32::MAX;
                v.app_index = 0;
            }),
            mutate_vm(&|v| {
                v.cores = 0;
                v.app_index = u16::MAX;
            }),
            mutate_vm(&|v| v.full_node = true),
            mutate_vm(&|v| v.generation = ServerGeneration::Gen3),
        ];
        let mut seen = vec![base.content_hash()];
        for (i, h) in boundary_variants.iter().enumerate() {
            assert!(!seen.contains(h), "lane-boundary variant {i} collided");
            seen.push(*h);
        }
        // id = u64::MAX (fills the whole word) still distinct.
        let mut vms = base.vms().to_vec();
        vms[0].id = u64::MAX;
        let events: Vec<VmEvent> = base
            .events()
            .iter()
            .map(|e| VmEvent {
                vm_id: if e.vm_id == base.vms()[0].id { u64::MAX } else { e.vm_id },
                ..*e
            })
            .collect();
        let h = Trace::new(base.duration_s(), vms, events).content_hash();
        assert!(!seen.contains(&h), "u64::MAX id collided");
    }

    #[test]
    fn encode_rejects_oversized_counts() {
        // A 2^32-record trace cannot be built in a test, so the length
        // guard is exercised directly.
        assert_eq!(ensure_u32(u32::MAX as usize, "VM"), Ok(u32::MAX));
        assert_eq!(ensure_u32(u32::MAX as usize + 1, "VM"), Err(TraceCodecError::TooLarge("VM")));
        assert_eq!(ensure_u32(usize::MAX, "event"), Err(TraceCodecError::TooLarge("event")));
        let msg = TraceCodecError::TooLarge("event").to_string();
        assert!(msg.contains("too large"), "{msg}");
    }

    #[test]
    fn try_new_rejects_each_bad_input() {
        let good = sample_trace();
        // Identity on valid input.
        let ok = Trace::try_new(good.duration_s, good.vms.clone(), good.events.clone()).unwrap();
        assert_eq!(ok, good);

        // NaN duration.
        let e = Trace::try_new(f64::NAN, good.vms.clone(), vec![]).unwrap_err();
        assert!(matches!(e, TraceCodecError::Corrupt(m) if m.contains("duration")));
        // Negative duration.
        assert!(Trace::try_new(-1.0, good.vms.clone(), vec![]).is_err());
        // Empty VM list.
        let e = Trace::try_new(10.0, vec![], vec![]).unwrap_err();
        assert!(matches!(e, TraceCodecError::Corrupt(m) if m.contains("no VMs")));
        // NaN VM memory.
        let mut bad_vm = vm(0, 4);
        bad_vm.mem_gb = f64::NAN;
        let e = Trace::try_new(10.0, vec![bad_vm], vec![]).unwrap_err();
        assert!(matches!(e, TraceCodecError::Corrupt(m) if m.contains("memory")));
        // Negative utilization.
        let mut bad_vm = vm(0, 4);
        bad_vm.avg_cpu_util = -0.5;
        let e = Trace::try_new(10.0, vec![bad_vm], vec![]).unwrap_err();
        assert!(matches!(e, TraceCodecError::Corrupt(m) if m.contains("utilization")));
        // Duplicate ids.
        let e = Trace::try_new(10.0, vec![vm(0, 4), vm(0, 8)], vec![]).unwrap_err();
        assert!(matches!(e, TraceCodecError::Corrupt(m) if m.contains("duplicate")));
        // Non-finite event time.
        let e = Trace::try_new(
            10.0,
            vec![vm(0, 4)],
            vec![VmEvent { time_s: f64::INFINITY, kind: VmEventKind::Arrival, vm_id: 0 }],
        )
        .unwrap_err();
        assert!(matches!(e, TraceCodecError::Corrupt(m) if m.contains("event time")));
        // Dangling event.
        let e = Trace::try_new(
            10.0,
            vec![vm(0, 4)],
            vec![VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: 9 }],
        )
        .unwrap_err();
        assert!(matches!(e, TraceCodecError::Corrupt(m) if m.contains("unknown VM")));
    }

    #[test]
    fn try_new_rejects_zero_core_vm() {
        let mut bad_vm = vm(0, 4);
        bad_vm.cores = 0;
        let e = Trace::try_new(10.0, vec![bad_vm], vec![]).unwrap_err();
        assert!(matches!(e, TraceCodecError::Corrupt(m) if m.contains("zero cores")));
    }

    #[test]
    fn try_new_rejects_negative_event_time() {
        let e = Trace::try_new(
            10.0,
            vec![vm(0, 4)],
            vec![VmEvent { time_s: -1.0, kind: VmEventKind::Arrival, vm_id: 0 }],
        )
        .unwrap_err();
        assert!(matches!(e, TraceCodecError::Corrupt(m) if m.contains("negative")));
    }

    #[test]
    fn try_new_rejects_unsorted_events() {
        let e = Trace::try_new(
            10.0,
            vec![vm(0, 4)],
            vec![
                VmEvent { time_s: 5.0, kind: VmEventKind::Arrival, vm_id: 0 },
                VmEvent { time_s: 1.0, kind: VmEventKind::Departure, vm_id: 0 },
            ],
        )
        .unwrap_err();
        assert!(matches!(e, TraceCodecError::Corrupt(m) if m.contains("time-sorted")));
        // Sorted input is accepted (equal timestamps are fine).
        assert!(Trace::try_new(
            10.0,
            vec![vm(0, 4)],
            vec![
                VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: 0 },
                VmEvent { time_s: 1.0, kind: VmEventKind::Departure, vm_id: 0 },
            ],
        )
        .is_ok());
    }

    #[test]
    fn event_slots_resolve_dense_permuted_and_sparse_ids() {
        // Dense ids in list order: the O(1) path.
        assert_eq!(sample_trace().event_slots().collect::<Vec<_>>(), vec![0, 1, 0]);
        // Dense ids out of list order, and sparse ids: the sorted
        // table, including a re-arrival.
        for ids in [[1u64, 0], [7, 3]] {
            let t = Trace::new(
                10.0,
                vec![vm(ids[0], 2), vm(ids[1], 4)],
                vec![
                    VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: ids[1] },
                    VmEvent { time_s: 2.0, kind: VmEventKind::Departure, vm_id: ids[1] },
                    VmEvent { time_s: 5.0, kind: VmEventKind::Arrival, vm_id: ids[1] },
                    VmEvent { time_s: 6.0, kind: VmEventKind::Arrival, vm_id: ids[0] },
                ],
            );
            assert_eq!(t.event_slots().collect::<Vec<_>>(), vec![1, 1, 1, 0], "ids {ids:?}");
        }
    }

    #[test]
    fn peak_demand_tracks_concurrency() {
        let t = sample_trace();
        // Both VMs overlap between t=20 and t=100: 12 cores, 48 GB.
        let (cores, mem) = t.peak_demand();
        assert_eq!(cores, 12);
        assert!((mem - 48.0).abs() < 1e-9);
    }

    #[test]
    fn vm_lookup_dense_and_sparse() {
        let t = sample_trace();
        assert_eq!(t.vm(1).unwrap().cores, 8);
        assert!(t.vm(99).is_none());
        // Sparse ids still work.
        let t2 = Trace::new(10.0, vec![vm(7, 2)], vec![]);
        assert_eq!(t2.vm(7).unwrap().cores, 2);
    }
}
