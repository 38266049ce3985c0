//! Prepared-trace replay: per-(trace, routing decision) precomputation.
//!
//! Every sizing feasibility probe replays the same trace with the same
//! placement transform — only the candidate cluster changes. Resolving
//! each event's VM (a by-id lookup) and recomputing its
//! [`PlacementRequest`] on every probe would repeat work that depends on
//! neither. A [`PreparedTrace`] does that work once: every event carries
//! its VM's dense slot, every VM carries its precomputed request, and
//! the peak concurrent demand that seeds the sizing bounds is
//! precomputed.
//!
//! One [`PreparedTraceBuilder`] makes every prepared trace:
//! [`PreparedTrace::new`] feeds it a materialized [`Trace`] and
//! [`PreparedTrace::from_chunk_stream`] a chunked stream, so the two
//! agree by construction.
//!
//! [`crate::AllocationSim::replay_prepared_faulted`] replays a prepared
//! trace. The differential harness in `gsf-cluster` (a `ci.sh` gate)
//! pins it bit for bit to a reference replay that resolves every event
//! through the transform on the spot: same `SimOutcome`, same
//! `FaultSummary`, faulted and fault-free.

use crate::simulator::{PlacementRequest, VmTransform};
use gsf_workloads::{Trace, TraceChunkReader, TraceStreamError, VmEventKind, VmSpec};
use std::io::BufRead;

/// One trace event with its VM resolved to a dense slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PreparedEvent {
    /// Event time, seconds.
    pub time_s: f64,
    /// Arrival or departure.
    pub kind: VmEventKind,
    /// Index into [`PreparedTrace::vms`].
    pub slot: u32,
}

/// One VM with its placement request resolved once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PreparedVm {
    /// The VM's trace id (servers and fault evacuation address VMs by
    /// id).
    pub id: u64,
    /// Index into the application catalog, for usage attribution.
    pub app_index: u16,
    /// Maximum fraction of allocated memory the VM touches.
    pub max_mem_util: f64,
    /// The transform's placement request for this VM.
    pub request: PlacementRequest,
}

/// A trace resolved against one routing decision: every event indexed,
/// every request precomputed, shared across `reset()` cycles and
/// sizing probes.
///
/// Bit-exactness contract: replaying a `PreparedTrace` built from
/// `(trace, transform)` is bitwise identical to resolving each event of
/// `trace` through `transform` on the spot, provided `transform` is a
/// pure function of the `VmSpec` (every transform in this workspace
/// is).
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedTrace {
    duration_s: f64,
    events: Vec<PreparedEvent>,
    vms: Vec<PreparedVm>,
    /// VM slots in ascending-id order: the horizon settlement order,
    /// and the index the by-id lookup binary-searches.
    slots_by_id: Vec<u32>,
    peak_demand: (u64, f64),
}

impl PreparedTrace {
    /// Resolves `trace` against `transform` once: its VMs in slot
    /// order, then its events with the slots [`Trace::event_slots`]
    /// resolves, through one [`PreparedTraceBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if an event references a VM id missing from the trace's
    /// VM table (generated and decoded traces are always
    /// self-consistent).
    pub fn new(trace: &Trace, transform: &VmTransform<'_>) -> Self {
        let (vms, events) = (trace.vms().len(), trace.events().len());
        let mut builder =
            PreparedTraceBuilder::with_capacity(trace.duration_s(), transform, vms, events);
        for vm in trace.vms() {
            builder.push_vm(vm);
        }
        for (e, slot) in trace.events().iter().zip(trace.event_slots()) {
            builder.push_event(e.time_s, e.kind, slot);
        }
        builder.finish()
    }

    /// Builds one prepared trace per transform in a single pass over a
    /// chunked stream, without ever materializing a [`Trace`]: every
    /// verified chunk feeds one builder per transform, so the stream
    /// is read once and never retained. Each result equals
    /// `PreparedTrace::new(&decode_chunks(stream)?, transform)`, since
    /// both feed a builder the same VMs and events in the same order
    /// (the stream's replay-order contract makes the decoder's re-sort
    /// a no-op).
    ///
    /// The reader is left positioned after the footer, so the caller
    /// can take the verified
    /// [`content_hash`](TraceChunkReader::content_hash) for cache
    /// keying.
    ///
    /// # Errors
    ///
    /// Propagates stream I/O and codec errors.
    pub fn from_chunk_stream<R: BufRead, const N: usize>(
        reader: &mut TraceChunkReader<R>,
        transforms: [&VmTransform<'_>; N],
    ) -> Result<[Self; N], TraceStreamError> {
        let duration_s = reader.duration_s();
        let mut builders = transforms.map(|t| PreparedTraceBuilder::new(duration_s, t));
        while let Some(chunk) = reader.next_chunk()? {
            for builder in &mut builders {
                for vm in &chunk.vms {
                    builder.push_vm(vm);
                }
                for e in &chunk.events {
                    builder.push_event(e.time_s, e.kind, e.slot);
                }
            }
        }
        Ok(builders.map(PreparedTraceBuilder::finish))
    }

    /// Trace horizon in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// Number of events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Peak concurrent demand in (cores, memory GB) at original VM
    /// sizes — the same lower bound [`Trace::peak_demand`] computes,
    /// cached here so sizing searches stop re-walking the event list.
    pub fn peak_demand(&self) -> (u64, f64) {
        self.peak_demand
    }

    pub(crate) fn events(&self) -> &[PreparedEvent] {
        &self.events
    }

    pub(crate) fn vm(&self, slot: u32) -> &PreparedVm {
        &self.vms[slot as usize]
    }

    /// VM slots in ascending-id order (the settlement order).
    pub(crate) fn slots_by_id(&self) -> &[u32] {
        &self.slots_by_id
    }

    /// Resolves a VM id (as servers report them) back to its slot.
    pub(crate) fn slot_of_id(&self, id: u64) -> Option<u32> {
        self.slots_by_id
            .binary_search_by_key(&id, |&s| self.vms[s as usize].id)
            .ok()
            .map(|i| self.slots_by_id[i])
    }
}

/// Incremental [`PreparedTrace`] construction, the one way a prepared
/// trace is made (see [`PreparedTrace::new`] and
/// [`PreparedTrace::from_chunk_stream`]).
///
/// Push VMs (in slot order) and events (in replay order) as they
/// arrive; the builder applies the transform and accumulates peak
/// demand on the fly. Auxiliary state beyond the prepared columns
/// themselves is one (cores, memory) pair per VM, the shape table the
/// peak-demand walk reads — no intermediate [`Trace`], id map, or
/// sort buffer is ever materialized.
///
/// The peak-demand arithmetic is ordered exactly as
/// [`Trace::peak_demand`] orders it, so the two agree bit for bit.
pub struct PreparedTraceBuilder<'t> {
    duration_s: f64,
    transform: &'t VmTransform<'t>,
    events: Vec<PreparedEvent>,
    vms: Vec<PreparedVm>,
    /// Per-slot (cores, mem_gb): the only VmSpec fields the
    /// peak-demand walk needs after the request is resolved.
    shapes: Vec<(u32, f64)>,
    cores: i64,
    mem: f64,
    peak_cores: i64,
    peak_mem: f64,
}

impl<'t> PreparedTraceBuilder<'t> {
    /// Starts a builder for a trace with horizon `duration_s`.
    pub fn new(duration_s: f64, transform: &'t VmTransform<'t>) -> Self {
        Self::with_capacity(duration_s, transform, 0, 0)
    }

    /// A builder with room for `vms` VMs and `events` events, so that
    /// a caller who knows the counts allocates every column once, at
    /// its final size, instead of regrowing it on each doubling.
    fn with_capacity(
        duration_s: f64,
        transform: &'t VmTransform<'t>,
        vms: usize,
        events: usize,
    ) -> Self {
        Self {
            duration_s,
            transform,
            events: Vec::with_capacity(events),
            vms: Vec::with_capacity(vms),
            shapes: Vec::with_capacity(vms),
            cores: 0,
            mem: 0.0,
            peak_cores: 0,
            peak_mem: 0.0,
        }
    }

    /// Appends the next VM (slot = push order) and resolves its
    /// placement request through the transform.
    pub fn push_vm(&mut self, vm: &VmSpec) {
        self.vms.push(PreparedVm {
            id: vm.id,
            app_index: vm.app_index,
            max_mem_util: vm.max_mem_util,
            request: (self.transform)(vm),
        });
        self.shapes.push((vm.cores, vm.mem_gb));
    }

    /// Appends the next event (in replay order). The referenced slot
    /// must already be pushed.
    ///
    /// # Panics
    ///
    /// Panics if `slot` has not been pushed ([`PreparedTrace::new`]
    /// pushes every VM first; the chunked decoder validates slots
    /// before they get here).
    pub fn push_event(&mut self, time_s: f64, kind: VmEventKind, slot: u32) {
        let (vm_cores, vm_mem) = self.shapes[slot as usize];
        self.events.push(PreparedEvent { time_s, kind, slot });
        // Peak-demand walk in the same operation order as
        // `Trace::peak_demand`, for a bit-equal (f64) result.
        match kind {
            VmEventKind::Arrival => {
                self.cores += i64::from(vm_cores);
                self.mem += vm_mem;
            }
            VmEventKind::Departure => {
                self.cores -= i64::from(vm_cores);
                self.mem -= vm_mem;
            }
        }
        self.peak_cores = self.peak_cores.max(self.cores);
        self.peak_mem = self.peak_mem.max(self.mem);
    }

    /// Finalizes into a [`PreparedTrace`] (sorts the settlement order,
    /// drops the auxiliary state).
    pub fn finish(self) -> PreparedTrace {
        let mut slots_by_id: Vec<u32> = (0..self.vms.len() as u32).collect();
        slots_by_id.sort_unstable_by_key(|&s| self.vms[s as usize].id);
        PreparedTrace {
            duration_s: self.duration_s,
            events: self.events,
            vms: self.vms,
            slots_by_id,
            peak_demand: (self.peak_cores.max(0) as u64, self.peak_mem.max(0.0)),
        }
    }
}

impl std::fmt::Debug for PreparedTraceBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedTraceBuilder")
            .field("duration_s", &self.duration_s)
            .field("vms", &self.vms.len())
            .field("events", &self.events.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_workloads::{ServerGeneration, VmEvent, VmSpec};

    fn vm(id: u64, cores: u32) -> VmSpec {
        VmSpec {
            id,
            cores,
            mem_gb: f64::from(cores) * 4.0,
            app_index: (id % 5) as u16,
            generation: ServerGeneration::Gen3,
            full_node: false,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        }
    }

    fn sample() -> Trace {
        Trace::new(
            1000.0,
            vec![vm(5, 4), vm(2, 8), vm(9, 2)],
            vec![
                VmEvent { time_s: 10.0, kind: VmEventKind::Arrival, vm_id: 5 },
                VmEvent { time_s: 20.0, kind: VmEventKind::Arrival, vm_id: 2 },
                VmEvent { time_s: 30.0, kind: VmEventKind::Departure, vm_id: 5 },
                VmEvent { time_s: 40.0, kind: VmEventKind::Arrival, vm_id: 9 },
            ],
        )
    }

    #[test]
    fn prepares_slots_requests_and_peak_demand() {
        let t = sample();
        let p = PreparedTrace::new(&t, &|v: &VmSpec| PlacementRequest::prefer_green(v, 1.25));
        assert_eq!(p.event_count(), 4);
        assert_eq!(p.vm_count(), 3);
        assert_eq!(p.duration_s(), 1000.0);
        // Sparse ids out of order: events resolve to the list slots.
        let slots: Vec<u32> = p.events().iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![0, 1, 0, 2]);
        assert_eq!(p.vm(p.events()[0].slot).id, 5);
        // Requests precomputed through the transform.
        assert_eq!(p.vm(0).request, PlacementRequest::prefer_green(&vm(5, 4), 1.25));
        // Peak demand matches the trace's own computation bit-for-bit.
        assert_eq!(p.peak_demand(), t.peak_demand());
    }

    #[test]
    fn from_chunk_stream_prepares_every_plan_like_new() {
        let t = sample();
        let routed: &VmTransform<'_> = &|v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        for chunk_events in [1usize, 3, 1024] {
            let mut buf = Vec::new();
            gsf_workloads::write_chunks(&t, &mut buf, chunk_events).unwrap();
            let mut reader = gsf_workloads::TraceChunkReader::new(&buf[..]).unwrap();
            let [streamed, baseline] = PreparedTrace::from_chunk_stream(
                &mut reader,
                [routed, &PlacementRequest::baseline_only],
            )
            .unwrap();
            assert_eq!(streamed, PreparedTrace::new(&t, routed));
            assert_eq!(baseline, PreparedTrace::new(&t, &PlacementRequest::baseline_only));
            // The reader has consumed the footer: hash available and
            // equal to the in-memory key.
            assert_eq!(reader.content_hash(), Some(t.content_hash()));
        }
    }

    #[test]
    fn id_lookup_round_trips_sparse_ids() {
        let t = sample();
        let p = PreparedTrace::new(&t, &|v: &VmSpec| PlacementRequest::baseline_only(v));
        assert_eq!(p.slots_by_id().iter().map(|&s| p.vm(s).id).collect::<Vec<_>>(), vec![2, 5, 9]);
        for id in [2u64, 5, 9] {
            assert_eq!(p.vm(p.slot_of_id(id).unwrap()).id, id);
        }
        assert_eq!(p.slot_of_id(7), None);
    }
}
