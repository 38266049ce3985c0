//! Prepared-trace replay: per-(trace, routing decision) precomputation.
//!
//! Every sizing feasibility probe replays the same trace with the same
//! placement transform — only the candidate cluster changes. Resolving
//! each event's VM (a by-id lookup) and recomputing its
//! [`PlacementRequest`] on every probe would repeat work that depends on
//! neither. A [`PreparedTrace`] does that work once: every event carries
//! its VM's dense slot, every VM carries its precomputed request,
//! arrivals are paired with departures (via
//! [`gsf_workloads::Trace::index`]) so dwell times are known up front,
//! and the peak concurrent demand that seeds the sizing bounds is
//! precomputed.
//!
//! [`crate::AllocationSim::replay_prepared_faulted`] replays a prepared
//! trace. The differential harness in `gsf-cluster` (a `ci.sh` gate)
//! pins it bit for bit to a reference replay that resolves every event
//! through the transform on the spot: same `SimOutcome`, same
//! `FaultSummary`, faulted and fault-free.

use crate::simulator::{PlacementRequest, VmTransform};
use gsf_workloads::{Trace, TraceChunkReader, TraceStreamError, VmEventKind, VmSpec};
use std::collections::{BTreeMap, VecDeque};
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
    /// End of the residency this event opens (arrivals: the paired
    /// departure time, or the horizon; departures: their own time).
    pub end_time_s: f64,
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
    /// Resolves `trace` against `transform` once.
    pub fn new(trace: &Trace, transform: &VmTransform<'_>) -> Self {
        let index = trace.index();
        let vms: Vec<PreparedVm> = trace
            .vms()
            .iter()
            .map(|vm| PreparedVm {
                id: vm.id,
                app_index: vm.app_index,
                max_mem_util: vm.max_mem_util,
                request: transform(vm),
            })
            .collect();
        let events: Vec<PreparedEvent> = trace
            .events()
            .iter()
            .enumerate()
            .map(|(i, e)| PreparedEvent {
                time_s: e.time_s,
                kind: e.kind,
                slot: index.vm_slot(i),
                end_time_s: index.end_time_s(i),
            })
            .collect();
        let mut slots_by_id: Vec<u32> = (0..vms.len() as u32).collect();
        slots_by_id.sort_unstable_by_key(|&s| vms[s as usize].id);
        Self {
            duration_s: trace.duration_s(),
            events,
            vms,
            slots_by_id,
            peak_demand: trace.peak_demand(),
        }
    }

    /// Builds a prepared trace by draining a chunked stream, without
    /// ever materializing a [`Trace`]. Bit-identical to
    /// `PreparedTrace::new(&decode_chunks(stream)?, transform)` — the
    /// stream's replay-order contract makes the in-memory path's
    /// re-sort a no-op, and the builder replicates its pairing and
    /// peak-demand arithmetic event-for-event.
    ///
    /// The reader is left positioned after the footer, so the caller
    /// can take the verified
    /// [`content_hash`](TraceChunkReader::content_hash) for cache
    /// keying.
    ///
    /// # Errors
    ///
    /// Propagates stream I/O and codec errors.
    pub fn from_chunk_stream<R: BufRead>(
        reader: &mut TraceChunkReader<R>,
        transform: &VmTransform<'_>,
    ) -> Result<Self, TraceStreamError> {
        let mut builder = PreparedTraceBuilder::new(reader.duration_s(), transform);
        while let Some(chunk) = reader.next_chunk()? {
            for vm in &chunk.vms {
                builder.push_vm(vm);
            }
            for e in &chunk.events {
                builder.push_event(e.time_s, e.kind, e.slot);
            }
        }
        Ok(builder.finish())
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

    /// End of the residency event `event_idx` belongs to: for an
    /// arrival, the paired departure time (or the horizon if the VM
    /// never departs); for a departure, its own time.
    pub fn event_end_time_s(&self, event_idx: usize) -> f64 {
        self.events[event_idx].end_time_s
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

/// Incremental [`PreparedTrace`] construction for chunked streams.
///
/// Push VMs (in slot order) and events (in replay order) as they
/// arrive; the builder applies the transform, pairs arrivals with
/// departures, and accumulates peak demand on the fly. Auxiliary state
/// beyond the prepared columns themselves is O(peak concurrent VMs)
/// (the open-residency map) plus 12 bytes per VM (the shape table the
/// peak-demand walk reads) — no intermediate [`Trace`], id map, or
/// sort buffer is ever materialized.
///
/// The arithmetic is ordered exactly as [`Trace::peak_demand`] and
/// [`Trace::index`] order it, so the result is bit-identical to
/// [`PreparedTrace::new`] on the materialized equivalent (pinned by
/// this module's tests and the `streamed_equivalence` suite in
/// `gsf-core`).
pub struct PreparedTraceBuilder<'t> {
    duration_s: f64,
    transform: &'t VmTransform<'t>,
    events: Vec<PreparedEvent>,
    vms: Vec<PreparedVm>,
    /// Per-slot (cores, mem_gb): the only VmSpec fields the
    /// peak-demand walk needs after the request is resolved.
    shapes: Vec<(u32, f64)>,
    /// Slot → indices of its open (unpaired) arrival events. Entries
    /// are removed as soon as they empty, keeping the map at the
    /// trace's concurrency, not its VM count.
    open: BTreeMap<u32, VecDeque<usize>>,
    cores: i64,
    mem: f64,
    peak_cores: i64,
    peak_mem: f64,
}

impl<'t> PreparedTraceBuilder<'t> {
    /// Starts a builder for a trace with horizon `duration_s`.
    pub fn new(duration_s: f64, transform: &'t VmTransform<'t>) -> Self {
        Self {
            duration_s,
            transform,
            events: Vec::new(),
            vms: Vec::new(),
            shapes: Vec::new(),
            open: BTreeMap::new(),
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
    /// Panics if `slot` has not been pushed (the same contract as
    /// [`PreparedTrace::new`], whose index resolution expects known
    /// VMs; the chunked decoder validates slots before they get here).
    pub fn push_event(&mut self, time_s: f64, kind: VmEventKind, slot: u32) {
        let (vm_cores, vm_mem) = self.shapes[slot as usize];
        let end_time_s = match kind {
            VmEventKind::Arrival => {
                self.open.entry(slot).or_default().push_back(self.events.len());
                self.duration_s
            }
            VmEventKind::Departure => {
                // FIFO pairing, exactly as `Trace::index`: the earliest
                // open arrival of this VM ends now; a departure with no
                // open arrival pairs with nothing.
                if let Some(queue) = self.open.get_mut(&slot) {
                    if let Some(arrival_idx) = queue.pop_front() {
                        self.events[arrival_idx].end_time_s = time_s;
                    }
                    if queue.is_empty() {
                        self.open.remove(&slot);
                    }
                }
                time_s
            }
        };
        self.events.push(PreparedEvent { time_s, kind, slot, end_time_s });
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
            .field("open_residencies", &self.open.len())
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
    fn prepares_slots_requests_and_pairing() {
        let t = sample();
        let p = PreparedTrace::new(&t, &|v: &VmSpec| PlacementRequest::prefer_green(v, 1.25));
        assert_eq!(p.event_count(), 4);
        assert_eq!(p.vm_count(), 3);
        assert_eq!(p.duration_s(), 1000.0);
        // Event 0 refers to VM id 5, stored at slot 0.
        assert_eq!(p.events()[0].slot, 0);
        assert_eq!(p.vm(p.events()[0].slot).id, 5);
        // Requests precomputed through the transform.
        assert_eq!(p.vm(0).request, PlacementRequest::prefer_green(&vm(5, 4), 1.25));
        // Pairing: VM 5 arrives at 10, departs at 30; VM 2 runs to the
        // horizon.
        assert_eq!(p.events()[0].end_time_s, 30.0);
        assert_eq!(p.events()[1].end_time_s, 1000.0);
        // Peak demand matches the trace's own computation bit-for-bit.
        assert_eq!(p.peak_demand(), t.peak_demand());
    }

    /// Feeds a materialized trace through the builder the way a chunk
    /// stream would (VMs in slot order interleaved before first use,
    /// events in replay order).
    fn build_incrementally(t: &Trace, transform: &VmTransform<'_>) -> PreparedTrace {
        let index = t.index();
        let mut b = PreparedTraceBuilder::new(t.duration_s(), transform);
        let mut next_vm = 0usize;
        for (i, e) in t.events().iter().enumerate() {
            let slot = index.vm_slot(i);
            while next_vm <= slot as usize {
                b.push_vm(&t.vms()[next_vm]);
                next_vm += 1;
            }
            b.push_event(e.time_s, e.kind, slot);
        }
        for vm in &t.vms()[next_vm..] {
            b.push_vm(vm);
        }
        b.finish()
    }

    #[test]
    fn builder_is_bit_identical_to_batch_preparation() {
        let transform: &VmTransform<'_> = &|v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        // Sparse permuted ids, a VM running to the horizon, FIFO
        // re-arrival pairing, equal-time departure-then-arrival, and a
        // zero-lifetime residency.
        let tricky = Trace::new(
            500.0,
            vec![vm(5, 4), vm(2, 8), vm(9, 2)],
            vec![
                VmEvent { time_s: 10.0, kind: VmEventKind::Arrival, vm_id: 5 },
                VmEvent { time_s: 20.0, kind: VmEventKind::Arrival, vm_id: 2 },
                VmEvent { time_s: 20.0, kind: VmEventKind::Departure, vm_id: 5 },
                VmEvent { time_s: 20.0, kind: VmEventKind::Arrival, vm_id: 5 },
                VmEvent { time_s: 40.0, kind: VmEventKind::Arrival, vm_id: 9 },
                VmEvent { time_s: 40.0, kind: VmEventKind::Departure, vm_id: 9 },
                VmEvent { time_s: 60.0, kind: VmEventKind::Departure, vm_id: 5 },
            ],
        );
        for t in [sample(), tricky] {
            let batch = PreparedTrace::new(&t, transform);
            let streamed = build_incrementally(&t, transform);
            assert_eq!(batch, streamed);
        }
    }

    #[test]
    fn from_chunk_stream_matches_batch_preparation() {
        let t = sample();
        let transform: &VmTransform<'_> = &|v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        for chunk_events in [1usize, 3, 1024] {
            let mut buf = Vec::new();
            gsf_workloads::write_chunks(&t, &mut buf, chunk_events).unwrap();
            let mut reader = gsf_workloads::TraceChunkReader::new(&buf[..]).unwrap();
            let streamed = PreparedTrace::from_chunk_stream(&mut reader, transform).unwrap();
            assert_eq!(streamed, PreparedTrace::new(&t, transform));
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
