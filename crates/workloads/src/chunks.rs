//! Streaming chunked columnar trace codec (`TraceChunks`), the one
//! on-disk trace format.
//!
//! At fleet scale (millions of VMs over multi-week horizons) neither the
//! producer nor the consumer can hold the whole trace, so the format is
//! streamed over [`std::io::Write`] / [`std::io::BufRead`]:
//!
//! ```text
//! header   := MAGIC:u32 "GSTC" | VERSION:u16 | duration_s:f64
//! block    := CHUNK_TAG:u8 chunk | FOOTER_TAG:u8 footer
//! chunk    := n_vms:u32 | n_events:u32 | running_hash:(u64,u64)
//!             | vm_record × n_vms          (row-major, 40 B each)
//!             | time_s:f64 × n_events      (columnar event block)
//!             | kind:u8    × n_events
//!             | slot:u32   × n_events
//! vm_record := id:u64 | cores:u32 | mem_gb:f64 | app_index:u16
//!             | generation:u8 | full_node:u8 | max_mem_util:f64
//!             | avg_cpu_util:f64
//! footer   := total_vms:u64 | total_events:u64 | digest:(u64,u64)
//! ```
//!
//! All integers and float bit patterns are big-endian. A file without
//! the `GSTC` magic fails at its header with
//! [`TraceCodecError::BadMagic`].
//!
//! Events reference VMs by **dense slot** — the 0-based index of the VM
//! in push order across the whole stream — so the consumer never needs
//! an id→index map (the `PreparedTrace` layout downstream is
//! slot-addressed already). A VM must be written in the same chunk as
//! its first referencing event or an earlier one; slots always point
//! backwards.
//!
//! Events are required to arrive in the exact replay order
//! [`Trace::new`] would produce — non-decreasing `(time_s,
//! departure-before-arrival)` — which makes the materializing decoder's
//! re-sort a no-op and lets chunked consumers (the streamed
//! `PreparedTrace` builder) process events in file order without any
//! buffering.
//!
//! Every chunk header carries the running [`TraceHasher`] digest over
//! everything up to and including that chunk, and the footer carries
//! the final digest, which equals [`Trace::content_hash`] of the
//! materialized trace — so a streamed consumer obtains the exact cache
//! key the in-memory path would compute, and corruption is detected at
//! chunk granularity rather than after a multi-GB read.

use crate::trace::{
    ensure_u32, generation_code, kind_code, validate_vm, Trace, TraceCodecError, TraceHasher,
};
use crate::vm::{ServerGeneration, VmEvent, VmEventKind, VmSpec};
use std::fmt;
use std::io::{BufRead, Read, Write};

/// Magic bytes identifying the chunked trace format ("GSTC").
const CHUNK_MAGIC: u32 = 0x6753_5443;
/// Chunked codec version.
const CHUNK_VERSION: u16 = 1;
/// Block tag introducing a chunk.
const CHUNK_TAG: u8 = 0x01;
/// Block tag introducing the footer.
const FOOTER_TAG: u8 = 0x00;
/// Bytes of one encoded VM record: id 8, cores 4, memory 8, app index
/// 2, generation 1, full-node flag 1, and the two utilizations 8 each.
const VM_RECORD_BYTES: usize = 40;

/// Default number of events per chunk (~850 KB of column data).
pub const DEFAULT_CHUNK_EVENTS: usize = 65_536;

/// Errors reading or writing a chunked trace stream.
#[derive(Debug)]
pub enum TraceStreamError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The stream content is invalid (wrong magic, corrupt records,
    /// hash mismatch, out-of-order events).
    Codec(TraceCodecError),
}

impl fmt::Display for TraceStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceStreamError::Io(e) => write!(f, "trace stream I/O error: {e}"),
            TraceStreamError::Codec(e) => write!(f, "trace stream codec error: {e}"),
        }
    }
}

impl std::error::Error for TraceStreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceStreamError::Io(e) => Some(e),
            TraceStreamError::Codec(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for TraceStreamError {
    fn from(e: std::io::Error) -> Self {
        // A clean EOF mid-record means the stream was cut short:
        // surface it as the codec's typed truncation, not as I/O.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceStreamError::Codec(TraceCodecError::Truncated)
        } else {
            TraceStreamError::Io(e)
        }
    }
}

impl From<TraceCodecError> for TraceStreamError {
    fn from(e: TraceCodecError) -> Self {
        TraceStreamError::Codec(e)
    }
}

/// One event in a chunk, referencing its VM by dense slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkEvent {
    /// Event timestamp in seconds from trace start.
    pub time_s: f64,
    /// Arrival or departure.
    pub kind: VmEventKind,
    /// Dense index of the VM (position in overall push order).
    pub slot: u32,
}

/// One decoded chunk: the VMs first defined in it and its events.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceChunk {
    /// VM records introduced by this chunk (their slots continue the
    /// global dense numbering).
    pub vms: Vec<VmSpec>,
    /// Events of this chunk, in replay order.
    pub events: Vec<ChunkEvent>,
}

/// Streaming encoder for the chunked trace format.
///
/// Push VMs and events in replay order; the writer buffers up to one
/// chunk, emits it with a running content digest, and finishes with a
/// footer carrying the totals and the final digest (equal to
/// [`Trace::content_hash`] of the same trace materialized).
pub struct TraceChunkWriter<W: Write> {
    out: W,
    duration_s: f64,
    chunk_events: usize,
    hasher: TraceHasher,
    /// Dense slot → VM id, for event hashing and the duplicate-id gate.
    ids: Vec<u64>,
    vm_buf: Vec<VmSpec>,
    event_buf: Vec<ChunkEvent>,
    last_key: Option<(u64, u8)>,
    finished: bool,
}

impl<W: Write> TraceChunkWriter<W> {
    /// Starts a stream by writing the file header.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`TraceCodecError::Corrupt`] for a non-finite or
    /// negative horizon.
    pub fn new(mut out: W, duration_s: f64, chunk_events: usize) -> Result<Self, TraceStreamError> {
        if !duration_s.is_finite() || duration_s < 0.0 {
            return Err(
                TraceCodecError::Corrupt("duration is not a finite non-negative number").into()
            );
        }
        out.write_all(&CHUNK_MAGIC.to_be_bytes())?;
        out.write_all(&CHUNK_VERSION.to_be_bytes())?;
        out.write_all(&duration_s.to_bits().to_be_bytes())?;
        Ok(Self {
            out,
            duration_s,
            chunk_events: chunk_events.max(1),
            hasher: TraceHasher::new(),
            ids: Vec::new(),
            vm_buf: Vec::new(),
            event_buf: Vec::new(),
            last_key: None,
            finished: false,
        })
    }

    /// Appends a VM record and returns its dense slot. VMs must be
    /// pushed before any event that references them.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`TraceCodecError`] for an invalid VM record.
    pub fn push_vm(&mut self, vm: &VmSpec) -> Result<u32, TraceStreamError> {
        validate_vm(vm)?;
        let slot = ensure_u32(self.ids.len(), "VM")?;
        self.ids.push(vm.id);
        self.hasher.push_vm(vm);
        self.vm_buf.push(*vm);
        if self.vm_buf.len() >= self.chunk_events {
            self.flush_chunk()?;
        }
        Ok(slot)
    }

    /// Appends an event. Events must arrive in replay order:
    /// non-decreasing time, departures before arrivals at equal
    /// timestamps.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`TraceCodecError::Corrupt`] for out-of-order
    /// events, unknown slots, or invalid timestamps.
    pub fn push_event(
        &mut self,
        time_s: f64,
        kind: VmEventKind,
        slot: u32,
    ) -> Result<(), TraceStreamError> {
        if !time_s.is_finite() {
            return Err(TraceCodecError::Corrupt("event time is not finite").into());
        }
        if time_s < 0.0 {
            return Err(TraceCodecError::Corrupt("event time is negative").into());
        }
        let Some(&vm_id) = self.ids.get(slot as usize) else {
            return Err(TraceCodecError::Corrupt("event references an unknown VM").into());
        };
        let key = event_order_key(time_s, kind);
        if let Some(last) = self.last_key {
            if key < last {
                return Err(TraceCodecError::Corrupt("events are not in replay order").into());
            }
        }
        self.last_key = Some(key);
        self.hasher.push_event(time_s, kind, vm_id);
        self.event_buf.push(ChunkEvent { time_s, kind, slot });
        if self.event_buf.len() >= self.chunk_events {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Writes any buffered chunk and the footer, returning the final
    /// content digest (equal to [`Trace::content_hash`] of the
    /// materialized trace).
    ///
    /// # Errors
    ///
    /// I/O failure, or [`TraceCodecError::Corrupt`] for an empty or
    /// duplicate-id VM set (the same gates [`Trace::try_new`] applies).
    pub fn finish(mut self) -> Result<(u64, u64), TraceStreamError> {
        self.flush_chunk()?;
        if self.ids.is_empty() {
            return Err(TraceCodecError::Corrupt("trace has no VMs").into());
        }
        let mut sorted = self.ids.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(TraceCodecError::Corrupt("duplicate VM ids").into());
        }
        let digest = self.hasher.digest(self.duration_s);
        self.out.write_all(&[FOOTER_TAG])?;
        self.out.write_all(&self.hasher.vms_pushed().to_be_bytes())?;
        self.out.write_all(&self.hasher.events_pushed().to_be_bytes())?;
        self.out.write_all(&digest.0.to_be_bytes())?;
        self.out.write_all(&digest.1.to_be_bytes())?;
        self.out.flush()?;
        self.finished = true;
        Ok(digest)
    }

    fn flush_chunk(&mut self) -> Result<(), TraceStreamError> {
        if self.vm_buf.is_empty() && self.event_buf.is_empty() {
            return Ok(());
        }
        let n_vms = ensure_u32(self.vm_buf.len(), "chunk VM")?;
        let n_events = ensure_u32(self.event_buf.len(), "chunk event")?;
        let running = self.hasher.digest(self.duration_s);
        let mut buf: Vec<u8> = Vec::with_capacity(
            29 + self.vm_buf.len() * VM_RECORD_BYTES + self.event_buf.len() * 13,
        );
        buf.push(CHUNK_TAG);
        buf.extend_from_slice(&n_vms.to_be_bytes());
        buf.extend_from_slice(&n_events.to_be_bytes());
        buf.extend_from_slice(&running.0.to_be_bytes());
        buf.extend_from_slice(&running.1.to_be_bytes());
        for vm in &self.vm_buf {
            buf.extend_from_slice(&vm.id.to_be_bytes());
            buf.extend_from_slice(&vm.cores.to_be_bytes());
            buf.extend_from_slice(&vm.mem_gb.to_bits().to_be_bytes());
            buf.extend_from_slice(&vm.app_index.to_be_bytes());
            buf.push(generation_code(vm.generation));
            buf.push(u8::from(vm.full_node));
            buf.extend_from_slice(&vm.max_mem_util.to_bits().to_be_bytes());
            buf.extend_from_slice(&vm.avg_cpu_util.to_bits().to_be_bytes());
        }
        for e in &self.event_buf {
            buf.extend_from_slice(&e.time_s.to_bits().to_be_bytes());
        }
        for e in &self.event_buf {
            buf.push(kind_code(e.kind));
        }
        for e in &self.event_buf {
            buf.extend_from_slice(&e.slot.to_be_bytes());
        }
        self.out.write_all(&buf)?;
        self.vm_buf.clear();
        self.event_buf.clear();
        Ok(())
    }
}

/// Streaming decoder for the chunked trace format.
///
/// Yields one [`TraceChunk`] per [`Self::next_chunk`] call, verifying
/// the per-chunk running digest, record validity, slot bounds, and
/// replay ordering as it goes; after the footer (`next_chunk` returns
/// `None`) the totals and final [`Self::content_hash`] are available
/// and verified.
pub struct TraceChunkReader<R: BufRead> {
    input: R,
    duration_s: f64,
    hasher: TraceHasher,
    ids: Vec<u64>,
    last_key: Option<(u64, u8)>,
    footer: Option<((u64, u64), (u64, u64))>,
}

impl<R: BufRead> TraceChunkReader<R> {
    /// Opens a stream by reading and validating the file header.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`TraceCodecError`] for a foreign or corrupt
    /// header.
    pub fn new(mut input: R) -> Result<Self, TraceStreamError> {
        if read_u32(&mut input)? != CHUNK_MAGIC {
            return Err(TraceCodecError::BadMagic.into());
        }
        let version = read_u16(&mut input)?;
        if version != CHUNK_VERSION {
            return Err(TraceCodecError::BadVersion(version).into());
        }
        let duration_s = f64::from_bits(read_u64(&mut input)?);
        if !duration_s.is_finite() || duration_s < 0.0 {
            return Err(
                TraceCodecError::Corrupt("duration is not a finite non-negative number").into()
            );
        }
        Ok(Self {
            input,
            duration_s,
            hasher: TraceHasher::new(),
            ids: Vec::new(),
            last_key: None,
            footer: None,
        })
    }

    /// Trace horizon in seconds (from the header).
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// Dense slot → VM id for every VM decoded so far.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The verified final content digest; available once
    /// [`Self::next_chunk`] has returned `None`.
    pub fn content_hash(&self) -> Option<(u64, u64)> {
        self.footer.map(|(_, digest)| digest)
    }

    /// `(total_vms, total_events)` from the verified footer; available
    /// once [`Self::next_chunk`] has returned `None`.
    pub fn totals(&self) -> Option<(u64, u64)> {
        self.footer.map(|(totals, _)| totals)
    }

    /// Reads the next chunk, or `None` after the verified footer.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`TraceCodecError`] for corrupt records, slot or
    /// ordering violations, or a running-digest mismatch.
    pub fn next_chunk(&mut self) -> Result<Option<TraceChunk>, TraceStreamError> {
        if self.footer.is_some() {
            return Ok(None);
        }
        match read_u8(&mut self.input)? {
            CHUNK_TAG => self.read_chunk().map(Some),
            FOOTER_TAG => {
                self.read_footer()?;
                Ok(None)
            }
            d => Err(TraceCodecError::BadDiscriminant(d).into()),
        }
    }

    fn read_chunk(&mut self) -> Result<TraceChunk, TraceStreamError> {
        let n_vms = read_u32(&mut self.input)? as usize;
        let n_events = read_u32(&mut self.input)? as usize;
        let expect_hash = (read_u64(&mut self.input)?, read_u64(&mut self.input)?);
        // The counts are unverified until the chunk hash is checked:
        // preallocate no more than a default chunk holds and let a
        // corrupt count run into a typed error at end of input instead
        // of requesting gigabytes up front.
        let vm_capacity = n_vms.min(DEFAULT_CHUNK_EVENTS);
        let event_capacity = n_events.min(DEFAULT_CHUNK_EVENTS);
        let mut vms = Vec::with_capacity(vm_capacity);
        for _ in 0..n_vms {
            let id = read_u64(&mut self.input)?;
            let cores = read_u32(&mut self.input)?;
            let mem_gb = f64::from_bits(read_u64(&mut self.input)?);
            let app_index = read_u16(&mut self.input)?;
            let generation = match read_u8(&mut self.input)? {
                1 => ServerGeneration::Gen1,
                2 => ServerGeneration::Gen2,
                3 => ServerGeneration::Gen3,
                d => return Err(TraceCodecError::BadDiscriminant(d).into()),
            };
            // Only 0 and 1 are booleans: any other byte would decode
            // as `true` and hash like it, hiding a corrupted record.
            let full_node = match read_u8(&mut self.input)? {
                0 => false,
                1 => true,
                d => return Err(TraceCodecError::BadDiscriminant(d).into()),
            };
            let max_mem_util = f64::from_bits(read_u64(&mut self.input)?);
            let avg_cpu_util = f64::from_bits(read_u64(&mut self.input)?);
            let vm = VmSpec {
                id,
                cores,
                mem_gb,
                app_index,
                generation,
                full_node,
                max_mem_util,
                avg_cpu_util,
            };
            validate_vm(&vm)?;
            self.ids.push(vm.id);
            self.hasher.push_vm(&vm);
            vms.push(vm);
        }
        let mut times = Vec::with_capacity(event_capacity);
        for _ in 0..n_events {
            let t = f64::from_bits(read_u64(&mut self.input)?);
            if !t.is_finite() {
                return Err(TraceCodecError::Corrupt("event time is not finite").into());
            }
            if t < 0.0 {
                return Err(TraceCodecError::Corrupt("event time is negative").into());
            }
            times.push(t);
        }
        let mut kinds = Vec::with_capacity(event_capacity);
        for _ in 0..n_events {
            kinds.push(match read_u8(&mut self.input)? {
                0 => VmEventKind::Arrival,
                1 => VmEventKind::Departure,
                d => return Err(TraceCodecError::BadDiscriminant(d).into()),
            });
        }
        let mut events = Vec::with_capacity(event_capacity);
        for i in 0..n_events {
            let slot = read_u32(&mut self.input)?;
            let Some(&vm_id) = self.ids.get(slot as usize) else {
                return Err(TraceCodecError::Corrupt("event references an unknown VM").into());
            };
            let (time_s, kind) = (times[i], kinds[i]);
            let key = event_order_key(time_s, kind);
            if let Some(last) = self.last_key {
                if key < last {
                    return Err(TraceCodecError::Corrupt("events are not in replay order").into());
                }
            }
            self.last_key = Some(key);
            self.hasher.push_event(time_s, kind, vm_id);
            events.push(ChunkEvent { time_s, kind, slot });
        }
        if self.hasher.digest(self.duration_s) != expect_hash {
            return Err(TraceCodecError::Corrupt("chunk running hash mismatch").into());
        }
        Ok(TraceChunk { vms, events })
    }

    fn read_footer(&mut self) -> Result<(), TraceStreamError> {
        let total_vms = read_u64(&mut self.input)?;
        let total_events = read_u64(&mut self.input)?;
        let digest = (read_u64(&mut self.input)?, read_u64(&mut self.input)?);
        if total_vms != self.hasher.vms_pushed() || total_events != self.hasher.events_pushed() {
            return Err(TraceCodecError::Corrupt("footer totals mismatch").into());
        }
        if digest != self.hasher.digest(self.duration_s) {
            return Err(TraceCodecError::Corrupt("footer digest mismatch").into());
        }
        if self.ids.is_empty() {
            return Err(TraceCodecError::Corrupt("trace has no VMs").into());
        }
        let mut sorted = self.ids.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(TraceCodecError::Corrupt("duplicate VM ids").into());
        }
        self.footer = Some(((total_vms, total_events), digest));
        Ok(())
    }
}

impl<W: Write> fmt::Debug for TraceChunkWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceChunkWriter")
            .field("duration_s", &self.duration_s)
            .field("chunk_events", &self.chunk_events)
            .field("vms_pushed", &self.hasher.vms_pushed())
            .field("events_pushed", &self.hasher.events_pushed())
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl<R: BufRead> fmt::Debug for TraceChunkReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceChunkReader")
            .field("duration_s", &self.duration_s)
            .field("vms_read", &self.hasher.vms_pushed())
            .field("events_read", &self.hasher.events_pushed())
            .field("footer", &self.footer)
            .finish_non_exhaustive()
    }
}

/// Lexicographic replay-order key for an event: time (non-negative
/// finite f64 bit order equals numeric order), then departures before
/// arrivals.
fn event_order_key(time_s: f64, kind: VmEventKind) -> (u64, u8) {
    let dep_first = match kind {
        VmEventKind::Departure => 0,
        VmEventKind::Arrival => 1,
    };
    (time_s.to_bits(), dep_first)
}

/// Encodes a materialized [`Trace`] into the chunked format, returning
/// the final content digest (equal to `trace.content_hash()`).
///
/// VMs are emitted in [`Trace::vms`] order, interleaved with the event
/// stream so a VM appears no later than its first referencing event's
/// chunk wherever the trace's slot order permits.
///
/// # Errors
///
/// I/O failure, or [`TraceCodecError`] for traces the validating
/// constructor would reject.
pub fn write_chunks<W: Write>(
    trace: &Trace,
    out: W,
    chunk_events: usize,
) -> Result<(u64, u64), TraceStreamError> {
    let mut w = TraceChunkWriter::new(out, trace.duration_s(), chunk_events)?;
    let mut next_vm = 0usize;
    for (e, slot) in trace.events().iter().zip(trace.event_slots()) {
        while next_vm <= slot as usize {
            w.push_vm(&trace.vms()[next_vm])?;
            next_vm += 1;
        }
        w.push_event(e.time_s, e.kind, slot)?;
    }
    // VMs never referenced by an event still belong to the trace.
    for vm in &trace.vms()[next_vm..] {
        w.push_vm(vm)?;
    }
    w.finish()
}

/// Decodes a chunked stream into a materialized [`Trace`] (through the
/// same [`Trace::try_new`] gate as hand-built traces).
///
/// # Errors
///
/// I/O failure, or [`TraceCodecError`] for corrupt streams.
pub fn decode_chunks<R: BufRead>(input: R) -> Result<Trace, TraceStreamError> {
    let mut reader = TraceChunkReader::new(input)?;
    let mut vms = Vec::new();
    let mut events = Vec::new();
    while let Some(chunk) = reader.next_chunk()? {
        vms.extend(chunk.vms);
        events.extend(chunk.events.iter().map(|e| VmEvent {
            time_s: e.time_s,
            kind: e.kind,
            vm_id: reader.ids()[e.slot as usize],
        }));
    }
    let trace = Trace::try_new(reader.duration_s(), vms, events)?;
    debug_assert_eq!(Some(trace.content_hash()), reader.content_hash());
    Ok(trace)
}

/// Primitive big-endian readers over [`Read`] (the byte order the
/// writer uses for every field).
fn read_u8<R: Read>(r: &mut R) -> Result<u8, std::io::Error> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u16<R: Read>(r: &mut R) -> Result<u16, std::io::Error> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_be_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, std::io::Error> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_be_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, std::io::Error> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_be_bytes(b))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

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
            vec![vm(0, 4), vm(1, 8), vm(2, 2)],
            vec![
                VmEvent { time_s: 10.0, kind: VmEventKind::Arrival, vm_id: 0 },
                VmEvent { time_s: 20.0, kind: VmEventKind::Arrival, vm_id: 1 },
                VmEvent { time_s: 100.0, kind: VmEventKind::Departure, vm_id: 0 },
                VmEvent { time_s: 100.0, kind: VmEventKind::Arrival, vm_id: 2 },
                VmEvent { time_s: 900.0, kind: VmEventKind::Departure, vm_id: 2 },
            ],
        )
    }

    fn encode_chunked(t: &Trace, chunk_events: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        write_chunks(t, &mut buf, chunk_events).unwrap();
        buf
    }

    #[test]
    fn roundtrip_at_every_chunk_size() {
        let t = sample_trace();
        for chunk_events in 1..=6 {
            let buf = encode_chunked(&t, chunk_events);
            let decoded = decode_chunks(&buf[..]).unwrap();
            assert_eq!(t, decoded, "chunk_events={chunk_events}");
            // Re-encoding at the same chunk size is bitwise stable.
            assert_eq!(buf, encode_chunked(&decoded, chunk_events));
        }
    }

    #[test]
    fn final_digest_matches_in_memory_content_hash() {
        let t = sample_trace();
        let mut buf = Vec::new();
        let digest = write_chunks(&t, &mut buf, 2).unwrap();
        assert_eq!(digest, t.content_hash());
        let mut reader = TraceChunkReader::new(&buf[..]).unwrap();
        while reader.next_chunk().unwrap().is_some() {}
        assert_eq!(reader.content_hash(), Some(t.content_hash()));
        assert_eq!(reader.totals(), Some((t.vms().len() as u64, t.events().len() as u64)));
    }

    #[test]
    fn rejects_foreign_and_truncated_streams() {
        assert!(matches!(
            TraceChunkReader::new(&b"nope-not-a-trace"[..]).unwrap_err(),
            TraceStreamError::Codec(TraceCodecError::BadMagic)
        ));
        let full = encode_chunked(&sample_trace(), 2);
        for cut in 0..full.len() {
            let mut reader = match TraceChunkReader::new(&full[..cut]) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let result = loop {
                match reader.next_chunk() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            assert!(result.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = encode_chunked(&sample_trace(), 2);
        buf[4] = 9;
        buf[5] = 9;
        assert!(matches!(
            TraceChunkReader::new(&buf[..]).unwrap_err(),
            TraceStreamError::Codec(TraceCodecError::BadVersion(_))
        ));
    }

    #[test]
    fn corruption_is_caught_at_chunk_granularity() {
        // Flip one byte inside the first chunk's VM block; the first
        // chunk's running hash must already mismatch (no need to reach
        // the footer).
        let buf = encode_chunked(&sample_trace(), 2);
        let mut corrupt = buf.clone();
        // Header is 14 bytes; chunk header is 25; first VM id starts at 39.
        corrupt[39 + 7] ^= 0x01;
        let mut reader = TraceChunkReader::new(&corrupt[..]).unwrap();
        let err = reader.next_chunk().unwrap_err();
        assert!(
            matches!(
                err,
                TraceStreamError::Codec(TraceCodecError::Corrupt("chunk running hash mismatch"))
            ),
            "{err}"
        );
    }

    #[test]
    fn inflated_chunk_counts_fail_typed_instead_of_preallocating() {
        // The chunk header follows the 14-byte stream header and its
        // 1-byte tag: n_vms at bytes 15..19, n_events at 19..23. The
        // chunk hash is checked only after the whole chunk is read, so a
        // count of u32::MAX must not size an allocation before then.
        let buf = encode_chunked(&sample_trace(), 2);
        for offset in [15usize, 19] {
            let mut corrupt = buf.clone();
            corrupt[offset..offset + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            let mut reader = TraceChunkReader::new(&corrupt[..]).unwrap();
            let result = loop {
                match reader.next_chunk() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            assert!(
                matches!(result, Err(TraceStreamError::Codec(_))),
                "offset {offset}: {result:?}"
            );
        }
    }

    #[test]
    fn writer_rejects_out_of_order_events_and_unknown_slots() {
        let mut w = TraceChunkWriter::new(Vec::new(), 100.0, 8).unwrap();
        let slot = w.push_vm(&vm(0, 4)).unwrap();
        assert_eq!(slot, 0);
        // Unknown slot.
        assert!(w.push_event(1.0, VmEventKind::Arrival, 7).is_err());
        w.push_event(5.0, VmEventKind::Arrival, 0).unwrap();
        // Time going backwards.
        assert!(w.push_event(4.0, VmEventKind::Departure, 0).is_err());
        // Arrival-then-departure at the same instant violates
        // departures-first replay order.
        let mut w2 = TraceChunkWriter::new(Vec::new(), 100.0, 8).unwrap();
        w2.push_vm(&vm(0, 4)).unwrap();
        w2.push_event(5.0, VmEventKind::Arrival, 0).unwrap();
        assert!(w2.push_event(5.0, VmEventKind::Departure, 0).is_err());
        // Departure-then-arrival at the same instant is fine.
        let mut w3 = TraceChunkWriter::new(Vec::new(), 100.0, 8).unwrap();
        w3.push_vm(&vm(0, 4)).unwrap();
        w3.push_vm(&vm(1, 4)).unwrap();
        w3.push_event(2.0, VmEventKind::Arrival, 0).unwrap();
        w3.push_event(5.0, VmEventKind::Departure, 0).unwrap();
        w3.push_event(5.0, VmEventKind::Arrival, 1).unwrap();
        w3.finish().unwrap();
    }

    #[test]
    fn writer_rejects_empty_and_duplicate_id_traces() {
        let w = TraceChunkWriter::new(Vec::new(), 100.0, 8).unwrap();
        assert!(matches!(
            w.finish().unwrap_err(),
            TraceStreamError::Codec(TraceCodecError::Corrupt("trace has no VMs"))
        ));
        let mut w = TraceChunkWriter::new(Vec::new(), 100.0, 8).unwrap();
        w.push_vm(&vm(7, 4)).unwrap();
        w.push_vm(&vm(7, 8)).unwrap();
        assert!(matches!(
            w.finish().unwrap_err(),
            TraceStreamError::Codec(TraceCodecError::Corrupt("duplicate VM ids"))
        ));
        // Invalid horizon and VM records are rejected up front.
        assert!(TraceChunkWriter::new(Vec::new(), f64::NAN, 8).is_err());
        let mut w = TraceChunkWriter::new(Vec::new(), 100.0, 8).unwrap();
        assert!(w.push_vm(&vm(0, 0)).is_err(), "zero-core VM");
    }

    #[test]
    fn unreferenced_and_permuted_vms_roundtrip() {
        // VM ids deliberately permuted against slot order, one VM never
        // referenced by any event.
        let t = Trace::new(
            50.0,
            vec![vm(2, 4), vm(0, 8), vm(9, 2)],
            vec![
                VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: 0 },
                VmEvent { time_s: 3.0, kind: VmEventKind::Departure, vm_id: 0 },
            ],
        );
        for chunk_events in 1..=3 {
            let buf = encode_chunked(&t, chunk_events);
            assert_eq!(decode_chunks(&buf[..]).unwrap(), t);
        }
        assert_eq!(write_chunks(&t, Vec::new(), 2).unwrap(), t.content_hash());
    }

    #[test]
    fn running_hash_is_prefix_digest() {
        // Each chunk's header hash equals the content hash of the trace
        // truncated to that chunk's prefix — the property that lets a
        // consumer resume or verify mid-stream.
        let t = sample_trace();
        let buf = encode_chunked(&t, 2);
        let mut reader = TraceChunkReader::new(&buf[..]).unwrap();
        let mut vms: Vec<VmSpec> = Vec::new();
        let mut events: Vec<VmEvent> = Vec::new();
        let mut hasher = TraceHasher::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            for v in &chunk.vms {
                hasher.push_vm(v);
                vms.push(*v);
            }
            for e in &chunk.events {
                let vm_id = reader.ids()[e.slot as usize];
                hasher.push_event(e.time_s, e.kind, vm_id);
                events.push(VmEvent { time_s: e.time_s, kind: e.kind, vm_id });
            }
            let prefix = Trace::new(t.duration_s(), vms.clone(), events.clone());
            assert_eq!(hasher.digest(t.duration_s()), prefix.content_hash());
        }
    }

    #[test]
    fn error_display_and_source_are_informative() {
        let e = TraceStreamError::from(TraceCodecError::BadMagic);
        assert!(e.to_string().contains("codec"));
        let io = TraceStreamError::Io(std::io::Error::other("disk"));
        assert!(io.to_string().contains("I/O"));
        use std::error::Error;
        assert!(io.source().is_some());
        // UnexpectedEof maps onto the codec's Truncated, everything
        // else stays an I/O error.
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(
            TraceStreamError::from(eof),
            TraceStreamError::Codec(TraceCodecError::Truncated)
        ));
    }
}
