//! The four workloads: inputs made from the seed, one cold evaluation
//! per iteration through the public pipeline, and the same evaluation
//! taken apart into spans around each crate's public calls.

use crate::spans::{SpanId, Tracer};
use gsf_carbon::component::ComponentClass;
use gsf_carbon::datasets::open_source;
use gsf_carbon::units::CarbonIntensity;
use gsf_carbon::{CarbonError, ServerSpec};
use gsf_cluster::parallel::{default_workers, map_parallel};
use gsf_cluster::sharded::replay_sharded;
use gsf_cluster::sizing::{
    right_size_baseline_only_prepared, right_size_mixed_prepared, AvailabilitySlo, FaultInjection,
};
use gsf_core::{
    CacheStats, EvalContext, GreenSkuDesign, GsfPipeline, PipelineConfig, PipelineOutcome,
    SizingOutcome, VmRouter,
};
use gsf_maintenance::{ComponentAfrs, FaultModel, FaultTopology, FipPolicy, PoolDevices};
use gsf_stats::rng::SeedFactory;
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultPlan, FaultSummary, PlacementRequest, PreparedTrace,
    PreparedTraceBuilder, ServerShape, ShardedSim, SimOutcome, VmTransform,
};
use gsf_workloads::{
    Trace, TraceChunkReader, TraceGenerator, TraceParams, VmSpec, DEFAULT_CHUNK_EVENTS,
};
use std::fmt;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One cold GreenSKU-Full evaluation of the 24k-VM fleet trace.
    Size24k,
    /// A 16-point grid-intensity savings sweep over the same trace.
    Sweep16,
    /// A 12k-VM fleet trace sized with rack-correlated faults, repair and
    /// an SLO.
    Faults12k,
    /// A ~250k-VM two-week trace streamed from disk and replayed.
    Stream250k,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Size24k, Workload::Sweep16, Workload::Faults12k, Workload::Stream250k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Size24k => "size24k",
            Workload::Sweep16 => "sweep16",
            Workload::Faults12k => "faults12k",
            Workload::Stream250k => "stream250k",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a small one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// ~500-VM fleet trace and ~10k-VM stream.
    Smoke,
}

/// A failed set-up or iteration, as a message.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

// No `std::error::Error` impl, so every error type converts with `?`.
impl<E: std::error::Error> From<E> for BenchError {
    fn from(e: E) -> Self {
        BenchError(e.to_string())
    }
}

/// The seed whose output digests are pinned in [`golden_digest`].
pub(crate) const GOLDEN_SEED: u64 = 2024;

/// Digest of each workload's output at [`GOLDEN_SEED`] and full scale.
/// The values it hashes are listed in the benchmark's README.
pub(crate) fn golden_digest(workload: Workload) -> u64 {
    match workload {
        Workload::Size24k => 0x9ddc_e37d_b94d_e6a5,
        Workload::Sweep16 => 0x70bf_619e_c1d2_811f,
        Workload::Faults12k => 0x652a_11e8_66d5_926b,
        Workload::Stream250k => 0x70e5_90c8_1a4f_e0b7,
    }
}

/// Worker threads for the parallel sweep and the sharded replay: two,
/// or one on a single-core machine, so load never exceeds the cores.
fn workers() -> usize {
    default_workers().min(2)
}

/// Shards of the stream workload's sharded replay.
const STREAM_SHARDS: usize = 4;
/// Trace index of the stream: the same trace the replay ablations use.
const STREAM_INDEX: u64 = 9;

/// The sweep's grid carbon intensities, kg CO2e/kWh, from 0.02 to 0.50:
/// four in each of the four ranges that route GreenSKU-Full VMs alike
/// (boundaries near 0.030, 0.235 and 0.307). With two workers taking
/// points in order, both start every range's first sizing search at
/// once, so an iteration does 8 searches for 4 memo entries, or 7 when
/// one worker falls a whole search behind; a grid with a one-point range
/// lets that count vary more.
fn sweep_intensities() -> Vec<f64> {
    vec![
        0.02, 0.0225, 0.025, 0.0275, 0.05, 0.10, 0.15, 0.20, 0.24, 0.26, 0.28, 0.30, 0.35, 0.40,
        0.45, 0.50,
    ]
}

/// The in-memory workloads' trace. At full scale it is the fleet
/// fixture, ~24k VMs whose mixed sizing lands above 1000 servers; the
/// fault workload takes half the arrivals, which keeps its iteration
/// near `Size24k`'s in length, so the fastest of a run's iterations
/// stays as steady.
fn fleet_trace(workload: Workload, seed: u64, scale: Scale) -> Trace {
    let (params, index) = match scale {
        Scale::Full => (
            TraceParams {
                duration_hours: 24.0,
                arrivals_per_hour: if workload == Workload::Faults12k { 500.0 } else { 1000.0 },
                size_classes: vec![(8, 0.4), (16, 0.3), (32, 0.2), (64, 0.1)],
                mem_per_core_classes: vec![(4.0, 0.6), (8.0, 0.4)],
                ..TraceParams::default()
            },
            2,
        ),
        Scale::Smoke => (
            TraceParams { duration_hours: 12.0, arrivals_per_hour: 40.0, ..TraceParams::default() },
            0,
        ),
    };
    TraceGenerator::new(params).generate(&SeedFactory::new(seed), index)
}

fn stream_params(scale: Scale) -> TraceParams {
    TraceParams {
        duration_hours: 14.0 * 24.0,
        arrivals_per_hour: match scale {
            // A quarter of the replay ablations' 3000/h, so that a run
            // holds ~25 iterations rather than ~6.
            Scale::Full => 750.0,
            Scale::Smoke => 30.0,
        },
        size_classes: vec![(8, 0.4), (16, 0.3), (32, 0.2), (64, 0.1)],
        mem_per_core_classes: vec![(4.0, 0.6), (8.0, 0.4)],
        ..TraceParams::default()
    }
}

/// Seed of `Faults12k`'s fault plans: the CLI's default `--fault-seed`.
/// It stays fixed while the trace follows the run's seed, so the fault
/// draws add no seed-to-seed change in work to the host's own noise.
const FAULT_SEED: u64 = 7;

/// The pipeline settings of `workload`; only `Faults12k` departs from
/// the defaults (fault-free, BestFit, one shard).
fn pipeline_config(workload: Workload) -> Result<PipelineConfig, BenchError> {
    let mut config = PipelineConfig::default();
    if workload == Workload::Faults12k {
        config.faults = FaultModel::new(
            ComponentAfrs::paper(),
            FipPolicy { effectiveness: 0.75 },
            30.0,
            1.0,
            1.0 / 32.0,
            1.0 / 16.0,
            3,
            FAULT_SEED,
        )?
        .with_topology(FaultTopology::rack(16))?
        .with_repair_days(2.0)?;
        config.availability_slo = Some(600.0);
    }
    Ok(config)
}

/// A synthesized chunked trace file, removed when dropped.
pub struct StreamFile {
    path: PathBuf,
    bytes: u64,
}

impl Drop for StreamFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Where a workload's trace lives.
pub enum Source {
    Memory(Trace),
    Stream(StreamFile),
}

/// Everything a workload's iterations read.
pub struct Input {
    pub workload: Workload,
    pub design: GreenSkuDesign,
    pub config: PipelineConfig,
    pub source: Source,
}

/// Makes `workload`'s inputs from `seed`: the trace (in memory, or
/// streamed to a file under `work_dir`), plus the fresh-context
/// assessments and router every cold evaluation starts with.
pub fn setup(
    workload: Workload,
    seed: u64,
    scale: Scale,
    work_dir: &Path,
) -> Result<Input, BenchError> {
    let design = GreenSkuDesign::full();
    let config = pipeline_config(workload)?;
    std::hint::black_box(VmRouter::with_context(
        &EvalContext::new(),
        config.carbon_params,
        &design,
    )?);
    let source = match workload {
        Workload::Stream250k => Source::Stream(synthesize(seed, scale, work_dir)?),
        _ => Source::Memory(fleet_trace(workload, seed, scale)),
    };
    Ok(Input { workload, design, config, source })
}

fn synthesize(seed: u64, scale: Scale, work_dir: &Path) -> Result<StreamFile, BenchError> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    fs::create_dir_all(work_dir)?;
    let name = format!(
        "stream-{}-{seed}-{}.gst",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    );
    // Owned before the file exists, so a failed write still removes it.
    let mut file = StreamFile { path: work_dir.join(name), bytes: 0 };
    let mut out = BufWriter::new(File::create(&file.path)?);
    TraceGenerator::new(stream_params(scale)).synthesize_streamed(
        &SeedFactory::new(seed),
        STREAM_INDEX,
        &mut out,
        DEFAULT_CHUNK_EVENTS,
    )?;
    out.flush()?;
    file.bytes = fs::metadata(&file.path)?.len();
    Ok(file)
}

/// What one iteration produced: a digest of its outputs, the same in
/// words, and the trace events it evaluated (events × evaluations).
#[derive(Debug)]
pub(crate) struct Outcome {
    pub(crate) digest: u64,
    pub(crate) summary: String,
    pub(crate) events: u64,
}

/// One iteration through the public entry points, in a fresh context.
pub(crate) fn run_plain(input: &Input) -> Result<Outcome, BenchError> {
    match &input.source {
        Source::Memory(trace) => {
            let pipeline =
                GsfPipeline::with_context(input.config.clone(), Arc::new(EvalContext::new()));
            if input.workload == Workload::Sweep16 {
                let points = pipeline.savings_sweep_with_workers(
                    &input.design,
                    trace,
                    &sweep_intensities(),
                    workers(),
                )?;
                Ok(sweep_outcome(&points, trace))
            } else {
                Ok(evaluation_outcome(&pipeline.evaluate(&input.design, trace)?, trace))
            }
        }
        Source::Stream(file) => stream_pass(input, file, &Tracer::off(), 0).map(|(o, _)| o),
    }
}

/// A traced iteration's outcome plus the counters the layers report.
pub(crate) struct Traced {
    pub(crate) outcome: Outcome,
    pub(crate) cache: CacheStats,
    pub(crate) faults: FaultSummary,
    pub(crate) decoded_bytes: u64,
}

/// Name of the span around one whole iteration.
pub const ROOT: &str = "iteration";

/// One iteration taken apart into spans. Its outcome digest equals
/// [`run_plain`]'s, which the caller checks.
pub(crate) fn run_traced(input: &Input, tracer: &Tracer) -> Result<Traced, BenchError> {
    tracer.span(0, ROOT, |root| match &input.source {
        Source::Memory(trace) => {
            let ctx = Arc::new(EvalContext::new());
            if input.workload == Workload::Sweep16 {
                let intensities = sweep_intensities();
                let outcomes = map_parallel(&intensities, workers(), |_, &ci| {
                    tracer.span(root, "core.point", |point| {
                        traced_evaluation(
                            input,
                            trace,
                            &ctx,
                            tracer,
                            point,
                            CarbonIntensity::new(ci),
                        )
                    })
                })
                .into_iter()
                .collect::<Result<Vec<_>, _>>()?;
                let points: Vec<(f64, f64)> = intensities
                    .iter()
                    .zip(&outcomes)
                    .map(|(&ci, o)| (ci, o.cluster_savings))
                    .collect();
                Ok(Traced {
                    outcome: sweep_outcome(&points, trace),
                    cache: ctx.stats(),
                    faults: FaultSummary::default(),
                    decoded_bytes: 0,
                })
            } else {
                let ci = input.config.carbon_params.carbon_intensity;
                let o = traced_evaluation(input, trace, &ctx, tracer, root, ci)?;
                Ok(Traced {
                    outcome: evaluation_outcome(&o, trace),
                    cache: ctx.stats(),
                    faults: o.faults,
                    decoded_bytes: 0,
                })
            }
        }
        Source::Stream(file) => {
            let (outcome, cache) = stream_pass(input, file, tracer, root)?;
            Ok(Traced {
                outcome,
                cache,
                faults: FaultSummary::default(),
                decoded_bytes: file.bytes,
            })
        }
    })
}

/// `GsfPipeline::evaluate_at` as its public calls, each in a span: the
/// assessments and router of the pipeline's set-up, the sizing memo
/// around both prepared plans, both searches, the growth buffer, the
/// fault plan and the final replay. The returned outcome comes from the
/// pipeline re-entered on the now-warm memo (span `core.finish`), so a
/// digest equal to [`run_plain`]'s shows this decomposition computed
/// exactly what the pipeline computes.
pub fn traced_evaluation(
    input: &Input,
    trace: &Trace,
    ctx: &Arc<EvalContext>,
    tracer: &Tracer,
    parent: SpanId,
    ci: CarbonIntensity,
) -> Result<PipelineOutcome, BenchError> {
    let (config, design) = (&input.config, &input.design);
    let params = config.carbon_params.with_carbon_intensity(ci);
    let (green, baselines) = tracer.span(parent, "carbon.assess", |_| {
        Ok::<_, CarbonError>((ctx.assess(&params, &design.carbon)?, ctx.baselines(&params)?))
    })?;
    let (router, signature) = tracer.span(parent, "core.router", |_| {
        let router = VmRouter::from_assessments(&green, &baselines, design);
        let signature = router.decision_signature();
        (router, signature)
    });
    let (baseline_shape, green_shape) = shapes(design);
    let mut fault_signature = config.faults.signature();
    if let Some(budget) = config.availability_slo {
        fault_signature.push(1);
        fault_signature.push(budget.to_bits());
    }
    let hash = tracer.span(parent, "workloads.hash", |_| trace.content_hash());
    ctx.sizing_hashed(
        hash,
        &signature,
        baseline_shape,
        green_shape,
        config.policy,
        config.buffer.capacity_fraction,
        &fault_signature,
        config.shards,
        || {
            let events = trace.events().len() as u64;
            let prepare = |signature: &[u64], transform: &VmTransform<'_>| {
                let hash = tracer.span(parent, "workloads.hash", |_| trace.content_hash());
                ctx.prepared_by_hash(hash, signature, || {
                    tracer.span_with_work(parent, "vmalloc.prepare", |_| {
                        (PreparedTrace::new(trace, transform), events)
                    })
                })
            };
            let prepared = prepare(&signature, &|vm| router.request(vm));
            let prepared_baseline = prepare(&[], &PlacementRequest::baseline_only);
            size_and_replay(
                input,
                tracer,
                parent,
                &prepared,
                &prepared_baseline,
                trace.duration_s(),
            )
        },
    )?;
    Ok(tracer.span(parent, "core.finish", |_| {
        GsfPipeline::with_context(config.clone(), Arc::clone(ctx)).evaluate_at(design, trace, ci)
    })?)
}

/// Both sizing searches and the final replay, as the pipeline's
/// unsharded `size_and_replay` runs them.
fn size_and_replay(
    input: &Input,
    tracer: &Tracer,
    parent: SpanId,
    prepared: &PreparedTrace,
    prepared_baseline: &PreparedTrace,
    duration_s: f64,
) -> Result<SizingOutcome, BenchError> {
    let config = &input.config;
    let (baseline_shape, green_shape) = shapes(&input.design);
    let injection = FaultInjection {
        model: &config.faults,
        baseline_devices: devices(&open_source::baseline_gen3()),
        green_devices: devices(&input.design.carbon),
        slo: config.availability_slo.map(|m| AvailabilitySlo { max_vm_minutes_lost: m }),
    };
    let faults = (!config.faults.is_none()).then_some(&injection);
    let n0 = tracer.span(parent, "cluster.size_baseline", |_| {
        right_size_baseline_only_prepared(prepared_baseline, baseline_shape, config.policy, faults)
    })?;
    let plan = tracer.span(parent, "cluster.size_mixed", |_| {
        right_size_mixed_prepared(
            prepared,
            prepared_baseline,
            baseline_shape,
            green_shape,
            config.policy,
            faults,
        )
    })?;
    let buffered = tracer.span(parent, "cluster.buffer", |_| {
        config.buffer.apply(&plan, baseline_shape.cores, green_shape.cores)
    });
    let cluster = ClusterConfig {
        baseline_count: buffered.baseline,
        baseline_shape,
        green_count: buffered.green,
        green_shape,
    };
    let fault_plan = faults.map(|injection| {
        tracer.span_with_work(parent, "maintenance.fault_plan", |_| {
            let plan = injection.plan_for(&cluster, duration_s);
            let events = plan.len() as u64;
            (plan, events)
        })
    });
    let (replay, faults) = tracer.span_with_work(parent, "vmalloc.replay", |_| {
        let mut sim = AllocationSim::new(cluster, config.policy);
        let result = match &fault_plan {
            None => (sim.replay_prepared(prepared), FaultSummary::default()),
            Some(plan) => sim.replay_prepared_faulted(prepared, plan),
        };
        (result, prepared.event_count() as u64)
    });
    Ok(SizingOutcome { baseline_only: n0, plan, replay, faults })
}

/// The baseline (Gen3) and GreenSKU server shapes, as the pipeline
/// derives them.
fn shapes(design: &GreenSkuDesign) -> (ServerShape, ServerShape) {
    let green =
        ServerShape { cores: design.carbon.cores(), mem_gb: design.carbon.memory_capacity().get() };
    (ServerShape::baseline_gen3(), green)
}

fn devices(sku: &ServerSpec) -> PoolDevices {
    PoolDevices {
        dimms: sku.device_count(ComponentClass::Dram) + sku.device_count(ComponentClass::CxlDram),
        ssds: sku.device_count(ComponentClass::Ssd),
    }
}

/// The stream workload's iteration: one pass over the chunk file builds
/// the routed and the baseline-only plan, as `evaluate_streamed` does;
/// then the routed plan replays on a cluster sized from its peak demand,
/// unsharded and in `STREAM_SHARDS` shards. Sizing plays no part.
fn stream_pass(
    input: &Input,
    file: &StreamFile,
    tracer: &Tracer,
    root: SpanId,
) -> Result<(Outcome, CacheStats), BenchError> {
    let ctx = EvalContext::new();
    let params = input.config.carbon_params;
    let (green, baselines) = tracer.span(root, "carbon.assess", |_| {
        Ok::<_, CarbonError>((ctx.assess(&params, &input.design.carbon)?, ctx.baselines(&params)?))
    })?;
    let router = tracer.span(root, "core.router", |_| {
        VmRouter::from_assessments(&green, &baselines, &input.design)
    });
    let mut reader = TraceChunkReader::new(BufReader::new(File::open(&file.path)?))?;
    let routed_transform = |vm: &VmSpec| router.request(vm);
    let mut routed = PreparedTraceBuilder::new(reader.duration_s(), &routed_transform);
    let mut baseline =
        PreparedTraceBuilder::new(reader.duration_s(), &PlacementRequest::baseline_only);
    while let Some(chunk) = tracer.span(root, "workloads.decode", |_| reader.next_chunk())? {
        tracer.span_with_work(root, "vmalloc.prepare", |_| {
            for vm in &chunk.vms {
                routed.push_vm(vm);
                baseline.push_vm(vm);
            }
            for e in &chunk.events {
                routed.push_event(e.time_s, e.kind, e.slot);
                baseline.push_event(e.time_s, e.kind, e.slot);
            }
            ((), 2 * chunk.events.len() as u64)
        });
    }
    let hash = reader
        .content_hash()
        .ok_or_else(|| BenchError("chunked trace ended without a footer".into()))?;
    let (routed, baseline) =
        tracer.span(root, "vmalloc.prepare", |_| (routed.finish(), baseline.finish()));

    let (baseline_shape, green_shape) = shapes(&input.design);
    let (peak_cores, peak_mem_gb) = routed.peak_demand();
    let servers = |shape: ServerShape, share: f64| {
        let by_cores = (peak_cores as f64 * share / f64::from(shape.cores)).ceil();
        let by_mem = (peak_mem_gb * share / shape.mem_gb).ceil();
        by_cores.max(by_mem) as u32 + 2
    };
    let cluster = ClusterConfig {
        baseline_count: servers(baseline_shape, 0.5),
        baseline_shape,
        green_count: servers(green_shape, 1.0),
        green_shape,
    };
    let events = routed.event_count() as u64;
    let policy = input.config.policy;
    let replay = tracer.span_with_work(root, "vmalloc.replay", |_| {
        (AllocationSim::new(cluster, policy).replay_prepared(&routed), events)
    });
    let (sharded, sharded_faults) = tracer.span_with_work(root, "vmalloc.replay_sharded", |_| {
        let mut sim = ShardedSim::new(cluster, policy, STREAM_SHARDS);
        (replay_sharded(&mut sim, &routed, &FaultPlan::empty(), workers()), events)
    });

    let mut d = Digest::default();
    d.words(&[
        routed.vm_count() as u64,
        events,
        baseline.event_count() as u64,
        hash.0,
        hash.1,
        u64::from(cluster.baseline_count),
        u64::from(cluster.green_count),
    ]);
    d.replay(&replay);
    d.replay(&sharded);
    d.faults(&sharded_faults);
    let summary = format!(
        "{} VMs, {events} events, {}+{} servers, rejected {} unsharded / {} sharded",
        routed.vm_count(),
        cluster.baseline_count,
        cluster.green_count,
        replay.rejected,
        sharded.rejected,
    );
    Ok((Outcome { digest: d.0, summary, events }, ctx.stats()))
}

fn evaluation_outcome(o: &PipelineOutcome, trace: &Trace) -> Outcome {
    let mut d = Digest::default();
    d.words(&[
        u64::from(o.baseline_only_servers),
        u64::from(o.plan.baseline),
        u64::from(o.plan.green),
        o.cluster_savings.to_bits(),
    ]);
    d.replay(&o.replay);
    d.faults(&o.faults);
    let summary = format!(
        "plan {}+{}, n0 {}, savings {}, rejected {}, {} failures, {} displaced, {} evacuation failures",
        o.plan.baseline,
        o.plan.green,
        o.baseline_only_servers,
        o.cluster_savings,
        o.replay.rejected,
        o.faults.full_failures,
        o.faults.displaced,
        o.faults.evacuation_failures,
    );
    Outcome { digest: d.0, summary, events: trace.events().len() as u64 }
}

fn sweep_outcome(points: &[(f64, f64)], trace: &Trace) -> Outcome {
    let mut d = Digest::default();
    for &(ci, savings) in points {
        d.words(&[ci.to_bits(), savings.to_bits()]);
    }
    let savings: Vec<String> = points.iter().map(|(_, s)| format!("{s:.4}")).collect();
    Outcome {
        digest: d.0,
        summary: format!("savings {}", savings.join(" ")),
        events: trace.events().len() as u64 * points.len() as u64,
    }
}

/// FNV-1a over little-endian 64-bit words.
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn words(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    fn replay(&mut self, r: &SimOutcome) {
        let (b, g) = (&r.metrics.baseline, &r.metrics.green);
        self.words(&[
            r.rejected as u64,
            r.placed_green as u64,
            r.placed_baseline as u64,
            r.green_overflow as u64,
            r.metrics.snapshots() as u64,
            b.mean_core_density().to_bits(),
            b.mean_mem_density().to_bits(),
            g.mean_core_density().to_bits(),
            g.mean_mem_density().to_bits(),
        ]);
    }

    fn faults(&mut self, f: &FaultSummary) {
        let a = &f.availability;
        self.words(&[
            f.full_failures as u64,
            f.partial_degrades as u64,
            f.revivals as u64,
            f.displaced as u64,
            f.evacuated as u64,
            f.evacuation_failures as u64,
            f.cores_lost,
            f.mem_lost_gb.to_bits(),
            a.vm_seconds_lost.to_bits(),
            a.vm_seconds_served.to_bits(),
            a.max_simultaneous_displaced as u64,
            a.blast_radius_servers as u64,
            a.server_down_seconds.to_bits(),
        ]);
    }
}
