//! The end-to-end GSF pipeline: inputs (trace, carbon data, designs,
//! baselines, applications) → data-center emissions and savings.

use crate::adoption::AdoptionModel;
use crate::components::{DefaultMaintenance, DefaultPerformance, MaintenanceComponent};
use crate::context::EvalContext;
use crate::design::GreenSkuDesign;
use crate::error::GsfError;
use gsf_carbon::breakdown::{FleetCategory, FleetModel, DEFAULT_RENEWABLE_FRACTION};
use gsf_carbon::datasets::open_source;
use gsf_carbon::units::CarbonIntensity;
use gsf_carbon::{Assessment, ModelParams};
use gsf_cluster::{
    buffer::GrowthBufferPolicy,
    savings::savings_fraction,
    sharded::replay_sharded,
    sizing::{
        right_size, AvailabilitySlo, ClusterPlan, FaultInjection, MixedSearch, SizingRequest,
    },
};
use gsf_maintenance::{FaultModel, PoolDevices};
use gsf_vmalloc::{
    AllocationSim, AvailabilitySummary, ClusterConfig, FaultPlan, FaultSummary, PlacementPolicy,
    PlacementRequest, PreparedTrace, ServerShape, ShardedSim, SimOutcome,
};
use gsf_workloads::{
    catalog, ApplicationModel, FleetMix, ServerGeneration, Trace, TraceChunkReader, VmSpec,
};
use std::sync::Arc;

/// Pipeline configuration: the GSF inputs that are not the trace or the
/// design itself.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Carbon-model parameters (Table VI).
    pub carbon_params: ModelParams,
    /// VM placement policy (production: best-fit).
    pub policy: PlacementPolicy,
    /// Growth-buffer policy (baseline-only, per §V).
    pub buffer: GrowthBufferPolicy,
    /// The fleet model used to translate cluster savings into
    /// data-center savings.
    pub fleet: FleetModel,
    /// Renewables fraction of the data center.
    pub renewable_fraction: f64,
    /// Maintenance component (AFRs + Fail-In-Place); its out-of-service
    /// fraction inflates cluster sizes (the Fig. 6 maintenance → cluster
    /// sizing edge).
    pub maintenance: DefaultMaintenance,
    /// Fault-injection model. [`FaultModel::none`] (the default) is a
    /// strict identity: sizing, replay, and every outcome field are
    /// bit-for-bit what they were before fault injection existed. An
    /// enabled model injects server failures into every sizing probe
    /// and the final replay, so plans provision against failure-induced
    /// capacity loss. On a machine with two or more CPUs
    /// (`gsf_cluster::parallel::default_workers()`), an unsharded
    /// faulted search runs each probe beside the one its bisection asks
    /// next, on a helper thread; the outcome is the same on one CPU.
    pub faults: FaultModel,
    /// Availability SLO for fault-injected sizing, in VM-minutes of
    /// downtime per replay. `None` (the default) keeps the strict
    /// rule — every displaced VM must re-place within the evacuation
    /// pass budget. `Some(budget)` instead admits any cluster whose
    /// measured [`AvailabilitySummary::vm_minutes_lost`] stays within
    /// the budget, which lets repair-enabled fault models trade servers
    /// against bounded downtime. Ignored when fault injection is off.
    pub availability_slo: Option<f64>,
    /// Shard count for the replay engine. `<= 1` (the default) uses the
    /// unsharded engine bit-for-bit. `> 1` partitions every cluster into
    /// that many shards, routes each VM to a home shard by a stable hash
    /// (see `gsf_vmalloc::shard`), and replays shards on
    /// `gsf_cluster::parallel::default_workers()` threads — a *different*
    /// (deterministic) semantics from the unsharded engine, never a mere
    /// execution detail, which is why the sizing cache keys on it.
    pub shards: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            carbon_params: ModelParams::default_open_source(),
            policy: PlacementPolicy::BestFit,
            buffer: GrowthBufferPolicy::default_headroom(),
            fleet: FleetModel::azure_calibrated(),
            renewable_fraction: DEFAULT_RENEWABLE_FRACTION,
            maintenance: DefaultMaintenance::paper(),
            faults: FaultModel::none(),
            availability_slo: None,
            shards: 1,
        }
    }
}

/// What the pipeline produces for one (design, trace) evaluation.
///
/// Equality is exact (bitwise on the floating-point fields): the
/// pipeline is deterministic, so cached and uncached contexts — and any
/// worker count — must produce identical outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// The evaluated design's name.
    pub design: String,
    /// Right-sized all-baseline cluster (no buffer).
    pub baseline_only_servers: u32,
    /// All-baseline cluster including the growth buffer.
    pub baseline_only_buffered: u32,
    /// Right-sized mixed cluster (no buffer).
    pub plan: ClusterPlan,
    /// Mixed cluster including the (baseline-only) growth buffer.
    pub plan_buffered: ClusterPlan,
    /// Fraction of fleet core-hours adopting the GreenSKU vs Gen3.
    pub adoption_rate: f64,
    /// GreenSKU CO₂e per core (kg, at the configured carbon intensity).
    pub green_per_core: f64,
    /// Gen3 baseline CO₂e per core (kg).
    pub baseline_per_core: f64,
    /// Out-of-service fraction of baseline servers (maintenance
    /// component output).
    pub oos_baseline: f64,
    /// Out-of-service fraction of GreenSKU servers.
    pub oos_green: f64,
    /// Cluster-level carbon savings vs the all-baseline cluster.
    pub cluster_savings: f64,
    /// Data-center-level savings (cluster savings scaled by compute's
    /// share of DC emissions).
    pub dc_savings: f64,
    /// Allocation statistics from replaying the trace on the final
    /// buffered cluster.
    pub replay: SimOutcome,
    /// First-order expected fraction of cluster core capacity lost to
    /// failures over the fault model's horizon (0 when fault injection
    /// is disabled) — the failure analogue of the growth buffer's
    /// capacity fraction.
    pub expected_capacity_loss: f64,
    /// Fault-injection statistics from the final buffered replay
    /// (all-zero when fault injection is disabled).
    pub faults: FaultSummary,
    /// Availability accounting from the final buffered replay: VM-time
    /// lost to displacement, VM-time served, the displacement peak, and
    /// the blast radius of the widest correlated strike (all-zero when
    /// fault injection is disabled or the plan lands no faults).
    pub availability: AvailabilitySummary,
}

/// Routes VMs to pools: the adoption component packaged as the per-VM
/// placement transform the allocation simulator consumes.
///
/// Full-node VMs always go to baseline servers; VMs whose application
/// adopts the GreenSKU issue green-preferring requests scaled by the
/// application's scaling factor; everything else stays baseline-only.
pub struct VmRouter {
    adoption: AdoptionModel,
    perf: DefaultPerformance,
    apps: Vec<ApplicationModel>,
}

impl VmRouter {
    /// Builds a router for `design` under `params`, assessing the design
    /// and the Gen1–Gen3 baselines through a throwaway [`EvalContext`].
    ///
    /// Prefer [`Self::with_context`] when a shared context exists — the
    /// pipeline uses it so each SKU is assessed exactly once per
    /// parameter set instead of once per stage.
    ///
    /// # Errors
    ///
    /// Propagates carbon-assessment failures.
    pub fn new(params: ModelParams, design: &GreenSkuDesign) -> Result<Self, GsfError> {
        Self::with_context(&EvalContext::uncached(), params, design)
    }

    /// Builds a router for `design` under `params`, serving assessments
    /// from `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates carbon-assessment failures.
    pub fn with_context(
        ctx: &EvalContext,
        params: ModelParams,
        design: &GreenSkuDesign,
    ) -> Result<Self, GsfError> {
        let green = ctx.assess(&params, &design.carbon)?;
        let baselines = ctx.baselines(&params)?;
        Ok(Self::from_assessments(&green, &baselines, design))
    }

    /// Builds a router from already-computed assessments (no carbon
    /// model runs).
    pub fn from_assessments(
        green: &Assessment,
        baselines: &[(ServerGeneration, Arc<Assessment>)],
        design: &GreenSkuDesign,
    ) -> Self {
        let owned: Vec<(ServerGeneration, Assessment)> =
            baselines.iter().map(|(g, a)| (*g, (**a).clone())).collect();
        Self {
            adoption: AdoptionModel::from_assessments(green, &owned),
            perf: DefaultPerformance::new(design.perf.clone(), design.placement),
            apps: catalog::applications(),
        }
    }

    /// The placement request for one VM.
    pub fn request(&self, vm: &VmSpec) -> PlacementRequest {
        if vm.full_node {
            return PlacementRequest::baseline_only(vm);
        }
        let app = &self.apps[usize::from(vm.app_index) % self.apps.len()];
        match self.adoption.decide(&self.perf, app, vm.generation).factor() {
            Some(factor) => PlacementRequest::prefer_green(vm, factor),
            None => PlacementRequest::baseline_only(vm),
        }
    }

    /// The underlying adoption model.
    pub fn adoption(&self) -> &AdoptionModel {
        &self.adoption
    }

    /// Structural fingerprint of every placement decision this router
    /// can make: the scaling factor (or a baseline-only marker) for
    /// each (application, generation) pair, bit-exact.
    ///
    /// Two routers with equal signatures produce identical
    /// [`PlacementRequest`]s for every VM — [`Self::request`] depends
    /// only on `full_node`, `app_index`, and `generation` — so the
    /// signature keys the sizing memoization in [`EvalContext`].
    pub fn decision_signature(&self) -> Vec<u64> {
        // Real scaling factors are finite, so they never collide with
        // the NaN bit pattern used to mark baseline-only decisions.
        const BASELINE_ONLY: u64 = u64::MAX;
        let generations = [ServerGeneration::Gen1, ServerGeneration::Gen2, ServerGeneration::Gen3];
        let mut sig = Vec::with_capacity(self.apps.len() * generations.len() + 1);
        sig.push(self.apps.len() as u64);
        for app in &self.apps {
            for generation in generations {
                sig.push(match self.adoption.decide(&self.perf, app, generation).factor() {
                    Some(factor) => factor.to_bits(),
                    None => BASELINE_ONLY,
                });
            }
        }
        sig
    }

    /// Core-hour-weighted Gen3 adoption rate of the standard fleet mix.
    pub fn adoption_rate_gen3(&self) -> f64 {
        self.adoption.adoption_rate(&self.perf, &FleetMix::standard(), ServerGeneration::Gen3)
    }
}

/// Aggregated pipeline outcomes across a fleet of cluster traces (the
/// data-center view: many clusters, one design decision).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Per-trace outcomes, in input order.
    pub per_trace: Vec<PipelineOutcome>,
    /// Mean cluster-level savings across traces.
    pub mean_cluster_savings: f64,
    /// Minimum cluster-level savings across traces.
    pub min_cluster_savings: f64,
    /// Maximum cluster-level savings across traces.
    pub max_cluster_savings: f64,
    /// Mean data-center-level savings across traces.
    pub mean_dc_savings: f64,
}

/// Everything one evaluation derives from `(design, carbon intensity)`
/// before touching any trace data: assessments, the router, shapes,
/// device counts, and the cache-key signatures. Shared verbatim between
/// the in-memory and streamed paths so their cache keys — and therefore
/// their outcomes — cannot drift apart.
struct EvalSetup {
    router: VmRouter,
    green_a: Arc<Assessment>,
    gen3_a: Arc<Assessment>,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    baseline_devices: PoolDevices,
    green_devices: PoolDevices,
    decision_signature: Vec<u64>,
    fault_signature: Vec<u64>,
    slo: Option<AvailabilitySlo>,
}

/// The GSF pipeline.
pub struct GsfPipeline {
    config: PipelineConfig,
    ctx: Arc<EvalContext>,
}

impl GsfPipeline {
    /// Creates a pipeline with the standard application catalog and a
    /// fresh caching [`EvalContext`].
    pub fn new(config: PipelineConfig) -> Self {
        Self::with_context(config, Arc::new(EvalContext::new()))
    }

    /// Creates a pipeline sharing an existing evaluation context — use
    /// this to reuse assessments across pipelines (e.g. the experiments
    /// registry evaluating many designs under the same parameters), or
    /// pass [`EvalContext::uncached`] for the recompute-everything
    /// reference path.
    pub fn with_context(config: PipelineConfig, ctx: Arc<EvalContext>) -> Self {
        Self { config, ctx }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The shared evaluation context (cache statistics live here).
    pub fn context(&self) -> &Arc<EvalContext> {
        &self.ctx
    }

    /// Runs the full pipeline for one design and one trace.
    ///
    /// # Errors
    ///
    /// Returns a [`GsfError`] if carbon assessment fails or the trace
    /// cannot be hosted at the sizing bound.
    pub fn evaluate(
        &self,
        design: &GreenSkuDesign,
        trace: &Trace,
    ) -> Result<PipelineOutcome, GsfError> {
        self.evaluate_at(design, trace, self.config.carbon_params.carbon_intensity)
    }

    /// Runs the pipeline at an overridden grid carbon intensity (the
    /// Fig. 11/12 sweep re-invokes this per intensity: adoption
    /// decisions — and therefore cluster composition — legitimately
    /// depend on the grid).
    ///
    /// # Errors
    ///
    /// See [`Self::evaluate`].
    pub fn evaluate_at(
        &self,
        design: &GreenSkuDesign,
        trace: &Trace,
        ci: CarbonIntensity,
    ) -> Result<PipelineOutcome, GsfError> {
        let setup = self.setup(design, ci)?;
        let transform = |vm: &VmSpec| setup.router.request(vm);
        // Cluster sizing (§IV-D) and the final replay, memoized by the
        // routing decision table: sizing sees the carbon intensity only
        // through the router, so sweep points that route identically
        // share one run of the binary searches. The fault-model
        // signature is part of the key, so fault-injected and
        // fault-free evaluations never share an entry.
        let trace_hash = trace.content_hash();
        let sizing = self.ctx.sizing_hashed(
            trace_hash,
            &setup.decision_signature,
            setup.baseline_shape,
            setup.green_shape,
            self.config.policy,
            self.config.buffer.capacity_fraction,
            &setup.fault_signature,
            self.config.shards,
            || -> Result<crate::context::SizingOutcome, GsfError> {
                // Prepared replay plans, built only on a sizing-memo
                // miss and cached by (trace, decision table) — shared
                // with every other fault/buffer configuration of a
                // routing-identical sweep. The empty signature marks
                // the baseline-only plan; routed signatures always
                // start with the catalog length, so they never collide.
                let prepared =
                    self.ctx.prepared_by_hash(trace_hash, &setup.decision_signature, || {
                        PreparedTrace::new(trace, &transform)
                    });
                let prepared_baseline = self.ctx.prepared_by_hash(trace_hash, &[], || {
                    PreparedTrace::new(trace, &PlacementRequest::baseline_only)
                });
                self.size_and_replay(&setup, &prepared, &prepared_baseline, trace.duration_s())
            },
        )?;
        Ok(self.finish_outcome(design, &setup, &sizing))
    }

    /// Runs the full pipeline for one design against a chunked trace
    /// stream, never materializing the [`Trace`]: peak memory is
    /// O(chunk + prepared plans), independent of how the stream is
    /// produced.
    ///
    /// A single bounded-memory pass over the chunks builds both replay
    /// plans (routed and baseline-only) and verifies the stream's
    /// running content hash. The verified footer digest — pinned equal
    /// to [`Trace::content_hash`] — then keys the same sizing and
    /// prepared-plan caches as the in-memory path, so streamed and
    /// in-memory evaluations of identical content share cache entries
    /// and produce bit-identical outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`GsfError::TraceStream`] if the stream is truncated,
    /// corrupt, or fails hash verification; otherwise everything
    /// [`Self::evaluate`] returns.
    pub fn evaluate_streamed<R: std::io::BufRead>(
        &self,
        design: &GreenSkuDesign,
        reader: &mut TraceChunkReader<R>,
    ) -> Result<PipelineOutcome, GsfError> {
        self.evaluate_streamed_at(design, reader, self.config.carbon_params.carbon_intensity)
    }

    /// [`Self::evaluate_streamed`] at an overridden grid carbon
    /// intensity (see [`Self::evaluate_at`]).
    ///
    /// # Errors
    ///
    /// See [`Self::evaluate_streamed`].
    pub fn evaluate_streamed_at<R: std::io::BufRead>(
        &self,
        design: &GreenSkuDesign,
        reader: &mut TraceChunkReader<R>,
        ci: CarbonIntensity,
    ) -> Result<PipelineOutcome, GsfError> {
        let setup = self.setup(design, ci)?;
        let duration_s = reader.duration_s();
        // One pass, two plans: each verified chunk feeds the routed and
        // the baseline-only builder, so the stream is read exactly once
        // and never retained.
        let routed_transform = |vm: &VmSpec| setup.router.request(vm);
        let [routed, baseline] = PreparedTrace::from_chunk_stream(
            reader,
            [&routed_transform, &PlacementRequest::baseline_only],
        )?;
        let trace_hash = reader.content_hash().ok_or_else(|| {
            GsfError::InvalidConfig("chunked trace stream ended without a footer".into())
        })?;
        // Seed the prepared cache under the same keys the in-memory
        // path uses; if another evaluation already built these plans,
        // the freshly streamed copies are dropped in favor of the
        // cached (bit-identical) ones.
        let prepared =
            self.ctx.prepared_by_hash(trace_hash, &setup.decision_signature, move || routed);
        let prepared_baseline = self.ctx.prepared_by_hash(trace_hash, &[], move || baseline);
        let sizing = self.ctx.sizing_hashed(
            trace_hash,
            &setup.decision_signature,
            setup.baseline_shape,
            setup.green_shape,
            self.config.policy,
            self.config.buffer.capacity_fraction,
            &setup.fault_signature,
            self.config.shards,
            || self.size_and_replay(&setup, &prepared, &prepared_baseline, duration_s),
        )?;
        Ok(self.finish_outcome(design, &setup, &sizing))
    }

    /// Everything one evaluation derives from `(design, ci)` before
    /// touching any trace data.
    fn setup(&self, design: &GreenSkuDesign, ci: CarbonIntensity) -> Result<EvalSetup, GsfError> {
        let params = self.config.carbon_params.with_carbon_intensity(ci);
        // One assessment per SKU per parameter set: the router and the
        // emission accounting share the same cached assessments.
        let green_a = self.ctx.assess(&params, &design.carbon)?;
        let baseline_a = self.ctx.baselines(&params)?;
        let router = VmRouter::from_assessments(&green_a, &baseline_a, design);
        let gen3_a = Arc::clone(
            &baseline_a
                .iter()
                .find(|(g, _)| *g == ServerGeneration::Gen3)
                .ok_or_else(|| {
                    GsfError::InvalidConfig("Gen3 baseline assessment missing".to_string())
                })?
                .1,
        );

        let baseline_shape = ServerShape::baseline_gen3();
        let green_shape = ServerShape {
            cores: design.carbon.cores(),
            mem_gb: design.carbon.memory_capacity().get(),
        };

        // Device counts feed both the maintenance OOS fractions and the
        // fault model's per-pool server AFRs.
        use gsf_carbon::component::ComponentClass;
        let device_counts = |sku: &gsf_carbon::ServerSpec| {
            (
                sku.device_count(ComponentClass::Dram) + sku.device_count(ComponentClass::CxlDram),
                sku.device_count(ComponentClass::Ssd),
            )
        };
        let (b_dimms, b_ssds) = device_counts(&open_source::baseline_gen3());
        let (g_dimms, g_ssds) = device_counts(&design.carbon);

        let decision_signature = router.decision_signature();
        // The SLO changes which clusters the fault-injected searches
        // admit, so it joins the fault signature in the sizing key.
        // Appending (rather than always reserving a slot) keeps every
        // pre-SLO cache key bit-identical for the default `None`.
        let mut fault_signature = self.config.faults.signature();
        if let Some(budget) = self.config.availability_slo {
            fault_signature.push(1);
            fault_signature.push(budget.to_bits());
        }
        let slo = self.config.availability_slo.map(|m| AvailabilitySlo { max_vm_minutes_lost: m });
        Ok(EvalSetup {
            router,
            green_a,
            gen3_a,
            baseline_shape,
            green_shape,
            baseline_devices: PoolDevices { dimms: b_dimms, ssds: b_ssds },
            green_devices: PoolDevices { dimms: g_dimms, ssds: g_ssds },
            decision_signature,
            fault_signature,
            slo,
        })
    }

    /// Cluster sizing plus the final buffered replay, from
    /// already-prepared plans — the compute half of the sizing memo.
    /// Both evaluation paths funnel through it, so a streamed and an
    /// in-memory run execute the same searches on bit-identical plans.
    fn size_and_replay(
        &self,
        setup: &EvalSetup,
        prepared: &PreparedTrace,
        prepared_baseline: &PreparedTrace,
        duration_s: f64,
    ) -> Result<crate::context::SizingOutcome, GsfError> {
        let baseline_shape = setup.baseline_shape;
        let green_shape = setup.green_shape;
        let injection = FaultInjection {
            model: &self.config.faults,
            baseline_devices: setup.baseline_devices,
            green_devices: setup.green_devices,
            slo: setup.slo,
        };
        let faults = (!self.config.faults.is_none()).then_some(&injection);
        // Sharded probes replay on the workers; faulted unsharded
        // searches look one probe ahead on a second one. The result is
        // the same for any worker count; only `shards` changes what is
        // computed.
        let shards = self.config.shards;
        let workers = gsf_cluster::parallel::default_workers();
        let (n0, plan) = right_size(&SizingRequest {
            baseline: prepared_baseline,
            mixed: Some(MixedSearch { prepared, green_shape }),
            baseline_shape,
            policy: self.config.policy,
            faults,
            shards,
            workers,
        })?;
        let plan_buffered =
            self.config.buffer.apply(&plan, baseline_shape.cores, green_shape.cores);
        // Final replay on the buffered mixed cluster for packing stats
        // (fault-injected when a model is configured).
        let config = ClusterConfig {
            baseline_count: plan_buffered.baseline,
            baseline_shape,
            green_count: plan_buffered.green,
            green_shape,
        };
        let fault_plan =
            faults.map_or_else(FaultPlan::empty, |inj| inj.plan_for(&config, duration_s));
        let (replay, fault_summary) = if shards > 1 {
            let mut sim = ShardedSim::new(config, self.config.policy, shards);
            replay_sharded(&mut sim, prepared, &fault_plan, workers)
        } else {
            AllocationSim::new(config, self.config.policy)
                .replay_prepared_faulted(prepared, &fault_plan)
        };
        Ok(crate::context::SizingOutcome { baseline_only: n0, plan, replay, faults: fault_summary })
    }

    /// Maintenance, buffering, and emission accounting downstream of
    /// the sizing memo — pure arithmetic on the sizing outcome.
    fn finish_outcome(
        &self,
        design: &GreenSkuDesign,
        setup: &EvalSetup,
        sizing: &crate::context::SizingOutcome,
    ) -> PipelineOutcome {
        let n0 = sizing.baseline_only;
        let plan = sizing.plan;
        let baseline_shape = setup.baseline_shape;
        let green_shape = setup.green_shape;

        // Maintenance (§IV-B): out-of-service servers need spare
        // capacity; inflate each pool by its OOS fraction (Little's law
        // over post-FIP repair rates).
        let m = &self.config.maintenance;
        let oos_baseline = m
            .oos_fraction(m.repair_rate(setup.baseline_devices.dimms, setup.baseline_devices.ssds));
        let oos_green =
            m.oos_fraction(m.repair_rate(setup.green_devices.dimms, setup.green_devices.ssds));

        // Growth buffer: baseline-only on both sides.
        let baseline_plan = ClusterPlan { baseline: n0, green: 0 };
        let baseline_buffered =
            self.config.buffer.apply(&baseline_plan, baseline_shape.cores, green_shape.cores);
        let plan_buffered =
            self.config.buffer.apply(&plan, baseline_shape.cores, green_shape.cores);

        // Emissions of the two buffered clusters, inflated by the
        // out-of-service fractions (the expected spare capacity repairs
        // keep out of rotation — fractional, since the paper finds the
        // overhead negligible rather than a whole server per cluster).
        let oos_emissions = |plan: &ClusterPlan| {
            setup.gen3_a.total_per_server() * (f64::from(plan.baseline) * (1.0 + oos_baseline))
                + setup.green_a.total_per_server() * (f64::from(plan.green) * (1.0 + oos_green))
        };
        let mixed_emissions = oos_emissions(&plan_buffered);
        let baseline_emissions = oos_emissions(&baseline_buffered);
        let cluster_savings = savings_fraction(mixed_emissions, baseline_emissions);

        // DC-level: scale by compute servers' share of DC emissions.
        let compute_share = self
            .config
            .fleet
            .breakdown(self.config.renewable_fraction)
            .category_share(FleetCategory::ComputeServers);
        let dc_savings = cluster_savings * compute_share;

        // Expected failure-induced capacity loss over the fault horizon
        // (0.0 when fault injection is disabled), reported alongside
        // the growth buffer so operators can compare the two reserves.
        let expected_capacity_loss = self.config.faults.expected_capacity_loss(
            &ClusterConfig {
                baseline_count: plan_buffered.baseline,
                baseline_shape,
                green_count: plan_buffered.green,
                green_shape,
            },
            setup.baseline_devices,
            setup.green_devices,
        );

        let adoption_rate = setup.router.adoption_rate_gen3();
        PipelineOutcome {
            design: design.name().to_string(),
            baseline_only_servers: n0,
            baseline_only_buffered: baseline_buffered.baseline,
            plan,
            plan_buffered,
            adoption_rate,
            green_per_core: setup.green_a.total_per_core().get(),
            baseline_per_core: setup.gen3_a.total_per_core().get(),
            oos_baseline,
            oos_green,
            cluster_savings,
            dc_savings,
            expected_capacity_loss,
            availability: sizing.faults.availability,
            faults: sizing.faults,
            replay: sizing.replay.clone(),
        }
    }

    /// Evaluates `design` against many cluster traces in parallel and
    /// aggregates — the data-center roll-up behind the Fig. 12 headline
    /// (the paper replays 35 production traces; a single synthetic trace
    /// carries ±2-3 points of sizing noise that averaging removes).
    ///
    /// # Errors
    ///
    /// Fails if any trace fails to evaluate.
    pub fn evaluate_fleet(
        &self,
        design: &GreenSkuDesign,
        traces: &[Trace],
        workers: usize,
    ) -> Result<FleetOutcome, GsfError> {
        let results: Vec<Result<PipelineOutcome, GsfError>> =
            gsf_cluster::parallel::map_parallel(traces, workers, |_, trace| {
                self.evaluate(design, trace)
            });
        let per_trace: Vec<PipelineOutcome> = results.into_iter().collect::<Result<_, _>>()?;
        if per_trace.is_empty() {
            return Err(GsfError::InvalidConfig("no traces supplied".into()));
        }
        let savings: Vec<f64> = per_trace.iter().map(|o| o.cluster_savings).collect();
        let mean = savings.iter().sum::<f64>() / savings.len() as f64;
        let dc_mean = per_trace.iter().map(|o| o.dc_savings).sum::<f64>() / per_trace.len() as f64;
        Ok(FleetOutcome {
            mean_cluster_savings: mean,
            min_cluster_savings: savings.iter().cloned().fold(f64::INFINITY, f64::min),
            max_cluster_savings: savings.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            mean_dc_savings: dc_mean,
            per_trace,
        })
    }

    /// The Fig. 11/12 sweep: cluster savings of `design` across grid
    /// carbon intensities, evaluated on all available cores.
    ///
    /// # Errors
    ///
    /// See [`Self::evaluate`].
    pub fn savings_sweep(
        &self,
        design: &GreenSkuDesign,
        trace: &Trace,
        intensities: &[f64],
    ) -> Result<Vec<(f64, f64)>, GsfError> {
        self.savings_sweep_with_workers(
            design,
            trace,
            intensities,
            gsf_cluster::parallel::default_workers(),
        )
    }

    /// [`Self::savings_sweep`] with an explicit worker count. Results
    /// are in input order and identical for any worker count (each
    /// intensity's evaluation is independent and deterministic).
    ///
    /// # Errors
    ///
    /// See [`Self::evaluate`].
    pub fn savings_sweep_with_workers(
        &self,
        design: &GreenSkuDesign,
        trace: &Trace,
        intensities: &[f64],
        workers: usize,
    ) -> Result<Vec<(f64, f64)>, GsfError> {
        gsf_cluster::parallel::map_parallel(intensities, workers, |_, &ci| {
            self.evaluate_at(design, trace, CarbonIntensity::new(ci))
                .map(|o| (ci, o.cluster_savings))
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_stats::rng::SeedFactory;
    use gsf_workloads::{TraceGenerator, TraceParams};

    fn small_trace() -> Trace {
        // Big enough that ±1-server discretization stays below ~2 % of
        // cluster emissions, small enough to keep tests fast.
        TraceGenerator::new(TraceParams {
            duration_hours: 24.0,
            arrivals_per_hour: 80.0,
            ..TraceParams::default()
        })
        .generate(&SeedFactory::new(17), 0)
    }

    #[test]
    fn full_pipeline_produces_savings() {
        let pipeline = GsfPipeline::new(PipelineConfig::default());
        let outcome = pipeline.evaluate(&GreenSkuDesign::full(), &small_trace()).unwrap();
        assert!(outcome.plan.green > 0, "some GreenSKUs deployed");
        assert!(outcome.cluster_savings > 0.0, "savings {}", outcome.cluster_savings);
        assert!(outcome.cluster_savings < 0.5);
        assert!(outcome.dc_savings < outcome.cluster_savings);
        assert!(outcome.adoption_rate > 0.5);
        assert!(outcome.replay.no_rejections());
        assert!(outcome.green_per_core < outcome.baseline_per_core);
    }

    #[test]
    fn buffered_plans_no_smaller() {
        let pipeline = GsfPipeline::new(PipelineConfig::default());
        let o = pipeline.evaluate(&GreenSkuDesign::efficient(), &small_trace()).unwrap();
        assert!(o.plan_buffered.baseline >= o.plan.baseline);
        assert_eq!(o.plan_buffered.green, o.plan.green);
        assert!(o.baseline_only_buffered >= o.baseline_only_servers);
    }

    #[test]
    fn reuse_advantage_shrinks_with_carbon_intensity() {
        // Fig. 12 shape (open data): GreenSKU-Full's edge over
        // GreenSKU-Efficient comes from embodied savings, so it shrinks
        // as the grid gets dirtier (with the *internal* Table IV numbers
        // the lines actually cross near 0.175 kg/kWh — see the Fig. 11
        // experiment; with the open Table VIII numbers the crossover
        // sits beyond the realistic range).
        let pipeline = GsfPipeline::new(PipelineConfig::default());
        let trace = small_trace();
        let gap_at = |ci: f64| {
            let eff = pipeline
                .evaluate_at(&GreenSkuDesign::efficient(), &trace, CarbonIntensity::new(ci))
                .unwrap();
            let full = pipeline
                .evaluate_at(&GreenSkuDesign::full(), &trace, CarbonIntensity::new(ci))
                .unwrap();
            full.cluster_savings - eff.cluster_savings
        };
        // Integer server counts add ±1-server noise at this small trace
        // size, so compare the endpoints only.
        let low = gap_at(0.02);
        let high = gap_at(0.5);
        assert!(low > 0.03, "Full wins clearly on a clean grid: {low}");
        assert!(low > high, "gap must shrink with CI: {low} vs {high}");
    }

    #[test]
    fn sweep_is_ordered_and_bounded() {
        let pipeline = GsfPipeline::new(PipelineConfig::default());
        let sweep = pipeline
            .savings_sweep(&GreenSkuDesign::cxl(), &small_trace(), &[0.02, 0.1, 0.4])
            .unwrap();
        assert_eq!(sweep.len(), 3);
        for (ci, s) in sweep {
            assert!(s > 0.0 && s < 0.5, "savings {s} at CI {ci}");
        }
    }
}
