//! Shared evaluation context: a thread-safe carbon-assessment cache.
//!
//! Every GSF evaluation needs the same handful of assessments — the
//! Gen1–Gen3 baselines and the design under test — and the hot paths
//! (`GsfPipeline::evaluate_at`, `search::evaluate_space`, the Fig. 11/12
//! sweeps) used to recompute them several times per call: once inside
//! [`crate::pipeline::VmRouter`], once for the pipeline's own emission
//! accounting, and once per candidate for the shared baseline. The
//! [`EvalContext`] memoizes assessments keyed by the exact
//! `(ModelParams, ServerSpec)` pair, so each SKU is assessed once per
//! parameter set no matter how many pipeline stages or worker threads
//! ask for it.
//!
//! The context also memoizes the *sizing stage* — the two right-sizing
//! binary searches plus the final buffered replay, which dominate
//! `evaluate_at` wall-clock. Sizing depends on the grid carbon
//! intensity only through the router's adoption decisions, so a Fig.
//! 11/12 sweep whose intensities route identically runs the expensive
//! searches once per distinct decision table instead of once per point
//! (see [`EvalContext::sizing_hashed`]).
//!
//! Keys are *structural*: every `f64` field is keyed by its bit pattern
//! (`f64::to_bits`), so a cache hit is only possible when the inputs are
//! bitwise identical — cached and uncached evaluations therefore produce
//! bitwise-identical outcomes.

use crate::components::{CarbonComponent, DefaultCarbon};
use gsf_carbon::{Assessment, CarbonError, ModelParams, ServerSpec};
use gsf_cluster::sizing::ClusterPlan;
use gsf_vmalloc::{FaultSummary, PlacementPolicy, PreparedTrace, ServerShape, SimOutcome};
use gsf_workloads::ServerGeneration;
use parking_lot::Mutex;
// gsf-lint: allow-file(D1) -- the memo caches below are pure point lookups
// keyed by bit-exact hashes; they are never iterated, so their order cannot
// reach any model output (CacheStats only reads lengths and counters).
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Structural cache key: the bit-exact content of a
/// `(ModelParams, ServerSpec)` pair, flattened into words.
///
/// Equality of keys is equality of every field bit pattern — there are
/// no hash-collision false hits because the full encoding is the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AssessmentKey(Vec<u64>);

impl AssessmentKey {
    fn of(params: &ModelParams, sku: &ServerSpec) -> Self {
        let mut w = KeyWriter::default();
        // ModelParams (all Copy fields).
        w.f64(params.carbon_intensity.get());
        w.f64(params.lifetime.get());
        w.u64(u64::from(params.rack.space_u));
        w.f64(params.rack.power_capacity.get());
        w.f64(params.rack.misc_power.get());
        w.f64(params.rack.misc_embodied.get());
        w.f64(params.overheads.pue);
        w.f64(params.overheads.network_storage_power_per_rack.get());
        w.f64(params.overheads.network_storage_embodied_per_rack.get());
        w.f64(params.overheads.building_embodied_per_rack.get());
        // ServerSpec.
        w.str(sku.name());
        w.u64(u64::from(sku.cores()));
        w.u64(u64::from(sku.form_factor_u()));
        w.u64(sku.components().len() as u64);
        for c in sku.components() {
            w.str(c.name());
            w.u64(c.class() as u64);
            w.f64(c.quantity());
            w.u64(u64::from(c.is_reused()));
            w.u64(u64::from(c.device_count()));
            w.u64(u64::from(c.pcie_lanes()));
            // The derived per-component numbers pin down TDP, derate,
            // loss factor, and embodied-per-unit exactly (they are the
            // only way those fields enter an assessment).
            w.f64(c.nameplate_power().get());
            w.f64(c.average_power().get());
            w.f64(c.embodied().get());
            w.f64(c.embodied_if_new().get());
        }
        Self(w.words)
    }
}

/// Packs mixed fields into `u64` words with unambiguous framing.
#[derive(Default)]
struct KeyWriter {
    words: Vec<u64>,
}

impl KeyWriter {
    fn u64(&mut self, v: u64) {
        self.words.push(v);
    }

    fn f64(&mut self, v: f64) {
        self.words.push(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        // Length prefix keeps concatenated buffers unambiguous.
        self.words.push(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.words.push(u64::from_le_bytes(buf));
        }
    }
}

/// Structural key for the memoized sizing searches: the trace's 128-bit
/// [`Trace::content_hash`](gsf_workloads::Trace::content_hash)
/// plus everything the sizing + replay stage depends on — the router's
/// per-(application, generation) decision table, both server shapes,
/// the placement policy, the growth-buffer fraction, the fault-model
/// signature (so fault-injected and fault-free evaluations never share
/// an entry, keeping cached and uncached paths bit-identical in both
/// modes), and the shard signature `(shards, SHARD_ROUTING_VERSION)` —
/// sharded and unsharded sizings have different semantics and must
/// never share an entry.
///
/// The key used to embed the *entire encoded trace byte stream*,
/// making every cache probe O(trace) to build, hash, and compare — on
/// fleet-sized traces the key machinery cost more than some of the
/// probes it memoized. The content hash
/// keeps the key O(1)-sized; hashing still walks the trace once, but
/// without allocating the encode buffer, and equality checks are now
/// constant-time. The hash covers every encoded field bit-for-bit, so
/// the only behavior change from byte-stream keys would be a 128-bit
/// collision between distinct traces.
///
/// The carbon intensity is deliberately *not* part of the key: sizing
/// depends on the grid only through the adoption decisions, so two
/// intensities that route identically share one sizing computation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SizingKey(Vec<u64>);

impl SizingKey {
    #[allow(clippy::too_many_arguments)]
    fn of(
        trace_hash: (u64, u64),
        decision_signature: &[u64],
        baseline_shape: ServerShape,
        green_shape: ServerShape,
        policy: PlacementPolicy,
        buffer_fraction: f64,
        fault_signature: &[u64],
        shards: usize,
    ) -> Self {
        let mut w = KeyWriter::default();
        w.u64(trace_hash.0);
        w.u64(trace_hash.1);
        w.u64(shards.max(1) as u64);
        w.u64(gsf_vmalloc::SHARD_ROUTING_VERSION);
        w.u64(decision_signature.len() as u64);
        for &word in decision_signature {
            w.u64(word);
        }
        w.u64(u64::from(baseline_shape.cores));
        w.f64(baseline_shape.mem_gb);
        w.u64(u64::from(green_shape.cores));
        w.f64(green_shape.mem_gb);
        w.u64(match policy {
            PlacementPolicy::BestFit => 0,
            PlacementPolicy::FirstFit => 1,
            PlacementPolicy::WorstFit => 2,
        });
        w.f64(buffer_fraction);
        w.u64(fault_signature.len() as u64);
        for &word in fault_signature {
            w.u64(word);
        }
        Self(w.words)
    }
}

/// Structural key for the prepared-trace cache: the trace's 128-bit
/// [`Trace::content_hash`](gsf_workloads::Trace::content_hash)
/// plus the routing decision table the plan was resolved against. A
/// [`PreparedTrace`] depends on nothing else — not the cluster shapes,
/// policy, buffer, fault model, or shard count (shard routing consumes
/// a prepared trace, it does not change one) — so one plan serves every
/// sizing probe, buffer level, shard count, and fault configuration of
/// a routing-identical sweep. Like [`SizingKey`], the content hash
/// replaces the former O(trace) embedded byte stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PreparedKey(Vec<u64>);

impl PreparedKey {
    fn of(trace_hash: (u64, u64), decision_signature: &[u64]) -> Self {
        let mut w = KeyWriter::default();
        w.u64(trace_hash.0);
        w.u64(trace_hash.1);
        w.u64(decision_signature.len() as u64);
        for &word in decision_signature {
            w.u64(word);
        }
        Self(w.words)
    }
}

/// The trace-dependent heavy half of one pipeline evaluation: the two
/// right-sizing binary searches plus the final replay on the buffered
/// mixed cluster. These dominate `evaluate_at` wall-clock and are
/// independent of the carbon intensity given a fixed routing decision
/// table, so [`EvalContext`] memoizes them under a `SizingKey`.
#[derive(Debug, Clone, PartialEq)]
pub struct SizingOutcome {
    /// Right-sized all-baseline cluster (no buffer).
    pub baseline_only: u32,
    /// Right-sized mixed cluster (no buffer).
    pub plan: ClusterPlan,
    /// Replay statistics on the buffered mixed cluster.
    pub replay: SimOutcome,
    /// Fault-injection statistics of that replay (all-zero when fault
    /// injection is disabled).
    pub faults: FaultSummary,
}

/// Cache effectiveness counters (see [`EvalContext::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to run the carbon model.
    pub misses: usize,
    /// Distinct `(ModelParams, ServerSpec)` pairs currently cached.
    pub entries: usize,
    /// Sizing lookups answered from the cache.
    pub sizing_hits: usize,
    /// Sizing lookups that had to run the binary searches.
    pub sizing_misses: usize,
    /// Distinct sizing keys currently cached.
    pub sizing_entries: usize,
    /// Prepared-trace lookups answered from the cache.
    pub prepared_hits: usize,
    /// Prepared-trace lookups that had to build the plan.
    pub prepared_misses: usize,
    /// Distinct prepared plans currently cached.
    pub prepared_entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe assessment cache shared across pipeline stages, design
/// candidates, and worker threads.
///
/// Construct one [`EvalContext::new`] per program (or share via `Arc`)
/// and pass it to [`crate::pipeline::GsfPipeline::with_context`] /
/// [`crate::search::evaluate_space_with`]. [`EvalContext::uncached`]
/// builds a pass-through context that always recomputes — the reference
/// path for A/B tests and benches.
#[derive(Debug, Default)]
pub struct EvalContext {
    /// `None` disables caching (pass-through mode).
    cache: Option<Mutex<HashMap<AssessmentKey, Arc<Assessment>>>>,
    /// Memoized sizing searches + replays; `None` in pass-through mode.
    sizing: Option<Mutex<HashMap<SizingKey, Arc<SizingOutcome>>>>,
    /// Memoized prepared replay plans; `None` in pass-through mode.
    prepared: Option<Mutex<HashMap<PreparedKey, Arc<PreparedTrace>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    sizing_hits: AtomicUsize,
    sizing_misses: AtomicUsize,
    prepared_hits: AtomicUsize,
    prepared_misses: AtomicUsize,
}

impl EvalContext {
    /// A caching context.
    pub fn new() -> Self {
        Self {
            cache: Some(Mutex::new(HashMap::new())),
            sizing: Some(Mutex::new(HashMap::new())),
            prepared: Some(Mutex::new(HashMap::new())),
            ..Self::default()
        }
    }

    /// A pass-through context that recomputes every assessment and
    /// sizing search (the uncached reference path).
    pub fn uncached() -> Self {
        Self::default()
    }

    /// Whether this context caches.
    pub fn is_caching(&self) -> bool {
        self.cache.is_some()
    }

    /// Assesses `sku` under `params`, returning the cached assessment
    /// when the bit-identical pair was assessed before.
    ///
    /// # Errors
    ///
    /// Propagates carbon-model failures (never cached).
    pub fn assess(
        &self,
        params: &ModelParams,
        sku: &ServerSpec,
    ) -> Result<Arc<Assessment>, CarbonError> {
        let Some(cache) = &self.cache else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(DefaultCarbon::new(*params).assess(sku)?));
        };
        let key = AssessmentKey::of(params, sku);
        if let Some(hit) = cache.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        // Assess outside the lock: misses are the expensive path and
        // other workers should not serialize behind them. A racing
        // duplicate computes the same value bit-for-bit, so last-write
        // -wins insertion is harmless.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let assessment = Arc::new(DefaultCarbon::new(*params).assess(sku)?);
        cache.lock().insert(key, Arc::clone(&assessment));
        Ok(assessment)
    }

    /// The Gen1–Gen3 baseline assessments under `params`, each served
    /// from the cache after the first call.
    ///
    /// # Errors
    ///
    /// Propagates carbon-model failures.
    pub fn baselines(
        &self,
        params: &ModelParams,
    ) -> Result<Vec<(ServerGeneration, Arc<Assessment>)>, CarbonError> {
        use gsf_carbon::datasets::open_source;
        Ok(vec![
            (ServerGeneration::Gen1, self.assess(params, &open_source::baseline_gen1())?),
            (ServerGeneration::Gen2, self.assess(params, &open_source::baseline_gen2())?),
            (ServerGeneration::Gen3, self.assess(params, &open_source::baseline_gen3())?),
        ])
    }

    /// The Gen3 baseline assessment under `params` (cached).
    ///
    /// # Errors
    ///
    /// Propagates carbon-model failures.
    pub fn gen3(&self, params: &ModelParams) -> Result<Arc<Assessment>, CarbonError> {
        self.assess(params, &gsf_carbon::datasets::open_source::baseline_gen3())
    }

    /// Runs (or replays) the sizing + replay stage for one pipeline
    /// evaluation, memoized by the exact `(trace, decision table,
    /// shapes, policy, buffer, faults, shards)` inputs, the trace keyed
    /// by its [`Trace::content_hash`](gsf_workloads::Trace::content_hash).
    /// `shards <= 1` keys identically to `1` — both select the unsharded
    /// semantics.
    ///
    /// Callers hash the trace once per evaluation: in-memory
    /// evaluations hash the materialized trace, streamed ones take the
    /// verified digest from the chunked decoder without ever
    /// materializing a `Trace`. The incremental digest is pinned equal
    /// to the in-memory one, so both share cache entries.
    ///
    /// `compute` must be a pure function of those inputs — it is run on
    /// a miss and its result is shared with every later bit-identical
    /// lookup, so cached and uncached contexts stay bitwise-identical.
    ///
    /// # Errors
    ///
    /// Propagates `compute` failures (never cached).
    #[allow(clippy::too_many_arguments)]
    pub fn sizing_hashed<E>(
        &self,
        trace_hash: (u64, u64),
        decision_signature: &[u64],
        baseline_shape: ServerShape,
        green_shape: ServerShape,
        policy: PlacementPolicy,
        buffer_fraction: f64,
        fault_signature: &[u64],
        shards: usize,
        compute: impl FnOnce() -> Result<SizingOutcome, E>,
    ) -> Result<Arc<SizingOutcome>, E> {
        let Some(sizing) = &self.sizing else {
            self.sizing_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(compute()?));
        };
        let key = SizingKey::of(
            trace_hash,
            decision_signature,
            baseline_shape,
            green_shape,
            policy,
            buffer_fraction,
            fault_signature,
            shards,
        );
        if let Some(hit) = sizing.lock().get(&key) {
            self.sizing_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        // Compute outside the lock (see `assess`): racing duplicates
        // produce the same value bit-for-bit.
        self.sizing_misses.fetch_add(1, Ordering::Relaxed);
        let outcome = Arc::new(compute()?);
        sizing.lock().insert(key, Arc::clone(&outcome));
        Ok(outcome)
    }

    /// Builds (or replays) the prepared trace plan for one
    /// (trace, routing decision) pair, memoized by the trace's
    /// [`Trace::content_hash`](gsf_workloads::Trace::content_hash) and
    /// the decision table. All sweep points whose intensities route
    /// identically share one plan — the same key granularity as
    /// [`Self::sizing_hashed`], minus everything a [`PreparedTrace`]
    /// does not depend on. Streamed and in-memory evaluations share
    /// entries, as they do there.
    ///
    /// `build` must be a pure function of those inputs (the adoption
    /// transform is a pure function of the `VmSpec` given a decision
    /// table), so cached and uncached contexts stay bitwise-identical.
    pub fn prepared_by_hash(
        &self,
        trace_hash: (u64, u64),
        decision_signature: &[u64],
        build: impl FnOnce() -> PreparedTrace,
    ) -> Arc<PreparedTrace> {
        let Some(prepared) = &self.prepared else {
            self.prepared_misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(build());
        };
        let key = PreparedKey::of(trace_hash, decision_signature);
        if let Some(hit) = prepared.lock().get(&key) {
            self.prepared_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Build outside the lock (see `assess`): racing duplicates
        // produce the same plan bit-for-bit.
        self.prepared_misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build());
        prepared.lock().insert(key, Arc::clone(&plan));
        plan
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.cache.as_ref().map_or(0, |c| c.lock().len()),
            sizing_hits: self.sizing_hits.load(Ordering::Relaxed),
            sizing_misses: self.sizing_misses.load(Ordering::Relaxed),
            sizing_entries: self.sizing.as_ref().map_or(0, |c| c.lock().len()),
            prepared_hits: self.prepared_hits.load(Ordering::Relaxed),
            prepared_misses: self.prepared_misses.load(Ordering::Relaxed),
            prepared_entries: self.prepared.as_ref().map_or(0, |c| c.lock().len()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_carbon::datasets::open_source;
    use gsf_carbon::units::CarbonIntensity;
    use gsf_workloads::Trace;

    /// A fault-free replay of `trace` on four Gen3 servers, as the
    /// payload of a hand-built sizing outcome.
    fn baseline_replay(trace: &Trace) -> gsf_vmalloc::SimOutcome {
        let prepared = PreparedTrace::new(trace, &gsf_vmalloc::PlacementRequest::baseline_only);
        gsf_vmalloc::AllocationSim::new(
            gsf_vmalloc::ClusterConfig::baseline_only(4),
            PlacementPolicy::BestFit,
        )
        .replay_prepared_faulted(&prepared, &gsf_vmalloc::FaultPlan::empty())
        .0
    }

    fn params() -> ModelParams {
        ModelParams::default_open_source()
    }

    #[test]
    fn second_assessment_is_a_hit_and_identical() {
        let ctx = EvalContext::new();
        let p = params();
        let sku = open_source::baseline_gen3();
        let a = ctx.assess(&p, &sku).unwrap();
        let b = ctx.assess(&p, &sku).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must return the cached Arc");
        let s = ctx.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_params_miss() {
        let ctx = EvalContext::new();
        let sku = open_source::baseline_gen3();
        let a = ctx.assess(&params(), &sku).unwrap();
        let p2 = params().with_carbon_intensity(CarbonIntensity::new(0.2));
        let b = ctx.assess(&p2, &sku).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(
            a.total_per_core().get().to_bits(),
            b.total_per_core().get().to_bits(),
            "different CI must change the assessment"
        );
        assert_eq!(ctx.stats().entries, 2);
    }

    #[test]
    fn different_skus_miss() {
        let ctx = EvalContext::new();
        let p = params();
        ctx.assess(&p, &open_source::baseline_gen2()).unwrap();
        ctx.assess(&p, &open_source::baseline_gen3()).unwrap();
        assert_eq!(ctx.stats().misses, 2);
    }

    #[test]
    fn cached_equals_uncached_bitwise() {
        let cached = EvalContext::new();
        let uncached = EvalContext::uncached();
        let p = params();
        for sku in open_source::table_viii_skus() {
            let a = cached.assess(&p, &sku).unwrap();
            let b = uncached.assess(&p, &sku).unwrap();
            assert_eq!(
                a.total_per_core().get().to_bits(),
                b.total_per_core().get().to_bits(),
                "{}",
                sku.name()
            );
            assert_eq!(*a, *b);
        }
        assert_eq!(uncached.stats().hits, 0);
        assert_eq!(uncached.stats().entries, 0);
        assert!(!uncached.is_caching() && cached.is_caching());
    }

    #[test]
    fn baselines_cached_across_calls() {
        let ctx = EvalContext::new();
        let p = params();
        let first = ctx.baselines(&p).unwrap();
        let again = ctx.baselines(&p).unwrap();
        assert_eq!(first.len(), 3);
        for ((g1, a1), (g2, a2)) in first.iter().zip(&again) {
            assert_eq!(g1, g2);
            assert!(Arc::ptr_eq(a1, a2));
        }
        let s = ctx.stats();
        assert_eq!((s.hits, s.misses), (3, 3));
    }

    #[test]
    fn key_distinguishes_name_framing() {
        // "ab" + "c" must not collide with "a" + "bc".
        let mut w1 = KeyWriter::default();
        w1.str("ab");
        w1.str("c");
        let mut w2 = KeyWriter::default();
        w2.str("a");
        w2.str("bc");
        assert_ne!(w1.words, w2.words);
    }

    #[test]
    fn sizing_cache_hits_and_passthrough() {
        use gsf_stats::rng::SeedFactory;
        use gsf_workloads::{TraceGenerator, TraceParams};
        let trace = TraceGenerator::new(TraceParams {
            duration_hours: 2.0,
            arrivals_per_hour: 10.0,
            ..TraceParams::default()
        })
        .generate(&SeedFactory::new(5), 0);
        let replay = baseline_replay(&trace);
        let outcome = || {
            Ok::<_, CarbonError>(SizingOutcome {
                baseline_only: 7,
                plan: ClusterPlan { baseline: 3, green: 5 },
                replay: replay.clone(),
                faults: FaultSummary::default(),
            })
        };
        let sig = [1u64, 2, 3];
        let none = gsf_maintenance::FaultModel::none().signature();
        let shape = ServerShape { cores: 80, mem_gb: 768.0 };
        let hash = trace.content_hash();
        let lookup = |ctx: &EvalContext, sig: &[u64], policy, buffer, faults: &[u64]| {
            ctx.sizing_hashed(hash, sig, shape, shape, policy, buffer, faults, 1, outcome).unwrap()
        };
        let ctx = EvalContext::new();
        let a = lookup(&ctx, &sig, PlacementPolicy::BestFit, 0.1, &none);
        let b = lookup(&ctx, &sig, PlacementPolicy::BestFit, 0.1, &none);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a hit");
        // Any changed input misses: decision table, policy, buffer,
        // fault model.
        lookup(&ctx, &[9u64], PlacementPolicy::BestFit, 0.1, &none);
        lookup(&ctx, &sig, PlacementPolicy::FirstFit, 0.1, &none);
        lookup(&ctx, &sig, PlacementPolicy::BestFit, 0.2, &none);
        let faulted = gsf_maintenance::FaultModel::paper(3).signature();
        lookup(&ctx, &sig, PlacementPolicy::BestFit, 0.1, &faulted);
        let s = ctx.stats();
        assert_eq!((s.sizing_hits, s.sizing_misses, s.sizing_entries), (1, 5, 5));

        let passthrough = EvalContext::uncached();
        let c = lookup(&passthrough, &sig, PlacementPolicy::BestFit, 0.1, &none);
        let d = lookup(&passthrough, &sig, PlacementPolicy::BestFit, 0.1, &none);
        assert!(!Arc::ptr_eq(&c, &d), "uncached context recomputes");
        assert_eq!(passthrough.stats().sizing_entries, 0);
    }

    #[test]
    fn prepared_cache_hits_and_passthrough() {
        use gsf_stats::rng::SeedFactory;
        use gsf_workloads::{TraceGenerator, TraceParams};
        let trace = TraceGenerator::new(TraceParams {
            duration_hours: 2.0,
            arrivals_per_hour: 10.0,
            ..TraceParams::default()
        })
        .generate(&SeedFactory::new(5), 0);
        let build =
            || PreparedTrace::new(&trace, &|vm| gsf_vmalloc::PlacementRequest::baseline_only(vm));
        let sig = [1u64, 2, 3];
        let ctx = EvalContext::new();
        let a = ctx.prepared_by_hash(trace.content_hash(), &sig, build);
        let b = ctx.prepared_by_hash(trace.content_hash(), &sig, build);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a hit");
        // A different decision table misses (even on the same trace).
        let c = ctx.prepared_by_hash(trace.content_hash(), &[9u64], build);
        assert!(!Arc::ptr_eq(&a, &c));
        let s = ctx.stats();
        assert_eq!((s.prepared_hits, s.prepared_misses, s.prepared_entries), (1, 2, 2));

        let passthrough = EvalContext::uncached();
        let d = passthrough.prepared_by_hash(trace.content_hash(), &sig, build);
        let e = passthrough.prepared_by_hash(trace.content_hash(), &sig, build);
        assert!(!Arc::ptr_eq(&d, &e), "uncached context rebuilds");
        assert_eq!(*d, *e, "...but the plans are identical");
        assert_eq!(passthrough.stats().prepared_entries, 0);
    }

    #[test]
    fn sizing_key_includes_shard_signature() {
        use gsf_stats::rng::SeedFactory;
        use gsf_workloads::{TraceGenerator, TraceParams};
        let trace = TraceGenerator::new(TraceParams {
            duration_hours: 1.0,
            arrivals_per_hour: 5.0,
            ..TraceParams::default()
        })
        .generate(&SeedFactory::new(3), 0);
        let replay = baseline_replay(&trace);
        let outcome = |n: u32| {
            let replay = replay.clone();
            move || {
                Ok::<_, CarbonError>(SizingOutcome {
                    baseline_only: n,
                    plan: ClusterPlan { baseline: n, green: 0 },
                    replay: replay.clone(),
                    faults: FaultSummary::default(),
                })
            }
        };
        let sig = [1u64];
        let none = gsf_maintenance::FaultModel::none().signature();
        let shape = ServerShape { cores: 80, mem_gb: 768.0 };
        let ctx = EvalContext::new();
        let run = |shards: usize, n: u32| {
            ctx.sizing_hashed(
                trace.content_hash(),
                &sig,
                shape,
                shape,
                PlacementPolicy::BestFit,
                0.1,
                &none,
                shards,
                outcome(n),
            )
            .unwrap()
        };
        let a = run(1, 7);
        // shards = 0 and shards = 1 both mean "unsharded" and share an
        // entry; any larger count is a distinct semantics and must miss.
        assert!(Arc::ptr_eq(&a, &run(0, 99)), "0 and 1 key identically");
        let b = run(4, 11);
        assert!(!Arc::ptr_eq(&a, &b), "shard counts must not share entries");
        assert_eq!(b.baseline_only, 11);
        let s = ctx.stats();
        assert_eq!((s.sizing_hits, s.sizing_misses, s.sizing_entries), (1, 2, 2));
    }

    #[test]
    fn content_hash_keys_preserve_hit_miss_behavior() {
        // The content-hash keys must hit exactly when the byte-stream
        // keys hit: a structurally identical trace (rebuilt through the
        // chunked codec, different allocation) hits; any field change
        // misses.
        use gsf_stats::rng::SeedFactory;
        use gsf_workloads::{TraceGenerator, TraceParams};
        let trace = TraceGenerator::new(TraceParams {
            duration_hours: 1.0,
            arrivals_per_hour: 8.0,
            ..TraceParams::default()
        })
        .generate(&SeedFactory::new(9), 0);
        let mut chunked = Vec::new();
        gsf_workloads::write_chunks(&trace, &mut chunked, 16).unwrap();
        let rebuilt = gsf_workloads::decode_chunks(&chunked[..]).unwrap();
        let other = TraceGenerator::new(TraceParams {
            duration_hours: 1.0,
            arrivals_per_hour: 8.0,
            ..TraceParams::default()
        })
        .generate(&SeedFactory::new(9), 1);
        assert_eq!(trace, rebuilt);
        assert_ne!(trace, other);

        let sig = [1u64];
        let ctx = EvalContext::new();
        let build = |t: &Trace| {
            let t = t.clone();
            move || PreparedTrace::new(&t, &|vm| gsf_vmalloc::PlacementRequest::baseline_only(vm))
        };
        let a = ctx.prepared_by_hash(trace.content_hash(), &sig, build(&trace));
        let b = ctx.prepared_by_hash(rebuilt.content_hash(), &sig, build(&rebuilt));
        assert!(Arc::ptr_eq(&a, &b), "identical content must hit across allocations");
        let c = ctx.prepared_by_hash(other.content_hash(), &sig, build(&other));
        assert!(!Arc::ptr_eq(&a, &c), "different trace must miss");
        let s = ctx.stats();
        assert_eq!((s.prepared_hits, s.prepared_misses, s.prepared_entries), (1, 2, 2));

        // Same discrimination for the sizing cache.
        let replay = baseline_replay(&trace);
        let outcome = || {
            Ok::<_, CarbonError>(SizingOutcome {
                baseline_only: 1,
                plan: ClusterPlan { baseline: 1, green: 0 },
                replay: replay.clone(),
                faults: FaultSummary::default(),
            })
        };
        let none = gsf_maintenance::FaultModel::none().signature();
        let shape = ServerShape { cores: 80, mem_gb: 768.0 };
        let run = |t: &Trace| {
            ctx.sizing_hashed(
                t.content_hash(),
                &sig,
                shape,
                shape,
                PlacementPolicy::BestFit,
                0.1,
                &none,
                1,
                outcome,
            )
            .unwrap()
        };
        let x = run(&trace);
        assert!(Arc::ptr_eq(&x, &run(&rebuilt)));
        assert!(!Arc::ptr_eq(&x, &run(&other)));
    }

    #[test]
    fn concurrent_assessments_share_entries() {
        let ctx = std::sync::Arc::new(EvalContext::new());
        let p = params();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ctx = std::sync::Arc::clone(&ctx);
                s.spawn(move || {
                    for _ in 0..8 {
                        ctx.assess(&p, &open_source::baseline_gen3()).unwrap();
                    }
                });
            }
        });
        let stats = ctx.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits + stats.misses, 32);
        assert!(stats.hits >= 28, "at most one miss per racing thread: {stats:?}");
    }
}
