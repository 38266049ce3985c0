//! Synthetic VM trace generation.
//!
//! Stands in for the 35 proprietary Azure production traces the paper
//! replays (DESIGN.md substitution 2). Shapes follow the public Azure
//! trace literature the paper cites:
//!
//! - Poisson arrivals;
//! - power-of-two VM sizes skewed small;
//! - heavy-tailed lifetimes: most VMs short-lived, a minority long-lived;
//! - a small population of long-living full-node VMs;
//! - per-VM maximum memory utilization mostly below 60 % (Fig. 10's
//!   premise);
//! - per-VM application assignment sampled from the fleet core-hour mix
//!   and a pre-defined baseline generation per VM (§V).

use crate::chunks::{TraceChunkWriter, TraceStreamError};
use crate::fleet::FleetMix;
use crate::trace::Trace;
use crate::vm::{ServerGeneration, VmEvent, VmEventKind, VmSpec};
use gsf_stats::dist::{Categorical, Exponential, LogNormal, Pareto};
use gsf_stats::rng::SeedFactory;
use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of one synthetic cluster trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceParams {
    /// Trace horizon in hours.
    pub duration_hours: f64,
    /// Mean VM arrivals per hour.
    pub arrivals_per_hour: f64,
    /// VM core-size classes and their weights.
    pub size_classes: Vec<(u32, f64)>,
    /// Memory-per-core classes (GB/core) and their weights.
    pub mem_per_core_classes: Vec<(f64, f64)>,
    /// Fraction of VMs that are short-lived (exponential lifetime).
    pub short_lived_fraction: f64,
    /// Mean lifetime of short-lived VMs, hours.
    pub short_lifetime_hours: f64,
    /// Pareto scale (hours) for long-lived VM lifetimes.
    pub long_lifetime_min_hours: f64,
    /// Pareto shape for long-lived VM lifetimes.
    pub long_lifetime_alpha: f64,
    /// Fraction of arrivals that are full-node VMs. Full-node VMs are
    /// 80-core, near-horizon-lived, so their core-hour share is roughly
    /// 100× their arrival share; the default keeps them at ~10 % of
    /// core-hours.
    pub full_node_fraction: f64,
    /// Weights of Gen1/Gen2/Gen3 pre-defined generations.
    pub generation_weights: [f64; 3],
    /// Mean of the per-VM max-memory-utilization draw (clamped to
    /// [0.05, 1.0]).
    pub mem_util_mean: f64,
    /// Lognormal sigma of the per-VM max-memory-utilization draw.
    pub mem_util_sigma: f64,
    /// Mean of the per-VM average-CPU-utilization draw (§II: calibrated
    /// so ~75 % of VMs sit below 25 % utilization).
    pub cpu_util_mean: f64,
    /// Lognormal sigma of the CPU-utilization draw.
    pub cpu_util_sigma: f64,
    /// Diurnal arrival-rate modulation amplitude in `[0, 1)`:
    /// `λ(t) = λ·(1 + A·sin(2πt/24h))`. Zero (the default) keeps the
    /// homogeneous Poisson process; positive values produce the
    /// day/night load swings the autoscaling analysis uses.
    pub diurnal_amplitude: f64,
}

impl Default for TraceParams {
    fn default() -> Self {
        Self {
            duration_hours: 24.0 * 7.0,
            arrivals_per_hour: 120.0,
            size_classes: vec![(1, 0.28), (2, 0.26), (4, 0.22), (8, 0.14), (16, 0.07), (32, 0.03)],
            // Mean ≈ 6.6 GB/core: comfortably below the baseline's
            // 9.6 GB/core but, after scaling-factor inflation, close to
            // the GreenSKU's 8 GB/core — so memory packs tightly on the
            // GreenSKU and loosely on the baseline (the Fig. 9 tradeoff)
            // while the GreenSKU stays core-bound enough to keep its
            // per-core carbon advantage.
            mem_per_core_classes: vec![(4.0, 0.55), (8.0, 0.35), (16.0, 0.10)],
            short_lived_fraction: 0.85,
            short_lifetime_hours: 2.0,
            long_lifetime_min_hours: 24.0,
            long_lifetime_alpha: 1.6,
            full_node_fraction: 0.002,
            generation_weights: [0.25, 0.35, 0.40],
            mem_util_mean: 0.6,
            mem_util_sigma: 0.45,
            // Lognormal(mean 0.20, σ 0.8): ~75 % of draws below 0.25.
            cpu_util_mean: 0.20,
            cpu_util_sigma: 0.8,
            diurnal_amplitude: 0.0,
        }
    }
}

/// Generates [`Trace`]s from [`TraceParams`] and a seed stream.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    params: TraceParams,
    mix: FleetMix,
}

impl TraceGenerator {
    /// Creates a generator with the given parameters and the standard
    /// fleet mix.
    pub fn new(params: TraceParams) -> Self {
        Self { params, mix: FleetMix::standard() }
    }

    /// The generator's parameters.
    pub fn params(&self) -> &TraceParams {
        &self.params
    }

    /// Builds the per-trace samplers once; [`Self::generate`] and
    /// [`Self::synthesize_streamed`] share them (and the per-arrival
    /// draw sequence in [`Self::sample_arrival`]) so both paths consume
    /// the RNG stream identically and produce bit-identical traces.
    ///
    /// # Panics
    ///
    /// Panics on invalid [`TraceParams`] (non-positive rates, lifetimes,
    /// or distribution weights); the defaults and every preset in the
    /// binaries satisfy these.
    fn samplers(&self) -> Samplers {
        let p = &self.params;
        let inter_arrival =
            Exponential::with_mean(3600.0 / p.arrivals_per_hour).expect("positive arrival rate");
        // Non-homogeneous Poisson arrivals by thinning: candidates are
        // generated at the peak rate λ(1+A) and accepted with
        // probability λ(t)/λ_max. A = 0 degenerates to the homogeneous
        // process without consuming extra randomness.
        let amplitude = p.diurnal_amplitude.clamp(0.0, 0.99);
        let peak_inter = if amplitude > 0.0 {
            Exponential::with_mean(3600.0 / (p.arrivals_per_hour * (1.0 + amplitude)))
                .expect("positive peak rate")
        } else {
            inter_arrival
        };
        Samplers {
            duration_s: p.duration_hours * 3600.0,
            amplitude,
            peak_inter,
            size_dist: Categorical::new(
                &p.size_classes.iter().map(|(_, w)| *w).collect::<Vec<_>>(),
            )
            .expect("size weights valid"),
            mem_dist: Categorical::new(
                &p.mem_per_core_classes.iter().map(|(_, w)| *w).collect::<Vec<_>>(),
            )
            .expect("memory weights valid"),
            gen_dist: Categorical::new(&p.generation_weights).expect("generation weights valid"),
            short_life: Exponential::with_mean(p.short_lifetime_hours * 3600.0)
                .expect("positive lifetime"),
            long_life: Pareto::new(p.long_lifetime_min_hours * 3600.0, p.long_lifetime_alpha)
                .expect("valid lifetime tail"),
            mem_util: LogNormal::with_mean(p.mem_util_mean, p.mem_util_sigma)
                .expect("valid mem-util shape"),
            cpu_util: LogNormal::with_mean(p.cpu_util_mean, p.cpu_util_sigma)
                .expect("valid cpu-util shape"),
        }
    }

    /// Samples one arrival candidate at time `t`: `None` if diurnal
    /// thinning rejects it, otherwise the VM and its departure time.
    /// The draw order here IS the generator's determinism contract —
    /// both the in-memory and streamed paths go through this exact
    /// sequence.
    fn sample_arrival(
        &self,
        s: &Samplers,
        rng: &mut gsf_stats::rng::SimRng,
        t: f64,
        id: u64,
    ) -> Option<(VmSpec, f64)> {
        let p = &self.params;
        let day_s = 24.0 * 3600.0;
        if s.amplitude > 0.0 {
            let rate_frac = (1.0 + s.amplitude * (2.0 * std::f64::consts::PI * t / day_s).sin())
                / (1.0 + s.amplitude);
            if rng.gen::<f64>() >= rate_frac {
                return None;
            }
        }
        let full_node = rng.gen::<f64>() < p.full_node_fraction;
        let cores = if full_node {
            // Full-node VMs take a whole baseline server (80 cores).
            80
        } else {
            p.size_classes[s.size_dist.sample(rng)].0
        };
        let mem_gb = if full_node {
            768.0
        } else {
            p.mem_per_core_classes[s.mem_dist.sample(rng)].0 * f64::from(cores)
        };
        let lifetime_s = if full_node {
            // Long-living by definition: at least half the horizon.
            s.duration_s * (0.5 + 0.5 * rng.gen::<f64>())
        } else if rng.gen::<f64>() < p.short_lived_fraction {
            s.short_life.sample(rng)
        } else {
            s.long_life.sample(rng)
        };
        let vm = VmSpec {
            id,
            cores,
            mem_gb,
            app_index: self.mix.sample_app(rng) as u16,
            generation: match s.gen_dist.sample(rng) {
                0 => ServerGeneration::Gen1,
                1 => ServerGeneration::Gen2,
                _ => ServerGeneration::Gen3,
            },
            full_node,
            max_mem_util: s.mem_util.sample(rng).clamp(0.05, 1.0),
            avg_cpu_util: s.cpu_util.sample(rng).clamp(0.01, 1.0),
        };
        let departure = (t + lifetime_s).min(s.duration_s);
        Some((vm, departure))
    }

    /// Generates trace number `index` under `seeds`. The same
    /// `(seeds, index)` always produces the same trace.
    pub fn generate(&self, seeds: &SeedFactory, index: u64) -> Trace {
        let s = self.samplers();
        let mut rng = seeds.stream_indexed("trace", index);
        let mut vms = Vec::new();
        let mut events = Vec::new();
        let mut t = 0.0;
        let mut id = 0u64;
        loop {
            t += s.peak_inter.sample(&mut rng);
            if t >= s.duration_s {
                break;
            }
            let Some((vm, departure)) = self.sample_arrival(&s, &mut rng, t, id) else {
                continue;
            };
            events.push(VmEvent { time_s: t, kind: VmEventKind::Arrival, vm_id: id });
            events.push(VmEvent { time_s: departure, kind: VmEventKind::Departure, vm_id: id });
            vms.push(vm);
            id += 1;
        }
        Trace::new(s.duration_s, vms, events)
    }

    /// Generates trace number `index` directly into the chunked stream
    /// `out` without materializing the whole trace, returning the final
    /// content digest. Decoding the stream yields a trace bit-identical
    /// to [`Self::generate`] with the same `(seeds, index)`.
    ///
    /// Peak memory is O(peak concurrent VMs) for the pending-departure
    /// heap plus 8 bytes per VM for the writer's slot→id table —
    /// independent of the event volume a multi-week horizon produces.
    ///
    /// Events are emitted in replay order by merging the (sorted)
    /// arrival process with a min-heap of open departures; arrivals at
    /// one timestamp are held back until the next strictly-later
    /// arrival so any equal-time departures (including zero-lifetime
    /// VMs sharing the timestamp) are emitted first, exactly as
    /// [`Trace::new`]'s stable sort orders them.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`gsf_workloads::chunks`](crate::chunks) codec
    /// errors (which indicate a generator bug, not bad input).
    pub fn synthesize_streamed<W: std::io::Write>(
        &self,
        seeds: &SeedFactory,
        index: u64,
        out: W,
        chunk_events: usize,
    ) -> Result<(u64, u64), TraceStreamError> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let s = self.samplers();
        let mut rng = seeds.stream_indexed("trace", index);
        let mut w = TraceChunkWriter::new(out, s.duration_s, chunk_events)?;
        // Open departures keyed by (time bits, slot): times are
        // non-negative finite, so bit order equals numeric order, and
        // the slot tiebreak reproduces the stable sort's original-
        // position order for equal-time departures.
        let mut open: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        // Arrivals buffered at the current (possibly tied) timestamp.
        let mut pending: Vec<u32> = Vec::new();
        let mut group_bits = 0u64;
        let mut t = 0.0;
        let mut id = 0u64;
        loop {
            t += s.peak_inter.sample(&mut rng);
            if t >= s.duration_s {
                break;
            }
            let Some((vm, departure)) = self.sample_arrival(&s, &mut rng, t, id) else {
                continue;
            };
            if !pending.is_empty() && t.to_bits() != group_bits {
                flush_group(&mut w, &mut open, &mut pending, group_bits)?;
            }
            let slot = w.push_vm(&vm)?;
            open.push(Reverse((departure.to_bits(), slot)));
            group_bits = t.to_bits();
            pending.push(slot);
            id += 1;
        }
        flush_group(&mut w, &mut open, &mut pending, group_bits)?;
        while let Some(Reverse((bits, slot))) = open.pop() {
            w.push_event(f64::from_bits(bits), VmEventKind::Departure, slot)?;
        }
        w.finish()
    }
}

/// Emits one arrival-timestamp group in replay order: every open
/// departure at or before the group's timestamp first (heap order =
/// (time, slot)), then the group's arrivals in generation order.
fn flush_group<W: std::io::Write>(
    w: &mut TraceChunkWriter<W>,
    open: &mut std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
    pending: &mut Vec<u32>,
    group_bits: u64,
) -> Result<(), TraceStreamError> {
    if pending.is_empty() {
        return Ok(());
    }
    while let Some(&std::cmp::Reverse((bits, slot))) = open.peek() {
        if bits > group_bits {
            break;
        }
        open.pop();
        w.push_event(f64::from_bits(bits), VmEventKind::Departure, slot)?;
    }
    for &slot in pending.iter() {
        w.push_event(f64::from_bits(group_bits), VmEventKind::Arrival, slot)?;
    }
    pending.clear();
    Ok(())
}

/// Per-trace sampling state shared by the in-memory and streamed
/// generation paths.
struct Samplers {
    duration_s: f64,
    amplitude: f64,
    peak_inter: Exponential,
    size_dist: Categorical,
    mem_dist: Categorical,
    gen_dist: Categorical,
    short_life: Exponential,
    long_life: Pareto,
    mem_util: LogNormal,
    cpu_util: LogNormal,
}

/// The 35 trace configurations of the packing study (Figs. 9–10):
/// the default shape swept across arrival intensity, memory weighting,
/// and lifetime mix so the cross-trace CDFs have spread.
#[allow(clippy::field_reassign_with_default)] // per-axis tweaks read clearer than one literal
pub fn standard_suite() -> Vec<TraceParams> {
    let mut suite = Vec::with_capacity(35);
    for i in 0..35u32 {
        let mut p = TraceParams::default();
        // Arrival intensity: 70..240 VMs/hour across the suite.
        p.arrivals_per_hour = 70.0 + 5.0 * f64::from(i);
        // Tilt the memory mix: traces alternate between lean and
        // memory-hungry clusters.
        let tilt = f64::from(i % 7) / 6.0; // 0..1
        p.mem_per_core_classes =
            vec![(4.0, 0.60 - 0.15 * tilt), (8.0, 0.35), (16.0, 0.05 + 0.15 * tilt)];
        // Lifetime mix: 80–92 % short-lived.
        p.short_lived_fraction = 0.80 + 0.004 * f64::from(i % 30);
        // Memory-utilization heterogeneity: some clusters run hot
        // (0.5 … 0.8 mean max utilization), giving the Fig. 10 CDF its
        // cross-trace spread and a small tail that would need CXL.
        p.mem_util_mean = 0.50 + 0.06 * f64::from(i % 6);
        suite.push(p);
    }
    suite
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn small_params() -> TraceParams {
        TraceParams { duration_hours: 24.0, arrivals_per_hour: 60.0, ..TraceParams::default() }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = TraceGenerator::new(small_params());
        let seeds = SeedFactory::new(77);
        let a = g.generate(&seeds, 0);
        let b = g.generate(&seeds, 0);
        assert_eq!(a, b);
        let c = g.generate(&seeds, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn every_vm_arrives_and_departs_in_horizon() {
        let g = TraceGenerator::new(small_params());
        let trace = g.generate(&SeedFactory::new(3), 0);
        let mut arrivals = std::collections::HashMap::new();
        for e in trace.events() {
            assert!(e.time_s >= 0.0 && e.time_s <= trace.duration_s());
            match e.kind {
                VmEventKind::Arrival => {
                    assert!(arrivals.insert(e.vm_id, e.time_s).is_none());
                }
                VmEventKind::Departure => {
                    let t_arr = arrivals.get(&e.vm_id).expect("departure after arrival");
                    assert!(e.time_s >= *t_arr);
                }
            }
        }
        assert_eq!(arrivals.len(), trace.vms().len());
        // Exactly two events per VM.
        assert_eq!(trace.events().len(), 2 * trace.vms().len());
    }

    #[test]
    fn vm_shapes_valid_and_sized_as_configured() {
        let g = TraceGenerator::new(small_params());
        let trace = g.generate(&SeedFactory::new(4), 0);
        let sizes: std::collections::HashSet<u32> =
            small_params().size_classes.iter().map(|(c, _)| *c).collect();
        for vm in trace.vms() {
            assert!(vm.is_valid());
            if vm.full_node {
                assert_eq!(vm.cores, 80);
            } else {
                assert!(sizes.contains(&vm.cores), "unexpected size {}", vm.cores);
            }
        }
    }

    #[test]
    fn arrival_count_near_expectation() {
        let g = TraceGenerator::new(small_params());
        let trace = g.generate(&SeedFactory::new(5), 0);
        let expected = 24.0 * 60.0;
        let actual = trace.vms().len() as f64;
        assert!((actual - expected).abs() < expected * 0.15, "{actual} vs {expected}");
    }

    #[test]
    fn most_vms_short_lived() {
        let g = TraceGenerator::new(small_params());
        let trace = g.generate(&SeedFactory::new(6), 0);
        let mut arrivals = std::collections::HashMap::new();
        let mut lifetimes = Vec::new();
        for e in trace.events() {
            match e.kind {
                VmEventKind::Arrival => {
                    arrivals.insert(e.vm_id, e.time_s);
                }
                VmEventKind::Departure => {
                    lifetimes.push(e.time_s - arrivals[&e.vm_id]);
                }
            }
        }
        let short = lifetimes.iter().filter(|&&l| l < 12.0 * 3600.0).count();
        assert!(short as f64 / lifetimes.len() as f64 > 0.7);
    }

    #[test]
    fn mem_util_mostly_below_60pct() {
        let g = TraceGenerator::new(small_params());
        let trace = g.generate(&SeedFactory::new(7), 0);
        let below: usize = trace.vms().iter().filter(|v| v.max_mem_util < 0.6).count();
        assert!(below as f64 / trace.vms().len() as f64 > 0.55);
    }

    #[test]
    fn diurnal_amplitude_shapes_arrivals() {
        let mut params = small_params();
        params.diurnal_amplitude = 0.8;
        params.duration_hours = 48.0;
        let g = TraceGenerator::new(params);
        let trace = g.generate(&SeedFactory::new(9), 0);
        // Compare arrivals in the sinusoid's high half-days (first half
        // of each 24h period) against the low half-days.
        let day = 24.0 * 3600.0;
        let (mut peak, mut trough) = (0usize, 0usize);
        for e in trace.events() {
            if e.kind == VmEventKind::Arrival {
                let phase = (e.time_s % day) / day;
                if phase < 0.5 {
                    peak += 1;
                } else {
                    trough += 1;
                }
            }
        }
        assert!(peak as f64 > 1.5 * trough as f64, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn diurnal_preserves_mean_rate() {
        let mut params = small_params();
        params.diurnal_amplitude = 0.6;
        params.duration_hours = 96.0;
        let arrivals_per_hour = params.arrivals_per_hour;
        let g = TraceGenerator::new(params);
        let trace = g.generate(&SeedFactory::new(10), 0);
        let expected = 96.0 * arrivals_per_hour;
        let actual = trace.vms().len() as f64;
        assert!((actual - expected).abs() < expected * 0.12, "{actual} vs {expected}");
    }

    #[test]
    fn zero_amplitude_matches_homogeneous_path() {
        let g = TraceGenerator::new(small_params());
        let a = g.generate(&SeedFactory::new(77), 0);
        let mut with_field = small_params();
        with_field.diurnal_amplitude = 0.0;
        let b = TraceGenerator::new(with_field).generate(&SeedFactory::new(77), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn cpu_utilization_matches_the_sec2_anchor() {
        // §II: 75 % of VMs exhibit less than 25 % CPU utilization.
        let g = TraceGenerator::new(small_params());
        let trace = g.generate(&SeedFactory::new(12), 0);
        let below = trace.vms().iter().filter(|v| v.avg_cpu_util < 0.25).count();
        let frac = below as f64 / trace.vms().len() as f64;
        assert!((frac - 0.75).abs() < 0.08, "{frac}");
    }

    #[test]
    fn standard_suite_has_35_distinct_configs() {
        let suite = standard_suite();
        assert_eq!(suite.len(), 35);
        let distinct: std::collections::HashSet<String> =
            suite.iter().map(|p| format!("{p:?}")).collect();
        assert_eq!(distinct.len(), 35);
    }

    #[test]
    fn streamed_synthesis_matches_generate_bitwise() {
        let g = TraceGenerator::new(small_params());
        let seeds = SeedFactory::new(42);
        let in_memory = g.generate(&seeds, 3);
        for chunk_events in [7usize, 512, 1 << 20] {
            let mut buf = Vec::new();
            let digest = g.synthesize_streamed(&seeds, 3, &mut buf, chunk_events).unwrap();
            let decoded = crate::chunks::decode_chunks(&buf[..]).unwrap();
            assert_eq!(in_memory, decoded, "chunk_events={chunk_events}");
            assert_eq!(digest, in_memory.content_hash());
        }
    }

    #[test]
    fn streamed_synthesis_matches_generate_with_diurnal_thinning() {
        // Thinning consumes an extra RNG draw per candidate; the
        // streamed path must stay in lockstep.
        let mut params = small_params();
        params.diurnal_amplitude = 0.7;
        params.duration_hours = 48.0;
        let g = TraceGenerator::new(params);
        let seeds = SeedFactory::new(9);
        let in_memory = g.generate(&seeds, 1);
        let mut buf = Vec::new();
        let digest = g.synthesize_streamed(&seeds, 1, &mut buf, 1024).unwrap();
        assert_eq!(crate::chunks::decode_chunks(&buf[..]).unwrap(), in_memory);
        assert_eq!(digest, in_memory.content_hash());
    }
}
