//! One run of one workload: set-up (repeated, for a steady `setup_s`),
//! a warm-up iteration whose outputs become the reference, then timed
//! iterations until the run's time is up. Every timed iteration must
//! reproduce the reference digest, and at the pinned seed the reference
//! must match the golden digest.

use crate::spans::{self_times, Layer, Span, Tracer};
use crate::stats::Quartiles;
use crate::workloads::{
    golden_digest, run_plain, run_traced, setup, BenchError, Outcome, Scale, Traced, Workload,
    GOLDEN_SEED, ROOT,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    /// Time spent on timed iterations, after set-up and warm-up.
    pub seconds: f64,
    /// Pair every plain iteration with a traced one and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
    /// Set-ups, and timed iterations, to run even when their time is up.
    pub min_iterations: usize,
    /// Time spent repeating set-up; `setup_s` is the median.
    pub setup_seconds: f64,
    /// Where the stream workload writes its trace file.
    pub work_dir: PathBuf,
}

/// A metric over the run's iterations (or set-ups): the value the run
/// reports, and the quartiles of every sample.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q: Quartiles,
}

impl Metric {
    /// A metric reported as the median of its samples.
    fn median(name: &'static str, unit: &'static str, q: Quartiles) -> Self {
        Metric { name, unit, value: q.median, q }
    }
}

/// Self time of one span name, per traced iteration.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub name: &'static str,
    pub self_s: f64,
    pub share: f64,
    pub calls: f64,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub digest: u64,
    pub summary: String,
    pub metrics: Vec<Metric>,
    /// Traced runs only: every span, the per-name table, and the traced
    /// iteration's median minus the plain iteration's median.
    pub spans: Vec<Span>,
    pub layers: Vec<LayerRow>,
    pub overhead_s: Option<f64>,
}

pub fn run(spec: &RunSpec) -> Result<Report, BenchError> {
    let mut setup_s = Vec::new();
    let mut input = None;
    let start = Instant::now();
    while input.is_none()
        || setup_s.len() < spec.min_iterations
        || start.elapsed().as_secs_f64() < spec.setup_seconds
    {
        // Drop the previous input (and its stream file) before the next.
        drop(input.take());
        let t = Instant::now();
        input = Some(setup(spec.workload, spec.seed, spec.scale, &spec.work_dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("set-up ran at least once");

    let reference = run_plain(&input)?;
    let mut attempted = 1;
    let mut failed = 0;
    if spec.scale == Scale::Full && spec.seed == GOLDEN_SEED {
        let golden = golden_digest(spec.workload);
        if reference.digest != golden {
            eprintln!(
                "{}: digest {:016x} differs from the pinned {golden:016x} ({})",
                spec.workload.name(),
                reference.digest,
                reference.summary
            );
            failed += 1;
        }
    }
    let mut check = |result: Result<&Outcome, &BenchError>| {
        attempted += 1;
        match result {
            Ok(o) if o.digest == reference.digest => return true,
            Ok(o) => eprintln!("output changed: {} (reference: {})", o.summary, reference.summary),
            Err(e) => eprintln!("iteration failed: {e}"),
        }
        failed += 1;
        false
    };

    let tracer = if spec.trace { Tracer::on() } else { Tracer::off() };
    let (mut wall, mut rate, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut iter = 0;
    // Start another iteration only if, at the last one's pace, it ends
    // nearer `seconds` than stopping now would: a run of multi-second
    // iterations then lasts about `seconds`, not up to one more.
    let mut pass_s = 0.0;
    while iter < spec.min_iterations || start.elapsed().as_secs_f64() + pass_s / 2.0 < spec.seconds
    {
        iter += 1;
        let pass = Instant::now();
        let plain = run_plain(&input);
        let secs = pass.elapsed().as_secs_f64();
        if let (true, Ok(o)) = (check(plain.as_ref()), &plain) {
            wall.push(secs);
            rate.push(o.events as f64 / secs);
        }
        if spec.trace {
            tracer.set_iteration(iter as u32);
            let result = run_traced(&input, &tracer);
            if let (true, Ok(t)) = (check(result.as_ref().map(|t| &t.outcome)), result) {
                traced.push((iter as u32, t));
            }
        }
        pass_s = pass.elapsed().as_secs_f64();
    }

    let quartiles = |v: &[f64]| {
        Quartiles::of(v).ok_or_else(|| BenchError("no timed iteration succeeded".into()))
    };
    let mut report = Report {
        correct: failed == 0,
        attempted,
        failed,
        digest: reference.digest,
        summary: reference.summary,
        metrics: Vec::new(),
        spans: Vec::new(),
        layers: Vec::new(),
        overhead_s: None,
    };
    if spec.trace {
        let spans = tracer.spans();
        report.metrics = layer_metrics(&spans, &traced)?;
        report.layers = layer_table(&spans, traced.len());
        let total = report.metrics.iter().find(|m| m.name == "trace.total_s").map(|m| m.q.median);
        report.overhead_s = total.map(|t| t - quartiles(&wall).map_or(0.0, |q| q.median));
        report.spans = spans;
    } else {
        // Other tenants of a shared host only ever add time to an
        // iteration, in stretches of seconds to minutes, so the fastest
        // iteration is the steadiest estimate of the program's own cost;
        // the median is printed beside it. The sweep's two workers race
        // for the sizing memo and now and then run 7 searches instead of
        // 8, but only when one worker falls behind: such iterations have
        // been slower than the run's fastest, not faster.
        let (wall_q, rate_q) = (quartiles(&wall)?, quartiles(&rate)?);
        let wall_s = wall.iter().copied().fold(f64::INFINITY, f64::min);
        let events_per_s = rate.iter().copied().fold(0.0, f64::max);
        report.metrics = vec![
            Metric { name: "wall_s", unit: "s", value: wall_s, q: wall_q },
            Metric { name: "events_per_s", unit: "1/s", value: events_per_s, q: rate_q },
            Metric::median("setup_s", "s", quartiles(&setup_s)?),
            Metric::median("peak_rss_mb", "MB", quartiles(&[peak_rss_mb()?])?),
        ];
    }
    Ok(report)
}

/// Per-layer metrics of each traced iteration, as quartiles over them.
fn layer_metrics(spans: &[Span], traced: &[(u32, Traced)]) -> Result<Vec<Metric>, BenchError> {
    let per_iter: Vec<Vec<(&'static str, &'static str, f64)>> = traced
        .iter()
        .map(|(iter, t)| {
            let own: Vec<Span> = spans.iter().filter(|s| s.iter == *iter).cloned().collect();
            layer_values(&own, t)
        })
        .collect();
    let first =
        per_iter.first().ok_or_else(|| BenchError("no traced iteration succeeded".into()))?;
    Ok(first
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| {
            let values: Vec<f64> = per_iter.iter().map(|v| v[i].2).collect();
            Metric::median(name, unit, Quartiles::of(&values).expect("one value per iteration"))
        })
        .collect())
}

/// The per-layer metrics of one traced iteration. Times are shares of
/// the iteration's summed self time (its wall time, except in the
/// parallel sweep where both workers' time adds up), so a layer the
/// workload never calls reads 0 rather than a time; `trace.total_s`
/// is the base that turns a share back into seconds.
fn layer_values(spans: &[Span], t: &Traced) -> Vec<(&'static str, &'static str, f64)> {
    let layers = self_times(spans);
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let busy_ns = layers.values().map(|l| l.self_ns).sum::<u64>().max(1) as f64;
    let frac = |names: &[&str]| names.iter().map(|n| get(n).self_ns).sum::<u64>() as f64 / busy_ns;
    let per_s = |work: u64, l: Layer| {
        if l.self_ns == 0 {
            0.0
        } else {
            work as f64 / (l.self_ns as f64 * 1e-9)
        }
    };
    let total_ns: u64 =
        spans.iter().filter(|s| s.name == ROOT).map(|s| s.end_ns - s.start_ns).sum();
    let (prepare, replay, decode) =
        (get("vmalloc.prepare"), get("vmalloc.replay"), get("workloads.decode"));
    let sizing_ns = get("cluster.size_baseline").self_ns + get("cluster.size_mixed").self_ns;
    let (c, f) = (&t.cache, &t.faults);
    let useful =
        if c.sizing_misses == 0 { 1.0 } else { c.sizing_entries as f64 / c.sizing_misses as f64 };
    vec![
        ("trace.total_s", "s", total_ns as f64 * 1e-9),
        ("core.self_frac", "frac", frac(&[ROOT, "core.point"])),
        ("carbon.assess_frac", "frac", frac(&["carbon.assess"])),
        ("core.router_frac", "frac", frac(&["core.router"])),
        ("vmalloc.prepare_frac", "frac", frac(&["vmalloc.prepare"])),
        ("vmalloc.prepare_events_per_s", "1/s", per_s(prepare.work, prepare)),
        ("cluster.size_baseline_frac", "frac", frac(&["cluster.size_baseline"])),
        ("cluster.size_mixed_frac", "frac", frac(&["cluster.size_mixed"])),
        ("cluster.size_replay_equiv", "x", sizing_ns as f64 / replay.self_ns.max(1) as f64),
        ("vmalloc.replay_frac", "frac", frac(&["vmalloc.replay"])),
        ("vmalloc.replay_events_per_s", "1/s", per_s(replay.work, replay)),
        ("vmalloc.replay_sharded_frac", "frac", frac(&["vmalloc.replay_sharded"])),
        ("maintenance.fault_plan_frac", "frac", frac(&["maintenance.fault_plan"])),
        ("maintenance.fault_events", "count", get("maintenance.fault_plan").work as f64),
        ("workloads.decode_frac", "frac", frac(&["workloads.decode"])),
        ("workloads.decode_mb_per_s", "MB/s", per_s(t.decoded_bytes, decode) / 1e6),
        ("vmalloc.displaced", "count", f.displaced as f64),
        ("vmalloc.evacuated", "count", f.evacuated as f64),
        ("vmalloc.evac_failures", "count", f.evacuation_failures as f64),
        ("vmalloc.revivals", "count", f.revivals as f64),
        ("vmalloc.max_displaced", "count", f.availability.max_simultaneous_displaced as f64),
        ("core.ctx.sizing_misses", "count", c.sizing_misses as f64),
        ("core.ctx.sizing_entries", "count", c.sizing_entries as f64),
        ("core.ctx.sizing_useful", "frac", useful),
        ("core.ctx.prepared_misses", "count", c.prepared_misses as f64),
        ("core.ctx.assess_misses", "count", c.misses as f64),
    ]
}

/// Self time, share and calls of every span name, per traced iteration.
fn layer_table(spans: &[Span], iterations: usize) -> Vec<LayerRow> {
    let layers: BTreeMap<&'static str, Layer> = self_times(spans);
    let busy_ns = layers.values().map(|l| l.self_ns).sum::<u64>().max(1) as f64;
    let n = iterations.max(1) as f64;
    let mut rows: Vec<LayerRow> = layers
        .iter()
        .map(|(&name, l)| LayerRow {
            name,
            self_s: l.self_ns as f64 * 1e-9 / n,
            share: l.self_ns as f64 / busy_ns,
            calls: l.calls as f64 / n,
        })
        .collect();
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    rows
}

/// This process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| BenchError("no VmHWM line in /proc/self/status".into()))
}
