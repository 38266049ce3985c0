//! The `gsf` subcommands, each returning its output as a string.

use crate::args::{ArgError, Args};
use gsf_carbon::cost::{CostModel, CostParams};
use gsf_carbon::datasets::open_source;
use gsf_carbon::units::{CarbonIntensity, Years};
use gsf_carbon::{CarbonModel, ModelParams, ServerSpec};
use gsf_core::report::deployment_report;
use gsf_core::search::{evaluate_space_with, pareto_front, CandidateSpace};
use gsf_core::{
    EvalContext, GreenSkuDesign, GsfError, GsfPipeline, PipelineConfig, PipelineOutcome,
};
use gsf_stats::rng::SeedFactory;
use gsf_stats::table::{fmt_f, fmt_pct, Table};
use gsf_workloads::{
    decode_chunks, Trace, TraceChunkReader, TraceGenerator, TraceParams, TraceStreamError,
    DEFAULT_CHUNK_EVENTS,
};
use std::fmt;

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown SKU or design name.
    UnknownName {
        /// What was looked up.
        kind: &'static str,
        /// The name that failed.
        name: String,
        /// Valid options.
        options: Vec<&'static str>,
    },
    /// Carbon-model failure.
    Carbon(gsf_carbon::CarbonError),
    /// Framework failure.
    Gsf(GsfError),
    /// Filesystem failure.
    Io(std::io::Error),
    /// Trace file failure (I/O, truncation, a foreign format, or
    /// corruption).
    Stream(TraceStreamError),
    /// Invalid fault-model parameter.
    Maintenance(gsf_maintenance::MaintenanceError),
    /// A flag value the command cannot run with.
    OutOfRange {
        /// The flag.
        flag: &'static str,
        /// The value given.
        value: String,
        /// What the flag accepts.
        expected: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => write!(f, "unknown command `{c}` (try --help)"),
            CliError::UnknownName { kind, name, options } => {
                write!(f, "unknown {kind} `{name}`; options: {}", options.join(", "))
            }
            CliError::Carbon(e) => write!(f, "{e}"),
            CliError::Gsf(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Stream(e) => write!(f, "{e}"),
            CliError::Maintenance(e) => write!(f, "{e}"),
            CliError::OutOfRange { flag, value, expected } => {
                write!(f, "--{flag} {value} is out of range: expected {expected}")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}
impl From<gsf_carbon::CarbonError> for CliError {
    fn from(e: gsf_carbon::CarbonError) -> Self {
        CliError::Carbon(e)
    }
}
impl From<GsfError> for CliError {
    fn from(e: GsfError) -> Self {
        CliError::Gsf(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<TraceStreamError> for CliError {
    fn from(e: TraceStreamError) -> Self {
        CliError::Stream(e)
    }
}
impl From<gsf_maintenance::MaintenanceError> for CliError {
    fn from(e: gsf_maintenance::MaintenanceError) -> Self {
        CliError::Maintenance(e)
    }
}

const SKU_NAMES: [&str; 7] = [
    "baseline-gen1",
    "baseline-gen2",
    "baseline-gen3",
    "baseline-resized",
    "greensku-efficient",
    "greensku-cxl",
    "greensku-full",
];

fn sku_by_name(name: &str) -> Result<ServerSpec, CliError> {
    match name {
        "baseline-gen1" => Ok(open_source::baseline_gen1()),
        "baseline-gen2" => Ok(open_source::baseline_gen2()),
        "baseline-gen3" => Ok(open_source::baseline_gen3()),
        "baseline-resized" => Ok(open_source::baseline_resized()),
        "greensku-efficient" => Ok(open_source::greensku_efficient()),
        "greensku-cxl" => Ok(open_source::greensku_cxl()),
        "greensku-full" => Ok(open_source::greensku_full()),
        other => Err(CliError::UnknownName {
            kind: "SKU",
            name: other.to_string(),
            options: SKU_NAMES.to_vec(),
        }),
    }
}

const DESIGN_NAMES: [&str; 3] = ["efficient", "cxl", "full"];

fn design_by_name(name: &str) -> Result<GreenSkuDesign, CliError> {
    match name {
        "efficient" => Ok(GreenSkuDesign::efficient()),
        "cxl" => Ok(GreenSkuDesign::cxl()),
        "full" => Ok(GreenSkuDesign::full()),
        other => Err(CliError::UnknownName {
            kind: "design",
            name: other.to_string(),
            options: DESIGN_NAMES.to_vec(),
        }),
    }
}

fn params_from(args: &Args) -> Result<ModelParams, CliError> {
    let ci = args.get_num("ci", 0.1)?;
    let lifetime = args.get_num("lifetime", 6.0)?;
    Ok(ModelParams::default_open_source()
        .with_carbon_intensity(CarbonIntensity::new(ci))
        .with_lifetime(Years::new(lifetime)))
}

/// The most VMs (`--hours` × `--arrivals`) a synthesized trace may be
/// expected to hold: ten times the largest fleet fixture (~1M VMs).
const MAX_EXPECTED_VMS: f64 = 1e7;

/// Reads `--hours` and `--arrivals` for trace synthesis. Both must be
/// finite and positive, and their product, the expected VM count, at
/// most [`MAX_EXPECTED_VMS`]: otherwise the generator never finishes
/// (NaN) or grows its output until the process is killed.
fn synthesis_window(args: &Args) -> Result<(f64, f64), CliError> {
    let hours: f64 = args.get_num("hours", 24.0)?;
    let arrivals: f64 = args.get_num("arrivals", 80.0)?;
    for (flag, value) in [("hours", hours), ("arrivals", arrivals)] {
        if !(value.is_finite() && value > 0.0) {
            let expected = "a finite number above 0".to_string();
            return Err(CliError::OutOfRange { flag, value: value.to_string(), expected });
        }
    }
    if hours * arrivals > MAX_EXPECTED_VMS {
        return Err(CliError::OutOfRange {
            flag: "arrivals",
            value: arrivals.to_string(),
            expected: format!("--hours × --arrivals at most {MAX_EXPECTED_VMS:e} VMs"),
        });
    }
    Ok((hours, arrivals))
}

/// Reads a count flag that must be at least `min`.
fn count_at_least(
    args: &Args,
    flag: &'static str,
    default: usize,
    min: usize,
) -> Result<usize, CliError> {
    let n = args.get_num(flag, default)?;
    if n < min {
        return Err(CliError::OutOfRange {
            flag,
            value: n.to_string(),
            expected: format!("at least {min}"),
        });
    }
    Ok(n)
}

/// The most shards `--shards` may ask for. Every shard gets its own
/// simulator and partition bounds, so an unchecked count allocates
/// without limit.
const MAX_SHARDS: usize = 1024;

/// Reads `--shards`, at most [`MAX_SHARDS`]. 0 and 1 both select the
/// unsharded engine and read as 1.
fn shard_count(args: &Args) -> Result<usize, CliError> {
    let shards: usize = args.get_num("shards", 1usize)?;
    if shards > MAX_SHARDS {
        return Err(CliError::OutOfRange {
            flag: "shards",
            value: shards.to_string(),
            expected: format!("at most {MAX_SHARDS}"),
        });
    }
    Ok(shards.max(1))
}

fn trace_from(args: &Args) -> Result<Trace, CliError> {
    let (hours, arrivals) = synthesis_window(args)?;
    let seed = args.get_num("seed", 42u64)?;
    let diurnal = args.get_num("diurnal", 0.0)?;
    Ok(TraceGenerator::new(TraceParams {
        duration_hours: hours,
        arrivals_per_hour: arrivals,
        diurnal_amplitude: diurnal,
        ..TraceParams::default()
    })
    .generate(&SeedFactory::new(seed), 0))
}

/// The help text.
pub fn help() -> String {
    let mut out = String::from(
        "gsf — GreenSKU framework CLI\n\n\
         commands:\n\
         \u{20}  list-skus                          built-in SKU configurations\n\
         \u{20}  assess    --sku NAME [--ci X] [--lifetime Y] [--spec-load F]\n\
         \u{20}  compare   --green NAME [--baseline NAME] [--ci X]\n\
         \u{20}  sweep     --green NAME [--from X] [--to Y] [--points N]\n\
         \u{20}  report    --design efficient|cxl|full [--hours H] [--arrivals A] [--seed S]\n\
         \u{20}  search    [--workers N]            design-space exploration + Pareto front\n\
         \u{20}  tco                                TCO model over the SKU set\n\
         \u{20}  trace synth   --out FILE [--hours H] [--arrivals A] [--seed S] [--diurnal A] [--chunk-events N]\n\
         \u{20}  gen-trace     the same as trace synth\n\
         \u{20}  trace inspect --trace FILE\n\
         \u{20}  replay    --trace FILE --design NAME\n\
         \u{20}  characterize [--trace FILE | --hours H --arrivals A --seed S]\n\
         \u{20}  regions                            per-region CI and best design\n\
         \u{20}  defer     --region NAME [--runtime H] [--cores N]\n\
         \u{20}  faults    --design NAME [--afr-scale X] [--fip F] [--years Y] [--fault-seed S]\n\
         \u{20}            [--topology N] [--domain-rate R] [--repair-days D] [--slo M] [--format text|json]\n\
         \u{20}  fleet     --design NAME [--traces N] [--workers N] [--shards K] [--hours H] [--seed S]\n\
         \u{20}            [--trace-file FILE]   evaluate a trace file, streamed\n\nSKUs: ",
    );
    out.push_str(&SKU_NAMES.join(", "));
    out.push('\n');
    out
}

/// Dispatches a parsed command; returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] describing what went wrong (printed to stderr
/// by `main`).
pub fn run_command(args: &Args) -> Result<String, CliError> {
    match args.command() {
        "--help" | "-h" | "help" => Ok(help()),
        "list-skus" => list_skus(),
        "assess" => assess(args),
        "compare" => compare(args),
        "sweep" => sweep(args),
        "report" => report(args),
        "search" => search(args),
        "tco" => tco(),
        "trace synth" | "gen-trace" => trace_synth(args),
        "trace inspect" => trace_inspect(args),
        "trace" => Err(CliError::UnknownCommand("trace (expected synth or inspect)".to_string())),
        "replay" => replay(args),
        "characterize" => characterize_cmd(args),
        "regions" => regions_cmd(),
        "defer" => defer_cmd(args),
        "faults" => faults_cmd(args),
        "fleet" => fleet_cmd(args),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn list_skus() -> Result<String, CliError> {
    let mut t =
        Table::new(vec!["Name", "Cores", "Memory (GB)", "CXL (GB)", "SSD (TB)", "Power (W)"]);
    for name in SKU_NAMES {
        let sku = sku_by_name(name)?;
        t.row(vec![
            name.to_string(),
            sku.cores().to_string(),
            format!("{:.0}", sku.memory_capacity().get()),
            format!("{:.0}", sku.cxl_memory_capacity().get()),
            format!("{:.0}", sku.ssd_capacity().get()),
            format!("{:.0}", sku.average_power().get()),
        ]);
    }
    Ok(t.render_text())
}

fn assess(args: &Args) -> Result<String, CliError> {
    use gsf_carbon::derating::DeratingCurve;
    let sku = sku_by_name(args.get_or("sku", "greensku-full"))?;
    let params = params_from(args)?;
    let model = CarbonModel::new(params);
    let a = model.assess(&sku)?;
    // Optional fleet-utilization adjustment: the datasets bake in the
    // paper's 0.44 derate (40 % SPEC load); --spec-load rescales the
    // operational side along the SPECpower-style curve.
    let spec_load = args.get_num("spec-load", 0.4)?;
    let curve = DeratingCurve::specpower_like();
    let scale = curve.derate_at(spec_load) / curve.derate_at(0.4);
    let op = a.op_per_core().get() * scale;
    Ok(format!(
        "{}\n  servers/rack: {}\n  cores/rack:   {}\n  server power: {:.1} W (at 40% SPEC load)\n  \
         operational:  {:.2} kg CO2e/core (at {:.0}% SPEC load)\n  embodied:     {:.2} kg CO2e/core\n  \
         total:        {:.2} kg CO2e/core (CI {}, lifetime {} y)\n",
        sku.name(),
        a.servers_per_rack(),
        a.cores_per_rack(),
        a.server_power().get(),
        op,
        spec_load * 100.0,
        a.emb_per_core().get(),
        op + a.emb_per_core().get(),
        params.carbon_intensity.get(),
        params.lifetime.get(),
    ))
}

fn compare(args: &Args) -> Result<String, CliError> {
    let green = sku_by_name(args.get_or("green", "greensku-full"))?;
    let baseline = sku_by_name(args.get_or("baseline", "baseline-gen3"))?;
    let model = CarbonModel::new(params_from(args)?);
    let s = model.savings(&baseline, &green)?;
    Ok(format!(
        "{} vs {}\n  operational savings: {}\n  embodied savings:    {}\n  total savings:       {}\n",
        green.name(),
        baseline.name(),
        fmt_pct(s.operational, 1),
        fmt_pct(s.embodied, 1),
        fmt_pct(s.total, 1),
    ))
}

fn sweep(args: &Args) -> Result<String, CliError> {
    let green = sku_by_name(args.get_or("green", "greensku-full"))?;
    let baseline = sku_by_name(args.get_or("baseline", "baseline-gen3"))?;
    let from = args.get_num("from", 0.01)?;
    let to = args.get_num("to", 0.5)?;
    let points = count_at_least(args, "points", 25, 2)?;
    let mut out = String::from("carbon_intensity,operational,embodied,total\n");
    for i in 0..points {
        let ci = from + (to - from) * i as f64 / (points - 1) as f64;
        let model = CarbonModel::new(
            ModelParams::default_open_source().with_carbon_intensity(CarbonIntensity::new(ci)),
        );
        let s = model.savings(&baseline, &green)?;
        out.push_str(&format!(
            "{},{},{},{}\n",
            fmt_f(ci, 3),
            fmt_f(s.operational, 4),
            fmt_f(s.embodied, 4),
            fmt_f(s.total, 4)
        ));
    }
    Ok(out)
}

fn report(args: &Args) -> Result<String, CliError> {
    let design = design_by_name(args.get_or("design", "full"))?;
    let trace = trace_from(args)?;
    let pipeline = GsfPipeline::new(PipelineConfig::default());
    Ok(deployment_report(&pipeline, &design, &trace)?)
}

fn search(args: &Args) -> Result<String, CliError> {
    let workers = args.get_num("workers", gsf_cluster::parallel::default_workers())?;
    let results = evaluate_space_with(
        &CandidateSpace::paper_neighborhood(),
        ModelParams::default_open_source(),
        &EvalContext::new(),
        workers.max(1),
    )?;
    let front: std::collections::HashSet<String> =
        pareto_front(&results).iter().map(|r| r.name.clone()).collect();
    let mut t =
        Table::new(vec!["Rank", "Candidate", "kg/core", "Adoption", "Effective savings", ""]);
    for (i, r) in results.iter().enumerate().take(12) {
        t.row(vec![
            (i + 1).to_string(),
            r.name.clone(),
            fmt_f(r.per_core_kg, 1),
            fmt_pct(r.adoption_rate, 0),
            fmt_pct(r.effective_savings, 1),
            if front.contains(&r.name) { "pareto".into() } else { String::new() },
        ]);
    }
    Ok(t.render_text())
}

fn tco() -> Result<String, CliError> {
    let model = CostModel::new(ModelParams::default_open_source(), CostParams::public_estimates());
    let mut t = Table::new(vec!["SKU", "Capex $/core", "Energy $/core", "TCO $/core"]);
    for name in SKU_NAMES {
        let sku = sku_by_name(name)?;
        let a = model.assess(&sku)?;
        t.row(vec![
            name.to_string(),
            fmt_f(a.capex_per_core, 0),
            fmt_f(a.energy_per_core, 0),
            fmt_f(a.total_per_core(), 0),
        ]);
    }
    Ok(t.render_text())
}

/// Synthesizes a trace straight to a chunked file: the generator's
/// event stream goes through [`TraceGenerator::synthesize_streamed`],
/// so peak memory is O(concurrency), never O(trace) — the path for
/// fleet-scale multi-week traces.
fn trace_synth(args: &Args) -> Result<String, CliError> {
    use std::io::Write as _;
    let out_path = args.get("out").ok_or_else(|| ArgError::MissingValue("out".into()))?.to_string();
    let (hours, arrivals) = synthesis_window(args)?;
    let seed = args.get_num("seed", 42u64)?;
    let diurnal = args.get_num("diurnal", 0.0)?;
    let chunk_events = count_at_least(args, "chunk-events", DEFAULT_CHUNK_EVENTS, 1)?;
    let g = TraceGenerator::new(TraceParams {
        duration_hours: hours,
        arrivals_per_hour: arrivals,
        diurnal_amplitude: diurnal,
        ..TraceParams::default()
    });
    let mut out = std::io::BufWriter::new(std::fs::File::create(&out_path)?);
    let digest = g.synthesize_streamed(&SeedFactory::new(seed), 0, &mut out, chunk_events)?;
    out.flush()?;
    // Read the file back through the verifying decoder: every chunk
    // hash and the footer digest are checked before we report success.
    let scan = scan_trace(&out_path)?;
    debug_assert_eq!(scan.digest, digest);
    Ok(format!(
        "synthesized {} VMs / {} events over {hours:.0} h to {out_path} \
         (chunked, digest {:016x}{:016x}, verified)\n",
        scan.vms, scan.events, digest.0, digest.1
    ))
}

/// What one verified pass over a trace file found.
struct TraceScan {
    duration_s: f64,
    vms: u64,
    events: u64,
    chunks: u64,
    digest: (u64, u64),
}

/// Streams a trace file end to end, verifying every chunk hash and the
/// footer.
fn scan_trace(path: &str) -> Result<TraceScan, CliError> {
    let file = std::fs::File::open(path)?;
    let mut reader = TraceChunkReader::new(std::io::BufReader::new(file))?;
    let mut chunks = 0u64;
    while let Some(_chunk) = reader.next_chunk()? {
        chunks += 1;
    }
    let (vms, events) = reader.totals().unwrap_or((0, 0));
    let digest = reader.content_hash().unwrap_or((0, 0));
    Ok(TraceScan { duration_s: reader.duration_s(), vms, events, chunks, digest })
}

/// Reports what a trace file contains without materializing it, in one
/// streamed pass that verifies every chunk.
fn trace_inspect(args: &Args) -> Result<String, CliError> {
    let path = args.get("trace").ok_or_else(|| ArgError::MissingValue("trace".into()))?.to_string();
    let TraceScan { duration_s, vms, events, chunks, digest } = scan_trace(&path)?;
    Ok(format!(
        "{path}: chunked trace\n  duration: {:.2} h\n  VMs:      {vms}\n  \
         events:   {events}\n  chunks:   {chunks}\n  digest:   {:016x}{:016x} (verified)\n",
        duration_s / 3600.0,
        digest.0,
        digest.1
    ))
}

/// Evaluates `design` on a trace file. The file streams through
/// [`GsfPipeline::evaluate_streamed`] and is never materialized, so
/// multi-week fleet traces evaluate in bounded memory. Returns the
/// outcome and the trace's VM count.
fn evaluate_file(
    pipeline: &GsfPipeline,
    design: &GreenSkuDesign,
    path: &str,
) -> Result<(PipelineOutcome, u64), CliError> {
    let file = std::fs::File::open(path)?;
    let mut reader = TraceChunkReader::new(std::io::BufReader::new(file))?;
    let o = pipeline.evaluate_streamed(design, &mut reader)?;
    let (vms, _) = reader.totals().unwrap_or((0, 0));
    Ok((o, vms))
}

fn replay(args: &Args) -> Result<String, CliError> {
    let path = args.get("trace").ok_or_else(|| ArgError::MissingValue("trace".into()))?.to_string();
    let design = design_by_name(args.get_or("design", "full"))?;
    let pipeline = GsfPipeline::new(PipelineConfig::default());
    let (o, vms) = evaluate_file(&pipeline, &design, &path)?;
    Ok(format!(
        "{} on {} VMs:\n  plan: {} baseline + {} GreenSKU (buffered {} + {})\n  \
         adoption {:.1}%  cluster savings {:.1}%  DC savings {:.1}%\n",
        o.design,
        vms,
        o.plan.baseline,
        o.plan.green,
        o.plan_buffered.baseline,
        o.plan_buffered.green,
        o.adoption_rate * 100.0,
        o.cluster_savings * 100.0,
        o.dc_savings * 100.0,
    ))
}

fn characterize_cmd(args: &Args) -> Result<String, CliError> {
    let trace = match args.get("trace") {
        Some(path) => decode_chunks(std::io::BufReader::new(std::fs::File::open(path)?))?,
        None => trace_from(args)?,
    };
    Ok(gsf_workloads::characterize(&trace).render())
}

fn regions_cmd() -> Result<String, CliError> {
    use gsf_carbon::grid::regions;
    let baseline = open_source::baseline_gen3();
    let greens = [
        ("efficient", open_source::greensku_efficient()),
        ("cxl", open_source::greensku_cxl()),
        ("full", open_source::greensku_full()),
    ];
    let mut t = Table::new(vec![
        "Region",
        "Avg CI (kg/kWh)",
        "Renewables",
        "Cleanest hour",
        "Best design",
        "Savings",
    ]);
    for r in regions() {
        let model = CarbonModel::new(
            ModelParams::default_open_source().with_carbon_intensity(r.average_ci()),
        );
        let mut best = ("-", f64::NEG_INFINITY);
        for (name, sku) in &greens {
            let s = model.savings(&baseline, sku)?.total;
            if s > best.1 {
                best = (name, s);
            }
        }
        t.row(vec![
            r.name.to_string(),
            fmt_f(r.average_ci().get(), 3),
            fmt_pct(r.renewable_fraction, 0),
            format!("{:02.0}:00", r.cleanest_hour()),
            best.0.to_string(),
            fmt_pct(best.1, 1),
        ]);
    }
    Ok(t.render_text())
}

fn defer_cmd(args: &Args) -> Result<String, CliError> {
    use gsf_core::temporal::{schedule_job, BatchJob};
    let region_name = args.get_or("region", "us-central");
    let region = gsf_carbon::grid::region(region_name).ok_or_else(|| CliError::UnknownName {
        kind: "region",
        name: region_name.to_string(),
        options: vec![
            "us-south",
            "us-west",
            "us-central",
            "us-east",
            "europe-west",
            "europe-north",
            "asia-east",
            "asia-south",
            "australia-east",
            "brazil-south",
        ],
    })?;
    let runtime = args.get_num("runtime", 2.0)?;
    let cores = args.get_num("cores", 8u32)?;
    let job = BatchJob::flexible(runtime, cores);
    let s = schedule_job(&region, &job);
    Ok(format!(
        "{region_name}: defer a {runtime} h / {cores}-core batch job to {:02.0}:00\n           mean CI if run now:      {:.3} kgCO2e/kWh\n           mean CI at chosen start: {:.3} kgCO2e/kWh\n           operational savings:     {}\n",
        s.start_hour,
        s.immediate_ci,
        s.scheduled_ci,
        fmt_pct(s.savings(), 1),
    ))
}

/// Escapes a string for embedding in the hand-rolled JSON output
/// (same escaping rules as `gsf-lint`'s report).
fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One pipeline outcome as a JSON object fragment for `gsf faults
/// --format json` (no trailing newline, no surrounding braces' key).
fn faults_json_outcome(o: &gsf_core::PipelineOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"plan\":{{\"baseline\":{},\"green\":{},\"buffered_baseline\":{},\"buffered_green\":{}}},",
        o.plan.baseline, o.plan.green, o.plan_buffered.baseline, o.plan_buffered.green
    );
    let _ = write!(
        out,
        "\"cluster_savings\":{},\"expected_capacity_loss\":{},",
        o.cluster_savings, o.expected_capacity_loss
    );
    let _ = write!(
        out,
        "\"faults\":{{\"full_failures\":{},\"partial_degrades\":{},\"revivals\":{},\
         \"displaced\":{},\"evacuated\":{},\"evacuation_failures\":{}}},",
        o.faults.full_failures,
        o.faults.partial_degrades,
        o.faults.revivals,
        o.faults.displaced,
        o.faults.evacuated,
        o.faults.evacuation_failures
    );
    let a = &o.availability;
    let _ = write!(
        out,
        "\"availability\":{{\"vm_minutes_lost\":{},\"availability\":{},\"nines\":{},\
         \"max_simultaneous_displaced\":{},\"blast_radius_servers\":{},\"server_down_seconds\":{}}}",
        a.vm_minutes_lost(),
        a.availability(),
        a.nines(),
        a.max_simultaneous_displaced,
        a.blast_radius_servers,
        a.server_down_seconds
    );
    out.push('}');
    out
}

fn faults_cmd(args: &Args) -> Result<String, CliError> {
    use gsf_maintenance::{ComponentAfrs, FaultModel, FaultTopology, FipPolicy};
    let design = design_by_name(args.get_or("design", "full"))?;
    let trace = trace_from(args)?;
    let afr_scale = args.get_num("afr-scale", 1.0)?;
    let fip = args.get_num("fip", 0.75)?;
    let years = args.get_num("years", 1.0)?;
    let fault_seed = args.get_num("fault-seed", 7u64)?;
    let topology: u32 = args.get_num("topology", 0u32)?;
    let domain_rate = args.get_num("domain-rate", 1.0)?;
    let repair_days = args.get_num("repair-days", 0.0)?;
    let slo: f64 = args.get_num("slo", -1.0)?;
    let format = args.get_or("format", "text");
    let paper = FaultModel::paper(fault_seed);
    let mut model = FaultModel::new(
        ComponentAfrs::paper(),
        FipPolicy { effectiveness: fip },
        afr_scale,
        years,
        paper.degrade_core_fraction,
        paper.degrade_mem_fraction,
        paper.max_evac_passes,
        fault_seed,
    )?;
    if topology > 0 {
        model = model.with_topology(FaultTopology {
            domain_size: topology,
            domain_events_per_100: domain_rate,
        })?;
    }
    if repair_days > 0.0 {
        model = model.with_repair_days(repair_days)?;
    }
    let availability_slo = (slo >= 0.0).then_some(slo);
    let clean = GsfPipeline::new(PipelineConfig::default());
    let faulted = GsfPipeline::new(PipelineConfig {
        faults: model,
        availability_slo,
        ..PipelineConfig::default()
    });
    let c = clean.evaluate(&design, &trace)?;
    let f = faulted.evaluate(&design, &trace)?;
    if format == "json" {
        return Ok(format!(
            "{{\"design\":\"{}\",\"afr_scale\":{afr_scale},\"fip\":{fip},\"years\":{years},\
             \"fault_seed\":{fault_seed},\"domain_size\":{topology},\"repair_days\":{repair_days},\
             \"clean\":{},\"faulted\":{}}}\n",
            json_escape(&f.design),
            faults_json_outcome(&c),
            faults_json_outcome(&f)
        ));
    }
    let mut t = Table::new(vec!["Metric", "Fault-free", "Faulted"]);
    let plan = |o: &gsf_core::PipelineOutcome| {
        format!(
            "{} + {} (buffered {} + {})",
            o.plan.baseline, o.plan.green, o.plan_buffered.baseline, o.plan_buffered.green
        )
    };
    t.row(vec!["plan (baseline + green)".into(), plan(&c), plan(&f)]);
    t.row(vec![
        "cluster savings".into(),
        fmt_pct(c.cluster_savings, 1),
        fmt_pct(f.cluster_savings, 1),
    ]);
    t.row(vec![
        "expected capacity loss".into(),
        fmt_pct(c.expected_capacity_loss, 2),
        fmt_pct(f.expected_capacity_loss, 2),
    ]);
    t.row(vec![
        "full failures / partial degrades".into(),
        format!("{} / {}", c.faults.full_failures, c.faults.partial_degrades),
        format!("{} / {}", f.faults.full_failures, f.faults.partial_degrades),
    ]);
    t.row(vec![
        "revivals (return-to-service)".into(),
        c.faults.revivals.to_string(),
        f.faults.revivals.to_string(),
    ]);
    t.row(vec![
        "VMs displaced / evacuated".into(),
        format!("{} / {}", c.faults.displaced, c.faults.evacuated),
        format!("{} / {}", f.faults.displaced, f.faults.evacuated),
    ]);
    t.row(vec![
        "evacuation failures".into(),
        c.faults.evacuation_failures.to_string(),
        f.faults.evacuation_failures.to_string(),
    ]);
    t.row(vec![
        "VM-minutes lost".into(),
        fmt_f(c.availability.vm_minutes_lost(), 2),
        fmt_f(f.availability.vm_minutes_lost(), 2),
    ]);
    t.row(vec![
        "availability (nines)".into(),
        format!(
            "{} ({})",
            fmt_f(c.availability.availability(), 6),
            fmt_f(c.availability.nines(), 2)
        ),
        format!(
            "{} ({})",
            fmt_f(f.availability.availability(), 6),
            fmt_f(f.availability.nines(), 2)
        ),
    ]);
    t.row(vec![
        "max simultaneous displaced".into(),
        c.availability.max_simultaneous_displaced.to_string(),
        f.availability.max_simultaneous_displaced.to_string(),
    ]);
    t.row(vec![
        "blast radius (servers)".into(),
        c.availability.blast_radius_servers.to_string(),
        f.availability.blast_radius_servers.to_string(),
    ]);
    t.row(vec![
        "server downtime (h)".into(),
        fmt_f(c.availability.server_down_seconds / 3600.0, 2),
        fmt_f(f.availability.server_down_seconds / 3600.0, 2),
    ]);
    Ok(format!(
        "{} — AFR×{:.2}, FIP {:.0}%, {:.1} y horizon, seed {}, domain size {}, repair {:.1} d\n{}",
        f.design,
        afr_scale,
        fip * 100.0,
        years,
        fault_seed,
        topology,
        repair_days,
        t.render_text()
    ))
}

/// `gsf fleet --trace-file FILE`: evaluate one on-disk trace, streamed
/// (see [`evaluate_file`]).
fn fleet_file_cmd(args: &Args, path: &str) -> Result<String, CliError> {
    let design = design_by_name(args.get_or("design", "full"))?;
    let shards = shard_count(args)?;
    let pipeline = GsfPipeline::new(PipelineConfig { shards, ..PipelineConfig::default() });
    let (o, vms) = evaluate_file(&pipeline, &design, path)?;
    Ok(format!(
        "{} on {path} ({vms} VMs):\n  plan: {} baseline + {} GreenSKU (buffered {} + {})\n  \
         adoption {:.1}%  cluster savings {:.1}%  DC savings {:.1}%\n",
        o.design,
        o.plan.baseline,
        o.plan.green,
        o.plan_buffered.baseline,
        o.plan_buffered.green,
        o.adoption_rate * 100.0,
        o.cluster_savings * 100.0,
        o.dc_savings * 100.0,
    ))
}

fn fleet_cmd(args: &Args) -> Result<String, CliError> {
    if let Some(path) = args.get("trace-file") {
        let path = path.to_string();
        return fleet_file_cmd(args, &path);
    }
    let design = design_by_name(args.get_or("design", "full"))?;
    let n = count_at_least(args, "traces", 4, 1)?;
    let workers: usize = args.get_num("workers", gsf_cluster::parallel::default_workers())?;
    let shards = shard_count(args)?;
    let (hours, arrivals) = synthesis_window(args)?;
    let seed = args.get_num("seed", 42u64)?;
    let gen = TraceGenerator::new(TraceParams {
        duration_hours: hours,
        arrivals_per_hour: arrivals,
        ..TraceParams::default()
    });
    let factory = SeedFactory::new(seed);
    let traces: Vec<Trace> = (0..n as u64).map(|i| gen.generate(&factory, i)).collect();
    let pipeline = GsfPipeline::new(PipelineConfig { shards, ..PipelineConfig::default() });
    let o = pipeline.evaluate_fleet(&design, &traces, workers.max(1))?;
    Ok(format!(
        "{} across {} traces ({} workers, {} shard{}):\n  cluster savings: mean {}  min {}  max {}\n  DC savings:      mean {}\n",
        design.name(),
        traces.len(),
        workers.max(1),
        shards,
        if shards == 1 { "" } else { "s" },
        fmt_pct(o.mean_cluster_savings, 1),
        fmt_pct(o.min_cluster_savings, 1),
        fmt_pct(o.max_cluster_savings, 1),
        fmt_pct(o.mean_dc_savings, 1),
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_workloads::TraceCodecError;

    fn run(argv: &[&str]) -> Result<String, CliError> {
        run_command(&Args::parse(argv.iter().copied()).unwrap())
    }

    #[test]
    fn list_skus_prints_all_seven() {
        let out = run(&["list-skus"]).unwrap();
        for name in SKU_NAMES {
            assert!(out.contains(name), "{name}");
        }
    }

    #[test]
    fn assess_reports_worked_numbers() {
        let out = run(&["assess", "--sku", "greensku-cxl"]).unwrap();
        assert!(out.contains("GreenSKU-CXL"));
        assert!(out.contains("kg CO2e/core"));
    }

    #[test]
    fn assess_spec_load_scales_operational() {
        let low = run(&["assess", "--sku", "greensku-full", "--spec-load", "0.2"]).unwrap();
        let high = run(&["assess", "--sku", "greensku-full", "--spec-load", "0.8"]).unwrap();
        let op = |out: &str| -> f64 {
            out.lines()
                .find(|l| l.contains("operational:"))
                .unwrap()
                .split_whitespace()
                .nth(1)
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(op(&high) > op(&low), "{high} vs {low}");
    }

    #[test]
    fn compare_matches_table_viii() {
        let out = run(&["compare", "--green", "greensku-full"]).unwrap();
        assert!(out.contains("total savings"));
        assert!(out.contains("26.4%"), "{out}");
    }

    #[test]
    fn sweep_emits_csv() {
        let out = run(&["sweep", "--green", "greensku-efficient", "--points", "5"]).unwrap();
        assert_eq!(out.lines().count(), 6);
        assert!(out.starts_with("carbon_intensity,"));
    }

    #[test]
    fn unknown_names_error_with_options() {
        let e = run(&["assess", "--sku", "nope"]).unwrap_err();
        assert!(e.to_string().contains("greensku-full"));
        let e = run(&["report", "--design", "nope", "--hours", "2"]).unwrap_err();
        assert!(e.to_string().contains("efficient"));
        let e = run(&["frobnicate"]).unwrap_err();
        assert!(matches!(e, CliError::UnknownCommand(_)));
    }

    #[test]
    fn gen_trace_and_replay_roundtrip() {
        let path = std::env::temp_dir().join(format!("gsf-cli-{}.gst", std::process::id()));
        let path_str = path.to_str().unwrap();
        let out =
            run(&["gen-trace", "--out", path_str, "--hours", "8", "--arrivals", "40"]).unwrap();
        assert!(out.contains("verified"), "{out}");
        let out = run(&["replay", "--trace", path_str, "--design", "full"]).unwrap();
        assert!(out.contains("cluster savings"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn gen_trace_and_trace_synth_write_the_same_trace() {
        let tmp = |name: &str| {
            std::env::temp_dir().join(format!("gsf-cli-{name}-{}.gst", std::process::id()))
        };
        let (synth, gen) = (tmp("synth"), tmp("gen"));
        let (p, g) = (synth.to_str().unwrap(), gen.to_str().unwrap());
        let window = ["--hours", "6", "--arrivals", "30", "--seed", "5"];
        let write = |cmd: &[&str], out: &str| {
            let mut argv = cmd.to_vec();
            argv.extend_from_slice(&["--out", out]);
            argv.extend_from_slice(&window);
            run(&argv).unwrap()
        };
        let out = write(&["trace", "synth"], p);
        assert!(out.contains("chunked") && out.contains("verified"), "{out}");
        write(&["gen-trace"], g);
        // The two names run one command: the same flags write the same
        // bytes.
        assert_eq!(std::fs::read(&synth).unwrap(), std::fs::read(&gen).unwrap());
        std::fs::remove_file(&gen).ok();

        let inspect = run(&["trace", "inspect", "--trace", p]).unwrap();
        assert!(inspect.contains("chunked trace"), "{inspect}");
        assert!(inspect.contains("verified"), "{inspect}");

        // The file holds the trace `characterize` generates from the
        // same flags.
        let mut argv = vec!["characterize"];
        argv.extend_from_slice(&window);
        assert_eq!(run(&["characterize", "--trace", p]).unwrap(), run(&argv).unwrap());

        let fleet = run(&["fleet", "--trace-file", p, "--design", "full"]).unwrap();
        assert!(fleet.contains(" VMs):"), "{fleet}");
        assert!(fleet.contains("cluster savings"), "{fleet}");
        std::fs::remove_file(synth).ok();
    }

    #[test]
    fn foreign_trace_files_fail_typed_at_every_command() {
        // The header of the retired single-blob format: its magic,
        // version 2, then 16 zero bytes (horizon and both counts).
        let path = std::env::temp_dir().join(format!("gsf-cli-foreign-{}.bin", std::process::id()));
        let p = path.to_str().unwrap();
        let mut raw = 0x6753_5447u32.to_be_bytes().to_vec();
        raw.extend_from_slice(&2u16.to_be_bytes());
        raw.extend_from_slice(&[0; 16]);
        std::fs::write(&path, raw).unwrap();
        for argv in [
            &["trace", "inspect", "--trace", p][..],
            &["replay", "--trace", p, "--design", "full"],
            &["characterize", "--trace", p],
            &["fleet", "--trace-file", p, "--design", "full"],
        ] {
            let result = run(argv);
            assert!(
                matches!(
                    result,
                    Err(CliError::Stream(TraceStreamError::Codec(TraceCodecError::BadMagic)))
                ),
                "{argv:?}: {result:?}"
            );
        }
        std::fs::remove_file(path).ok();
        // A bare `trace` is an unknown command with a hint.
        let e = run(&["trace"]).unwrap_err();
        assert!(e.to_string().contains("synth"), "{e}");
    }

    #[test]
    fn search_and_tco_render() {
        assert!(run(&["search"]).unwrap().contains("pareto"));
        assert!(run(&["tco"]).unwrap().contains("TCO $/core"));
    }

    #[test]
    fn characterize_renders_profile() {
        let out = run(&["characterize", "--hours", "6", "--arrivals", "30"]).unwrap();
        assert!(out.contains("core-hours total"), "{out}");
    }

    #[test]
    fn regions_table_covers_the_grid() {
        let out = run(&["regions"]).unwrap();
        assert!(out.contains("us-south"));
        assert!(out.contains("europe-north"));
        assert!(out.contains("full"), "{out}");
    }

    #[test]
    fn defer_picks_a_daylight_window() {
        let out = run(&["defer", "--region", "australia-east"]).unwrap();
        assert!(out.contains("operational savings"), "{out}");
        let e = run(&["defer", "--region", "atlantis"]).unwrap_err();
        assert!(e.to_string().contains("us-central"));
    }

    #[test]
    fn help_lists_commands() {
        let h = run(&["help"]).unwrap();
        for cmd in
            ["assess", "compare", "sweep", "report", "gen-trace", "replay", "faults", "fleet"]
        {
            assert!(h.contains(cmd), "{cmd}");
        }
    }

    #[test]
    fn faults_compares_clean_and_faulted_runs() {
        let out = run(&[
            "faults",
            "--design",
            "full",
            "--hours",
            "6",
            "--arrivals",
            "30",
            "--afr-scale",
            "20",
        ])
        .unwrap();
        assert!(out.contains("expected capacity loss"), "{out}");
        assert!(out.contains("evacuation failures"), "{out}");
        // The fault-free column reports a zero-event summary.
        assert!(out.contains("0 / 0"), "{out}");
    }

    #[test]
    fn faults_rejects_invalid_fip() {
        let e = run(&["faults", "--fip", "1.5", "--hours", "2"]).unwrap_err();
        assert!(matches!(e, CliError::Maintenance(_)), "{e}");
    }

    #[test]
    fn faults_topology_and_repair_render_availability() {
        let out = run(&[
            "faults",
            "--design",
            "full",
            "--hours",
            "6",
            "--arrivals",
            "30",
            "--afr-scale",
            "20",
            "--topology",
            "4",
            "--repair-days",
            "7",
        ])
        .unwrap();
        assert!(out.contains("domain size 4, repair 7.0 d"), "{out}");
        assert!(out.contains("VM-minutes lost"), "{out}");
        assert!(out.contains("blast radius (servers)"), "{out}");
        assert!(out.contains("revivals (return-to-service)"), "{out}");
    }

    #[test]
    fn faults_json_format_is_machine_readable() {
        let out = run(&[
            "faults",
            "--design",
            "full",
            "--hours",
            "6",
            "--arrivals",
            "30",
            "--afr-scale",
            "20",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(out.starts_with('{') && out.ends_with("}\n"), "{out}");
        for key in
            ["\"design\":", "\"clean\":", "\"faulted\":", "\"availability\":", "\"revivals\":"]
        {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        // Same run in text format must agree on the headline plan.
        let braces = out.chars().fold(0i64, |n, c| n + i64::from(c == '{') - i64::from(c == '}'));
        assert_eq!(braces, 0, "unbalanced JSON braces: {out}");
    }

    #[test]
    fn fleet_reports_mean_savings_and_honors_workers() {
        let serial = run(&[
            "fleet",
            "--design",
            "full",
            "--traces",
            "2",
            "--hours",
            "4",
            "--arrivals",
            "30",
            "--workers",
            "1",
        ])
        .unwrap();
        let parallel = run(&[
            "fleet",
            "--design",
            "full",
            "--traces",
            "2",
            "--hours",
            "4",
            "--arrivals",
            "30",
            "--workers",
            "4",
        ])
        .unwrap();
        assert!(serial.contains("cluster savings"), "{serial}");
        // Worker count must not change the numbers, only the schedule.
        let tail = |s: &str| s.split(':').skip(1).collect::<String>();
        assert_eq!(tail(&serial), tail(&parallel));
    }

    #[test]
    fn fleet_accepts_shards_flag() {
        let base = ["--design", "full", "--traces", "1", "--hours", "4", "--arrivals", "30"];
        let argv = |extra: &[&'static str]| -> Vec<&'static str> {
            let mut v = vec!["fleet"];
            v.extend_from_slice(&base);
            v.extend_from_slice(extra);
            v
        };
        // --shards 1 is the unsharded engine: identical numbers to the
        // flagless invocation.
        let flagless = run(&argv(&[])).unwrap();
        let one = run(&argv(&["--shards", "1"])).unwrap();
        assert!(one.contains("1 shard)"), "{one}");
        let tail = |s: &str| s.split(':').skip(1).collect::<String>();
        assert_eq!(tail(&flagless), tail(&one));
        // Multi-shard runs report the shard count and still size a
        // working cluster (savings line present).
        let sharded = run(&argv(&["--shards", "3"])).unwrap();
        assert!(sharded.contains("3 shards)"), "{sharded}");
        assert!(sharded.contains("cluster savings"), "{sharded}");
    }
    /// `argv` must fail with an out-of-range error on `flag`.
    fn assert_out_of_range(argv: &[&str], flag: &str) {
        match run(argv) {
            Err(CliError::OutOfRange { flag: got, .. }) => assert_eq!(got, flag, "{argv:?}"),
            other => panic!("{argv:?}: expected --{flag} out of range, got {other:?}"),
        }
    }

    #[test]
    fn report_rejects_negative_hours() {
        assert_out_of_range(&["report", "--hours", "-5"], "hours");
    }

    #[test]
    fn report_rejects_zero_hours() {
        assert_out_of_range(&["report", "--hours", "0"], "hours");
    }

    #[test]
    fn gen_trace_rejects_nan_hours_without_writing() {
        let path = std::env::temp_dir().join(format!("gsf-cli-nan-{}.bin", std::process::id()));
        let path_str = path.to_str().unwrap();
        assert_out_of_range(&["gen-trace", "--out", path_str, "--hours", "nan"], "hours");
        assert!(!path.exists(), "a rejected trace must not be written");
    }

    #[test]
    fn gen_trace_rejects_more_expected_vms_than_the_cap() {
        let path = std::env::temp_dir().join(format!("gsf-cli-cap-{}.bin", std::process::id()));
        let argv =
            ["gen-trace", "--out", path.to_str().unwrap(), "--hours", "1e12", "--arrivals", "1"];
        assert_out_of_range(&argv, "arrivals");
        assert!(!path.exists(), "a rejected trace must not be written");
    }

    #[test]
    fn trace_synth_rejects_infinite_hours() {
        let path = std::env::temp_dir().join(format!("gsf-cli-inf-{}.gst", std::process::id()));
        let argv = ["trace", "synth", "--out", path.to_str().unwrap(), "--hours", "inf"];
        assert_out_of_range(&argv, "hours");
        assert!(!path.exists(), "a rejected trace must not be written");
    }

    #[test]
    fn trace_synth_rejects_zero_chunk_events_without_writing() {
        let path = std::env::temp_dir().join(format!("gsf-cli-chunk0-{}.gst", std::process::id()));
        let argv = ["trace", "synth", "--out", path.to_str().unwrap(), "--chunk-events", "0"];
        assert_out_of_range(&argv, "chunk-events");
        assert!(!path.exists(), "a rejected trace must not be written");
    }

    #[test]
    fn characterize_rejects_nan_arrivals() {
        assert_out_of_range(&["characterize", "--arrivals", "NaN"], "arrivals");
    }

    #[test]
    fn fleet_rejects_negative_arrivals() {
        assert_out_of_range(&["fleet", "--design", "full", "--arrivals", "-1"], "arrivals");
    }

    #[test]
    fn sweep_rejects_zero_points() {
        assert_out_of_range(&["sweep", "--points", "0"], "points");
    }

    #[test]
    fn sweep_rejects_one_point() {
        assert_out_of_range(&["sweep", "--points", "1"], "points");
    }

    #[test]
    fn fleet_rejects_zero_traces() {
        assert_out_of_range(&["fleet", "--design", "full", "--traces", "0"], "traces");
    }

    #[test]
    fn fleet_rejects_more_shards_than_the_cap() {
        assert_out_of_range(&["fleet", "--design", "full", "--shards", "1025"], "shards");
    }
}
