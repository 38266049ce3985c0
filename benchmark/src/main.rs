//! `gsf-benchmark`: runs one workload and prints its metrics, runs every
//! workload over several seeds into a result set, or compares two sets.
//!
//! ```text
//! gsf-benchmark --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! gsf-benchmark run [--seed S] [--runs N] [--seconds T] [--trace] [--out FILE]
//! gsf-benchmark compare A.json B.json
//! ```

use gsf_benchmark::bench::{self, Report, RunSpec};
use gsf_benchmark::json::{self, Value};
use gsf_benchmark::stats::Quartiles;
use gsf_benchmark::workloads::{Scale, Workload, ROOT};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  gsf-benchmark --workload size24k|sweep16|faults12k|stream250k [--seed S] [--seconds T] [--trace 0|1] [--smoke]
  gsf-benchmark run [--seed S] [--runs N] [--seconds T] [--trace] [--out FILE]
  gsf-benchmark compare A.json B.json";

/// Time spent repeating set-up in a run; `setup_s` is the median.
const SETUP_SECONDS: f64 = 1.0;
/// Set-ups and timed iterations per run even when their time is up.
const MIN_ITERATIONS: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_sets(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run_one(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("gsf-benchmark: {e}");
        ExitCode::from(2)
    })
}

/// The benchmark package's directory; results and scratch files live
/// under it, wherever the program is started from.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `--name value` flags; `switches` take no value.
fn parse_flags(
    args: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg.strip_prefix("--").ok_or_else(|| format!("unexpected {arg:?}\n{USAGE}"))?;
        let value = if switches.contains(&name) {
            "1".to_string()
        } else if valued.contains(&name) {
            it.next().ok_or_else(|| format!("--{name} needs a value"))?.clone()
        } else {
            return Err(format!("unknown flag --{name}\n{USAGE}"));
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    flags.get(name).map_or(Ok(default), |v| v.parse().map_err(|_| format!("bad --{name} {v:?}")))
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["workload", "seed", "seconds", "trace"], &["smoke"])?;
    let name = flags.get("workload").ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let workload =
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let smoke = flags.contains_key("smoke");
    let spec = RunSpec {
        workload,
        seed: flag(&flags, "seed", 2024)?,
        seconds: flag(&flags, "seconds", if smoke { 0.0 } else { 28.0 })?,
        trace: match flag(&flags, "trace", 0u8)? {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        scale: if smoke { Scale::Smoke } else { Scale::Full },
        min_iterations: if smoke { 1 } else { MIN_ITERATIONS },
        setup_seconds: if smoke { 0.0 } else { SETUP_SECONDS },
        work_dir: bench_dir().join("work"),
    };
    let report = bench::run(&spec).map_err(|e| format!("{}: {e}", workload.name()))?;
    print_report(&spec, &report);
    if spec.trace {
        let path = write_spans(&spec, &report).map_err(|e| format!("writing spans: {e}"))?;
        println!("spans written to {}", path.display());
    }
    println!("{}", result_line(&report));
    Ok(if report.correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn print_report(spec: &RunSpec, r: &Report) {
    println!("{} seed {}: {}", spec.workload.name(), spec.seed, r.summary);
    println!("digest {:016x}; {} iterations attempted, {} failed", r.digest, r.attempted, r.failed);
    for m in &r.metrics {
        let q = &m.q;
        println!(
            "  {:<30} {:>14.6} {:<6} median {:.6} q1 {:.6} q3 {:.6} n {}",
            m.name, m.value, m.unit, q.median, q.q1, q.q3, q.n
        );
    }
    if r.layers.is_empty() {
        return;
    }
    println!("  {:<24} {:>12} {:>8} {:>8}", "span", "self ms/it", "share", "calls/it");
    for l in &r.layers {
        println!(
            "  {:<24} {:>12.3} {:>7.1}% {:>8.1}",
            l.name,
            l.self_s * 1e3,
            l.share * 100.0,
            l.calls
        );
    }
    let residual: f64 =
        r.layers.iter().filter(|l| [ROOT, "core.point"].contains(&l.name)).map(|l| l.share).sum();
    println!("  layers account for {:.1}% of traced self time", (1.0 - residual) * 100.0);
    if let Some(overhead) = r.overhead_s {
        println!(
            "  tracing overhead {:.3} ms per iteration (traced minus plain median)",
            overhead * 1e3
        );
    }
}

/// The last line of the output: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn write_spans(spec: &RunSpec, r: &Report) -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("results");
    fs::create_dir_all(&dir)?;
    let name = spec.workload.name();
    let rev = git_rev();
    let path = dir.join(format!("trace-{rev}-{name}-{}.json", spec.seed));
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {}, \"git_rev\": {}, \"spans\": [\n",
        json::quote(name),
        spec.seed,
        json::quote(&rev)
    );
    for (i, s) in r.spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"workload\": {}, \"iter\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"work\": {}}}{}",
            s.id,
            s.parent,
            json::quote(name),
            s.iter,
            json::quote(s.name),
            s.start_ns,
            s.end_ns,
            s.work,
            if i + 1 < r.spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    fs::write(&path, out)?;
    Ok(path)
}

/// The checked-out commit, read from `.git` next to the benchmark;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let git = bench_dir().join("../.git");
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let hash = match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(reference) => read(&git.join(reference)).or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' ').map(str::to_string))
        }),
    };
    hash.map_or_else(|| "unknown".into(), |h| h.chars().take(12).collect())
}

/// Runs every workload once per seed, each in a child process
/// so its peak RSS is its own, and writes the quartiles over seeds as a
/// result set plus rows appended to `results/trajectory.jsonl`.
fn run_sets(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["seed", "runs", "seconds", "out"], &["trace"])?;
    let seed: u64 = flag(&flags, "seed", 2024)?;
    let runs: u64 = flag(&flags, "runs", 10)?;
    let seconds: u64 = flag(&flags, "seconds", 28)?;
    let trace = flags.contains_key("trace");
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;

    // (workload, metric, unit) in first-seen order, with one value per run.
    let mut rows: Vec<(Workload, String, String, Vec<f64>)> = Vec::new();
    let mut all_ok = true;
    for w in Workload::ALL {
        for s in seed..seed + runs {
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &s.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("starting {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
            let result = json::parse(line).map_err(|e| format!("{} seed {s}: {e}", w.name()))?;
            let correct = result.get("correct") == Some(&Value::Bool(true));
            all_ok &= correct && output.status.success();
            eprintln!("{} seed {s}: {}", w.name(), if correct { "ok" } else { "FAILED" });
            for (name, m) in result.get("metrics").and_then(Value::as_object).unwrap_or_default() {
                let (Some(value), Some(unit)) =
                    (m.get("value").and_then(Value::as_f64), m.get("unit").and_then(Value::as_str))
                else {
                    return Err(format!("{} seed {s}: malformed metric {name}", w.name()));
                };
                match rows.iter_mut().find(|r| r.0 == w && r.1 == *name) {
                    Some(row) => row.3.push(value),
                    None => rows.push((w, name.clone(), unit.to_string(), vec![value])),
                }
            }
        }
    }

    let rev = git_rev();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let results = bench_dir().join("results");
    fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let mut set_rows = Vec::new();
    let mut trajectory = String::new();
    for (w, name, unit, values) in &rows {
        let q = Quartiles::of(values).expect("every row has a value");
        println!(
            "{:<10} {:<30} {:>14.6} {:<6} q1 {:.6} q3 {:.6} n {} spread {:.1}%",
            w.name(),
            name,
            q.median,
            unit,
            q.q1,
            q.q3,
            q.n,
            q.spread() * 100.0
        );
        let stats = format!(
            "\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}",
            json::number(q.median),
            json::number(q.q1),
            json::number(q.q3),
            q.n
        );
        let key = format!(
            "\"workload\": {}, \"metric\": {}, \"unit\": {}",
            json::quote(w.name()),
            json::quote(name),
            json::quote(unit)
        );
        set_rows.push(format!("  {{{key}, {stats}}}"));
        let _ = writeln!(
            trajectory,
            "{{{key}, \"git_rev\": {}, \"cores\": {cores}, \"seed\": {seed}, {stats}}}",
            json::quote(&rev)
        );
    }
    let seeds: Vec<String> = (seed..seed + runs).map(|s| s.to_string()).collect();
    let set = format!(
        "{{\"git_rev\": {}, \"cores\": {cores}, \"cpu\": {}, \"rustc\": {}, \"seconds\": {seconds}, \"trace\": {trace}, \"seeds\": [{}], \"rows\": [\n{}\n]}}\n",
        json::quote(&rev),
        json::quote(&cpu_model()),
        json::quote(&rustc_version()),
        seeds.join(", "),
        set_rows.join(",\n")
    );
    let out = flags.get("out").map_or_else(
        || results.join(format!("set-{rev}-{seed}{}.json", if trace { "-traced" } else { "" })),
        PathBuf::from,
    );
    fs::write(&out, set).map_err(|e| format!("writing {}: {e}", out.display()))?;
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(results.join("trajectory.jsonl"))
        .and_then(|mut f| f.write_all(trajectory.as_bytes()))
        .map_err(|e| format!("appending to trajectory.jsonl: {e}"))?;
    println!("result set written to {}", out.display());
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                Some(l.strip_prefix("model name")?.split_once(':')?.1.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// One row of a result set.
struct Row {
    median: f64,
    q1: f64,
    q3: f64,
}

fn read_set(path: &str) -> Result<BTreeMap<(String, String), Row>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let set = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = BTreeMap::new();
    for r in set.get("rows").and_then(Value::as_array).unwrap_or_default() {
        let text = |k: &str| r.get(k).and_then(Value::as_str).map(str::to_string);
        let num = |k: &str| r.get(k).and_then(Value::as_f64);
        let (Some(w), Some(m), Some(median), Some(q1), Some(q3)) =
            (text("workload"), text("metric"), num("median"), num("q1"), num("q3"))
        else {
            return Err(format!("{path}: malformed row"));
        };
        rows.insert((w, m), Row { median, q1, q3 });
    }
    Ok(rows)
}

/// Judges set `B` against set `A` for every end-to-end metric and
/// workload, with `BENCHMARK.json`'s bounds: worse when B's median is
/// worse by more than the bound; unresolved when either set's quartile
/// spread exceeds the bound (unless B's quartiles all beat A's);
/// improved when B's median is better by more than A's spread and the
/// quartile ranges do not overlap; otherwise no worse.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err(USAGE.into());
    };
    let spec_path = bench_dir().join("../BENCHMARK.json");
    let spec = fs::read_to_string(&spec_path)
        .map_err(|e| format!("reading {}: {e}", spec_path.display()))
        .and_then(|t| json::parse(&t))?;
    let (a, b) = (read_set(a_path)?, read_set(b_path)?);
    let mut any_worse = false;
    println!(
        "{:<10} {:<14} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change", "spreadA", "spreadB"
    );
    for m in spec.get("end_to_end").and_then(Value::as_array).unwrap_or_default() {
        let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Value::as_str),
            m.get("better").and_then(Value::as_str),
            m.get("bound").and_then(Value::as_f64),
        ) else {
            return Err("BENCHMARK.json: malformed end_to_end entry".into());
        };
        // Signed so that positive means worse.
        let sign = if better == "lower" { 1.0 } else { -1.0 };
        for ((workload, metric), ra) in a.iter().filter(|((_, metric), _)| metric == name) {
            let Some(rb) = b.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let change = sign * (rb.median - ra.median) / ra.median;
            let spread = |r: &Row| (r.q3 - r.q1).abs() / r.median.abs();
            let (sa, sb) = (spread(ra), spread(rb));
            // Quartiles as (best, worst) in the signed scale; B's worst
            // must beat A's best.
            let signed = |r: &Row| {
                let (x, y) = (sign * r.q1, sign * r.q3);
                (x.min(y), x.max(y))
            };
            let disjoint = signed(rb).1 < signed(ra).0;
            let verdict = if change > bound {
                any_worse = true;
                "worse"
            } else if sa.max(sb) > bound {
                if disjoint {
                    "improved"
                } else {
                    "unresolved"
                }
            } else if -change > sa && disjoint {
                "improved"
            } else {
                "no worse"
            };
            println!(
                "{:<10} {:<14} {:>14.6} {:>14.6} {:>7.1}% {:>7.1}% {:>7.1}%  {verdict}",
                workload,
                metric,
                ra.median,
                rb.median,
                change * 100.0,
                sa * 100.0,
                sb * 100.0
            );
        }
    }
    Ok(if any_worse { ExitCode::from(1) } else { ExitCode::SUCCESS })
}
