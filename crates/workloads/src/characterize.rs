//! Workload characterization: the §II-style statistics of a VM trace.
//!
//! The paper motivates GreenSKUs with fleet statistics ("75 % of Azure
//! VMs exhibit less than 25 % CPU utilization", memory utilization
//! mostly below 60 %, long-lived VMs pinning old generations). This
//! module computes the equivalents for any [`Trace`] — used by the
//! `gsf characterize` CLI command and by tests validating the trace
//! generator's realism.

use crate::catalog;
use crate::class::AppClass;
use crate::trace::Trace;
use crate::vm::VmEventKind;
use gsf_stats::cdf::EmpiricalCdf;
use std::collections::BTreeMap;

/// Summary statistics of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Number of VMs.
    pub vm_count: usize,
    /// Trace horizon, hours.
    pub horizon_hours: f64,
    /// VM arrivals per hour.
    pub arrivals_per_hour: f64,
    /// Distribution of VM core sizes (size → VM count).
    pub size_histogram: Vec<(u32, usize)>,
    /// Median VM lifetime, hours.
    pub median_lifetime_hours: f64,
    /// 95th-percentile VM lifetime, hours.
    pub p95_lifetime_hours: f64,
    /// Total core-hours demanded.
    pub total_core_hours: f64,
    /// Share of core-hours from full-node VMs.
    pub full_node_core_hour_share: f64,
    /// Core-hour share per application class.
    pub class_core_hour_share: Vec<(AppClass, f64)>,
    /// Mean per-VM maximum memory utilization.
    pub mean_max_mem_util: f64,
    /// Fraction of VMs whose max memory utilization is below 60 %.
    pub mem_util_below_60pct: f64,
    /// Fraction of VMs whose average CPU utilization is below 25 %
    /// (§II's headline underutilization statistic).
    pub cpu_util_below_25pct: f64,
}

/// Characterizes a trace.
///
/// # Panics
///
/// Panics if an event references a VM id missing from the trace's VM
/// table (generated and decoded traces are always self-consistent).
pub fn characterize(trace: &Trace) -> TraceProfile {
    let apps = catalog::applications();
    let mut arrivals: BTreeMap<u64, f64> = BTreeMap::new();
    let mut lifetimes: Vec<f64> = Vec::new();
    let mut core_hours_by_vm: BTreeMap<u64, f64> = BTreeMap::new();
    for (e, slot) in trace.events().iter().zip(trace.event_slots()) {
        match e.kind {
            VmEventKind::Arrival => {
                arrivals.insert(e.vm_id, e.time_s);
            }
            VmEventKind::Departure => {
                if let Some(t0) = arrivals.get(&e.vm_id) {
                    let life = e.time_s - t0;
                    lifetimes.push(life / 3600.0);
                    let cores = trace.vms()[slot as usize].cores;
                    core_hours_by_vm.insert(e.vm_id, f64::from(cores) * life / 3600.0);
                }
            }
        }
    }

    let mut size_histogram: BTreeMap<u32, usize> = BTreeMap::new();
    let mut mem_utils = Vec::new();
    let mut cpu_below_25 = 0usize;
    for vm in trace.vms() {
        *size_histogram.entry(vm.cores).or_default() += 1;
        mem_utils.push(vm.max_mem_util);
        if vm.avg_cpu_util < 0.25 {
            cpu_below_25 += 1;
        }
    }
    let mut size_histogram: Vec<(u32, usize)> = size_histogram.into_iter().collect();
    size_histogram.sort_unstable();

    let total_core_hours: f64 = core_hours_by_vm.values().sum();
    let full_node_core_hours: f64 = trace
        .vms()
        .iter()
        .filter(|v| v.full_node)
        .filter_map(|v| core_hours_by_vm.get(&v.id))
        .sum();

    let mut class_hours: BTreeMap<AppClass, f64> = BTreeMap::new();
    for vm in trace.vms() {
        if let Some(ch) = core_hours_by_vm.get(&vm.id) {
            let app = &apps[usize::from(vm.app_index) % apps.len()];
            *class_hours.entry(app.class()).or_default() += ch;
        }
    }
    let mut class_core_hour_share: Vec<(AppClass, f64)> = AppClass::all()
        .iter()
        .map(|&c| (c, class_hours.get(&c).copied().unwrap_or(0.0) / total_core_hours.max(1e-12)))
        .collect();
    class_core_hour_share.sort_by(|a, b| b.1.total_cmp(&a.1));

    let life_cdf = EmpiricalCdf::from_samples(lifetimes);
    let mem_cdf = EmpiricalCdf::from_samples(mem_utils.clone());
    TraceProfile {
        vm_count: trace.vms().len(),
        horizon_hours: trace.duration_s() / 3600.0,
        arrivals_per_hour: trace.vms().len() as f64 / (trace.duration_s() / 3600.0).max(1e-12),
        size_histogram,
        median_lifetime_hours: life_cdf.quantile(0.5).unwrap_or(0.0),
        p95_lifetime_hours: life_cdf.quantile(0.95).unwrap_or(0.0),
        total_core_hours,
        full_node_core_hour_share: full_node_core_hours / total_core_hours.max(1e-12),
        class_core_hour_share,
        mean_max_mem_util: if mem_utils.is_empty() {
            0.0
        } else {
            mem_utils.iter().sum::<f64>() / mem_utils.len() as f64
        },
        mem_util_below_60pct: mem_cdf.eval(0.6),
        cpu_util_below_25pct: cpu_below_25 as f64 / trace.vms().len().max(1) as f64,
    }
}

impl TraceProfile {
    /// Renders the profile as an aligned text block.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} VMs over {:.0} h ({:.1}/hour); {:.0} core-hours total",
            self.vm_count, self.horizon_hours, self.arrivals_per_hour, self.total_core_hours
        );
        let _ = writeln!(
            out,
            "lifetimes: median {:.2} h, p95 {:.1} h; full-node share {:.1}% of core-hours",
            self.median_lifetime_hours,
            self.p95_lifetime_hours,
            self.full_node_core_hour_share * 100.0
        );
        let _ = writeln!(
            out,
            "memory: mean max-utilization {:.0}%, {:.0}% of VMs below 60%",
            self.mean_max_mem_util * 100.0,
            self.mem_util_below_60pct * 100.0
        );
        let _ = writeln!(
            out,
            "cpu: {:.0}% of VMs below 25% utilization (paper: 75%)",
            self.cpu_util_below_25pct * 100.0
        );
        let _ = write!(out, "sizes:");
        for (cores, n) in &self.size_histogram {
            let _ = write!(out, " {cores}c×{n}");
        }
        let _ = writeln!(out);
        let _ = write!(out, "core-hours by class:");
        for (class, share) in &self.class_core_hour_share {
            let _ = write!(out, " {}={:.0}%", class.label(), share * 100.0);
        }
        let _ = writeln!(out);
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::tracegen::{TraceGenerator, TraceParams};
    use gsf_stats::rng::SeedFactory;

    fn profile() -> TraceProfile {
        let trace = TraceGenerator::new(TraceParams {
            duration_hours: 48.0,
            arrivals_per_hour: 60.0,
            ..TraceParams::default()
        })
        .generate(&SeedFactory::new(19), 0);
        characterize(&trace)
    }

    #[test]
    fn arrival_rate_recovered() {
        let p = profile();
        assert!((p.arrivals_per_hour - 60.0).abs() < 8.0, "{}", p.arrivals_per_hour);
        assert!((p.horizon_hours - 48.0).abs() < 1e-9);
    }

    #[test]
    fn class_shares_near_fleet_mix() {
        // Core-hour shares should roughly track Table III's class mix
        // (big data 32 %, web 27 %, RTC 24 % ...), noting lifetimes add
        // variance.
        let p = profile();
        let share =
            |c: AppClass| p.class_core_hour_share.iter().find(|(cc, _)| *cc == c).unwrap().1;
        assert!(share(AppClass::BigData) > 0.15);
        assert!(share(AppClass::DevOps) < 0.25);
        let total: f64 = p.class_core_hour_share.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_node_share_near_ten_percent() {
        let p = profile();
        assert!(
            p.full_node_core_hour_share > 0.01 && p.full_node_core_hour_share < 0.30,
            "{}",
            p.full_node_core_hour_share
        );
    }

    #[test]
    fn lifetimes_heavy_tailed() {
        let p = profile();
        assert!(p.p95_lifetime_hours > 3.0 * p.median_lifetime_hours);
    }

    #[test]
    fn cpu_underutilization_anchor() {
        // §II: 75 % of VMs below 25 % CPU utilization.
        let p = profile();
        assert!((p.cpu_util_below_25pct - 0.75).abs() < 0.08, "{}", p.cpu_util_below_25pct);
    }

    /// Opaque ids (as in production traces) profile exactly like the
    /// dense ids the generator assigns: relabelling every id
    /// monotonically to `7·i + 10⁹`, list order kept, changes neither
    /// the peak demand's bits nor the profile.
    #[test]
    fn sparse_ids_profile_like_dense_ones() {
        use crate::vm::{VmEvent, VmSpec};
        let dense = TraceGenerator::new(TraceParams {
            duration_hours: 24.0,
            arrivals_per_hour: 60.0,
            ..TraceParams::default()
        })
        .generate(&SeedFactory::new(23), 0);
        let relabel = |id: u64| 7 * id + 1_000_000_000;
        let sparse = Trace::new(
            dense.duration_s(),
            dense.vms().iter().map(|vm| VmSpec { id: relabel(vm.id), ..*vm }).collect(),
            dense.events().iter().map(|e| VmEvent { vm_id: relabel(e.vm_id), ..*e }).collect(),
        );
        assert_eq!(sparse.events().len(), dense.events().len());
        let ((dense_cores, dense_mem), (sparse_cores, sparse_mem)) =
            (dense.peak_demand(), sparse.peak_demand());
        assert_eq!(sparse_cores, dense_cores);
        assert_eq!(sparse_mem.to_bits(), dense_mem.to_bits());
        assert_eq!(characterize(&sparse), characterize(&dense));
    }

    #[test]
    fn render_contains_key_lines() {
        let text = profile().render();
        assert!(text.contains("core-hours total"));
        assert!(text.contains("sizes:"));
        assert!(text.contains("Big Data"));
    }
}
