//! Low-load latency analysis (§VI): p95 latency at 30 % of peak load,
//! where queueing is light and per-request service time dominates.
//!
//! The paper reports that a scaled GreenSKU-Efficient VM's median
//! low-load latency across applications is 8.3 % lower than Gen1, 2 %
//! lower than Gen2, and 16 % higher than Gen3.

use crate::analytic::MmcQueue;
use crate::scaling::{scaling_factor, ScalingFactor};
use crate::sku::{MemoryPlacement, SkuPerfProfile};
use crate::slowdown::slowdown;
use gsf_workloads::{ApplicationModel, ServiceProfile};

/// The fraction of peak throughput defined as "low" load (following
/// PARTIES/TimeTrader, §VI).
pub const LOW_LOAD_FRACTION: f64 = 0.3;

/// Low-load latency of one application on one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowLoadPoint {
    /// p95 latency at 30 % of the *baseline's* peak, milliseconds.
    pub p95_ms: f64,
    /// VM cores used.
    pub cores: u32,
}

/// p95 latency of `app` on `sku` with `cores` at 30 % of
/// `baseline_peak_qps` (analytic model).
///
/// Returns `None` for throughput-only apps or if the configuration
/// cannot even sustain the low load.
pub fn low_load_p95(
    app: &ApplicationModel,
    sku: &SkuPerfProfile,
    placement: MemoryPlacement,
    cores: u32,
    baseline_peak_qps: f64,
) -> Option<LowLoadPoint> {
    let ServiceProfile::LatencyCritical { base_service_ms, .. } = app.service() else {
        return None;
    };
    let service_ms = base_service_ms * slowdown(app, sku, placement);
    let load = LOW_LOAD_FRACTION * baseline_peak_qps;
    let queue = MmcQueue::new(cores, load, service_ms).ok()?;
    Some(LowLoadPoint { p95_ms: queue.p95_response_ms(), cores })
}

/// The ratio of a scaled GreenSKU VM's low-load p95 to the baseline's
/// own 8-core low-load p95; `None` when the app is throughput-only or
/// unadoptable (scaling >1.5).
///
/// # Panics
///
/// Panics if a finite scaling factor yields no admissible core
/// count — impossible for factors at or below the 1.5 adoptability
/// gate checked first.
pub fn low_load_ratio(
    app: &ApplicationModel,
    green: &SkuPerfProfile,
    placement: MemoryPlacement,
    baseline: &SkuPerfProfile,
) -> Option<f64> {
    let ServiceProfile::LatencyCritical { base_service_ms, .. } = app.service() else {
        return None;
    };
    let base_service = base_service_ms * slowdown(app, baseline, MemoryPlacement::LocalOnly);
    let base_peak = 8.0 / (base_service / 1000.0);
    let factor = scaling_factor(app, green, placement, baseline);
    let cores = match factor {
        ScalingFactor::MoreThanOnePointFive => return None,
        f => f.cores_for_8().expect("finite factor has a core count"),
    };
    let green_point = low_load_p95(app, green, placement, cores, base_peak)?;
    let base_point = low_load_p95(app, baseline, MemoryPlacement::LocalOnly, 8, base_peak)?;
    Some(green_point.p95_ms / base_point.p95_ms)
}

/// Median low-load latency ratio across all adoptable latency-critical
/// applications (the §VI statistic).
pub fn median_low_load_ratio(
    apps: &[ApplicationModel],
    green: &SkuPerfProfile,
    placement: MemoryPlacement,
    baseline: &SkuPerfProfile,
) -> Option<f64> {
    let mut ratios: Vec<f64> =
        apps.iter().filter_map(|a| low_load_ratio(a, green, placement, baseline)).collect();
    if ratios.is_empty() {
        return None;
    }
    ratios.sort_by(f64::total_cmp);
    gsf_stats::percentile::percentile_sorted(&ratios, 0.5)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_workloads::catalog;

    #[test]
    fn median_vs_gen3_moderately_higher() {
        // Paper: +16 % vs Gen3. Accept 5–25 %.
        let m = median_low_load_ratio(
            &catalog::applications(),
            &SkuPerfProfile::greensku_efficient(),
            MemoryPlacement::LocalOnly,
            &SkuPerfProfile::gen3(),
        )
        .unwrap();
        assert!(m > 1.05 && m < 1.25, "median ratio vs Gen3: {m}");
    }

    #[test]
    fn median_vs_gen1_lower() {
        // Paper: −8.3 % vs Gen1.
        let m = median_low_load_ratio(
            &catalog::applications(),
            &SkuPerfProfile::greensku_efficient(),
            MemoryPlacement::LocalOnly,
            &SkuPerfProfile::gen1(),
        )
        .unwrap();
        assert!(m < 1.0, "median ratio vs Gen1: {m}");
    }

    #[test]
    fn median_vs_gen2_about_even() {
        // Paper: −2 % vs Gen2. Accept ±6 %.
        let m = median_low_load_ratio(
            &catalog::applications(),
            &SkuPerfProfile::greensku_efficient(),
            MemoryPlacement::LocalOnly,
            &SkuPerfProfile::gen2(),
        )
        .unwrap();
        assert!((m - 0.98).abs() < 0.06, "median ratio vs Gen2: {m}");
    }

    #[test]
    fn unadoptable_apps_excluded() {
        let silo = catalog::by_name("Silo").unwrap();
        assert!(low_load_ratio(
            &silo,
            &SkuPerfProfile::greensku_efficient(),
            MemoryPlacement::LocalOnly,
            &SkuPerfProfile::gen3(),
        )
        .is_none());
    }

    #[test]
    fn builds_have_no_low_load_latency() {
        let php = catalog::by_name("Build-PHP").unwrap();
        assert!(
            low_load_p95(&php, &SkuPerfProfile::gen3(), MemoryPlacement::LocalOnly, 8, 1000.0,)
                .is_none()
        );
    }
}
