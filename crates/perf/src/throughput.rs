//! Throughput-only (DevOps build) slowdowns — the reproduction of
//! Table II.

use crate::sku::{MemoryPlacement, SkuPerfProfile};
use crate::slowdown::slowdown;
use gsf_workloads::{catalog, ApplicationModel};

/// One row of Table II: a build's runtime normalized to Gen3 on every
/// compared platform.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildSlowdownRow {
    /// Application name.
    pub app: String,
    /// Normalized runtime on Gen1 (Gen3 = 1.0).
    pub gen1: f64,
    /// Normalized runtime on Gen2.
    pub gen2: f64,
    /// Normalized runtime on Gen3 (1.0 by definition).
    pub gen3: f64,
    /// Normalized runtime on GreenSKU-Efficient.
    pub efficient: f64,
    /// Normalized runtime on GreenSKU-CXL (naive placement, as measured
    /// in the paper).
    pub cxl: f64,
}

/// Computes a Table II row for one build application.
pub fn build_slowdown_row(app: &ApplicationModel) -> BuildSlowdownRow {
    let local = MemoryPlacement::LocalOnly;
    BuildSlowdownRow {
        app: app.name().to_string(),
        gen1: slowdown(app, &SkuPerfProfile::gen1(), local),
        gen2: slowdown(app, &SkuPerfProfile::gen2(), local),
        gen3: slowdown(app, &SkuPerfProfile::gen3(), local),
        efficient: slowdown(app, &SkuPerfProfile::greensku_efficient(), local),
        cxl: slowdown(app, &SkuPerfProfile::greensku_cxl(), MemoryPlacement::Naive),
    }
}

/// The full reproduced Table II (all throughput-only catalog apps).
pub fn table_ii() -> Vec<BuildSlowdownRow> {
    catalog::applications()
        .iter()
        .filter(|a| a.is_throughput_only())
        .map(build_slowdown_row)
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn row(app: &str) -> BuildSlowdownRow {
        table_ii().into_iter().find(|r| r.app == app).expect("build app present")
    }

    #[test]
    fn covers_three_builds() {
        let rows = table_ii();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!((r.gen3 - 1.0).abs() < 1e-12, "{} gen3 must be 1.0", r.app);
        }
    }

    #[test]
    fn matches_published_table_ii_within_tolerance() {
        // Published: (Gen1, Gen2, Efficient, CXL) per build.
        let expected = [
            ("Build-PHP", 1.27, 1.11, 1.17, 1.38),
            ("Build-Python", 1.28, 1.13, 1.15, 1.21),
            ("Build-Wasm", 1.34, 1.19, 1.15, 1.28),
        ];
        for (app, g1, g2, eff, cxl) in expected {
            let r = row(app);
            assert!((r.gen2 - g2).abs() < 0.03, "{app} gen2 {} vs {g2}", r.gen2);
            assert!((r.efficient - eff).abs() < 0.03, "{app} eff {} vs {eff}", r.efficient);
            assert!((r.cxl - cxl).abs() < 0.05, "{app} cxl {} vs {cxl}", r.cxl);
            // Gen1 is the loosest calibration (IPC factor is shared
            // across all apps): allow 0.08.
            assert!((r.gen1 - g1).abs() < 0.08, "{app} gen1 {} vs {g1}", r.gen1);
        }
    }

    #[test]
    fn greensku_beats_gen1_for_all_builds() {
        for r in table_ii() {
            assert!(r.efficient < r.gen1, "{}", r.app);
        }
    }

    #[test]
    fn cxl_slower_than_efficient_for_all_builds() {
        for r in table_ii() {
            assert!(r.cxl > r.efficient, "{}", r.app);
        }
    }
}
