//! A GreenSKU design: the carbon-model view (bill of materials) paired
//! with the performance-model view (architectural profile) and the
//! memory-placement policy the deployment would use.

use gsf_carbon::datasets::open_source;
use gsf_carbon::ServerSpec;
use gsf_perf::{MemoryPlacement, SkuPerfProfile};

/// A candidate SKU under evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct GreenSkuDesign {
    /// Bill of materials for the carbon model.
    pub carbon: ServerSpec,
    /// Architectural profile for the performance model.
    pub perf: SkuPerfProfile,
    /// How VM memory is placed across DDR5/CXL in production.
    pub placement: MemoryPlacement,
}

impl GreenSkuDesign {
    /// GreenSKU-Efficient: Bergamo, no reuse.
    pub fn efficient() -> Self {
        Self {
            carbon: open_source::greensku_efficient(),
            perf: SkuPerfProfile::greensku_efficient(),
            placement: MemoryPlacement::LocalOnly,
        }
    }

    /// GreenSKU-CXL: Bergamo plus reused DDR4 behind CXL, operated with
    /// Pond-style placement (untouched memory only on CXL).
    pub fn cxl() -> Self {
        Self {
            carbon: open_source::greensku_cxl(),
            perf: SkuPerfProfile::greensku_cxl(),
            placement: MemoryPlacement::Pond,
        }
    }

    /// GreenSKU-Full: GreenSKU-CXL plus reused SSDs (same performance
    /// profile — the RAID-striped reused SSDs have no adoption side
    /// effects per §III).
    pub fn full() -> Self {
        Self {
            carbon: open_source::greensku_full(),
            perf: SkuPerfProfile::greensku_cxl(),
            placement: MemoryPlacement::Pond,
        }
    }

    /// The three paper designs in evaluation order.
    pub fn all_three() -> Vec<GreenSkuDesign> {
        vec![Self::efficient(), Self::cxl(), Self::full()]
    }

    /// The design's display name (from the carbon SKU).
    pub fn name(&self) -> &str {
        self.carbon.name()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn designs_are_consistent() {
        let eff = GreenSkuDesign::efficient();
        assert_eq!(eff.carbon.cores(), eff.perf.cores_per_socket);
        assert!(eff.perf.cxl.is_none());
        let cxl = GreenSkuDesign::cxl();
        assert!(cxl.perf.cxl.is_some());
        assert!(cxl.carbon.cxl_memory_capacity().get() > 0.0);
        let full = GreenSkuDesign::full();
        assert_eq!(full.placement, MemoryPlacement::Pond);
    }

    #[test]
    fn all_three_ordered() {
        let names: Vec<String> =
            GreenSkuDesign::all_three().iter().map(|d| d.name().to_string()).collect();
        assert_eq!(names, vec!["GreenSKU-Efficient", "GreenSKU-CXL", "GreenSKU-Full"]);
    }
}
