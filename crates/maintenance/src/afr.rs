//! Annual failure rates: component AFRs aggregated into a server AFR.
//!
//! The paper (§V, footnotes 3–4) approximates server AFR as the sum of
//! per-device AFRs: DIMMs ≈ 0.1 and SSDs ≈ 0.2 failures per 100 servers
//! per device per year, with DIMMs and SSDs constituting half of a
//! server's AFR — the other half is a constant from CPUs, boards, PSUs,
//! and fans. Reused DIMMs/SSDs carry the same AFRs as new ones (the
//! empirical observation behind Fig. 2).

/// Per-device AFR contributions, in failures per 100 servers per year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentAfrs {
    /// AFR per DIMM.
    pub per_dimm: f64,
    /// AFR per SSD.
    pub per_ssd: f64,
    /// Constant AFR from all other server components.
    pub other: f64,
}

impl ComponentAfrs {
    /// The paper's values: 0.1 per DIMM, 0.2 per SSD, and an "other"
    /// half calibrated so the 12-DIMM/6-SSD baseline lands at 4.8.
    pub fn paper() -> Self {
        Self { per_dimm: 0.1, per_ssd: 0.2, other: 2.4 }
    }

    /// Validating constructor: every rate must be finite and
    /// non-negative (an AFR of NaN or −0.1 silently corrupts every
    /// downstream repair-rate and fault-plan computation).
    pub fn try_new(
        per_dimm: f64,
        per_ssd: f64,
        other: f64,
    ) -> Result<Self, crate::error::MaintenanceError> {
        crate::error::check_non_negative("per_dimm", per_dimm)?;
        crate::error::check_non_negative("per_ssd", per_ssd)?;
        crate::error::check_non_negative("other", other)?;
        Ok(Self { per_dimm, per_ssd, other })
    }
}

impl Default for ComponentAfrs {
    fn default() -> Self {
        Self::paper()
    }
}

/// A server's AFR derived from its device counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerAfr {
    /// DIMM count (new + reused).
    pub dimms: u32,
    /// SSD count (new + reused).
    pub ssds: u32,
    /// Total AFR, failures per 100 servers per year.
    pub total: f64,
    /// The DRAM+SSD share of the AFR (the part FIP can absorb).
    pub repairable_by_fip: f64,
}

impl ServerAfr {
    /// Computes the AFR of a server with the given device counts.
    pub fn new(afrs: &ComponentAfrs, dimms: u32, ssds: u32) -> Self {
        let media = afrs.per_dimm * f64::from(dimms) + afrs.per_ssd * f64::from(ssds);
        Self { dimms, ssds, total: media + afrs.other, repairable_by_fip: media }
    }

    /// The paper's baseline SKU: 12 DIMMs, 6 SSDs → AFR 4.8.
    pub fn baseline() -> Self {
        Self::new(&ComponentAfrs::paper(), 12, 6)
    }

    /// The paper's GreenSKU-Full: 20 DIMMs, 14 SSDs → AFR 7.2.
    pub fn greensku_full() -> Self {
        Self::new(&ComponentAfrs::paper(), 20, 14)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn baseline_afr_golden() {
        let afr = ServerAfr::baseline();
        assert!((afr.total - 4.8).abs() < 1e-12);
        // DIMMs and SSDs are half of the AFR.
        assert!((afr.repairable_by_fip - 2.4).abs() < 1e-12);
    }

    #[test]
    fn greensku_full_afr_golden() {
        let afr = ServerAfr::greensku_full();
        assert!((afr.total - 7.2).abs() < 1e-12);
        assert!((afr.repairable_by_fip - 4.8).abs() < 1e-12);
    }

    #[test]
    fn afr_monotone_in_device_counts() {
        let afrs = ComponentAfrs::paper();
        let a = ServerAfr::new(&afrs, 12, 6);
        let b = ServerAfr::new(&afrs, 13, 6);
        let c = ServerAfr::new(&afrs, 12, 7);
        assert!(b.total > a.total);
        assert!(c.total > b.total); // SSDs fail more than DIMMs
    }

    #[test]
    fn zero_devices_leaves_other_half() {
        let afr = ServerAfr::new(&ComponentAfrs::paper(), 0, 0);
        assert!((afr.total - 2.4).abs() < 1e-12);
        assert_eq!(afr.repairable_by_fip, 0.0);
    }

    #[test]
    fn try_new_rejects_nan_and_negative() {
        assert!(ComponentAfrs::try_new(f64::NAN, 0.2, 2.4).is_err());
        assert!(ComponentAfrs::try_new(0.1, f64::INFINITY, 2.4).is_err());
        assert!(ComponentAfrs::try_new(0.1, 0.2, -2.4).is_err());
        let ok = ComponentAfrs::try_new(0.1, 0.2, 2.4).unwrap();
        assert_eq!(ok, ComponentAfrs::paper());
        // Zero is a valid rate (a component that never fails).
        assert!(ComponentAfrs::try_new(0.0, 0.0, 0.0).is_ok());
    }
}
