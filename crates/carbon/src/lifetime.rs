//! Component-lifetime normalization (§IV-A).
//!
//! “As components can have different lifetimes, each component's
//! embodied emissions must be normalized.” A component rated for fewer
//! years than the server is replaced mid-life (its embodied emissions
//! are charged more than once); a component rated for more years could
//! serve a second life elsewhere, but the paper's accounting charges a
//! component fully to its first deployment and zeroes the second
//! (reused = zero), so surplus lifetime is *not* discounted here.

use crate::component::ComponentSpec;
use crate::server::ServerSpec;
use crate::units::{KgCo2e, Years};

/// Lifetime ratings per component class used by the normalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentLifetimes {
    /// CPU rated lifetime, years.
    pub cpu: f64,
    /// DRAM rated lifetime, years (Fig. 2 / the accelerated-aging study:
    /// flat failure rates beyond 12 years).
    pub dram: f64,
    /// SSD rated lifetime at typical cloud write rates, years.
    pub ssd: f64,
    /// Everything else (boards, PSU, chassis).
    pub other: f64,
}

impl ComponentLifetimes {
    /// Ratings consistent with the paper's observations: DRAM ≥ 12 y
    /// (no aging signal), SSDs ~ 14 y of erase budget at cloud write
    /// rates (>half left after 7), CPUs and boards comfortably beyond a
    /// 6-year deployment.
    pub fn paper_observed() -> Self {
        Self { cpu: 10.0, dram: 12.0, ssd: 14.0, other: 10.0 }
    }
}

impl Default for ComponentLifetimes {
    fn default() -> Self {
        Self::paper_observed()
    }
}

impl ComponentLifetimes {
    fn rating_for(&self, component: &ComponentSpec) -> f64 {
        use crate::component::ComponentClass::*;
        match component.class() {
            Cpu => self.cpu,
            Dram | CxlDram => self.dram,
            Ssd => self.ssd,
            Nic | CxlController | Other => self.other,
        }
    }

    /// Normalized embodied emissions of one component over a
    /// `server_lifetime` deployment: components rated *shorter* than the
    /// deployment are charged proportionally more (they get replaced);
    /// components rated longer are charged in full (first-life
    /// accounting).
    pub fn normalized_embodied(&self, component: &ComponentSpec, server_lifetime: Years) -> KgCo2e {
        let rating = self.rating_for(component);
        let factor = (server_lifetime.get() / rating).max(1.0);
        component.embodied() * factor
    }

    /// Normalized embodied emissions of a whole server.
    pub fn normalized_server_embodied(
        &self,
        server: &ServerSpec,
        server_lifetime: Years,
    ) -> KgCo2e {
        server.components().iter().map(|c| self.normalized_embodied(c, server_lifetime)).sum()
    }

    /// The extra embodied emissions a lifetime *extension* to
    /// `extended` years would add through mid-life component
    /// replacements, relative to the rated-lifetime charge at the
    /// original deployment length.
    pub fn extension_penalty(
        &self,
        server: &ServerSpec,
        original: Years,
        extended: Years,
    ) -> KgCo2e {
        self.normalized_server_embodied(server, extended)
            - self.normalized_server_embodied(server, original)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::datasets::open_source;

    #[test]
    fn six_year_deployment_charges_components_once() {
        // All ratings exceed 6 years: normalization is the identity for
        // the paper's standard deployment, so the golden numbers hold.
        let lifetimes = ComponentLifetimes::paper_observed();
        let sku = open_source::greensku_cxl_example();
        let normalized = lifetimes.normalized_server_embodied(&sku, Years::new(6.0));
        assert!((normalized.get() - sku.embodied().get()).abs() < 1e-9);
    }

    #[test]
    fn long_deployments_charge_replacements() {
        // At 15 years, DRAM (12 y) and CPUs/boards (10 y) are replaced
        // pro rata; embodied grows.
        let lifetimes = ComponentLifetimes::paper_observed();
        let sku = open_source::baseline_gen3();
        let at6 = lifetimes.normalized_server_embodied(&sku, Years::new(6.0));
        let at15 = lifetimes.normalized_server_embodied(&sku, Years::new(15.0));
        assert!(at15 > at6);
        // CPU factor 1.5, DRAM 1.25, SSD 1.07... — total below 1.5×.
        assert!(at15.get() < at6.get() * 1.5);
    }

    #[test]
    fn extension_penalty_zero_within_ratings() {
        let lifetimes = ComponentLifetimes::paper_observed();
        let sku = open_source::baseline_gen3();
        let penalty = lifetimes.extension_penalty(&sku, Years::new(6.0), Years::new(9.0));
        assert_eq!(penalty, KgCo2e::ZERO);
    }

    #[test]
    fn extension_penalty_positive_beyond_ratings() {
        let lifetimes = ComponentLifetimes::paper_observed();
        let sku = open_source::baseline_gen3();
        let penalty = lifetimes.extension_penalty(&sku, Years::new(6.0), Years::new(13.0));
        assert!(penalty.get() > 0.0);
        // At 13 years the CPU (10 y) and DRAM (12 y) need pro-rata
        // replacement: ~5-15 % extra embodied for the baseline SKU —
        // the §VII-B lifetime lever optimistically ignores this, which
        // is part of why 13-year lifetimes are "a radical redesign".
        let frac = penalty.get() / sku.embodied().get();
        assert!((0.05..0.15).contains(&frac), "penalty fraction {frac}");
    }

    #[test]
    fn reused_components_stay_free() {
        // Reused DDR4 carries zero embodied; normalization multiplies
        // zero.
        let lifetimes = ComponentLifetimes::paper_observed();
        let sku = open_source::greensku_full();
        let normalized = lifetimes.normalized_server_embodied(&sku, Years::new(20.0));
        let cxl_dram_share: KgCo2e = sku
            .components()
            .iter()
            .filter(|c| c.is_reused())
            .map(|c| lifetimes.normalized_embodied(c, Years::new(20.0)))
            .sum();
        assert_eq!(cxl_dram_share, KgCo2e::ZERO);
        assert!(normalized > sku.embodied());
    }
}
