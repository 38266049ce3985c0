//! Application models: service profile plus hardware sensitivity.

use crate::class::AppClass;
use crate::sensitivity::HardwareSensitivity;

/// How an application's work is expressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceProfile {
    /// A latency-critical request/response service: requests arrive at
    /// some QPS and are judged on p95 tail latency against an SLO.
    LatencyCritical {
        /// Mean per-request service time on an 8-core Gen3 VM, in
        /// milliseconds.
        base_service_ms: f64,
        /// Lognormal sigma of the service-time distribution (shape of the
        /// tail).
        service_sigma: f64,
    },
    /// A throughput-only batch job (the DevOps builds of Table II): the
    /// metric is total runtime, reported as a slowdown vs Gen3.
    ThroughputOnly {
        /// Job runtime on an 8-core Gen3 VM, in seconds.
        base_runtime_s: f64,
    },
}

/// One of the 20 benchmark applications (Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationModel {
    name: &'static str,
    class: AppClass,
    service: ServiceProfile,
    sensitivity: HardwareSensitivity,
    /// Memory footprint of an 8-core VM running this app, in GB.
    memory_footprint_gb: f64,
    /// Whether this is a closed-source production application (marked
    /// with “*” in the paper's Table III).
    production: bool,
}

impl ApplicationModel {
    /// Creates an application model.
    pub fn new(
        name: &'static str,
        class: AppClass,
        service: ServiceProfile,
        sensitivity: HardwareSensitivity,
        memory_footprint_gb: f64,
        production: bool,
    ) -> Self {
        debug_assert!(sensitivity.is_valid(), "invalid sensitivity for {name}");
        Self { name, class, service, sensitivity, memory_footprint_gb, production }
    }

    /// Application name as the paper spells it.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Application class.
    pub fn class(&self) -> AppClass {
        self.class
    }

    /// Service profile (latency-critical vs throughput-only).
    pub fn service(&self) -> ServiceProfile {
        self.service
    }

    /// Hardware sensitivity vector.
    pub fn sensitivity(&self) -> &HardwareSensitivity {
        &self.sensitivity
    }

    /// Memory footprint of an 8-core VM in GB.
    pub fn memory_footprint_gb(&self) -> f64 {
        self.memory_footprint_gb
    }

    /// Whether the app is a production (closed-source) service.
    pub fn is_production(&self) -> bool {
        self.production
    }

    /// Whether the app only reports throughput (DevOps builds).
    pub fn is_throughput_only(&self) -> bool {
        matches!(self.service, ServiceProfile::ThroughputOnly { .. })
    }

    /// Whether the app tolerates full-CXL memory backing with <5 %
    /// slowdown at the standard 140 ns/280 ns latencies.
    pub fn tolerates_full_cxl(&self) -> bool {
        self.sensitivity.tolerates_full_cxl(140.0, 280.0, 1.05)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn app(weight: f64) -> ApplicationModel {
        ApplicationModel::new(
            "Test",
            AppClass::WebProxy,
            ServiceProfile::LatencyCritical { base_service_ms: 1.0, service_sigma: 0.8 },
            HardwareSensitivity {
                cxl_latency_weight: weight,
                ..HardwareSensitivity::insensitive()
            },
            8.0,
            false,
        )
    }

    #[test]
    fn accessors() {
        let a = app(0.0);
        assert_eq!(a.name(), "Test");
        assert_eq!(a.class(), AppClass::WebProxy);
        assert!(!a.is_throughput_only());
        assert!(!a.is_production());
        assert_eq!(a.memory_footprint_gb(), 8.0);
    }

    #[test]
    fn cxl_tolerance_threshold() {
        assert!(app(0.04).tolerates_full_cxl());
        assert!(!app(0.10).tolerates_full_cxl());
    }

    #[test]
    fn throughput_only_detection() {
        let build = ApplicationModel::new(
            "Build-X",
            AppClass::DevOps,
            ServiceProfile::ThroughputOnly { base_runtime_s: 120.0 },
            HardwareSensitivity::insensitive(),
            8.0,
            false,
        );
        assert!(build.is_throughput_only());
    }
}
