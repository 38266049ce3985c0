//! Application classes and their fleet core-hour shares (Table III).

/// The six application classes that run in the majority of Azure VMs
/// (§V, citing the workload-characterization study the paper builds on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppClass {
    /// In-memory data stores and OLTP databases.
    BigData,
    /// Web applications (information retrieval, production web frameworks).
    WebApp,
    /// Real-time communication (speech recognition/translation).
    Rtc,
    /// Machine-learning inference.
    MlInference,
    /// Front-end web servers and load balancers.
    WebProxy,
    /// Code compilation and CI pipelines.
    DevOps,
}

impl AppClass {
    /// All classes in the order of the paper's Table III.
    pub fn all() -> [AppClass; 6] {
        [
            AppClass::BigData,
            AppClass::WebApp,
            AppClass::Rtc,
            AppClass::MlInference,
            AppClass::WebProxy,
            AppClass::DevOps,
        ]
    }

    /// Share of fleet core-hours (percent) from Table III.
    pub fn core_hour_share_pct(&self) -> f64 {
        match self {
            AppClass::BigData => 32.0,
            AppClass::WebApp => 27.0,
            AppClass::Rtc => 24.0,
            AppClass::MlInference => 11.0,
            AppClass::WebProxy => 4.0,
            AppClass::DevOps => 1.0,
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            AppClass::BigData => "Big Data",
            AppClass::WebApp => "Web App",
            AppClass::Rtc => "Real-Time Communication",
            AppClass::MlInference => "Machine Learning Inference",
            AppClass::WebProxy => "Web Proxy",
            AppClass::DevOps => "DevOps",
        }
    }
}

impl std::fmt::Display for AppClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_99_percent() {
        // Table III shares sum to 99 % (the paper's table rounds).
        let sum: f64 = AppClass::all().iter().map(|c| c.core_hour_share_pct()).sum();
        assert!((sum - 99.0).abs() < 1e-9);
    }

    #[test]
    fn big_data_is_largest() {
        for c in AppClass::all() {
            assert!(AppClass::BigData.core_hour_share_pct() >= c.core_hour_share_pct());
        }
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> =
            AppClass::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}
