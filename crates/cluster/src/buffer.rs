//! Growth buffer (§IV-D, §V implementation).
//!
//! A cloud keeps spare capacity to absorb demand-growth spikes. The
//! paper's workaround for GreenSKUs (whose demand history does not exist
//! yet) keeps the entire buffer on baseline SKUs: VMs run on GreenSKUs
//! fungibly while capacity lasts and overflow to baseline otherwise, so
//! only one (baseline) buffer is needed — at the cost of the buffer
//! being carbon-inefficient.

use crate::sizing::ClusterPlan;

/// Growth-buffer policy: spare capacity as a fraction of the serving
/// capacity, provisioned on baseline SKUs only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthBufferPolicy {
    /// Buffer capacity as a fraction of serving-core capacity (e.g. 0.1
    /// = 10 % headroom).
    pub capacity_fraction: f64,
}

impl GrowthBufferPolicy {
    /// A typical 10 % headroom buffer.
    pub fn default_headroom() -> Self {
        Self { capacity_fraction: 0.10 }
    }

    /// No buffer (for ablation).
    pub fn none() -> Self {
        Self { capacity_fraction: 0.0 }
    }

    /// Extra baseline servers required on top of `plan`, given core
    /// capacities of the two shapes.
    ///
    /// # Panics
    ///
    /// Panics if `baseline_cores` is zero or the fraction is negative.
    pub fn extra_baseline_servers(
        &self,
        plan: &ClusterPlan,
        baseline_cores: u32,
        green_cores: u32,
    ) -> u32 {
        assert!(baseline_cores > 0, "baseline shape must have cores");
        assert!(self.capacity_fraction >= 0.0, "buffer fraction must be non-negative");
        let serving_cores = u64::from(plan.baseline) * u64::from(baseline_cores)
            + u64::from(plan.green) * u64::from(green_cores);
        let buffer_cores = serving_cores as f64 * self.capacity_fraction;
        (buffer_cores / f64::from(baseline_cores)).ceil() as u32
    }

    /// The plan including the buffer: buffer servers are added to the
    /// baseline pool.
    pub fn apply(&self, plan: &ClusterPlan, baseline_cores: u32, green_cores: u32) -> ClusterPlan {
        ClusterPlan {
            baseline: plan.baseline
                + self.extra_baseline_servers(plan, baseline_cores, green_cores),
            green: plan.green,
        }
    }
}

impl Default for GrowthBufferPolicy {
    fn default() -> Self {
        Self::default_headroom()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn buffer_sized_from_total_capacity() {
        let plan = ClusterPlan { baseline: 4, green: 5 };
        // Capacity: 4×80 + 5×128 = 960 cores; 10 % = 96 → 2 baseline
        // servers (ceil 96/80).
        let policy = GrowthBufferPolicy::default_headroom();
        assert_eq!(policy.extra_baseline_servers(&plan, 80, 128), 2);
        let buffered = policy.apply(&plan, 80, 128);
        assert_eq!(buffered.baseline, 6);
        assert_eq!(buffered.green, 5);
    }

    #[test]
    fn zero_buffer_is_identity() {
        let plan = ClusterPlan { baseline: 3, green: 3 };
        assert_eq!(GrowthBufferPolicy::none().apply(&plan, 80, 128), plan);
    }

    #[test]
    fn buffer_grows_with_fraction() {
        let plan = ClusterPlan { baseline: 10, green: 0 };
        let small = GrowthBufferPolicy { capacity_fraction: 0.05 };
        let large = GrowthBufferPolicy { capacity_fraction: 0.20 };
        assert!(
            large.extra_baseline_servers(&plan, 80, 128)
                > small.extra_baseline_servers(&plan, 80, 128)
        );
    }

    #[test]
    #[should_panic(expected = "baseline shape")]
    fn rejects_zero_core_shape() {
        GrowthBufferPolicy::default_headroom().extra_baseline_servers(
            &ClusterPlan { baseline: 1, green: 0 },
            0,
            128,
        );
    }
}
