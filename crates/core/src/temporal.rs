//! Temporal carbon-aware scheduling on top of GreenSKUs.
//!
//! The paper's related work points out that spatial/temporal workload
//! shifting "can apply on top of GreenSKUs" (§IX). This module makes the
//! claim checkable: defer deferrable batch jobs (the DevOps builds) to
//! the region's cleanest hours and measure the *additional* operational
//! savings stacked on a GreenSKU's hardware savings.

use gsf_carbon::grid::RegionGrid;

/// A deferrable batch job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchJob {
    /// Runtime in hours at the committed core count.
    pub runtime_hours: f64,
    /// Cores the job occupies.
    pub cores: u32,
    /// Earliest hour-of-day the job may start.
    pub release_hour: f64,
    /// Latest hour-of-day the job must finish by (may wrap past
    /// midnight; a 24 h window means fully flexible).
    pub deadline_hours_after_release: f64,
}

impl BatchJob {
    /// A fully flexible job released at midnight.
    pub fn flexible(runtime_hours: f64, cores: u32) -> Self {
        Self { runtime_hours, cores, release_hour: 0.0, deadline_hours_after_release: 24.0 }
    }
}

/// The result of scheduling one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledJob {
    /// Chosen start hour-of-day.
    pub start_hour: f64,
    /// Operational emissions if run immediately at release, arbitrary
    /// energy units × CI (kg CO₂e per kWh of job energy).
    pub immediate_ci: f64,
    /// Operational emissions at the chosen start.
    pub scheduled_ci: f64,
}

impl ScheduledJob {
    /// Fractional operational-emission reduction from deferral.
    pub fn savings(&self) -> f64 {
        if self.immediate_ci <= 0.0 {
            0.0
        } else {
            1.0 - self.scheduled_ci / self.immediate_ci
        }
    }
}

/// Mean carbon intensity over `[start, start + duration)` hours-of-day.
fn window_ci(region: &RegionGrid, start: f64, duration: f64) -> f64 {
    let steps = (duration * 4.0).ceil().max(1.0) as usize;
    (0..steps)
        .map(|i| region.ci_at_hour(start + duration * i as f64 / steps as f64).get())
        .sum::<f64>()
        / steps as f64
}

/// Schedules `job` at the start hour (on a 15-minute grid within its
/// feasible window) minimizing the mean carbon intensity over the job's
/// runtime.
pub fn schedule_job(region: &RegionGrid, job: &BatchJob) -> ScheduledJob {
    let latest_start = (job.deadline_hours_after_release - job.runtime_hours).max(0.0);
    let immediate_ci = window_ci(region, job.release_hour, job.runtime_hours);
    let mut best = (job.release_hour, immediate_ci);
    let steps = (latest_start * 4.0).ceil() as usize;
    for i in 0..=steps {
        let offset = latest_start * i as f64 / steps.max(1) as f64;
        let start = job.release_hour + offset;
        let ci = window_ci(region, start, job.runtime_hours);
        if ci < best.1 {
            best = (start, ci);
        }
    }
    ScheduledJob { start_hour: best.0, immediate_ci, scheduled_ci: best.1 }
}

/// Schedules a batch of jobs independently and returns the aggregate
/// core-hour-weighted operational savings.
pub fn schedule_batch(region: &RegionGrid, jobs: &[BatchJob]) -> (Vec<ScheduledJob>, f64) {
    let scheduled: Vec<ScheduledJob> = jobs.iter().map(|j| schedule_job(region, j)).collect();
    let weight = |j: &BatchJob| f64::from(j.cores) * j.runtime_hours;
    let immediate: f64 = jobs.iter().zip(&scheduled).map(|(j, s)| weight(j) * s.immediate_ci).sum();
    let deferred: f64 = jobs.iter().zip(&scheduled).map(|(j, s)| weight(j) * s.scheduled_ci).sum();
    let savings = if immediate > 0.0 { 1.0 - deferred / immediate } else { 0.0 };
    (scheduled, savings)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_carbon::grid::region;

    fn solar_region() -> RegionGrid {
        region("australia-east").expect("region exists")
    }

    #[test]
    fn flexible_jobs_move_into_daylight() {
        let r = solar_region();
        let job = BatchJob::flexible(2.0, 8);
        let s = schedule_job(&r, &job);
        assert!(s.start_hour > 6.0 && s.start_hour < 16.0, "start {}", s.start_hour);
        assert!(s.savings() > 0.1, "savings {}", s.savings());
    }

    #[test]
    fn inflexible_jobs_cannot_save() {
        let r = solar_region();
        let job = BatchJob {
            runtime_hours: 2.0,
            cores: 8,
            release_hour: 0.0,
            deadline_hours_after_release: 2.0, // must start immediately
        };
        let s = schedule_job(&r, &job);
        assert_eq!(s.start_hour, 0.0);
        assert!(s.savings().abs() < 1e-9);
    }

    #[test]
    fn batch_savings_weighted_by_core_hours() {
        let r = solar_region();
        let jobs = vec![
            BatchJob::flexible(1.0, 16), // flexible, heavy
            BatchJob {
                runtime_hours: 1.0,
                cores: 1,
                release_hour: 0.0,
                deadline_hours_after_release: 1.0,
            }, // stuck at midnight, light
        ];
        let (scheduled, savings) = schedule_batch(&r, &jobs);
        assert_eq!(scheduled.len(), 2);
        // Dominated by the flexible heavy job.
        assert!(savings > 0.1, "{savings}");
        assert!(savings < scheduled[0].savings() + 1e-9);
    }

    #[test]
    fn flat_grids_offer_nothing() {
        // A grid with no solar component has no diurnal structure, so
        // deferral cannot help at all.
        let flat =
            RegionGrid { name: "flat", grid_ci: 0.4, renewable_fraction: 0.5, solar_share: 0.0 };
        let s = schedule_job(&flat, &BatchJob::flexible(2.0, 8));
        assert!(s.savings().abs() < 1e-9, "savings {}", s.savings());
    }

    #[test]
    fn solar_heavy_grids_offer_more_than_wind_heavy_ones() {
        let solar = schedule_job(&solar_region(), &BatchJob::flexible(2.0, 8)).savings();
        let wind =
            schedule_job(&region("europe-north").unwrap(), &BatchJob::flexible(2.0, 8)).savings();
        assert!(solar > wind, "solar {solar} vs wind {wind}");
    }

    #[test]
    fn temporal_stacks_on_greensku_savings() {
        // §IX's composition claim, end to end: a build on GreenSKU-Full
        // saves hardware carbon; deferring it to the cleanest window
        // saves additional *operational* carbon multiplicatively.
        use gsf_carbon::datasets::open_source;
        use gsf_carbon::{CarbonModel, ModelParams};
        let r = solar_region();
        let model = CarbonModel::new(
            ModelParams::default_open_source().with_carbon_intensity(r.average_ci()),
        );
        let hardware =
            model.savings(&open_source::baseline_gen3(), &open_source::greensku_full()).unwrap();
        let temporal = schedule_job(&r, &BatchJob::flexible(2.0, 8)).savings();
        // Combined operational factor: (1-op_savings)·(1-temporal) —
        // strictly better than either alone.
        let combined_op = 1.0 - (1.0 - hardware.operational) * (1.0 - temporal);
        assert!(combined_op > hardware.operational);
        assert!(combined_op > temporal);
    }
}
