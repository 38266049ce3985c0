//! Registry of all experiments and the run-all driver.

use crate::context::{ExpContext, ExpError};
use gsf_cluster::parallel::{default_workers, map_parallel};

/// One regenerable paper exhibit.
pub struct Experiment {
    /// Short id used on the command line (e.g. `fig7`).
    pub id: &'static str,
    /// What the exhibit shows.
    pub title: &'static str,
    /// The runner.
    pub run: fn(&ExpContext) -> Result<(), ExpError>,
}

/// All experiments, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "sec2",
            title: "SecII fleet underutilization statistics",
            run: crate::sec2::run,
        },
        Experiment {
            id: "fig1",
            title: "Fig. 1 — data-center carbon breakdown",
            run: crate::fig1::run,
        },
        Experiment {
            id: "table1",
            title: "Table I — CPU characteristics",
            run: crate::table1::run,
        },
        Experiment {
            id: "fig2",
            title: "Fig. 2 — DDR4 failure rates over deployment time",
            run: crate::fig2::run,
        },
        Experiment {
            id: "fig7",
            title: "Fig. 7 — tail latency vs load (5 app classes)",
            run: crate::fig7::run,
        },
        Experiment {
            id: "table2",
            title: "Table II — DevOps build slowdowns",
            run: crate::table2::run,
        },
        Experiment {
            id: "table3",
            title: "Table III — scaling factors (20 apps x 3 generations)",
            run: crate::table3::run,
        },
        Experiment {
            id: "fig8",
            title: "Fig. 8 — CXL impact (Moses vs HAProxy)",
            run: crate::fig8::run,
        },
        Experiment {
            id: "fig9",
            title: "Fig. 9 — packing-density CDFs (35 traces)",
            run: crate::fig9::run,
        },
        Experiment {
            id: "fig10",
            title: "Fig. 10 — per-server max memory-utilization CDFs",
            run: crate::fig10::run,
        },
        Experiment {
            id: "table8",
            title: "Tables IV/VIII — per-core savings",
            run: crate::table8::run,
        },
        Experiment {
            id: "table5_6",
            title: "Tables V/VI — input datasets",
            run: crate::table5_6::run,
        },
        Experiment {
            id: "fig11",
            title: "Fig. 11 — cluster savings vs CI (internal Table IV data)",
            run: crate::fig11::run,
        },
        Experiment {
            id: "fig12",
            title: "Fig. 12 — cluster savings vs CI (open data, full pipeline)",
            run: crate::fig12::run,
        },
        Experiment {
            id: "maintenance",
            title: "SecV maintenance example (AFR / FIP / C_OOS)",
            run: crate::maintenance::run,
        },
        Experiment {
            id: "faults",
            title: "Fault-injection robustness sweep (AFR scale x FIP effectiveness)",
            run: crate::faults::run,
        },
        Experiment {
            id: "availability",
            title: "Availability sweep (domain size x repair time x FIP)",
            run: crate::availability::run,
        },
        Experiment {
            id: "adoption",
            title: "SecVI adoption statistics and low-load latency",
            run: crate::adoption::run,
        },
        Experiment {
            id: "scale",
            title: "Scale sweep: streamed vs in-memory evaluation",
            run: crate::scale::run,
        },
        Experiment { id: "sec7", title: "SecVII-B equivalence analyses", run: crate::sec7::run },
        Experiment {
            id: "sec8",
            title: "SecVII-A TCO swap + SecVIII search/autoscaling/tiering",
            run: crate::sec8::run,
        },
        Experiment {
            id: "ablations",
            title: "Design ablations (placement, FIP, CXL cards, tail estimator, buffer)",
            run: crate::ablations::run,
        },
    ]
}

/// Runs one experiment by id; `Ok(false)` when the id is unknown.
///
/// # Errors
///
/// Propagates the experiment's failure.
pub fn run_by_id(ctx: &ExpContext, id: &str) -> Result<bool, ExpError> {
    for exp in all_experiments() {
        if exp.id == id {
            ctx.note(&format!("== {} ==", exp.title));
            (exp.run)(ctx)?;
            return Ok(true);
        }
    }
    Ok(false)
}

/// Runs every experiment and writes the artifact manifest.
///
/// Uses the machine's full parallelism; see [`run_all_with_workers`]
/// to pin the worker count.
///
/// # Errors
///
/// Reports the first failing experiment (in registry order).
pub fn run_all(ctx: &ExpContext) -> Result<(), ExpError> {
    run_all_with_workers(ctx, default_workers())
}

/// [`run_all`] on `workers` threads. Experiments are independent (each
/// derives its own seed stream and writes distinct artifacts), so they
/// run concurrently; the manifest lists artifacts sorted by name so its
/// contents do not depend on completion order.
///
/// # Errors
///
/// Reports the first failing experiment (in registry order).
pub fn run_all_with_workers(ctx: &ExpContext, workers: usize) -> Result<(), ExpError> {
    let experiments = all_experiments();
    map_parallel(&experiments, workers, |_, exp| {
        ctx.note(&format!("== {} ==", exp.title));
        (exp.run)(ctx)
    })
    .into_iter()
    .collect::<Result<(), _>>()?;
    let mut artifacts = ctx.artifacts();
    artifacts.sort_unstable();
    let mut manifest = String::from("artifact\n");
    for a in artifacts {
        manifest.push_str(&a);
        manifest.push('\n');
    }
    ctx.write_text("manifest.csv", &manifest)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn ids_unique_and_lookup_works() {
        let exps = all_experiments();
        let ids: std::collections::HashSet<_> = exps.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), exps.len());
        assert_eq!(exps.len(), 22);
    }

    #[test]
    fn unknown_id_reports_false() {
        let dir = std::env::temp_dir().join(format!("gsf-reg-{}", std::process::id()));
        let ctx = ExpContext::new(&dir, 1, true).unwrap().quiet();
        assert!(!run_by_id(&ctx, "nope").unwrap());
        assert!(run_by_id(&ctx, "table1").unwrap());
        std::fs::remove_dir_all(dir).ok();
    }
}
