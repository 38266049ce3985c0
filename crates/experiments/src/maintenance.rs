//! §V maintenance example — AFRs, Fail-In-Place repair rates, and the
//! `C_OOS` comparison showing GreenSKU-Full's maintenance overhead is
//! negligible.

use crate::context::{ExpContext, ExpError};
use gsf_maintenance::{oos_fraction, CoosComparison, FipPolicy, ServerAfr, PAPER_REPAIR_DAYS};
use gsf_stats::table::{fmt_f, fmt_pct, Table};

/// Regenerates the maintenance numbers.
pub fn run(ctx: &ExpContext) -> Result<(), ExpError> {
    let fip = FipPolicy::paper();
    let mut t = Table::new(vec![
        "SKU",
        "DIMMs",
        "SSDs",
        "AFR (per 100 servers)",
        "Repair rate after FIP",
        "OOS fraction (5-day repair)",
    ])
    .with_title("Maintenance model (§V)");
    for (name, afr) in
        [("Baseline (Gen3)", ServerAfr::baseline()), ("GreenSKU-Full", ServerAfr::greensku_full())]
    {
        let repair = fip.repair_rate(&afr);
        t.row(vec![
            name.to_string(),
            afr.dimms.to_string(),
            afr.ssds.to_string(),
            fmt_f(afr.total, 1),
            fmt_f(repair, 1),
            fmt_pct(oos_fraction(repair, PAPER_REPAIR_DAYS), 3),
        ]);
    }
    ctx.write_table("maintenance_afr_fip", &t)?;

    let coos = CoosComparison::paper();
    ctx.write_text(
        "maintenance_coos.txt",
        &format!(
            "C_OOS baseline: {:.2} (paper: 3.0)\n\
             C_OOS GreenSKU-Full: {:.2} (paper: 2.98)\n\
             relative overhead: {} (paper: negligible)\n",
            coos.baseline,
            coos.greensku,
            fmt_pct(coos.relative_overhead(), 1),
        ),
    )?;
    ctx.note(&format!(
        "maintenance: C_OOS {:.2} vs {:.2} — overhead {}",
        coos.baseline,
        coos.greensku,
        fmt_pct(coos.relative_overhead(), 1)
    ));
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn writes_artifacts() {
        let dir = std::env::temp_dir().join(format!("gsf-maint-{}", std::process::id()));
        let ctx = ExpContext::new(&dir, 13, true).unwrap().quiet();
        run(&ctx).unwrap();
        let csv = std::fs::read_to_string(dir.join("maintenance_afr_fip.csv")).unwrap();
        assert!(csv.contains("4.8"));
        assert!(csv.contains("7.2"));
        assert!(csv.contains("3.6"));
        std::fs::remove_dir_all(dir).ok();
    }
}
