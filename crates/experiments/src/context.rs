//! Shared experiment context: output directory, seeds, quick mode.

use gsf_stats::rng::SeedFactory;
use gsf_stats::table::Table;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Errors running an experiment.
#[derive(Debug)]
pub enum ExpError {
    /// Filesystem failure writing artifacts.
    Io(std::io::Error),
    /// A framework evaluation failed.
    Gsf(gsf_core::GsfError),
    /// A carbon-model call failed.
    Carbon(gsf_carbon::CarbonError),
    /// Cluster sizing failed.
    Sizing(gsf_cluster::SizingError),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::Io(e) => write!(f, "io error: {e}"),
            ExpError::Gsf(e) => write!(f, "framework error: {e}"),
            ExpError::Carbon(e) => write!(f, "carbon model error: {e}"),
            ExpError::Sizing(e) => write!(f, "sizing error: {e}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<std::io::Error> for ExpError {
    fn from(e: std::io::Error) -> Self {
        ExpError::Io(e)
    }
}

impl From<gsf_core::GsfError> for ExpError {
    fn from(e: gsf_core::GsfError) -> Self {
        ExpError::Gsf(e)
    }
}

impl From<gsf_carbon::CarbonError> for ExpError {
    fn from(e: gsf_carbon::CarbonError) -> Self {
        ExpError::Carbon(e)
    }
}

impl From<gsf_cluster::SizingError> for ExpError {
    fn from(e: gsf_cluster::SizingError) -> Self {
        ExpError::Sizing(e)
    }
}

/// Context passed to every experiment runner.
pub struct ExpContext {
    results_dir: PathBuf,
    seeds: SeedFactory,
    quick: bool,
    quiet: bool,
    written: Mutex<Vec<String>>,
}

impl ExpContext {
    /// Creates a context writing into `results_dir` (created if absent).
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    pub fn new(results_dir: impl Into<PathBuf>, seed: u64, quick: bool) -> Result<Self, ExpError> {
        let results_dir = results_dir.into();
        fs::create_dir_all(&results_dir)?;
        Ok(Self {
            results_dir,
            seeds: SeedFactory::new(seed),
            quick,
            quiet: false,
            written: Mutex::new(Vec::new()),
        })
    }

    /// Suppresses console echoing of tables (used by tests).
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// The root seed factory; experiments derive their own streams.
    pub fn seeds(&self) -> &SeedFactory {
        &self.seeds
    }

    /// Whether to run with reduced fidelity (fewer requests/traces) for
    /// fast CI runs.
    pub fn is_quick(&self) -> bool {
        self.quick
    }

    /// The results directory.
    pub fn results_dir(&self) -> &Path {
        &self.results_dir
    }

    /// Picks between the quick and full value of a parameter.
    pub fn scaled<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Writes raw text to `<results>/<name>`.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn write_text(&self, name: &str, content: &str) -> Result<(), ExpError> {
        let path = self.results_dir.join(name);
        let mut f = fs::File::create(&path)?;
        f.write_all(content.as_bytes())?;
        self.written().push(name.to_string());
        Ok(())
    }

    /// Writes a table as both CSV (`<stem>.csv`) and aligned text
    /// (`<stem>.txt`), echoing the text table to the console.
    ///
    /// # Errors
    ///
    /// Returns an error when either file cannot be written.
    pub fn write_table(&self, stem: &str, table: &Table) -> Result<(), ExpError> {
        self.write_text(&format!("{stem}.csv"), &table.render_csv())?;
        let text = table.render_text();
        self.write_text(&format!("{stem}.txt"), &text)?;
        if !self.quiet {
            println!("{text}");
        }
        Ok(())
    }

    /// Writes an `(x, y...)` series as CSV with the given header.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn write_series(
        &self,
        name: &str,
        header: &[&str],
        rows: &[Vec<f64>],
    ) -> Result<(), ExpError> {
        let mut out = String::new();
        out.push_str(&gsf_stats::table::csv_line(header));
        out.push('\n');
        for row in rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&gsf_stats::table::csv_line(&cells));
            out.push('\n');
        }
        self.write_text(name, &out)
    }

    /// Logs a free-form note to the console (suppressed when quiet).
    pub fn note(&self, msg: &str) {
        if !self.quiet {
            println!("{msg}");
        }
    }

    /// All artifact names written so far (for the manifest).
    pub fn artifacts(&self) -> Vec<String> {
        self.written().clone()
    }

    /// The artifact list. A panic in another experiment while it held
    /// the lock leaves the list whole (each update is one `push`), so a
    /// poisoned lock is recovered rather than propagated.
    fn written(&self) -> MutexGuard<'_, Vec<String>> {
        self.written.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn temp_ctx() -> (ExpContext, PathBuf) {
        let dir = std::env::temp_dir().join(format!("gsf-exp-test-{}", std::process::id()));
        let ctx = ExpContext::new(&dir, 1, true).unwrap().quiet();
        (ctx, dir)
    }

    #[test]
    fn writes_tables_and_tracks_artifacts() {
        let (ctx, dir) = temp_ctx();
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into()]);
        ctx.write_table("unit_test_table", &t).unwrap();
        assert!(dir.join("unit_test_table.csv").exists());
        assert!(dir.join("unit_test_table.txt").exists());
        assert_eq!(
            ctx.artifacts(),
            vec!["unit_test_table.csv".to_string(), "unit_test_table.txt".to_string()]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scaled_picks_by_mode() {
        let (ctx, dir) = temp_ctx();
        assert_eq!(ctx.scaled(1, 100), 1);
        assert!(ctx.is_quick());
        std::fs::remove_dir_all(dir).ok();
    }
}
