//! The paper's figures and tables (`fig1` … `fig12`, `table1`, `table2`,
//! the ablations, the future-work group, `all`): each group runs the
//! experiments in [`crate::experiments`] over one shared
//! [`ExperimentEnv`], prints the tables and writes their CSVs.

use crate::env::{ExperimentEnv, MatrixCell, Platform};
use crate::experiments as ex;
use crate::{CmdResult, Table};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The experiment environment plus where and how to emit results.
pub struct Figures {
    env: ExperimentEnv,
    quick: bool,
    out_dir: PathBuf,
}

/// Build the environment, run one `group` of figures, report the total.
pub fn run(quick: bool, out_dir: &Path, group: fn(&Figures)) -> CmdResult {
    let started = Instant::now();
    eprintln!("# edc-bench: building environment (quick={quick}) ...");
    let figures = Figures { env: ExperimentEnv::new(quick), quick, out_dir: out_dir.to_path_buf() };
    eprintln!("# environment ready in {:.1}s", started.elapsed().as_secs_f64());
    group(&figures);
    eprintln!("# total {:.1}s; CSVs in {}", started.elapsed().as_secs_f64(), out_dir.display());
    Ok(())
}

impl Figures {
    fn emit(&self, t: &Table, name: &str) {
        t.write_csv(&self.out_dir, name).unwrap_or_else(|e| panic!("writing {name}.csv: {e}"));
        println!("{}", t.render());
    }

    /// Replay the scheme × trace matrix on `platform`, timing it.
    fn matrix(&self, platform: Platform, label: &str) -> Vec<MatrixCell> {
        eprintln!("# replaying scheme x trace matrix on {label} ...");
        let t0 = Instant::now();
        let cells = self.env.run_matrix(platform);
        eprintln!("# matrix done in {:.1}s", t0.elapsed().as_secs_f64());
        cells
    }

    /// Fig. 1.
    pub fn fig1(&self) {
        self.emit(&ex::fig1(&self.env), "fig1");
    }

    /// Fig. 2 (wall-clock codec measurements).
    pub fn fig2(&self) {
        self.emit(&ex::fig2(self.quick), "fig2");
    }

    /// Fig. 3: the per-second series goes to CSV, the summary to stdout.
    pub fn fig3(&self) {
        let (series, summary) = ex::fig3(&self.env);
        series.write_csv(&self.out_dir, "fig3").expect("fig3.csv");
        println!("{}", summary.render());
        println!("(full per-second series written to fig3.csv)\n");
    }

    /// Table I.
    pub fn table1(&self) {
        self.emit(&ex::table1(&self.env), "table1");
    }

    /// Table II.
    pub fn table2(&self) {
        self.emit(&ex::table2(&self.env), "table2");
    }

    /// Figs. 8–10 and the read/write breakdown: one single-SSD matrix.
    pub fn single_ssd(&self) {
        let cells = self.matrix(Platform::SingleSsd, "a single SSD");
        let env = &self.env;
        self.emit(&ex::fig8(&cells, env), "fig8");
        self.emit(&ex::fig9(&cells, env), "fig9");
        let title = "Fig.10  Avg response time, single SSD (normalized to Native = 1.0)";
        self.emit(&ex::fig_response(&cells, env, title), "fig10");
        self.emit(&ex::rw_breakdown(&cells, env), "rw_breakdown");
    }

    /// Fig. 11: the RAIS5 matrix.
    pub fn fig11(&self) {
        let cells = self.matrix(Platform::Rais5, "RAIS5");
        let title = "Fig.11  Avg response time, RAIS5 (normalized to Native = 1.0)";
        self.emit(&ex::fig_response(&cells, &self.env, title), "fig11");
    }

    /// Fig. 12.
    pub fn fig12(&self) {
        self.emit(&ex::fig12(&self.env), "fig12");
    }

    /// The DESIGN.md ablations.
    pub fn ablations(&self) {
        let env = &self.env;
        self.emit(&ex::ablate_sd(env), "ablate_sd");
        self.emit(&ex::ablate_alloc(env), "ablate_alloc");
        self.emit(&ex::ablate_threshold(env), "ablate_threshold");
        self.emit(&ex::ablate_ladder(env), "ablate_ladder");
        self.emit(&ex::ablate_feedback(env), "ablate_feedback");
        self.emit(&ex::ablate_cache(env), "ablate_cache");
        self.emit(&ex::ablate_nvram(env), "ablate_nvram");
    }

    /// The paper's §VI future-work directions: endurance, energy, HDD.
    pub fn future_work(&self) {
        self.emit(&ex::endurance(&self.env), "endurance");
        self.emit(&ex::energy(&self.env), "energy");
        self.emit(&ex::hdd(&self.env), "hdd");
    }

    /// The per-second timeline (CSV only).
    pub fn timeline(&self) {
        let t = ex::timeline(&self.env);
        t.write_csv(&self.out_dir, "timeline").expect("timeline.csv");
        println!("== {} == ({} rows written to timeline.csv)\n", t.title, t.len());
    }

    /// The mixed-workload table.
    pub fn mixed(&self) {
        self.emit(&ex::mixed(&self.env), "mixed");
    }

    /// Cost-model calibration (wall-clock codec measurements).
    pub fn calibrate(&self) {
        self.emit(&ex::calibrate(self.quick), "calibrate");
    }

    /// Every group above, in the paper's order.
    pub fn all(&self) {
        self.table1();
        self.table2();
        self.fig1();
        self.fig2();
        self.fig3();
        self.single_ssd();
        self.fig11();
        self.fig12();
        self.ablations();
        self.future_work();
        self.timeline();
        self.mixed();
        self.calibrate();
    }
}
