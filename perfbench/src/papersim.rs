//! `paper-sim`: the simulated Table 1, Fig. 7, Fig. 8 and the out-of-core
//! stencil study, regenerated in process with each row checked against
//! the committed CSV. The seed only shuffles the order the rows run in.

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::{Program, Simulator, GIB};
use mlm_bench::experiments::{machine_for, megachunk_for};
use mlm_bench::report::{ratio, secs};
use mlm_bench::{paper, BILLION, PAPER_THREADS};
use mlm_core::merge_bench::{merge_bench_program, MergeBenchParams};
use mlm_core::model::ModelParams;
use mlm_core::pipeline::sim::build_program;
use mlm_core::sort::sim::build_sort_program;
use mlm_core::workload::SplitMix64;
use mlm_core::{
    Calibration, InputOrder, PipelineSpec, Placement, SortAlgorithm, SortWorkload,
    Workload as Shape,
};
use mlm_exec::graph::verify_spec;
use mlm_exec::plan::plan_pipeline;

use crate::tracing::Tracer;
use crate::{Figure, Pass, Size, Workload};

/// The committed CSVs the rows are checked against.
pub const CSVS: [&str; 4] = [
    include_str!("../../results/table1.csv"),
    include_str!("../../results/fig7.csv"),
    include_str!("../../results/fig8.csv"),
    include_str!("../../results/stencil_study.csv"),
];

/// At tiny size every `TINY_STRIDE`-th row runs.
const TINY_STRIDE: usize = 7;

/// One CSV row's experiment.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    Table1 {
        n: u64,
        order: InputOrder,
        alg: SortAlgorithm,
    },
    Fig7 {
        alg: SortAlgorithm,
        mega: u64,
    },
    Fig8 {
        repeats: u32,
        copy_threads: usize,
    },
    Stencil {
        gib: u64,
    },
}

/// Each CSV's cells, in row order.
fn cells() -> [Vec<Cell>; 4] {
    let mut t1 = Vec::new();
    for n in [2 * BILLION, 4 * BILLION, 6 * BILLION] {
        for order in InputOrder::PAPER {
            for alg in SortAlgorithm::TABLE1 {
                t1.push(Cell::Table1 { n, order, alg });
            }
        }
    }
    let sweep = [
        BILLION / 8,
        BILLION / 4,
        BILLION / 2,
        BILLION,
        3 * BILLION / 2,
        2 * BILLION,
        3 * BILLION,
        6 * BILLION,
    ];
    let f7 = [SortAlgorithm::MlmSort, SortAlgorithm::MlmImplicit]
        .into_iter()
        .flat_map(|alg| sweep.map(|mega| Cell::Fig7 { alg, mega }))
        .collect();
    let f8 = [1u32, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .flat_map(|repeats| {
            [1usize, 2, 4, 8, 16, 32].map(|copy_threads| Cell::Fig8 {
                repeats,
                copy_threads,
            })
        })
        .collect();
    let st = [4u64, 8, 16, 32, 64]
        .map(|gib| Cell::Stencil { gib })
        .to_vec();
    [t1, f7, f8, st]
}

/// A row to regenerate: its index, its cell and its committed line.
pub type Row = (usize, Cell, Option<&'static str>);

/// Every row, in CSV order, paired with its committed line.
pub fn rows(csvs: &[&'static str; 4]) -> Vec<Row> {
    cells()
        .into_iter()
        .zip(csvs)
        .flat_map(|(cells, csv)| {
            let mut lines = csv.lines().skip(1);
            cells.into_iter().map(move |c| (c, lines.next()))
        })
        .enumerate()
        .map(|(i, (c, line))| (i, c, line))
        .collect()
}

/// The stencil study's spec: 1 GiB chunks, 16 MiB halos, four sweeps.
fn stencil_spec(total: u64, placement: Placement) -> PipelineSpec {
    PipelineSpec {
        total_bytes: total,
        chunk_bytes: GIB,
        p_in: 8,
        p_out: 8,
        p_comp: 64,
        compute_passes: 4,
        compute_rate: 6.78e9,
        copy_rate: 4.8e9,
        placement,
        lockstep: false,
        data_addr: 0,
        workload: Shape::Stencil {
            halo_bytes: GIB / 64,
        },
    }
}

/// The paper-sim workload: the rows in the seed's order.
pub struct PaperSim {
    rows: Vec<Row>,
    /// Whether the committed CSVs have exactly one line per row.
    csv_shape_ok: bool,
    cal: Calibration,
    model: ModelParams,
}

impl PaperSim {
    pub fn new(seed: u64, size: Size) -> Self {
        let mut rows = rows(&CSVS);
        let committed: usize = CSVS.iter().map(|c| c.lines().count() - 1).sum();
        let csv_shape_ok = committed == rows.len();
        if size == Size::Tiny {
            rows = rows
                .into_iter()
                .step_by(TINY_STRIDE)
                .enumerate()
                .map(|(i, (_, cell, line))| (i, cell, line))
                .collect();
        }
        let mut rng = SplitMix64::new(seed);
        for i in (1..rows.len()).rev() {
            rows.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        PaperSim {
            rows,
            csv_shape_ok,
            cal: Calibration::default(),
            model: ModelParams::paper_table2(),
        }
    }
}

/// A row's programs: each one's machine and program, or its lowering error.
type Lowered = Vec<(MachineConfig, Result<Program, String>)>;

/// Lower one row's programs (the stencil specs are planned and verified
/// first, as a checked run would).
fn lower(cell: Cell, cal: &Calibration, tr: &mut Tracer) -> Result<Lowered, String> {
    let flat = MachineConfig::knl_7250(MemMode::Flat);
    let sort = |tr: &mut Tracer, n: u64, order, alg, mega| {
        let machine = machine_for(alg);
        let w = SortWorkload::int64(n, order);
        let prog = tr.span("mlm-core", "build_sort_program", || {
            build_sort_program(&machine, cal, w, alg, mega, PAPER_THREADS)
        });
        vec![(machine, prog)]
    };
    Ok(match cell {
        Cell::Table1 { n, order, alg } => sort(tr, n, order, alg, megachunk_for(alg, n)),
        Cell::Fig7 { alg, mega } => sort(tr, 6 * BILLION, InputOrder::Random, alg, mega),
        Cell::Fig8 {
            repeats,
            copy_threads,
        } => {
            let params = MergeBenchParams::paper(copy_threads, repeats);
            let prog = tr.span("mlm-core", "merge_bench_program", || {
                merge_bench_program(&flat, cal, &params)
            });
            vec![(flat, prog)]
        }
        Cell::Stencil { gib } => {
            let mut out = Vec::new();
            for placement in [Placement::Hbw, Placement::Ddr] {
                let spec = stencil_spec(gib * GIB, placement);
                let plan = tr.span("mlm-exec", "plan_pipeline", || plan_pipeline(&spec));
                plan.validate()?;
                let report = tr
                    .span("mlm-exec", "verify_spec", || {
                        verify_spec(&spec, Some(flat.addressable_mcdram()))
                    })
                    .map_err(|e| e.to_string())?;
                if !report.is_safe() {
                    return Err(format!(
                        "stencil {gib} GiB {placement:?}: schedule refuted:\n{report}"
                    ));
                }
                let prog = tr.span("mlm-core", "build_program", || build_program(&spec));
                out.push((flat.clone(), prog));
            }
            out
        }
    })
}

/// Simulate `prog`, charging the engine counters to the tracer and its
/// event count to `events`.
fn simulate(
    tr: &mut Tracer,
    machine: &MachineConfig,
    prog: &Program,
    events: &mut u64,
) -> Result<f64, String> {
    let (report, stats) = tr
        .span("knl-sim", "run_stats", || {
            Simulator::new(machine.clone()).run_stats(prog)
        })
        .map_err(|e| e.to_string())?;
    *events += stats.events;
    tr.count("knl-sim.events", stats.events as f64);
    tr.count("knl-sim.rate_epochs", stats.rate_recomputes as f64);
    tr.count("knl-sim.stale_pops", stats.stale_events as f64);
    tr.count("knl-sim.heap_peak", stats.heap_peak as f64);
    Ok(report.makespan)
}

impl PaperSim {
    /// Render a row as its CSV line from its programs' simulated seconds.
    fn render(&self, cell: Cell, secs_of: &[Result<f64, String>]) -> Result<String, String> {
        let t = |i: usize| secs_of[i].clone();
        Ok(match cell {
            Cell::Table1 { n, order, alg } => {
                let sim = t(0)?;
                let p = paper::table1_row(n, order, alg).ok_or("no paper row")?;
                [
                    n.to_string(),
                    order.label().into(),
                    alg.label().into(),
                    secs(sim),
                    secs(p.mean),
                    format!("{:.4}", p.std_dev),
                    format!("{:.2}", sim / p.mean),
                ]
                .join(",")
            }
            // An infeasible megachunk fails to lower or run; the figure says so.
            Cell::Fig7 { alg, mega } => {
                let shown = t(0).map_or_else(
                    |_| "infeasible (exceeds MCDRAM)".into(),
                    |s| format!("{s:.2}"),
                );
                format!("{},{mega},{shown}", alg.label())
            }
            Cell::Fig8 {
                repeats,
                copy_threads,
            } => {
                let model = self
                    .model
                    .t_total(copy_threads, repeats)
                    .map_or_else(|| "-".into(), |m| format!("{m:.3}"));
                format!("{repeats},{copy_threads},{model},{:.3}", t(0)?)
            }
            Cell::Stencil { gib } => {
                let (staged, ddr) = (t(0)?, t(1)?);
                let machine = MachineConfig::knl_7250(MemMode::Flat);
                let spec = stencil_spec(gib * GIB, Placement::Hbw);
                let fits = if gib * GIB <= machine.addressable_mcdram() {
                    "yes"
                } else {
                    "no"
                };
                [
                    gib.to_string(),
                    (spec.buffer_footprint(spec.ring_slots()) / GIB).to_string(),
                    fits.into(),
                    secs(staged),
                    secs(ddr),
                    ratio(ddr / staged),
                ]
                .join(",")
            }
        })
    }

    /// Lower and simulate one row's programs: their seconds, or the row's
    /// error.
    fn run_row(
        &self,
        cell: Cell,
        tr: &mut Tracer,
        events: &mut u64,
    ) -> Result<Vec<Result<f64, String>>, String> {
        Ok(lower(cell, &self.cal, tr)?
            .iter()
            .map(|(machine, prog)| {
                simulate(tr, machine, prog.as_ref().map_err(Clone::clone)?, events)
            })
            .collect())
    }
}

/// Whether a regenerated row equals its committed line.
pub fn row_matches(got: &Result<String, String>, want: Option<&str>) -> bool {
    matches!((got, want), (Ok(g), Some(w)) if g == w)
}

impl Workload for PaperSim {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        pass.check("committed CSVs have one line per row", self.csv_shape_ok);
        let (mut err_sum, mut err_rows, mut events) = (0.0, 0u32, 0u64);
        for (row, cell, want) in &self.rows {
            let secs_of = pass.timed_as(*row, || self.run_row(*cell, tr, &mut events));
            pass.jobs += secs_of.as_ref().map_or(1, |v| v.len() as u64);
            if let (Cell::Table1 { n, order, alg }, Ok(secs_of)) = (*cell, &secs_of) {
                let sim = secs_of[0].clone().unwrap_or(f64::NAN);
                let paper = paper::table1_row(n, order, alg).map_or(f64::NAN, |r| r.mean);
                err_sum += (sim / paper - 1.0).abs();
                err_rows += 1;
            }
            let got = secs_of.and_then(|s| self.render(*cell, &s));
            pass.check(
                &format!("{cell:?}: got {got:?}, committed {want:?}"),
                row_matches(&got, *want),
            );
        }
        pass.figures.push(Figure {
            name: "sim_events_per_s",
            unit: "1/s",
            value: events as f64,
            per_wall_s: true,
        });
        pass.figures.push(Figure {
            name: "table1_err_pct",
            unit: "%",
            value: 100.0 * err_sum / f64::from(err_rows.max(1)),
            per_wall_s: false,
        });
        pass
    }

    fn probe(&mut self, _tr: &mut Tracer) -> Pass {
        Pass::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_row_has_a_cell() {
        let rows = rows(&CSVS);
        assert_eq!(rows.len(), 30 + 16 + 42 + 5);
        assert!(rows.iter().all(|(_, _, want)| want.is_some()));
    }

    #[test]
    fn gate_trips_on_a_changed_row() {
        let mut tr = Tracer::off();
        let sim = PaperSim::new(1, Size::Tiny);
        let (_, cell, want) = sim.rows[0];
        let got = sim
            .run_row(cell, &mut tr, &mut 0)
            .and_then(|s| sim.render(cell, &s));
        assert!(row_matches(&got, want), "{got:?} vs {want:?}");
        let mut flipped = got.clone().unwrap();
        let last = flipped.pop().unwrap();
        flipped.push(if last == '0' { '1' } else { '0' });
        assert!(!row_matches(&Ok(flipped), want));
        assert!(!row_matches(&got, None));
        assert!(!row_matches(&Err("lowering failed".into()), want));
    }
}
