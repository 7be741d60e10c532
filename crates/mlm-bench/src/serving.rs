//! The serving study: sweep arrival rate × scheduling policy × MCDRAM
//! budget over a seeded heavy-tailed trace and report fleet latency
//! statistics per cell.
//!
//! This is the multi-tenant follow-on to the paper's single-job tables:
//! once several pipelines share one node, the broker's MCDRAM budget and
//! the admission policy — not the per-job thread split — dominate tail
//! latency. The study shows the two qualitative effects the serving layer
//! exists to produce: weighted fair-share beats FIFO on p99 latency (no
//! head-of-line blocking behind batch elephants), and SJF beats FIFO on
//! mean latency (short jobs drain first), both at high arrival rates.

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::GIB;
use mlm_fleet::{fleet_serve, FleetConfig, FleetJob};
use mlm_serve::{heavy_tailed_trace, FleetStats, Policy, TraceConfig};

/// Jobs per trace cell.
pub const SERVE_JOBS: usize = 600;

/// Trace seed; every run of the study is bit-for-bit deterministic.
pub const SERVE_SEED: u64 = 0x5eed_cafe;

/// Offered load sweep (jobs/s): light, moderate, and heavy enough that
/// broker capacity — not the buses — is the bottleneck, so admission
/// order matters.
pub const ARRIVAL_RATES: [f64; 3] = [1.0, 3.0, 5.0];

/// MCDRAM broker budgets (GiB): half the node, and the full 16 GiB.
pub const BUDGETS_GIB: [u64; 2] = [8, 16];

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct ServeStudyRow {
    /// Offered arrival rate (jobs/s).
    pub arrival_rate: f64,
    /// Admission policy.
    pub policy: Policy,
    /// Broker MCDRAM budget (GiB).
    pub budget_gib: u64,
    /// Fleet statistics for the cell.
    pub stats: FleetStats,
}

/// Run the full sweep on the paper's KNL 7250 in flat mode: each cell is
/// a fleet of one node serving non-strict jobs.
pub fn serve_study() -> Result<Vec<ServeStudyRow>, String> {
    let machine = MachineConfig::knl_7250(MemMode::Flat);
    let mut rows = Vec::new();
    for &rate in &ARRIVAL_RATES {
        let mut tc = TraceConfig::new(machine.clone(), SERVE_JOBS, rate, SERVE_SEED);
        // Elephants rare enough that the fleet p99 measures head-of-line
        // *victims*, not the elephants' own multi-second service times,
        // and ring sizes that let standard jobs co-reside with an
        // elephant under the tight budget (so fair-share's reordering
        // does not itself manufacture a starved tail).
        tc.batch_frac = 0.005;
        tc.interactive_chunk = GIB / 4;
        tc.standard_chunk = GIB / 2;
        tc.batch_chunk = GIB;
        let trace: Vec<FleetJob> = heavy_tailed_trace(&tc)
            .into_iter()
            .map(|req| FleetJob {
                req,
                strict: false,
                origin: 0,
            })
            .collect();
        for &budget_gib in &BUDGETS_GIB {
            for &policy in &Policy::ALL {
                let mut cfg = FleetConfig::homogeneous(machine.clone(), 1, budget_gib << 30, false);
                cfg.policy = policy;
                let out = fleet_serve(&cfg, &trace)?;
                rows.push(ServeStudyRow {
                    arrival_rate: rate,
                    policy,
                    budget_gib,
                    stats: out.fleet,
                });
            }
        }
    }
    Ok(rows)
}

/// Find the cell for (rate, policy, budget); panics if the sweep lacks it.
pub fn cell(rows: &[ServeStudyRow], rate: f64, policy: Policy, budget_gib: u64) -> &ServeStudyRow {
    rows.iter()
        .find(|r| r.arrival_rate == rate && r.policy == policy && r.budget_gib == budget_gib)
        .expect("sweep cell missing")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn study() -> &'static [ServeStudyRow] {
        static STUDY: OnceLock<Vec<ServeStudyRow>> = OnceLock::new();
        STUDY.get_or_init(|| serve_study().unwrap())
    }

    #[test]
    fn study_is_deterministic() {
        let a = study();
        let b = serve_study().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.stats, y.stats,
                "{:?} {} differs",
                x.policy, x.arrival_rate
            );
        }
    }

    #[test]
    fn reservations_never_exceed_budget() {
        for row in study() {
            assert!(
                row.stats.mcdram_high_water <= row.budget_gib << 30,
                "{:?} @ {} jobs/s: hwm {} > budget {} GiB",
                row.policy,
                row.arrival_rate,
                row.stats.mcdram_high_water,
                row.budget_gib
            );
        }
    }

    #[test]
    fn every_cell_completes_every_admissible_job() {
        for row in study() {
            assert_eq!(
                row.stats.jobs + row.stats.rejected,
                SERVE_JOBS,
                "{:?} @ {} jobs/s lost jobs",
                row.policy,
                row.arrival_rate
            );
        }
    }

    // The paper-style claims live in the *tight-budget* column: with the
    // full 16 GiB nearly everything co-resides and the policies converge,
    // which the sweep shows rather than hides.

    #[test]
    fn fair_share_beats_fifo_on_tail_latency_under_load() {
        let rows = study();
        let top = *ARRIVAL_RATES.last().unwrap();
        let tight = BUDGETS_GIB[0];
        let fifo = cell(rows, top, Policy::Fifo, tight);
        let fair = cell(rows, top, Policy::FairShare, tight);
        assert!(
            fair.stats.p99_latency < fifo.stats.p99_latency,
            "fair p99 {} >= fifo p99 {}",
            fair.stats.p99_latency,
            fifo.stats.p99_latency
        );
    }

    #[test]
    fn sjf_beats_fifo_on_mean_latency_under_load() {
        let rows = study();
        let top = *ARRIVAL_RATES.last().unwrap();
        let tight = BUDGETS_GIB[0];
        let fifo = cell(rows, top, Policy::Fifo, tight);
        let sjf = cell(rows, top, Policy::Sjf, tight);
        assert!(
            sjf.stats.mean_latency < fifo.stats.mean_latency,
            "sjf mean {} >= fifo mean {}",
            sjf.stats.mean_latency,
            fifo.stats.mean_latency
        );
    }
}
