//! Serving demo: one mixed batch of sort jobs, FIFO vs weighted fair-share.
//!
//! A 96 GiB batch sort arrives first and takes a 6 GiB ring out of the
//! broker's 8 GiB MCDRAM budget. Behind it queue small interactive sorts
//! (0.75 GiB rings, which still fit) and standard sorts (3 GiB rings,
//! which do not). FIFO stops at the first job that does not fit, so once a
//! standard sort reaches the head of the queue everything behind it waits
//! for the elephant; weighted fair-share skips the blocked class and keeps
//! the interactive jobs flowing.
//!
//! Run with: `cargo run -p mlm-examples --bin serve_demo --release`

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::GIB;
use mlm_core::ModelParams;
use mlm_exec::{PipelineSpec, Placement, Workload};
use mlm_fleet::{fleet_serve, FleetConfig, FleetJob};
use mlm_serve::{DeadlineClass, JobRequest, Policy};

/// A chunked MLM-sort job: two compute passes over an MCDRAM buffer ring,
/// thread pools sized by the paper's Eqs. 1–5 for a dedicated machine.
fn sort_spec(machine: &MachineConfig, total: u64, chunk: u64) -> PipelineSpec {
    let passes = 2;
    let m = ModelParams {
        b_copy: total as f64,
        ddr_max: machine.ddr_bandwidth,
        mcdram_max: machine.effective_mcdram_bandwidth(),
        s_copy: machine.per_thread_copy_bw,
        s_comp: machine.per_thread_compute_bw,
        total_threads: machine.total_threads(),
    };
    let split = m.optimal_split(passes).expect("machine has enough threads");
    PipelineSpec {
        total_bytes: total,
        chunk_bytes: chunk,
        p_in: split.p_in,
        p_out: split.p_out,
        p_comp: split.p_comp,
        compute_passes: passes,
        compute_rate: machine.per_thread_compute_bw,
        copy_rate: machine.per_thread_copy_bw,
        placement: Placement::Hbw,
        lockstep: false,
        data_addr: 0,
        workload: Workload::Map,
    }
}

fn main() {
    let machine = MachineConfig::knl_7250(MemMode::Flat);

    // The batch: an elephant sort, six interactive sorts, three standard.
    let mut jobs = vec![JobRequest::new(
        0,
        0.0,
        DeadlineClass::Batch,
        sort_spec(&machine, 96 * GIB, 2 * GIB),
    )];
    for i in 0..6u64 {
        jobs.push(JobRequest::new(
            1 + i,
            0.2 + 0.3 * i as f64,
            DeadlineClass::Interactive,
            sort_spec(&machine, 4 * GIB, GIB / 4),
        ));
    }
    for i in 0..3u64 {
        jobs.push(JobRequest::new(
            7 + i,
            0.5 + 0.8 * i as f64,
            DeadlineClass::Standard,
            sort_spec(&machine, 24 * GIB, GIB),
        ));
    }
    jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    // One node serves the batch: a fleet of one, every job non-strict.
    let jobs: Vec<FleetJob> = jobs
        .into_iter()
        .map(|req| FleetJob {
            req,
            strict: false,
            origin: 0,
        })
        .collect();

    for policy in [Policy::Fifo, Policy::FairShare] {
        // Tight budget: the elephant's ring is 6 GiB.
        let mut cfg = FleetConfig::homogeneous(machine.clone(), 1, 8 * GIB, false);
        cfg.policy = policy;
        let out = fleet_serve(&cfg, &jobs).expect("all demo jobs fit the broker");

        println!("--- policy: {} (8 GiB MCDRAM budget) ---", policy.label());
        println!(
            "{:>4}  {:<11} {:>9} {:>9} {:>9} {:>10}",
            "job", "class", "arrive_s", "start_s", "finish_s", "latency_s"
        );
        for r in &out.records {
            println!(
                "{:>4}  {:<11} {:>9.2} {:>9.2} {:>9.2} {:>10.2}",
                r.id,
                r.class.label(),
                r.arrival,
                r.start,
                r.finish,
                r.latency()
            );
        }
        println!(
            "fleet: mean latency {:.2} s, p99 {:.2} s, MCDRAM high water {:.1} GiB\n",
            out.fleet.mean_latency,
            out.fleet.p99_latency,
            out.fleet.mcdram_high_water as f64 / GIB as f64
        );
    }
}
