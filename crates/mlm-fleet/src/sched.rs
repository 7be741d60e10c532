//! Single-node scheduling, driven as a fleet of one.
//!
//! There is no separate single-node serving loop: one node's scheduler is
//! [`crate::fleet_serve`] on `FleetConfig::homogeneous(machine, 1, budget,
//! spill)` with non-strict jobs, where placement has a single candidate
//! and stealing has no donor. These tests pin that node's scheduling
//! semantics — dedicated speed when alone, capacity serialisation, bus
//! sharing, policy order, aging, rejection, spill and determinism.

mod tests {
    use knl_sim::machine::{MachineConfig, MemMode};
    use knl_sim::MemLevel;
    use knl_sim::GIB;
    use mlm_core::{PipelineSpec, Placement, Workload};
    use mlm_serve::{profile, DeadlineClass, JobRequest, Policy};

    use crate::{fleet_serve, FleetConfig, FleetJob, FleetOutcome};

    fn machine() -> MachineConfig {
        MachineConfig::knl_7250(MemMode::Flat)
    }

    fn spec(total: u64, chunk: u64, passes: u32) -> PipelineSpec {
        PipelineSpec {
            total_bytes: total,
            chunk_bytes: chunk,
            p_in: 8,
            p_out: 8,
            p_comp: 64,
            compute_passes: passes,
            compute_rate: 6.78e9,
            copy_rate: 4.8e9,
            placement: Placement::Hbw,
            lockstep: false,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    fn cfg(policy: Policy, budget: u64) -> FleetConfig {
        let mut c = FleetConfig::homogeneous(machine(), 1, budget, false);
        c.policy = policy;
        c
    }

    /// Serve `jobs` on the fleet of one, every job non-strict so the
    /// node's own spill policy governs.
    fn serve(c: &FleetConfig, jobs: &[JobRequest]) -> Result<FleetOutcome, String> {
        let jobs: Vec<FleetJob> = jobs
            .iter()
            .map(|req| FleetJob {
                req: req.clone(),
                strict: false,
                origin: 0,
            })
            .collect();
        fleet_serve(c, &jobs)
    }

    #[test]
    fn single_job_runs_at_dedicated_speed() {
        let c = cfg(Policy::Fifo, 16 * GIB);
        let s = spec(8 * GIB, GIB, 2);
        let jobs = [JobRequest::new(1, 0.0, DeadlineClass::Standard, s.clone())];
        let out = serve(&c, &jobs).unwrap();
        assert_eq!(out.records.len(), 1);
        let r = &out.records[0];
        assert_eq!(r.start, 0.0);
        // Alone on the machine, the job finishes in exactly its dedicated
        // service time for the full thread budget.
        let p = profile(
            &s,
            Placement::Hbw,
            &machine(),
            machine().total_threads(),
            true,
        )
        .unwrap();
        assert!((r.finish - p.t0).abs() < 1e-6 * p.t0);
        assert_eq!(out.fleet.jobs, 1);
        assert_eq!(out.fleet.mcdram_high_water, 3 * GIB);
    }

    #[test]
    fn capacity_serialises_jobs_and_is_never_oversubscribed() {
        // 8 GiB budget, 6 GiB rings: only one job resident at a time.
        let c = cfg(Policy::Fifo, 8 * GIB);
        let s = spec(8 * GIB, 2 * GIB, 1);
        let jobs: Vec<JobRequest> = (0..3)
            .map(|i| JobRequest::new(i, 0.0, DeadlineClass::Standard, s.clone()))
            .collect();
        let out = serve(&c, &jobs).unwrap();
        assert_eq!(out.records.len(), 3);
        assert!(out.fleet.mcdram_high_water <= 8 * GIB);
        // Strictly serialised: each start coincides with the previous
        // finish, and only one job's interval overlaps any time point.
        let mut recs = out.records.clone();
        recs.sort_by(|a, b| a.start.total_cmp(&b.start));
        for w in recs.windows(2) {
            assert!(w[1].start >= w[0].finish - 1e-9);
        }
    }

    #[test]
    fn co_resident_jobs_share_bus_bandwidth() {
        // Two jobs whose rings fit together: both admitted at t=0, and bus
        // contention makes each slower than it would be alone (but the pair
        // finishes sooner than running back-to-back).
        let c = cfg(Policy::Fifo, 8 * GIB);
        let s = spec(16 * GIB, GIB, 4);
        let solo = serve(
            &c,
            &[JobRequest::new(0, 0.0, DeadlineClass::Standard, s.clone())],
        )
        .unwrap()
        .records[0]
            .finish;
        let jobs: Vec<JobRequest> = (0..2)
            .map(|i| JobRequest::new(i, 0.0, DeadlineClass::Standard, s.clone()))
            .collect();
        let out = serve(&c, &jobs).unwrap();
        let finish = out.fleet.makespan;
        assert!(
            finish > solo * 1.05,
            "contention must cost: {finish} vs solo {solo}"
        );
        assert!(
            finish < 2.0 * solo,
            "sharing must beat serialisation: {finish} vs {}",
            2.0 * solo
        );
        assert_eq!(out.records[0].start, 0.0);
        assert_eq!(out.records[1].start, 0.0);
    }

    #[test]
    fn fifo_head_of_line_blocks_small_jobs_but_fair_share_skips() {
        // Budget 8 GiB. A long-running 3 GiB-ring job holds capacity; a
        // batch elephant with a 6 GiB ring is next in FIFO order and
        // cannot fit; a tiny interactive job (1.5 GiB ring) arrives last.
        let c_fifo = cfg(Policy::Fifo, 8 * GIB);
        let holder = spec(256 * GIB, GIB, 8);
        let elephant = spec(128 * GIB, 2 * GIB, 4);
        let small = spec(2 * GIB, GIB / 2, 1);
        let jobs = vec![
            JobRequest::new(0, 0.0, DeadlineClass::Batch, holder),
            JobRequest::new(1, 1.0, DeadlineClass::Batch, elephant),
            JobRequest::new(2, 2.0, DeadlineClass::Interactive, small),
        ];
        let fifo = serve(&c_fifo, &jobs).unwrap();
        let fair = serve(&cfg(Policy::FairShare, 8 * GIB), &jobs).unwrap();
        let lat =
            |o: &FleetOutcome, id: u64| o.records.iter().find(|r| r.id == id).unwrap().latency();
        // Under FIFO the small job waits behind the elephant that cannot
        // even start; fair-share admits it immediately (1.5 GiB fits in
        // the 5 GiB left by the holder).
        assert!(
            lat(&fair, 2) < lat(&fifo, 2) / 2.0,
            "fair {} vs fifo {}",
            lat(&fair, 2),
            lat(&fifo, 2)
        );
    }

    #[test]
    fn fair_aging_bounds_starvation_of_big_rings() {
        // Budget 8 GiB. A 3 GiB-ring holder runs; a 6 GiB-ring elephant
        // arrives and can never fit while a dense stream of 1.5 GiB-ring
        // interactive jobs keeps fragmenting the spare capacity. Pure
        // fair-share starves the elephant until the stream dries up; with
        // an aging bound the elephant gets an EASY-backfill reservation
        // and runs much earlier.
        let mut jobs = vec![
            JobRequest::new(0, 0.0, DeadlineClass::Standard, spec(64 * GIB, GIB, 4)),
            JobRequest::new(1, 0.5, DeadlineClass::Batch, spec(64 * GIB, 2 * GIB, 4)),
        ];
        for i in 0..120 {
            jobs.push(JobRequest::new(
                2 + i,
                0.1 * i as f64,
                DeadlineClass::Interactive,
                spec(4 * GIB, GIB / 2, 1),
            ));
        }
        let starved = serve(&cfg(Policy::FairShare, 8 * GIB), &jobs).unwrap();
        let mut aged_cfg = cfg(Policy::FairShare, 8 * GIB);
        aged_cfg.fair_aging = 1.0;
        let aged = serve(&aged_cfg, &jobs).unwrap();
        let start = |o: &FleetOutcome| o.records.iter().find(|r| r.id == 1).unwrap().start;
        assert!(
            start(&aged) < start(&starved),
            "aging must admit the elephant earlier: {} vs {}",
            start(&aged),
            start(&starved)
        );
    }

    #[test]
    fn impossible_jobs_are_rejected_not_queued() {
        let c = cfg(Policy::Fifo, 4 * GIB);
        let jobs = vec![
            JobRequest::new(0, 0.0, DeadlineClass::Batch, spec(32 * GIB, 2 * GIB, 1)),
            JobRequest::new(1, 0.0, DeadlineClass::Standard, spec(4 * GIB, GIB, 1)),
        ];
        let out = serve(&c, &jobs).unwrap();
        assert_eq!(out.rejections.len(), 1);
        assert_eq!(out.rejections[0].id, 0);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.fleet.rejected, 1);
    }

    #[test]
    fn spill_runs_immediately_but_slower() {
        let s = spec(16 * GIB, 2 * GIB, 4);
        let jobs: Vec<JobRequest> = (0..2)
            .map(|i| JobRequest::new(i, 0.0, DeadlineClass::Standard, s.clone()))
            .collect();
        let strict = serve(&cfg(Policy::Fifo, 8 * GIB), &jobs).unwrap();
        let c = FleetConfig::homogeneous(machine(), 1, 8 * GIB, true);
        let spilled = serve(&c, &jobs).unwrap();
        // With spill, both start at t=0 (one in DDR).
        assert!(spilled.records.iter().all(|r| r.start == 0.0));
        assert!(spilled
            .records
            .iter()
            .any(|r| r.buffer_level == MemLevel::Ddr));
        // Strict serialises: second job waits.
        assert!(strict.records.iter().any(|r| r.queue_wait() > 0.0));
    }

    #[test]
    fn serve_is_deterministic() {
        let c = cfg(Policy::FairShare, 8 * GIB);
        let jobs: Vec<JobRequest> = (0..6)
            .map(|i| {
                JobRequest::new(
                    i,
                    i as f64 * 0.5,
                    DeadlineClass::ALL[(i % 3) as usize],
                    spec(4 * GIB * (1 + i % 3), GIB, 1 + (i % 2) as u32),
                )
            })
            .collect();
        let a = serve(&c, &jobs).unwrap();
        let b = serve(&c, &jobs).unwrap();
        assert_eq!(a.fleet, b.fleet);
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.finish.to_bits(), y.finish.to_bits());
            assert_eq!(x.start.to_bits(), y.start.to_bits());
        }
    }
}
