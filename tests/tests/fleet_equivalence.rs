//! Property tests for the fleet dispatcher: a fleet of one (single-node
//! serving) is unaffected by placement policy and stealing, work stealing
//! never lets any node exceed its MCDRAM budget, and the virtual-time and
//! real-thread host dispatchers make identical canonical decisions on the
//! demo batch.

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::{MemLevel, GIB};
use mlm_core::pipeline::host::KernelCtx;
use mlm_core::{PipelineSpec, Placement, Workload};
use mlm_fleet::{
    admission_sequence, decision_digest, fleet_serve, fleet_serve_host, fleet_trace,
    placement_sequence, Decision, FleetConfig, FleetHostConfig, FleetHostJob, FleetJob,
    FleetTraceConfig, PlacementPolicy,
};
use mlm_serve::{heavy_tailed_trace, DeadlineClass, JobRequest, Policy, TraceConfig};
use proptest::prelude::*;

fn machine() -> MachineConfig {
    MachineConfig::knl_7250(MemMode::Flat)
}

fn any_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fifo),
        Just(Policy::Sjf),
        Just(Policy::FairShare),
    ]
}

fn any_placement_policy() -> impl Strategy<Value = PlacementPolicy> {
    prop_oneof![
        Just(PlacementPolicy::FirstFit),
        Just(PlacementPolicy::BestFitHbw),
        Just(PlacementPolicy::LeastLoaded),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A 1-node fleet is single-node serving: placement has one candidate
    /// and stealing has no donor, so whatever the trace, queueing policy,
    /// budget and spill flag, every placement policy and both steal
    /// settings produce bit-identical records, rejections and high-water
    /// marks.
    #[test]
    fn one_node_fleet_ignores_placement_and_stealing(
        seed in any::<u64>(),
        n_jobs in 1usize..30,
        rate in 0.5f64..6.0,
        policy in any_policy(),
        budget_gib in 4u64..=16,
        spill in any::<bool>(),
    ) {
        let tc = TraceConfig::new(machine(), n_jobs, rate, seed);
        let jobs: Vec<FleetJob> = heavy_tailed_trace(&tc)
            .into_iter()
            .map(|req| FleetJob { req, strict: false, origin: 0 })
            .collect();
        let run = |placement: PlacementPolicy, steal: bool| {
            let mut cfg = FleetConfig::homogeneous(machine(), 1, budget_gib * GIB, spill);
            cfg.policy = policy;
            cfg.placement = placement;
            cfg.steal = steal;
            fleet_serve(&cfg, &jobs).unwrap()
        };
        let base = run(PlacementPolicy::FirstFit, false);
        prop_assert_eq!(base.records.len() + base.rejections.len(), jobs.len());
        let base_rej: Vec<u64> = base.rejections.iter().map(|r| r.id).collect();
        for placement in PlacementPolicy::ALL {
            for steal in [false, true] {
                let other = run(placement, steal);
                prop_assert_eq!(other.records.len(), base.records.len());
                for (o, b) in other.records.iter().zip(&base.records) {
                    prop_assert_eq!(o.id, b.id);
                    prop_assert_eq!(o.buffer_level, b.buffer_level);
                    prop_assert_eq!(o.arrival.to_bits(), b.arrival.to_bits());
                    prop_assert_eq!(o.start.to_bits(), b.start.to_bits(), "job {} start", o.id);
                    prop_assert_eq!(o.finish.to_bits(), b.finish.to_bits(), "job {} finish", o.id);
                }
                let rej: Vec<u64> = other.rejections.iter().map(|r| r.id).collect();
                prop_assert_eq!(&rej, &base_rej);
                prop_assert_eq!(other.steals, 0, "a lone node has nobody to steal from");
                prop_assert_eq!(other.fleet.mcdram_high_water, base.fleet.mcdram_high_water);
            }
        }
    }

    /// Work stealing is capacity-safe: across random heterogeneous
    /// fleets, traces, and strictness mixes, no node's MCDRAM high-water
    /// mark ever exceeds its budget, every job is accounted for exactly
    /// once, and the decision log agrees with the steal counter.
    #[test]
    fn stealing_never_violates_any_node_budget(
        seed in any::<u64>(),
        n_nodes in 2usize..=4,
        per_node in 5usize..=30,
        rate in 1.0f64..6.0,
        budgets in proptest::collection::vec(2u64..=16, 4),
        strict_frac in 0.0f64..1.0,
        skew in 0.0f64..0.9,
        spill in any::<bool>(),
        policy in any_policy(),
        placement in any_placement_policy(),
        with_cluster in any::<bool>(),
    ) {
        let mut cfg = FleetConfig::homogeneous(machine(), n_nodes, 16 * GIB, spill);
        for (i, node) in cfg.nodes.iter_mut().enumerate() {
            node.mcdram_budget = budgets[i] * GIB;
        }
        cfg.policy = policy;
        cfg.placement = placement;
        cfg.steal = true;
        if with_cluster {
            cfg.cluster = Some(mlm_cluster::ClusterConfig::omnipath(n_nodes));
        }

        let mut tc = FleetTraceConfig::new(
            TraceConfig::new(machine(), 0, rate, seed),
            n_nodes,
            per_node,
        );
        tc.strict_frac = strict_frac;
        tc.skew = skew;
        let jobs = fleet_trace(&tc);

        let out = fleet_serve(&cfg, &jobs).unwrap();
        prop_assert_eq!(out.records.len() + out.rejections.len(), jobs.len());
        for (ni, (stats, node)) in out.per_node.iter().zip(&cfg.nodes).enumerate() {
            let cap = node.mcdram_budget.min(node.machine.addressable_mcdram());
            prop_assert!(
                stats.mcdram_high_water <= cap,
                "node {} high-water {} exceeds budget {}",
                ni, stats.mcdram_high_water, cap
            );
        }
        let stolen = out
            .decisions
            .iter()
            .filter(|d| matches!(d, Decision::Stolen { .. }))
            .count();
        prop_assert_eq!(stolen, out.steals);
        // Strict jobs never run out of a DDR-spilled ring.
        let strict_ids: std::collections::HashSet<u64> =
            jobs.iter().filter(|j| j.strict).map(|j| j.req.id).collect();
        for r in out.records.iter().filter(|r| strict_ids.contains(&r.id)) {
            prop_assert_eq!(r.buffer_level, MemLevel::Mcdram, "strict job {} spilled", r.id);
        }
    }
}

fn demo_spec(total: u64, chunk: u64) -> PipelineSpec {
    PipelineSpec {
        total_bytes: total,
        chunk_bytes: chunk,
        p_in: 1,
        p_out: 1,
        p_comp: 2,
        compute_passes: 1,
        compute_rate: 6.78e9,
        copy_rate: 4.8e9,
        placement: Placement::Hbw,
        lockstep: false,
        data_addr: 0,
        workload: Workload::Map,
    }
}

fn demo_kernel(slice: &mut [i64], _ctx: KernelCtx) {
    for x in slice.iter_mut() {
        *x = x.wrapping_mul(3);
    }
}

/// The acceptance demo: virtual-time and real-thread host modes produce
/// the identical canonical decision sequence — not just equal digests,
/// the actual placement sequence and per-node admission sequences match
/// element for element.
#[test]
fn host_and_vt_modes_make_identical_decisions_on_the_demo_trace() {
    const MIB: u64 = 1 << 20;
    let n = (MIB / 8) as usize;
    let mut fleet = FleetConfig::homogeneous(machine(), 2, 2 * MIB, false);
    fleet.placement = PlacementPolicy::LeastLoaded;
    fleet.policy = Policy::Fifo;

    let vt_jobs: Vec<FleetJob> = (0..6)
        .map(|i| FleetJob {
            req: JobRequest::new(i, 0.0, DeadlineClass::Standard, demo_spec(MIB, MIB / 4)),
            strict: true,
            origin: 0,
        })
        .collect();
    let host_jobs: Vec<FleetHostJob> = (0..6)
        .map(|i| FleetHostJob {
            id: i,
            class: DeadlineClass::Standard,
            strict: true,
            spec: demo_spec(MIB, MIB / 4),
            data: (0..n as i64).map(|x| x * 7 + i as i64).collect(),
        })
        .collect();

    let vt = fleet_serve(&fleet, &vt_jobs).unwrap();
    let host_cfg = FleetHostConfig {
        fleet: fleet.clone(),
        host_threads: 8,
        workers: 2,
    };
    let host = fleet_serve_host(&host_cfg, host_jobs, demo_kernel).unwrap();

    assert_eq!(host.results.len(), 6);
    assert!(host.rejected.is_empty());
    for r in &host.results {
        let expect: Vec<i64> = (0..n as i64).map(|x| (x * 7 + r.id as i64) * 3).collect();
        assert_eq!(r.data, expect, "job {} output wrong", r.id);
    }

    assert_eq!(
        placement_sequence(&vt.decisions),
        placement_sequence(&host.decisions)
    );
    for node in 0..2 {
        assert_eq!(
            admission_sequence(&vt.decisions, node),
            admission_sequence(&host.decisions, node),
            "node {node} admission sequence diverges"
        );
    }
    assert_eq!(
        decision_digest(&vt.decisions, 2),
        decision_digest(&host.decisions, 2)
    );
}
