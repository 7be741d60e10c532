//! The real-thread fleet host: a long-running dispatcher thread driving
//! per-node worker pools over the dataflow stage pools.
//!
//! Same placement code, same admission code, real execution: the
//! dispatcher thread owns one [`NodeSim`] per node, places the submission
//! stream with [`place`], admits per node with [`NodeSim::admit`] — the
//! one admission pass the virtual-time dispatcher runs too — and hands
//! admitted jobs to that node's worker pool, which runs them on
//! [`run_host_pipeline_dataflow`] with tuner-sized stage pools. Workers
//! report completions over a channel; the dispatcher retires the job
//! with [`NodeSim::release`] and admits the next one.
//!
//! The nodes never see virtual time: every job is submitted with arrival
//! 0 and admitted at `now = 0`, so fair-share aging (which needs
//! `now - arrival > fair_aging > 0`) never fires, and the host ignores
//! the nodes' retune/advance machinery. Each admission's stage pools are
//! sized for `host_threads / (co-resident jobs + 1)` threads instead.
//!
//! **Decision equivalence with the virtual-time mode.** Wall clocks are
//! not virtual clocks, so the two modes can only be compared on
//! timing-independent decisions: the whole submission batch is placed (in
//! job order) *before* serving starts, mirroring the virtual-time
//! dispatcher placing all due arrivals before completions, and each
//! node's admission order is fixed by the queue discipline. Under FIFO
//! with strict jobs, the canonical projection
//! ([`crate::decision::decision_digest`]) is therefore identical between
//! the two modes — the equivalence the test suite asserts on the demo
//! trace. (Stealing is a virtual-time refinement the host mode does not
//! implement; the wall clock makes its trigger points nondeterministic.)
//!
//! [`NodeSim`]: mlm_serve::NodeSim
//! [`NodeSim::admit`]: mlm_serve::NodeSim::admit
//! [`NodeSim::release`]: mlm_serve::NodeSim::release
//! [`run_host_pipeline_dataflow`]: mlm_core::pipeline::host::run_host_pipeline_dataflow

use std::collections::{HashMap, HashSet};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel;
use knl_sim::MemLevel;
use mlm_core::pipeline::host::{run_host_pipeline_dataflow, HostStagePools, KernelCtx};
use mlm_core::{PipelineSpec, Placement, ThreadSplit};
use mlm_serve::{profile, DeadlineClass, JobId, JobRequest, NodeSim};

use crate::config::FleetConfig;
use crate::decision::Decision;
use crate::placement::place;

/// One host fleet job: spec plus the data to stream through it.
#[derive(Debug)]
pub struct FleetHostJob {
    /// Job identifier (unique within a submission batch).
    pub id: JobId,
    /// Latency class (drives fair-share admission).
    pub class: DeadlineClass,
    /// Strict-HBW: never spill this job's ring to DDR.
    pub strict: bool,
    /// Pipeline geometry; pool sizes are re-derived per admission.
    pub spec: PipelineSpec,
    /// Input elements.
    pub data: Vec<i64>,
}

/// Host fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetHostConfig {
    /// Fleet shape and policies (stealing and fair aging are ignored —
    /// virtual-time refinements; see the module docs).
    pub fleet: FleetConfig,
    /// Host threads each node divides among its co-resident jobs.
    pub host_threads: usize,
    /// Worker threads per node pool (concurrent jobs per node).
    pub workers: usize,
}

/// Outcome of one served host fleet job.
#[derive(Debug)]
pub struct FleetHostResult {
    /// Job identifier.
    pub id: JobId,
    /// Node that ran it.
    pub node: usize,
    /// Pool split the tuner assigned.
    pub split: ThreadSplit,
    /// Where the broker placed the ring reservation.
    pub buffer_level: MemLevel,
    /// Wall-clock duration of the pipeline run.
    pub wall: Duration,
    /// Output elements.
    pub data: Vec<i64>,
}

/// Everything a host fleet run produces.
#[derive(Debug)]
pub struct FleetHostOutcome {
    /// Per-job results, sorted by job id.
    pub results: Vec<FleetHostResult>,
    /// Jobs no node could ever fit.
    pub rejected: Vec<JobId>,
    /// The dispatcher's decision log.
    pub decisions: Vec<Decision>,
}

/// A job handed to a node's worker pool.
struct Work {
    node: usize,
    id: JobId,
    spec: PipelineSpec,
    split: ThreadSplit,
    level: MemLevel,
    data: Vec<i64>,
    kernel: fn(&mut [i64], KernelCtx),
}

/// Serve `jobs` across the fleet, applying `kernel` to every compute
/// slice. Blocks until the fleet drains; the dispatcher itself runs on
/// its own thread for the whole call.
pub fn fleet_serve_host(
    cfg: &FleetHostConfig,
    jobs: Vec<FleetHostJob>,
    kernel: fn(&mut [i64], KernelCtx),
) -> Result<FleetHostOutcome, String> {
    cfg.fleet.validate()?;
    if cfg.workers == 0 {
        return Err("need at least one worker per node".into());
    }
    let mut ids = HashSet::new();
    for j in &jobs {
        j.spec
            .validate()
            .map_err(|e| format!("job {}: {e}", j.id))?;
        j.spec
            .validate_elem_size(std::mem::size_of::<i64>())
            .map_err(|e| format!("job {}: {e}", j.id))?;
        let need = (j.data.len() * std::mem::size_of::<i64>()) as u64;
        if need != j.spec.total_bytes {
            return Err(format!(
                "job {}: data is {need} B but spec says {} B",
                j.id, j.spec.total_bytes
            ));
        }
        if !ids.insert(j.id) {
            return Err(format!("job {}: duplicate job id", j.id));
        }
    }
    let mut nodes: Vec<NodeSim> = cfg
        .fleet
        .nodes
        .iter()
        .map(|n| {
            NodeSim::new(n.serve_config(cfg.fleet.policy, cfg.fleet.retune, cfg.fleet.fair_aging))
        })
        .collect::<Result<_, _>>()?;

    // Per-node worker pools, all reporting into one completion channel.
    let (done_tx, done_rx) = channel::unbounded::<FleetHostResult>();
    let mut worker_handles = Vec::new();
    let mut work_txs = Vec::with_capacity(nodes.len());
    for _ in &nodes {
        let (work_tx, work_rx) = channel::unbounded::<Work>();
        for _ in 0..cfg.workers {
            let rx = work_rx.clone();
            let tx = done_tx.clone();
            worker_handles.push(thread::spawn(move || {
                while let Ok(w) = rx.recv() {
                    let pools = HostStagePools::new(w.split.p_in, w.split.p_comp, w.split.p_out);
                    let mut out = vec![0i64; w.data.len()];
                    let t = Instant::now();
                    run_host_pipeline_dataflow(&pools, &w.spec, &w.data, &mut out, w.kernel);
                    // A hung-up dispatcher just means the run already
                    // failed; don't double-panic the worker.
                    let _ = tx.send(FleetHostResult {
                        id: w.id,
                        node: w.node,
                        split: w.split,
                        buffer_level: w.level,
                        wall: t.elapsed(),
                        data: out,
                    });
                }
            }));
        }
        work_txs.push(work_tx);
    }
    drop(done_tx);

    // The dispatcher thread: place the whole submission stream, then
    // admit/release until drained.
    let placement = cfg.fleet.placement;
    let host_threads = cfg.host_threads;
    let dispatcher = thread::spawn(move || -> Result<FleetHostOutcome, String> {
        let mut decisions: Vec<Decision> = Vec::new();
        let mut rejected: Vec<JobId> = Vec::new();
        let mut pending: HashMap<JobId, FleetHostJob> = HashMap::new();

        // Phase 1: placement, in submission order.
        for j in jobs {
            match place(&nodes, placement, &j.spec, j.strict) {
                Some(n) => {
                    decisions.push(Decision::Placed { job: j.id, node: n });
                    let req = JobRequest::new(j.id, 0.0, j.class, j.spec.clone());
                    let ok = nodes[n].submit(req, j.strict);
                    debug_assert!(ok, "placement chose an infeasible node");
                    pending.insert(j.id, j);
                }
                None => {
                    decisions.push(Decision::Rejected { job: j.id });
                    rejected.push(j.id);
                }
            }
        }

        // Phase 2: serve. One admission pass per node, then block on a
        // completion, release, repeat.
        let mut results: Vec<FleetHostResult> = Vec::new();
        loop {
            for (ni, node) in nodes.iter_mut().enumerate() {
                let admitted = node.admit(0.0)?;
                // Co-resident jobs before this pass; each admission in the
                // pass sees the ones admitted ahead of it.
                let before = node.running_len() - admitted.len();
                for (k, adm) in admitted.into_iter().enumerate() {
                    decisions.push(Decision::Admitted {
                        job: adm.id,
                        node: ni,
                        level: adm.level,
                    });
                    let job = pending.remove(&adm.id).expect("admitted job is pending");
                    let effective =
                        if adm.level == MemLevel::Ddr && job.spec.placement == Placement::Hbw {
                            Placement::Ddr
                        } else {
                            job.spec.placement
                        };
                    let budget = (host_threads / (before + k + 1)).max(3);
                    let split =
                        profile(&job.spec, effective, &node.config().machine, budget, true)?.split;
                    let mut spec = job.spec;
                    spec.p_in = split.p_in;
                    spec.p_out = split.p_out;
                    spec.p_comp = split.p_comp;
                    work_txs[ni]
                        .send(Work {
                            node: ni,
                            id: adm.id,
                            spec,
                            split,
                            level: adm.level,
                            data: job.data,
                            kernel,
                        })
                        .map_err(|_| "node worker pool hung up".to_string())?;
                }
            }
            if nodes.iter().all(|n| n.running_len() == 0) {
                let queued: usize = nodes.iter().map(|n| n.queue_len()).sum();
                if queued == 0 {
                    break;
                }
                return Err(format!(
                    "host fleet stuck with {queued} jobs queued and none running"
                ));
            }
            let done = done_rx
                .recv()
                .map_err(|_| "worker channels closed unexpectedly".to_string())?;
            nodes[done.node].release(done.id)?;
            results.push(done);
        }

        // Drop the work channels so the pools drain and exit.
        drop(work_txs);
        results.sort_by_key(|r| r.id);
        Ok(FleetHostOutcome {
            results,
            rejected,
            decisions,
        })
    });

    let outcome = dispatcher
        .join()
        .map_err(|_| "dispatcher thread panicked".to_string())?;
    for h in worker_handles {
        h.join().map_err(|_| "worker thread panicked".to_string())?;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FleetConfig, PlacementPolicy};
    use crate::decision::admission_sequence;
    use knl_sim::machine::{MachineConfig, MemMode};
    use mlm_core::Workload;
    use mlm_serve::Policy;

    const MIB: u64 = 1 << 20;

    fn kernel(slice: &mut [i64], ctx: KernelCtx) {
        for (i, x) in slice.iter_mut().enumerate() {
            *x = x.wrapping_mul(3) ^ (ctx.global_offset + i) as i64;
        }
    }

    fn spec(total: u64, chunk: u64) -> PipelineSpec {
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

    fn input(n: usize, salt: i64) -> Vec<i64> {
        (0..n as i64).map(|i| i * 7 + salt).collect()
    }

    fn reference(mut data: Vec<i64>) -> Vec<i64> {
        for (i, x) in data.iter_mut().enumerate() {
            *x = x.wrapping_mul(3) ^ i as i64;
        }
        data
    }

    /// A fleet of one node: the single-node host server.
    fn one_node(policy: Policy, budget: u64) -> FleetHostConfig {
        let mut fleet =
            FleetConfig::homogeneous(MachineConfig::knl_7250(MemMode::Flat), 1, budget, false);
        fleet.policy = policy;
        FleetHostConfig {
            fleet,
            host_threads: 8,
            workers: 2,
        }
    }

    #[test]
    fn concurrent_serving_preserves_every_output() {
        let n = (MIB / 8) as usize; // 1 MiB per job
        let jobs: Vec<FleetHostJob> = (0..4)
            .map(|i| FleetHostJob {
                id: i,
                class: DeadlineClass::ALL[(i % 3) as usize],
                strict: false,
                spec: spec(MIB, MIB / 4),
                data: input(n, i as i64),
            })
            .collect();
        let expected: Vec<Vec<i64>> = (0..4).map(|i| reference(input(n, i))).collect();
        let out = fleet_serve_host(&one_node(Policy::FairShare, MIB), jobs, kernel).unwrap();
        assert_eq!(out.results.len(), 4);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.data, expected[i], "job {i} output corrupted");
            assert!(r.split.p_comp >= 1);
        }
        // 1 MiB budget, 0.75 MiB rings: admission was serialised, and
        // every job was admitted exactly once.
        let mut admitted: Vec<JobId> = admission_sequence(&out.decisions, 0)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        admitted.sort_unstable();
        assert_eq!(admitted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sjf_admits_the_short_job_first() {
        // Budget fits one ring at a time; SJF must pick the small job
        // even though the big one was submitted first.
        let small_n = (MIB / 8) as usize;
        let big_n = (8 * MIB / 8) as usize;
        let jobs = vec![
            FleetHostJob {
                id: 0,
                class: DeadlineClass::Batch,
                strict: false,
                spec: spec(8 * MIB, MIB),
                data: input(big_n, 0),
            },
            FleetHostJob {
                id: 1,
                class: DeadlineClass::Interactive,
                strict: false,
                spec: spec(MIB, MIB),
                data: input(small_n, 0),
            },
        ];
        let out = fleet_serve_host(&one_node(Policy::Sjf, 3 * MIB), jobs, kernel).unwrap();
        let order: Vec<JobId> = admission_sequence(&out.decisions, 0)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(order, vec![1, 0], "short job must be admitted first");
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        let jobs = vec![FleetHostJob {
            id: 0,
            class: DeadlineClass::Standard,
            strict: false,
            spec: spec(8 * MIB, 4 * MIB), // 12 MiB ring
            data: input((8 * MIB / 8) as usize, 0),
        }];
        let out = fleet_serve_host(&one_node(Policy::Fifo, MIB), jobs, kernel).unwrap();
        assert_eq!(out.rejected, vec![0]);
        assert!(out.results.is_empty());
    }

    #[test]
    fn duplicate_job_ids_are_an_error() {
        // Admissions and completions are matched to jobs by id.
        let jobs: Vec<FleetHostJob> = (0..2)
            .map(|_| FleetHostJob {
                id: 5,
                class: DeadlineClass::Standard,
                strict: false,
                spec: spec(MIB, MIB / 4),
                data: input((MIB / 8) as usize, 0),
            })
            .collect();
        let err = fleet_serve_host(&one_node(Policy::Fifo, MIB), jobs, kernel).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn fleet_host_serves_every_job_and_spreads_strict_load() {
        let n = (MIB / 8) as usize; // 1 MiB per job
        let jobs: Vec<FleetHostJob> = (0..6)
            .map(|i| FleetHostJob {
                id: i,
                class: DeadlineClass::Standard,
                strict: true,
                spec: spec(MIB, MIB / 4),
                data: input(n, i as i64),
            })
            .collect();
        let mut fleet =
            FleetConfig::homogeneous(MachineConfig::knl_7250(MemMode::Flat), 2, 2 * MIB, false);
        fleet.placement = PlacementPolicy::LeastLoaded;
        let cfg = FleetHostConfig {
            fleet,
            host_threads: 8,
            workers: 2,
        };
        let out = fleet_serve_host(&cfg, jobs, kernel).unwrap();
        assert!(out.rejected.is_empty());
        assert_eq!(out.results.len(), 6);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.buffer_level, MemLevel::Mcdram);
            assert_eq!(r.data, reference(input(n, i as i64)), "job {i} corrupted");
        }
        // Least-loaded sees queued strict bytes, so the batch spreads.
        let used: std::collections::HashSet<usize> = out.results.iter().map(|r| r.node).collect();
        assert_eq!(used.len(), 2, "strict batch should use both nodes");
    }

    #[test]
    fn fleet_host_rejects_rings_no_node_fits() {
        let big_n = (8 * MIB / 8) as usize;
        let jobs = vec![
            FleetHostJob {
                id: 0,
                class: DeadlineClass::Standard,
                strict: true,
                spec: spec(8 * MIB, 4 * MIB), // 12 MiB ring > 2 MiB budgets
                data: input(big_n, 0),
            },
            FleetHostJob {
                id: 1,
                class: DeadlineClass::Standard,
                strict: true,
                spec: spec(MIB, MIB / 4),
                data: input((MIB / 8) as usize, 1),
            },
        ];
        let fleet =
            FleetConfig::homogeneous(MachineConfig::knl_7250(MemMode::Flat), 2, 2 * MIB, false);
        let cfg = FleetHostConfig {
            fleet,
            host_threads: 8,
            workers: 1,
        };
        let out = fleet_serve_host(&cfg, jobs, kernel).unwrap();
        assert_eq!(out.rejected, vec![0]);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].id, 1);
    }
}
