//! The virtual-time fleet dispatcher: N [`NodeSim`]s behind a placement
//! layer, with cross-node work stealing.
//!
//! This is the only virtual-time serving loop: single-node serving is a
//! 1-node fleet, where placement has one candidate and stealing has no
//! donor. Each event time, in this order:
//!
//! 1. **arrivals** — place each due job on a node ([`place`]) or reject
//!    it when no node could ever fit its ring,
//! 2. **migration deliveries** — stolen jobs whose transfer finished join
//!    their thief's queue,
//! 3. **completions** — per node, release reservations and record jobs,
//! 4. **stealing** — idle nodes lift a queued job from the most
//!    backlogged queue (never its head) if it fits right now; the move
//!    pays the interconnect price when a [`ClusterConfig`] is set,
//! 5. **admission** — per node, the shared policy pass,
//! 6. **advance** — re-tune, re-arbitrate buses, jump to the next event.
//!
//! Everything is pure arithmetic over the trace: same fleet, same trace,
//! bit-identical outcome — which is what lets CI hard-fail on placement
//! decision drift.
//!
//! [`ClusterConfig`]: mlm_cluster::ClusterConfig

use mlm_cluster::ClusterConfig;
use mlm_core::PipelineSpec;
use mlm_serve::stats::percentile;
use mlm_serve::{FleetStats, JobRecord, JobRequest, NodeSim, Rejection, DONE_EPS};

use crate::config::FleetConfig;
use crate::decision::Decision;
use crate::placement::{place, ring_footprint, PlacementView};
use crate::trace::FleetJob;

/// Everything a fleet serving run produces.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-job outcomes across all nodes, sorted by job id.
    pub records: Vec<JobRecord>,
    /// Jobs no node could ever fit.
    pub rejections: Vec<Rejection>,
    /// The dispatcher's decision log, in decision order.
    pub decisions: Vec<Decision>,
    /// Fleet-wide summary (high-water = max over nodes).
    pub fleet: FleetStats,
    /// Per-node summaries, indexed by node id.
    pub per_node: Vec<FleetStats>,
    /// p99 end-to-end latency over strict-HBW jobs only — the metric
    /// placement policies compete on.
    pub strict_p99: f64,
    /// Work-steal moves performed.
    pub steals: usize,
}

/// A [`NodeSim`] is a placement view through its broker.
impl PlacementView for NodeSim {
    fn can_take(&self, spec: &PipelineSpec, strict: bool) -> bool {
        self.can_ever_fit(spec, strict)
    }
    fn fits_now(&self, spec: &PipelineSpec, strict: bool) -> bool {
        NodeSim::fits_now(self, spec, strict)
    }
    fn hbw_headroom(&self) -> u64 {
        self.broker().hbw_headroom()
    }
    fn queued_strict_bytes(&self) -> u64 {
        self.broker().queued_strict_bytes()
    }
    fn reserved_mcdram(&self) -> u64 {
        self.broker().reserved_mcdram()
    }
    fn budget(&self) -> u64 {
        self.broker().budget()
    }
}

/// A stolen job in flight over the interconnect.
struct Migration {
    ready_at: f64,
    to: usize,
    job: JobRequest,
    strict: bool,
}

/// Seconds to move a stolen job's ring between nodes.
fn migration_cost(cluster: Option<&ClusterConfig>, spec: &PipelineSpec) -> f64 {
    match cluster {
        Some(c) => ring_footprint(spec) as f64 / c.link_bandwidth + c.link_latency,
        None => 0.0,
    }
}

/// Serve a fleet trace (any order; sorted internally by arrival).
pub fn fleet_serve(cfg: &FleetConfig, jobs: &[FleetJob]) -> Result<FleetOutcome, String> {
    cfg.validate()?;
    for j in jobs {
        j.req
            .spec
            .validate()
            .map_err(|e| format!("job {}: {e}", j.req.id))?;
        if !(j.req.arrival.is_finite() && j.req.arrival >= 0.0) {
            return Err(format!(
                "job {}: bad arrival time {}",
                j.req.id, j.req.arrival
            ));
        }
    }

    let mut nodes: Vec<NodeSim> = cfg
        .nodes
        .iter()
        .map(|n| NodeSim::new(n.serve_config(cfg.policy, cfg.retune, cfg.fair_aging)))
        .collect::<Result<_, _>>()?;

    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .req
            .arrival
            .total_cmp(&jobs[b].req.arrival)
            .then(jobs[a].req.id.cmp(&jobs[b].req.id))
    });

    let mut next_arrival = 0usize;
    let mut migrating: Vec<Migration> = Vec::new();
    let mut decisions: Vec<Decision> = Vec::new();
    let mut rejections: Vec<Rejection> = Vec::new();
    let mut steals = 0usize;
    let mut now = 0.0f64;

    loop {
        // 1. Arrivals due at or before `now`: place or reject.
        while next_arrival < order.len() && jobs[order[next_arrival]].req.arrival <= now + DONE_EPS
        {
            let j = &jobs[order[next_arrival]];
            next_arrival += 1;
            match place(&nodes, cfg.placement, &j.req.spec, j.strict) {
                Some(n) => {
                    decisions.push(Decision::Placed {
                        job: j.req.id,
                        node: n,
                    });
                    let ok = nodes[n].submit(j.req.clone(), j.strict);
                    debug_assert!(ok, "placement chose an infeasible node");
                }
                None => {
                    decisions.push(Decision::Rejected { job: j.req.id });
                    rejections.push(Rejection {
                        id: j.req.id,
                        reason: format!(
                            "buffer ring of {} B fits no node's budget",
                            ring_footprint(&j.req.spec)
                        ),
                    });
                }
            }
        }

        // 2. Migration deliveries (stable order: initiation order).
        let mut m = 0;
        while m < migrating.len() {
            if migrating[m].ready_at <= now + DONE_EPS {
                let mig = migrating.remove(m);
                let ok = nodes[mig.to].submit(mig.job, mig.strict);
                debug_assert!(ok, "steal chose an infeasible thief");
            } else {
                m += 1;
            }
        }

        // 3. Completions, freeing capacity before stealing and admission.
        for node in &mut nodes {
            node.complete_due(now)?;
        }

        // 4. Work stealing: each idle node may lift one queued job this
        // event, from the most backlogged donor queue, skipping the
        // donor's head (it is next in line there). The stolen job must
        // both be feasible on the thief and fit its capacity *right now*
        // — stealing into a wait would only reorder queues.
        if cfg.steal {
            for t in 0..nodes.len() {
                if nodes[t].queue_len() != 0 {
                    continue;
                }
                let mut donors: Vec<usize> = (0..nodes.len())
                    .filter(|&d| d != t && nodes[d].queue_len() >= 2)
                    .collect();
                donors.sort_by_key(|&d| (std::cmp::Reverse(nodes[d].queue_len()), d));
                'thief: for d in donors {
                    for pos in 1..nodes[d].queue_len() {
                        let (job, strict) = nodes[d].queued_at(pos);
                        if nodes[t].can_ever_fit(&job.spec, strict)
                            && nodes[t].fits_now(&job.spec, strict)
                        {
                            let (job, strict) = nodes[d].steal_at(pos);
                            decisions.push(Decision::Stolen {
                                job: job.id,
                                from: d,
                                to: t,
                            });
                            steals += 1;
                            let transfer = migration_cost(cfg.cluster.as_ref(), &job.spec);
                            if transfer <= 0.0 {
                                let ok = nodes[t].submit(job, strict);
                                debug_assert!(ok);
                            } else {
                                migrating.push(Migration {
                                    ready_at: now + transfer,
                                    to: t,
                                    job,
                                    strict,
                                });
                            }
                            break 'thief;
                        }
                    }
                }
            }
        }

        // 5. Admission per node, in node order.
        for (ni, node) in nodes.iter_mut().enumerate() {
            for adm in node.admit(now)? {
                decisions.push(Decision::Admitted {
                    job: adm.id,
                    node: ni,
                    level: adm.level,
                });
            }
        }

        // 6. Termination.
        if next_arrival >= order.len()
            && migrating.is_empty()
            && nodes.iter().all(|n| n.is_drained())
        {
            break;
        }

        // 7. Re-tune and re-arbitrate each node, then advance to the
        // earliest event anywhere in the fleet.
        for node in &mut nodes {
            node.retune_and_allocate()?;
        }
        let mut t_next = f64::INFINITY;
        for node in &nodes {
            t_next = t_next.min(node.next_completion(now));
        }
        if next_arrival < order.len() {
            t_next = t_next.min(jobs[order[next_arrival]].req.arrival);
        }
        for mig in &migrating {
            t_next = t_next.min(mig.ready_at);
        }
        if !t_next.is_finite() {
            let queued: usize = nodes.iter().map(|n| n.queue_len()).sum();
            let running: usize = nodes.iter().map(|n| n.running_len()).sum();
            return Err(format!(
                "fleet stuck at t={now}: {queued} queued, {running} running, nothing can progress"
            ));
        }
        for node in &mut nodes {
            node.advance(now, t_next);
        }
        now = t_next;
    }

    // Collect per-node and fleet-wide statistics.
    let mut per_node = Vec::with_capacity(nodes.len());
    let mut records: Vec<JobRecord> = Vec::new();
    let mut hwm_max = 0u64;
    for node in nodes {
        let hwm = node.broker().high_water();
        hwm_max = hwm_max.max(hwm);
        let mut recs = node.into_records();
        recs.sort_by_key(|r| r.id);
        per_node.push(FleetStats::from_records(&recs, 0, hwm));
        records.extend(recs);
    }
    records.sort_by_key(|r| r.id);
    let fleet = FleetStats::from_records(&records, rejections.len(), hwm_max);

    // Strict-HBW tail latency: the placement-policy scoreboard.
    let strict_ids: std::collections::HashSet<u64> =
        jobs.iter().filter(|j| j.strict).map(|j| j.req.id).collect();
    let mut strict_lat: Vec<f64> = records
        .iter()
        .filter(|r| strict_ids.contains(&r.id))
        .map(|r| r.latency())
        .collect();
    strict_lat.sort_by(f64::total_cmp);
    let strict_p99 = percentile(&strict_lat, 0.99);

    Ok(FleetOutcome {
        records,
        rejections,
        decisions,
        fleet,
        per_node,
        strict_p99,
        steals,
    })
}
