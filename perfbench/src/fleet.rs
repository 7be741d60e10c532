//! `fleet-least-loaded` and `fleet-first-fit`: `mlm_fleet::fleet_serve`
//! over seeded 16-node mixed 8/16 GiB fleet traces (FIFO queues, stealing
//! over Omni-Path), the fleet study's configuration at a per-pass size.
//! A pass prices [`TRACES`] independently seeded traces, so that one
//! trace's queue dynamics do not set a run's figures.

use knl_sim::machine::{MachineConfig, MemMode};
use mlm_bench::fleet::{fleet_config, fleet_trace_config};
use mlm_fleet::{
    decision_digest, fleet_serve, fleet_trace, place, FleetConfig, FleetJob, PlacementPolicy,
};
use mlm_serve::{profile, JobRecord, NodeSim, Policy};

use crate::tracing::Tracer;
use crate::{Figure, Pass, Size, Workload, DEFAULT_SEED};

/// Fleet size.
pub const NODES: usize = 16;

/// Traces per pass; trace `k` of seed `s` is generated from `TRACES * s + k`.
const TRACES: u64 = 2;

/// Trace jobs that the place/retune/profile probes replay.
const PROBE_JOBS: usize = 1024;

/// Retune calls per node in the retune probe.
const RETUNES: usize = 8;

/// Jobs per node-stream of each trace at full size. Least-loaded's cost
/// is dominated by retune and grows linearly with the trace; first-fit's
/// steal scans grow faster, so its traces are shorter.
fn jobs_per_node(placement: PlacementPolicy, size: Size) -> usize {
    match (placement, size) {
        (_, Size::Tiny) => 20,
        (PlacementPolicy::FirstFit, Size::Full) => 500,
        (_, Size::Full) => 1000,
    }
}

/// `decision_digest` of each full-size trace at [`DEFAULT_SEED`].
fn recorded_digests(placement: PlacementPolicy) -> [u64; TRACES as usize] {
    match placement {
        PlacementPolicy::FirstFit => [0x994c_0cc3_f4a1_8ba6, 0x0b7f_a90c_fd82_9b0a],
        _ => [0xbac8_80e8_6359_fe15, 0xd437_2a47_4039_3f93],
    }
}

/// A fleet workload with its traces.
pub struct Fleet {
    cfg: FleetConfig,
    traces: Vec<Vec<FleetJob>>,
    /// The digest each trace's outcome must reproduce: the recorded one on
    /// the default seed at full size, else the first pass's.
    digests: Vec<Option<u64>>,
}

impl Fleet {
    pub fn new(placement: PlacementPolicy, seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let traces = (0..TRACES)
            .map(|k| {
                let mut tcfg = fleet_trace_config(NODES, jobs_per_node(placement, size));
                tcfg.base.seed = seed.wrapping_mul(TRACES).wrapping_add(k);
                tr.span("mlm-fleet", "fleet_trace", || fleet_trace(&tcfg))
            })
            .collect();
        let recorded = seed == DEFAULT_SEED && size == Size::Full;
        Fleet {
            cfg: fleet_config(NODES, placement, Policy::Fifo),
            traces,
            digests: recorded_digests(placement)
                .map(|d| recorded.then_some(d))
                .to_vec(),
        }
    }
}

/// The fleet gate: every job completed or was rejected, each record's
/// times are ordered, and the decisions reproduce `expect`.
pub fn check_outcome(
    jobs: usize,
    records: &[JobRecord],
    rejected: usize,
    digest: u64,
    expect: Option<u64>,
) -> Result<(), String> {
    if records.len() + rejected != jobs {
        return Err(format!(
            "{} records + {rejected} rejected != {jobs} jobs",
            records.len()
        ));
    }
    if let Some(r) = records
        .iter()
        .find(|r| !(r.arrival <= r.start && r.start <= r.finish && r.finish.is_finite()))
    {
        return Err(format!(
            "job {} has arrival {} start {} finish {}",
            r.id, r.arrival, r.start, r.finish
        ));
    }
    match expect {
        Some(e) if e != digest => Err(format!("decision digest {digest:#x}, expected {e:#x}")),
        _ => Ok(()),
    }
}

impl Workload for Fleet {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut strict_p99 = 0.0;
        for (trace, expect) in self.traces.iter().zip(&mut self.digests) {
            let jobs = trace.len() as u64;
            pass.jobs += jobs;
            let cfg = &self.cfg;
            let out = match pass
                .timed(|| tr.span("mlm-fleet", "fleet_serve", || fleet_serve(cfg, trace)))
            {
                Ok(out) => out,
                Err(e) => {
                    pass.check(&format!("fleet_serve: {e}"), false);
                    continue;
                }
            };
            let digest = decision_digest(&out.decisions, NODES);
            let gate = check_outcome(
                trace.len(),
                &out.records,
                out.rejections.len(),
                digest,
                *expect,
            );
            pass.check(
                &format!("fleet outcome: {:?}", gate.as_ref().err()),
                gate.is_ok(),
            );
            pass.check(
                &format!("{} jobs rejected", out.rejections.len()),
                out.rejections.is_empty(),
            );
            expect.get_or_insert(digest);
            tr.count(
                "mlm-fleet.steals_per_job",
                out.steals as f64 / jobs as f64 / TRACES as f64,
            );
            tr.count("mlm-fleet.decisions", out.decisions.len() as f64);
            tr.count(
                "mlm-serve.mean_queue_wait_s",
                out.fleet.mean_queue_wait / TRACES as f64,
            );
            strict_p99 += out.strict_p99 / TRACES as f64;
        }
        pass.figures.push(Figure {
            name: "strict_p99_s",
            unit: "s (simulated, mean over traces)",
            value: strict_p99,
            per_wall_s: false,
        });
        pass
    }

    /// Load a fresh 16-node fleet with the head of the trace through
    /// `place`, `submit` and `admit`, then time `retune_and_allocate` on
    /// every node and `profile` over the same job specs.
    fn probe(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let cfg = &self.cfg;
        let mut nodes: Vec<NodeSim> = cfg
            .nodes
            .iter()
            .map(|n| {
                NodeSim::new(n.serve_config(cfg.policy, cfg.retune, cfg.fair_aging))
                    .expect("valid node")
            })
            .collect();
        let head = &self.traces[0][..self.traces[0].len().min(PROBE_JOBS)];
        for batch in head.chunks(NODES) {
            for j in batch {
                match tr.span("mlm-fleet", "place", || {
                    place(&nodes, cfg.placement, &j.req.spec, j.strict)
                }) {
                    Some(n) => pass.check(
                        "submit to the placed node",
                        nodes[n].submit(j.req.clone(), j.strict),
                    ),
                    None => pass.check(&format!("job {} placed", j.req.id), false),
                }
            }
            for node in &mut nodes {
                pass.check("admit", node.admit(0.0).is_ok());
            }
        }
        for node in &mut nodes {
            for _ in 0..RETUNES {
                let r = tr.span("mlm-serve", "retune_and_allocate", || {
                    node.retune_and_allocate()
                });
                pass.check("retune_and_allocate", r.is_ok());
            }
        }
        let machine = MachineConfig::knl_7250(MemMode::Flat);
        for j in head {
            let p = tr.span("mlm-serve", "profile", || {
                profile(
                    &j.req.spec,
                    j.req.spec.placement,
                    &machine,
                    machine.total_threads(),
                    true,
                )
            });
            pass.check("profile", p.is_ok());
        }
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_outcome() -> (usize, Vec<JobRecord>, usize, u64) {
        let mut tr = Tracer::off();
        let f = Fleet::new(PlacementPolicy::LeastLoaded, 3, Size::Tiny, &mut tr);
        let out = fleet_serve(&f.cfg, &f.traces[0]).unwrap();
        let digest = decision_digest(&out.decisions, NODES);
        (f.traces[0].len(), out.records, out.rejections.len(), digest)
    }

    #[test]
    fn gate_passes_a_true_outcome() {
        let (jobs, records, rejected, digest) = tiny_outcome();
        assert_eq!(
            check_outcome(jobs, &records, rejected, digest, Some(digest)),
            Ok(())
        );
    }

    #[test]
    fn gate_trips_on_a_wrong_digest() {
        let (jobs, records, rejected, digest) = tiny_outcome();
        assert!(check_outcome(jobs, &records, rejected, digest, Some(digest ^ 1)).is_err());
    }

    #[test]
    fn gate_trips_on_a_lost_job() {
        let (jobs, mut records, rejected, digest) = tiny_outcome();
        records.pop();
        assert!(check_outcome(jobs, &records, rejected, digest, None).is_err());
    }

    #[test]
    fn gate_trips_on_a_job_finishing_before_it_starts() {
        let (jobs, mut records, rejected, digest) = tiny_outcome();
        records[0].finish = records[0].start - 1.0;
        assert!(check_outcome(jobs, &records, rejected, digest, None).is_err());
    }
}
