//! Per-node serving state: one broker, one ready queue, one running set.
//!
//! [`NodeSim`] is the single-node state machine every serving driver runs.
//! `mlm-fleet`'s virtual-time dispatcher (`fleet_serve`) drives one per
//! node behind a placement layer, and single-node serving is simply a
//! fleet of one. The real-thread host dispatcher (`fleet_serve_host`)
//! uses the same nodes for placement and admission, so there is exactly
//! one admission pass ([`NodeSim::admit`]) in the workspace.
//!
//! The virtual-time driver contract, per event time `now` (in this order):
//!
//! 1. [`NodeSim::submit`] every due arrival (the driver owns arrival
//!    ordering and rejection records),
//! 2. [`NodeSim::complete_due`] finished jobs,
//! 3. [`NodeSim::admit`] under the node's policy,
//! 4. decide termination ([`NodeSim::is_drained`]),
//! 5. [`NodeSim::retune_and_allocate`] for the new co-residency degree,
//! 6. pick the next event time (≥ [`NodeSim::next_completion`]),
//! 7. [`NodeSim::advance`] to it.
//!
//! A wall-clock driver has no event times: it submits and admits at
//! `now = 0`, runs admitted jobs for real, and retires each one with
//! [`NodeSim::release`] when its worker reports completion.

use knl_sim::bandwidth::{allocate_rates, FlowSpec};
use knl_sim::machine::MachineConfig;
use knl_sim::MemLevel;
use mlm_core::Placement;
use mlm_memkind::Reservation;

use crate::admission::{charge_credit, select_candidate};
use crate::broker::{AdmitOutcome, CapacityBroker, RING_SLOTS};
use crate::job::{DeadlineClass, JobId, JobRecord, JobRequest, N_CLASSES};
use crate::policy::{predicted_makespan, profile, JobProfile, Policy};

/// Configuration for one serving node (built per node by `mlm-fleet`'s
/// `NodeConfig::serve_config`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The node being shared.
    pub machine: MachineConfig,
    /// Admission policy.
    pub policy: Policy,
    /// MCDRAM bytes the broker may hand out (clamped to addressable).
    pub mcdram_budget: u64,
    /// `HBW_PREFERRED` semantics: spill to DDR instead of queueing.
    pub spill: bool,
    /// Re-run the Eqs. 1–5 optimiser per job as co-residency changes.
    /// When off, jobs keep their submitted pool sizes.
    pub retune: bool,
    /// Fair-share starvation bound (seconds). A capacity-blocked job
    /// bypassed for longer than this gets an EASY-backfill reservation:
    /// the scheduler projects when completions will have freed enough
    /// MCDRAM for it, and only admits other jobs whose model-predicted
    /// makespan ends before that point (or that need no MCDRAM). Small
    /// jobs keep flowing through genuinely spare capacity, but can no
    /// longer fragment MCDRAM forever and starve big rings. `INFINITY`
    /// turns it off, and is the usual setting: the reservation costs
    /// throughput wherever it binds, so it is a worst-case-latency
    /// guarantee to opt into, not a tail-latency optimisation.
    pub fair_aging: f64,
}

/// Resource indices in the job-level bandwidth arbitration.
const DDR_BUS: usize = 0;
const MCD_BUS: usize = 1;

/// A job's remaining work is tracked as a fraction so the service time can
/// be re-derived whenever the thread budget changes mid-flight.
pub const DONE_EPS: f64 = 1e-9;

struct Running {
    idx: usize,
    start: f64,
    frac_left: f64,
    effective: Placement,
    reservation: Option<Reservation>,
    profile: JobProfile,
}

/// One admission decision: the job and where its buffers landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Admitted job.
    pub id: JobId,
    /// Memory level of the buffer reservation (`Ddr` for footprint-free
    /// jobs, which reserve nothing).
    pub level: MemLevel,
}

/// The serving state of one node.
pub struct NodeSim {
    cfg: ServeConfig,
    broker: CapacityBroker,
    caps: [f64; 2],
    total_threads: usize,
    // Jobs placed on this node, in placement order; parallel vectors.
    jobs: Vec<JobRequest>,
    est: Vec<f64>,
    ids: Vec<JobId>,
    classes: Vec<DeadlineClass>,
    spill_ok: Vec<bool>,
    ready: Vec<usize>, // placement order
    running: Vec<Running>,
    rates: Vec<f64>, // parallel to `running`, valid after retune_and_allocate
    credit: [f64; N_CLASSES],
    records: Vec<JobRecord>,
}

impl NodeSim {
    /// A node with an empty queue. `cfg.machine` must be valid.
    pub fn new(cfg: ServeConfig) -> Result<Self, String> {
        cfg.machine.validate().map_err(|e| e.to_string())?;
        let broker = CapacityBroker::new(&cfg.machine, cfg.mcdram_budget, cfg.spill);
        let caps = [
            cfg.machine.ddr_bandwidth,
            cfg.machine.effective_mcdram_bandwidth(),
        ];
        let total_threads = cfg.machine.total_threads();
        Ok(NodeSim {
            cfg,
            broker,
            caps,
            total_threads,
            jobs: Vec::new(),
            est: Vec::new(),
            ids: Vec::new(),
            classes: Vec::new(),
            spill_ok: Vec::new(),
            ready: Vec::new(),
            running: Vec::new(),
            rates: Vec::new(),
            credit: [0.0; N_CLASSES],
            records: Vec::new(),
        })
    }

    /// Queue `job` on this node. `strict` pins an HBW job to MCDRAM even
    /// on a spill-capable node (`HBW` vs `HBW_PREFERRED` semantics,
    /// decided per job by the fleet's placement layer; with `false` the
    /// node's own spill policy governs).
    ///
    /// Returns `false` — without queueing — when the job's ring can never
    /// fit this node, so the caller can reject or try another node.
    pub fn submit(&mut self, job: JobRequest, strict: bool) -> bool {
        let spill_ok = !strict;
        if !self.broker.can_ever_fit(&job.spec, spill_ok) {
            return false;
        }
        let idx = self.jobs.len();
        self.est
            .push(predicted_makespan(&job.spec, &self.cfg.machine));
        self.ids.push(job.id);
        self.classes.push(job.class);
        self.spill_ok.push(spill_ok);
        if strict {
            self.broker.note_strict_queued(strict_footprint(&job.spec));
        }
        self.jobs.push(job);
        self.ready.push(idx);
        true
    }

    /// Sweep completions: jobs whose remaining fraction reached zero
    /// return their reservation and produce a [`JobRecord`] at `now`.
    pub fn complete_due(&mut self, now: f64) -> Result<(), String> {
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].frac_left <= DONE_EPS {
                let r = self.running.swap_remove(i);
                if let Some(res) = &r.reservation {
                    self.broker.release(res).map_err(|e| e.to_string())?;
                }
                let job = &self.jobs[r.idx];
                self.records.push(JobRecord {
                    id: job.id,
                    class: job.class,
                    arrival: job.arrival,
                    start: r.start,
                    finish: now,
                    buffer_level: match &r.reservation {
                        Some(res) => res.level(),
                        None => MemLevel::Ddr,
                    },
                    split: r.profile.split,
                });
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// One admission pass: admit ready jobs in policy order until the
    /// broker reports `Busy` (FIFO/SJF stop at their head; fair-share
    /// skips the blocked class and keeps trying the others). Returns the
    /// admissions made, in order.
    pub fn admit(&mut self, now: f64) -> Result<Vec<Admission>, String> {
        let mut admitted = Vec::new();
        let mut blocked = [false; N_CLASSES];
        // EASY-backfill reservation for the first aged (long-bypassed) job
        // found this pass: the projected time its ring fits. Jobs admitted
        // after the reservation must be predicted to finish before it.
        let mut backfill_horizon: Option<f64> = None;
        loop {
            let pos = select_candidate(
                self.cfg.policy,
                &self.ready,
                &self.est,
                &self.ids,
                &self.classes,
                &self.credit,
                &blocked,
            );
            let Some(pos) = pos else { break };
            let idx = self.ready[pos];
            let job = &self.jobs[idx];
            let footprint = match job.spec.placement {
                Placement::Hbw => job.spec.buffer_footprint(RING_SLOTS),
                Placement::Ddr | Placement::Implicit => 0,
            };
            // A backfill candidate that needs MCDRAM must be predicted to
            // finish before the reserved job's projected start.
            if let Some(horizon) = backfill_horizon {
                if footprint > 0 && now + self.est[idx] > horizon {
                    blocked[job.class.index()] = true;
                    if blocked.iter().all(|&b| b) {
                        break;
                    }
                    continue;
                }
            }
            match self.broker.try_admit(&job.spec, self.spill_ok[idx])? {
                AdmitOutcome::Admitted(reservation) => {
                    self.ready.remove(pos);
                    if !self.spill_ok[idx] {
                        self.broker
                            .note_strict_dequeued(strict_footprint(&job.spec));
                    }
                    let effective = match &reservation {
                        Some(res) if res.level() == MemLevel::Ddr => Placement::Ddr,
                        _ => job.spec.placement,
                    };
                    // Placeholder profile; the driver's retune step
                    // recomputes it for the new co-residency degree
                    // before any time passes.
                    let prof = profile(
                        &job.spec,
                        effective,
                        &self.cfg.machine,
                        self.cfg.machine.total_threads(),
                        self.cfg.retune,
                    )?;
                    admitted.push(Admission {
                        id: job.id,
                        level: match &reservation {
                            Some(res) => res.level(),
                            None => MemLevel::Ddr,
                        },
                    });
                    self.running.push(Running {
                        idx,
                        start: now,
                        frac_left: 1.0,
                        effective,
                        reservation,
                        profile: prof,
                    });
                    charge_credit(
                        self.cfg.policy,
                        &mut self.credit,
                        self.classes[idx],
                        self.est[idx],
                    );
                }
                AdmitOutcome::Busy => match self.cfg.policy {
                    Policy::Fifo | Policy::Sjf => break,
                    Policy::FairShare => {
                        // Starvation aging: the first job bypassed past
                        // the bound gets an EASY-backfill reservation at
                        // its projected fit time, so backfilling can no
                        // longer postpone it forever.
                        if backfill_horizon.is_none() && now - job.arrival > self.cfg.fair_aging {
                            backfill_horizon = Some(self.fit_time(footprint, now));
                        }
                        blocked[job.class.index()] = true;
                        if blocked.iter().all(|&b| b) {
                            break;
                        }
                    }
                },
            }
        }
        Ok(admitted)
    }

    /// Optimistically project when `need` bytes of MCDRAM will be free,
    /// by walking running jobs' dedicated-speed remaining times in
    /// completion order. Contention only pushes real completions later,
    /// so a backfill window computed from this estimate errs in the
    /// reserved job's favour.
    fn fit_time(&self, need: u64, now: f64) -> f64 {
        let mut free = self
            .broker
            .budget()
            .saturating_sub(self.broker.reserved_mcdram());
        if free >= need {
            return now;
        }
        let mut finishes: Vec<(f64, u64)> = self
            .running
            .iter()
            .filter_map(|r| {
                let res = r.reservation.as_ref()?;
                (res.level() == MemLevel::Mcdram)
                    .then(|| (now + r.frac_left * r.profile.t0, res.bytes()))
            })
            .collect();
        finishes.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (t, bytes) in finishes {
            free = free.saturating_add(bytes);
            if free >= need {
                return t;
            }
        }
        f64::INFINITY
    }

    /// Retire running job `id` without a virtual-time completion: return
    /// its reservation and drop it from the running set, recording
    /// nothing. Wall-clock drivers call this when the job's worker
    /// reports that it finished.
    pub fn release(&mut self, id: JobId) -> Result<(), String> {
        let pos = self
            .running
            .iter()
            .position(|r| self.ids[r.idx] == id)
            .ok_or_else(|| format!("job {id} is not running on this node"))?;
        let r = self.running.swap_remove(pos);
        if let Some(res) = &r.reservation {
            self.broker.release(res)?;
        }
        Ok(())
    }

    /// Nothing queued and nothing running.
    pub fn is_drained(&self) -> bool {
        self.running.is_empty() && self.ready.is_empty()
    }

    /// Re-tune every running job for the current co-residency degree and
    /// recompute the max–min-fair bus rates. Must run after any change to
    /// the running set and before [`Self::next_completion`] /
    /// [`Self::advance`].
    pub fn retune_and_allocate(&mut self) -> Result<(), String> {
        let budget = (self.total_threads / self.running.len().max(1)).max(3);
        for r in &mut self.running {
            r.profile = profile(
                &self.jobs[r.idx].spec,
                r.effective,
                &self.cfg.machine,
                budget,
                self.cfg.retune,
            )?;
        }
        // Fair bus rates for the running set. Each job is a flow whose
        // unit is "dedicated-seconds per second" (cap 1.0) and whose bus
        // coefficients are bytes per dedicated-second.
        let flows: Vec<FlowSpec> = self
            .running
            .iter()
            .map(|r| {
                let mut demand = Vec::with_capacity(2);
                if r.profile.ddr_coeff > 0.0 {
                    demand.push((DDR_BUS, r.profile.ddr_coeff));
                }
                if r.profile.mcd_coeff > 0.0 {
                    demand.push((MCD_BUS, r.profile.mcd_coeff));
                }
                FlowSpec { demand, cap: 1.0 }
            })
            .collect();
        self.rates = allocate_rates(&self.caps, &flows);
        Ok(())
    }

    /// Absolute time of this node's earliest completion (`INFINITY` when
    /// nothing is running or nothing can progress).
    pub fn next_completion(&self, now: f64) -> f64 {
        let mut t_next = f64::INFINITY;
        for (r, &rate) in self.running.iter().zip(&self.rates) {
            if rate > 0.0 {
                t_next = t_next.min(now + r.frac_left * r.profile.t0 / rate);
            }
        }
        t_next
    }

    /// Progress every running job from `now` to `t_next` at its allocated
    /// rate.
    pub fn advance(&mut self, now: f64, t_next: f64) {
        let dt = (t_next - now).max(0.0);
        for (r, &rate) in self.running.iter_mut().zip(&self.rates) {
            r.frac_left = (r.frac_left - rate * dt / r.profile.t0).max(0.0);
        }
    }

    /// Number of jobs currently running.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Number of jobs waiting in the ready queue.
    pub fn queue_len(&self) -> usize {
        self.ready.len()
    }

    /// The queued job at queue position `pos` (with its strictness), for
    /// steal scans.
    pub fn queued_at(&self, pos: usize) -> (&JobRequest, bool) {
        let idx = self.ready[pos];
        (&self.jobs[idx], !self.spill_ok[idx])
    }

    /// Remove the queued job at queue position `pos` (work stealing).
    /// Strict-queue accounting is unwound; the job itself is returned so
    /// the thief can [`Self::submit`] it.
    pub fn steal_at(&mut self, pos: usize) -> (JobRequest, bool) {
        let idx = self.ready.remove(pos);
        let strict = !self.spill_ok[idx];
        let job = self.jobs[idx].clone();
        if strict {
            self.broker
                .note_strict_dequeued(strict_footprint(&job.spec));
        }
        (job, strict)
    }

    /// The node's capacity broker (headroom / backlog signals for
    /// placement and stealing).
    pub fn broker(&self) -> &CapacityBroker {
        &self.broker
    }

    /// Whether `spec` could ever fit this node, given per-job strictness.
    pub fn can_ever_fit(&self, spec: &mlm_core::PipelineSpec, strict: bool) -> bool {
        self.broker.can_ever_fit(spec, !strict)
    }

    /// Whether `spec` can start *right now*: strict rings need current
    /// MCDRAM headroom; preferred jobs on a spill node can always fall
    /// back to DDR.
    pub fn fits_now(&self, spec: &mlm_core::PipelineSpec, strict: bool) -> bool {
        let footprint = match spec.placement {
            Placement::Hbw => spec.buffer_footprint(RING_SLOTS),
            Placement::Ddr | Placement::Implicit => 0,
        };
        if footprint == 0 {
            return true;
        }
        footprint <= self.broker.hbw_headroom() || (!strict && self.cfg.spill)
    }

    /// The node's serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Consume the node, yielding its completion records (unsorted).
    pub fn into_records(self) -> Vec<JobRecord> {
        self.records
    }
}

/// MCDRAM bytes a strict-HBW job's queued ring pins for backlog
/// accounting (zero for DDR/implicit jobs, which never wait on MCDRAM).
fn strict_footprint(spec: &mlm_core::PipelineSpec) -> u64 {
    match spec.placement {
        Placement::Hbw => spec.buffer_footprint(RING_SLOTS),
        Placement::Ddr | Placement::Implicit => 0,
    }
}
