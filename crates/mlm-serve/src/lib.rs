//! # mlm-serve — multi-tenant job serving for MCDRAM-constrained nodes
//!
//! The paper sizes *one* chunked pipeline to *one* KNL node. A shared node
//! poses the follow-on question: given a stream of pipeline jobs whose
//! buffer rings all want the same 16 GB of MCDRAM, who runs when, and
//! where do their buffers live? This crate answers it for one node:
//!
//! * **Capacity broker** ([`broker`]) — admission control over
//!   [`mlm_memkind`] reservations. A job runs only once its ring of chunk
//!   buffers is reserved; strict mode queues (`HBW`), spill mode falls
//!   back to DDR (`HBW_PREFERRED`), and `reserved ≤ budget` holds at every
//!   instant by construction.
//! * **Node state machine** ([`node`]) — [`NodeSim`] owns one broker, one
//!   ready queue and one running set, and holds the only admission pass.
//!   Each running job's service time comes from the paper's §3.2 model
//!   re-tuned for its current thread budget ([`policy::profile`]), and
//!   co-resident jobs contend as flows in the same max–min-fair
//!   water-filling the op-level simulator uses. Policies: FIFO, SJF
//!   (model-predicted makespan), and weighted fair-share across deadline
//!   classes.
//! * **Op-level replay** ([`simx`]) — replays a realized schedule op-by-op
//!   in [`knl_sim`] (delay-gated, spliced programs; a single-job replay is
//!   bit-identical to running the pipeline directly).
//!
//! The drivers live in `mlm-fleet`: `fleet_serve` runs N nodes in virtual
//! time (single-node serving is a fleet of one), and `fleet_serve_host`
//! runs admitted jobs for real on the dataflow pipeline's stage pools.
//! Trace generation ([`trace`]) and fleet statistics ([`stats`]) round out
//! the loop that `mlm-bench --bin serve_study` sweeps.

mod admission;
pub mod broker;
pub mod job;
pub mod node;
pub mod policy;
pub mod simx;
pub mod stats;
pub mod trace;

pub use broker::{AdmitOutcome, CapacityBroker, RING_SLOTS};
pub use job::{DeadlineClass, JobId, JobRecord, JobRequest, Rejection, N_CLASSES};
pub use node::{Admission, NodeSim, ServeConfig, DONE_EPS};
pub use policy::{bus_demand, predicted_makespan, profile, JobProfile, Policy};
pub use simx::{co_schedule_program, replay, ScheduledJob, SimJobStats};
pub use stats::{percentile, FleetStats};
pub use trace::{heavy_tailed_trace, TraceConfig};
