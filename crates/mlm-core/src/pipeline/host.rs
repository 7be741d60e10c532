//! Host backends: executing the chunk schedule with real threads and
//! real buffers.
//!
//! This side validates the *software* half of the paper: the triple
//! thread-pool, triple-buffer schedule must produce bit-correct results
//! under full overlap. Host memory has a single level, so wall-clock here
//! is not the experiment (that is the simulator's job) — correctness and
//! native benchmarking are.
//!
//! The schedule itself — which chunk each stage touches when, and which
//! buffer slot it occupies — is owned by [`mlm_exec::drive`]. This module
//! only interprets the issued [`ChunkAction`]s, with two backends:
//!
//! * **The step executor** ([`HostStepBackend`]) runs batches of actions,
//!   each as one `scoped` call on a single shared [`WorkPool`]. With
//!   `spec.lockstep` a batch is one plan step, run when the orchestrator
//!   closes the step barrier — the paper's schedule, whose makespan the
//!   model's `max(T_copy, T_comp)` term describes. Without it every action
//!   runs eagerly as it is issued: issue order is a topological order of
//!   the plan's dependency edges, so outputs are bit-identical across
//!   schedules by construction (overlap timing is the simulator's
//!   experiment, not the host's). The spec says everything else:
//!   [`Placement::Implicit`] computes in place on `out` and stages
//!   nothing; [`PipelineSpec::ring_slots`] sets the ring depth (three for
//!   map kernels, four for stencils); and [`PipelineSpec::buffers_per_slot`]
//!   of one computes in place on the staged buffer, while two write a
//!   separate output buffer, so the halo bytes a neighbouring stencil
//!   compute still reads stay intact.
//! * **Dataflow replay** ([`HostDataflowBackend`], map kernels with
//!   `lockstep: false`): actions are recorded per stage and replayed at
//!   `finish` by three persistent stage pools ([`HostStagePools`]) running
//!   decoupled coordinator threads connected by a three-slot buffer ring.
//!   A stage advances as soon as *its* buffer dependency is satisfied
//!   (`Empty → Filled → Computed → Empty`), so a slow chunk in one stage
//!   no longer stalls unrelated work in the others — realising exactly
//!   the dependency edges [`mlm_exec::drive`] issues (and
//!   [`super::sim::SimBackend`] lowers) for non-lockstep runs.

use std::any::Any;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mlm_exec::ring::{coordinate, is_poison_payload, BufSlot, Phase};
use mlm_exec::{drive, Backend, Capabilities, ChunkAction, Stage, RING_SLOTS};
use parsort::pool::{copy_split, split_range, StagePool, WorkPool};

use super::{PipelineSpec, Placement, Workload};

pub use mlm_exec::KernelCtx;

/// Per-stage timing of one host pipeline run (the execution layer's
/// [`mlm_exec::StageReport`]).
pub type StageStats = mlm_exec::StageReport;

/// Result of a host pipeline run (the execution layer's
/// [`mlm_exec::RunReport`]).
pub type HostRunStats = mlm_exec::RunReport;

/// The three dedicated stage pools of a dataflow host pipeline.
///
/// Creating the pools spawns `p_in + p_comp + p_out` OS threads, so
/// benchmarks and long-lived callers should build one `HostStagePools` and
/// reuse it across [`run_host_pipeline_dataflow`] calls; each run resets
/// the busy counters itself.
pub struct HostStagePools {
    /// Pool executing copy-in tasks.
    pub copy_in: StagePool,
    /// Pool executing compute (kernel) tasks.
    pub compute: StagePool,
    /// Pool executing copy-out tasks.
    pub copy_out: StagePool,
}

impl HostStagePools {
    /// Spawn the three stage pools.
    pub fn new(p_in: usize, p_comp: usize, p_out: usize) -> Self {
        HostStagePools {
            copy_in: StagePool::new(p_in),
            compute: StagePool::new(p_comp),
            copy_out: StagePool::new(p_out),
        }
    }

    /// Spawn pools sized to `spec`'s `p_in`/`p_comp`/`p_out`.
    pub fn for_spec(spec: &PipelineSpec) -> Self {
        HostStagePools::new(spec.p_in.max(1), spec.p_comp.max(1), spec.p_out.max(1))
    }

    /// Zero all three busy counters.
    pub fn reset(&self) {
        self.copy_in.reset_busy();
        self.compute.reset_busy();
        self.copy_out.reset_busy();
    }
}

/// Stream `data` through the chunked pipeline, applying `kernel` to each
/// compute thread's slice of each chunk, writing results to `out`.
///
/// `kernel(slice, ctx)` must be a pure per-slice transformation — exactly
/// the shape of the paper's merge benchmark and of MLM-sort's serial sort
/// phase. Buffers are rotated so copy-in, compute, and copy-out of three
/// consecutive chunks overlap; with `spec.placement == Implicit` the kernel
/// runs in place on `out` (which is first filled from `data`).
///
/// `spec.lockstep` selects the schedule: `true` runs the paper's lockstep
/// steps on the shared `pool`; `false` runs the dataflow schedule on three
/// freshly spawned stage pools (`pool` is not used — callers that run
/// dataflow repeatedly should call [`run_host_pipeline_dataflow`] with
/// persistent [`HostStagePools`] instead). [`Placement::Implicit`] has no
/// copy stages, so both settings execute identically there.
///
/// `spec` fields `compute_rate`/`copy_rate`/`data_addr` are ignored on the
/// host; pool sizes and chunk geometry are honoured. Element counts are
/// derived from `data.len()`, not `spec.total_bytes`.
///
/// # Panics
/// Panics if `out.len() != data.len()`, the spec fails validation, or
/// `spec.chunk_bytes` is not a positive multiple of `size_of::<T>()`
/// (see [`PipelineSpec::validate_elem_size`]).
pub fn run_host_pipeline<T, F>(
    pool: &WorkPool,
    spec: &PipelineSpec,
    data: &[T],
    out: &mut [T],
    kernel: F,
) -> HostRunStats
where
    T: Copy + Send + Sync,
    F: Fn(&mut [T], KernelCtx) + Send + Sync,
{
    let Some(run) = HostRun::new(spec, data, out) else {
        return HostRunStats::empty();
    };
    assert_eq!(
        spec.workload,
        Workload::Map,
        "stencil workloads carry halo reads the map kernel shape cannot \
         express; use run_host_stencil"
    );
    if spec.placement != Placement::Implicit && !spec.lockstep {
        let pools = HostStagePools::for_spec(spec);
        return run_host_pipeline_dataflow(&pools, spec, data, out, kernel);
    }
    run_steps(pool, &run, data, out, 0, |_view, buf, ctx| kernel(buf, ctx))
}

/// What every host entry point derives from its arguments before driving
/// the schedule.
struct HostRun {
    start: Instant,
    /// The caller's spec with `total_bytes` pinned to the slice actually
    /// being processed, so [`PipelineSpec::n_chunks`] agrees with the
    /// host-side element geometry. (Host runs size themselves from
    /// `data.len()`; `spec.total_bytes` is the *modeled* problem size and
    /// may legitimately differ.)
    espec: PipelineSpec,
    /// Elements per chunk. Exact by construction:
    /// [`PipelineSpec::validate_elem_size`] has already rejected specs
    /// whose `chunk_bytes` is not a multiple of the element size, so host
    /// chunk boundaries coincide with the spec's (and the simulator's)
    /// byte boundaries.
    chunk_elems: usize,
    n_chunks: usize,
}

impl HostRun {
    /// The checks every entry point shares; `None` for an empty input,
    /// which runs nothing.
    ///
    /// # Panics
    /// Panics if `out.len() != data.len()`, the spec fails validation, or
    /// the chunk geometry is not a whole number of `T` elements.
    fn new<T>(spec: &PipelineSpec, data: &[T], out: &[T]) -> Option<HostRun> {
        assert_eq!(out.len(), data.len(), "out must match data length");
        if data.is_empty() {
            return None;
        }
        let start = Instant::now();
        spec.validate().expect("invalid pipeline spec");
        let elem = std::mem::size_of::<T>();
        spec.validate_elem_size(elem)
            .expect("invalid chunk geometry");
        let chunk_elems = spec.chunk_bytes as usize / elem.max(1);
        Some(HostRun {
            start,
            espec: PipelineSpec {
                total_bytes: std::mem::size_of_val(data) as u64,
                ..spec.clone()
            },
            chunk_elems,
            n_chunks: data.len().div_ceil(chunk_elems).max(1),
        })
    }

    /// The report of the finished run. Implicit runs take one step per
    /// chunk; staged runs take `ring_slots() - 1` more to drain the ring.
    fn stats(
        &self,
        copy_in: StageStats,
        compute: StageStats,
        copy_out: StageStats,
    ) -> HostRunStats {
        let steps = match self.espec.placement {
            Placement::Implicit => self.n_chunks,
            _ => self.n_chunks + self.espec.ring_slots() - 1,
        };
        HostRunStats {
            chunks: self.n_chunks,
            steps,
            elapsed: self.start.elapsed(),
            copy_in,
            compute,
            copy_out,
        }
    }
}

// ---------------------------------------------------------------------------
// Step executor
// ---------------------------------------------------------------------------

/// Backend that runs each batch of issued actions as one `scoped` call on
/// the shared pool: a whole step under lockstep (copy-in chunk `s`,
/// compute and copy-out of earlier chunks genuinely overlap; the pool's
/// own join is the step barrier), a single action at issue otherwise.
///
/// Mutably touched buffers (the copy-in destination, the compute target,
/// the copy-out source) are taken out of their rings for the duration of
/// a batch, so stencil computes can borrow the ring of staged inputs
/// shared. The plan guarantees the taken slots are disjoint from the
/// slots the same step reads: on the four-slot stencil ring, step `s`
/// fills slot `s % 4` while compute on `s - 2` reads slots `(s - 3) % 4`,
/// `(s - 2) % 4`, and `(s - 1) % 4`.
struct HostStepBackend<'a, T, K> {
    pool: &'a WorkPool,
    data: &'a [T],
    out: &'a mut [T],
    kernel: &'a K,
    chunk_elems: usize,
    halo_elems: usize,
    n_chunks: usize,
    /// Staged input chunks, indexed by [`ChunkAction::slot`]. Map kernels
    /// compute in place here.
    in_bufs: Vec<Vec<T>>,
    /// Computed output chunks, same indexing; used only by specs with two
    /// buffers per slot.
    out_bufs: Vec<Vec<T>>,
    /// Actions issued since the last step barrier (lockstep only).
    pending: Vec<ChunkAction>,
    /// Busy nanoseconds of copy-in, compute and copy-out.
    busy: [AtomicU64; 3],
}

impl<T, K> HostStepBackend<'_, T, K>
where
    T: Copy + Send + Sync,
    K: Fn(StencilView<'_, T>, &mut [T], KernelCtx) + Send + Sync,
{
    /// The ring holding `stage`'s buffer: copy-in fills the staged ring;
    /// compute writes, and copy-out reads, the output ring when the spec
    /// splits each slot into two buffers and the staged ring otherwise.
    fn ring(&mut self, stage: Stage, split: bool) -> &mut [Vec<T>] {
        if split && stage != Stage::CopyIn {
            &mut self.out_bufs
        } else {
            &mut self.in_bufs
        }
    }

    fn run_batch(&mut self, spec: &PipelineSpec, actions: &[ChunkAction]) {
        if actions.is_empty() {
            return;
        }
        let implicit = spec.placement == Placement::Implicit;
        let split = spec.buffers_per_slot() > 1;
        let fill = self.data[0];
        let chunk_elems = self.chunk_elems;
        let data_len = self.data.len();
        let range = |c: usize| (c * chunk_elems, ((c + 1) * chunk_elems).min(data_len));

        // Take each action's buffer out of its ring, indexed by stage.
        // Implicit placement stages nothing: compute writes `out` itself.
        let mut taken: [Option<Vec<T>>; 3] = Default::default();
        for a in actions.iter().filter(|_| !implicit) {
            let mut buf = std::mem::take(&mut self.ring(a.stage, split)[a.slot]);
            if a.stage == Stage::CopyIn || (a.stage == Stage::Compute && split) {
                let (lo, hi) = range(a.chunk);
                buf.clear();
                buf.resize(hi - lo, fill);
            }
            let prev = taken[a.stage as usize].replace(buf);
            assert!(prev.is_none(), "one {:?} per batch", a.stage);
        }

        // The window of `out` this batch writes (the copy-out destination,
        // or the implicit compute target), carved up front.
        let mut out_win: Option<&mut [T]> = actions
            .iter()
            .find(|a| implicit || a.stage == Stage::CopyOut)
            .map(|a| {
                let (lo, hi) = range(a.chunk);
                &mut self.out[lo..hi]
            });

        let in_bufs = &self.in_bufs;
        let [busy_in, busy_comp, busy_out] = &self.busy;
        let [in_dst, comp_dst, out_src] = &mut taken;
        // Single-use handles on the taken buffers, so the task loop below
        // borrows each exactly once.
        let mut in_dst = in_dst.as_deref_mut();
        let mut comp_dst = comp_dst.as_deref_mut();
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for a in actions {
            let (lo, hi) = range(a.chunk);
            match a.stage {
                Stage::CopyIn => {
                    let dst = in_dst.take().expect("taken above");
                    push_timed_copy(&mut tasks, busy_in, spec.p_in, &self.data[lo..hi], dst);
                }
                Stage::Compute => {
                    let dst = if implicit {
                        out_win.take()
                    } else {
                        comp_dst.take()
                    };
                    let (left, mid, right) = if split {
                        staged_view(in_bufs, a.chunk, self.halo_elems, self.n_chunks)
                    } else {
                        (&[][..], &[][..], &[][..])
                    };
                    debug_assert!(!split || mid.len() == hi - lo, "stale staged input");
                    let kernel = self.kernel;
                    push_compute(
                        &mut tasks,
                        Some(busy_comp),
                        spec.p_comp,
                        a.chunk,
                        lo,
                        dst.expect("taken above"),
                        move |slice, ctx| kernel(StencilView { left, mid, right }, slice, ctx),
                    );
                }
                Stage::CopyOut => {
                    let src = out_src.as_deref().expect("taken above");
                    let dst = out_win.take().expect("one copy-out per batch");
                    push_timed_copy(&mut tasks, busy_out, spec.p_out, src, dst);
                }
            }
        }

        self.pool.scoped(tasks);

        // Return the taken buffers to their ring slots.
        for a in actions {
            if let Some(buf) = taken[a.stage as usize].take() {
                self.ring(a.stage, split)[a.slot] = buf;
            }
        }
    }
}

impl<T, K> Backend for HostStepBackend<'_, T, K>
where
    T: Copy + Send + Sync,
    K: Fn(StencilView<'_, T>, &mut [T], KernelCtx) + Send + Sync,
{
    // Ordering is realised structurally: lockstep by step batching (every
    // batch starts after the previous pool join), eager execution by
    // running in issue order (a topological order of the plan's edges), so
    // tokens carry no information.
    type Token = ();

    fn capabilities(&self) -> Capabilities {
        // Host memory has a single level, so every placement is *emulated*
        // identically; capability checking against a machine's mode is the
        // spec linter's job (mlm-verify V003/V010), not the host's.
        Capabilities::all()
    }

    fn issue(&mut self, spec: &PipelineSpec, action: ChunkAction, _deps: &[()]) {
        if spec.lockstep {
            self.pending.push(action);
        } else {
            self.run_batch(spec, &[action]);
        }
    }

    fn step_barrier(&mut self, spec: &PipelineSpec, _after: &[()]) {
        let actions = std::mem::take(&mut self.pending);
        self.run_batch(spec, &actions);
    }
}

/// The staged neighbourhood of chunk `c`: the last `halo` elements of
/// chunk `c - 1`, chunk `c` itself, and the first up-to-`halo` elements of
/// chunk `c + 1`, each empty past the grid boundary.
fn staged_view<T>(
    in_bufs: &[Vec<T>],
    c: usize,
    halo: usize,
    n_chunks: usize,
) -> (&[T], &[T], &[T]) {
    let ring = in_bufs.len();
    let left: &[T] = if c > 0 {
        let prev = &in_bufs[(c - 1) % ring];
        &prev[prev.len() - halo.min(prev.len())..]
    } else {
        &[]
    };
    let right: &[T] = if c + 1 < n_chunks {
        let next = &in_bufs[(c + 1) % ring];
        &next[..halo.min(next.len())]
    } else {
        &[]
    };
    (left, &in_bufs[c % ring], right)
}

/// Drive `run`'s spec over the step executor and report the run.
/// Implicit placement first fills `out` from `data` (the data already
/// lives where it is computed on) and stages nothing.
fn run_steps<T, K>(
    pool: &WorkPool,
    run: &HostRun,
    data: &[T],
    out: &mut [T],
    halo_elems: usize,
    kernel: K,
) -> HostRunStats
where
    T: Copy + Send + Sync,
    K: Fn(StencilView<'_, T>, &mut [T], KernelCtx) + Send + Sync,
{
    let spec = &run.espec;
    let implicit = spec.placement == Placement::Implicit;
    if implicit {
        out.copy_from_slice(data);
    }
    let ring = spec.ring_slots();
    let mut backend = HostStepBackend {
        pool,
        data,
        out,
        kernel: &kernel,
        chunk_elems: run.chunk_elems,
        halo_elems,
        n_chunks: run.n_chunks,
        in_bufs: (0..ring).map(|_| Vec::new()).collect(),
        out_bufs: (0..ring).map(|_| Vec::new()).collect(),
        pending: Vec::new(),
        busy: Default::default(),
    };
    drive(&mut backend, spec).expect("host step executor refused the schedule");

    // No coordinator waits: blocking happens inside the shared pool's join.
    let stage = |threads, busy: &AtomicU64| StageStats {
        threads,
        busy: Duration::from_nanos(busy.load(Ordering::Relaxed)),
        wait: Duration::ZERO,
    };
    // Implicit placement has no copy stages.
    let copy = |threads, busy| {
        if implicit {
            StageStats::default()
        } else {
            stage(threads, busy)
        }
    };
    let [busy_in, busy_comp, busy_out] = &backend.busy;
    run.stats(
        copy(spec.p_in, busy_in),
        stage(spec.p_comp, busy_comp),
        copy(spec.p_out, busy_out),
    )
}

// ---------------------------------------------------------------------------
// Dataflow schedule
// ---------------------------------------------------------------------------
//
// The three-slot phase machine (`BufSlot`, `Phase`) and the coordinator
// panic harness (`coordinate`, poisoning) live in `mlm_exec::ring`; this
// backend only supplies the stage bodies that interpret the schedule.

/// Backend for the dataflow (non-lockstep) schedule: issued actions are
/// recorded per stage, and `finish` replays the recorded schedule on
/// three persistent stage pools with coordinator threads synchronizing
/// only through the buffer ring — the execution-time realisation of the
/// dataflow dependency edges the orchestrator issues (compute after its
/// chunk's copy-in, copy-out after its compute, copy-in of chunk `c`
/// after copy-out of `c - RING_SLOTS` recycles the slot).
struct HostDataflowBackend<'a, T, F> {
    pools: &'a HostStagePools,
    data: &'a [T],
    /// Taken (and fully written) by `finish`.
    out: Option<&'a mut [T]>,
    kernel: &'a F,
    chunk_elems: usize,
    /// Recorded actions per stage (copy-in, compute, copy-out), in issue
    /// order.
    schedule: [Vec<ChunkAction>; 3],
    /// Per-coordinator blocked time, filled in by `finish`.
    waits: [Duration; 3],
}

impl<T, F> Backend for HostDataflowBackend<'_, T, F>
where
    T: Copy + Send + Sync,
    F: Fn(&mut [T], KernelCtx) + Send + Sync,
{
    // Dependencies are realised structurally by the buffer ring at replay
    // time, so tokens carry no information.
    type Token = ();

    fn capabilities(&self) -> Capabilities {
        Capabilities::all()
    }

    fn issue(&mut self, _spec: &PipelineSpec, action: ChunkAction, _deps: &[()]) {
        self.schedule[action.stage as usize].push(action);
    }

    fn step_barrier(&mut self, _spec: &PipelineSpec, _after: &[()]) {
        unreachable!("the orchestrator issues no step barriers without lockstep");
    }

    /// Replay the recorded schedule: three coordinator threads — one per
    /// stage — walk their recorded action sequences independently,
    /// synchronizing only through the three-slot buffer ring. Each
    /// coordinator fans its chunk's work out to its own [`StagePool`], so
    /// copy-in of chunk `c`, compute on `c - 1`, and copy-out of `c - 2`
    /// genuinely overlap without any step barrier between them.
    fn finish(&mut self, spec: &PipelineSpec) -> Result<(), String> {
        let out = self.out.take().expect("finish runs once");
        let data = self.data;
        let kernel = self.kernel;
        let pools = self.pools;
        let chunk_elems = self.chunk_elems;
        let [in_actions, comp_actions, out_actions] = &self.schedule;

        let slots: Vec<BufSlot<T>> = (0..RING_SLOTS).map(BufSlot::new).collect();
        let poisoned = AtomicBool::new(false);
        let out_chunks: Vec<&mut [T]> = out.chunks_mut(chunk_elems).collect();
        debug_assert_eq!(out_chunks.len(), out_actions.len());
        let slots = &slots;
        let poisoned = &poisoned;
        let fill = data[0];

        let copy_in_body = move || {
            let mut waited = Duration::ZERO;
            for a in in_actions {
                let slot = &slots[a.slot];
                waited += slot.await_phase(Phase::Empty, a.chunk, poisoned);
                let lo = a.chunk * chunk_elems;
                let hi = ((a.chunk + 1) * chunk_elems).min(data.len());
                let src = &data[lo..hi];
                // SAFETY: `Empty(c)` grants this coordinator exclusive
                // ownership of the slot's buffer until it publishes `Filled`.
                let buf = unsafe { slot.data_mut() };
                buf.clear();
                buf.resize(src.len(), fill);
                copy_split(&pools.copy_in, spec.p_in, src, buf);
                slot.publish(Phase::Filled, a.chunk);
            }
            waited
        };

        let compute_body = move || {
            let mut waited = Duration::ZERO;
            for a in comp_actions {
                let slot = &slots[a.slot];
                waited += slot.await_phase(Phase::Filled, a.chunk, poisoned);
                // SAFETY: `Filled(c)` hands the buffer to the compute stage.
                let buf = unsafe { slot.data_mut() };
                // The stage pool accounts busy time itself.
                let mut tasks = Vec::new();
                let lo = a.chunk * chunk_elems;
                push_compute(&mut tasks, None, spec.p_comp, a.chunk, lo, buf, kernel);
                pools.compute.scoped(tasks);
                slot.publish(Phase::Computed, a.chunk);
            }
            waited
        };

        let copy_out_body = move || {
            let mut waited = Duration::ZERO;
            for (a, dst) in out_actions.iter().zip(out_chunks) {
                let slot = &slots[a.slot];
                waited += slot.await_phase(Phase::Computed, a.chunk, poisoned);
                // SAFETY: `Computed(c)` hands the buffer to the copy-out
                // stage; `dst` is this chunk's pre-split disjoint window of
                // `out`, owned by this coordinator.
                let buf = unsafe { slot.data_ref() };
                debug_assert_eq!(buf.len(), dst.len());
                copy_split(&pools.copy_out, spec.p_out, buf, dst);
                // Recycle the slot for copy-in of chunk c + RING_SLOTS.
                slot.publish(Phase::Empty, a.chunk + RING_SLOTS);
            }
            waited
        };

        let (r_in, r_comp, r_out) = std::thread::scope(|sc| {
            let h_in = sc.spawn(move || coordinate(slots, poisoned, copy_in_body));
            let h_comp = sc.spawn(move || coordinate(slots, poisoned, compute_body));
            let h_out = sc.spawn(move || coordinate(slots, poisoned, copy_out_body));
            (
                h_in.join().expect("coordinator wrapper does not panic"),
                h_comp.join().expect("coordinator wrapper does not panic"),
                h_out.join().expect("coordinator wrapper does not panic"),
            )
        });

        let mut first_payload: Option<Box<dyn Any + Send>> = None;
        let mut poison_payload: Option<Box<dyn Any + Send>> = None;
        for (i, r) in [r_in, r_comp, r_out].into_iter().enumerate() {
            match r {
                Ok(w) => self.waits[i] = w,
                Err(p) => {
                    // Prefer the original panic over secondary abort panics.
                    if is_poison_payload(&*p) {
                        poison_payload.get_or_insert(p);
                    } else {
                        first_payload.get_or_insert(p);
                    }
                }
            }
        }
        if let Some(payload) = first_payload.or(poison_payload) {
            resume_unwind(payload);
        }
        Ok(())
    }
}

/// Run the dataflow (non-lockstep) schedule on persistent stage pools.
///
/// The orchestrator's dataflow dependency edges — chunk `c` lives in slot
/// `c % 3`, and copy-out of chunk `c` recycles its slot for copy-in of
/// chunk `c + 3` — are realised by three coordinator threads walking the
/// recorded schedule (see [`HostDataflowBackend`]).
///
/// Busy counters in `pools` are reset at the start of the run; the
/// returned [`StageStats`] also report each coordinator's blocked time, so
/// callers can see which stage was the bottleneck (the bottleneck stage
/// waits least).
///
/// # Panics
/// Panics on the same conditions as [`run_host_pipeline`], if
/// `spec.placement == Implicit` (implicit mode has no copy stages — use
/// [`run_host_pipeline`]), or if the kernel panics (the kernel's panic
/// payload is rethrown once all stages have shut down).
pub fn run_host_pipeline_dataflow<T, F>(
    pools: &HostStagePools,
    spec: &PipelineSpec,
    data: &[T],
    out: &mut [T],
    kernel: F,
) -> HostRunStats
where
    T: Copy + Send + Sync,
    F: Fn(&mut [T], KernelCtx) + Send + Sync,
{
    assert_eq!(out.len(), data.len(), "out must match data length");
    assert_ne!(
        spec.placement,
        Placement::Implicit,
        "implicit placement has no copy stages; use run_host_pipeline"
    );
    assert_eq!(
        spec.workload,
        Workload::Map,
        "stencil workloads carry halo reads the map kernel shape cannot \
         express; use run_host_stencil"
    );
    let Some(mut run) = HostRun::new(spec, data, out) else {
        return HostRunStats::empty();
    };
    pools.reset();

    run.espec.lockstep = false;
    let mut backend = HostDataflowBackend {
        pools,
        data,
        out: Some(out),
        kernel: &kernel,
        chunk_elems: run.chunk_elems,
        schedule: [Vec::new(), Vec::new(), Vec::new()],
        waits: [Duration::ZERO; 3],
    };
    drive(&mut backend, &run.espec).expect("host dataflow backend refused the schedule");

    let stage = |pool: &StagePool, wait: Duration| StageStats {
        threads: pool.threads(),
        busy: pool.busy(),
        wait,
    };
    run.stats(
        stage(&pools.copy_in, backend.waits[0]),
        stage(&pools.compute, backend.waits[1]),
        stage(&pools.copy_out, backend.waits[2]),
    )
}

// ---------------------------------------------------------------------------
// Stencil family
// ---------------------------------------------------------------------------

/// The staged neighbourhood a stencil kernel computes one chunk from.
///
/// `mid` is the full input chunk; `left` and `right` are the staged halo
/// regions of the adjacent chunks — the last `halo` elements of chunk
/// `c - 1` and the first up-to-`halo` elements of chunk `c + 1`. At the
/// grid boundary (and past the end of a ragged final chunk) the
/// corresponding slice is empty or short, and the kernel supplies its own
/// boundary condition for the missing elements.
///
/// All three slices view *staged input* buffers: stencil slots keep
/// separate output buffers precisely so these bytes stay intact while
/// neighbouring chunks compute.
pub struct StencilView<'a, T> {
    /// Last `halo` elements of chunk `c - 1` (empty when `c == 0`).
    pub left: &'a [T],
    /// The full input chunk `c`.
    pub mid: &'a [T],
    /// First up-to-`halo` elements of chunk `c + 1` (empty for the last
    /// chunk, shorter than `halo` when the grid ends inside the halo).
    pub right: &'a [T],
}

/// Stream `data` through the out-of-core stencil pipeline, applying
/// `kernel` to each chunk's staged neighbourhood and writing results to
/// `out`.
///
/// `kernel(view, out_slice, ctx)` receives the full staged input chunk
/// plus both neighbours' halo regions ([`StencilView`]) and must fill
/// `out_slice` — its thread's part of the chunk's output, starting at
/// grid element `ctx.global_offset` — as a pure function of the view and
/// the position. Outputs land in separate buffers, so the staged inputs a
/// neighbouring compute still reads are never overwritten.
///
/// `spec.lockstep` selects the schedule exactly as in
/// [`run_host_pipeline`]; both schedules produce bit-identical output.
///
/// # Panics
/// Panics if `out.len() != data.len()`, the spec fails validation, the
/// workload is not [`Workload::Stencil`], or the chunk/halo geometry is
/// not a whole number of `T` elements.
pub fn run_host_stencil<T, F>(
    pool: &WorkPool,
    spec: &PipelineSpec,
    data: &[T],
    out: &mut [T],
    kernel: F,
) -> HostRunStats
where
    T: Copy + Send + Sync,
    F: Fn(StencilView<'_, T>, &mut [T], KernelCtx) + Send + Sync,
{
    assert_eq!(out.len(), data.len(), "out must match data length");
    let Workload::Stencil { halo_bytes } = spec.workload else {
        panic!("run_host_stencil needs a stencil workload; use run_host_pipeline for map kernels");
    };
    let Some(run) = HostRun::new(spec, data, out) else {
        return HostRunStats::empty();
    };
    let elem = std::mem::size_of::<T>().max(1) as u64;
    assert!(
        halo_bytes.is_multiple_of(elem),
        "halo_bytes = {halo_bytes} is not a whole number of {elem}-byte elements"
    );
    run_steps(pool, &run, data, out, (halo_bytes / elem) as usize, kernel)
}

/// Push `src → dst` copy tasks (split across up to `parts_max` workers)
/// onto a step batch, crediting wall time to `busy`. The shared
/// `WorkPool` is untimed, so the tasks time themselves — unlike the
/// dataflow path, whose `StagePool`s account busy time in the pool.
fn push_timed_copy<'t, T: Copy + Send + Sync>(
    tasks: &mut Vec<Box<dyn FnOnce() + Send + 't>>,
    busy: &'t AtomicU64,
    parts_max: usize,
    src: &'t [T],
    dst: &'t mut [T],
) {
    debug_assert_eq!(src.len(), dst.len());
    let parts = parts_max.min(src.len()).max(1);
    let mut rest = dst;
    for t in 0..parts {
        let (ss, se) = split_range(src.len(), parts, t);
        let (head, tail) = rest.split_at_mut(se - ss);
        rest = tail;
        let s_slice = &src[ss..se];
        tasks.push(Box::new(move || {
            let t0 = Instant::now();
            head.copy_from_slice(s_slice);
            busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }));
    }
}

/// Push the compute tasks of chunk `chunk` (whose first element is grid
/// element `chunk_lo`): `dst` split across up to `parts_max` workers, each
/// running `kernel` on its slice behind the fault-injection probe. With
/// `busy`, each task credits its wall time there; stage pools account
/// their own.
fn push_compute<'t, T, K>(
    tasks: &mut Vec<Box<dyn FnOnce() + Send + 't>>,
    busy: Option<&'t AtomicU64>,
    parts_max: usize,
    chunk: usize,
    chunk_lo: usize,
    dst: &'t mut [T],
    kernel: K,
) where
    T: Send,
    K: Fn(&mut [T], KernelCtx) + Copy + Send + 't,
{
    let len = dst.len();
    let parts = parts_max.min(len).max(1);
    let mut rest = dst;
    for t in 0..parts {
        let (ss, se) = split_range(len, parts, t);
        let (head, tail) = rest.split_at_mut(se - ss);
        rest = tail;
        let ctx = KernelCtx {
            chunk,
            thread: t,
            global_offset: chunk_lo + ss,
        };
        tasks.push(Box::new(move || {
            let t0 = Instant::now();
            super::fault::maybe_panic_compute(chunk);
            kernel(head, ctx);
            if let Some(busy) = busy {
                busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::pipeline::Workload;

    fn spec(chunk_bytes: u64, placement: Placement) -> PipelineSpec {
        PipelineSpec {
            total_bytes: 0, // host side derives sizes from the slice
            chunk_bytes,
            p_in: 2,
            p_out: 2,
            p_comp: 3,
            compute_passes: 1,
            compute_rate: 1e9,
            copy_rate: 1e9,
            placement,
            lockstep: true,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    fn negate_kernel(slice: &mut [i64], _ctx: KernelCtx) {
        slice.iter_mut().for_each(|x| *x = -*x);
    }

    /// A kernel whose output depends on the global element position, so
    /// any chunk-geometry drift between modes corrupts the comparison.
    fn offset_kernel(slice: &mut [i64], ctx: KernelCtx) {
        for (i, v) in slice.iter_mut().enumerate() {
            *v = v
                .wrapping_mul(31)
                .wrapping_add((ctx.global_offset + i) as i64);
        }
    }

    #[test]
    fn explicit_pipeline_transforms_all_data() {
        let pool = WorkPool::new(7);
        let mut s = spec(8 * 100, Placement::Hbw);
        s.total_bytes = 8 * 1000;
        let data: Vec<i64> = (0..1000).collect();
        let mut out = vec![0i64; 1000];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert_eq!(stats.chunks, 10);
        assert_eq!(stats.steps, 12);
        let expect: Vec<i64> = (0..1000).map(|x| -x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn ragged_tail_handled() {
        let pool = WorkPool::new(4);
        let mut s = spec(8 * 64, Placement::Hbw);
        s.total_bytes = 8 * 1003;
        let data: Vec<i64> = (0..1003).collect();
        let mut out = vec![0i64; 1003];
        run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
    }

    #[test]
    fn single_chunk_works() {
        let pool = WorkPool::new(4);
        let mut s = spec(1 << 20, Placement::Hbw);
        s.total_bytes = 8 * 50;
        let data: Vec<i64> = (0..50).collect();
        let mut out = vec![0i64; 50];
        run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
    }

    #[test]
    fn host_sizes_come_from_the_slice_not_the_spec() {
        // The modeled problem size (total_bytes) legitimately disagrees
        // with the slice being processed: geometry must follow the slice.
        let pool = WorkPool::new(4);
        let mut s = spec(8 * 64, Placement::Hbw);
        s.total_bytes = 1 << 40; // model a 1 TiB run...
        let data: Vec<i64> = (0..500).collect(); // ...validate on 4 KiB
        let mut out = vec![0i64; 500];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert_eq!(stats.chunks, 500usize.div_ceil(64));
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
    }

    #[test]
    fn implicit_mode_matches_explicit() {
        let pool = WorkPool::new(4);
        let data: Vec<i64> = (0..777).map(|x| x * 3).collect();

        let mut s = spec(8 * 100, Placement::Hbw);
        s.total_bytes = 8 * 777;
        let mut out_explicit = vec![0i64; 777];
        run_host_pipeline(&pool, &s, &data, &mut out_explicit, negate_kernel);

        let mut si = spec(8 * 100, Placement::Implicit);
        si.total_bytes = 8 * 777;
        si.p_in = 0;
        si.p_out = 0;
        let mut out_implicit = vec![0i64; 777];
        run_host_pipeline(&pool, &si, &data, &mut out_implicit, negate_kernel);

        assert_eq!(out_explicit, out_implicit);
    }

    #[test]
    fn kernel_ctx_reports_global_offsets() {
        let pool = WorkPool::new(3);
        let n = 300usize;
        let mut s = spec(8 * 64, Placement::Hbw);
        s.total_bytes = (8 * n) as u64;
        let data: Vec<i64> = (0..n as i64).collect();
        let mut out = vec![0i64; n];
        let seen = AtomicU64::new(0);
        run_host_pipeline(&pool, &s, &data, &mut out, |slice, ctx| {
            // Every element equals its global index, so offsets must line up.
            for (i, v) in slice.iter().enumerate() {
                assert_eq!(*v as usize, ctx.global_offset + i);
            }
            seen.fetch_add(slice.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), n as u64);
        assert_eq!(out, data, "identity kernel copies through");
    }

    #[test]
    fn empty_input_is_noop() {
        let pool = WorkPool::new(2);
        let mut s = spec(1 << 10, Placement::Hbw);
        s.total_bytes = 8; // irrelevant: host sizes come from the slice
        let data: Vec<i64> = vec![];
        let mut out: Vec<i64> = vec![];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert_eq!(stats.chunks, 0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_chunk_bytes_rejected() {
        // 30 bytes per chunk over i64 data: boundaries fall mid-element.
        let pool = WorkPool::new(2);
        let mut s = spec(30, Placement::Hbw);
        s.total_bytes = 8 * 16;
        let data: Vec<i64> = (0..16).collect();
        let mut out = vec![0i64; 16];
        run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
    }

    #[test]
    fn dataflow_transforms_all_data() {
        let pool = WorkPool::new(7);
        let mut s = spec(8 * 100, Placement::Hbw);
        s.total_bytes = 8 * 1000;
        s.lockstep = false;
        let data: Vec<i64> = (0..1000).collect();
        let mut out = vec![0i64; 1000];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert_eq!(stats.chunks, 10);
        assert_eq!(stats.steps, 12, "steps reported for comparability");
        let expect: Vec<i64> = (0..1000).map(|x| -x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn dataflow_handles_ragged_tail_and_single_chunk() {
        let pools = HostStagePools::new(2, 3, 2);
        for n in [1usize, 7, 64, 65, 1003] {
            let mut s = spec(8 * 64, Placement::Hbw);
            s.total_bytes = (8 * n) as u64;
            s.lockstep = false;
            let data: Vec<i64> = (0..n as i64).collect();
            let mut out = vec![0i64; n];
            let stats = run_host_pipeline_dataflow(&pools, &s, &data, &mut out, offset_kernel);
            assert_eq!(stats.chunks, n.div_ceil(64), "n={n}");
            let mut expect: Vec<i64> = data.clone();
            for (i, v) in expect.iter_mut().enumerate() {
                *v = v.wrapping_mul(31).wrapping_add(i as i64);
            }
            assert_eq!(out, expect, "n={n}");
        }
    }

    #[test]
    fn dataflow_matches_lockstep_bit_for_bit() {
        let pool = WorkPool::new(7);
        let n = 4003usize;
        let mut s = spec(8 * 256, Placement::Hbw);
        s.total_bytes = (8 * n) as u64;
        let data: Vec<i64> = (0..n as i64).map(|x| x.wrapping_mul(0x9E37)).collect();

        let mut out_lock = vec![0i64; n];
        run_host_pipeline(&pool, &s, &data, &mut out_lock, offset_kernel);

        s.lockstep = false;
        let mut out_flow = vec![0i64; n];
        run_host_pipeline(&pool, &s, &data, &mut out_flow, offset_kernel);

        assert_eq!(out_lock, out_flow);
    }

    #[test]
    fn dataflow_pools_are_reusable() {
        let pools = HostStagePools::new(1, 2, 1);
        let n = 500usize;
        let mut s = spec(8 * 64, Placement::Ddr);
        s.total_bytes = (8 * n) as u64;
        s.lockstep = false;
        s.p_in = 1;
        s.p_out = 1;
        s.p_comp = 2;
        let data: Vec<i64> = (0..n as i64).collect();
        for _ in 0..3 {
            let mut out = vec![0i64; n];
            let stats = run_host_pipeline_dataflow(&pools, &s, &data, &mut out, negate_kernel);
            assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
            // Busy counters are reset per run, so they stay bounded by one
            // run's work rather than accumulating forever.
            assert!(stats.compute.busy <= stats.elapsed * 2 * 4);
        }
    }

    #[test]
    fn stage_stats_are_populated() {
        let pool = WorkPool::new(7);
        let n = 50_000usize;
        let mut s = spec(8 * 4096, Placement::Hbw);
        s.total_bytes = (8 * n) as u64;
        let data: Vec<i64> = (0..n as i64).collect();

        // Lockstep: busy time recorded per stage, waits are zero.
        let mut out = vec![0i64; n];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert_eq!(stats.copy_in.threads, 2);
        assert_eq!(stats.compute.threads, 3);
        assert_eq!(stats.copy_out.threads, 2);
        assert!(stats.copy_in.busy > Duration::ZERO);
        assert!(stats.compute.busy > Duration::ZERO);
        assert!(stats.copy_out.busy > Duration::ZERO);
        assert_eq!(stats.copy_in.wait, Duration::ZERO);
        assert!(stats.compute.occupancy(stats.elapsed) <= 1.0 + 1e-9);

        // Dataflow: same fields, waits measured by the coordinators.
        s.lockstep = false;
        let mut out = vec![0i64; n];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert!(stats.copy_in.busy > Duration::ZERO);
        assert!(stats.compute.busy > Duration::ZERO);
        assert!(stats.copy_out.busy > Duration::ZERO);
        // Copy-out of chunk 0 cannot start before chunk 0 is filled and
        // computed, so its coordinator must have measurably waited.
        assert!(stats.copy_out.wait > Duration::ZERO);
    }

    #[test]
    fn implicit_ignores_lockstep_flag() {
        let pool = WorkPool::new(4);
        let data: Vec<i64> = (0..321).collect();
        let mut si = spec(8 * 100, Placement::Implicit);
        si.total_bytes = 8 * 321;
        si.p_in = 0;
        si.p_out = 0;
        si.lockstep = false;
        let mut out = vec![0i64; 321];
        let stats = run_host_pipeline(&pool, &si, &data, &mut out, negate_kernel);
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
        assert_eq!(stats.copy_in.threads, 0, "implicit mode has no copy stages");
        assert!(stats.compute.busy > Duration::ZERO);
    }

    // -- stencil family --------------------------------------------------

    /// Spec for an i64 stencil over `chunk_elems`-element chunks with an
    /// `h`-element halo, processing `n` elements.
    fn stencil_spec(chunk_elems: usize, h: usize, n: usize, lockstep: bool) -> PipelineSpec {
        let mut s = spec((8 * chunk_elems) as u64, Placement::Hbw);
        s.total_bytes = (8 * n) as u64;
        s.workload = Workload::Stencil {
            halo_bytes: (8 * h) as u64,
        };
        s.lockstep = lockstep;
        s
    }

    /// The 3-point stencil at distance `h` with zero boundary: what any
    /// correct out-of-core execution must compute for global element `g`.
    fn stencil_reference(data: &[i64], h: usize) -> Vec<i64> {
        (0..data.len())
            .map(|g| {
                let l = if g >= h { data[g - h] } else { 0 };
                let r = data.get(g + h).copied().unwrap_or(0);
                data[g]
                    .wrapping_mul(3)
                    .wrapping_sub(l)
                    .wrapping_add(r.wrapping_mul(7))
            })
            .collect()
    }

    /// The same stencil expressed against the staged [`StencilView`]:
    /// exercises mid reads, both halo regions, the left grid boundary, and
    /// the (possibly short) right halo of a ragged tail.
    fn stencil_kernel(
        chunk_elems: usize,
        h: usize,
    ) -> impl Fn(StencilView<'_, i64>, &mut [i64], KernelCtx) {
        move |view, out, ctx| {
            let l0 = ctx.global_offset - ctx.chunk * chunk_elems;
            for (i, o) in out.iter_mut().enumerate() {
                let l = l0 + i;
                let left = if l >= h {
                    view.mid[l - h]
                } else if view.left.is_empty() {
                    0 // grid boundary
                } else {
                    view.left[l] // left holds globals [base - h, base)
                };
                let j = l + h;
                let right = if j < view.mid.len() {
                    view.mid[j]
                } else {
                    view.right.get(j - view.mid.len()).copied().unwrap_or(0)
                };
                *o = view.mid[l]
                    .wrapping_mul(3)
                    .wrapping_sub(left)
                    .wrapping_add(right.wrapping_mul(7));
            }
        }
    }

    #[test]
    fn stencil_matches_reference_across_geometries() {
        let pool = WorkPool::new(7);
        for (chunk_elems, h, n) in [
            (64usize, 8usize, 1003usize), // ragged tail
            (64, 8, 640),                 // exact division
            (64, 60, 1003),               // halo nearly the whole chunk
            (64, 8, 50),                  // single chunk
            (64, 8, 70),                  // two chunks, short tail < halo reach
            (16, 4, 16 * 4 + 2),          // tail shorter than the halo
        ] {
            let s = stencil_spec(chunk_elems, h, n, true);
            let data: Vec<i64> = (0..n as i64).map(|x| x.wrapping_mul(0x9E37)).collect();
            let mut out = vec![0i64; n];
            let stats =
                run_host_stencil(&pool, &s, &data, &mut out, stencil_kernel(chunk_elems, h));
            assert_eq!(
                out,
                stencil_reference(&data, h),
                "chunk={chunk_elems} h={h} n={n}"
            );
            assert_eq!(stats.chunks, n.div_ceil(chunk_elems));
            assert_eq!(stats.steps, stats.chunks + 3);
        }
    }

    #[test]
    fn stencil_dataflow_matches_lockstep_bit_for_bit() {
        let pool = WorkPool::new(7);
        for n in [1usize, 64, 65, 129, 1003] {
            let (chunk_elems, h) = (64, 8);
            let data: Vec<i64> = (0..n as i64).map(|x| x.wrapping_mul(-77)).collect();

            let mut out_lock = vec![0i64; n];
            let s = stencil_spec(chunk_elems, h, n, true);
            run_host_stencil(
                &pool,
                &s,
                &data,
                &mut out_lock,
                stencil_kernel(chunk_elems, h),
            );

            let mut out_flow = vec![0i64; n];
            let s = stencil_spec(chunk_elems, h, n, false);
            run_host_stencil(
                &pool,
                &s,
                &data,
                &mut out_flow,
                stencil_kernel(chunk_elems, h),
            );

            assert_eq!(out_lock, out_flow, "n={n}");
            assert_eq!(out_lock, stencil_reference(&data, h), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "use run_host_stencil")]
    fn map_entry_point_rejects_stencil_specs() {
        let pool = WorkPool::new(2);
        let s = stencil_spec(64, 8, 100, true);
        let data: Vec<i64> = (0..100).collect();
        let mut out = vec![0i64; 100];
        run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
    }

    #[test]
    #[should_panic(expected = "needs a stencil workload")]
    fn stencil_entry_point_rejects_map_specs() {
        let pool = WorkPool::new(2);
        let mut s = spec(8 * 64, Placement::Hbw);
        s.total_bytes = 8 * 100;
        let data: Vec<i64> = (0..100).collect();
        let mut out = vec![0i64; 100];
        run_host_stencil(&pool, &s, &data, &mut out, stencil_kernel(64, 8));
    }

    #[test]
    fn dataflow_kernel_panic_propagates_with_message() {
        let pools = HostStagePools::new(1, 2, 1);
        let mut s = spec(8 * 16, Placement::Hbw);
        s.total_bytes = 8 * 100;
        s.lockstep = false;
        let data: Vec<i64> = (0..100).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut out = vec![0i64; 100];
            run_host_pipeline_dataflow(&pools, &s, &data, &mut out, |slice, ctx| {
                if ctx.chunk == 3 {
                    panic!("kernel exploded on chunk {}", ctx.chunk);
                }
                negate_kernel(slice, ctx);
            });
        }));
        let payload = result.expect_err("kernel panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("original payload survives");
        assert_eq!(msg, "kernel exploded on chunk 3");
        // The pools must remain usable after the failed run.
        let mut out = vec![0i64; 100];
        run_host_pipeline_dataflow(&pools, &s, &data, &mut out, negate_kernel);
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
    }
}
