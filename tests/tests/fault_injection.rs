//! Fault-injection hooks exercised against the *real* host pipeline.
//!
//! `mlm_exec::fuzz` injects kernel panics into its modeled executor;
//! `mlm_core::pipeline::fault` (behind the `fuzz` feature, which this
//! test crate enables) arms the same fault in the real host backends.
//! This file lives in its own integration-test binary because the hook is
//! process-global: Rust runs each tests/*.rs file as a separate process,
//! and the tests here serialize around the armed state themselves.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use mlm_core::pipeline::fault::{arm_compute_panic, disarm};
use mlm_core::pipeline::host::{
    run_host_pipeline, run_host_pipeline_dataflow, run_host_stencil, HostStagePools, KernelCtx,
    StencilView,
};
use mlm_core::pipeline::{PipelineSpec, Placement, Workload};
use parsort::pool::WorkPool;

/// The hook is a process-global; tests touching it must not interleave.
static ARM_LOCK: Mutex<()> = Mutex::new(());

fn spec(placement: Placement, lockstep: bool) -> PipelineSpec {
    PipelineSpec {
        total_bytes: 8 * 600,
        chunk_bytes: 8 * 100,
        p_in: 2,
        p_out: 2,
        p_comp: 3,
        compute_passes: 1,
        compute_rate: 1e9,
        copy_rate: 1e9,
        placement,
        lockstep,
        data_addr: 0,
        workload: Workload::Map,
    }
}

fn negate(slice: &mut [i64], _ctx: KernelCtx) {
    slice.iter_mut().for_each(|x| *x = -*x);
}

/// Identity stencil: each output element is its staged input element.
fn copy_mid(view: StencilView<'_, i64>, out: &mut [i64], ctx: KernelCtx) {
    let l0 = ctx.global_offset - ctx.chunk * 100;
    out.copy_from_slice(&view.mid[l0..l0 + out.len()]);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string payload>")
}

/// An armed chunk panics inside the dataflow compute stage, the ring's
/// poison machinery propagates it, and the run aborts with the injected
/// message rather than hanging or corrupting.
#[test]
fn armed_panic_poisons_the_dataflow_ring() {
    let _guard = ARM_LOCK.lock().unwrap();
    let pools = HostStagePools::new(2, 3, 2);
    let s = spec(Placement::Hbw, false);
    let data: Vec<i64> = (0..600).collect();
    let mut out = vec![0i64; 600];

    arm_compute_panic(3);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_host_pipeline_dataflow(&pools, &s, &data, &mut out, negate)
    }));
    disarm();

    let payload = result.expect_err("armed kernel panic must propagate");
    let msg = panic_message(&*payload);
    assert_eq!(msg, "fuzz fault injection: kernel panic on chunk 3");
}

/// The same fault through the step executor: the step batch (or, without
/// lockstep, the eagerly run action) propagates the panic out of the
/// shared pool's scoped join — for map kernels under lockstep, implicit
/// placement under either schedule, and stencils under either schedule.
#[test]
fn armed_panic_propagates_through_lockstep() {
    let _guard = ARM_LOCK.lock().unwrap();
    let pool = WorkPool::new(4);
    let data: Vec<i64> = (0..600).collect();
    let stencil = |lockstep| PipelineSpec {
        workload: Workload::Stencil { halo_bytes: 8 * 4 },
        ..spec(Placement::Hbw, lockstep)
    };
    let cases = [
        ("map lockstep", spec(Placement::Hbw, true)),
        ("implicit lockstep", spec(Placement::Implicit, true)),
        ("implicit dataflow", spec(Placement::Implicit, false)),
        ("stencil lockstep", stencil(true)),
        ("stencil dataflow", stencil(false)),
    ];
    for (case, s) in cases {
        let mut out = vec![0i64; 600];

        arm_compute_panic(1);
        let result = catch_unwind(AssertUnwindSafe(|| match s.workload {
            Workload::Map => run_host_pipeline(&pool, &s, &data, &mut out, negate),
            Workload::Stencil { .. } => run_host_stencil(&pool, &s, &data, &mut out, copy_mid),
        }));
        disarm();

        let payload = result.expect_err("armed kernel panic must propagate");
        assert!(
            panic_message(&*payload).contains("fuzz fault injection"),
            "unexpected payload ({case})"
        );
    }
}

/// Disarming restores full correctness: the very pools/pipeline that just
/// absorbed a poison produce bit-correct output on the next run.
#[test]
fn disarmed_pipeline_recovers_cleanly() {
    let _guard = ARM_LOCK.lock().unwrap();
    let pools = HostStagePools::new(2, 3, 2);
    let s = spec(Placement::Hbw, false);
    let data: Vec<i64> = (0..600).collect();

    let mut out = vec![0i64; 600];
    arm_compute_panic(2);
    let poisoned = catch_unwind(AssertUnwindSafe(|| {
        run_host_pipeline_dataflow(&pools, &s, &data, &mut out, negate)
    }));
    disarm();
    assert!(poisoned.is_err());

    let mut out2 = vec![0i64; 600];
    run_host_pipeline_dataflow(&pools, &s, &data, &mut out2, negate);
    let want: Vec<i64> = data.iter().map(|x| -x).collect();
    assert_eq!(out2, want, "pipeline must be fully usable after a poison");
}

/// A chunk index that never runs (beyond the schedule) leaves every mode
/// untouched — the probe is a true no-op unless its chunk executes.
#[test]
fn armed_out_of_range_chunk_is_inert() {
    let _guard = ARM_LOCK.lock().unwrap();
    let pool = WorkPool::new(4);
    let s = spec(Placement::Hbw, true);
    let data: Vec<i64> = (0..600).collect();
    let mut out = vec![0i64; 600];

    arm_compute_panic(999);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_host_pipeline(&pool, &s, &data, &mut out, negate)
    }));
    disarm();
    assert!(result.is_ok());
    let want: Vec<i64> = data.iter().map(|x| -x).collect();
    assert_eq!(out, want);
}
