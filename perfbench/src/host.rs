//! `host-pipeline`: the paper's chunked pipeline on real threads, over
//! seeded random i64 keys. Per pass: MLM-sort (`run_host_sort`), the merge
//! benchmark's map pipeline under lockstep and under dataflow
//! (`run_host_pipeline` with `merge_kernel`), and the out-of-core stencil
//! (`run_host_stencil`), each spec planned and verified first.

use mlm_core::merge_bench::merge_kernel;
use mlm_core::pipeline::host::{run_host_pipeline, run_host_stencil, KernelCtx, StencilView};
use mlm_core::sort::host::run_host_sort;
use mlm_core::workload::{generate_keys, SplitMix64};
use mlm_core::{InputOrder, PipelineSpec, Placement, SortAlgorithm, Workload as Shape};
use mlm_exec::graph::verify_spec;
use mlm_exec::plan::plan_pipeline;
use mlm_exec::report::RunReport;
use mlm_stream::StreamKernel;
use parsort::{introsort, is_sorted, parallel_mergesort, WorkPool};

use crate::tracing::Tracer;
use crate::{Figure, Pass, Size, Workload};

/// Worker threads of the shared pool, so that the pools fit two cores.
/// Dataflow runs add one thread per stage, the minimum.
const POOL_THREADS: usize = 2;

/// Chunks per pipeline run and MLM-sort megachunks per sort.
const CHUNKS: usize = 16;
const MEGACHUNKS: usize = 4;

/// Merge-kernel repetitions per chunk (the host ablation's "balanced").
const MERGE_REPEATS: u32 = 4;

/// Stencil halo, in elements per side, as a share of a chunk.
const HALO_PER_CHUNK: usize = 64;

const ELEM: usize = std::mem::size_of::<i64>();

fn keys_for(size: Size) -> usize {
    match size {
        Size::Full => 1 << 22,
        Size::Tiny => 1 << 12,
    }
}

/// Order-independent checksum of a multiset of keys.
pub fn multiset_checksum(keys: &[i64]) -> (u64, usize) {
    let sum = keys.iter().fold(0u64, |acc, &k| {
        acc.wrapping_add(SplitMix64::new(k as u64).next_u64())
    });
    (sum, keys.len())
}

/// A map spec over `n` keys in [`CHUNKS`] chunks, one thread per stage,
/// with the host's measured copy bandwidth as its copy rate.
fn map_spec(n: usize, lockstep: bool, copy_rate: f64) -> PipelineSpec {
    PipelineSpec {
        total_bytes: (n * ELEM) as u64,
        chunk_bytes: (n / CHUNKS * ELEM) as u64,
        p_in: 1,
        p_out: 1,
        p_comp: 1,
        compute_passes: MERGE_REPEATS,
        compute_rate: 1e9,
        copy_rate,
        placement: Placement::Hbw,
        lockstep,
        data_addr: 0,
        workload: Shape::Map,
    }
}

fn stencil_spec(n: usize, copy_rate: f64) -> PipelineSpec {
    let halo = n / CHUNKS / HALO_PER_CHUNK;
    PipelineSpec {
        workload: Shape::Stencil {
            halo_bytes: (halo * ELEM) as u64,
        },
        ..map_spec(n, false, copy_rate)
    }
}

/// The stencil's point update: a pure function of a key and its two
/// neighbours `h` away (zero past either end).
fn stencil_point(mid: i64, left: i64, right: i64) -> i64 {
    mid.wrapping_mul(31)
        .wrapping_sub(left)
        .wrapping_add(right.wrapping_mul(7))
}

/// The stencil kernel over one chunk's staged view.
fn stencil_kernel(
    chunk_elems: usize,
    h: usize,
) -> impl Fn(StencilView<'_, i64>, &mut [i64], KernelCtx) + Send + Sync {
    move |view, out, ctx| {
        let l0 = ctx.global_offset - ctx.chunk * chunk_elems;
        for (i, o) in out.iter_mut().enumerate() {
            let l = l0 + i;
            let left = if l >= h {
                view.mid[l - h]
            } else {
                view.left.get(l).copied().unwrap_or(0)
            };
            let j = l + h;
            let right = if j < view.mid.len() {
                view.mid[j]
            } else {
                view.right.get(j - view.mid.len()).copied().unwrap_or(0)
            };
            *o = stencil_point(view.mid[l], left, right);
        }
    }
}

/// The single-threaded stencil over the whole array.
fn stencil_reference(data: &[i64], h: usize) -> Vec<i64> {
    (0..data.len())
        .map(|g| {
            let l = if g >= h { data[g - h] } else { 0 };
            stencil_point(data[g], l, data.get(g + h).copied().unwrap_or(0))
        })
        .collect()
}

/// The single-threaded map: `merge_kernel` over each chunk.
fn map_reference(data: &[i64], chunk_elems: usize) -> Vec<i64> {
    let mut out = data.to_vec();
    for chunk in out.chunks_mut(chunk_elems) {
        merge_kernel(chunk, MERGE_REPEATS);
    }
    out
}

/// The host-pipeline workload: keys, references and the shared pool.
pub struct HostPipeline {
    keys: Vec<i64>,
    checksum: (u64, usize),
    map_ref: Vec<i64>,
    stencil_ref: Vec<i64>,
    lockstep: PipelineSpec,
    dataflow: PipelineSpec,
    stencil: PipelineSpec,
    pool: WorkPool,
    buf: Vec<i64>,
}

impl HostPipeline {
    pub fn new(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let n = keys_for(size);
        let keys = tr.span("mlm-core", "generate_keys", || {
            generate_keys(n, InputOrder::Random, seed)
        });
        let pool = WorkPool::new(POOL_THREADS);
        let triad = tr.span("mlm-stream", "run_kernel", || {
            mlm_stream::host::run_kernel(&pool, StreamKernel::Triad, n / CHUNKS, 3)
        });
        let stencil = stencil_spec(n, triad.bandwidth);
        let Shape::Stencil { halo_bytes } = stencil.workload else {
            unreachable!("stencil spec")
        };
        HostPipeline {
            checksum: multiset_checksum(&keys),
            map_ref: map_reference(&keys, n / CHUNKS),
            stencil_ref: stencil_reference(&keys, halo_bytes as usize / ELEM),
            lockstep: map_spec(n, true, triad.bandwidth),
            dataflow: map_spec(n, false, triad.bandwidth),
            stencil,
            pool,
            buf: vec![0; n],
            keys,
        }
    }
}

/// The sort gate: sorted, and the input's multiset.
pub fn sorted_gate(out: &[i64], checksum: (u64, usize)) -> bool {
    is_sorted(out) && multiset_checksum(out) == checksum
}

/// The map/stencil gate: the single-threaded reference, element for element.
pub fn reference_gate(out: &[i64], reference: &[i64]) -> bool {
    out == reference
}

/// Charge a dataflow run's stage busy share and wait to the tracer.
fn count_stages(tr: &mut Tracer, r: &RunReport) {
    let stages = [
        (
            "mlm-core.copy_in_busy_frac",
            "mlm-core.copy_in_wait_s",
            r.copy_in,
        ),
        (
            "mlm-core.compute_busy_frac",
            "mlm-core.compute_wait_s",
            r.compute,
        ),
        (
            "mlm-core.copy_out_busy_frac",
            "mlm-core.copy_out_wait_s",
            r.copy_out,
        ),
    ];
    for (busy, wait, s) in stages {
        tr.count(busy, s.occupancy(r.elapsed));
        tr.count(wait, s.wait.as_secs_f64());
    }
}

impl Workload for HostPipeline {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass {
            jobs: 4,
            ..Pass::default()
        };
        for spec in [&self.lockstep, &self.dataflow, &self.stencil] {
            let (plan, verdict) = pass.timed(|| {
                let plan = tr.span("mlm-exec", "plan_pipeline", || plan_pipeline(spec));
                (
                    plan,
                    tr.span("mlm-exec", "verify_spec", || verify_spec(spec, None)),
                )
            });
            let safe = plan.validate().is_ok() && verdict.is_ok_and(|r| r.is_safe());
            pass.check(
                &format!("{:?} spec plans and verifies", spec.workload),
                safe,
            );
        }

        let (pool, keys, buf) = (&self.pool, &self.keys, &mut self.buf);
        buf.copy_from_slice(keys);
        let mega = keys.len() / MEGACHUNKS;
        pass.timed(|| {
            tr.span("mlm-core", "run_host_sort", || {
                run_host_sort(pool, SortAlgorithm::MlmSort, buf, mega)
            })
        });
        pass.check(
            "MLM-sort output sorted with the input's keys",
            sorted_gate(buf, self.checksum),
        );

        let kernel = |slice: &mut [i64], _: KernelCtx| merge_kernel(slice, MERGE_REPEATS);
        pass.timed(|| {
            tr.span("mlm-core", "run_host_pipeline/lockstep", || {
                run_host_pipeline(pool, &self.lockstep, keys, buf, kernel)
            })
        });
        pass.check(
            "lockstep map equals the reference",
            reference_gate(buf, &self.map_ref),
        );
        buf.fill(0);
        let stats = pass.timed(|| {
            tr.span("mlm-core", "run_host_pipeline/dataflow", || {
                run_host_pipeline(pool, &self.dataflow, keys, buf, kernel)
            })
        });
        count_stages(tr, &stats);
        pass.check(
            "dataflow map equals the reference with the input's keys",
            reference_gate(buf, &self.map_ref) && multiset_checksum(buf) == self.checksum,
        );

        let Shape::Stencil { halo_bytes } = self.stencil.workload else {
            unreachable!("stencil spec")
        };
        let stencil = stencil_kernel(self.keys.len() / CHUNKS, halo_bytes as usize / ELEM);
        pass.timed(|| {
            tr.span("mlm-core", "run_host_stencil", || {
                run_host_stencil(pool, &self.stencil, keys, buf, stencil)
            })
        });
        pass.check(
            "stencil equals the reference",
            reference_gate(buf, &self.stencil_ref),
        );

        pass.figures.push(Figure {
            name: "host_gb_per_s",
            unit: "GB/s",
            value: (pass.jobs as usize * keys.len() * ELEM) as f64 / 1e9,
            per_wall_s: true,
        });
        pass
    }

    /// The single-layer baselines the host figures are read against:
    /// `parallel_mergesort` on the same pool and a single-threaded
    /// `introsort`, on the same keys.
    fn probe(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let (pool, buf) = (&self.pool, &mut self.buf);
        buf.copy_from_slice(&self.keys);
        tr.span("parsort", "parallel_mergesort", || {
            parallel_mergesort(pool, buf)
        });
        pass.check("parallel_mergesort sorted", sorted_gate(buf, self.checksum));
        buf.copy_from_slice(&self.keys);
        tr.span("parsort", "introsort", || introsort(buf));
        pass.check("introsort sorted", sorted_gate(buf, self.checksum));
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HostPipeline {
        HostPipeline::new(5, Size::Tiny, &mut Tracer::off())
    }

    #[test]
    fn sort_gate_trips_on_one_flipped_key() {
        let h = tiny();
        let mut sorted = h.keys.clone();
        sorted.sort_unstable();
        assert!(sorted_gate(&sorted, h.checksum));
        // Still sorted, but no longer the input's keys.
        sorted[0] -= 1;
        assert!(!sorted_gate(&sorted, h.checksum));
        // The input's keys, but out of order.
        sorted[0] += 1;
        sorted.swap(0, 1);
        assert!(sorted[0] == sorted[1] || !sorted_gate(&sorted, h.checksum));
    }

    #[test]
    fn reference_gate_trips_on_one_flipped_key() {
        let h = tiny();
        let mut out = h.stencil_ref.clone();
        assert!(reference_gate(&out, &h.stencil_ref));
        out[17] ^= 1;
        assert!(!reference_gate(&out, &h.stencil_ref));
    }

    #[test]
    fn map_reference_keeps_the_multiset() {
        let h = tiny();
        assert_eq!(multiset_checksum(&h.map_ref), h.checksum);
        assert_ne!(h.map_ref, h.keys);
    }
}
