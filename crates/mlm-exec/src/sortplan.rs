//! The megachunk-level plan of the §4 sort algorithms.
//!
//! Every Table-1 sort variant is a sequence of *phases* — stage a
//! megachunk in, sort its chunks, merge the sorted runs out, and finally
//! merge across megachunks — differing only in where the bytes live and
//! which phases a variant needs. [`plan_sort`] builds that sequence once,
//! as [`WorkloadPlan`] nodes and edges, and [`SortPlan::phase`] is the
//! one decoder from a node back to its [`SortPhase`]. Two executors walk
//! the same plan: `mlm-core`'s `sort::host::run_sort_plan` runs each
//! phase on real threads and buffers, and `sort::sim` lowers each phase
//! to `knl-sim` ops with per-tier rates.

use serde::{Deserialize, Serialize};

use crate::plan::{EdgeKind, KernelDesc, PlanEdge, PlanKind, PlanNode, WorkloadPlan};

/// The megachunk-level shape of a sort variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SortStructure {
    /// One unchunked whole-array sort (the GNU baselines): per-thread
    /// block sorts, one thread-count-way merge, copy back.
    Whole,
    /// Staged megachunks (MLM-sort, MLM-ddr, basic-chunked): each
    /// megachunk is copied into the working buffer, chunk-sorted there,
    /// and merged back out; a final k-way merge stitches the megachunks.
    Staged,
    /// In-place megachunks (MLM-implicit): no staging copy — chunks are
    /// sorted where they are, merged to scratch, and copied back.
    InPlace,
    /// Double-buffered megachunks (buffered MLM-sort, §6 future work):
    /// the staged sequence with overlapping dependencies over two ring
    /// slots, so a small copy pool prefetches megachunk `m+1` while `m`
    /// computes.
    Buffered,
}

/// How a megachunk's chunk-sort phase is realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChunkSortStyle {
    /// MLM style: one serial introsort per worker thread; the run merge
    /// is a loser-tree multiway merge that benefits from ordered input.
    Serial,
    /// GNU style: the library's parallel mergesort over the whole block,
    /// modeled with the calibrated GNU efficiency penalty and no
    /// ordered-input merge boost.
    Gnu,
}

/// One phase of a sort plan. Element counts are concrete; per-thread
/// splits, byte addresses, and rates are the executors' concern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SortPhase {
    /// Per-thread block sorts over the whole array ([`SortStructure::Whole`]).
    ThreadSort {
        /// Elements in the whole array.
        elems: u64,
    },
    /// Thread-count-way merge of the per-thread runs into scratch.
    ThreadMerge {
        /// Elements merged.
        elems: u64,
    },
    /// Stage megachunk `mega` into the working buffer.
    StageIn {
        /// Megachunk index.
        mega: usize,
        /// Elements in this megachunk (the last may be ragged).
        elems: u64,
    },
    /// Sort megachunk `mega`'s chunks in the working buffer (or in place
    /// for [`SortStructure::InPlace`]).
    ChunkSort {
        /// Megachunk index.
        mega: usize,
        /// Elements in this megachunk.
        elems: u64,
    },
    /// Multiway-merge megachunk `mega`'s sorted runs out of the working
    /// buffer (to the data array, or to scratch for
    /// [`SortStructure::InPlace`]).
    MergeRuns {
        /// Megachunk index.
        mega: usize,
        /// Elements in this megachunk.
        elems: u64,
    },
    /// Copy megachunk `mega` back from scratch
    /// ([`SortStructure::InPlace`] only).
    CopyBack {
        /// Megachunk index.
        mega: usize,
        /// Elements in this megachunk.
        elems: u64,
    },
    /// Final k-way merge across sorted megachunks into scratch.
    FinalMerge {
        /// Elements in the whole array.
        elems: u64,
        /// Number of sorted megachunk runs.
        k: usize,
    },
    /// Copy the whole array back from scratch.
    FinalCopyBack {
        /// Elements in the whole array.
        elems: u64,
    },
}

/// The plan of one sort run: the megachunk geometry and the node/edge
/// DAG both executors walk.
#[derive(Debug, Clone, PartialEq)]
pub struct SortPlan {
    /// The megachunk-level shape.
    pub structure: SortStructure,
    /// How chunk sorts are realised (and whether GNU penalties apply).
    pub chunk_style: ChunkSortStyle,
    /// Total elements.
    pub n_elems: u64,
    /// Elements per megachunk, clamped to `n_elems`.
    pub mega_elems: u64,
    /// Number of megachunks; always `plan.chunks`.
    pub megachunks: usize,
    /// One node per phase, in issue order; [`SortPlan::phase`] decodes
    /// each back into its [`SortPhase`]. Node `len` is in *elements*.
    pub plan: WorkloadPlan,
}

// Kernel-table indices of the sort phases that carry a kernel. Only this
// module reads them: executors match on [`SortPhase`] via
// [`SortPlan::phase`].
const SORT_KERNEL_CHUNK_SORT: usize = 0;
const SORT_KERNEL_MERGE_RUNS: usize = 1;
const SORT_KERNEL_THREAD_SORT: usize = 2;
const SORT_KERNEL_THREAD_MERGE: usize = 3;
const SORT_KERNEL_FINAL_MERGE: usize = 4;
const KERNEL_NAMES: [&str; 5] = [
    "chunk-sort",
    "merge-runs",
    "thread-sort",
    "thread-merge",
    "final-merge",
];

impl SortPlan {
    /// The phase node `i` of [`SortPlan::plan`] stands for.
    ///
    /// The encoding: [`SortPhase::StageIn`] is a [`PlanKind::StageIn`],
    /// [`SortPhase::ChunkSort`] a [`PlanKind::Kernel`],
    /// [`SortPhase::MergeRuns`] a [`PlanKind::StageOut`] *carrying* the
    /// merge kernel (the sort family's drain transforms as it copies),
    /// [`SortPhase::CopyBack`] a plain [`PlanKind::StageOut`], and the
    /// whole-array phases global nodes with `chunk: None`.
    pub fn phase(&self, i: usize) -> SortPhase {
        let node = &self.plan.nodes[i];
        let elems = node.len;
        match (node.kind, node.chunk, node.kernel) {
            (PlanKind::StageIn, Some(mega), _) => SortPhase::StageIn { mega, elems },
            (PlanKind::Kernel, Some(mega), _) => SortPhase::ChunkSort { mega, elems },
            (PlanKind::StageOut, Some(mega), Some(SORT_KERNEL_MERGE_RUNS)) => {
                SortPhase::MergeRuns { mega, elems }
            }
            (PlanKind::StageOut, Some(mega), _) => SortPhase::CopyBack { mega, elems },
            (PlanKind::Kernel, None, Some(SORT_KERNEL_THREAD_SORT)) => {
                SortPhase::ThreadSort { elems }
            }
            (PlanKind::Kernel, None, Some(SORT_KERNEL_THREAD_MERGE)) => {
                SortPhase::ThreadMerge { elems }
            }
            (PlanKind::Kernel, None, Some(SORT_KERNEL_FINAL_MERGE)) => SortPhase::FinalMerge {
                elems,
                k: self.megachunks,
            },
            (PlanKind::StageOut, None, _) => SortPhase::FinalCopyBack { elems },
            (kind, chunk, kernel) => {
                unreachable!("plan_sort never emits {kind:?}/{chunk:?}/{kernel:?}")
            }
        }
    }
}

/// Elements in megachunk `m` of an `n`-element array cut into
/// `mega_elems`-element megachunks (the last may be ragged).
pub fn mega_size(n: u64, mega_elems: u64, m: usize) -> u64 {
    let lo = m as u64 * mega_elems;
    mega_elems.min(n - lo.min(n))
}

/// Append a node; a chunk-scoped node takes its megachunk's ring slot.
fn push(
    plan: &mut WorkloadPlan,
    kind: PlanKind,
    chunk: Option<usize>,
    kernel: Option<usize>,
    len: u64,
    deps: Vec<PlanEdge>,
) -> usize {
    plan.nodes.push(PlanNode {
        kind,
        chunk,
        slot: chunk.map_or(0, |m| m % plan.ring_slots),
        kernel,
        len,
        deps,
    });
    plan.nodes.len() - 1
}

/// Append a node [`EdgeKind::Seq`]-chained to the previous one.
fn push_seq(
    plan: &mut WorkloadPlan,
    kind: PlanKind,
    chunk: Option<usize>,
    kernel: Option<usize>,
    len: u64,
) -> usize {
    let deps = plan
        .nodes
        .len()
        .checked_sub(1)
        .map(|prev| PlanEdge::new(prev, EdgeKind::Seq))
        .into_iter()
        .collect();
    push(plan, kind, chunk, kernel, len, deps)
}

/// Plan one sort run.
///
/// `n_elems` and `mega_elems` must be positive; `mega_elems` is clamped
/// to `n_elems` (a megachunk larger than the data is the
/// megachunk-equals-problem-size configuration of Table 1).
///
/// Sequential structures chain every node to its predecessor with
/// [`EdgeKind::Seq`], so [`crate::plan::waves`] degenerates to one node
/// per wave: barrier-per-phase execution. [`SortStructure::Buffered`]
/// instead emits the double-buffered dependency shape over a 2-slot ring:
/// megachunk `m`'s stage-in waits only for the merge-out of `m - 2`
/// ([`EdgeKind::Recycle`] — its buffer's previous occupant), computes
/// wait on their own stage-in ([`EdgeKind::Data`]), merges wait on their
/// compute, so `waves` overlaps megachunk `m + 1`'s prefetch with `m`'s
/// sort.
pub fn plan_sort(
    structure: SortStructure,
    chunk_style: ChunkSortStyle,
    n_elems: u64,
    mega_elems: u64,
) -> SortPlan {
    use PlanKind::{Kernel, StageIn, StageOut};
    assert!(n_elems > 0, "empty workload");
    assert!(mega_elems > 0, "megachunk must be positive");
    let mega_elems = mega_elems.min(n_elems);
    let megachunks = n_elems.div_ceil(mega_elems) as usize;
    let mut plan = WorkloadPlan {
        family: "sort",
        ring_slots: if structure == SortStructure::Buffered {
            2
        } else {
            1
        },
        chunks: megachunks,
        kernels: KERNEL_NAMES
            .iter()
            .map(|name| KernelDesc {
                name: (*name).to_string(),
                passes: 1,
                extra_read_bytes: 0,
            })
            .collect(),
        nodes: Vec::new(),
    };
    let elems = |m: usize| mega_size(n_elems, mega_elems, m);
    let (sort, merge) = (Some(SORT_KERNEL_CHUNK_SORT), Some(SORT_KERNEL_MERGE_RUNS));
    let final_merge = Some(SORT_KERNEL_FINAL_MERGE);
    let p = &mut plan;

    match structure {
        SortStructure::Whole => {
            push_seq(p, Kernel, None, Some(SORT_KERNEL_THREAD_SORT), n_elems);
            push_seq(p, Kernel, None, Some(SORT_KERNEL_THREAD_MERGE), n_elems);
            push_seq(p, StageOut, None, None, n_elems);
        }
        SortStructure::Staged | SortStructure::InPlace => {
            let steps = if structure == SortStructure::Staged {
                [(StageIn, None), (Kernel, sort), (StageOut, merge)]
            } else {
                [(Kernel, sort), (StageOut, merge), (StageOut, None)]
            };
            for m in 0..megachunks {
                for (kind, kernel) in steps {
                    push_seq(p, kind, Some(m), kernel, elems(m));
                }
            }
            if megachunks > 1 {
                push_seq(p, Kernel, None, final_merge, n_elems);
                push_seq(p, StageOut, None, None, n_elems);
            }
        }
        SortStructure::Buffered => {
            let n = megachunks;
            let mut stage_in = vec![0; n];
            let mut chunk_sort = vec![0; n];
            let mut merge_out = vec![0; n];
            // Step `s`: merge out megachunk `s - 2` (freeing its buffer),
            // chunk-sort `s - 1`, prefetch `s`. Within a step the merge-out
            // is emitted first so the stage-in's Recycle edge points
            // backward.
            for s in 0..n + 2 {
                if s >= 2 {
                    let m = s - 2;
                    let deps = vec![PlanEdge::new(chunk_sort[m], EdgeKind::Data)];
                    merge_out[m] = push(p, StageOut, Some(m), merge, elems(m), deps);
                }
                if (1..=n).contains(&s) {
                    let m = s - 1;
                    let deps = vec![PlanEdge::new(stage_in[m], EdgeKind::Data)];
                    chunk_sort[m] = push(p, Kernel, Some(m), sort, elems(m), deps);
                }
                if s < n {
                    let deps = (s >= 2)
                        .then(|| PlanEdge::new(merge_out[s - 2], EdgeKind::Recycle))
                        .into_iter()
                        .collect();
                    stage_in[s] = push(p, StageIn, Some(s), None, elems(s), deps);
                }
            }
            if n > 1 {
                let deps = merge_out
                    .iter()
                    .map(|&i| PlanEdge::new(i, EdgeKind::Data))
                    .collect();
                let fm = push(p, Kernel, None, final_merge, n_elems, deps);
                let deps = vec![PlanEdge::new(fm, EdgeKind::Data)];
                push(p, StageOut, None, None, n_elems, deps);
            }
        }
    }
    debug_assert_eq!(plan.validate(), Ok(()));
    debug_assert_eq!(plan.chunks, megachunks);
    debug_assert_eq!(plan.ring_slots == 2, structure == SortStructure::Buffered);

    SortPlan {
        structure,
        chunk_style,
        n_elems,
        mega_elems,
        megachunks,
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every node of `p`, decoded back into its phase.
    fn phases(p: &SortPlan) -> Vec<SortPhase> {
        (0..p.plan.nodes.len()).map(|i| p.phase(i)).collect()
    }

    #[test]
    fn mega_size_handles_ragged_tail() {
        assert_eq!(mega_size(10, 4, 0), 4);
        assert_eq!(mega_size(10, 4, 1), 4);
        assert_eq!(mega_size(10, 4, 2), 2);
        assert_eq!(mega_size(10, 4, 3), 0);
        assert_eq!(mega_size(4, 8, 0), 4);
    }

    #[test]
    fn staged_plan_covers_every_megachunk_then_merges() {
        let p = plan_sort(SortStructure::Staged, ChunkSortStyle::Serial, 10, 4);
        assert_eq!(p.megachunks, 3);
        assert_eq!(p.plan.ring_slots, 1);
        let phases = phases(&p);
        let megas: Vec<usize> = phases
            .iter()
            .filter_map(|ph| match ph {
                SortPhase::ChunkSort { mega, .. } => Some(*mega),
                _ => None,
            })
            .collect();
        assert_eq!(megas, vec![0, 1, 2]);
        assert!(matches!(
            phases[phases.len() - 2],
            SortPhase::FinalMerge { k: 3, elems: 10 }
        ));
        assert!(matches!(
            phases.last(),
            Some(SortPhase::FinalCopyBack { elems: 10 })
        ));
    }

    #[test]
    fn single_megachunk_needs_no_final_merge() {
        let p = plan_sort(SortStructure::Staged, ChunkSortStyle::Serial, 10, 100);
        assert_eq!(p.megachunks, 1);
        assert_eq!(p.mega_elems, 10, "megachunk clamps to the data size");
        assert!(!phases(&p)
            .iter()
            .any(|ph| matches!(ph, SortPhase::FinalMerge { .. })));
    }

    #[test]
    fn in_place_plan_copies_back_per_megachunk() {
        let p = plan_sort(SortStructure::InPlace, ChunkSortStyle::Serial, 8, 4);
        let kinds: Vec<&'static str> = phases(&p)
            .iter()
            .map(|ph| match ph {
                SortPhase::ChunkSort { .. } => "sort",
                SortPhase::MergeRuns { .. } => "merge",
                SortPhase::CopyBack { .. } => "copy",
                SortPhase::FinalMerge { .. } => "final",
                SortPhase::FinalCopyBack { .. } => "back",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["sort", "merge", "copy", "sort", "merge", "copy", "final", "back"]
        );
    }

    #[test]
    fn whole_plan_is_three_phases() {
        let p = plan_sort(SortStructure::Whole, ChunkSortStyle::Gnu, 100, 7);
        assert_eq!(phases(&p).len(), 3);
    }

    #[test]
    fn buffered_plan_is_staged_and_overlapped() {
        let p = plan_sort(SortStructure::Buffered, ChunkSortStyle::Serial, 10, 4);
        let q = plan_sort(SortStructure::Staged, ChunkSortStyle::Serial, 10, 4);
        assert_eq!(p.plan.ring_slots, 2);
        // The same phases as the staged plan, in pipeline-step order.
        let (bp, sp) = (phases(&p), phases(&q));
        assert_eq!(bp.len(), sp.len());
        assert!(sp.iter().all(|ph| bp.contains(ph)));
    }

    #[test]
    fn sequential_lowering_is_one_node_per_phase_in_order() {
        for structure in [
            SortStructure::Whole,
            SortStructure::Staged,
            SortStructure::InPlace,
        ] {
            let p = plan_sort(structure, ChunkSortStyle::Serial, 10, 4);
            let w = &p.plan;
            w.validate().unwrap();
            assert_eq!(w.family, "sort");
            let phases = phases(&p);
            assert_eq!(w.nodes.len(), phases.len(), "{structure:?}");
            // Strictly sequential: every node Seq-chains its predecessor,
            // so waves degenerate to one node each.
            assert!(
                crate::plan::waves(w).iter().all(|wave| wave.len() == 1),
                "{structure:?}"
            );
            for (node, phase) in w.nodes.iter().zip(&phases) {
                let expect = match phase {
                    SortPhase::StageIn { .. } => (PlanKind::StageIn, None),
                    SortPhase::ChunkSort { .. } => (PlanKind::Kernel, Some(SORT_KERNEL_CHUNK_SORT)),
                    SortPhase::MergeRuns { .. } => {
                        (PlanKind::StageOut, Some(SORT_KERNEL_MERGE_RUNS))
                    }
                    SortPhase::CopyBack { .. } => (PlanKind::StageOut, None),
                    SortPhase::ThreadSort { .. } => {
                        (PlanKind::Kernel, Some(SORT_KERNEL_THREAD_SORT))
                    }
                    SortPhase::ThreadMerge { .. } => {
                        (PlanKind::Kernel, Some(SORT_KERNEL_THREAD_MERGE))
                    }
                    SortPhase::FinalMerge { .. } => {
                        (PlanKind::Kernel, Some(SORT_KERNEL_FINAL_MERGE))
                    }
                    SortPhase::FinalCopyBack { .. } => (PlanKind::StageOut, None),
                };
                assert_eq!((node.kind, node.kernel), expect, "{structure:?} {phase:?}");
            }
        }
    }

    #[test]
    fn whole_lowering_is_all_global_nodes() {
        let w = plan_sort(SortStructure::Whole, ChunkSortStyle::Gnu, 100, 7).plan;
        assert!(w.nodes.iter().all(|n| n.chunk.is_none()));
        assert_eq!(w.nodes.len(), 3);
    }

    #[test]
    fn buffered_lowering_overlaps_prefetch_with_compute() {
        let p = plan_sort(SortStructure::Buffered, ChunkSortStyle::Serial, 16, 4);
        let w = p.plan;
        w.validate().unwrap();
        assert_eq!(w.ring_slots, 2);

        // Covers the same work as the sequential lowering: per megachunk
        // one stage-in, one chunk-sort, one merge-out, plus the final pair.
        let mut pairs: Vec<(PlanKind, Option<usize>)> =
            w.nodes.iter().map(|n| (n.kind, n.chunk)).collect();
        let mut expect: Vec<(PlanKind, Option<usize>)> = (0..4)
            .flat_map(|m| {
                [
                    (PlanKind::StageIn, Some(m)),
                    (PlanKind::Kernel, Some(m)),
                    (PlanKind::StageOut, Some(m)),
                ]
            })
            .chain([(PlanKind::Kernel, None), (PlanKind::StageOut, None)])
            .collect();
        pairs.sort_by_key(|(k, c)| (*c, *k as usize));
        expect.sort_by_key(|(k, c)| (*c, *k as usize));
        assert_eq!(pairs, expect);

        // Stage-in of megachunk m >= 2 recycles the buffer megachunk
        // m - 2's merge-out freed.
        for m in 2..4 {
            let si = w.find(PlanKind::StageIn, m).unwrap();
            assert_eq!(w.nodes[si].deps.len(), 1);
            assert_eq!(w.nodes[si].deps[0].kind, EdgeKind::Recycle);
            assert_eq!(w.nodes[w.nodes[si].deps[0].from].chunk, Some(m - 2));
        }

        // The final merge waits on every megachunk's merge-out.
        let fm = w
            .nodes
            .iter()
            .position(|n| n.kernel == Some(SORT_KERNEL_FINAL_MERGE))
            .unwrap();
        let dep_chunks: Vec<Option<usize>> = w.nodes[fm]
            .deps
            .iter()
            .map(|e| w.nodes[e.from].chunk)
            .collect();
        assert_eq!(dep_chunks, vec![Some(0), Some(1), Some(2), Some(3)]);

        // And waves genuinely overlap: megachunk 1's prefetch shares a
        // wave with megachunk 0's sort.
        let waves = crate::plan::waves(&w);
        let k0 = w.find(PlanKind::Kernel, 0).unwrap();
        let si1 = w.find(PlanKind::StageIn, 1).unwrap();
        assert!(
            waves
                .iter()
                .any(|wave| wave.contains(&k0) && wave.contains(&si1)),
            "{waves:?}"
        );
    }

    #[test]
    fn single_megachunk_buffered_lowering_has_no_final_pair() {
        let w = plan_sort(SortStructure::Buffered, ChunkSortStyle::Serial, 4, 8).plan;
        w.validate().unwrap();
        assert_eq!(w.nodes.len(), 3);
        assert!(w.nodes.iter().all(|n| n.chunk == Some(0)));
    }
}
