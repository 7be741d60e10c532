//! Real, correctness-checked implementations of the sort variants.
//!
//! Every variant's plan comes from the shared [`mlm_exec::plan_sort`] (the
//! same plan the sim lowering walks); [`run_sort_plan`] walks its waves on
//! real threads and buffers. Host memory has one level, so the explicit
//! "copy to MCDRAM" steps degenerate to buffer copies — but every
//! algorithmic step (megachunk split, per-thread serial sorts, multiway
//! merges, final merge) runs for real, which is what validates the sim
//! lowering's schedules and feeds the native Criterion benchmarks.

use mlm_exec::{plan_sort, waves, ChunkSortStyle, SortPhase, SortPlan, SortStructure};
use parsort::multiway::{multiway_merge_into, parallel_multiway_merge_into};
use parsort::parallel::{parallel_mergesort, sort_chunks_serial, split_borrows};
use parsort::pool::{parallel_copy, split_mut, split_range, WorkPool};

use super::SortAlgorithm;

/// Execution statistics of a host sort run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSortStats {
    /// Megachunks processed (1 when the megachunk covers the input).
    pub megachunks: usize,
    /// Serial chunk sorts performed.
    pub chunk_sorts: usize,
    /// Wall-clock duration.
    pub elapsed: std::time::Duration,
}

/// Walk a [`SortPlan`] on the host, one [`mlm_exec::waves`] wave at a
/// time; `elapsed` is left zero for [`run_host_sort`] to fill in.
///
/// Every megachunk structure stages through the plan's `ring_slots`
/// megachunk-sized buffers, indexed by the node's slot: staged plans copy
/// each megachunk into its buffer and sort it there; in-place plans sort
/// in `data`, merge out into the buffer, and copy back from it. The final
/// k-way merge frees the other slots and merges into slot 0's buffer,
/// grown to `data`'s size. A single-node wave has the pool to itself; a multi-node wave
/// (only [`SortStructure::Buffered`] plans emit them) overlaps megachunk
/// `m + 1`'s prefetch with `m`'s chunk sorts in one scoped task batch.
/// [`SortStructure::Whole`] plans collapse into the library's parallel
/// mergesort, which realises all three of their phases with its own
/// scratch.
fn run_sort_plan<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    plan: &SortPlan,
    data: &mut [T],
) -> HostSortStats {
    let n = data.len();
    assert_eq!(n as u64, plan.n_elems, "plan must be for this data length");
    let mut stats = HostSortStats {
        megachunks: plan.megachunks,
        chunk_sorts: 0,
        elapsed: std::time::Duration::ZERO,
    };
    if plan.structure == SortStructure::Whole {
        parallel_mergesort(pool, data);
        return stats;
    }

    let p = pool.threads();
    let mega_elems = plan.mega_elems as usize;
    let bounds = |m: usize| (m * mega_elems, ((m + 1) * mega_elems).min(n));
    // Sorted runs a megachunk's chunk sort leaves: one per thread for
    // serial chunk sorts, one for the GNU-style parallel sort.
    let runs_of = |elems: u64| match plan.chunk_style {
        ChunkSortStyle::Serial => p.min(elems as usize),
        ChunkSortStyle::Gnu => 1,
    };
    let in_place = plan.structure == SortStructure::InPlace;
    // Slot 0's buffer doubles as the final-merge scratch, so it reserves
    // `data`'s size and the final merge grows it in place. Reserved pages
    // stay untouched, and so not resident, until a wave writes them.
    let mut bufs: Vec<Vec<T>> = (0..plan.plan.ring_slots)
        .map(|slot| Vec::with_capacity(if slot == 0 { n } else { mega_elems }))
        .collect();

    for mut wave in waves(&plan.plan) {
        if let [i] = wave[..] {
            let slot = plan.plan.nodes[i].slot;
            match plan.phase(i) {
                SortPhase::StageIn { mega, .. } => {
                    let (lo, hi) = bounds(mega);
                    bufs[slot].resize(hi - lo, data[lo]);
                    parallel_copy(pool, &data[lo..hi], &mut bufs[slot]);
                }
                SortPhase::ChunkSort { mega, elems } => {
                    let (lo, hi) = bounds(mega);
                    let block = if in_place {
                        &mut data[lo..hi]
                    } else {
                        &mut bufs[slot][..]
                    };
                    match plan.chunk_style {
                        ChunkSortStyle::Serial => {
                            let parts = runs_of(elems);
                            stats.chunk_sorts += parts;
                            sort_chunks_serial(pool, split_mut(block, parts));
                        }
                        ChunkSortStyle::Gnu => parallel_mergesort(pool, block),
                    }
                }
                SortPhase::MergeRuns { mega, elems } => {
                    let (lo, hi) = bounds(mega);
                    let buf = &mut bufs[slot];
                    if in_place {
                        buf.resize(hi - lo, data[lo]);
                        let runs = split_borrows(&data[lo..hi], runs_of(elems));
                        parallel_multiway_merge_into(pool, &runs, buf);
                    } else {
                        let runs = split_borrows(buf, runs_of(elems));
                        parallel_multiway_merge_into(pool, &runs, &mut data[lo..hi]);
                    }
                }
                SortPhase::CopyBack { mega, .. } => {
                    let (lo, hi) = bounds(mega);
                    parallel_copy(pool, &bufs[slot], &mut data[lo..hi]);
                }
                SortPhase::FinalMerge { k, .. } => {
                    bufs.truncate(1);
                    bufs[0].resize(n, data[0]);
                    let runs: Vec<&[T]> = (0..k)
                        .map(|m| {
                            let (lo, hi) = bounds(m);
                            &data[lo..hi]
                        })
                        .collect();
                    parallel_multiway_merge_into(pool, &runs, &mut bufs[0]);
                }
                SortPhase::FinalCopyBack { .. } => parallel_copy(pool, &bufs[0], data),
                phase => unreachable!("{phase:?} belongs to whole-array plans"),
            }
            continue;
        }

        // A multi-node wave: a stage-in, a chunk sort and a merge-out on
        // distinct ring slots and megachunks, mutually independent. Hand
        // each node its slot's buffer and its megachunk's range of `data`
        // (walked in megachunk order, so the ranges carve off the front),
        // then run everything as one batch.
        let mut by_slot: Vec<Option<&mut Vec<T>>> = bufs.iter_mut().map(Some).collect();
        let mut rest: &mut [T] = data;
        let mut at = 0;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        wave.sort_by_key(|&i| plan.plan.nodes[i].chunk);
        for i in wave {
            let buf = by_slot[plan.plan.nodes[i].slot]
                .take()
                .expect("a wave uses each ring slot once");
            match plan.phase(i) {
                // Prefetch: split the staging copy a few ways so it shares
                // the pool with the sorts without monopolising it.
                SortPhase::StageIn { mega, .. } => {
                    let src: &[T] = carve(&mut rest, &mut at, bounds(mega));
                    buf.resize(src.len(), src[0]);
                    let copy_parts = 4.min(src.len());
                    let mut dst: &mut [T] = buf;
                    for t in 0..copy_parts {
                        let (s, e) = split_range(src.len(), copy_parts, t);
                        let (head, tail) = dst.split_at_mut(e - s);
                        dst = tail;
                        let sr = &src[s..e];
                        tasks.push(Box::new(move || head.copy_from_slice(sr)));
                    }
                }
                // One introsort task per chunk of the sorting megachunk.
                SortPhase::ChunkSort { elems, .. } => {
                    let parts = runs_of(elems);
                    stats.chunk_sorts += parts;
                    for chunk in split_mut(buf, parts) {
                        tasks.push(Box::new(move || parsort::serial::introsort(chunk)));
                    }
                }
                // The merge-out runs as one dedicated task: serial against
                // its wave-mates, overlapped with them on the pool.
                SortPhase::MergeRuns { mega, elems } => {
                    let dst = carve(&mut rest, &mut at, bounds(mega));
                    let runs = split_borrows(buf, runs_of(elems));
                    tasks.push(Box::new(move || multiway_merge_into(&runs, dst)));
                }
                phase => unreachable!("{phase:?} never shares a wave"),
            }
        }
        pool.scoped(tasks);
    }
    stats
}

/// Split `data[lo..hi]` off the front of `rest`, the tail of `data` that
/// starts at element `*at`.
fn carve<'a, T>(rest: &mut &'a mut [T], at: &mut usize, (lo, hi): (usize, usize)) -> &'a mut [T] {
    let (_, tail) = std::mem::take(rest).split_at_mut(lo - *at);
    let (range, tail) = tail.split_at_mut(hi - lo);
    *rest = tail;
    *at = hi;
    range
}

/// Sort `data` with the MLM-sort structure (paper §4): split into
/// megachunks of at most `megachunk_elems`; within each, one serial sort
/// per pool thread followed by a parallel multiway merge; finally a
/// parallel multiway merge across megachunks.
///
/// `explicit_copy = true` mirrors MLM-sort (the megachunk is staged through
/// a separate buffer, as flat-mode MCDRAM requires); `false` mirrors
/// MLM-implicit (sort in place, merge through scratch).
pub fn mlm_sort<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    data: &mut [T],
    megachunk_elems: usize,
    explicit_copy: bool,
) -> HostSortStats {
    let alg = if explicit_copy {
        SortAlgorithm::MlmSort
    } else {
        SortAlgorithm::MlmImplicit
    };
    run_host_sort(pool, alg, data, megachunk_elems)
}

/// The "basic algorithm" of §4: megachunks sorted with the *parallel*
/// mergesort (Bender et al.'s scheme), then a final multiway merge.
pub fn basic_chunked_sort<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    data: &mut [T],
    megachunk_elems: usize,
) -> HostSortStats {
    run_host_sort(pool, SortAlgorithm::BasicChunked, data, megachunk_elems)
}

/// MLM-sort with double-buffered megachunks (the paper's §6 future work):
/// while the pool sorts the chunks of megachunk `m` (staged in buffer
/// `m % 2`), it concurrently copies megachunk `m + 1` into the other
/// buffer, hiding the copy-in latency behind the sort phase.
pub fn mlm_sort_buffered<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    data: &mut [T],
    megachunk_elems: usize,
) -> HostSortStats {
    run_host_sort(pool, SortAlgorithm::MlmSortBuffered, data, megachunk_elems)
}

/// Dispatch a host-scale run of any Table-1 variant via its shared plan.
/// The MCDRAM *placement* differences vanish on the host (one memory
/// level); the *algorithmic* differences — GNU vs MLM structure, explicit
/// staging vs in-place, double buffering — are preserved.
pub fn run_host_sort<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    alg: SortAlgorithm,
    data: &mut [T],
    megachunk_elems: usize,
) -> HostSortStats {
    let start = std::time::Instant::now();
    let structure = alg.structure();
    if structure != SortStructure::Whole {
        assert!(megachunk_elems > 0, "megachunk must be positive");
    }
    let n = data.len();
    if n < 2 {
        return HostSortStats {
            megachunks: if structure == SortStructure::Whole {
                1
            } else {
                n.min(1)
            },
            chunk_sorts: 0,
            elapsed: start.elapsed(),
        };
    }
    // Whole-array variants ignore the megachunk knob.
    let mega = if structure == SortStructure::Whole {
        n
    } else {
        megachunk_elems
    };
    let plan = plan_sort(structure, alg.chunk_style(), n as u64, mega as u64);
    // Sort first: a struct expression evaluates its named fields before
    // the `..base`, so inlining the walker there would stop the clock early.
    let stats = run_sort_plan(pool, &plan, data);
    HostSortStats {
        elapsed: start.elapsed(),
        ..stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_keys, InputOrder};
    use parsort::serial::is_sorted;

    fn check_full_sort(alg: SortAlgorithm, n: usize, mega: usize, order: InputOrder) {
        let pool = WorkPool::new(4);
        let mut v = generate_keys(n, order, 42);
        let mut expect = v.clone();
        expect.sort_unstable();
        let stats = run_host_sort(&pool, alg, &mut v, mega);
        assert_eq!(v, expect, "{alg:?} n={n} mega={mega} {order:?}");
        assert!(stats.elapsed.as_nanos() > 0 || n < 2);
    }

    #[test]
    fn every_variant_sorts_random_input() {
        for alg in SortAlgorithm::TABLE1 {
            check_full_sort(alg, 10_000, 3_000, InputOrder::Random);
        }
        check_full_sort(
            SortAlgorithm::BasicChunked,
            10_000,
            3_000,
            InputOrder::Random,
        );
    }

    #[test]
    fn every_variant_sorts_reverse_input() {
        for alg in SortAlgorithm::TABLE1 {
            check_full_sort(alg, 8_192, 1_000, InputOrder::Reverse);
        }
    }

    #[test]
    fn mlm_sort_explicit_and_implicit_agree() {
        let pool = WorkPool::new(4);
        let base = generate_keys(50_000, InputOrder::Random, 7);
        let mut a = base.clone();
        let mut b = base.clone();
        mlm_sort(&pool, &mut a, 12_000, true);
        mlm_sort(&pool, &mut b, 12_000, false);
        assert_eq!(a, b);
        assert!(is_sorted(&a));
    }

    #[test]
    fn megachunk_equal_to_input_is_single_chunk() {
        let pool = WorkPool::new(4);
        let mut v = generate_keys(5_000, InputOrder::Random, 3);
        let stats = mlm_sort(&pool, &mut v, 5_000, false);
        assert_eq!(stats.megachunks, 1);
        assert!(is_sorted(&v));
    }

    #[test]
    fn megachunk_larger_than_input_is_fine() {
        let pool = WorkPool::new(2);
        let mut v = generate_keys(1_000, InputOrder::Random, 3);
        let stats = mlm_sort(&pool, &mut v, 1 << 30, true);
        assert_eq!(stats.megachunks, 1);
        assert!(is_sorted(&v));
    }

    #[test]
    fn tiny_and_empty_inputs() {
        let pool = WorkPool::new(4);
        let mut v: Vec<i64> = vec![];
        mlm_sort(&pool, &mut v, 10, true);
        let mut v = vec![5i64];
        mlm_sort(&pool, &mut v, 10, false);
        assert_eq!(v, [5]);
        let mut v = vec![2i64, 1];
        mlm_sort(&pool, &mut v, 1, true);
        assert_eq!(v, [1, 2]);
    }

    #[test]
    fn ragged_megachunks_sort_correctly() {
        let pool = WorkPool::new(3);
        let mut v = generate_keys(10_007, InputOrder::Random, 9);
        let mut expect = v.clone();
        expect.sort_unstable();
        let stats = mlm_sort(&pool, &mut v, 3_000, true);
        assert_eq!(stats.megachunks, 4);
        assert_eq!(v, expect);
    }

    #[test]
    fn chunk_sort_count_matches_structure() {
        let pool = WorkPool::new(4);
        let mut v = generate_keys(8_000, InputOrder::Random, 1);
        let stats = mlm_sort(&pool, &mut v, 2_000, true);
        assert_eq!(stats.megachunks, 4);
        assert_eq!(stats.chunk_sorts, 16, "4 megachunks x 4 pool threads");
        for (alg, chunk_sorts) in [
            (SortAlgorithm::MlmImplicit, 16),
            (SortAlgorithm::MlmDdr, 16),
            (SortAlgorithm::MlmSortBuffered, 16),
            // GNU-style chunk sorts are parallel mergesorts, not serial.
            (SortAlgorithm::BasicChunked, 0),
        ] {
            let mut v = generate_keys(8_000, InputOrder::Random, 1);
            let stats = run_host_sort(&pool, alg, &mut v, 2_000);
            assert_eq!(stats.megachunks, 4, "{alg:?}");
            assert_eq!(stats.chunk_sorts, chunk_sorts, "{alg:?}");
        }
    }

    #[test]
    fn elapsed_covers_the_sort() {
        let pool = WorkPool::new(4);
        for alg in [SortAlgorithm::MlmSort, SortAlgorithm::MlmSortBuffered] {
            let mut v = generate_keys(300_000, InputOrder::Random, 5);
            let start = std::time::Instant::now();
            let stats = run_host_sort(&pool, alg, &mut v, 50_000);
            let outside = start.elapsed();
            assert!(is_sorted(&v));
            assert!(
                stats.elapsed * 2 >= outside,
                "{alg:?}: reported {:?} of a {outside:?} call",
                stats.elapsed
            );
        }
    }

    #[test]
    fn duplicates_survive_all_variants() {
        let pool = WorkPool::new(4);
        for alg in SortAlgorithm::TABLE1 {
            let input: Vec<i64> = (0..9_999).map(|i| i % 13).collect();
            let twelves = input.iter().filter(|&&x| x == 12).count();
            let mut v = input;
            run_host_sort(&pool, alg, &mut v, 2_500);
            assert!(is_sorted(&v));
            assert_eq!(v.iter().filter(|&&x| x == 12).count(), twelves, "{alg:?}");
        }
    }

    #[test]
    fn buffered_variant_sorts_correctly() {
        let pool = WorkPool::new(4);
        for (n, mega) in [
            (50_000usize, 12_000usize),
            (10_007, 2_000),
            (1_000, 1 << 20),
        ] {
            for order in [InputOrder::Random, InputOrder::Reverse] {
                let mut v = generate_keys(n, order, 17);
                let mut expect = v.clone();
                expect.sort_unstable();
                let stats = mlm_sort_buffered(&pool, &mut v, mega);
                assert_eq!(v, expect, "n={n} mega={mega} {order:?}");
                assert_eq!(stats.megachunks, n.div_ceil(mega));
            }
        }
    }

    #[test]
    fn buffered_variant_matches_plain_mlm_sort() {
        let pool = WorkPool::new(6);
        let base = generate_keys(60_000, InputOrder::Random, 23);
        let mut a = base.clone();
        let mut b = base;
        mlm_sort(&pool, &mut a, 14_000, true);
        mlm_sort_buffered(&pool, &mut b, 14_000);
        assert_eq!(a, b);
    }

    #[test]
    fn plan_interpreter_handles_every_structure_directly() {
        let pool = WorkPool::new(4);
        for (structure, style) in [
            (SortStructure::Whole, ChunkSortStyle::Gnu),
            (SortStructure::Staged, ChunkSortStyle::Serial),
            (SortStructure::Staged, ChunkSortStyle::Gnu),
            (SortStructure::InPlace, ChunkSortStyle::Serial),
            (SortStructure::Buffered, ChunkSortStyle::Serial),
        ] {
            let mut v = generate_keys(10_007, InputOrder::Random, 31);
            let mut expect = v.clone();
            expect.sort_unstable();
            let plan = plan_sort(structure, style, v.len() as u64, 3_000);
            let stats = run_sort_plan(&pool, &plan, &mut v);
            assert_eq!(v, expect, "{structure:?}/{style:?}");
            assert_eq!(stats.megachunks, plan.megachunks);
        }
    }
}
