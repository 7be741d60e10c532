//! Per-layer metrics, computed from a traced run's spans and counters.
//!
//! A metric is read from the workload's own spans and counters when the
//! workload produces them; otherwise from the first companion workload that
//! does (a traced run also passes every other workload once at tiny size),
//! so every metric is measured on every workload. `layer.self_s` covers
//! the layers called inside passes; `mlm-serve` and `parsort` are called
//! only by probes and are read per call instead.

use crate::tracing::Tracer;
use crate::{Metric, WORKLOADS};

/// How a metric is read off the trace.
#[derive(Debug, Clone, Copy)]
enum Read {
    /// Mean seconds per call of these functions, times a scale.
    PerCall(&'static [&'static str], f64),
    /// Seconds per pass in these functions (calls made inside a pass).
    PerPass(&'static [&'static str]),
    /// Counter sum per pass.
    Count,
    /// Counter maximum.
    Max,
    /// Nanoseconds of `knl-sim` run time per engine event.
    NsPerEvent,
    /// The layer's self time per pass.
    SelfTime,
    /// Traced minus untraced `wall_s`.
    Overhead,
    /// Spans recorded inside passes, per pass.
    Spans,
}

/// One per-layer metric.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    read: Read,
}

const fn m(name: &'static str, unit: &'static str, read: Read) -> PerLayer {
    PerLayer { name, unit, read }
}

const LOWER: &[&str] = &["build_sort_program", "merge_bench_program", "build_program"];

/// Every per-layer metric, in report order.
pub const PER_LAYER: &[PerLayer] = &[
    m(
        "mlm-fleet.fleet_serve_s",
        "s",
        Read::PerCall(&["fleet_serve"], 1.0),
    ),
    m(
        "mlm-fleet.fleet_trace_s",
        "s",
        Read::PerCall(&["fleet_trace"], 1.0),
    ),
    m("mlm-fleet.place_us", "us", Read::PerCall(&["place"], 1e6)),
    m("mlm-fleet.steals_per_job", "1/job", Read::Count),
    m("mlm-fleet.decisions", "count", Read::Count),
    m("mlm-fleet.self_s", "s", Read::SelfTime),
    m(
        "mlm-serve.retune_us",
        "us",
        Read::PerCall(&["retune_and_allocate"], 1e6),
    ),
    m(
        "mlm-serve.profile_us",
        "us",
        Read::PerCall(&["profile"], 1e6),
    ),
    m("mlm-serve.mean_queue_wait_s", "s", Read::Count),
    m("knl-sim.run_s", "s", Read::PerPass(&["run_stats"])),
    m("knl-sim.ns_per_event", "ns", Read::NsPerEvent),
    m("knl-sim.events", "count", Read::Count),
    m("knl-sim.rate_epochs", "count", Read::Count),
    m("knl-sim.stale_pops", "count", Read::Count),
    m("knl-sim.heap_peak", "count", Read::Max),
    m("knl-sim.self_s", "s", Read::SelfTime),
    m("mlm-core.lower_s", "s", Read::PerPass(LOWER)),
    m(
        "mlm-core.host_sort_s",
        "s",
        Read::PerCall(&["run_host_sort"], 1.0),
    ),
    m(
        "mlm-core.host_map_lockstep_s",
        "s",
        Read::PerCall(&["run_host_pipeline/lockstep"], 1.0),
    ),
    m(
        "mlm-core.host_map_dataflow_s",
        "s",
        Read::PerCall(&["run_host_pipeline/dataflow"], 1.0),
    ),
    m(
        "mlm-core.host_stencil_s",
        "s",
        Read::PerCall(&["run_host_stencil"], 1.0),
    ),
    m("mlm-core.copy_in_busy_frac", "frac", Read::Count),
    m("mlm-core.compute_busy_frac", "frac", Read::Count),
    m("mlm-core.copy_out_busy_frac", "frac", Read::Count),
    m("mlm-core.copy_in_wait_s", "s", Read::Count),
    m("mlm-core.compute_wait_s", "s", Read::Count),
    m("mlm-core.copy_out_wait_s", "s", Read::Count),
    m("mlm-core.self_s", "s", Read::SelfTime),
    m(
        "mlm-exec.plan_us",
        "us",
        Read::PerCall(&["plan_pipeline"], 1e6),
    ),
    m(
        "mlm-exec.verify_ms",
        "ms",
        Read::PerCall(&["verify_spec"], 1e3),
    ),
    m("mlm-exec.self_s", "s", Read::SelfTime),
    m(
        "parsort.mergesort_s",
        "s",
        Read::PerCall(&["parallel_mergesort"], 1.0),
    ),
    m(
        "parsort.introsort_single_s",
        "s",
        Read::PerCall(&["introsort"], 1.0),
    ),
    m("bench.self_s", "s", Read::SelfTime),
    m("bench.trace_overhead_s", "s", Read::Overhead),
    m("bench.spans", "count", Read::Spans),
];

/// The per-layer metrics of workload `id`; `overhead` is traced minus
/// untraced seconds per pass.
pub fn per_layer(tr: &Tracer, id: usize, overhead: f64) -> Vec<Metric> {
    let spans = tr.spans();
    let own = tr.self_secs();
    // The root span ("pass" or "setup") a span was made under, if any.
    let under = |i: usize| spans[i].parent.map(|p| spans[p].name);
    PER_LAYER
        .iter()
        .map(|pl| {
            let layer = pl.name.split('.').next().expect("layer.metric");
            let of = |w: usize| {
                spans
                    .iter()
                    .enumerate()
                    .filter(move |(_, s)| s.workload == w && s.layer == layer)
            };
            let calls = |w: usize, names: &'static [&'static str]| {
                of(w).filter(move |(_, s)| names.contains(&s.name))
            };
            let counter = |w: usize, name: &str| tr.counter(w, name);
            let produces = |w: usize| match pl.read {
                Read::PerCall(names, _) | Read::PerPass(names) => calls(w, names).next().is_some(),
                Read::Count | Read::Max => counter(w, pl.name).is_some(),
                Read::NsPerEvent => counter(w, "knl-sim.events").is_some(),
                Read::SelfTime => of(w).any(|(i, s)| under(i) == Some("pass") || s.name == "pass"),
                Read::Overhead | Read::Spans => w == id,
            };
            let src = std::iter::once(id)
                .chain(0..WORKLOADS.len())
                .find(|&w| produces(w))
                .unwrap_or(id);
            let passes = spans
                .iter()
                .filter(|s| s.workload == src && s.layer == "bench" && s.name == "pass")
                .count()
                .max(1) as f64;
            let sum_under = |names: &'static [&'static str], root: &str| -> f64 {
                calls(src, names)
                    .filter(|&(i, _)| under(i) == Some(root))
                    .map(|(_, s)| s.secs())
                    .sum()
            };
            let value = match pl.read {
                Read::PerCall(names, scale) => {
                    let (t, n) =
                        calls(src, names).fold((0.0, 0), |(t, n), (_, s)| (t + s.secs(), n + 1));
                    t / f64::from(n.max(1)) * scale
                }
                Read::PerPass(names) => sum_under(names, "pass") / passes,
                Read::Count => counter(src, pl.name).unwrap_or_default().sum / passes,
                Read::Max => counter(src, pl.name).unwrap_or_default().max,
                Read::NsPerEvent => {
                    let events = counter(src, "knl-sim.events").unwrap_or_default().sum;
                    sum_under(&["run_stats"], "pass") / events.max(1.0) * 1e9
                }
                Read::SelfTime => {
                    of(src)
                        .filter(|&(i, s)| under(i) == Some("pass") || s.name == "pass")
                        .map(|(i, _)| own[i])
                        .sum::<f64>()
                        / passes
                }
                Read::Overhead => overhead,
                Read::Spans => {
                    (0..spans.len())
                        .filter(|&i| spans[i].workload == src && under(i) == Some("pass"))
                        .count() as f64
                        / passes
                }
            };
            Metric {
                name: pl.name,
                unit: pl.unit,
                value,
            }
        })
        .collect()
}
