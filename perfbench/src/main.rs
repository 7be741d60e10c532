//! The repository benchmark: four seeded workloads, one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! measures the same passes untraced and traced, then reports the
//! per-layer metrics from the spans (see `README.md` beside this crate).
//! Every output of every pass is checked; the last stdout line is one JSON
//! object, and the exit code is non-zero when any check failed.

mod fleet;
mod host;
mod measure;
mod metrics;
mod papersim;
mod tracing;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mlm_fleet::PlacementPolicy;

use crate::measure::{median, per_pass, Unit};
use crate::tracing::Tracer;

/// Workload names, indexed by workload id.
pub const WORKLOADS: [&str; 4] = [
    "fleet-least-loaded",
    "fleet-first-fit",
    "paper-sim",
    "host-pipeline",
];

/// The seed the recorded fleet decision digests belong to.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per run: at least [`MIN_SETUPS`], and until [`SETUP_SECS`]
/// have elapsed; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const SETUP_SECS: f64 = 0.25;
const SETUP_BATCH_SECS: f64 = 0.01;

/// Fewest timed passes per measured phase, however long they take.
const MIN_PASSES: usize = 3;

/// Input scale: `Full` for measurement, `Tiny` for self-tests and for the
/// companion passes of a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// A workload-specific figure for the report.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Report `value / wall_s` instead of `value`.
    pub per_wall_s: bool,
}

/// What one pass over a workload's inputs did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Requests submitted: fleet jobs, simulated programs or host runs.
    pub jobs: u64,
    /// Outputs checked.
    pub checked: u64,
    /// Checked outputs that were wrong (or requests that failed).
    pub failed: u64,
    /// Workload-specific figures.
    pub figures: Vec<Figure>,
    /// The pass's timed requests.
    pub units: Vec<Unit>,
}

impl Pass {
    /// Record one check of an output.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Run the next request, recording it in [`Self::units`].
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.timed_as(self.units.len(), f)
    }

    /// Run request `id`, recording it in [`Self::units`].
    pub fn timed_as<R>(&mut self, id: usize, f: impl FnOnce() -> R) -> R {
        let (r, unit) = measure::timed(id, f);
        self.units.push(unit);
        r
    }
}

/// A workload with its generated inputs.
pub trait Workload {
    /// One pass over the inputs, every output checked.
    fn pass(&mut self, tr: &mut Tracer) -> Pass;
    /// Extra calls whose per-call cost the traced run reports (layer
    /// probes and single-layer baselines); never part of `wall_s`.
    fn probe(&mut self, tr: &mut Tracer) -> Pass;
}

/// Generate workload `id`'s inputs from `seed`.
pub fn setup(id: usize, seed: u64, size: Size, tr: &mut Tracer) -> Box<dyn Workload> {
    match id {
        0 => Box::new(fleet::Fleet::new(
            PlacementPolicy::LeastLoaded,
            seed,
            size,
            tr,
        )),
        1 => Box::new(fleet::Fleet::new(PlacementPolicy::FirstFit, seed, size, tr)),
        2 => Box::new(papersim::PaperSim::new(seed, size)),
        3 => Box::new(host::HostPipeline::new(seed, size, tr)),
        _ => unreachable!("workload id {id}"),
    }
}

/// Checks and requests summed over a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub checked: u64,
    pub failed: u64,
    /// The last pass, for its per-pass counts and figures.
    pub last: Pass,
}

impl Tally {
    fn add(&mut self, p: Pass) {
        self.checked += p.checked;
        self.failed += p.failed;
        self.last = p;
    }
    fn add_checks(&mut self, p: &Pass) {
        self.checked += p.checked;
        self.failed += p.failed;
    }
}

/// Run passes until `budget` has elapsed and at least [`MIN_PASSES`] ran;
/// returns each pass's requests, by id.
fn timed_passes(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    budget: Duration,
    tally: &mut Tally,
) -> Vec<Vec<Unit>> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_PASSES || t0.elapsed() < budget {
        tr.begin("bench", "pass");
        let mut p = w.pass(tr);
        tr.end();
        let mut units = std::mem::take(&mut p.units);
        units.sort_by_key(|u| u.id);
        samples.push(units);
        tally.add(p);
    }
    samples
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set workload `id` up repeatedly; returns the last set-up and the
/// median set-up seconds, raw and scaled to the reference speed. Set-ups
/// shorter than [`SETUP_BATCH_SECS`] are timed in back-to-back batches.
fn timed_setup(id: usize, seed: u64) -> (Box<dyn Workload>, f64, f64) {
    let t0 = Instant::now();
    let mut units = Vec::new();
    let mut last = None;
    while units.len() < MIN_SETUPS || t0.elapsed().as_secs_f64() < SETUP_SECS {
        drop(last.take());
        let (count, mut unit) = measure::timed(0, || {
            let t = Instant::now();
            let mut count = 0;
            while count == 0 || t.elapsed().as_secs_f64() < SETUP_BATCH_SECS {
                last = Some(setup(id, seed, Size::Full, &mut Tracer::off()));
                count += 1;
            }
            count
        });
        unit.secs /= f64::from(count);
        units.push(vec![unit]);
    }
    let w = last.expect("at least one set-up");
    (
        w,
        per_pass(&units, |u| u.secs),
        per_pass(&units, Unit::scaled),
    )
}

/// The end-to-end metrics, with their units.
pub const E2E: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
];

/// A metric line for the result.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Run one workload; returns the result line's metrics and the tally.
fn run(id: usize, seed: u64, seconds: f64, trace: bool) -> (Vec<Metric>, Tally) {
    let mut tr = Tracer::off();
    tr.workload = id;
    let (mut w, raw_setup_s, setup_s) = if trace {
        tr.set_on(true);
        tr.begin("bench", "setup");
        let w = setup(id, seed, Size::Full, &mut tr);
        tr.end();
        tr.set_on(false);
        (w, f64::NAN, f64::NAN)
    } else {
        timed_setup(id, seed)
    };
    let mut tally = Tally::default();
    // Warm-up: checked, not timed.
    let p = w.pass(&mut tr);
    tally.add(p);

    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let samples = timed_passes(&mut *w, &mut tr, budget, &mut tally);
    let wall_s = per_pass(&samples, Unit::scaled);
    let jobs = tally.last.jobs as f64;

    if !trace {
        let raw: Vec<f64> = samples
            .iter()
            .map(|s| s.iter().map(|u| u.secs).sum())
            .collect();
        let reference = median(
            &samples
                .iter()
                .flatten()
                .map(|u| u.reference * 1e3)
                .collect::<Vec<_>>(),
        );
        println!(
            "{}: {} timed passes of {} jobs; raw wall seconds per pass {:.3?}",
            WORKLOADS[id],
            samples.len(),
            jobs,
            raw
        );
        println!(
            "  reference kernel {reference:.3} ms (nominal {:.3}); raw wall_s {:.4}, raw setup_s {raw_setup_s:.6}",
            measure::REFERENCE_NOMINAL_S * 1e3,
            per_pass(&samples, |u| u.secs)
        );
        for f in &tally.last.figures {
            let v = if f.per_wall_s {
                f.value / wall_s
            } else {
                f.value
            };
            println!("  {:<36} {:>14.6} {}", f.name, v, f.unit);
        }
        let values = [wall_s, setup_s, peak_rss_mb(), jobs / wall_s];
        let metrics = E2E
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect();
        return (metrics, tally);
    }

    tr.set_on(true);
    let traced = timed_passes(&mut *w, &mut tr, budget, &mut tally);
    let p = w.probe(&mut tr);
    tally.add_checks(&p);
    // Companion passes: every other workload once at tiny size, so each
    // layer this workload never reaches still gets measured.
    for other in (0..WORKLOADS.len()).filter(|&o| o != id) {
        tr.workload = other;
        tr.begin("bench", "setup");
        let mut c = setup(other, seed, Size::Tiny, &mut tr);
        tr.end();
        tr.begin("bench", "pass");
        let p = c.pass(&mut tr);
        tr.end();
        tally.add_checks(&p);
        let p = c.probe(&mut tr);
        tally.add_checks(&p);
    }
    tr.set_on(false);
    println!(
        "{}: {} untraced and {} traced passes, {} spans",
        WORKLOADS[id],
        samples.len(),
        traced.len(),
        tr.spans().len()
    );
    write_chrome_trace(&tr, id, seed);
    let overhead = per_pass(&traced, Unit::scaled) - wall_s;
    (metrics::per_layer(&tr, id, overhead), tally)
}

/// Write the spans beside the crate, in `out/`.
fn write_chrome_trace(tr: &Tracer, id: usize, seed: u64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{seed}.json", WORKLOADS[id]));
    match std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, tr.chrome_json(&WORKLOADS)))
    {
        Ok(()) => println!("  chrome trace: {}", path.display()),
        Err(e) => eprintln!("  chrome trace not written: {e}"),
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(metrics: &[Metric], tally: &Tally) -> String {
    use serde::value::Value;
    let m = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Map(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let doc = Value::Map(vec![
        ("correct".into(), Value::Bool(tally.failed == 0)),
        ("attempted".into(), Value::U64(tally.checked)),
        ("failed".into(), Value::U64(tally.failed)),
        ("metrics".into(), Value::Map(m)),
    ]);
    serde_json::to_string(&tracing::Json(doc)).expect("result serializes")
}

struct Args {
    workloads: Vec<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" if val == "all" => args.workloads = (0..WORKLOADS.len()).collect(),
            "--workload" => {
                let id = WORKLOADS.iter().position(|w| *w == val).ok_or_else(|| {
                    format!("unknown workload {val}; one of {WORKLOADS:?} or all")
                })?;
                args.workloads = vec![id];
            }
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = val.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for &id in &args.workloads {
        let (metrics, tally) = run(id, args.seed, args.seconds, args.trace);
        for m in &metrics {
            println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
        }
        let failed_frac = tally.failed as f64 / tally.checked.max(1) as f64;
        println!(
            "  {:<36} {:>14.6} (of {} checked)",
            "failed_frac", failed_frac, tally.checked
        );
        all_correct &= tally.failed == 0;
        println!("{}", result_json(&metrics, &tally));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload at tiny size: a pass and a probe with no failed check,
    /// and every per-layer metric present and finite.
    #[test]
    fn every_workload_runs_tiny_and_reports_every_metric() {
        let mut tr = Tracer::off();
        tr.set_on(true);
        for (id, name) in WORKLOADS.iter().enumerate() {
            tr.workload = id;
            tr.begin("bench", "setup");
            let mut w = setup(id, DEFAULT_SEED, Size::Tiny, &mut tr);
            tr.end();
            tr.begin("bench", "pass");
            let p = w.pass(&mut tr);
            tr.end();
            assert!(p.checked > 0 && p.jobs > 0 && !p.units.is_empty(), "{name}");
            assert_eq!(p.failed, 0, "{name}");
            let q = w.probe(&mut tr);
            assert_eq!(q.failed, 0, "{name} probe");
        }
        for (id, name) in WORKLOADS.iter().enumerate() {
            let ms = metrics::per_layer(&tr, id, 0.0);
            assert_eq!(ms.len(), metrics::PER_LAYER.len());
            for m in &ms {
                assert!(m.value.is_finite() && m.value >= 0.0, "{name} {}", m.name);
            }
        }
    }

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        use serde::value::Value;
        struct Doc(Value);
        impl serde::Deserialize for Doc {
            fn from_value(v: &Value) -> Result<Self, serde::DeError> {
                Ok(Doc(v.clone()))
            }
        }
        let doc = serde_json::from_str::<Doc>(include_str!("../../BENCHMARK.json"))
            .unwrap()
            .0;
        let names = |key: &str| -> Vec<String> {
            let Some(Value::Seq(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| match m.get("name") {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}: bad name {other:?}"),
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(names("end_to_end"), E2E.map(|(n, _)| n));
        let per_layer: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names("per_layer"), per_layer);
    }
}
