//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is one call into a workspace crate's public function, made from
//! the benchmark's own code: its layer (the crate), the function, start and
//! end, the span that caused it (the workload pass it ran under, if any) and
//! the workload it belongs to. Counters taken at the same boundaries (the
//! engine's event counts, the host stage busy/wait, ...) sit beside them.
//! With tracing off every hook is a plain call: no clock reads, no pushes.

use std::collections::HashMap;
use std::time::Instant;

use serde::value::Value;
use serde::Serialize;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Crate the call went into (`"knl-sim"`), or `"bench"` for a pass.
    pub layer: &'static str,
    /// Function called (`"run_stats"`), or `"pass"`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was made.
    pub start: u64,
    /// Nanoseconds since the tracer was made.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the workload the call was made for.
    pub workload: usize,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// Span and counter recorder; inert until switched on.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Workload that new spans and counters are charged to.
    pub workload: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: HashMap<(usize, &'static str), Counter>,
}

/// Running sum and maximum of one counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    pub sum: f64,
    pub max: f64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            workload: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counters: HashMap::new(),
        }
    }

    /// Start or stop recording.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that later spans nest under; close it with [`Self::end`].
    pub fn begin(&mut self, layer: &'static str, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            layer,
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            workload: self.workload,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost span opened by [`Self::begin`].
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end = end;
    }

    /// Run `f` as one call into `layer`.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.begin(layer, name);
        let r = f();
        self.end();
        r
    }

    /// Add `value` to the counter `name` of the current workload.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if !self.on {
            return;
        }
        let c = self.counters.entry((self.workload, name)).or_default();
        c.sum += value;
        c.max = c.max.max(value);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The counter `name` of workload `w`, if it was ever taken.
    pub fn counter(&self, w: usize, name: &str) -> Option<Counter> {
        self.counters
            .iter()
            .find(|((cw, n), _)| *cw == w && *n == name)
            .map(|(_, c)| *c)
    }

    /// Per-span self time: its duration minus the time its children cover.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): one complete event per span, thread = workload.
    pub fn chrome_json(&self, workloads: &[&str]) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str(s.layer.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::F64(s.start as f64 / 1e3)),
                    ("dur".into(), Value::F64((s.end - s.start) as f64 / 1e3)),
                    ("pid".into(), Value::U64(1)),
                    ("tid".into(), Value::U64(s.workload as u64)),
                    (
                        "args".into(),
                        Value::Map(vec![
                            ("id".into(), Value::U64(i as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                            ),
                            ("workload".into(), Value::Str(workloads[s.workload].into())),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Map(vec![("traceEvents".into(), Value::Seq(events))]);
        serde_json::to_string(&Json(doc)).expect("trace document serializes")
    }
}

/// A ready-made value tree, serializable as itself.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_still_calls() {
        let mut tr = Tracer::off();
        let v = tr.span("knl-sim", "run", || 7);
        tr.count("knl-sim.events", 3.0);
        tr.begin("bench", "pass");
        tr.end();
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
        assert!(tr.counter(0, "knl-sim.events").is_none());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::off();
        tr.set_on(true);
        tr.workload = 2;
        tr.begin("bench", "pass");
        tr.span("knl-sim", "run", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.end();
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].workload, 2);
        let own = tr.self_secs();
        assert!((own[0] + own[1] - spans[0].secs()).abs() < 1e-9);
        assert!(own[1] >= 0.002);
    }

    #[test]
    fn chrome_trace_parses_back() {
        let mut tr = Tracer::off();
        tr.set_on(true);
        tr.span("parsort", "introsort", || ());
        let doc: Value = {
            struct Any(Value);
            impl serde::Deserialize for Any {
                fn from_value(v: &Value) -> Result<Self, serde::DeError> {
                    Ok(Any(v.clone()))
                }
            }
            serde_json::from_str::<Any>(&tr.chrome_json(&["w0"]))
                .unwrap()
                .0
        };
        let Some(Value::Seq(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("cat"), Some(&Value::Str("parsort".into())));
        assert_eq!(events[0].get("ph"), Some(&Value::Str("X".into())));
    }
}
