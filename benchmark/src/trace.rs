//! Span recording for the traced run.
//!
//! The benchmark instruments only its own files: a span wraps each call it
//! makes into a layer. Spans are held in memory and written to
//! `benchmark/out/trace.json` when the run ends; with tracing off every
//! method here is a branch on a bool and records nothing.

use std::time::Instant;

use serde::Value;

use crate::report::object;
use crate::stats::Samples;

/// One recorded span. `parent == 0` marks a root; spans of one operation
/// share `op` (the operation's index in its thread's sequence).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. Ids are unique across threads because each
/// recorder numbers from its own `lane << 40`.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    lane: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `lane`; `origin` is the shared time zero.
    #[must_use]
    pub fn new(enabled: bool, origin: Instant, lane: u64) -> Self {
        Self {
            enabled,
            origin,
            lane,
            spans: Vec::new(),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; returns its id (0 when tracing is off).
    pub fn begin(&mut self, name: &'static str, parent: u64, op: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = (self.lane << 40) | (self.spans.len() as u64 + 1);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close span `id`.
    pub fn end(&mut self, id: u64) {
        if !self.enabled {
            return;
        }
        let index = (id & ((1 << 40) - 1)) as usize - 1;
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Add a span whose start and end were timed by the caller; returns its
    /// id (0 when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.begin(name, parent, op);
        if id != 0 {
            let span = self.spans.last_mut().expect("begin pushed a span");
            span.start_ns = start.duration_since(self.origin).as_nanos() as u64;
            span.end_ns = end.duration_since(self.origin).as_nanos() as u64;
        }
        id
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Move another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Samples {
        let mut samples = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            samples.push(std::time::Duration::from_nanos(s.end_ns - s.start_ns));
        }
        samples
    }

    /// The spans as the JSON array written to `trace.json`.
    #[must_use]
    pub fn to_json(&self, workload: &str) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    object(vec![
                        ("id", Value::U64(s.id)),
                        ("parent", Value::U64(s.parent)),
                        ("name", Value::Str(s.name.into())),
                        ("workload", Value::Str(workload.into())),
                        ("op", Value::U64(s.op)),
                        ("start_ns", Value::U64(s.start_ns)),
                        ("end_ns", Value::U64(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// One line of a stage budget: a stage, how many times it runs per
/// end-to-end unit, and its median.
#[derive(Debug, Clone)]
pub struct Stage {
    pub name: String,
    pub per_unit: f64,
    pub p50_us: f64,
    pub samples: usize,
}

/// A workload's stage budget: the stages' medians, their sum, the
/// end-to-end median they should add up to, and the gap between the two.
#[derive(Debug, Clone)]
pub struct Budget {
    pub workload: String,
    pub unit: String,
    pub stages: Vec<Stage>,
    pub end_to_end_p50_us: f64,
}

/// A gap above this share of the end-to-end median is printed as a finding.
pub const GAP_FINDING_SHARE: f64 = 0.15;

impl Budget {
    #[must_use]
    pub fn stage_sum_us(&self) -> f64 {
        self.stages.iter().map(|s| s.per_unit * s.p50_us).sum()
    }

    /// `(end-to-end − Σ stages) ÷ end-to-end`.
    #[must_use]
    pub fn gap_share(&self) -> f64 {
        (self.end_to_end_p50_us - self.stage_sum_us()) / self.end_to_end_p50_us
    }

    /// The budget as a JSON object for `results.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        object(vec![
            ("unit", Value::Str(self.unit.clone())),
            (
                "stages",
                Value::Array(
                    self.stages
                        .iter()
                        .map(|s| {
                            object(vec![
                                ("name", Value::Str(s.name.clone())),
                                ("per_unit", Value::F64(s.per_unit)),
                                ("p50_us", Value::F64(s.p50_us)),
                                ("n", Value::U64(s.samples as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("stage_sum_us", Value::F64(self.stage_sum_us())),
            ("end_to_end_p50_us", Value::F64(self.end_to_end_p50_us)),
            ("gap_share", Value::F64(self.gap_share())),
        ])
    }

    /// The budget as printed after a traced run.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("stage budget: {} (one {})\n", self.workload, self.unit);
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<34} {:>8.1} x {:>12.2} us = {:>12.2} us (n={})\n",
                s.name,
                s.per_unit,
                s.p50_us,
                s.per_unit * s.p50_us,
                s.samples
            ));
        }
        let gap = self.gap_share();
        out.push_str(&format!(
            "  {:<34} {:>39.2} us\n  {:<34} {:>39.2} us\n  {:<34} {:>38.1} %{}\n",
            "sum of stages",
            self.stage_sum_us(),
            "end-to-end p50",
            self.end_to_end_p50_us,
            "gap",
            100.0 * gap,
            if gap.abs() > GAP_FINDING_SHARE {
                "  <-- FINDING: unaccounted time exceeds 15 %"
            } else {
                ""
            }
        ));
        out
    }
}

/// The budget of one cycle: per cycle, the time spent under each kind of
/// child span; a stage's figure is the median of those per-cycle totals.
#[must_use]
pub fn cycle_budget(tracer: &Tracer, workload: &str) -> Option<Budget> {
    use std::collections::{BTreeMap, HashMap};
    let mut cycles: HashMap<u64, (u64, BTreeMap<&'static str, u64>)> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "cycle")
        .map(|s| (s.id, (s.end_ns - s.start_ns, BTreeMap::new())))
        .collect();
    for s in tracer.spans() {
        if let Some((_, by_name)) = cycles.get_mut(&s.parent) {
            *by_name.entry(s.name).or_default() += s.end_ns - s.start_ns;
        }
    }
    if cycles.is_empty() {
        return None;
    }
    let median_us = |values: Vec<u64>| {
        crate::stats::median(&values.iter().map(|&v| v as f64 / 1e3).collect::<Vec<_>>())
    };
    let names: std::collections::BTreeSet<&'static str> = cycles
        .values()
        .flat_map(|(_, by_name)| by_name.keys().copied())
        .collect();
    let stages = names
        .into_iter()
        .map(|name| Stage {
            name: format!("{name} (per-cycle total)"),
            per_unit: 1.0,
            p50_us: median_us(
                cycles
                    .values()
                    .map(|(_, by_name)| by_name.get(name).copied().unwrap_or(0))
                    .collect(),
            ),
            samples: cycles.len(),
        })
        .collect();
    Some(Budget {
        workload: workload.to_string(),
        unit: "cycle".to_string(),
        stages,
        end_to_end_p50_us: median_us(cycles.values().map(|(total, _)| *total).collect()),
    })
}

/// The budget of one remote `Estimate` on `read_remote`: the client's two
/// steps as timed in line, the server's three as replayed in process. What
/// the five do not cover is the reactor's residual — sockets, queues, wake-ups.
#[must_use]
pub fn remote_estimate_budget(tracer: &Tracer, workload: &str) -> Option<Budget> {
    let end_to_end = tracer.durations("op.estimate");
    if end_to_end.is_empty() {
        return None;
    }
    let stages = [
        "client.encode",
        "replay.server.decode",
        "replay.engine.handle",
        "replay.server.encode",
        "client.decode",
    ]
    .into_iter()
    .filter_map(|name| {
        let samples = tracer.durations(name);
        (!samples.is_empty()).then(|| Stage {
            name: name.to_string(),
            per_unit: 1.0,
            p50_us: samples.percentile_ns_unchecked(0.5) / 1e3,
            samples: samples.len(),
        })
    })
    .collect();
    Some(Budget {
        workload: workload.to_string(),
        unit: "remote Estimate".to_string(),
        stages,
        end_to_end_p50_us: end_to_end.percentile_ns_unchecked(0.5) / 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_only_when_enabled() {
        let mut off = Tracer::new(false, Instant::now(), 0);
        let id = off.begin("x", 0, 0);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true, Instant::now(), 2);
        let root = on.begin("op", 0, 5);
        let child = on.span("inner", root, 5, || 3);
        assert_eq!(child, 3);
        on.end(root);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[0].id >> 40, 2);
        assert_eq!(on.durations("inner").len(), 1);
    }

    #[test]
    fn a_gap_above_fifteen_percent_is_a_finding() {
        let stage = |p50_us| Stage {
            name: "s".into(),
            per_unit: 2.0,
            p50_us,
            samples: 20,
        };
        let tight = Budget {
            workload: "w".into(),
            unit: "op".into(),
            stages: vec![stage(45.0)],
            end_to_end_p50_us: 100.0,
        };
        assert!((tight.gap_share() - 0.10).abs() < 1e-9);
        assert!(!tight.render().contains("FINDING"));
        let loose = Budget {
            stages: vec![stage(10.0)],
            ..tight
        };
        assert!(loose.render().contains("FINDING"));
    }
}
