//! The traced run: the same request lines replayed in-process through the
//! public layer functions, with spans recorded in memory around each call.
//!
//! Two replays give the two span levels:
//!
//! * **decomposed** — one `request` span per line, with children
//!   `wire.parse` → `service.prepare` (only when the instance is not yet
//!   prepared) → `algos.solve` or `sim.solve` → `wire.render`;
//! * **composed** — one `flush` span per flush, with children
//!   `wire.parse`*, `service.solve_batch` and `wire.render`*: the path
//!   `wire::process_batch` and the server take.

use crate::workload::Flush;
use cr_algos::solver::{Prepared, Registry, POLY_METHODS};
use cr_service::{wire, SolverService};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What a request line asks for, as far as the per-layer metrics care.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A polynomial scheduler, makespan only.
    Heuristic,
    /// A polynomial scheduler returning its schedule.
    HeuristicSchedule,
    /// `OptM` on one resource.
    OptmK1,
    /// `OptM` on two or more resources.
    OptmK2,
    /// An online `sim:*` method.
    Sim,
    /// Anything else (`Bounds`).
    Other,
}

impl Class {
    /// Classifies a request line.
    pub fn of(line: &str) -> Class {
        let method = line
            .split(r#""method":""#)
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("");
        if POLY_METHODS.contains(&method) {
            if line.contains(r#""want_schedule":true"#) {
                Class::HeuristicSchedule
            } else {
                Class::Heuristic
            }
        } else if method == "OptM" {
            if line.contains(r#""resources":"#) {
                Class::OptmK2
            } else {
                Class::OptmK1
            }
        } else if method.starts_with("sim:") {
            Class::Sim
        } else {
            Class::Other
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Request id (decomposed) or first request id of the flush (composed).
    pub req: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder; when off, recording costs one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Spans in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder, recording only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children of one span never overlap in a replay).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Appends the spans as JSON lines tagged with `pass`.
    pub fn write_jsonl(&self, pass: &str, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"pass":"{pass}","span":{i},"name":"{}","req":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Flushes as the server numbered them: the id of the first line, then
/// the flush.
pub type Numbered = (u64, Flush);

/// The decomposed replay.  Instances are prepared once per flush key, as
/// the service's cache would; never-repeating flushes prepare every line.
pub fn decomposed(
    flushes: &[Numbered],
    registry: &Registry,
    tracer: &mut Tracer,
) -> Result<Vec<Vec<String>>, String> {
    let mut prepared_by_key: HashMap<usize, Arc<Prepared>> = HashMap::new();
    let mut out = Vec::with_capacity(flushes.len());
    for (first_id, flush) in flushes {
        let mut responses = Vec::with_capacity(flush.lines.len());
        for (i, line) in flush.lines.iter().enumerate() {
            let id = first_id + i as u64;
            let request = tracer.begin("request", id, None);
            let span = tracer.begin("wire.parse", id, request);
            let parsed = wire::parse_request(line, id);
            tracer.end(span);
            let parsed = parsed?;
            let cached = flush.key.and_then(|k| prepared_by_key.get(&k).cloned());
            let prepared = match cached {
                Some(prepared) => prepared,
                None => {
                    let span = tracer.begin("service.prepare", id, request);
                    let prepared = Arc::new(Prepared::new(&parsed.request.instance));
                    tracer.end(span);
                    if let Some(k) = flush.key {
                        prepared_by_key.insert(k, Arc::clone(&prepared));
                    }
                    prepared
                }
            };
            let method = &parsed.request.method;
            let layer = if method.starts_with("sim:") {
                "sim.solve"
            } else {
                "algos.solve"
            };
            let span = tracer.begin(layer, id, request);
            let result = registry.solve_prepared(&parsed.request, &prepared);
            tracer.end(span);
            let span = tracer.begin("wire.render", id, request);
            responses.push(wire::response_line(id, method, &result));
            tracer.end(span);
            tracer.end(request);
        }
        out.push(responses);
    }
    Ok(out)
}

/// The composed replay through a fresh service.
pub fn composed(flushes: &[Numbered], tracer: &mut Tracer) -> Result<Vec<Vec<String>>, String> {
    let service = SolverService::with_standard_registry();
    let mut out = Vec::with_capacity(flushes.len());
    for (first_id, flush) in flushes {
        let root = tracer.begin("flush", *first_id, None);
        let mut parsed = Vec::with_capacity(flush.lines.len());
        for (i, line) in flush.lines.iter().enumerate() {
            let id = first_id + i as u64;
            let span = tracer.begin("wire.parse", id, root);
            let request = wire::parse_request(line, id);
            tracer.end(span);
            parsed.push(request?);
        }
        let requests: Vec<_> = parsed.iter().map(|w| w.request.clone()).collect();
        let span = tracer.begin("service.solve_batch", *first_id, root);
        let results = service.solve_batch(&requests);
        tracer.end(span);
        let mut responses = Vec::with_capacity(results.len());
        for (w, result) in parsed.iter().zip(&results) {
            let span = tracer.begin("wire.render", w.id, root);
            responses.push(wire::response_line(w.id, &w.request.method, result));
            tracer.end(span);
        }
        tracer.end(root);
        out.push(responses);
    }
    Ok(out)
}

/// Writes both tracers' spans to `path`.
pub fn write_spans(path: &Path, decomposed: &Tracer, composed: &Tracer) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    decomposed.write_jsonl("decomposed", &mut out)?;
    composed.write_jsonl("composed", &mut out)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "flush",
                req: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "wire.parse",
                req: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 30,
            },
            Span {
                name: "service.solve_batch",
                req: 0,
                parent: Some(0),
                start_ns: 30,
                end_ns: 90,
            },
        ];
        assert_eq!(t.self_ns(), vec![20, 20, 60]);
    }

    #[test]
    fn lines_classify_by_method_and_shape() {
        assert_eq!(
            Class::of(r#"{"method":"RoundRobin","rows":[[5]]}"#),
            Class::Heuristic
        );
        assert_eq!(
            Class::of(r#"{"method":"EqualShare","want_schedule":true,"rows":[[5]]}"#),
            Class::HeuristicSchedule
        );
        assert_eq!(
            Class::of(r#"{"method":"OptM","rows":[[5]]}"#),
            Class::OptmK1
        );
        assert_eq!(
            Class::of(r#"{"method":"OptM","rows":[[5]],"resources":[[[5]]]}"#),
            Class::OptmK2
        );
        assert_eq!(
            Class::of(r#"{"method":"sim:GreedyBalance","rows":[[5]]}"#),
            Class::Sim
        );
        assert_eq!(
            Class::of(r#"{"method":"Bounds","rows":[[5]]}"#),
            Class::Other
        );
    }
}
