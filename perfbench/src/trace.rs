//! In-memory span recording for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into the program's public functions, and kept in memory until the run
//! ends. A [`Recorder`] collects flat, timed events from any thread; the
//! workload then arranges them (plus the phase boundaries read from the
//! run's event log) into a [`SpanTree`], which computes self time and
//! child coverage per span and serialises the whole tree.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call, in seconds since the recorder's base instant.
#[derive(Clone, Debug)]
pub struct Event {
    /// What was called (`site.train`, `aggregate`, `data.generate`, ...).
    pub name: &'static str,
    /// Who called it: a site name, `server`, `relay`, or `setup`.
    pub lane: String,
    /// Federation round the call belongs to, when the caller knows it.
    pub round: Option<u32>,
    /// Start, seconds since the base instant.
    pub start: f64,
    /// End, seconds since the base instant.
    pub end: f64,
}

impl Event {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// A cloneable, thread-safe event sink sharing one time base.
#[derive(Clone, Debug)]
pub struct Recorder {
    base: Instant,
    events: Arc<Mutex<Vec<Event>>>,
}

impl Recorder {
    /// A recorder whose clock reads zero at `base`.
    pub fn new(base: Instant) -> Self {
        Recorder {
            base,
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The instant the clock reads zero at.
    pub fn base(&self) -> Instant {
        self.base
    }

    /// Seconds since the base instant.
    pub fn now(&self) -> f64 {
        self.base.elapsed().as_secs_f64()
    }

    /// Times `f` and records it as one event.
    pub fn time<R>(
        &self,
        name: &'static str,
        lane: &str,
        round: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.events
            .lock()
            .expect("a recording thread panicked")
            .push(Event {
                name,
                lane: lane.to_string(),
                round,
                start,
                end,
            });
        out
    }

    /// Every event so far, in recording order.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("a recording thread panicked")
            .clone()
    }
}

/// One span of the assembled tree.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Lane (thread role) it ran on.
    pub lane: String,
    /// Start, seconds since the run's base instant.
    pub start: f64,
    /// End, seconds since the run's base instant.
    pub end: f64,
    /// Index of the span that caused it.
    pub parent: Option<usize>,
}

/// A tree of spans with self-time and coverage queries.
#[derive(Clone, Debug, Default)]
pub struct SpanTree {
    spans: Vec<Span>,
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.retain(|&(s, e)| e > lo && s < hi);
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

impl SpanTree {
    /// Adds a span and returns its index.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        lane: impl Into<String>,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            lane: lane.into(),
            start,
            end: end.max(start),
            parent,
        });
        self.spans.len() - 1
    }

    fn children(&self, i: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(i))
    }

    /// Share of span `i`'s wall time covered by the union of its children.
    pub fn coverage(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        let dur = s.end - s.start;
        if dur <= 0.0 {
            return 1.0;
        }
        let kids = self.children(i).map(|c| (c.start, c.end)).collect();
        union_len(kids, s.start, s.end) / dur
    }

    /// Span `i`'s duration minus the part of it its children cover, in
    /// seconds.
    pub fn self_time(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        (s.end - s.start) * (1.0 - self.coverage(i))
    }

    /// Self time summed per span name, in milliseconds, sorted by name.
    pub fn self_ms_by_name(&self) -> Vec<(String, f64)> {
        let mut totals: std::collections::BTreeMap<String, f64> = Default::default();
        for i in 0..self.spans.len() {
            *totals.entry(self.spans[i].name.clone()).or_default() += self.self_time(i) * 1e3;
        }
        totals.into_iter().collect()
    }

    /// The tree as a JSON array of spans with self time, one span per
    /// line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"lane\": \"{}\", \"start_ms\": {:.3}, \
                 \"end_ms\": {:.3}, \"self_ms\": {:.3}, \"parent\": {parent}}}",
                s.name,
                s.lane,
                s.start * 1e3,
                s.end * 1e3,
                self.self_time(i) * 1e3,
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let v = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)];
        assert!((union_len(v, 0.0, 10.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_covered_part() {
        let mut t = SpanTree::default();
        let root = t.add("round", "server", 0.0, 10.0, None);
        t.add("a", "server", 0.0, 4.0, Some(root));
        t.add("b", "site-1", 3.0, 6.0, Some(root));
        assert!((t.coverage(root) - 0.6).abs() < 1e-12);
        assert!((t.self_time(root) - 4.0).abs() < 1e-12);
    }
}
