//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span has a name, a start and an end (µs since the log's epoch), an
//! optional parent and the id of the request it belongs to. Spans stay in
//! memory and are written as JSONL when the run ends. A span's *self
//! time* is its duration minus the part of its interval that its
//! children cover (children may nest or overlap; the covered part is the
//! union of their intervals, clipped to the parent).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id within the log.
    pub id: u64,
    /// Layer-qualified name, such as `init.karp_sipser`.
    pub name: String,
    /// Start, µs since the log's epoch.
    pub start_us: f64,
    /// End, µs since the log's epoch.
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request the span belongs to (0 for work outside any request).
    pub rid: u64,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// µs from the epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records `[start, end]` and returns the new span's id.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        rid: u64,
    ) -> u64 {
        let (s, e) = (self.at(start), self.at(end));
        self.push_us(name, s, e, parent, rid)
    }

    /// Sets the end of span `id` (opened with `start == end`) to `end`.
    pub fn close(&mut self, id: u64, end: Instant) {
        let e = self.at(end);
        self.spans[(id - 1) as usize].end_us = e;
    }

    /// Records a span given in µs since the epoch.
    pub fn push_us(
        &mut self,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<u64>,
        rid: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            rid,
        });
        id
    }

    /// Records children laid end to end from `start_us`, one per
    /// `(name, duration µs)` — used for step breakdowns a layer reports
    /// as durations rather than intervals.
    pub fn push_sequence(&mut self, parent: u64, rid: u64, start_us: f64, parts: &[(&str, f64)]) {
        let mut t = start_us;
        for &(name, d) in parts {
            self.push_us(name, t, t + d, Some(parent), rid);
            t += d;
        }
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (µs) of every span, keyed by span id.
    pub fn self_times(&self) -> BTreeMap<u64, f64> {
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
                (s.id, self_time(s.start_us, s.end_us, kids))
            })
            .collect()
    }

    /// Writes one JSON object per span, self time included.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let st = self.self_times();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"rid\":{},\"self_us\":{:.3}}}",
                s.id, s.name, s.start_us, s.end_us, parent, s.rid, st[&s.id]
            )?;
        }
        w.flush()
    }
}

/// Duration of `[start, end]` minus the union of `children` clipped to it.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
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
    (end - start) - covered
}
