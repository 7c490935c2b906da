//! Spans recorded by the benchmark around each public call it makes.
//!
//! A span holds its name, start, end, parent span and request id. Each
//! load thread owns a [`Tracer`]; spans stay in memory until the run
//! ends, when [`merge`] concatenates them, [`Analysis`] summarises them
//! and [`write_jsonl`] writes them out. A span's self time is its duration
//! minus the durations of its children (children are sequential calls on
//! the same thread, so they never overlap).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::percentile;

/// Marks a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same list, or [`NO_PARENT`].
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
    capacity: usize,
}

impl Tracer {
    /// A recorder that holds at most `capacity` spans; see [`Tracer::full`].
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity.min(1 << 16)),
            open: Vec::new(),
            request: 0,
            capacity,
        }
    }

    /// Whether the load thread should stop starting new requests.
    pub fn full(&self) -> bool {
        self.spans.len() >= self.capacity
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let index = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request: self.request,
        });
        self.open.push(index);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit without a matching enter") as usize;
        self.spans[index].end = self.now();
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len() as u32;
        out.extend(list.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    out
}

/// Self time of every span, signed so a broken nesting shows as negative.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration() as i64).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.duration() as i64;
        }
    }
    own
}

/// Per-name totals of a traced run.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: i64,
    /// Median inclusive duration, nanoseconds.
    pub p50_ns: u64,
}

pub struct Analysis {
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Smallest self time of any span (must not be negative).
    pub min_self_ns: i64,
    /// Summed self time of `request` spans over their summed duration: the
    /// part of each request no child span accounts for.
    pub request_gap: f64,
    /// Median over requests of `wire.call` minus the in-process `replay`
    /// of the same request, nanoseconds (0 without wire calls).
    pub wire_overhead_ns: u64,
    /// Summed duration of the replays a traced run adds to its ops (the
    /// in-process `replay` of a TCP request, the split `compile` of a
    /// registry miss), nanoseconds.
    pub replay_ns: u64,
}

impl Analysis {
    pub fn new(spans: &[Span]) -> Analysis {
        let own = self_times(spans);
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        let (mut gap, mut request_total, mut replay_ns) = (0i64, 0u64, 0u64);
        // Per request id: (wire.call, replay) durations.
        let mut wire: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (s, &own_ns) in spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += own_ns;
            durations.entry(s.name).or_default().push(s.duration());
            match s.name {
                "request" => {
                    gap += own_ns;
                    request_total += s.duration();
                }
                "wire.call" => wire.entry(s.request).or_default().0 = s.duration(),
                "replay" => {
                    wire.entry(s.request).or_default().1 = s.duration();
                    replay_ns += s.duration();
                }
                "compile" => replay_ns += s.duration(),
                _ => {}
            }
        }
        for (name, mut d) in durations {
            d.sort_unstable();
            by_name.get_mut(name).expect("same keys").p50_ns = percentile(&d, 0.5);
        }
        let mut overhead: Vec<u64> = wire
            .values()
            .filter(|(call, _)| *call > 0)
            .map(|(call, replay)| call.saturating_sub(*replay))
            .collect();
        overhead.sort_unstable();
        Analysis {
            by_name,
            min_self_ns: own.iter().copied().min().unwrap_or(0),
            request_gap: if request_total == 0 {
                0.0
            } else {
                gap as f64 / request_total as f64
            },
            wire_overhead_ns: percentile(&overhead, 0.5),
            replay_ns,
        }
    }
}

/// Write one JSON object per span (`id`, `name`, `start_ns`, `end_ns`,
/// `parent`, `request`; `parent` is `-1` for roots).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            r#"{{"id": {id}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}, "request": {}}}"#,
            s.name, s.start, s.end, s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 16);
        a.set_request(1);
        a.enter("request");
        a.span("wire.call", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        a.enter("replay");
        a.span("core.translate", || ());
        a.exit();
        a.exit();
        let mut b = Tracer::new(epoch, 16);
        b.set_request(2);
        b.span("request", || ());
        let spans = merge(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[4].parent, NO_PARENT);
        let own = self_times(&spans);
        assert!(own.iter().all(|&t| t >= 0));
        let analysis = Analysis::new(&spans);
        assert_eq!(analysis.by_name["request"].calls, 2);
        assert!(analysis.wire_overhead_ns >= 2_000_000 - spans[2].duration());
        assert!(analysis.request_gap < 0.5);
    }
}
