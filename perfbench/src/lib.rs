//! The repository benchmark: three closed-loop workloads over the served
//! and library paths, each run either untraced (end-to-end metrics) or
//! traced (per-layer metrics). See `README.md` beside this crate for what
//! each workload and metric is for; `BENCHMARK.json` at the repository
//! root lists the metric names, units and bounds.
//!
//! A run sets its workload up several times (the median is `setup_s`),
//! keeps the last set-up, and drives it for the requested time. The
//! benchmark drives the program only through public APIs and owns its
//! loops.

pub mod inputs;
pub mod migrate_docs;
pub mod replay;
pub mod schema_churn;
pub mod served;
pub mod stats;
pub mod tcp;
pub mod trace;
pub mod translate_hot;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use xse_service::{ErrorCode, RegistryStats, ServiceError};

use stats::{median, percentile, ratio};
use trace::{Analysis, Span, Tracer};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = [translate_hot::NAME, migrate_docs::NAME, schema_churn::NAME];

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Spans the traced run reports, named `<layer>.<call>`. Each yields
/// `<span>.calls`, `<span>.self_ms` and `<span>.p50_us`.
pub const SPANS: [&str; 17] = [
    "wire.call",
    "proto.encode",
    "proto.decode",
    "registry.get_or_compile",
    "registry.evict",
    "discovery.find_embedding",
    "core.similarity",
    "dtd.parse",
    "dtd.content_hash",
    "xmltree.parse_xml",
    "xmltree.to_xml",
    "core.apply",
    "core.invert",
    "rxpath.parse_query",
    "core.translate",
    "anfa.eval",
    "xmltree.map_result",
];

/// Per-layer metrics besides the span triples: `(name, unit, better)`.
pub const LAYER_EXTRAS: [(&str, &str, &str); 14] = [
    ("wire.overhead_us", "us", "lower"),
    ("proto.request_bytes", "B", "lower"),
    ("proto.response_bytes", "B", "lower"),
    ("registry.hit_rate", "ratio", "higher"),
    ("registry.hits", "count", "higher"),
    ("registry.misses", "count", "lower"),
    ("registry.compiles", "count", "lower"),
    ("registry.evictions", "count", "lower"),
    ("registry.negative_hits", "count", "higher"),
    ("core.plan_hit_rate", "ratio", "higher"),
    ("discovery.attempts", "count", "lower"),
    ("discovery.found_ratio", "ratio", "higher"),
    ("anfa.result_nodes", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Every per-layer metric, `(name, unit, better)`, in reporting order.
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for span in SPANS {
        out.push((format!("{span}.calls"), "count", "higher"));
        out.push((format!("{span}.self_ms"), "ms", "lower"));
        out.push((format!("{span}.p50_us"), "us", "lower"));
    }
    out.extend(
        LAYER_EXTRAS
            .iter()
            .map(|&(name, unit, better)| (name.to_string(), unit, better)),
    );
    out
}

/// Most spans one traced run keeps in memory; the traced phase ends early
/// once its load threads have recorded this many.
pub const TRACE_SPAN_CAP: usize = 200_000;

/// Attempted ops and how the failed ones failed.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Error frames (or in-process error responses), by error code.
    pub error_frames: BTreeMap<String, u64>,
    /// Socket, framing and decoding failures.
    pub transport: u64,
    /// Well-formed answers that disagree with the reference.
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.error_frames.values().sum::<u64>() + self.transport + self.wrong
    }

    pub fn error_code(&mut self, code: ErrorCode) {
        *self.error_frames.entry(format!("{code:?}")).or_default() += 1;
    }

    /// Count a failed client call: error frames by code, the rest as
    /// transport failures.
    pub fn service_error(&mut self, e: &ServiceError) {
        match e {
            ServiceError::Remote { code, .. } => self.error_code(*code),
            _ => self.transport += 1,
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for (code, n) in &other.error_frames {
            *self.error_frames.entry(code.clone()).or_default() += n;
        }
        self.transport += other.transport;
        self.wrong += other.wrong;
    }
}

/// Discovery runs replayed with statistics during a traced phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiscoveryTally {
    pub runs: u64,
    pub attempts: u64,
    pub found: u64,
}

/// Number of equal windows a timed loop is cut into. End-to-end metrics
/// are medians over the windows, so a burst of interference from outside
/// the process moves one window, not the reported value.
pub const WINDOWS: usize = 20;
/// Latency samples kept per window and load thread (a uniform reservoir
/// beyond that), so memory does not grow with throughput and the
/// benchmark's own share of `peak_rss_mb` stays small.
pub const SAMPLES_PER_WINDOW: usize = 1024;
/// Fewest latency samples a window's percentiles are taken over; sparser
/// windows are merged with their neighbours.
pub const MIN_WINDOW_SAMPLES: usize = 100;

/// Ops that ended in one window of a timed loop.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub ops: u64,
    /// When the first and the last of them ended, nanoseconds after the
    /// loop started.
    pub first_end: u64,
    pub last_end: u64,
    /// Latencies, nanoseconds: all of them, or a uniform sample of
    /// [`SAMPLES_PER_WINDOW`] per load thread.
    pub latencies: Vec<u64>,
}

impl Window {
    /// Fold in the ops of `other`, a window of another load thread or an
    /// adjacent window.
    fn absorb(&mut self, other: Window) {
        if other.ops == 0 {
            return;
        }
        if self.ops == 0 || other.first_end < self.first_end {
            self.first_end = other.first_end;
        }
        self.last_end = self.last_end.max(other.last_end);
        self.ops += other.ops;
        self.latencies.extend(other.latencies);
    }
}

/// What one timed loop (one or more load threads) measured.
#[derive(Debug)]
pub struct Phase {
    start: Instant,
    window: Duration,
    pub windows: Vec<Window>,
    pub elapsed: Duration,
    pub tally: Tally,
    pub spans: Vec<Span>,
    pub request_bytes: Vec<u64>,
    pub response_bytes: Vec<u64>,
    pub discovery: DiscoveryTally,
    /// Queries answered, and their result nodes summed.
    pub answers: u64,
    pub result_nodes: u64,
    sampler: StdRng,
}

impl Phase {
    /// An empty phase for a loop that started at `start` and runs for
    /// `budget`.
    pub fn new(start: Instant, budget: Duration) -> Phase {
        Phase {
            start,
            window: (budget / WINDOWS as u32).max(Duration::from_nanos(1)),
            windows: vec![Window::default(); WINDOWS],
            elapsed: Duration::ZERO,
            tally: Tally::default(),
            spans: Vec::new(),
            request_bytes: Vec::new(),
            response_bytes: Vec::new(),
            discovery: DiscoveryTally::default(),
            answers: 0,
            result_nodes: 0,
            sampler: StdRng::seed_from_u64(0x7265_7365_7276_6f69),
        }
    }

    /// Record one op that ran from `t0` to `t1`.
    pub fn record(&mut self, t0: Instant, t1: Instant) {
        let end = t1.saturating_duration_since(self.start).as_nanos();
        let index = (end / self.window.as_nanos()).min(WINDOWS as u128 - 1) as usize;
        let end = end as u64;
        let w = &mut self.windows[index];
        if w.ops == 0 || end < w.first_end {
            w.first_end = end;
        }
        w.last_end = w.last_end.max(end);
        w.ops += 1;
        let latency = t1.saturating_duration_since(t0).as_nanos() as u64;
        if w.latencies.len() < SAMPLES_PER_WINDOW {
            w.latencies.push(latency);
        } else {
            let slot = self.sampler.next_u64() % w.ops;
            if let Some(kept) = w.latencies.get_mut(slot as usize) {
                *kept = latency;
            }
        }
    }

    /// Close the loop: record its length and its spans.
    pub fn finish(mut self, tracer: Option<Tracer>) -> Phase {
        self.elapsed = self.start.elapsed();
        self.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
        self
    }

    /// Combine the phases of concurrently running load threads (all
    /// started together).
    pub fn merge(parts: Vec<Phase>) -> Phase {
        let mut parts = parts.into_iter();
        let mut out = parts.next().expect("at least one load thread");
        let mut spans = vec![std::mem::take(&mut out.spans)];
        for p in parts {
            out.elapsed = out.elapsed.max(p.elapsed);
            for (w, pw) in out.windows.iter_mut().zip(p.windows) {
                w.absorb(pw);
            }
            out.tally.merge(&p.tally);
            spans.push(p.spans);
            out.request_bytes.extend(p.request_bytes);
            out.response_bytes.extend(p.response_bytes);
            out.discovery.runs += p.discovery.runs;
            out.discovery.attempts += p.discovery.attempts;
            out.discovery.found += p.discovery.found;
            out.answers += p.answers;
            out.result_nodes += p.result_nodes;
        }
        out.spans = trace::merge(spans);
        out
    }

    pub fn completed(&self) -> u64 {
        self.tally.attempted.saturating_sub(self.tally.failed())
    }

    /// Completed ops per second over the whole loop.
    pub fn ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Consecutive windows merged until each holds at least
    /// [`MIN_WINDOW_SAMPLES`] latencies (the last group takes what is
    /// left), so every group's p90 has ten samples above it.
    pub fn window_groups(&self) -> Vec<Window> {
        let mut groups: Vec<Window> = Vec::new();
        let mut open = Window::default();
        for w in &self.windows {
            open.absorb(w.clone());
            if open.latencies.len() >= MIN_WINDOW_SAMPLES {
                groups.push(std::mem::take(&mut open));
            }
        }
        match groups.last_mut() {
            Some(last) => last.absorb(open),
            None if open.ops > 0 => groups.push(open),
            None => {}
        }
        groups
    }

    /// Per window group: (ops per second, p50, p90), latencies in
    /// nanoseconds. The rate is measured between the group's first and
    /// last completion, so it is not rounded to whole ops.
    pub fn window_stats(&self) -> Vec<(f64, u64, u64)> {
        self.window_groups()
            .into_iter()
            .map(|mut w| {
                w.latencies.sort_unstable();
                let rate = if w.ops >= 2 && w.last_end > w.first_end {
                    (w.ops - 1) as f64 / ((w.last_end - w.first_end) as f64 / 1e9)
                } else {
                    self.ops_per_s()
                };
                (
                    rate,
                    percentile(&w.latencies, 0.5),
                    percentile(&w.latencies, 0.9),
                )
            })
            .collect()
    }
}

/// How a load thread is traced: `None` untraced, else the run's epoch
/// and the thread's share of [`TRACE_SPAN_CAP`].
#[derive(Clone, Copy)]
pub struct TraceMode {
    pub epoch: Instant,
    pub cap: usize,
}

/// One workload: its set-up, its references and its closed loop.
pub trait Workload: Sized {
    /// Generate inputs from `seed`, build references, start what serves
    /// the requests and prewarm every pair.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Digest of every generated input (schemas, documents, queries and
    /// the op sequence).
    fn digest(&self) -> u64;
    /// One line describing the generated inputs.
    fn describe(&self) -> String;
    /// Checks made while setting up (references agree with each other and
    /// prewarm answers match them).
    fn checks(&self) -> Vec<(String, bool)>;
    /// Registry counters (cumulative; the run takes differences).
    fn counters(&self) -> RegistryStats;
    /// Run the closed loop until `budget` has passed.
    fn drive(&self, budget: Duration, trace: Option<TraceMode>) -> Phase;
    /// Checks on the state the loop left behind.
    fn final_checks(&self) -> Vec<(String, bool)> {
        Vec::new()
    }
}

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// How a run is made.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed loop. A traced run splits it between an
    /// untraced and a traced phase.
    pub budget: Duration,
    pub trace: bool,
}

/// Named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Trace properties the self-tests check.
#[derive(Clone, Copy, Debug)]
pub struct TraceSummary {
    pub spans: usize,
    pub min_self_ns: i64,
    pub request_gap: f64,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub digest: u64,
    pub inputs: String,
    pub setup_times: Vec<f64>,
    pub checks: Vec<(String, bool)>,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub trace: Option<TraceSummary>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.tally.failed() == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// Names and units are plain ASCII, so they need no escaping; a value
    /// with no JSON form (never expected) is written as `null`.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    m.name, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct(),
            self.tally.attempted,
            self.tally.failed()
        )
    }

    /// Human-readable lines printed before the result line.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut out = vec![
            format!("workload {} seed {}", self.workload, self.seed),
            format!("inputs digest {:016x}: {}", self.digest, self.inputs),
            format!(
                "setup runs (s): {}",
                self.setup_times
                    .iter()
                    .map(|t| format!("{t:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        ];
        for (name, ok) in &self.checks {
            out.push(format!(
                "check {name}: {}",
                if *ok { "ok" } else { "FAILED" }
            ));
        }
        let t = &self.tally;
        out.push(format!(
            "ops attempted {} failed {} (error frames {:?}, transport {}, wrong answers {})",
            t.attempted,
            t.failed(),
            t.error_frames,
            t.transport,
            t.wrong
        ));
        out.extend(self.notes.iter().cloned());
        for m in &self.metrics {
            out.push(format!("metric {} = {} {}", m.name, m.value, m.unit));
        }
        out
    }
}

fn delta(after: RegistryStats, before: RegistryStats) -> RegistryStats {
    RegistryStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        compiles: after.compiles - before.compiles,
        single_flight_waits: after.single_flight_waits - before.single_flight_waits,
        evictions: after.evictions - before.evictions,
        entries: after.entries,
        compile_nanos: after.compile_nanos - before.compile_nanos,
        plan_hits: after.plan_hits - before.plan_hits,
        plan_misses: after.plan_misses - before.plan_misses,
        plan_entries: after.plan_entries,
        negative_hits: after.negative_hits - before.negative_hits,
    }
}

/// Where traced runs write their spans.
pub fn trace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run workload `name`.
///
/// # Errors
/// An unknown workload name, or a set-up that could not start.
pub fn run(name: &str, cfg: RunConfig) -> Result<Report, String> {
    match name {
        translate_hot::NAME => {
            run_workload::<translate_hot::TranslateHot>(translate_hot::NAME, cfg)
        }
        migrate_docs::NAME => run_workload::<migrate_docs::MigrateDocs>(migrate_docs::NAME, cfg),
        schema_churn::NAME => run_workload::<schema_churn::SchemaChurn>(schema_churn::NAME, cfg),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn run_workload<W: Workload>(workload: &'static str, cfg: RunConfig) -> Result<Report, String> {
    let mut setup_times = Vec::new();
    let mut fixture: Option<W> = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up is torn down outside the timed interval.
        drop(fixture.take());
        let t0 = Instant::now();
        let w = W::setup(cfg.seed)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        fixture = Some(w);
    }
    let w = fixture.expect("at least one set-up");
    let mut checks = w.checks();

    let untraced_budget = if cfg.trace {
        cfg.budget / 2
    } else {
        cfg.budget
    };
    let before = w.counters();
    let untraced = w.drive(untraced_budget, None);
    let counters = delta(w.counters(), before);
    let traced = cfg.trace.then(|| {
        let mode = TraceMode {
            epoch: Instant::now(),
            cap: TRACE_SPAN_CAP,
        };
        w.drive(cfg.budget - untraced_budget, Some(mode))
    });
    checks.extend(w.final_checks());
    let digest = w.digest();
    let inputs = w.describe();
    drop(w);

    let mut tally = untraced.tally.clone();
    let mut notes = Vec::new();
    let windows = untraced.window_stats();
    let groups = untraced.window_groups();
    let samples: usize = groups.iter().map(|w| w.latencies.len()).sum();
    let fewest = groups.iter().map(|w| w.latencies.len()).min().unwrap_or(0);
    notes.push(format!(
        "untraced loop: {} ops in {:.3} s; {samples} latency samples in {} windows \
         (fewest in a window: {fewest}, so its p90 has {} above it)",
        untraced.tally.attempted,
        untraced.elapsed.as_secs_f64(),
        groups.len(),
        fewest / 10,
    ));
    let row =
        |f: fn(&(f64, u64, u64)) -> String| windows.iter().map(f).collect::<Vec<_>>().join(" ");
    notes.push(format!("window ops/s: {}", row(|w| format!("{:.0}", w.0))));
    notes.push(format!(
        "window p50 us: {}",
        row(|w| format!("{:.2}", w.1 as f64 / 1e3))
    ));
    notes.push(format!(
        "window p90 us: {}",
        row(|w| format!("{:.2}", w.2 as f64 / 1e3))
    ));
    let window_median =
        |f: fn(&(f64, u64, u64)) -> f64| median(&windows.iter().map(f).collect::<Vec<f64>>());

    let mut trace = None;
    let metrics = match &traced {
        None => vec![
            metric("setup_s", median(&setup_times), "s"),
            metric("ops_per_s", window_median(|w| w.0), "1/s"),
            metric("p50_us", window_median(|w| w.1 as f64) / 1e3, "us"),
            metric("p90_us", window_median(|w| w.2 as f64) / 1e3, "us"),
            metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        ],
        Some(traced) => {
            tally.merge(&traced.tally);
            notes.push(format!(
                "traced loop: {} ops in {:.3} s, {} spans",
                traced.tally.attempted,
                traced.elapsed.as_secs_f64(),
                traced.spans.len()
            ));
            let path = trace_dir().join(format!("trace-{workload}.jsonl"));
            match trace::write_jsonl(&path, &traced.spans) {
                Ok(()) => notes.push(format!("spans written to {}", path.display())),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
            let analysis = Analysis::new(&traced.spans);
            let summary = TraceSummary {
                spans: traced.spans.len(),
                min_self_ns: analysis.min_self_ns,
                request_gap: analysis.request_gap,
            };
            notes.push(format!(
                "spans: smallest self time {} ns; {:.4} of request time outside child spans",
                summary.min_self_ns, summary.request_gap
            ));
            trace = Some(summary);
            layer_metrics(&untraced, traced, &analysis, counters)
        }
    };
    Ok(Report {
        workload,
        seed: cfg.seed,
        digest,
        inputs,
        setup_times,
        checks,
        tally,
        metrics,
        notes,
        trace,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn median_of(values: &[u64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5) as f64
}

fn layer_metrics(untraced: &Phase, traced: &Phase, a: &Analysis, c: RegistryStats) -> Vec<Metric> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for span in SPANS {
        let s = a.by_name.get(span).cloned().unwrap_or_default();
        values.insert(format!("{span}.calls"), s.calls as f64);
        values.insert(format!("{span}.self_ms"), s.self_ns as f64 / 1e6);
        values.insert(format!("{span}.p50_us"), s.p50_ns as f64 / 1e3);
    }
    // The traced half's rate without the replayed work (TCP replays and
    // schema-churn's split compiles), which the untraced half never does:
    // what is left of the gap is the cost of recording spans.
    let recording_s = (traced.elapsed.as_secs_f64() - a.replay_ns as f64 / 1e9).max(1e-9);
    let recording_rate = traced.completed() as f64 / recording_s;
    let d = traced.discovery;
    let resolutions = c.hits + c.misses + c.single_flight_waits;
    let extras = [
        ("wire.overhead_us", a.wire_overhead_ns as f64 / 1e3),
        ("proto.request_bytes", median_of(&traced.request_bytes)),
        ("proto.response_bytes", median_of(&traced.response_bytes)),
        ("registry.hit_rate", ratio(c.hits, resolutions)),
        ("registry.hits", c.hits as f64),
        ("registry.misses", c.misses as f64),
        ("registry.compiles", c.compiles as f64),
        ("registry.evictions", c.evictions as f64),
        ("registry.negative_hits", c.negative_hits as f64),
        (
            "core.plan_hit_rate",
            ratio(c.plan_hits, c.plan_hits + c.plan_misses),
        ),
        ("discovery.attempts", ratio(d.attempts, d.runs)),
        ("discovery.found_ratio", ratio(d.found, d.runs)),
        (
            "anfa.result_nodes",
            ratio(untraced.result_nodes, untraced.answers),
        ),
        (
            "trace.overhead_pct",
            100.0 * (1.0 - recording_rate / untraced.ops_per_s().max(1e-9)),
        ),
    ];
    for (name, v) in extras {
        values.insert(name.to_string(), v);
    }
    per_layer_metrics()
        .into_iter()
        .map(|(name, unit, _)| Metric {
            value: values[&name],
            name,
            unit,
        })
        .collect()
}
