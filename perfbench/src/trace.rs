//! The traced run's spans. A [`SpanSink`] rides the run's `RunEvent`
//! stream and timestamps the events that bound a span; after the call
//! returns, [`Trace::record`] turns the stamps into spans (one per run,
//! engine run, round and certification), keeps them in memory, and
//! [`Trace::write_chrome`] writes them as Chrome trace-event JSON, which
//! Perfetto and `chrome://tracing` open offline.
//!
//! A sink sees a round only when it completes, so span boundaries are the
//! event timestamps: an engine span opens where the previous top-level span
//! closed (the call's start for the first one), which charges the driver's
//! pre-engine set-up (its `Network::new`, protocol construction) to the
//! engine and to the engine run's first round. Round statistics therefore
//! use only rounds whose start is itself an event, i.e. every round but
//! each engine run's first.

use crate::clock;
use dgr::{RunEvent, Sink};
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::Instant;

/// What the sink keeps of an event.
enum Mark {
    Round { live: usize },
    Done,
    CertStarted,
    CertFinished { pairs: usize },
}

/// Timestamps span-bounding events as the run emits them.
pub struct SpanSink {
    tx: mpsc::Sender<(Instant, Mark)>,
}

impl Sink for SpanSink {
    fn emit(&mut self, event: &RunEvent) {
        let mark = match *event {
            RunEvent::RoundCompleted { live, .. } => Mark::Round { live },
            RunEvent::Done { .. } => Mark::Done,
            RunEvent::CertificationStarted { .. } => Mark::CertStarted,
            RunEvent::CertificationResult { pairs_checked, .. } => Mark::CertFinished {
                pairs: pairs_checked,
            },
            _ => return,
        };
        // The receiving `Stamps` outlives the run, so the send cannot fail.
        let _ = self.tx.send((clock::now(), mark));
    }
}

/// The receiving end of a [`SpanSink`].
pub struct Stamps {
    rx: mpsc::Receiver<(Instant, Mark)>,
}

/// A fresh sink and the receiver its stamps arrive on.
pub fn sink() -> (SpanSink, Stamps) {
    let (tx, rx) = mpsc::channel();
    (SpanSink { tx }, Stamps { rx })
}

/// One span; `parent` indexes [`Trace::spans`].
struct Span {
    name: &'static str,
    /// The layer the span belongs to (the Chrome trace category).
    layer: &'static str,
    run: u32,
    parent: Option<usize>,
    /// Nanoseconds since the trace's epoch.
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one traced call splits into.
#[derive(Default)]
pub struct Split {
    pub engine_runs: u64,
    pub engine_ns: u64,
    pub certify_ns: u64,
    pub certify_pairs: u64,
    /// Self time of the call's root span: the call minus its engine runs
    /// and certifications.
    pub driver_ns: u64,
    /// Σ `live` over `RoundCompleted`.
    pub node_steps: u64,
    /// Durations of the rounds whose start is an observed event.
    pub round_ns: Vec<u64>,
}

/// Every span recorded in this process.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: clock::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        clock::nanos(t.saturating_duration_since(self.epoch))
    }

    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Turns the stamps of one call (`root`, timed `start..end`) into spans.
    pub fn record(
        &mut self,
        run: u32,
        root: (&'static str, &'static str),
        start: Instant,
        end: Instant,
        stamps: Stamps,
    ) -> Split {
        let (start, end) = (self.at(start), self.at(end));
        let span = |name, layer, parent, start_ns, end_ns| Span {
            name,
            layer,
            run,
            parent: Some(parent),
            start_ns,
            end_ns,
        };
        let root = self.push(Span {
            name: root.0,
            layer: root.1,
            run,
            parent: None,
            start_ns: start,
            end_ns: end,
        });
        let mut split = Split::default();
        let mut cursor = start;
        let mut engine: Option<usize> = None;
        let mut round_start: Option<u64> = None;
        let mut cert_start = start;
        for (t, mark) in stamps.rx.try_iter() {
            let t = self.at(t);
            match mark {
                Mark::Round { live } => {
                    let engine = *engine.get_or_insert_with(|| {
                        self.push(span("engine", "ncc", root, cursor, cursor))
                    });
                    let from = round_start.unwrap_or(cursor);
                    self.push(span("round", "ncc", engine, from, t));
                    if round_start.is_some() {
                        split.round_ns.push(t - from);
                    }
                    round_start = Some(t);
                    split.node_steps += live as u64;
                }
                Mark::Done => {
                    let engine = engine
                        .take()
                        .unwrap_or_else(|| self.push(span("engine", "ncc", root, cursor, cursor)));
                    self.spans[engine].end_ns = t;
                    split.engine_runs += 1;
                    split.engine_ns += self.spans[engine].dur_ns();
                    cursor = t;
                    round_start = None;
                }
                Mark::CertStarted => cert_start = t,
                Mark::CertFinished { pairs } => {
                    self.push(span("certification", "connectivity", root, cert_start, t));
                    split.certify_ns += t - cert_start;
                    split.certify_pairs += pairs as u64;
                    cursor = t;
                }
            }
        }
        split.driver_ns = (end - start).saturating_sub(split.engine_ns + split.certify_ns);
        split
    }

    /// Each span's duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            match totals.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, total)) => *total += ns,
                None => totals.push((s.name, ns)),
            }
        }
        totals
    }

    /// Writes every span as Chrome trace-event JSON (one complete event
    /// per span, one track per run).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let us = |ns: u64| ns as f64 / 1e3;
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"run\":{},\"self_us\":{:.3}}}}}{sep}",
                s.name,
                s.layer,
                s.run,
                us(s.start_ns),
                us(s.dur_ns()),
                s.run,
                us(self_ns),
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
