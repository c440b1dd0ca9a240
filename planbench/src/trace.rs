//! The traced run's instruments: spans around calls into each layer,
//! held in memory and written out when the benchmark ends, plus a timing
//! wrapper around a cardinality oracle.
//!
//! A span is one layer call: its request id, layer name, parent layer,
//! and start/end in nanoseconds since the trace began. Oracle calls are
//! too small and too many to trace one by one, so a [`TimedOracle`] sums
//! them and the caller records one aggregate `oracle` span per parent
//! call, whose duration is that sum.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use mjoin::{CardinalityOracle, DbScheme, MjoinError, RelSet};

/// One recorded layer call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The request this call served; shared by all its spans.
    pub request: u64,
    /// Layer name (`cli.parse`, `optimizer`, `oracle`, …).
    pub layer: &'static str,
    /// The enclosing layer, or `None` for a top-level call.
    pub parent: Option<&'static str>,
    /// Start, in ns since the trace's epoch.
    pub start_ns: u64,
    /// End, in ns since the trace's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log, shareable across threads.
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span.
    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("trace lock poisoned by a panicking recorder")
            .push(span);
    }

    /// Times `f` as a top-level (or `parent`-nested) call of `layer`.
    pub fn time<T>(
        &self,
        request: u64,
        layer: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        self.record(Span {
            request,
            layer,
            parent,
            start_ns,
            end_ns: self.now_ns(),
        });
        out
    }

    /// Records the oracle time a [`TimedOracle`] accumulated inside one
    /// `parent` call, as an aggregate span starting with that call.
    pub fn record_oracle(&self, request: u64, parent: &'static str, start_ns: u64, ns: u64) {
        self.record(Span {
            request,
            layer: "oracle",
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + ns,
        });
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("trace lock poisoned by a panicking recorder")
            .clone()
    }

    /// The span log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"request\":{},\"layer\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.request,
                s.layer,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// A cardinality oracle that sums the wall time of the calls made into
/// the oracle it wraps. Every trait method delegates, so the wrapped
/// oracle's behaviour (memo, budget checks) is unchanged.
pub struct TimedOracle<O> {
    inner: O,
    ns: u64,
}

impl<O: CardinalityOracle> TimedOracle<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> TimedOracle<O> {
        TimedOracle { inner, ns: 0 }
    }

    /// Returns and resets the nanoseconds spent in the wrapped oracle.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.ns)
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut O) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out
    }
}

impl<O: CardinalityOracle> CardinalityOracle for TimedOracle<O> {
    fn scheme(&self) -> &DbScheme {
        self.inner.scheme()
    }

    fn tau(&mut self, subset: RelSet) -> u64 {
        self.timed(|o| o.tau(subset))
    }

    fn tau_join(&mut self, d1: RelSet, d2: RelSet) -> u64 {
        self.timed(|o| o.tau_join(d1, d2))
    }

    fn result_is_empty(&mut self) -> bool {
        self.timed(|o| o.result_is_empty())
    }

    fn try_tau(&mut self, subset: RelSet) -> Result<u64, MjoinError> {
        self.timed(|o| o.try_tau(subset))
    }

    fn try_tau_join(&mut self, d1: RelSet, d2: RelSet) -> Result<u64, MjoinError> {
        self.timed(|o| o.try_tau_join(d1, d2))
    }
}
