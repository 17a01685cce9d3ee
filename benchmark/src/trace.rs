//! Spans around the calls the harness makes into each layer's public
//! API. They live only here: the program under test is not
//! instrumented, so a span covers exactly one call from outside.
//!
//! Every span is folded into a per-layer aggregate (count, total time,
//! self time = total minus the part its child spans cover) when it
//! closes; the first [`SPAN_CAP`] spans of the timed phase are also
//! kept verbatim for the trace file. The harness drives every workload
//! from one thread, so a plain stack of open spans is the call tree.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::{obj, Json};

/// Spans kept verbatim for the trace file (a saturated engine run
/// closes millions; the aggregates cover all of them).
const SPAN_CAP: usize = 50_000;

/// What a span measures: one call into one layer (or the harness's own
/// per-request root span, whose self time is the driver's overhead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Harness,
    GraphEstablish,
    SourceSend,
    WireDecode,
    RelaySetup,
    RelayData,
    RelayDest,
    RelayPoll,
    SessionOpen,
    SessionSend,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Harness,
        Layer::GraphEstablish,
        Layer::SourceSend,
        Layer::WireDecode,
        Layer::RelaySetup,
        Layer::RelayData,
        Layer::RelayDest,
        Layer::RelayPoll,
        Layer::SessionOpen,
        Layer::SessionSend,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness.request",
            Layer::GraphEstablish => "graph.establish",
            Layer::SourceSend => "core.source.send",
            Layer::WireDecode => "wire.decode",
            Layer::RelaySetup => "core.relay.setup",
            Layer::RelayData => "core.relay.data",
            Layer::RelayDest => "core.relay.dest",
            Layer::RelayPoll => "core.relay.poll",
            Layer::SessionOpen => "overlay.session.open",
            Layer::SessionSend => "overlay.session.send",
        }
    }
}

/// One closed span as written to the trace file.
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span in the file, if it was kept too.
    parent: Option<u32>,
    /// The message or session the call served.
    req: u64,
}

struct Open {
    layer: Layer,
    req: u64,
    start_ns: u64,
    children_ns: u64,
    slot: Option<u32>,
}

/// Per-layer totals over every span closed since the last
/// [`Tracer::take_totals`].
#[derive(Clone, Copy, Default)]
pub struct LayerTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Clone, Copy, Default)]
pub struct Totals {
    layers: [LayerTotal; Layer::ALL.len()],
    /// What an empty span measures: the part of the clock reads that
    /// falls between a span's start and end. Subtracted from per-call
    /// means so a 30 ns call is not reported as 55 ns.
    empty_span_ns: f64,
}

impl Totals {
    pub fn get(&self, layer: Layer) -> LayerTotal {
        self.layers[layer as usize]
    }

    /// Mean time of one call into `layer`, net of the clock reads;
    /// `None` if the phase made no such call.
    pub fn mean_ns(&self, layer: Layer) -> Option<f64> {
        let t = self.get(layer);
        (t.calls > 0).then(|| (t.total_ns as f64 / t.calls as f64 - self.empty_span_ns).max(0.0))
    }

    /// The self-time table: where the harness thread's wall time went.
    pub fn table(&self, wall_ns: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<22} {:>11} {:>12} {:>12} {:>7}",
            "layer", "calls", "mean_ns", "self_ms", "share"
        );
        let mut covered = 0u64;
        for layer in Layer::ALL {
            let t = self.get(layer);
            if t.calls == 0 {
                continue;
            }
            covered += t.self_ns;
            let _ = writeln!(
                out,
                "  {:<22} {:>11} {:>12.1} {:>12.3} {:>6.1}%",
                layer.name(),
                t.calls,
                self.mean_ns(layer).unwrap_or(0.0),
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / wall_ns.max(1) as f64,
            );
        }
        let outside = wall_ns.saturating_sub(covered);
        let _ = writeln!(
            out,
            "  {:<22} {:>11} {:>12} {:>12.3} {:>6.1}%",
            "(outside spans)",
            "",
            "",
            outside as f64 / 1e6,
            100.0 * outside as f64 / wall_ns.max(1) as f64,
        );
        out
    }

    pub fn as_json(&self, wall_ns: u64) -> Json {
        Json::Arr(
            Layer::ALL
                .iter()
                .filter(|&&l| self.get(l).calls > 0)
                .map(|&l| {
                    let t = self.get(l);
                    obj([
                        ("layer", Json::Str(l.name().into())),
                        ("calls", Json::Num(t.calls as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                        (
                            "share_of_wall",
                            Json::Num(t.self_ns as f64 / wall_ns.max(1) as f64),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// The span recorder. Disabled, every method returns at once without
/// reading the clock, so the untraced run pays a predictable branch.
pub struct Tracer {
    enabled: bool,
    keep: bool,
    epoch: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    totals: Totals,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        let mut tracer = Tracer {
            enabled,
            keep: false,
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            totals: Totals::default(),
        };
        if enabled {
            const PROBES: u64 = 100_000;
            for req in 0..PROBES {
                tracer.begin(Layer::Harness, req);
                tracer.end();
            }
            let empty = tracer.take_totals().get(Layer::Harness);
            tracer.totals.empty_span_ns = empty.total_ns as f64 / PROBES as f64;
        }
        tracer
    }

    /// Nanoseconds since the tracer's epoch (the run's clock).
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Start keeping spans verbatim (called when the timed phase
    /// starts; set-up spans only feed the aggregates).
    pub fn keep_spans(&mut self) {
        self.keep = self.enabled;
    }

    pub fn begin(&mut self, layer: Layer, req: u64) {
        if !self.enabled {
            return;
        }
        let slot = (self.keep && self.spans.len() < SPAN_CAP).then(|| {
            let parent = self.open.last().and_then(|p| p.slot);
            self.spans.push(Span {
                layer,
                start_ns: 0,
                end_ns: 0,
                parent,
                req,
            });
            (self.spans.len() - 1) as u32
        });
        self.open.push(Open {
            layer,
            req,
            start_ns: self.now_ns(),
            children_ns: 0,
            slot,
        });
    }

    pub fn end(&mut self) {
        self.close(None);
    }

    /// Close the innermost span under another name — for calls whose
    /// kind is only known from their result (a relay call is a
    /// destination decode only if it returned a message).
    pub fn end_as(&mut self, layer: Layer) {
        self.close(Some(layer));
    }

    fn close(&mut self, rename: Option<Layer>) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let span = self.open.pop().expect("end() without begin()");
        let layer = rename.unwrap_or(span.layer);
        let total = end_ns - span.start_ns;
        let t = &mut self.totals.layers[layer as usize];
        t.calls += 1;
        t.total_ns += total;
        t.self_ns += total.saturating_sub(span.children_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.children_ns += total;
        }
        if let Some(slot) = span.slot {
            let kept = &mut self.spans[slot as usize];
            kept.layer = layer;
            kept.start_ns = span.start_ns;
            kept.end_ns = end_ns;
            debug_assert_eq!(kept.req, span.req);
        }
    }

    /// The aggregates since the last call, which then start again from
    /// zero (the calibration is kept).
    pub fn take_totals(&mut self) -> Totals {
        let taken = self.totals;
        self.totals.layers = Default::default();
        taken
    }

    pub fn empty_span_ns(&self) -> f64 {
        self.totals.empty_span_ns
    }

    /// The kept spans as `{name, start_ns, end_ns, parent, req}`.
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", Json::Str(s.layer.name().into())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("req", Json::Num(s.req as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.keep_spans();
        tr.begin(Layer::Harness, 1);
        tr.begin(Layer::RelayData, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end_as(Layer::RelayDest);
        tr.end();
        let totals = tr.take_totals();
        let root = totals.get(Layer::Harness);
        let child = totals.get(Layer::RelayDest);
        assert_eq!((root.calls, child.calls), (1, 1));
        assert_eq!(totals.get(Layer::RelayData).calls, 0, "renamed on close");
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(root.self_ns, root.total_ns - child.total_ns);
        let spans = tr.spans_json();
        assert_eq!(spans.as_arr().len(), 2);
        assert_eq!(spans.as_arr()[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            spans.as_arr()[1].get("name").unwrap().as_str(),
            Some("core.relay.dest")
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.keep_spans();
        tr.begin(Layer::Harness, 1);
        tr.end();
        assert_eq!(tr.take_totals().get(Layer::Harness).calls, 0);
        assert!(tr.spans_json().as_arr().is_empty());
    }
}
