//! In-memory span recorder for the traced run.
//!
//! Spans are recorded here, around the harness's calls into each layer's
//! public functions; the program itself carries no spans. Every span has
//! a name, start, end, parent and op id; all spans stay in memory until
//! the run ends and are then written out as JSON lines.

use crate::report::{disk_mb, median, setup_ms, Outcome};
use crate::{Args, Metrics};
use grm_core::MiningContext;
use grm_graph::{io, CompactModel, SocialGraph};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Span identifier: its index in the recorder.
pub type SpanId = usize;

/// The recorder. One per traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a span measured elsewhere (another thread's client loop),
    /// given as start and end offsets from `base`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        base: Instant,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let off = base.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: off + start.saturating_duration_since(base).as_nanos() as u64,
            end_ns: off + end.saturating_duration_since(base).as_nanos() as u64,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn duration_ms(s: &Span) -> f64 {
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6
    }

    /// Every duration (ms) of spans called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::duration_ms)
            .collect()
    }

    /// Write every span as one JSON line: name, start and end (ns from
    /// the recorder's epoch), parent index and op id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

// Layer calls under spans, shared by the workloads.

/// Traced set-up shared by the in-core workloads: `setups` timed loads
/// inside `io.load` spans, summarised like `setup_s` ([`setup_ms`]).
pub fn load_traced(
    tr: &mut Tracer,
    path: &str,
    setups: usize,
    m: &mut Metrics,
) -> Result<SocialGraph, String> {
    let mut graph = None;
    for i in 0..setups.max(1) {
        drop(graph.take());
        let g = tr.span("io.load", None, i as u64, || io::load_graph(path));
        graph = Some(g.map_err(|e| format!("loading `{path}`: {e}"))?);
    }
    m.insert("io.load_ms", setup_ms(&tr.durations("io.load")));
    m.insert("io.input_mb", disk_mb(Path::new(path)));
    Ok(graph.expect("at least one load"))
}

/// The compact-model and mining-context builds a mine starts with,
/// called on their own inside spans under `parent`. Returns the compact
/// model's cell count.
pub fn layer_builds(tr: &mut Tracer, graph: &SocialGraph, parent: usize, op: u64) -> usize {
    let model = tr.span("compact.build", Some(parent), op, || {
        CompactModel::build(graph)
    });
    let cells = model.cells();
    let ctx = tr.span("context.build", Some(parent), op, || {
        MiningContext::new(model, false)
    });
    drop(ctx);
    cells
}

/// The in-core mine's layer times from the `compact.build`,
/// `context.build` and `miner.mine` spans. A mine rebuilds the compact
/// model and context inside its own call, so the miner's self time is
/// its span minus their standalone builds. Returns the mine's time.
pub fn miner_layers(m: &mut Metrics, tr: &Tracer) -> f64 {
    let compact = median(&tr.durations("compact.build"));
    let context = median(&tr.durations("context.build"));
    let mine = median(&tr.durations("miner.mine"));
    m.insert("compact.build_ms", compact);
    m.insert("context.build_ms", context);
    m.insert("miner.mine_ms", mine);
    m.insert("miner.self_ms", mine - compact - context);
    mine
}

/// The trace's bookkeeping metrics. The layer self times are derived
/// by subtraction from spans around one call, so they sum to that
/// call's traced time by construction and cannot show unexplained time
/// inside it. What they leave of the untraced op time is minus
/// `trace.overhead_ms`, the traced minus the untraced time.
pub fn trace_summary(m: &mut Metrics, tr: &Tracer, op_ms: f64, traced_ms: f64) {
    m.insert("trace.op_ms", op_ms);
    m.insert("trace.overhead_ms", traced_ms - op_ms);
    m.insert("trace.spans", tr.len() as f64);
}

/// Write the spans where `--spans` asks, if it does.
pub fn write_spans(args: &Args, tr: &Tracer, out: &mut Outcome) {
    if let Ok(path) = args.str("spans") {
        if let Err(e) = tr.write_jsonl(Path::new(path)) {
            out.fail_check(format!("writing spans to `{path}`: {e}"));
        }
    }
}
