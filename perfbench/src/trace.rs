//! In-memory spans recorded around the calls into each layer.
//!
//! A span has a layer name, a start and an end (nanoseconds since the
//! tracer was made), the index of the span that caused it and the id of
//! the query it served. Spans stay in memory until the run ends; a layer's
//! self time is its span's duration minus the time its child spans cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layer boundaries the benchmark records, named `crate.layer` after
/// the crate whose public function the span wraps. Declared in the order
/// of [`Layer::ALL`], so `layer as usize` indexes a per-layer array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole traced forward pass (the root of a query's spans).
    Forward,
    /// `HotnessPermutation::to_sorted` over one table's lookups.
    Remap,
    /// `bucketize_into` for one table.
    Bucketize,
    /// `reshape_zeroed` + `add_assign` of one table's partial pools (its
    /// gathers are child spans).
    Merge,
    /// `EmbeddingTable::gather_pool_into` on one shard.
    Gather,
    /// The bottom `Mlp::forward_into`.
    BottomMlp,
    /// `dot_interaction_into`.
    Interaction,
    /// The top `Mlp::forward_into`.
    TopMlp,
    /// One `Simulation::run`.
    SimRun,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Forward,
        Layer::Remap,
        Layer::Bucketize,
        Layer::Merge,
        Layer::Gather,
        Layer::BottomMlp,
        Layer::Interaction,
        Layer::TopMlp,
        Layer::SimRun,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Forward => "core.forward",
            Layer::Remap => "distribution.remap",
            Layer::Bucketize => "partition.bucketize",
            Layer::Merge => "core.merge",
            Layer::Gather => "model.gather",
            Layer::BottomMlp => "tensor.bottom_mlp",
            Layer::Interaction => "model.interaction",
            Layer::TopMlp => "tensor.top_mlp",
            Layer::SimRun => "core.sim_run",
        }
    }
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub query: u32,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id, to pass to [`Tracer::end`] and as
    /// the parent of spans it causes.
    pub fn begin(&mut self, layer: Layer, parent: u32, query: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        let t = self.now_ns();
        self.spans[id as usize].end_ns = t;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per query and layer, in seconds: `out[q][layer]`, for
    /// queries `0..queries`.
    pub fn self_times(&self, queries: usize) -> Vec<[f64; Layer::ALL.len()]> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = vec![[0.0; Layer::ALL.len()]; queries];
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            out[s.query as usize][s.layer as usize] += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span, one per line, after a header naming the columns,
    /// followed by the `summary` lines (the per-layer table).
    pub fn write(&self, path: &Path, summary: &[String]) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 48 + 4096);
        text.push_str("# span_id layer start_ns end_ns parent query\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                text,
                "{i} {} {} {} {parent} {}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.query
            );
        }
        for line in summary {
            let _ = writeln!(text, "# {line}");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin(Layer::Merge, NO_PARENT, 0);
        let child = t.begin(Layer::Gather, root, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let st = t.self_times(1);
        let merge = st[0][Layer::Merge as usize];
        let gather = st[0][Layer::Gather as usize];
        assert!(gather >= 0.002, "gather self time {gather}");
        assert!(
            merge < gather,
            "merge {merge} must exclude its child {gather}"
        );
    }
}
