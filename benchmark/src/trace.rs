//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! The traced run wraps every call into a layer's public function in one
//! span — name, start, end, the span that caused it, and a request id that
//! every span of one request shares. Spans stay in memory until the run
//! ends; [`Tracer::write`] then puts them in `out/trace_<workload>.json`
//! and [`Tracer::layers`] folds them into per-layer totals. A layer's self
//! time is its spans' duration minus the part their child spans cover.
//!
//! Nothing inside the program under test records spans: those are a later
//! change, and the per-layer numbers here stop at what an outside caller
//! can reach.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::json;

/// The process-wide zero of span clocks, so spans recorded on different
/// threads line up.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide span epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and call, e.g. `wire.decode`.
    pub name: &'static str,
    /// Start, nanoseconds since the span epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the span epoch (0 while open).
    pub end_ns: u64,
    parent: u32,
    /// Request the call served (the packet_in's xid, an episode number…).
    pub req: u64,
}

/// Per-layer totals folded from spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Calls recorded.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span durations minus the time their children cover, ns.
    pub self_ns: u64,
    /// Sum of the spans' request ids — for spans whose id carries a batch
    /// size, the number of items the calls handled.
    pub req_sum: u64,
}

impl LayerStat {
    /// Mean span duration, ns (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A single-threaded span recorder. With recording off, [`Tracer::begin`]
/// and [`Tracer::end`] do nothing but branch, which is what the untraced
/// twin of a replay measures against.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Spans written to the file; the per-layer totals always cover all spans.
pub const MAX_SPANS_WRITTEN: usize = 200_000;

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        epoch();
        Tracer {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span caused by the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            req,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and, defensively, anything opened inside it).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end = now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end;
            if top == id.0 {
                break;
            }
        }
    }

    /// Times `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, req);
        let r = f();
        self.end(id);
        r
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another recorder's closed spans (a different thread's),
    /// keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Per-layer totals, keyed by span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let stat = out.entry(s.name).or_default();
            stat.count += 1;
            stat.total_ns += dur;
            stat.self_ns += dur.saturating_sub(child_ns[i]);
            stat.req_sum += s.req;
        }
        out
    }

    /// Writes the spans as JSON: a header, then one object per span with
    /// `id`, `name`, `start_ns`, `end_ns`, `parent` (an id or null) and
    /// `req`. At most [`MAX_SPANS_WRITTEN`] spans are written, in recording
    /// order; `spans_recorded` says how many there were.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut body = String::with_capacity(128 * self.spans.len().min(MAX_SPANS_WRITTEN) + 256);
        body.push_str("{\"workload\": ");
        json::string(&mut body, workload);
        body.push_str(&format!(
            ", \"seed\": {seed}, \"clock\": \"ns since the first span of the process, monotonic\", \
             \"spans_recorded\": {}, \"spans\": [\n",
            self.spans.len()
        ));
        for (id, s) in self.spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
            if id > 0 {
                body.push_str(",\n");
            }
            body.push_str(&format!("{{\"id\": {id}, \"name\": "));
            json::string(&mut body, s.name);
            body.push_str(&format!(
                ", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
                s.start_ns, s.end_ns
            ));
            if s.parent == NO_PARENT {
                body.push_str("null");
            } else {
                body.push_str(&s.parent.to_string());
            }
            body.push_str(&format!(", \"req\": {}}}", s.req));
        }
        body.push_str("\n]}\n");
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(body.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let req = t.begin("request", 7);
        let a = t.begin("wire.decode", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.span("floodguard.on_message", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(3));
        });
        t.end(req);
        let layers = t.layers();
        let request = layers["request"];
        let decode = layers["wire.decode"];
        let on_message = layers["floodguard.on_message"];
        assert_eq!(request.count, 1);
        assert!(decode.total_ns >= 2_000_000 && on_message.total_ns >= 3_000_000);
        assert_eq!(decode.self_ns, decode.total_ns, "leaf: self == total");
        assert_eq!(
            request.self_ns,
            request.total_ns - decode.total_ns - on_message.total_ns
        );
        assert!(!layers.contains_key("absent"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 1);
        t.end(id);
        assert_eq!(t.span("y", 2, || 5), 5);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn absorb_keeps_parent_links_and_file_is_written() {
        let mut a = Tracer::new(true);
        a.span("outer", 1, || {});
        let mut b = Tracer::new(true);
        let outer = b.begin("outer", 2);
        b.span("inner", 2, || {});
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(
            a.spans[2].parent, 1,
            "inner's parent re-based past a's span"
        );
        let dir = crate::workloads::out_dir().join(format!("selftest-{}", std::process::id()));
        let path = dir.join("trace_test.json");
        a.write(&path, "test", 3).expect("write spans");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("\"spans_recorded\": 3"));
        assert!(body.contains("\"name\": \"inner\""));
        assert!(body.contains("\"parent\": 1"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
