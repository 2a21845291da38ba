//! In-memory spans on both clocks, recorded from *outside* the
//! library at the `apps` (kernel closure) and `core.api` (every
//! `DsmApi`/`DsmSlice` call) boundaries, plus the micro section's
//! spans around direct calls into each layer.
//!
//! Spans never leave memory while a rep runs; [`write_chrome_trace`]
//! dumps them as Chrome trace-event JSON when the process is done.
//! A span's *self time* is its duration minus its direct children's.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval on both clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.boundary` name, e.g. `core.api.barrier`.
    pub name: &'static str,
    /// Index of the enclosing span in the same track, or [`NO_PARENT`].
    pub parent: u32,
    /// Host nanoseconds since the trace epoch.
    pub host_start_ns: u64,
    /// Host nanoseconds since the trace epoch.
    pub host_end_ns: u64,
    /// Node virtual clock at entry (0 on the micro track).
    pub virt_start_ns: u64,
    /// Node virtual clock at exit.
    pub virt_end_ns: u64,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    /// Virtual duration in nanoseconds.
    pub fn virt_ns(&self) -> u64 {
        self.virt_end_ns - self.virt_start_ns
    }
}

/// All spans of one simulated node in one case (or the micro section):
/// one Chrome-trace thread.
#[derive(Debug, Clone)]
pub struct Track {
    /// Case name (`micro` for the micro section).
    pub case: String,
    /// Simulated node rank.
    pub node: usize,
    /// Spans in entry order; parents precede children.
    pub spans: Vec<Span>,
}

/// Where finished tracks of a traced rep accumulate.
#[derive(Debug, Clone)]
pub struct TraceSink {
    epoch: Instant,
    tracks: Arc<Mutex<Vec<Track>>>,
}

impl Default for TraceSink {
    fn default() -> TraceSink {
        TraceSink::new()
    }
}

impl TraceSink {
    /// An empty sink whose host epoch is now.
    pub fn new() -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            tracks: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A recorder for one node of `case`; `now` reads that node's
    /// virtual clock in nanoseconds.
    pub fn recorder<'a>(&self, now: &'a dyn Fn() -> u64) -> Recorder<'a> {
        Recorder {
            now,
            epoch: self.epoch,
            spans: RefCell::new(Vec::new()),
            open: Cell::new(NO_PARENT),
        }
    }

    /// File a finished recorder's spans as one track.
    pub fn submit(&self, case: &str, node: usize, rec: Recorder<'_>) {
        let track = Track {
            case: case.to_string(),
            node,
            spans: rec.spans.into_inner(),
        };
        self.tracks
            .lock()
            .expect("a traced node panicked while filing its track")
            .push(track);
    }

    /// Take every filed track, ordered by (case, node) so the output
    /// does not depend on which node thread finished first.
    pub fn take(&self) -> Vec<Track> {
        let mut tracks = std::mem::take(
            &mut *self
                .tracks
                .lock()
                .expect("a traced node panicked while filing its track"),
        );
        tracks.sort_by(|a, b| (&a.case, a.node).cmp(&(&b.case, b.node)));
        tracks
    }
}

/// Single-threaded span recorder of one track. Spans nest by RAII:
/// [`Recorder::span`] opens one, dropping the guard closes it.
pub struct Recorder<'a> {
    now: &'a dyn Fn() -> u64,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<u32>,
}

impl Recorder<'_> {
    fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the currently open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = self.open.get();
        let virt = (self.now)();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len() as u32;
        spans.push(Span {
            name,
            parent,
            host_start_ns: self.host_ns(),
            host_end_ns: 0,
            virt_start_ns: virt,
            virt_end_ns: virt,
        });
        self.open.set(index);
        SpanGuard { rec: self, index }
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<'r> {
    rec: &'r Recorder<'r>,
    index: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let host = self.rec.host_ns();
        let virt = (self.rec.now)();
        let mut spans = self.rec.spans.borrow_mut();
        let s = &mut spans[self.index as usize];
        s.host_end_ns = host;
        s.virt_end_ns = virt;
        self.rec.open.set(s.parent);
    }
}

/// Host self time of every span of a track: duration minus the direct
/// children's durations (children nest strictly, so this never
/// underflows).
pub fn self_host_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::host_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.host_ns();
        }
    }
    own
}

/// At most this many spans are written per track: the element-wise
/// kernels (RX, ME) make a hundred thousand `core.api` calls per node
/// and the viewer stalls on files of that size. The metrics are
/// computed from the full in-memory set; only the file is capped, to
/// each track's first spans (the kernel span is always the first).
const MAX_SPANS_PER_TRACK_IN_FILE: usize = 4_000;

/// Render `tracks` as Chrome trace-event JSON (open in
/// `chrome://tracing` or <https://ui.perfetto.dev>): one process per
/// case, one thread per node, complete (`"ph":"X"`) events on the host
/// clock with the parent's index in the track (-1 for a root) and the
/// virtual interval in `args`.
pub fn write_chrome_trace(tracks: &[Track]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::replace(&mut first, false) {
            out.push_str(",\n");
        }
    };
    let mut pid = 0usize;
    let mut last_case: Option<&str> = None;
    for t in tracks {
        if last_case != Some(t.case.as_str()) {
            pid += 1;
            last_case = Some(t.case.as_str());
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"args\":{{\"name\":{}}}}}",
                crate::json::quote(&t.case)
            );
        }
        let truncated = t.spans.len() > MAX_SPANS_PER_TRACK_IN_FILE;
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"name\":\"node {}{}\"}}}}",
            t.node,
            t.node,
            if truncated { " (file capped)" } else { "" }
        );
        for s in t.spans.iter().take(MAX_SPANS_PER_TRACK_IN_FILE) {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"parent\":{},\"virtual_start_ns\":{},\"virtual_end_ns\":{}}}}}",
                s.name,
                t.node,
                s.host_start_ns as f64 / 1e3,
                s.host_ns() as f64 / 1e3,
                s.parent as i32,
                s.virt_start_ns,
                s.virt_end_ns
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let clock = Cell::new(0u64);
        let now = || clock.get();
        let sink = TraceSink::new();
        let rec = sink.recorder(&now);
        {
            let _k = rec.span("apps.kernel");
            clock.set(10);
            {
                let _b = rec.span("core.api.barrier");
                clock.set(50);
            }
            let _v = rec.span("core.api.view");
            clock.set(60);
        }
        sink.submit("case", 3, rec);
        let tracks = sink.take();
        assert_eq!(tracks.len(), 1);
        let spans = &tracks[0].spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert_eq!((spans[1].virt_start_ns, spans[1].virt_end_ns), (10, 50));
        assert_eq!(spans[0].virt_ns(), 60);
        let own = self_host_ns(spans);
        assert_eq!(
            own[0],
            spans[0].host_ns() - spans[1].host_ns() - spans[2].host_ns()
        );
        assert!(spans[0].host_end_ns >= spans[2].host_end_ns);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let clock = Cell::new(7u64);
        let now = || clock.get();
        let sink = TraceSink::new();
        for node in [1usize, 0] {
            let rec = sink.recorder(&now);
            drop(rec.span("apps.kernel"));
            sink.submit("a \"quoted\" case", node, rec);
        }
        let tracks = sink.take();
        assert_eq!(
            tracks.iter().map(|t| t.node).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let text = write_chrome_trace(&tracks);
        let doc = crate::json::parse(&text).expect("trace parses");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // 1 process + 2 thread metadata events + 2 spans.
        assert_eq!(events.len(), 5);
    }
}
