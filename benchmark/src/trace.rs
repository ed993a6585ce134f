//! In-memory spans around every call the benchmark makes into a product
//! layer, written out at exit in Chrome trace-event format.
//!
//! The recorder is a thread-local: the benchmark is one client on one
//! thread, and [`crate::surface`] — the only module that calls the product —
//! wraps each call in [`span`]. While tracing is off a span costs one
//! thread-local flag read; nothing is allocated and nothing is recorded, and
//! the end-to-end metrics come from runs in that state.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One completed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The product function called, e.g. `write_file`.
    pub name: &'static str,
    /// The crate the function belongs to (`hdfs`, `codes`, …), or `bench`
    /// for the benchmark's own iteration root.
    pub layer: &'static str,
    /// What the call worked on (a code name, an experiment), may be empty.
    pub arg: String,
    /// The iteration the span belongs to: spans of one iteration share it.
    pub iter: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

struct Recorder {
    epoch: Instant,
    iter: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turns recording on or off for this thread. The first `enable(true)` fixes
/// the epoch all spans are measured from.
pub fn enable(on: bool) {
    ENABLED.with(|e| e.set(on));
    if on {
        RECORDER.with(|r| {
            r.borrow_mut().get_or_insert_with(|| Recorder {
                epoch: Instant::now(),
                iter: 0,
                open: Vec::new(),
                spans: Vec::new(),
            });
        });
    }
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Sets the iteration number stamped on the spans that follow.
pub fn set_iter(iter: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.iter = iter;
        }
    });
}

/// Runs `f`; when tracing is on, records it as a span of `layer` named
/// `name`, nested under whichever span is open.
pub fn span<R>(layer: &'static str, name: &'static str, arg: &str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let index = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("enable(true) created the recorder");
        let index = rec.spans.len();
        let now = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            layer,
            arg: arg.to_string(),
            iter: rec.iter,
            parent: rec.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        rec.open.push(index);
        index
    });
    let out = f();
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("recorder outlives its spans");
        rec.spans[index].end_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.open.pop();
    });
    out
}

/// A copy of every span recorded on this thread so far.
pub fn spans() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map(|rec| rec.spans.clone())
            .unwrap_or_default()
    })
}

/// Forgets every recorded span (the epoch stays).
#[cfg(test)]
pub fn clear() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.spans.clear();
            rec.open.clear();
        }
    });
}

/// Writes `spans` as a Chrome trace-event file (`ph: "X"` complete events,
/// microsecond timestamps) that `ui.perfetto.dev` and `chrome://tracing`
/// load directly. Each layer gets its own track (`tid`).
pub fn write_chrome(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut layers: Vec<&str> = spans.iter().map(|s| s.layer).collect();
    layers.sort_unstable();
    layers.dedup();
    let tid = |layer: &str| layers.iter().position(|l| *l == layer).unwrap_or(0) + 1;

    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    for layer in &layers {
        if !std::mem::take(&mut first) {
            write!(out, ",")?;
        }
        write!(
            out,
            "\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{layer}\"}}}}",
            tid(layer)
        )?;
    }
    for (i, s) in spans.iter().enumerate() {
        if !std::mem::take(&mut first) {
            write!(out, ",")?;
        }
        let label = if s.arg.is_empty() {
            s.name.to_string()
        } else {
            format!("{} [{}]", s.name, s.arg)
        };
        write!(
            out,
            "\n{{\"name\":\"{label}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"iter\":{},\"parent\":{}}}}}",
            s.layer,
            tid(s.layer),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.iter,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_iteration() {
        enable(true);
        clear();
        set_iter(7);
        let v = span("bench", "iteration", "", || {
            span("hdfs", "write_file", "pentagon", || 41) + 1
        });
        assert_eq!(v, 42);
        let s = spans();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].layer, s[0].name, s[0].parent),
            ("bench", "iteration", None)
        );
        assert_eq!(
            (s[1].layer, s[1].arg.as_str(), s[1].parent),
            ("hdfs", "pentagon", Some(0))
        );
        assert!(s.iter().all(|x| x.iter == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        enable(false);
    }

    #[test]
    fn nothing_is_recorded_while_disabled() {
        enable(true);
        clear();
        enable(false);
        assert_eq!(span("gf", "mul_acc", "", || 5), 5);
        assert!(spans().is_empty());
    }

    fn fixture() -> Vec<Span> {
        let s = |layer, parent, start_ns, end_ns| Span {
            name: "f",
            layer,
            arg: String::new(),
            iter: 0,
            parent,
            start_ns,
            end_ns,
        };
        vec![
            s("bench", None, 0, 1_000),
            s("hdfs", Some(0), 100, 700),
            s("codes", Some(1), 200, 500),
            s("hdfs", Some(0), 700, 900),
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        write_chrome(&fixture(), &path).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads back");
        std::fs::remove_dir_all(&dir).ok();
        let v = serde_json::parse(&text).expect("valid JSON");
        let events = match crate::surface::json_lookup(&v, "traceEvents") {
            Some(serde_json::Value::Seq(e)) => e.clone(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        // 3 thread_name records + 4 spans.
        assert_eq!(events.len(), 7);
    }
}
