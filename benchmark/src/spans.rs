//! The harness's own spans: one around each public call into a layer,
//! kept in memory and written as Chrome trace JSON when the workload
//! ends. Spans inside the program are a later change; these bracket the
//! layers from outside.
//!
//! Every span carries its parent (the enclosing span on the same
//! thread) and a request id — one id per repetition, compile pass or
//! daemon batch — so a trace viewer can group a request's spans.

use crate::json::Json;
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: String,
    thread: u64,
    start_us: f64,
    end_us: f64,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// The recorder. With recording off (`--trace 0`) a span costs two
/// clock reads and nothing is stored, so the end-to-end pass and the
/// traced pass run the same code.
pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span and returns its result with the seconds it
    /// took.
    pub fn timed<R>(&self, name: &str, request: u64, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.on {
            let t0 = Instant::now();
            let r = f();
            return (r, t0.elapsed().as_secs_f64());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied().unwrap_or(0);
            o.push(id);
            parent
        });
        let start = self.epoch.elapsed();
        let r = f();
        let end = self.epoch.elapsed();
        OPEN.with(|o| o.borrow_mut().pop());
        self.done.lock().expect("span store").push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            thread: THREAD.with(|t| *t),
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        });
        (r, (end - start).as_secs_f64())
    }

    /// [`timed`](Self::timed) for callers that only want the result.
    pub fn span<R>(&self, name: &str, request: u64, f: impl FnOnce() -> R) -> R {
        self.timed(name, request, f).0
    }

    /// Spans recorded so far.
    pub fn count(&self) -> usize {
        self.done.lock().expect("span store").len()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one `X`
    /// event per span, `args` holding id, parent and request.
    pub fn chrome_json(&self) -> Json {
        let spans = self.done.lock().expect("span store");
        let events = spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.thread as f64)),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(s.id as f64)),
                            ("parent", Json::Num(s.parent as f64)),
                            ("request", Json::Num(s.request as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_json().to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_request() {
        let spans = Spans::new(true);
        let (v, outer_s) = spans.timed("outer", 7, || {
            spans.span("inner", 7, || std::hint::black_box(41) + 1)
        });
        assert_eq!(v, 42);
        assert!(outer_s >= 0.0);
        let doc = spans.chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let by_name = |n: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(n))
                .unwrap()
        };
        let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_f64);
        let (outer, inner) = (by_name("outer"), by_name("inner"));
        assert_eq!(arg(inner, "parent"), arg(outer, "id"));
        assert_eq!(arg(outer, "parent"), Some(0.0));
        assert_eq!(arg(inner, "request"), Some(7.0));
    }

    #[test]
    fn recording_off_stores_nothing() {
        let spans = Spans::new(false);
        assert_eq!(spans.span("x", 1, || 5), 5);
        assert_eq!(spans.count(), 0);
    }
}
