//! The benchmark's own spans: one per public call it times, recorded
//! around the call from outside the program. Spans stay in memory and
//! are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span. `parent` and `request` are 0 when absent; times
/// are nanoseconds since the tracer was created.
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times calls and, when on, records a span for each.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` and returns its result with its wall duration. When the
    /// tracer is on, the call is also recorded as span `name` under
    /// `parent`, and `f` receives the new span's id to parent its own
    /// children (0 when off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.on {
            let ns = |t: Instant| t.duration_since(self.t0).as_nanos() as u64;
            self.spans
                .lock()
                .expect("span buffer lock poisoned")
                .push(SpanRec {
                    id,
                    parent,
                    request,
                    name,
                    start_ns: ns(start),
                    end_ns: ns(end),
                });
        }
        (out, end - start)
    }

    pub fn n_spans(&self) -> usize {
        self.spans.lock().expect("span buffer lock poisoned").len()
    }

    /// Writes every span as one tab-separated line, sorted by start.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_only_record_when_on() {
        let off = Tracer::new(false);
        let (v, _) = off.span("outer", 0, 0, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(v, 7);
        assert_eq!(off.n_spans(), 0);

        let on = Tracer::new(true);
        let (outer_id, _) = on.span("outer", 0, 42, |id| {
            on.span("inner", id, 42, |_| ());
            id
        });
        let spans = on.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer_id);
        assert_eq!(outer.id, outer_id);
        assert_eq!(inner.request, 42);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
