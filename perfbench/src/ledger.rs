//! The benchmark's own span ledger: one span around each call it makes
//! into a layer's public functions, kept in memory and written out at the
//! end. A layer's self time is its span minus the spans it encloses.
//!
//! The same call sites carry the sensitivity injection: `--inject NAME`
//! makes every call wrapped under `NAME` spin for as long as the call
//! itself took, doubling that layer's time whether or not tracing is on.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Request / program / variant id the call served.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same ledger.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open call; pass it back to [`Ledger::end`].
pub struct Open {
    name: &'static str,
    start: Option<Instant>,
    slot: Option<usize>,
}

pub struct Ledger {
    trace: bool,
    inject: Option<String>,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Ledger {
    pub fn new(trace: bool, inject: Option<String>, epoch: Instant) -> Ledger {
        Ledger {
            trace,
            inject,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.trace
    }

    pub fn set_tracing(&mut self, on: bool) {
        self.trace = on;
    }

    fn injects(&self, name: &str) -> bool {
        self.inject.as_deref() == Some(name)
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.trace && !self.injects(name) {
            return Open {
                name,
                start: None,
                slot: None,
            };
        }
        let start = Instant::now();
        let slot = self.trace.then(|| {
            let at = self.ns(start);
            self.spans.push(Span {
                name,
                id,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            name,
            start: Some(start),
            slot,
        }
    }

    pub fn end(&mut self, open: Open) {
        let Some(start) = open.start else { return };
        let took = start.elapsed();
        if self.injects(open.name) {
            let until = Instant::now() + took;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = self.ns(Instant::now());
            self.stack.pop();
        }
    }

    /// Wrap one call.
    pub fn call<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another ledger's spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Ledger) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span named `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per span name: (calls, inclusive ns, self ns).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"workload\":\"{workload}\",\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut led = Ledger::new(true, None, Instant::now());
        let outer = led.begin("outer", 1);
        led.call("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        led.end(outer);
        let t = led.self_times();
        let (calls, incl, own) = t["outer"];
        assert_eq!(calls, 1);
        assert!(incl >= t["inner"].1);
        assert_eq!(own, incl - t["inner"].1);
        assert_eq!(led.spans()[1].parent, Some(0));
    }

    #[test]
    fn untraced_ledger_records_nothing() {
        let mut led = Ledger::new(false, None, Instant::now());
        led.call("x", 0, || ());
        assert!(led.spans().is_empty());
    }

    #[test]
    fn injection_doubles_the_wrapped_call() {
        let mut led = Ledger::new(false, Some("slow".into()), Instant::now());
        let t0 = Instant::now();
        led.call("slow", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        assert!(t0.elapsed() >= std::time::Duration::from_millis(40));
    }
}
