//! The harness's own span recorder, used only by the traced pass.
//!
//! A root span per client op (request id, start, end) and a child span
//! around each call the harness makes into a layer. Spans live in memory
//! allocated before the run and are written out afterwards as a Chrome
//! trace. Ops are sampled deterministically, one in `every` by request id,
//! so a traced op keeps all its spans and nothing is dropped silently: the
//! rate is written into the trace.

use std::io::{self, Write};
use std::path::Path;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// What was timed (`op`, `send+flush`, `recv`, `ledger.transfer` …).
    name: &'static str,
    /// The layer the call went into (crate name), `harness` for roots.
    layer: &'static str,
    /// The client op this belongs to.
    req: u64,
    /// Start, ns since the run's epoch.
    start_ns: u64,
    /// End, ns since the run's epoch.
    end_ns: u64,
}

/// One client thread's span memory.
pub struct SpanBuf {
    spans: Vec<Span>,
    every: u64,
    client: usize,
    /// Sampled spans that found the buffer full.
    pub overflow: u64,
}

impl SpanBuf {
    /// Room for `capacity` spans, sampling one op in `every`.
    pub fn new(client: usize, capacity: usize, every: u64) -> Self {
        Self {
            spans: Vec::with_capacity(capacity),
            every: every.max(1),
            client,
            overflow: 0,
        }
    }

    /// One buffer per client when `traced`, none otherwise.
    pub fn per_client(traced: bool, clients: usize, every: u64) -> Vec<SpanBuf> {
        (0..if traced { clients } else { 0 })
            .map(|c| SpanBuf::new(c, 1 << 16, every))
            .collect()
    }

    /// Whether op `req` is one of the sampled ones.
    #[inline]
    pub fn wants(&self, req: u64) -> bool {
        req.is_multiple_of(self.every)
    }

    /// Records `start_ns..end_ns` of op `req` as a span called `name` around
    /// a call into `layer` — if the op is sampled. Never grows the buffer.
    #[inline]
    pub fn span(
        &mut self,
        name: &'static str,
        layer: &'static str,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.wants(req) {
            return;
        }
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                name,
                layer,
                req,
                start_ns,
                end_ns,
            });
        } else {
            self.overflow += 1;
        }
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Writes the buffers as a Chrome `trace_event` document: one row per
/// client, the layer as category, the request id in `args`.
pub fn write_chrome_trace(path: &Path, workload: &str, bufs: &[SpanBuf]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    let every = bufs.first().map_or(1, |b| b.every);
    let overflow: u64 = bufs.iter().map(|b| b.overflow).sum();
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"sampled_one_in\":{every},\"overflowed\":{overflow},\"traceEvents\":["
    )?;
    let mut first = true;
    for buf in bufs {
        for s in &buf.spans {
            let sep = if first { "" } else { "," };
            first = false;
            write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{}}}}}",
                s.name,
                s.layer,
                buf.client,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.req
            )?;
        }
    }
    writeln!(out, "\n],\"displayTimeUnit\":\"ns\"}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_by_request_id_and_never_grows() {
        let mut b = SpanBuf::new(0, 2, 4);
        assert!(b.wants(0) && b.wants(8) && !b.wants(3));
        for req in [0, 1, 4, 8] {
            b.span("op", "harness", req, req * 10, req * 10 + 5);
        }
        assert_eq!(
            (b.len(), b.overflow),
            (2, 1),
            "1 is not sampled, 8 does not fit"
        );
        let dir = std::env::temp_dir().join(format!("mpsync-bench-span-{}", std::process::id()));
        let path = dir.join("t.json");
        write_chrome_trace(&path, "w", &[b]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"sampled_one_in\":4") && text.contains("\"overflowed\":1"));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
