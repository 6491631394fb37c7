//! Spans recorded by the benchmark around its own calls into the program.
//! They stay in memory during a run and are written out at its end.

use std::io::Write;

/// Spans kept per worker thread and repetition; later ones still feed the
/// percentile histograms but are not written out.
pub const SPANS_PER_THREAD: usize = 1 << 14;

#[derive(Clone, Copy, PartialEq)]
pub enum Call {
    Put,
    Take,
}

/// One call into a layer: which call, by which worker, for which item
/// (producer and sequence number, shared by the put and the take of one
/// item; `u32::MAX` when a take found nothing), from when to when.
#[derive(Clone, Copy)]
pub struct Span {
    pub call: Call,
    pub thread: u8,
    pub item_producer: u8,
    pub item_seq: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Names of the layer and of its two calls on one workload.
#[derive(Clone, Copy)]
pub struct Layer {
    pub layer: &'static str,
    pub put: &'static str,
    pub take: &'static str,
}

pub const LCRQ: Layer = Layer {
    layer: "core.lcrq",
    put: "enqueue",
    take: "dequeue",
};

pub const CHANNEL: Layer = Layer {
    layer: "channel",
    put: "send",
    take: "recv",
};

/// Writes one JSON object per span: `rep` is the repetition, times are
/// nanoseconds since that repetition's start.
pub fn write_jsonl(
    path: &std::path::Path,
    workload: &str,
    names: Layer,
    reps: &[(usize, Vec<Span>)],
) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for (rep, spans) in reps {
        for s in spans {
            let call = if s.call == Call::Put {
                names.put
            } else {
                names.take
            };
            let seq = if s.item_seq == u32::MAX {
                "null".to_string()
            } else {
                s.item_seq.to_string()
            };
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"rep\":{rep},\"layer\":\"{}\",\"call\":\"{call}\",\"thread\":{},\"item_producer\":{},\"item_seq\":{seq},\"start_ns\":{},\"end_ns\":{}}}",
                names.layer, s.thread, s.item_producer, s.start_ns, s.end_ns
            )?;
            written += 1;
        }
    }
    out.flush()?;
    Ok(written)
}
