//! `pad-trace-ingest`: streaming ingestion of external address traces.
//!
//! Everything upstream of this crate simulates the paper's built-in
//! kernels — programs the workspace itself generates. This crate is the
//! door for *real* workloads: it reads address traces produced by
//! anything (a binary instrumentation tool, another simulator, a
//! hardware trace unit) in two formats —
//!
//! * [`binary`]: the fixed-width little-endian `PTRC` format, for bulk
//!   traces (9 bytes/record, truncation-detecting, chunked reads in
//!   bounded memory);
//! * [`ndjson`]: one JSON object per line, for interop and by-eye
//!   debugging, parsed with the same hand-rolled [`json`] layer the
//!   advisor protocol uses;
//!
//! — and streams them, chunk by chunk, into any sink. Replaying a trace
//! through the cache simulator means feeding those chunks to
//! `pad_trace::Sinks`, the same sink set a compiled kernel walk feeds:
//! plain and XOR-indexed caches, three-C classifiers, victim buffers,
//! hierarchies, per-set heat, and exact or SHARDS-sampled reuse
//! distances. Replay of a trace recorded from a built-in kernel
//! reproduces that kernel's results bit-identically (pinned by
//! differential tests), so external traces get exactly the analyses the
//! paper's kernels get.
//!
//! The readers never materialize a whole trace: both stream fixed-size
//! chunks into a caller-supplied sink, so memory stays bounded at a few
//! tens of kilobytes regardless of trace length, and the SHARDS sampler
//! ([`pad_cache_sim::SampledReuseAnalyzer`]) keeps reuse analysis
//! affordable on traces with working sets too large for the exact
//! engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod json;
pub mod metrics;
pub mod ndjson;

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

use pad_cache_sim::Access;

/// On-disk trace encodings this crate reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Fixed-width binary records behind a `PTRC` header.
    Binary,
    /// One JSON object per line.
    Ndjson,
}

impl TraceFormat {
    /// Parses a user-facing format name (`"bin"`/`"binary"`,
    /// `"ndjson"`/`"json"`/`"jsonl"`).
    pub fn from_name(name: &str) -> Option<TraceFormat> {
        match name {
            "bin" | "binary" | "ptrc" => Some(TraceFormat::Binary),
            "ndjson" | "json" | "jsonl" => Some(TraceFormat::Ndjson),
            _ => None,
        }
    }

    /// The canonical name (`"binary"` / `"ndjson"`).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceFormat::Binary => "binary",
            TraceFormat::Ndjson => "ndjson",
        }
    }

    /// Guesses the format from a file extension: `.trc`/`.bin` →
    /// binary, `.ndjson`/`.jsonl`/`.json` → NDJSON.
    pub fn from_extension(path: &Path) -> Option<TraceFormat> {
        match path.extension()?.to_str()? {
            "trc" | "bin" | "ptrc" => Some(TraceFormat::Binary),
            "ndjson" | "jsonl" | "json" => Some(TraceFormat::Ndjson),
            _ => None,
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything that can go wrong while ingesting a trace.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A binary file ended before the 8-byte header completed.
    TruncatedHeader {
        /// Header bytes actually present.
        bytes: usize,
    },
    /// A binary file does not start with the `PTRC` magic.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// A binary file declares a format version this crate cannot read.
    BadVersion {
        /// The declared version.
        found: u16,
    },
    /// A binary file declares an unexpected record width.
    BadRecordSize {
        /// The declared record size in bytes.
        found: usize,
    },
    /// A binary file ended in the middle of a record.
    TruncatedRecord {
        /// Complete records decoded before the cut.
        records: u64,
        /// Stray bytes after the last complete record.
        trailing_bytes: usize,
    },
    /// An NDJSON line failed to parse or had the wrong shape.
    Line {
        /// 1-based line number.
        line: u64,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "trace I/O error: {e}"),
            IngestError::TruncatedHeader { bytes } => {
                write!(
                    f,
                    "truncated trace header: {bytes} of {} bytes",
                    binary::HEADER_SIZE
                )
            }
            IngestError::BadMagic { found } => {
                write!(f, "not a PTRC trace (magic bytes {found:?})")
            }
            IngestError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported PTRC version {found} (supported: {})",
                    binary::VERSION
                )
            }
            IngestError::BadRecordSize { found } => write!(
                f,
                "unsupported PTRC record size {found} (supported: {})",
                binary::RECORD_SIZE
            ),
            IngestError::TruncatedRecord {
                records,
                trailing_bytes,
            } => write!(
                f,
                "trace truncated mid-record: {trailing_bytes} stray byte(s) after record \
                 {records} — the file was likely cut off while being written"
            ),
            IngestError::Line { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Streams a trace in `format` from `input`, feeding decoded chunks to
/// `sink`; returns the record count.
///
/// With metrics on, a read records its bytes and records, and a
/// complete read its wall time and rate (the sink's work included);
/// a read refused as malformed counts as such.
pub fn read_trace<R, F>(input: &mut R, format: TraceFormat, mut sink: F) -> Result<u64, IngestError>
where
    R: Read,
    F: FnMut(&[Access]),
{
    if !pad_telemetry::metrics_enabled() {
        return read_trace_inner(input, format, sink);
    }
    let m = metrics::ingest_metrics();
    let start_us = pad_telemetry::now_us();
    let mut counting = CountingReader {
        inner: input,
        bytes: 0,
    };
    let result = read_trace_inner(&mut counting, format, |chunk| {
        m.records.add(chunk.len() as u64);
        sink(chunk)
    });
    m.bytes.add(counting.bytes);
    match &result {
        Ok(records) => {
            let elapsed = pad_telemetry::now_us().saturating_sub(start_us);
            m.replays.inc();
            m.replay_us.record(elapsed);
            if elapsed > 0 {
                m.replay_records_per_sec
                    .set((*records as f64 * 1e6 / elapsed as f64) as i64);
            }
        }
        // I/O failures are the host's fault, not the trace's.
        Err(IngestError::Io(_)) => {}
        Err(_) => m.malformed.inc(),
    }
    result
}

fn read_trace_inner<R, F>(input: &mut R, format: TraceFormat, sink: F) -> Result<u64, IngestError>
where
    R: Read,
    F: FnMut(&[Access]),
{
    match format {
        TraceFormat::Binary => binary::read_binary(input, sink),
        // The chunked binary reader needs no BufReader (it reads in
        // 36 KiB slabs); the line-oriented reader does.
        TraceFormat::Ndjson => ndjson::read_ndjson(&mut BufReader::new(input), sink),
    }
}

/// Tallies bytes as they stream through (slab-granular, so the
/// accounting adds one addition per 36 KiB read, not per record).
struct CountingReader<'a, R> {
    inner: &'a mut R,
    bytes: u64,
}

impl<R: Read> Read for CountingReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// Opens `path` and streams it as a trace in `format` (or the format
/// guessed from the extension, defaulting to binary).
pub fn read_trace_file<F>(
    path: &Path,
    format: Option<TraceFormat>,
    sink: F,
) -> Result<u64, IngestError>
where
    F: FnMut(&[Access]),
{
    let format = format
        .or_else(|| TraceFormat::from_extension(path))
        .unwrap_or(TraceFormat::Binary);
    let mut file = File::open(path).map_err(IngestError::Io)?;
    read_trace(&mut file, format, sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_names_and_extensions_resolve() {
        assert_eq!(TraceFormat::from_name("bin"), Some(TraceFormat::Binary));
        assert_eq!(TraceFormat::from_name("ndjson"), Some(TraceFormat::Ndjson));
        assert_eq!(TraceFormat::from_name("csv"), None);
        assert_eq!(
            TraceFormat::from_extension(Path::new("a/b/kernel.trc")),
            Some(TraceFormat::Binary)
        );
        assert_eq!(
            TraceFormat::from_extension(Path::new("kernel.ndjson")),
            Some(TraceFormat::Ndjson)
        );
        assert_eq!(TraceFormat::from_extension(Path::new("noext")), None);
        assert_eq!(TraceFormat::Binary.to_string(), "binary");
    }

    #[test]
    fn read_trace_dispatches_by_format() {
        let trace = vec![Access::read(64), Access::write(128)];
        let mut bin = Vec::new();
        binary::write_binary(&mut bin, &trace).unwrap();
        let mut back = Vec::new();
        read_trace(&mut bin.as_slice(), TraceFormat::Binary, |c| {
            back.extend_from_slice(c)
        })
        .unwrap();
        assert_eq!(back, trace);

        let mut nd = Vec::new();
        ndjson::write_ndjson(&mut nd, &trace).unwrap();
        let mut back = Vec::new();
        read_trace(&mut nd.as_slice(), TraceFormat::Ndjson, |c| {
            back.extend_from_slice(c)
        })
        .unwrap();
        assert_eq!(back, trace);
    }
}
