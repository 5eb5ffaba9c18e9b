//! The `PTRC` binary address-trace format: fixed-width little-endian
//! records behind an 8-byte header, designed so a reader can stream a
//! multi-gigabyte trace in bounded memory and *prove* the file ends on a
//! record boundary.
//!
//! Layout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"PTRC"
//! 4       2     format version, u16 LE (currently 1)
//! 6       2     record size in bytes, u16 LE (currently 9)
//! 8       9·n   records: addr u64 LE, flags u8 (bit 0 = write)
//! ```
//!
//! The record size lives in the header so a future wider record (e.g.
//! with a thread id) bumps the version without ambushing old readers:
//! they reject the file instead of misparsing it. Reads go through a
//! caller-sized chunk buffer — no mmap, no whole-file materialization —
//! and a final partial record is a hard [`IngestError::TruncatedRecord`]
//! rather than a silent drop, because a truncated trace usually means a
//! crashed producer and the miss counts downstream would be quietly
//! wrong.

use std::io::{self, Read, Write};

use pad_cache_sim::Access;

use crate::IngestError;

/// The four magic bytes opening every trace file.
pub const MAGIC: [u8; 4] = *b"PTRC";
/// The format version this crate reads and writes.
pub const VERSION: u16 = 1;
/// Bytes per record in version 1: 8 address bytes + 1 flag byte.
pub const RECORD_SIZE: usize = 9;
/// Header bytes preceding the first record.
pub const HEADER_SIZE: usize = 8;

/// Flag bit marking a record as a store.
const FLAG_WRITE: u8 = 1;

/// Default records decoded per callback from [`read_binary`]: 4096
/// records ≈ 36 KiB of file bytes and 64 KiB of decoded [`Access`]es —
/// bounded regardless of trace length, and the batched engine's chunk
/// size (`pad_trace::BATCH_CHUNK`).
pub const CHUNK_RECORDS: usize = 4096;

/// Encodes the header into its 8-byte wire form.
fn header_bytes() -> [u8; HEADER_SIZE] {
    let mut h = [0u8; HEADER_SIZE];
    h[..4].copy_from_slice(&MAGIC);
    h[4..6].copy_from_slice(&VERSION.to_le_bytes());
    h[6..8].copy_from_slice(&(RECORD_SIZE as u16).to_le_bytes());
    h
}

/// Writes `trace` as a complete `PTRC` stream (header + records).
pub fn write_binary<W: Write>(out: &mut W, trace: &[Access]) -> io::Result<()> {
    let mut w = BinaryTraceWriter::new(out)?;
    for &access in trace {
        w.write(access)?;
    }
    w.finish()
}

/// An incremental `PTRC` writer for producers that stream records as
/// they are generated. The header is written at construction; records
/// are buffered and flushed in chunks.
pub struct BinaryTraceWriter<'w, W: Write> {
    out: &'w mut W,
    buf: Vec<u8>,
    written: u64,
}

impl<'w, W: Write> BinaryTraceWriter<'w, W> {
    /// Opens a writer and emits the header.
    pub fn new(out: &'w mut W) -> io::Result<Self> {
        out.write_all(&header_bytes())?;
        Ok(BinaryTraceWriter {
            out,
            buf: Vec::with_capacity(CHUNK_RECORDS * RECORD_SIZE),
            written: 0,
        })
    }

    /// Appends one record.
    pub fn write(&mut self, access: Access) -> io::Result<()> {
        self.buf.extend_from_slice(&access.addr.to_le_bytes());
        self.buf.push(if access.is_write { FLAG_WRITE } else { 0 });
        self.written += 1;
        if self.buf.len() >= CHUNK_RECORDS * RECORD_SIZE {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.written
    }

    /// Flushes buffered records. Must be called before dropping the
    /// writer — records still in the buffer are otherwise lost.
    pub fn finish(mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.out.flush()
    }
}

/// Decodes one record from its 9-byte wire form.
#[inline]
fn decode(rec: &[u8]) -> Access {
    let addr = u64::from_le_bytes(rec[..8].try_into().unwrap());
    Access {
        addr,
        is_write: rec[8] & FLAG_WRITE != 0,
    }
}

/// Streams a `PTRC` trace from `input`, invoking `sink` with decoded
/// chunks of at most [`CHUNK_RECORDS`] accesses. Returns the total
/// record count.
///
/// Memory use is one fixed chunk buffer regardless of trace size. A
/// zero-record file (header only) is valid and yields no callbacks.
/// Errors: [`IngestError::BadMagic`] / [`IngestError::BadVersion`] /
/// [`IngestError::BadRecordSize`] for a foreign or future file,
/// [`IngestError::TruncatedHeader`] / [`IngestError::TruncatedRecord`]
/// for a file not ending on a record boundary.
pub fn read_binary<R, F>(input: &mut R, mut sink: F) -> Result<u64, IngestError>
where
    R: Read,
    F: FnMut(&[Access]),
{
    let mut header = [0u8; HEADER_SIZE];
    let got = read_up_to(input, &mut header).map_err(IngestError::Io)?;
    if got < HEADER_SIZE {
        return Err(IngestError::TruncatedHeader { bytes: got });
    }
    if header[..4] != MAGIC {
        return Err(IngestError::BadMagic {
            found: [header[0], header[1], header[2], header[3]],
        });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(IngestError::BadVersion { found: version });
    }
    let record_size = u16::from_le_bytes([header[6], header[7]]) as usize;
    if record_size != RECORD_SIZE {
        return Err(IngestError::BadRecordSize { found: record_size });
    }

    let mut raw = vec![0u8; CHUNK_RECORDS * RECORD_SIZE];
    let mut decoded = Vec::with_capacity(CHUNK_RECORDS);
    let mut pending = 0usize; // bytes of a partial record carried over
    let mut total = 0u64;
    loop {
        let got = read_up_to(input, &mut raw[pending..]).map_err(IngestError::Io)?;
        let avail = pending + got;
        if avail == 0 {
            return Ok(total);
        }
        let whole = avail / RECORD_SIZE * RECORD_SIZE;
        if whole == 0 {
            // `read_up_to` only comes back short at end of input, so
            // fewer than RECORD_SIZE available bytes means the producer
            // was cut off mid-record.
            return Err(IngestError::TruncatedRecord {
                records: total,
                trailing_bytes: avail,
            });
        }
        decoded.clear();
        decoded.extend(raw[..whole].chunks_exact(RECORD_SIZE).map(decode));
        total += decoded.len() as u64;
        sink(&decoded);
        raw.copy_within(whole..avail, 0);
        pending = avail - whole;
        if got == 0 && pending > 0 {
            return Err(IngestError::TruncatedRecord {
                records: total,
                trailing_bytes: pending,
            });
        }
    }
}

/// Fills as much of `buf` as the reader can provide, retrying short
/// reads; returns the byte count (less than `buf.len()` only at EOF).
fn read_up_to<R: Read>(input: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<Access> {
        (0..n)
            .map(|i| Access {
                addr: (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                is_write: i % 5 == 0,
            })
            .collect()
    }

    fn roundtrip(trace: &[Access]) -> (u64, Vec<Access>) {
        let mut bytes = Vec::new();
        write_binary(&mut bytes, trace).unwrap();
        let mut back = Vec::new();
        let n = read_binary(&mut bytes.as_slice(), |chunk| back.extend_from_slice(chunk)).unwrap();
        (n, back)
    }

    #[test]
    fn roundtrips_across_chunk_boundaries() {
        for n in [
            0,
            1,
            127,
            128,
            129,
            CHUNK_RECORDS - 1,
            CHUNK_RECORDS,
            CHUNK_RECORDS + 3,
        ] {
            let trace = sample(n);
            let (count, back) = roundtrip(&trace);
            assert_eq!(count, n as u64, "n={n}");
            assert_eq!(back, trace, "n={n}");
        }
    }

    #[test]
    fn header_is_eight_bytes_and_stable() {
        let mut bytes = Vec::new();
        write_binary(&mut bytes, &[]).unwrap();
        assert_eq!(bytes, [b'P', b'T', b'R', b'C', 1, 0, 9, 0]);
    }

    #[test]
    fn truncated_final_record_is_reported_with_position() {
        let mut bytes = Vec::new();
        write_binary(&mut bytes, &sample(10)).unwrap();
        bytes.truncate(bytes.len() - 4); // cut the last record short
        let mut seen = 0u64;
        let err = read_binary(&mut bytes.as_slice(), |c| seen += c.len() as u64).unwrap_err();
        match err {
            IngestError::TruncatedRecord {
                records,
                trailing_bytes,
            } => {
                assert_eq!(records, 9);
                assert_eq!(trailing_bytes, RECORD_SIZE - 4);
            }
            other => panic!("expected TruncatedRecord, got {other}"),
        }
        // The complete prefix was still delivered.
        assert_eq!(seen, 9);
    }

    #[test]
    fn truncated_header_and_foreign_files_are_rejected() {
        let err = read_binary(&mut &b"PTR"[..], |_| {}).unwrap_err();
        assert!(matches!(err, IngestError::TruncatedHeader { bytes: 3 }));

        let err = read_binary(&mut &b"NOPE\x01\x00\x09\x00"[..], |_| {}).unwrap_err();
        assert!(matches!(err, IngestError::BadMagic { .. }));

        let err = read_binary(&mut &b"PTRC\x02\x00\x09\x00"[..], |_| {}).unwrap_err();
        assert!(matches!(err, IngestError::BadVersion { found: 2 }));

        let err = read_binary(&mut &b"PTRC\x01\x00\x0a\x00"[..], |_| {}).unwrap_err();
        assert!(matches!(err, IngestError::BadRecordSize { found: 10 }));
    }

    #[test]
    fn one_byte_reader_still_roundtrips() {
        // A reader that doles out one byte per call exercises the short-
        // read retry and the partial-record carryover.
        struct Dribble<'a>(&'a [u8]);
        impl Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() || buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let trace = sample(300);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, &trace).unwrap();
        let mut back = Vec::new();
        let n = read_binary(&mut Dribble(&bytes), |c| back.extend_from_slice(c)).unwrap();
        assert_eq!(n, 300);
        assert_eq!(back, trace);
    }

    #[test]
    fn incremental_writer_matches_one_shot() {
        let trace = sample(1000);
        let mut one_shot = Vec::new();
        write_binary(&mut one_shot, &trace).unwrap();
        let mut incremental = Vec::new();
        let mut w = BinaryTraceWriter::new(&mut incremental).unwrap();
        for &a in &trace {
            w.write(a).unwrap();
        }
        assert_eq!(w.records(), 1000);
        w.finish().unwrap();
        assert_eq!(one_shot, incremental);
    }
}
