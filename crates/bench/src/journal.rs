//! Checkpoint journal for sweep resumability.
//!
//! Every completed cell of an experiment is appended to
//! `results/<experiment>.journal` as a self-describing one-line record
//! keyed by a stable *fingerprint* of the cell (experiment name plus the
//! cell's label, which encodes kernel, config, and layout — see
//! [`fingerprint`]). A rerun with `RIVERA_RESUME=1` loads the journal,
//! skips every fingerprint-matching cell, and replays its recorded result
//! bit-exactly, so a sweep killed hours in resumes where it left off and
//! still produces byte-identical tables.
//!
//! Records are written and flushed as cells finish (completion order —
//! the fingerprint keying makes order irrelevant on load), and a torn
//! final line from a killed process is ignored on load: every `ok`
//! record is sealed with a trailing FNV checksum (format v2), so *any*
//! proper prefix of a record — including ones that would decode as a
//! valid shorter record — is rejected rather than replayed. Loading is
//! whole-file and per-line over raw bytes, so records cannot straddle a
//! read buffer and a corrupted (even non-UTF-8) line costs only itself.
//! Only successful cells are replayed; failed cells are re-executed on
//! resume.
//!
//! The payload encoding is deliberately exact: `f64`s are stored as the
//! hex of their IEEE-754 bits ([`Field::F64`]), never as decimal text, so
//! a replayed value is the same 64 bits the original run computed.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Environment variable enabling resume-from-journal in the experiment
/// binaries (`RIVERA_RESUME=1`).
pub const RESUME_ENV: &str = "RIVERA_RESUME";

/// Header written by [`Journal::create`]: format v2, every `ok` record
/// carries a trailing FNV checksum token. Loading ignores the header and
/// holds every line to the checksummed format, so the unchecksummed
/// records of a v1 journal re-execute once and are recorded again.
const V2_HEADER: &str = "# rivera-padding cell journal v2";

/// True when the caller asked for journal resume (`RIVERA_RESUME` set to
/// anything but `0`/empty).
pub fn resume_requested() -> bool {
    std::env::var_os(RESUME_ENV).is_some_and(|v| v != "0" && !v.is_empty())
}

/// Stable 64-bit fingerprint of one cell: FNV-1a over the experiment
/// name and the cell's label, with a NUL separator so the pair is
/// unambiguous. Labels already encode the cell's kernel, configuration,
/// and layout (e.g. `fig16: EXPL n=256`), which makes the fingerprint a
/// stable key across runs and processes.
pub fn fingerprint(experiment: &str, label: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in experiment.bytes().chain([0u8]).chain(label.bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over one record line's body, appended as a trailing ` !<hex>`
/// token (format v2). The self-describing field encoding alone cannot
/// reject every torn write: a record cut mid-token can decode as a valid
/// *shorter* record (`shello` torn to `shel` is still a string), and a
/// replay layer that serves results verbatim must never replay such a
/// truncation as if it were the original. The checksum makes any prefix
/// of a record invalid.
fn line_checksum(body: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in body.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One self-describing value inside a journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// An `f64`, stored bit-exactly (hex of `to_bits`).
    F64(f64),
    /// A signed integer (lengths, counts).
    I64(i64),
    /// A string, percent-escaped so records stay one line.
    Str(String),
}

impl Field {
    fn encode(&self, out: &mut String) {
        match self {
            Field::F64(x) => out.push_str(&format!("f{:016x}", x.to_bits())),
            Field::I64(n) => out.push_str(&format!("i{n}")),
            Field::Str(s) => {
                out.push('s');
                for byte in s.bytes() {
                    // Percent-escape separators, the escape itself, and
                    // all non-ASCII bytes so records stay one line and
                    // UTF-8 round-trips exactly.
                    if matches!(byte, b' ' | b'%' | b'\n' | b'\r' | b'\t') || byte >= 0x80 {
                        out.push_str(&format!("%{byte:02x}"));
                    } else {
                        out.push(byte as char);
                    }
                }
            }
        }
    }

    fn decode(token: &str) -> Option<Field> {
        let rest = token.get(1..)?;
        match token.as_bytes().first()? {
            // Exactly 16 hex digits: a shorter token is a torn record
            // from a killed process, not a smaller number.
            b'f' if rest.len() == 16 => Some(Field::F64(f64::from_bits(
                u64::from_str_radix(rest, 16).ok()?,
            ))),
            b'i' => Some(Field::I64(rest.parse().ok()?)),
            b's' => {
                let mut raw = Vec::new();
                let bytes = rest.as_bytes();
                let mut i = 0;
                while i < bytes.len() {
                    if bytes[i] == b'%' {
                        let hex = rest.get(i + 1..i + 3)?;
                        raw.push(u8::from_str_radix(hex, 16).ok()?);
                        i += 3;
                    } else {
                        raw.push(bytes[i]);
                        i += 1;
                    }
                }
                Some(Field::Str(String::from_utf8(raw).ok()?))
            }
            _ => None,
        }
    }
}

/// Sequential reader over a record's fields, used by
/// [`JournalPayload::from_fields`] implementations so payloads compose
/// (tuples read their components in order).
#[derive(Debug)]
pub struct FieldReader<'a> {
    fields: &'a [Field],
    pos: usize,
}

impl<'a> FieldReader<'a> {
    /// Wraps a decoded record's fields.
    pub fn new(fields: &'a [Field]) -> Self {
        FieldReader { fields, pos: 0 }
    }

    /// The next field, if any.
    pub fn next_field(&mut self) -> Option<&'a Field> {
        let field = self.fields.get(self.pos)?;
        self.pos += 1;
        Some(field)
    }

    /// The next field as an `f64`.
    pub fn take_f64(&mut self) -> Option<f64> {
        match self.next_field()? {
            Field::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The next field as an `i64`.
    pub fn take_i64(&mut self) -> Option<i64> {
        match self.next_field()? {
            Field::I64(n) => Some(*n),
            _ => None,
        }
    }

    /// The next field as a string.
    pub fn take_str(&mut self) -> Option<&'a str> {
        match self.next_field()? {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True when every field has been consumed.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.fields.len()
    }
}

/// A cell result the journal can record and replay bit-exactly.
///
/// Implementations exist for the shapes the experiment cells actually
/// return: floats, float vectors, strings, and tuples thereof. Sequences
/// are length-prefixed so they compose inside tuples.
pub trait JournalPayload: Sized {
    /// Serializes the value into self-describing fields.
    fn to_fields(&self, out: &mut Vec<Field>);
    /// Reads the value back; `None` on any shape mismatch (the record is
    /// then ignored and the cell re-executed).
    fn from_fields(reader: &mut FieldReader<'_>) -> Option<Self>;

    /// Convenience: decodes a full record, requiring every field to be
    /// consumed.
    fn decode_record(fields: &[Field]) -> Option<Self> {
        let mut reader = FieldReader::new(fields);
        let value = Self::from_fields(&mut reader)?;
        reader.exhausted().then_some(value)
    }
}

impl JournalPayload for f64 {
    fn to_fields(&self, out: &mut Vec<Field>) {
        out.push(Field::F64(*self));
    }
    fn from_fields(reader: &mut FieldReader<'_>) -> Option<Self> {
        reader.take_f64()
    }
}

impl JournalPayload for String {
    fn to_fields(&self, out: &mut Vec<Field>) {
        out.push(Field::Str(self.clone()));
    }
    fn from_fields(reader: &mut FieldReader<'_>) -> Option<Self> {
        reader.take_str().map(str::to_string)
    }
}

impl<T: JournalPayload> JournalPayload for Vec<T> {
    fn to_fields(&self, out: &mut Vec<Field>) {
        out.push(Field::I64(self.len() as i64));
        for item in self {
            item.to_fields(out);
        }
    }
    fn from_fields(reader: &mut FieldReader<'_>) -> Option<Self> {
        let len = usize::try_from(reader.take_i64()?).ok()?;
        let mut items = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            items.push(T::from_fields(reader)?);
        }
        Some(items)
    }
}

impl<T: JournalPayload + Copy + Default, const N: usize> JournalPayload for [T; N] {
    fn to_fields(&self, out: &mut Vec<Field>) {
        for item in self {
            item.to_fields(out);
        }
    }
    fn from_fields(reader: &mut FieldReader<'_>) -> Option<Self> {
        let mut items = [T::default(); N];
        for item in &mut items {
            *item = T::from_fields(reader)?;
        }
        Some(items)
    }
}

macro_rules! tuple_payload {
    ($($name:ident),+) => {
        impl<$($name: JournalPayload),+> JournalPayload for ($($name,)+) {
            fn to_fields(&self, out: &mut Vec<Field>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.to_fields(out);)+
            }
            fn from_fields(reader: &mut FieldReader<'_>) -> Option<Self> {
                Some(($($name::from_fields(reader)?,)+))
            }
        }
    };
}

tuple_payload!(A, B);
tuple_payload!(A, B, C);
tuple_payload!(A, B, C, D);

/// Decodes every well-formed `ok` record in a journal's raw bytes.
///
/// Shared by [`Journal::resume`] and its tests: each `\n`-separated line
/// is decoded independently, so a torn tail, an interior corrupted line,
/// or a non-UTF-8 byte run invalidates only the line it sits on. A later
/// record for the same fingerprint wins, matching append order.
fn parse_records(bytes: &[u8]) -> HashMap<u64, Vec<Field>> {
    let mut replay = HashMap::new();
    for raw in bytes.split(|&b| b == b'\n') {
        let Ok(line) = std::str::from_utf8(raw) else {
            continue;
        };
        // Strip and verify the trailing ` !<16 hex>` checksum; a missing
        // or mismatching checksum marks a torn or corrupted record (or an
        // unchecksummed v1 one), which is skipped and re-executed by the
        // caller.
        let Some((body, crc)) = line.rsplit_once(" !") else {
            continue;
        };
        let Ok(crc) = u64::from_str_radix(crc, 16) else {
            continue;
        };
        if crc != line_checksum(body) || !crc_token_len_ok(line) {
            continue;
        }
        let mut tokens = body.split(' ');
        if tokens.next() != Some("ok") {
            continue;
        }
        let Some(fp) = tokens.next().and_then(|t| u64::from_str_radix(t, 16).ok()) else {
            continue;
        };
        let Some(fields) = tokens.map(Field::decode).collect::<Option<Vec<Field>>>() else {
            continue;
        };
        replay.insert(fp, fields);
    }
    replay
}

/// True when the line's trailing checksum token has exactly 16 hex
/// digits — a torn checksum must not pass as a (numerically colliding)
/// shorter one.
fn crc_token_len_ok(line: &str) -> bool {
    line.rsplit_once(" !")
        .is_some_and(|(_, crc)| crc.len() == 16)
}

/// An append-only checkpoint journal for one experiment.
///
/// Thread-safe: workers append concurrently through an internal mutex
/// over the file handle (the results themselves stay in the pool's
/// lock-free slots — this lock guards only the journal I/O).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    replay: HashMap<u64, Vec<Field>>,
    file: Mutex<fs::File>,
}

impl Journal {
    /// Creates a fresh journal at `path`, truncating any previous run's
    /// records.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut file = fs::File::create(&path)?;
        writeln!(file, "{V2_HEADER}")?;
        Ok(Journal {
            path,
            replay: HashMap::new(),
            file: Mutex::new(file),
        })
    }

    /// Opens `path` for resume: loads every well-formed `ok` record for
    /// replay (malformed or torn lines are skipped) and appends new
    /// records after them. Falls back to [`Journal::create`] when the
    /// file does not exist yet.
    ///
    /// Loading is whole-file and line-by-line over raw bytes: a record
    /// can never straddle a fixed read buffer, and a line that is not
    /// valid UTF-8 (disk corruption; every byte the journal itself
    /// writes is ASCII) is skipped individually instead of aborting the
    /// entire load — one bad block must not cost every good record.
    pub fn resume(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let Ok(bytes) = fs::read(&path) else {
            return Journal::create(path);
        };
        let replay = parse_records(&bytes);
        let mut file = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)?;
        // A kill mid-write can leave a torn tail with no trailing
        // newline. Appending straight after it would glue the next
        // record onto the torn bytes and corrupt it too; sealing the
        // tail with a newline confines the damage to the torn record.
        if !bytes.is_empty() && bytes.last() != Some(&b'\n') {
            file.write_all(b"\n")?;
        }
        Ok(Journal {
            path,
            replay,
            file: Mutex::new(file),
        })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of replayable records loaded at open.
    pub fn replayable(&self) -> usize {
        self.replay.len()
    }

    /// The recorded result for a fingerprint, if a well-formed `ok`
    /// record was loaded and decodes as `T`.
    pub fn lookup<T: JournalPayload>(&self, fp: u64) -> Option<T> {
        T::decode_record(self.replay.get(&fp)?)
    }

    /// Appends (and flushes) a successful cell result, sealed with a
    /// record checksum so a torn write can never replay as a shorter
    /// valid record.
    pub fn record_ok<T: JournalPayload>(&self, fp: u64, value: &T) {
        let mut fields = Vec::new();
        value.to_fields(&mut fields);
        let mut line = format!("ok {fp:016x}");
        for field in &fields {
            line.push(' ');
            field.encode(&mut line);
        }
        let crc = line_checksum(&line);
        line.push_str(&format!(" !{crc:016x}\n"));
        self.append(&line);
    }

    /// Appends (and flushes) a failure note — informational only; failed
    /// cells are always re-executed on resume.
    pub fn record_failure(&self, fp: u64, kind: &str, detail: &str) {
        let mut line = format!("err {fp:016x} ");
        Field::Str(kind.to_string()).encode(&mut line);
        line.push(' ');
        Field::Str(detail.to_string()).encode(&mut line);
        line.push('\n');
        self.append(&line);
    }

    fn append(&self, line: &str) {
        let mut file = match self.file.lock() {
            Ok(file) => file,
            // A worker that panicked *while holding this lock* would
            // poison it; journal writes must never take siblings down,
            // so recover the guard and keep appending.
            Err(poisoned) => poisoned.into_inner(),
        };
        if file
            .write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .is_err()
        {
            // Journaling is best-effort: a full disk degrades resume,
            // never the run itself.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "rivera-journal-{}-{name}.journal",
            std::process::id()
        ))
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fingerprint("fig08", "a"), fingerprint("fig08", "a"));
        assert_ne!(fingerprint("fig08", "a"), fingerprint("fig08", "b"));
        assert_ne!(fingerprint("fig08", "a"), fingerprint("fig09", "a"));
        // The NUL separator keeps (experiment, label) unambiguous.
        assert_ne!(fingerprint("ab", "c"), fingerprint("a", "bc"));
    }

    #[test]
    fn payloads_round_trip_bit_exactly() {
        let path = temp_path("roundtrip");
        let journal = Journal::create(&path).expect("create");
        let weird = f64::from_bits(0x7ff8_0000_0000_1234); // a NaN payload
        journal.record_ok(1, &weird);
        journal.record_ok(2, &(1.5f64, vec![0.1f64, -0.0, f64::INFINITY]));
        journal.record_ok(3, &vec!["a b".to_string(), "c%d\n".to_string()]);
        journal.record_ok(4, &[1.25f64, -2.5]);
        drop(journal);

        let journal = Journal::resume(&path).expect("resume");
        assert_eq!(journal.replayable(), 4);
        let got: f64 = journal.lookup(1).expect("decodes");
        assert_eq!(got.to_bits(), weird.to_bits());
        let (a, b): (f64, Vec<f64>) = journal.lookup(2).expect("decodes");
        assert_eq!(a, 1.5);
        assert_eq!(b.len(), 3);
        assert_eq!(b[1].to_bits(), (-0.0f64).to_bits());
        let strings: Vec<String> = journal.lookup(3).expect("decodes");
        assert_eq!(strings, vec!["a b".to_string(), "c%d\n".to_string()]);
        let pair: [f64; 2] = journal.lookup(4).expect("decodes");
        assert_eq!(pair, [1.25, -2.5]);
        // Wrong-shape lookups fail cleanly instead of replaying garbage.
        assert!(journal.lookup::<Vec<f64>>(1).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_and_failures_are_ignored_on_resume() {
        let path = temp_path("torn");
        let journal = Journal::create(&path).expect("create");
        journal.record_ok(7, &4.5f64);
        journal.record_failure(8, "panicked", "injected fault");
        drop(journal);
        // Simulate a kill mid-append: a torn, incomplete final line.
        let mut text = std::fs::read_to_string(&path).expect("readable");
        text.push_str("ok 00000000000000ff f3ff");
        std::fs::write(&path, &text).expect("writable");

        let journal = Journal::resume(&path).expect("resume");
        assert_eq!(journal.replayable(), 1);
        assert_eq!(journal.lookup::<f64>(7), Some(4.5));
        assert_eq!(journal.lookup::<f64>(8), None, "failures are not replayed");
        assert_eq!(journal.lookup::<f64>(0xff), None, "torn line ignored");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_byte_of_the_final_record_recovers_cleanly() {
        let path = temp_path("sweep");
        let journal = Journal::create(&path).expect("create");
        let first = (1.5f64, vec![2.5f64, -0.25], "anchor record".to_string());
        journal.record_ok(1, &first);
        let len_before = std::fs::metadata(&path).expect("meta").len() as usize;
        // A multi-field final record: floats, a vector, and a string —
        // every torn prefix of it must be rejected, including the
        // prefixes that decode as a valid shorter string or vector.
        let last = (
            3.25f64,
            vec![4.5f64, 5.5, 6.5],
            "the final record".to_string(),
        );
        journal.record_ok(2, &last);
        let full = std::fs::read(&path).expect("readable");

        for cut in len_before..full.len() {
            std::fs::write(&path, &full[..cut]).expect("writable");
            let resumed = Journal::resume(&path).expect("resume");
            let got_first: Option<(f64, Vec<f64>, String)> = resumed.lookup(1);
            assert_eq!(got_first, Some(first.clone()), "cut at byte {cut}");
            // Clean recovery means the torn record either vanishes or —
            // when only the trailing newline was lost, leaving the
            // record complete — replays its original value. It must
            // never replay as a *different* value.
            let got_last: Option<(f64, Vec<f64>, String)> = resumed.lookup(2);
            assert!(
                got_last.is_none() || got_last.as_ref() == Some(&last),
                "torn record replayed wrong at cut {cut}: {got_last:?}"
            );
            if cut < full.len() - 1 {
                assert_eq!(got_last, None, "incomplete record replayed at cut {cut}");
            }
            // No torn prefix may replay under another payload shape.
            assert_eq!(resumed.lookup::<String>(2), None, "cut at byte {cut}");
            assert_eq!(resumed.lookup::<f64>(2), None, "cut at byte {cut}");
        }
        // The untruncated file replays both records bit-exactly.
        std::fs::write(&path, &full).expect("writable");
        let resumed = Journal::resume(&path).expect("resume");
        assert_eq!(resumed.lookup::<(f64, Vec<f64>, String)>(2), Some(last));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appending_after_a_torn_tail_does_not_corrupt_the_new_record() {
        // A torn tail has no trailing newline; resume must seal it so
        // the next append starts a fresh line instead of gluing onto
        // the torn bytes (which would corrupt the new record too).
        let path = temp_path("torn-tail-append");
        let journal = Journal::create(&path).expect("create");
        journal.record_ok(1, &"intact".to_string());
        journal.record_ok(2, &"will be torn".to_string());
        drop(journal);
        let bytes = std::fs::read(&path).expect("readable");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("tear");

        let journal = Journal::resume(&path).expect("resume over torn tail");
        assert_eq!(journal.replayable(), 1);
        journal.record_ok(3, &"written after the tear".to_string());
        drop(journal);

        let journal = Journal::resume(&path).expect("resume again");
        assert_eq!(journal.lookup::<String>(1).as_deref(), Some("intact"));
        assert_eq!(journal.lookup::<String>(2), None, "torn record stays lost");
        assert_eq!(
            journal.lookup::<String>(3).as_deref(),
            Some("written after the tear"),
            "the post-tear record survives its own round trip"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_records_round_trip_and_tear_safely() {
        let path = temp_path("oversized");
        let journal = Journal::create(&path).expect("create");
        journal.record_ok(1, &0.5f64);
        // A record far larger than any buffered-reader chunk (1 MiB of
        // payload): loading is whole-file, so size must not matter.
        let big: String = "x".repeat(1 << 20);
        journal.record_ok(2, &big);
        drop(journal);

        let resumed = Journal::resume(&path).expect("resume");
        assert_eq!(resumed.lookup::<String>(2).as_deref(), Some(big.as_str()));

        // Tear the huge record in the middle: it must vanish, not
        // replay as half a payload.
        let full = std::fs::read(&path).expect("readable");
        std::fs::write(&path, &full[..full.len() - (1 << 19)]).expect("writable");
        let resumed = Journal::resume(&path).expect("resume");
        assert_eq!(resumed.lookup::<f64>(1), Some(0.5));
        assert_eq!(
            resumed.lookup::<String>(2),
            None,
            "torn oversized record survived"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_journals_replay_what_a_resume_appends() {
        let path = temp_path("legacy");
        // A v1 journal: the old header and a record without a checksum.
        let text = format!(
            "# rivera-padding cell journal v1\nok {:016x} f{:016x}\n",
            9u64,
            7.5f64.to_bits()
        );
        std::fs::write(&path, text).expect("writable");
        let resumed = Journal::resume(&path).expect("resume");
        resumed.record_ok(10, &2.5f64);
        drop(resumed);
        // The record this build appended carries a checksum and replays;
        // the unchecksummed one re-executes.
        let resumed = Journal::resume(&path).expect("resume again");
        assert_eq!(resumed.lookup::<f64>(10), Some(2.5));
        assert_eq!(resumed.lookup::<f64>(9), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_costs_only_its_own_line() {
        let path = temp_path("interior");
        let journal = Journal::create(&path).expect("create");
        journal.record_ok(1, &1.0f64);
        journal.record_ok(2, &2.0f64);
        journal.record_ok(3, &3.0f64);
        drop(journal);
        // Smash the middle record with non-UTF-8 garbage of the same
        // length (a corrupted disk block), leaving its neighbors intact.
        let mut bytes = std::fs::read(&path).expect("readable");
        let lines: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .collect();
        let (start, end) = (lines[1] + 1, lines[2]);
        for b in &mut bytes[start..end] {
            *b = 0xff;
        }
        std::fs::write(&path, &bytes).expect("writable");
        let resumed = Journal::resume(&path).expect("resume");
        assert_eq!(resumed.lookup::<f64>(1), Some(1.0));
        assert_eq!(
            resumed.lookup::<f64>(2),
            None,
            "corrupted line must be dropped"
        );
        assert_eq!(
            resumed.lookup::<f64>(3),
            Some(3.0),
            "corruption must not cascade"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_truncates_a_previous_run() {
        let path = temp_path("truncate");
        let journal = Journal::create(&path).expect("create");
        journal.record_ok(1, &1.0f64);
        drop(journal);
        let journal = Journal::create(&path).expect("recreate");
        drop(journal);
        let journal = Journal::resume(&path).expect("resume");
        assert_eq!(journal.replayable(), 0);
        std::fs::remove_file(&path).ok();
    }
}
