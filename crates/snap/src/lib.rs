//! `hbdc-snap`: the crash-safety substrate for the simulator family.
//!
//! Every other crate in this workspace hand-rolls exactly one durable
//! artifact kind — simulator snapshots ([`hbdc-cpu`]'s `SimSnapshot`) and
//! matrix run journals (`hbdc-bench`'s `RunJournal`) — and both are built
//! on the primitives here:
//!
//! * [`StateWriter`] / [`StateReader`] — a tiny little-endian binary codec
//!   with length-prefixed byte strings. The workspace deliberately carries
//!   no serializer dependency, so this *is* the serialization layer.
//! * [`seal`] / [`open`] — a versioned, checksummed container envelope
//!   (magic, format version, payload length, FNV-1a checksum) so stale or
//!   truncated state files fail loudly instead of resuming garbage.
//! * [`write_atomic`] — write-to-temp-then-rename, the crash-safe file
//!   update discipline both snapshot and journal writers use.
//! * [`interrupt`] — a process-wide SIGINT latch so long campaigns can
//!   shut down gracefully at a cycle boundary instead of dying mid-write.
//! * [`lock`] — advisory file locking, pid liveness probes, and
//!   corrupt-artifact eviction for multi-process campaign supervision.
//!
//! # Examples
//!
//! ```
//! use hbdc_snap::{open, seal, StateReader, StateWriter};
//!
//! let mut w = StateWriter::new();
//! w.put_u64(42);
//! w.put_str("li");
//! let file = seal(*b"DEMO", 1, &w.into_bytes());
//!
//! let payload = open(&file, *b"DEMO", 1)?;
//! let mut r = StateReader::new(payload);
//! assert_eq!(r.get_u64()?, 42);
//! assert_eq!(r.get_str()?, "li");
//! r.expect_end()?;
//! # Ok::<(), hbdc_snap::SnapError>(())
//! ```

#![warn(missing_docs)]

pub mod interrupt;
pub mod lock;

use std::fmt;
use std::path::Path;

/// Errors from decoding or verifying serialized state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Bytes the field needed.
        want: usize,
    },
    /// The container's magic bytes do not match the expected kind.
    BadMagic {
        /// Magic found in the file.
        found: [u8; 4],
        /// Magic the reader expected.
        want: [u8; 4],
    },
    /// The container was written by an incompatible format version.
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version the reader understands.
        want: u32,
    },
    /// The payload checksum does not match the stored checksum: the file
    /// was truncated, bit-rotted, or hand-edited.
    ChecksumMismatch {
        /// Checksum stored in the container header.
        stored: u64,
        /// Checksum computed over the payload as read.
        computed: u64,
    },
    /// The bytes decoded but describe an impossible state (bad enum tag,
    /// mismatched collection length, dangling reference).
    Corrupt(String),
    /// An I/O failure while reading or writing a state file.
    Io(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { at, want } => {
                write!(f, "state truncated: needed {want} bytes at offset {at}")
            }
            SnapError::BadMagic { found, want } => write!(
                f,
                "not a {} file (magic {:?})",
                String::from_utf8_lossy(want),
                found
            ),
            SnapError::BadVersion { found, want } => {
                write!(f, "unsupported format version {found} (expected {want})")
            }
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: header says {stored:#018x}, payload hashes to {computed:#018x}"
            ),
            SnapError::Corrupt(detail) => write!(f, "corrupt state: {detail}"),
            SnapError::Io(detail) => write!(f, "state file I/O: {detail}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// 64-bit FNV-1a over `bytes` — the workspace's standing choice for
/// content fingerprints (fast, dependency-free, and good enough to catch
/// corruption; this is an integrity check, not a security boundary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Hasher for the simulator's hot integer-keyed maps (line and block
/// addresses): one folded 64×64→128-bit multiply per word instead of
/// SipHash's rounds. Deterministic and unkeyed — only for maps whose
/// keys come from the simulated program, never from untrusted input.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use hbdc_snap::MulBuildHasher;
///
/// let mut m: HashMap<u64, u64, MulBuildHasher> = HashMap::default();
/// m.insert(0x1000_0040, 7);
/// assert_eq!(m[&0x1000_0040], 7);
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct MulHasher(u64);

impl std::hash::Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Folding the product's high half into the low half gives both
        // the low bits (bucket index) and the high bits (control tag)
        // full dependence on the key, even for aligned addresses.
        let p = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p as u64) ^ (p >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`BuildHasher`](std::hash::BuildHasher) for [`MulHasher`].
pub type MulBuildHasher = std::hash::BuildHasherDefault<MulHasher>;

/// Append-only binary encoder; the writing half of the codec.
///
/// All integers are little-endian; byte strings are `u64`-length-prefixed.
#[derive(Debug, Default, Clone)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `Option<u64>`: presence byte, then the value if any.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends an `Option<bool>`: presence byte, then the value if any.
    pub fn put_opt_bool(&mut self, v: Option<bool>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_bool(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends a `u64` as an LEB128 varint (1–10 bytes, short for small
    /// values) — the workhorse of the trace record encoding, where most
    /// deltas fit in one or two bytes.
    pub fn put_varint_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends an `i64` as a zigzag-mapped varint, so small deltas of
    /// either sign encode in one byte.
    pub fn put_varint_i64(&mut self, v: i64) {
        self.put_varint_u64(zigzag_encode(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential binary decoder; the reading half of the codec.
///
/// Every accessor advances the cursor and fails with
/// [`SnapError::Truncated`] instead of panicking on short input.
#[derive(Debug, Clone)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapError::Truncated {
                at: self.pos,
                want: n,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt(format!("bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an `f64` from its IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads an `Option<u64>` written by [`StateWriter::put_opt_u64`].
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        Ok(if self.get_bool()? {
            Some(self.get_u64()?)
        } else {
            None
        })
    }

    /// Reads an `Option<bool>` written by [`StateWriter::put_opt_bool`].
    pub fn get_opt_bool(&mut self) -> Result<Option<bool>, SnapError> {
        Ok(if self.get_bool()? {
            Some(self.get_bool()?)
        } else {
            None
        })
    }

    /// Reads an LEB128 varint `u64` written by
    /// [`StateWriter::put_varint_u64`].
    pub fn get_varint_u64(&mut self) -> Result<u64, SnapError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(SnapError::Corrupt("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(SnapError::Corrupt("varint longer than 10 bytes".into()));
            }
        }
    }

    /// Reads a zigzag varint `i64` written by
    /// [`StateWriter::put_varint_i64`].
    pub fn get_varint_i64(&mut self) -> Result<i64, SnapError> {
        Ok(zigzag_decode(self.get_varint_u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.get_usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.get_bytes()?)
            .map_err(|e| SnapError::Corrupt(format!("invalid UTF-8 string: {e}")))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — catches writer/reader skew.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )))
        }
    }
}

/// Maps an `i64` onto a `u64` with small magnitudes of either sign near
/// zero (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`), so varint encoding stays
/// short for signed deltas.
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Container header size: magic (4) + version (4) + length (8) + checksum (8).
const HEADER_LEN: usize = 24;

/// Wraps `payload` in a checksummed container: 4-byte `magic`, `u32`
/// format `version`, `u64` payload length, `u64` FNV-1a payload checksum,
/// then the payload itself.
pub fn seal(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verifies a [`seal`]ed container and returns a view of its payload.
///
/// # Errors
///
/// [`SnapError::BadMagic`], [`SnapError::BadVersion`],
/// [`SnapError::Truncated`], or [`SnapError::ChecksumMismatch`] depending
/// on which integrity layer failed first.
pub fn open(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<&[u8], SnapError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapError::Truncated {
            at: bytes.len(),
            want: HEADER_LEN,
        });
    }
    let found_magic: [u8; 4] = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if found_magic != magic {
        return Err(SnapError::BadMagic {
            found: found_magic,
            want: magic,
        });
    }
    let found_version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if found_version != version {
        return Err(SnapError::BadVersion {
            found: found_version,
            want: version,
        });
    }
    let len = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]) as usize;
    let stored = u64::from_le_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
    ]);
    let payload = bytes
        .get(HEADER_LEN..HEADER_LEN + len)
        .ok_or(SnapError::Truncated {
            at: bytes.len(),
            want: HEADER_LEN + len,
        })?;
    let computed = fnv1a64(payload);
    if computed != stored {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Writes `bytes` to `path` crash-safely: the content lands in a
/// uniquely named `.tmp.<pid>.<seq>` sibling first and is renamed into
/// place, so readers only ever see the old file or the complete new one
/// — never a torn write.
///
/// The temp name carries the writer's pid and a per-process sequence
/// number because campaign shards race: two processes capturing the same
/// benchmark may persist the same trace-cache entry at the same instant,
/// and with a shared temp name one writer's `O_TRUNC` would interleave
/// with the other's bytes before the rename — a sealed-looking torn
/// file. With unique temps each rename installs one writer's complete
/// image (the contents are identical anyway: captures are
/// deterministic).
///
/// # Errors
///
/// [`SnapError::Io`] describing the failing operation.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)
        .map_err(|e| SnapError::Io(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        // Best-effort cleanup: a failed rename must not strand the temp.
        let _ = std::fs::remove_file(&tmp);
        SnapError::Io(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_field_kind() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(-1234.5678);
        w.put_usize(99);
        w.put_opt_u64(Some(5));
        w.put_opt_u64(None);
        w.put_opt_bool(Some(false));
        w.put_opt_bool(None);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("hello");
        let bytes = w.into_bytes();

        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), -1234.5678);
        assert_eq!(r.get_usize().unwrap(), 99);
        assert_eq!(r.get_opt_u64().unwrap(), Some(5));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_opt_bool().unwrap(), Some(false));
        assert_eq!(r.get_opt_bool().unwrap(), None);
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "hello");
        r.expect_end().unwrap();
    }

    #[test]
    fn varint_roundtrip_across_magnitudes() {
        let mut w = StateWriter::new();
        let us = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let is = [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN];
        for &v in &us {
            w.put_varint_u64(v);
        }
        for &v in &is {
            w.put_varint_i64(v);
        }
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        for &v in &us {
            assert_eq!(r.get_varint_u64().unwrap(), v);
        }
        for &v in &is {
            assert_eq!(r.get_varint_i64().unwrap(), v);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut w = StateWriter::new();
        w.put_varint_u64(5);
        w.put_varint_i64(-3);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 11 continuation bytes: longer than any valid u64 varint.
        let mut r = StateReader::new(&[0x80; 11]);
        assert!(matches!(r.get_varint_u64(), Err(SnapError::Corrupt(_))));
        // 10th byte carrying bits beyond the 64th overflows.
        let mut r = StateReader::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f]);
        assert!(matches!(r.get_varint_u64(), Err(SnapError::Corrupt(_))));
        // A dangling continuation bit is truncation, not a panic.
        let mut r = StateReader::new(&[0x80]);
        assert!(matches!(
            r.get_varint_u64(),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn zigzag_is_a_bijection_near_zero() {
        for (i, v) in [0i64, -1, 1, -2, 2, -3].iter().enumerate() {
            assert_eq!(zigzag_encode(*v), i as u64);
            assert_eq!(zigzag_decode(i as u64), *v);
        }
        assert_eq!(zigzag_decode(zigzag_encode(i64::MIN)), i64::MIN);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MAX)), i64::MAX);
    }

    #[test]
    fn short_reads_are_truncation_not_panic() {
        let mut r = StateReader::new(&[1, 2]);
        assert!(matches!(
            r.get_u64(),
            Err(SnapError::Truncated { at: 0, want: 8 })
        ));
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut r = StateReader::new(&[9]);
        assert!(matches!(r.get_bool(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let r = StateReader::new(&[0]);
        assert!(matches!(r.expect_end(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seal_open_roundtrip() {
        let sealed = seal(*b"TEST", 3, b"payload");
        assert_eq!(open(&sealed, *b"TEST", 3).unwrap(), b"payload");
    }

    #[test]
    fn open_rejects_wrong_magic_version_and_corruption() {
        let sealed = seal(*b"TEST", 3, b"payload");
        assert!(matches!(
            open(&sealed, *b"XXXX", 3),
            Err(SnapError::BadMagic { .. })
        ));
        assert!(matches!(
            open(&sealed, *b"TEST", 4),
            Err(SnapError::BadVersion { found: 3, want: 4 })
        ));
        let mut flipped = sealed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            open(&flipped, *b"TEST", 3),
            Err(SnapError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            open(&sealed[..10], *b"TEST", 3),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn write_atomic_replaces_content() {
        let dir = std::env::temp_dir().join(format!("hbdc-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        // No temp files linger, whatever suffix scheme they used.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "state.bin")
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_display_and_are_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(SnapError::BadVersion { found: 9, want: 1 });
        assert!(e.to_string().contains("version 9"));
    }
}
