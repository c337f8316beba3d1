//! The length-prefixed, checksummed frame codec.
//!
//! Every message on every transport — TCP, Unix socket, in-memory pipe —
//! is one *frame*: a little-endian `u32` payload length, a little-endian
//! CRC-32 of the payload, then that many bytes of compact JSON. The
//! codec is deliberately boring so the protocol stays debuggable with
//! `xxd`; all the structure lives in the JSON payload (see
//! [`wire`](crate::wire)).
//!
//! Robustness contract (checked by the proptests in
//! `tests/frame_proptests.rs`): a reader fed truncated, oversized,
//! bit-flipped or garbage bytes returns an [`io::Error`] — it never
//! panics, never allocates the attacker-supplied length, and never
//! hands corrupted bytes to the JSON layer. The CRC is what turns a
//! wire-level bit flip from a silent semantic change (a flipped digit in
//! a correlation id still parses!) into a typed
//! [`ChecksumMismatch`] error.

use std::io::{self, Read, Write};
use std::time::Duration;

/// Hard ceiling on a frame's payload, in bytes (64 MiB).
///
/// Large enough for any real design document, small enough that a
/// corrupt or hostile length prefix cannot drive an allocation of
/// gigabytes: the length is validated *before* any payload buffer is
/// reserved.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Frame header size: `u32` payload length + `u32` CRC-32, both LE.
pub const HEADER_LEN: usize = 8;

/// CRC-32 (IEEE 802.3, reflected) lookup tables for slicing-by-8,
/// built at compile time: `CRC_TABLES[0]` is the classic bytewise table,
/// and `CRC_TABLES[k][b]` advances the CRC of byte `b` past `k` more
/// zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC-32 (IEEE) of `bytes` — the integrity word every frame
/// carries, so corruption anywhere on the wire is detected before the
/// payload reaches the JSON layer. Folds eight bytes per step through
/// eight tables, then the tail one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// The typed payload inside an [`io::Error`] raised when a frame's CRC
/// does not match its payload: the bytes were damaged in transit, not
/// malformed by the sender, so the request inside was *never parsed*
/// (and therefore never dispatched) — a safely retryable failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChecksumMismatch {
    /// The CRC the header announced.
    pub expected: u32,
    /// The CRC of the payload that actually arrived.
    pub actual: u32,
}

impl std::fmt::Display for ChecksumMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame checksum mismatch: header says {:08x}, payload hashes to {:08x}",
            self.expected, self.actual
        )
    }
}

impl std::error::Error for ChecksumMismatch {}

/// True when `err` is a frame-integrity failure (the payload was
/// damaged in transit) rather than a malformed or truncated stream.
pub fn is_checksum_mismatch(err: &io::Error) -> bool {
    err.get_ref()
        .is_some_and(|inner| inner.is::<ChecksumMismatch>())
}

/// What one blocking read attempt on a frame stream produced.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// One complete, checksum-verified payload.
    Frame(Vec<u8>),
    /// The peer hung up cleanly *between* frames.
    Eof,
    /// A read timeout fired before the first byte of a new frame
    /// arrived: the connection is idle, not hostile. (A timeout *inside*
    /// a frame is reported as an error instead — that is the slow-loris
    /// signature.)
    Idle,
}

fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Writes one frame: the payload's length and CRC-32 as little-endian
/// `u32`s, then the payload, then a flush.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] when the payload exceeds
/// [`MAX_FRAME_LEN`] (a frame the peer would be required to reject),
/// or any transport error from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte limit",
                payload.len()
            ),
        ));
    }
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF *between* frames —
/// how a peer hangs up politely).
///
/// # Errors
///
/// Returns [`io::ErrorKind::UnexpectedEof`] when the stream ends inside
/// a header or payload (a truncated frame),
/// [`io::ErrorKind::InvalidData`] when the header announces more than
/// [`MAX_FRAME_LEN`] bytes or the payload fails its CRC (test with
/// [`is_checksum_mismatch`]), and [`io::ErrorKind::TimedOut`] when a
/// read timeout configured on the transport fires (idle or mid-frame
/// alike — use [`read_frame_event`] to tell them apart). Oversized
/// lengths are rejected before any buffer is allocated.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    match read_frame_event(r)? {
        FrameEvent::Frame(payload) => Ok(Some(payload)),
        FrameEvent::Eof => Ok(None),
        FrameEvent::Idle => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "read timed out waiting for a frame",
        )),
    }
}

/// Reads one frame, distinguishing idle timeouts from hostile streams.
///
/// This is the server-loop entry point: a transport read timeout that
/// fires *between* frames surfaces as [`FrameEvent::Idle`] (the loop
/// can check shutdown flags and keep waiting), while a timeout that
/// fires *inside* a frame is an error — a peer that opened a frame and
/// stopped feeding it is the slow-loris signature, and the connection
/// should be closed.
///
/// # Errors
///
/// As [`read_frame`], except that an idle timeout is [`FrameEvent::Idle`]
/// rather than an error.
pub fn read_frame_event<R: Read>(r: &mut R) -> io::Result<FrameEvent> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameEvent::Eof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) && filled == 0 => return Ok(FrameEvent::Idle),
            Err(e) if is_timeout(e.kind()) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("peer stalled {filled}/{HEADER_LEN} bytes into a frame header"),
                ))
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let expected_crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame header announces {len} bytes, over the {MAX_FRAME_LEN}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended {got}/{len} bytes into a frame payload"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("peer stalled {got}/{len} bytes into a frame payload"),
                ))
            }
            Err(e) => return Err(e),
        }
    }
    let actual = crc32(&payload);
    if actual != expected_crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ChecksumMismatch {
                expected: expected_crc,
                actual,
            },
        ));
    }
    Ok(FrameEvent::Frame(payload))
}

/// A read timeout that keeps server connection loops responsive when no
/// explicit timeout is configured: long enough to be irrelevant for any
/// healthy request, short enough that an idle poll (checking shutdown
/// flags) happens eventually.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_a_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"id\":1}").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"id\":1}");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn empty_stream_is_a_clean_eof() {
        let mut r = Cursor::new(Vec::new());
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_header_and_payload_error() {
        let mut r = Cursor::new(vec![9, 0]);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        let mut short = Vec::new();
        write_frame(&mut short, b"abcdef").unwrap();
        short.truncate(HEADER_LEN + 3);
        let mut r = Cursor::new(short);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_header_is_rejected_without_allocating() {
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 4]);
        bytes.extend_from_slice(b"x");
        let mut r = Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn corrupted_payloads_fail_the_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"id\":12}").unwrap();
        // Flip one payload bit: the digit `2` becomes `3`, which still
        // parses as JSON — only the CRC catches it.
        let last = buf.len() - 3;
        buf[last] ^= 0x01;
        let mut r = Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(is_checksum_mismatch(&err), "{err}");
    }

    #[test]
    fn corrupted_headers_are_never_decoded_as_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload-bytes").unwrap();
        for bit in 0..8 {
            let mut damaged = buf.clone();
            damaged[0] ^= 1 << bit; // corrupt the length prefix
            let mut r = Cursor::new(damaged);
            assert!(read_frame(&mut r).is_err(), "flipped bit {bit} decoded");
        }
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// CRC-32/IEEE one bit at a time, straight from the polynomial.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_a_bitwise_reference_at_every_length_and_offset() {
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=64 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
        // Unaligned sub-slices: every start within a word, lengths that
        // straddle the eight-byte steps.
        for start in 0..8 {
            for len in [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 191] {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn oversized_writes_are_refused() {
        struct Null;
        impl Write for Null {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert_eq!(
            write_frame(&mut Null, &big).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    /// A reader whose read timeout "fires" via injected WouldBlock.
    struct Timing {
        bytes: Vec<u8>,
        pos: usize,
    }
    impl Read for Timing {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.bytes.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            let n = buf.len().min(self.bytes.len() - self.pos).min(3);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn idle_timeouts_and_mid_frame_stalls_are_distinguished() {
        // No bytes at all: idle.
        let mut idle = Timing {
            bytes: Vec::new(),
            pos: 0,
        };
        assert_eq!(read_frame_event(&mut idle).unwrap(), FrameEvent::Idle);

        // Half a frame then silence: hostile.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdefgh").unwrap();
        buf.truncate(HEADER_LEN + 4);
        let mut stalled = Timing { bytes: buf, pos: 0 };
        let err = read_frame_event(&mut stalled).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("stalled"));
    }
}
