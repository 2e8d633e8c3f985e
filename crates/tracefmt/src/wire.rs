//! Bounded line framing for stream transports.
//!
//! `wavesim serve` speaks line-delimited JSON over TCP. The framing
//! layer has exactly two robustness jobs, and both live here so they can
//! be unit-tested without sockets:
//!
//! * **Bounded lines.** A client that streams gigabytes without a
//!   newline must not grow the server's buffer without bound. Lines
//!   longer than the reader's limit come back as a typed
//!   [`LineError::Oversized`] value — and the reader *discards bytes to
//!   the next newline*, so the stream stays parseable afterwards and the
//!   peer can be answered with a structured error instead of a dropped
//!   connection.
//! * **Byte-safe decoding.** A line that is not UTF-8 is a typed
//!   [`LineError::NotUtf8`], not a panic and not a poisoned stream.
//!
//! I/O errors from the underlying transport (including read timeouts,
//! which surface as [`std::io::ErrorKind::WouldBlock`] or
//! [`std::io::ErrorKind::TimedOut`]) pass through untouched; any bytes
//! already buffered survive the error, so a caller polling a stream with
//! a read timeout simply calls [`LineReader::next_line`] again.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use crate::json::{self, ToJson};

/// Default per-line byte limit: far above any legitimate scenario
/// submission, far below "the client can exhaust server memory".
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// A line that could not be yielded as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineError {
    /// The line exceeded the reader's byte limit. Everything up to the
    /// next newline has been discarded; the stream is positioned at the
    /// start of the following line.
    Oversized {
        /// The reader's configured limit.
        limit: usize,
    },
    /// The line's bytes are not valid UTF-8.
    NotUtf8,
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::Oversized { limit } => {
                write!(f, "request line exceeds the {limit}-byte limit")
            }
            LineError::NotUtf8 => write!(f, "request line is not valid UTF-8"),
        }
    }
}

/// Incremental newline-framed reader over any [`Read`].
pub struct LineReader<R: Read> {
    inner: R,
    buf: VecDeque<u8>,
    /// Leading bytes of `buf` already searched for a newline: a long
    /// line arriving in many reads is scanned once, not once per read.
    scanned: usize,
    limit: usize,
    /// When set, the current (over-limit) line is being discarded up to
    /// its terminating newline.
    discarding: bool,
    eof: bool,
}

impl<R: Read> LineReader<R> {
    /// A reader yielding lines of at most `limit` bytes (newline
    /// excluded).
    pub fn new(inner: R, limit: usize) -> LineReader<R> {
        LineReader {
            inner,
            buf: VecDeque::new(),
            scanned: 0,
            limit: limit.max(1),
            discarding: false,
            eof: false,
        }
    }

    /// The next framed line: `Ok(None)` at end of stream, `Ok(Some(Err))`
    /// for an oversized or non-UTF-8 line (the stream stays usable), and
    /// `Err` for transport errors — after which the call may simply be
    /// retried (buffered bytes are kept).
    ///
    /// An unterminated partial line at end of stream is discarded: on a
    /// wire protocol it means the peer died mid-request.
    pub fn next_line(&mut self) -> io::Result<Option<Result<String, LineError>>> {
        loop {
            // Serve from the buffer first.
            let newline = self
                .buf
                .range(self.scanned..)
                .position(|&b| b == b'\n')
                .map(|pos| self.scanned + pos);
            self.scanned = self.buf.len();
            if let Some(pos) = newline {
                self.scanned = 0;
                if self.discarding {
                    self.buf.drain(..=pos);
                    self.discarding = false;
                    return Ok(Some(Err(LineError::Oversized { limit: self.limit })));
                }
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                if line.len() > self.limit {
                    return Ok(Some(Err(LineError::Oversized { limit: self.limit })));
                }
                return Ok(Some(match String::from_utf8(line) {
                    Ok(text) => Ok(text),
                    Err(_) => Err(LineError::NotUtf8),
                }));
            }
            if self.discarding || self.buf.len() > self.limit {
                // No newline yet: a line already over the limit is
                // discarded as it arrives, so the buffer stays bounded.
                self.buf.clear();
                self.scanned = 0;
                self.discarding = true;
            }
            if self.eof {
                return Ok(None);
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Serialize `value` as one JSON line and flush it, so the peer sees the
/// record immediately (the protocol is request/reply, not batched).
///
/// The line and its newline go out in a single `write_all`: split
/// across two writes on a socket, Nagle's algorithm can hold the short
/// newline segment until the peer's delayed ACK, adding that wait to
/// every reply.
pub fn write_json_line<W: Write, T: ToJson + ?Sized>(w: &mut W, value: &T) -> io::Result<()> {
    let mut line = json::to_string(value);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// A reader that yields its scripted chunks one at a time, to force
    /// lines across read boundaries.
    struct Chunks(Vec<Vec<u8>>);

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let chunk = self.0.remove(0);
            out[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    fn lines_of(chunks: Vec<Vec<u8>>, limit: usize) -> Vec<Result<String, LineError>> {
        let mut r = LineReader::new(Chunks(chunks), limit);
        let mut out = Vec::new();
        while let Some(line) = r.next_line().expect("scripted reader never errors") {
            out.push(line);
        }
        out
    }

    #[test]
    fn lines_split_across_chunks_reassemble() {
        let got = lines_of(
            vec![b"hel".to_vec(), b"lo\nwor".to_vec(), b"ld\n".to_vec()],
            64,
        );
        assert_eq!(got, vec![Ok("hello".into()), Ok("world".into())]);
    }

    #[test]
    fn crlf_is_tolerated() {
        let got = lines_of(vec![b"ping\r\npong\n".to_vec()], 64);
        assert_eq!(got, vec![Ok("ping".into()), Ok("pong".into())]);
    }

    #[test]
    fn oversized_line_is_typed_and_the_stream_recovers() {
        let mut chunks = vec![vec![b'x'; 4096], vec![b'x'; 4096]];
        chunks.push(b"y\nnext\n".to_vec());
        let got = lines_of(chunks, 100);
        assert_eq!(
            got,
            vec![Err(LineError::Oversized { limit: 100 }), Ok("next".into())]
        );
    }

    #[test]
    fn oversized_line_that_fits_one_buffer_is_still_rejected() {
        // Under 1 chunk but over the limit, newline arrives with it.
        let got = lines_of(vec![[vec![b'z'; 200], b"\nok\n".to_vec()].concat()], 100);
        assert_eq!(
            got,
            vec![Err(LineError::Oversized { limit: 100 }), Ok("ok".into())]
        );
    }

    #[test]
    fn non_utf8_line_is_typed_not_fatal() {
        let got = lines_of(vec![vec![0xff, 0xfe, b'\n', b'o', b'k', b'\n']], 64);
        assert_eq!(got, vec![Err(LineError::NotUtf8), Ok("ok".into())]);
    }

    #[test]
    fn partial_line_at_eof_is_discarded() {
        let got = lines_of(vec![b"done\nhalf-a-req".to_vec()], 64);
        assert_eq!(got, vec![Ok("done".into())]);
    }

    #[test]
    fn transport_errors_keep_buffered_bytes() {
        struct Flaky {
            fed: bool,
            errs: u32,
            done: bool,
        }
        impl Read for Flaky {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if !self.fed {
                    self.fed = true;
                    out[..4].copy_from_slice(b"par1");
                    return Ok(4);
                }
                if self.errs > 0 {
                    self.errs -= 1;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
                }
                if !self.done {
                    self.done = true;
                    out[..5].copy_from_slice(b"tial\n");
                    return Ok(5);
                }
                Ok(0)
            }
        }
        let mut r = LineReader::new(
            Flaky {
                fed: false,
                errs: 2,
                done: false,
            },
            64,
        );
        assert_eq!(
            r.next_line().expect_err("first poll times out").kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(
            r.next_line().expect_err("second poll times out").kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(
            r.next_line().expect("third poll completes the line"),
            Some(Ok("par1tial".into()))
        );
    }

    #[test]
    fn write_json_line_emits_one_flushed_line() {
        let mut out: Vec<u8> = Vec::new();
        let v = Json::obj(vec![("type", Json::Str("ping".into()))]);
        write_json_line(&mut out, &v).expect("vec write cannot fail");
        assert_eq!(out, b"{\"type\":\"ping\"}\n");
    }

    #[test]
    fn write_json_line_makes_one_write_call_per_line() {
        #[derive(Default)]
        struct Counting {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Counting::default();
        let v = Json::obj(vec![("type", Json::Str("pong".into()))]);
        for n in 1..=3 {
            write_json_line(&mut out, &v).expect("counting write cannot fail");
            assert_eq!(out.writes, n, "one write per line");
        }
        assert_eq!(out.bytes, b"{\"type\":\"pong\"}\n".repeat(3));
    }

    /// A reader handing out `data` in reads of at most `chunk` bytes.
    struct Fixed {
        data: Vec<u8>,
        at: usize,
        chunk: usize,
    }

    impl Read for Fixed {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(out.len()).min(self.data.len() - self.at);
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn lines_near_the_limit_frame_in_linear_time() {
        // Rescanning the whole buffer after every read would make the
        // 1-byte-chunk runs here cost ~10^12 byte compares.
        let limit = DEFAULT_MAX_LINE_BYTES;
        for chunk in [1, 4096] {
            for (len, want) in [
                (limit - 1, Ok("x".repeat(limit - 1))),
                (limit + 1, Err(LineError::Oversized { limit })),
            ] {
                let mut data = vec![b'x'; len];
                data.extend(b"\nnext\n");
                let mut r = LineReader::new(Fixed { data, at: 0, chunk }, limit);
                let mut got = Vec::new();
                while let Some(line) = r.next_line().expect("fixed reader never errors") {
                    got.push(line);
                }
                assert_eq!(got.len(), 2, "chunk {chunk}, line of {len} bytes");
                assert!(got[0] == want, "chunk {chunk}, line of {len} bytes");
                assert_eq!(got[1], Ok("next".into()), "chunk {chunk}");
            }
        }
    }
}
