//! Line-level transport shared by the server, the [`Client`], and the
//! fleet router: an incremental reader for the protocol's one-line
//! framing that tolerates read timeouts and survives oversized lines, and
//! [`write_line`], the one way a line goes out.
//!
//! [`Client`]: crate::server::Client

use std::fmt;
use std::io::{self, Read, Write};

/// Reject lines longer than this (64 MiB): a missing newline must not
/// buffer unbounded garbage. The largest benchmark design's assembly is
/// three orders of magnitude smaller.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// A line buffer that grew past this after one huge response is dropped
/// rather than kept for the connection's lifetime.
const RETAINED_LINE_BYTES: usize = 1 << 20;

/// Send `line` plus `\n` with a single `write_all` and `flush`.
///
/// The line is encoded into `buf` first (cleared here; keep one per
/// connection so the steady state allocates nothing). Encoding straight
/// onto the writer would be one `write` per `Display` token — `Json`
/// writes per token and per escaped character — and on a `TCP_NODELAY`
/// socket every `write` is its own segment.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_line<W, T>(out: &mut W, buf: &mut Vec<u8>, line: &T) -> io::Result<()>
where
    W: Write + ?Sized,
    T: fmt::Display + ?Sized,
{
    buf.clear();
    writeln!(buf, "{}", line)?;
    let sent = out.write_all(buf).and_then(|()| out.flush());
    if buf.capacity() > RETAINED_LINE_BYTES {
        *buf = Vec::new();
    }
    sent
}

/// Incremental line reader that tolerates read timeouts (propagated to
/// the caller as `WouldBlock`/`TimedOut`, with all buffered bytes kept).
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for a newline, so each chunk is
    /// scanned once — a near-64-MiB line must not cost a fresh full-buffer
    /// scan per 8 KiB read.
    scanned: usize,
    /// Set when an oversized line was rejected: bytes are discarded until
    /// the next newline, so the connection survives the bad line instead
    /// of desynchronizing on its tail.
    discarding: bool,
    eof: bool,
}

impl<R: Read> LineReader<R> {
    /// Wrap a reader; no bytes are consumed until [`next_line`].
    ///
    /// [`next_line`]: LineReader::next_line
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            scanned: 0,
            discarding: false,
            eof: false,
        }
    }

    /// The next `\n`-terminated line (terminator stripped), `None` at EOF.
    /// An over-limit line returns one `InvalidData` error and is then
    /// skipped; the reader stays usable for the lines after it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying reader; read timeouts
    /// surface as `WouldBlock`/`TimedOut` with buffered bytes kept, so
    /// the caller can poll a flag and try again.
    pub fn next_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(offset) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let pos = self.scanned + offset;
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                self.scanned = 0;
                if self.discarding {
                    // The tail of the rejected oversized line.
                    self.discarding = false;
                    continue;
                }
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            self.scanned = self.buf.len();
            if self.discarding {
                // No newline yet: everything buffered is still the
                // oversized line's body. Drop it without growing.
                self.buf.clear();
                self.scanned = 0;
            }
            if self.eof {
                if self.buf.is_empty() || self.discarding {
                    return Ok(None);
                }
                let line = std::mem::take(&mut self.buf);
                self.scanned = 0;
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.buf.len() > MAX_LINE_BYTES {
                self.buf.clear();
                self.scanned = 0;
                self.discarding = true;
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request line exceeds the 64 MiB limit",
                ));
            }
            let mut chunk = [0u8; 8192];
            match self.inner.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}
