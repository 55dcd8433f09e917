//! Incremental newline-delimited frame reassembly.
//!
//! Both front ends (the threaded worker pool and the reactor event loop) and
//! the non-blocking client read raw byte chunks off a socket and need to cut
//! them back into complete protocol lines, keeping any trailing partial line
//! buffered until the next read delivers the rest. [`LineBuffer`] is that
//! shared reassembly state: bytes go in via [`LineBuffer::extend`], complete
//! lines come out via [`LineBuffer::next_line`], and whatever is left stays
//! put across reads (and, for the threaded pool, across worker turns).

/// Why [`LineBuffer::next_line`] could not hand out a line. Either way the
/// connection is unusable: frame boundaries can no longer be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineError {
    /// The line is not UTF-8.
    NotUtf8,
    /// More than the buffer's bound arrived without a newline. The
    /// unterminated bytes have been dropped.
    TooLong,
}

/// Reassembles newline-delimited UTF-8 frames from arbitrary byte chunks.
#[derive(Debug)]
pub(crate) struct LineBuffer {
    buf: Vec<u8>,
    /// Bytes before `start` were already handed out as lines; compacted
    /// lazily so repeated small lines don't memmove the tail each time.
    start: usize,
    /// Everything from `tail` on is an unterminated line: no newline has
    /// arrived at or past it. Maintained per chunk, so neither the bound
    /// check nor `next_line` rescans a long partial line on every read.
    tail: usize,
    /// Longest unterminated line this buffer will hold.
    max_line: usize,
}

impl LineBuffer {
    /// A fresh, empty buffer that lets a line grow without bound — for the
    /// client, whose peer is the server it chose and whose replies (a
    /// `Gains` vector, a metrics report) have no useful ceiling.
    pub(crate) fn new() -> Self {
        Self::bounded(usize::MAX)
    }

    /// A fresh, empty buffer that refuses to hold more than `max_line`
    /// bytes of one unterminated line — for the servers, whose peers are
    /// whoever connected.
    pub(crate) fn bounded(max_line: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            tail: 0,
            max_line,
        }
    }

    /// Append one raw chunk read from the socket.
    pub(crate) fn extend(&mut self, chunk: &[u8]) {
        // Compact before growing so consumed prefixes don't accumulate.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.tail -= self.start;
            self.start = 0;
        }
        if let Some(newline) = chunk.iter().rposition(|&b| b == b'\n') {
            self.tail = self.buf.len() + newline + 1;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Whether the unterminated line has outgrown the bound. Readers stop
    /// feeding the buffer once this holds; `next_line` reports it after the
    /// complete lines ahead of it.
    pub(crate) fn oversized(&self) -> bool {
        self.buf.len() - self.tail > self.max_line
    }

    /// The next complete line, without its trailing `\n` (a trailing `\r` is
    /// also stripped, for telnet-style clients). Returns `None` while only a
    /// partial line within the bound is buffered, `Some(Err(_))` if the line
    /// is not UTF-8 or the partial line is [`LineBuffer::oversized`].
    pub(crate) fn next_line(&mut self) -> Option<Result<String, LineError>> {
        if self.start == self.tail {
            if !self.oversized() {
                return None;
            }
            self.buf.truncate(self.tail);
            return Some(Err(LineError::TooLong));
        }
        let rest = &self.buf[self.start..self.tail];
        let newline = rest
            .iter()
            .position(|&b| b == b'\n')
            .expect("a newline precedes the tail");
        let mut line = &rest[..newline];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        let parsed = std::str::from_utf8(line)
            .map(str::to_string)
            .map_err(|_| LineError::NotUtf8);
        self.start += newline + 1;
        Some(parsed)
    }

    /// Whether any bytes (complete or partial) are buffered.
    pub(crate) fn has_buffered(&self) -> bool {
        self.start < self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reassembles_lines_across_chunks() {
        let mut lb = LineBuffer::new();
        lb.extend(b"{\"a\":1}\n{\"b\"");
        assert_eq!(lb.next_line().unwrap().unwrap(), "{\"a\":1}");
        assert!(lb.next_line().is_none());
        assert!(lb.has_buffered());
        lb.extend(b":2}\n");
        assert_eq!(lb.next_line().unwrap().unwrap(), "{\"b\":2}");
        assert!(lb.next_line().is_none());
        assert!(!lb.has_buffered());
    }

    #[test]
    fn strips_carriage_returns_and_rejects_bad_utf8() {
        let mut lb = LineBuffer::new();
        lb.extend(b"ping\r\n");
        assert_eq!(lb.next_line().unwrap().unwrap(), "ping");
        lb.extend(&[0xFF, 0xFE, b'\n']);
        assert!(lb.next_line().unwrap().is_err());
    }

    #[test]
    fn an_unterminated_line_past_the_bound_is_refused_after_the_lines_before_it() {
        let mut lb = LineBuffer::bounded(8);
        lb.extend(b"ok\n12345");
        lb.extend(b"678");
        assert!(!lb.oversized(), "exactly at the bound");
        lb.extend(b"9");
        assert!(lb.oversized());
        assert_eq!(lb.next_line().unwrap().unwrap(), "ok");
        assert_eq!(lb.next_line(), Some(Err(LineError::TooLong)));
        // The oversized tail is gone: nothing buffered, nothing to report.
        assert!(!lb.has_buffered() && !lb.oversized());
        assert!(lb.next_line().is_none());
        // A terminated line is never held against the bound it stayed under.
        lb.extend(b"12345678\n");
        assert_eq!(lb.next_line().unwrap().unwrap(), "12345678");
        // The unbounded (client) flavour never refuses.
        let mut unbounded = LineBuffer::new();
        unbounded.extend(&[b'x'; 4096]);
        assert!(!unbounded.oversized() && unbounded.next_line().is_none());
    }

    #[test]
    fn many_lines_in_one_chunk() {
        let mut lb = LineBuffer::new();
        lb.extend(b"a\nb\nc\n");
        assert_eq!(lb.next_line().unwrap().unwrap(), "a");
        assert_eq!(lb.next_line().unwrap().unwrap(), "b");
        assert_eq!(lb.next_line().unwrap().unwrap(), "c");
        assert!(lb.next_line().is_none());
    }
}
