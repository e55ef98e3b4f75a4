//! Minimal HTTP/1.1 over [`std::net::TcpStream`].
//!
//! The offline build has no `hyper`/`tiny_http`, so the server speaks
//! the protocol slice it actually needs by hand: request line, headers,
//! and `Content-Length` bodies in; fixed-length JSON responses and
//! `Transfer-Encoding: chunked` event streams out. Every connection
//! carries exactly one request and is closed afterwards
//! (`Connection: close`), which keeps the server loop and the client
//! trivially correct at the cost of a TCP handshake per call — noise
//! next to a simulator cell.
//!
//! Reads are hostile-input hardened: the parser pulls the socket in
//! blocks (never a syscall per byte), enforces [`ReadLimits`] on head
//! and body size, and checks an optional wall-clock deadline between
//! blocks so a trickling ("slowloris") client is cut off even though
//! each individual `read(2)` succeeds within the socket timeout.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use scu_harness::failpoint;
use serde_json::Value;

/// Parsed request: method, percent-free path, and raw body bytes.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, …
    pub method: String,
    /// The request path, e.g. `/sweeps/3/events` (query strings are
    /// kept verbatim; no route uses them).
    pub path: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Largest accepted header block — a request line plus a handful of
/// headers fits in a fraction of this.
pub const MAX_HEAD: usize = 16 * 1024;

/// Largest accepted body: a full 240-cell sweep spec is ~30 KB.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// Bounds on a single request read; see [`read_request`].
#[derive(Debug, Clone)]
pub struct ReadLimits {
    /// Reject heads larger than this.
    pub max_head: usize,
    /// Reject declared bodies larger than this.
    pub max_body: usize,
    /// Total wall-clock budget for reading the whole request. `None`
    /// leaves only the socket's own read timeout (which a trickling
    /// client can satisfy forever one byte at a time).
    pub deadline: Option<Duration>,
}

impl Default for ReadLimits {
    fn default() -> Self {
        ReadLimits {
            max_head: MAX_HEAD,
            max_body: MAX_BODY,
            deadline: None,
        }
    }
}

/// Reads one request off the stream (failpoint site: `server-read`).
///
/// # Errors
///
/// Returns `Err` on connection errors, malformed syntax, oversized
/// head/body (`InvalidData`, message contains "too large"), or an
/// expired deadline (`TimedOut`); the caller drops the connection
/// either way.
pub fn read_request(stream: &mut TcpStream, limits: &ReadLimits) -> std::io::Result<Request> {
    failpoint::io("server-read")?;
    read_request_from(stream, limits)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// The transport-agnostic parser behind [`read_request`]; the fuzz
/// suite drives it with in-memory readers. Reads in blocks, checking
/// the deadline each time at least one byte (or one block) arrives, so
/// wall-clock spent on a request is bounded by `limits.deadline` plus
/// one socket-timeout window.
///
/// # Errors
///
/// See [`read_request`].
pub fn read_request_from<R: Read>(reader: &mut R, limits: &ReadLimits) -> std::io::Result<Request> {
    let deadline = limits.deadline.map(|d| Instant::now() + d);
    // --- head: accumulate blocks until the blank line ---------------
    let mut head: Vec<u8> = Vec::new();
    let mut block = [0u8; 1024];
    let body_start = loop {
        if expired(deadline) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request read deadline exceeded",
            ));
        }
        if head.len() > limits.max_head {
            return Err(bad("header block too large"));
        }
        let n = reader.read(&mut block)?;
        if n == 0 {
            return Err(bad("connection closed mid-request"));
        }
        let scan_from = head.len().saturating_sub(3);
        head.extend_from_slice(&block[..n]);
        if let Some(at) = find_terminator(&head[scan_from..]) {
            break scan_from + at + 4;
        }
    };
    if body_start > limits.max_head + 4 {
        return Err(bad("header block too large"));
    }
    // Blocks may have read past the blank line; those bytes are the
    // front of the body.
    let leftover = head.split_off(body_start);
    let head = String::from_utf8(head).map_err(|_| bad("header block is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("missing method"))?;
    let path = parts.next().ok_or_else(|| bad("missing path"))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("unparsable Content-Length"))?;
            }
        }
    }
    if content_length > limits.max_body {
        return Err(bad("body too large"));
    }
    // --- body: leftover head bytes first, then blocks ---------------
    let mut body = leftover;
    body.truncate(content_length); // pipelined junk past the body is dropped
    let mut filled = body.len();
    body.resize(content_length, 0);
    while filled < content_length {
        if expired(deadline) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request read deadline exceeded",
            ));
        }
        let n = reader.read(&mut body[filled..])?;
        if n == 0 {
            return Err(bad("connection closed mid-request"));
        }
        filled += n;
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// Index of the `\r\n\r\n` head terminator in `buf`, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length JSON response and flushes.
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &Value) -> std::io::Result<()> {
    respond_json_with(stream, status, &[], body)
}

/// [`respond_json`] plus extra response headers (e.g. `Retry-After`).
pub fn respond_json_with(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &Value,
) -> std::io::Result<()> {
    let text = serde_json::to_string(body).expect("serialising a Value cannot fail");
    respond_json_text(stream, status, extra_headers, &text)
}

/// Writes a complete fixed-length response around an already
/// serialised JSON body: head and body go out in one `write_all`, so
/// the client sees a single segment instead of one per piece.
pub fn respond_json_text(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    text: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_text(status),
        text.len(),
    );
    for (name, value) in extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(text);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Writes the standard error shape: `{"error": "..."}`.
pub fn respond_error(stream: &mut TcpStream, status: u16, message: &str) -> std::io::Result<()> {
    respond_error_with(stream, status, &[], message)
}

/// [`respond_error`] plus extra response headers.
pub fn respond_error_with(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    message: &str,
) -> std::io::Result<()> {
    respond_json_with(
        stream,
        status,
        extra_headers,
        &Value::Object(vec![("error".to_string(), Value::Str(message.to_string()))]),
    )
}

/// A `Transfer-Encoding: chunked` response in progress — the event
/// stream. Each [`ChunkedWriter::send`] is one chunk (one JSON line),
/// flushed immediately so clients see events as they happen.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and returns the chunk writer.
    pub fn start(stream: &'a mut TcpStream, status: u16) -> std::io::Result<Self> {
        write!(
            stream,
            "HTTP/1.1 {status} {}\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status_text(status),
        )?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Sends one event as its own chunk, newline-terminated
    /// (failpoint site: `server-stream-write`).
    pub fn send(&mut self, event: &Value) -> std::io::Result<()> {
        failpoint::io("server-stream-write")?;
        let mut line = serde_json::to_string(event).expect("serialising a Value cannot fail");
        line.push('\n');
        write!(self.stream, "{:x}\r\n{line}\r\n", line.len())?;
        self.stream.flush()
    }

    /// Sends the terminating zero-length chunk.
    pub fn finish(self) -> std::io::Result<()> {
        write!(self.stream, "0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips raw request bytes through a real socket pair.
    fn parse(raw: &[u8]) -> std::io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        tx.write_all(raw).unwrap();
        tx.flush().unwrap();
        // Close the sender so a truncated request reads as EOF instead
        // of blocking the parser forever.
        drop(tx);
        let (mut rx, _) = listener.accept().unwrap();
        read_request(&mut rx, &ReadLimits::default())
    }

    #[test]
    fn parses_request_with_body() {
        let r =
            parse(b"POST /sweeps HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/sweeps");
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn parses_bodyless_get() {
        let r = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(parse(b"\r\n\r\n").is_err(), "empty request line");
        assert!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err(),
            "bad length"
        );
        assert!(
            parse(b"GET /x HTTP/1.1\r\nAccept: text").is_err(),
            "closed mid-headers"
        );
    }

    #[test]
    fn body_split_across_head_block_is_reassembled() {
        // The 1 KiB read blocks always grab body bytes together with
        // the head here; the parser must hand them back intact.
        let mut raw = b"POST /sweeps HTTP/1.1\r\nContent-Length: 5000\r\n\r\n".to_vec();
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        raw.extend_from_slice(&payload);
        let r = parse(&raw).unwrap();
        assert_eq!(r.body, payload);
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEAD + 8 {
            raw.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        let err = parse(&raw).unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");
        let err = parse(
            format!(
                "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .as_bytes(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");
    }

    #[test]
    fn deadline_cuts_off_a_trickling_body() {
        // A Read that yields one byte per call, forever: without the
        // deadline the parser would loop until content_length.
        struct Trickle;
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_millis(1));
                buf[0] = b'a';
                Ok(1)
            }
        }
        let head = b"POST /x HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
        let mut reader = std::io::Read::chain(&head[..], Trickle);
        let limits = ReadLimits {
            deadline: Some(Duration::from_millis(50)),
            ..ReadLimits::default()
        };
        let start = Instant::now();
        let err = read_request_from(&mut reader, &limits).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "cut off promptly"
        );
    }

    #[test]
    fn deadline_cuts_off_a_trickling_head() {
        struct DripHead {
            sent: usize,
        }
        impl Read for DripHead {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_millis(1));
                // An endless header that never reaches the blank line.
                buf[0] = if self.sent.is_multiple_of(64) {
                    b'\n'
                } else {
                    b'h'
                };
                self.sent += 1;
                Ok(1)
            }
        }
        let limits = ReadLimits {
            deadline: Some(Duration::from_millis(50)),
            ..ReadLimits::default()
        };
        let err = read_request_from(&mut DripHead { sent: 1 }, &limits).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    }

    #[test]
    fn server_read_failpoint_injects() {
        let _fp = scu_harness::failpoint::scoped("server-read=disconnect");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        let err = read_request(&mut rx, &ReadLimits::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn extra_headers_are_emitted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        respond_error_with(&mut rx, 429, &[("Retry-After", "1")], "overloaded").unwrap();
        drop(rx);
        let mut raw = String::new();
        tx.read_to_string(&mut raw).unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{raw}"
        );
        assert!(raw.contains("Retry-After: 1\r\n"), "{raw}");
        assert!(raw.ends_with("{\"error\":\"overloaded\"}"), "{raw}");
    }
}
