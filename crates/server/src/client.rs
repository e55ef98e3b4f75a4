//! Blocking HTTP client for the sweep daemon.
//!
//! One request per connection, mirroring the server's
//! `Connection: close` discipline. [`Client::stream_events`] decodes
//! the chunked NDJSON event stream incrementally, invoking the
//! callback per event as it arrives — the CLI passthrough and the
//! tests both watch sweeps live through it.
//!
//! Transient failures — connection/socket errors, `429`, and
//! "overloaded" `503`s — are retried with capped exponential backoff
//! (default 2 retries, 100 ms base, 2 s cap): a dropped connection or
//! a shed request is not deterministic, so a retry can succeed where
//! the first attempt failed. Non-transient errors (4xx rejections,
//! "shutting down" 503s) surface immediately, and an event stream
//! never retries once events have started flowing.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde_json::Value;

/// Client-side failures, with the HTTP error body when there was one.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or socket-level failure.
    Io(std::io::Error),
    /// Non-2xx response: status code and the server's error message.
    Http(u16, String),
    /// The response did not parse as the protocol promises.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Http(status, msg) => write!(f, "server returned {status}: {msg}"),
            ClientError::Protocol(msg) => write!(f, "malformed response: {msg}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connection-per-request client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    host: String,
    retries: u32,
    backoff: Duration,
    backoff_cap: Duration,
}

/// The retry pacing: `base · 2^prior`, saturating, never above `cap`.
/// `prior` is how many attempts have already failed (0 for the first
/// retry).
fn capped_backoff(base: Duration, cap: Duration, prior_attempts: usize) -> Duration {
    base.saturating_mul(1u32 << prior_attempts.min(16)).min(cap)
}

/// Whether an error is worth retrying: the server may come back
/// (socket-level failure), asked us to retry (`429`), or shed us under
/// load (`503` "overloaded"). A "shutting down" `503` and all 4xx
/// rejections are final.
fn is_transient(e: &ClientError) -> bool {
    match e {
        ClientError::Io(_) => true,
        ClientError::Http(429, _) => true,
        ClientError::Http(503, msg) => msg.contains("overloaded"),
        _ => false,
    }
}

impl Client {
    /// Accepts `http://host:port`, `host:port`, with or without a
    /// trailing slash.
    pub fn new(url: &str) -> Client {
        let host = url
            .trim()
            .trim_start_matches("http://")
            .trim_end_matches('/')
            .to_string();
        Client {
            host,
            retries: 2,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
        }
    }

    /// Retry budget for transient errors (default 2; 0 = single shot).
    pub fn with_retries(mut self, retries: u32) -> Client {
        self.retries = retries;
        self
    }

    /// Base backoff (doubles per attempt) and its cap.
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Client {
        self.backoff = base;
        self.backoff_cap = cap;
        self
    }

    /// `GET /healthz`.
    pub fn health(&self) -> Result<Value, ClientError> {
        self.request("GET", "/healthz", None)
    }

    /// `GET /metrics`.
    pub fn metrics(&self) -> Result<Value, ClientError> {
        self.request("GET", "/metrics", None)
    }

    /// `POST /sweeps`; returns the new sweep's id.
    pub fn submit(&self, body: &Value) -> Result<u64, ClientError> {
        let response = self.request("POST", "/sweeps", Some(body))?;
        response
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("sweep response carries no id".to_string()))
    }

    /// `GET /sweeps/{id}`.
    pub fn sweep(&self, id: u64) -> Result<Value, ClientError> {
        self.request("GET", &format!("/sweeps/{id}"), None)
    }

    /// `GET /sweeps/{id}/results`.
    pub fn results(&self, id: u64) -> Result<Value, ClientError> {
        self.request("GET", &format!("/sweeps/{id}/results"), None)
    }

    /// `DELETE /sweeps/{id}`.
    pub fn cancel(&self, id: u64) -> Result<Value, ClientError> {
        self.request("DELETE", &format!("/sweeps/{id}"), None)
    }

    /// `GET /cells/{id}` — `Ok(None)` when the cell is not cached.
    pub fn cell(&self, cell_id: &str) -> Result<Option<Value>, ClientError> {
        match self.request("GET", &format!("/cells/{cell_id}"), None) {
            Ok(v) => Ok(Some(v)),
            Err(ClientError::Http(404, msg)) if msg.contains("not cached") => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Streams `GET /sweeps/{id}/events`, invoking `on_event` per
    /// event as it arrives; returns when the server closes the stream.
    pub fn stream_events(
        &self,
        id: u64,
        mut on_event: impl FnMut(&Value),
    ) -> Result<(), ClientError> {
        // Only the connection phase retries: once events flow, a retry
        // would replay the stream from the start and duplicate them.
        let mut reader = self.retrying(|| self.open_event_stream(id))?;
        // Chunk boundaries and event boundaries are independent;
        // accumulate bytes and peel complete newline-terminated events.
        let mut buffer = String::new();
        loop {
            let mut size_line = String::new();
            if reader.read_line(&mut size_line)? == 0 {
                break; // server closed without the final chunk; treat as end
            }
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| ClientError::Protocol(format!("bad chunk size '{size_line}'")))?;
            if size == 0 {
                break;
            }
            let mut chunk = vec![0u8; size + 2]; // payload + CRLF
            reader.read_exact(&mut chunk)?;
            chunk.truncate(size);
            buffer.push_str(
                std::str::from_utf8(&chunk)
                    .map_err(|_| ClientError::Protocol("event chunk is not UTF-8".to_string()))?,
            );
            while let Some(newline) = buffer.find('\n') {
                let line: String = buffer.drain(..=newline).collect();
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let event: Value = serde_json::from_str(line)
                    .map_err(|e| ClientError::Protocol(format!("bad event JSON: {e:?}")))?;
                on_event(&event);
            }
        }
        Ok(())
    }

    /// Submits nothing new — streams an existing sweep's events until
    /// it closes, then returns its final status.
    pub fn wait(&self, id: u64) -> Result<Value, ClientError> {
        self.stream_events(id, |_| {})?;
        self.sweep(id)
    }

    /// Opens the event-stream connection and reads the response head;
    /// the returned reader is positioned at the first chunk.
    fn open_event_stream(&self, id: u64) -> Result<BufReader<TcpStream>, ClientError> {
        let mut stream = TcpStream::connect(&self.host)?;
        write!(
            stream,
            "GET /sweeps/{id}/events HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.host
        )?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let (status, chunked, _content_length) = read_response_head(&mut reader)?;
        if status != 200 {
            let body = read_plain_body(&mut reader, None)?;
            return Err(ClientError::Http(status, error_message(&body)));
        }
        if !chunked {
            return Err(ClientError::Protocol(
                "event stream is not chunked".to_string(),
            ));
        }
        Ok(reader)
    }

    /// Runs `attempt` up to `1 + retries` times, sleeping the capped
    /// exponential backoff between transient failures.
    fn retrying<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut failures = 0usize;
        loop {
            match attempt() {
                Err(e) if failures < self.retries as usize && is_transient(&e) => {
                    std::thread::sleep(capped_backoff(self.backoff, self.backoff_cap, failures));
                    failures += 1;
                }
                other => return other,
            }
        }
    }

    /// One request, one response body parsed as JSON, with transient
    /// errors retried.
    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> Result<Value, ClientError> {
        self.retrying(|| self.request_once(method, path, body))
    }

    /// A single request attempt.
    fn request_once(
        &self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> Result<Value, ClientError> {
        let mut stream = TcpStream::connect(&self.host)?;
        match body {
            Some(value) => {
                let text = serde_json::to_string(value).expect("serialising a Value cannot fail");
                write!(
                    stream,
                    "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{text}",
                    self.host,
                    text.len(),
                )?;
            }
            None => {
                write!(
                    stream,
                    "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
                    self.host
                )?;
            }
        }
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let (status, chunked, content_length) = read_response_head(&mut reader)?;
        let text = if chunked {
            read_chunked_body(&mut reader)?
        } else {
            read_plain_body(&mut reader, content_length)?
        };
        let value: Value = serde_json::from_str(&text)
            .map_err(|e| ClientError::Protocol(format!("response is not JSON: {e:?}")))?;
        if (200..300).contains(&status) {
            Ok(value)
        } else {
            Err(ClientError::Http(status, error_message(&text)))
        }
    }
}

/// Pulls the server's `{"error": ...}` message out of a body, falling
/// back to the raw text.
fn error_message(body: &str) -> String {
    serde_json::from_str::<Value>(body)
        .ok()
        .and_then(|v| v.get("error").and_then(Value::as_str).map(String::from))
        .unwrap_or_else(|| body.trim().to_string())
}

/// Parses the status line and headers; returns (status, chunked,
/// content-length).
fn read_response_head(
    reader: &mut BufReader<TcpStream>,
) -> Result<(u16, bool, Option<usize>), ClientError> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        // The server accepted and dropped us without a byte (accept
        // fault, crash): a connection-level failure, hence retryable.
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before a response arrived",
        )));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line '{status_line}'")))?;
    let mut chunked = false;
    let mut content_length = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            } else if name == "content-length" {
                content_length = value.parse().ok();
            }
        }
    }
    Ok((status, chunked, content_length))
}

fn read_plain_body(
    reader: &mut BufReader<TcpStream>,
    content_length: Option<usize>,
) -> Result<String, ClientError> {
    let mut body = Vec::new();
    match content_length {
        Some(len) => {
            body.resize(len, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    String::from_utf8(body).map_err(|_| ClientError::Protocol("body is not UTF-8".to_string()))
}

fn read_chunked_body(reader: &mut BufReader<TcpStream>) -> Result<String, ClientError> {
    let mut body = String::new();
    loop {
        let mut size_line = String::new();
        if reader.read_line(&mut size_line)? == 0 {
            break;
        }
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| ClientError::Protocol(format!("bad chunk size '{size_line}'")))?;
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size + 2];
        reader.read_exact(&mut chunk)?;
        chunk.truncate(size);
        body.push_str(
            std::str::from_utf8(&chunk)
                .map_err(|_| ClientError::Protocol("chunk is not UTF-8".to_string()))?,
        );
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_backoff_doubles_then_saturates() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(2);
        assert_eq!(capped_backoff(base, cap, 0), Duration::from_millis(100));
        assert_eq!(capped_backoff(base, cap, 1), Duration::from_millis(200));
        assert_eq!(capped_backoff(base, cap, 2), Duration::from_millis(400));
        assert_eq!(capped_backoff(base, cap, 5), cap);
        // The shift itself is clamped: absurd attempt counts stay at cap.
        assert_eq!(capped_backoff(base, cap, 10_000), cap);
    }
}
