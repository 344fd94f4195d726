//! A minimal, hand-rolled HTTP/1.1 layer over any `Read + Write` stream.
//!
//! Supports exactly what the JSON API needs: request-line + headers +
//! `Content-Length` bodies, keep-alive (with pipelining — the read buffer
//! carries over between requests), and hard limits on head and body sizes
//! so a malformed or hostile client is answered with `431`/`413` instead
//! of unbounded buffering. Chunked transfer encoding is rejected with
//! `411` (length required).

use std::io::{self, Read, Write};
use std::time::Instant;

/// Cap on request head (request line + headers) bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Read chunk size.
const READ_CHUNK: usize = 8 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Raw query string (without the `?`); empty when the target has
    /// none. Routing stays path-only — handlers opt into flags via
    /// [`Request::query_param`].
    pub query: String,
    /// Lowercased header names with trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// When the request head was first found complete in the read
    /// buffer. The one clock of a request: its deadline, its latency and
    /// its slow-query entry all measure from here.
    pub received: Instant,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of query parameter `name` (`?name=value&…`), if
    /// present; a bare `?name` yields `Some("")`. No percent-decoding —
    /// the API's flag values are plain tokens.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// An HTTP-level rejection: respond with `status` and close.
#[derive(Clone, Debug)]
pub struct HttpError {
    /// HTTP status code to answer with.
    pub status: u16,
    /// Human-readable reason included in the JSON error body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

/// Outcome of one attempt to read a request off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// Clean close: EOF with no buffered bytes.
    Closed,
    /// The read timed out. `partial` says whether a half-received request
    /// is sitting in the buffer (the caller escalates repeated partial
    /// timeouts to `408`).
    Timeout {
        /// Whether unconsumed request bytes are buffered.
        partial: bool,
    },
    /// Protocol violation — answer `status` and close.
    Error(HttpError),
    /// The peer vanished mid-request (reset, truncated body, …).
    Disconnected,
}

/// A response to serialize. Always carries an explicit `Content-Length`.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Force `Connection: close` regardless of the request.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            close: false,
        }
    }

    /// A JSON error body `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Self {
        let body = crate::json_obj! {"error" => message}.encode();
        Self::json(status, body)
    }

    /// The canonical reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            411 => "Length Required",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }
}

/// One HTTP connection: the stream plus the carry-over read buffer that
/// makes keep-alive pipelining work.
pub struct HttpConn<S> {
    stream: S,
    buf: Vec<u8>,
    /// When the head of the request being read was found; kept across
    /// read timeouts while its body is still arriving.
    head_at: Option<Instant>,
}

impl<S: Read + Write> HttpConn<S> {
    /// Wraps a stream.
    pub fn new(stream: S) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            head_at: None,
        }
    }

    /// Reads (or finishes reading) one request. `max_body` bounds
    /// `Content-Length`; oversized requests are rejected with `413`
    /// without reading their body.
    pub fn read_request(&mut self, max_body: usize) -> ReadOutcome {
        loop {
            if let Some(head_end) = find_head_end(&self.buf) {
                if head_end + 4 > MAX_HEAD_BYTES {
                    return ReadOutcome::Error(HttpError::new(431, "request head too large"));
                }
                let received = *self.head_at.get_or_insert_with(Instant::now);
                return self.parse_and_complete(head_end, max_body, received);
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return ReadOutcome::Error(HttpError::new(431, "request head too large"));
            }
            match self.fill() {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        ReadOutcome::Closed
                    } else {
                        ReadOutcome::Disconnected
                    };
                }
                Ok(_) => continue,
                Err(e) if is_timeout(&e) => {
                    return ReadOutcome::Timeout {
                        partial: !self.buf.is_empty(),
                    };
                }
                Err(_) => return ReadOutcome::Disconnected,
            }
        }
    }

    /// Serializes `resp`; `keep_alive` is the request-side decision (the
    /// response's `close` flag overrides it).
    pub fn write_response(&mut self, resp: &Response, keep_alive: bool) -> io::Result<()> {
        let close = resp.close || !keep_alive;
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{}\r\n",
            resp.status,
            resp.reason(),
            resp.content_type,
            resp.body.len(),
            if close { "connection: close\r\n" } else { "" },
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(&resp.body)?;
        self.stream.flush()
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(n);
                }
                // EINTR is a retry, not a timeout: counting it toward the
                // 408/idle budgets would turn stray signals into spurious
                // timeout ticks.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Parses the head at `..head_end`, then reads the body to completion.
    fn parse_and_complete(
        &mut self,
        head_end: usize,
        max_body: usize,
        received: Instant,
    ) -> ReadOutcome {
        let parsed = match parse_head(&self.buf[..head_end]) {
            Ok(p) => p,
            Err(e) => return ReadOutcome::Error(e),
        };
        if parsed.chunked {
            return ReadOutcome::Error(HttpError::new(
                411,
                "chunked transfer encoding not supported; send content-length",
            ));
        }
        let body_len = parsed.content_length.unwrap_or(0);
        if body_len > max_body {
            return ReadOutcome::Error(HttpError::new(
                413,
                format!("body of {body_len} bytes exceeds limit of {max_body}"),
            ));
        }
        let total = head_end + 4 + body_len;
        while self.buf.len() < total {
            match self.fill() {
                Ok(0) => return ReadOutcome::Disconnected,
                Ok(_) => {}
                Err(e) if is_timeout(&e) => return ReadOutcome::Timeout { partial: true },
                Err(_) => return ReadOutcome::Disconnected,
            }
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        self.head_at = None;
        let ParsedHead {
            method,
            path,
            query,
            headers,
            keep_alive,
            ..
        } = parsed;
        ReadOutcome::Request(Request {
            method,
            path,
            query,
            headers,
            body,
            keep_alive,
            received,
        })
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Index of `\r\n\r\n` terminating the head, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

struct ParsedHead {
    method: String,
    path: String,
    query: String,
    headers: Vec<(String, String)>,
    keep_alive: bool,
    content_length: Option<usize>,
    chunked: bool,
}

fn parse_head(head: &[u8]) -> Result<ParsedHead, HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::new(400, "request head is not valid UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::new(400, "malformed request line"));
    };
    if parts.next().is_some() || method.is_empty() || target.is_empty() {
        return Err(HttpError::new(400, "malformed request line"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::new(400, "unsupported HTTP version")),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut content_length = None;
    let mut has_transfer_encoding = false;
    let mut chunked = false;
    let mut keep_alive = http11;
    for (name, value) in &headers {
        match name.as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| HttpError::new(400, "invalid content-length"))?;
                // Conflicting duplicates are a request-smuggling surface
                // behind a proxy that picks the other one — hard 400.
                if content_length.is_some_and(|prev| prev != n) {
                    return Err(HttpError::new(400, "conflicting content-length headers"));
                }
                content_length = Some(n);
            }
            "transfer-encoding" => {
                has_transfer_encoding = true;
                if value.to_ascii_lowercase().contains("chunked") {
                    chunked = true;
                }
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    // Transfer-Encoding + Content-Length is the classic smuggling vector
    // (RFC 9112 §6.1: treat as an error); reject rather than pick one.
    if has_transfer_encoding && content_length.is_some() {
        return Err(HttpError::new(
            400,
            "transfer-encoding and content-length are mutually exclusive",
        ));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(ParsedHead {
        method: method.to_string(),
        path,
        query,
        headers,
        keep_alive,
        content_length,
        chunked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A scripted stream: reads pop from `input`, writes append to
    /// `output`. An empty script reads as a timeout, then EOF.
    struct FakeStream {
        input: VecDeque<Vec<u8>>,
        output: Vec<u8>,
        timeout_once: bool,
        interrupt_once: bool,
    }

    impl FakeStream {
        fn new(chunks: &[&[u8]]) -> Self {
            Self {
                input: chunks.iter().map(|c| c.to_vec()).collect(),
                output: Vec::new(),
                timeout_once: false,
                interrupt_once: false,
            }
        }
    }

    impl Read for FakeStream {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.interrupt_once {
                self.interrupt_once = false;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "eintr"));
            }
            match self.input.pop_front() {
                Some(chunk) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.input.push_front(chunk[n..].to_vec());
                    }
                    Ok(n)
                }
                None if self.timeout_once => {
                    self.timeout_once = false;
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"))
                }
                None => Ok(0),
            }
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn read_one(chunks: &[&[u8]], max_body: usize) -> ReadOutcome {
        HttpConn::new(FakeStream::new(chunks)).read_request(max_body)
    }

    #[test]
    fn parses_a_post_with_body() {
        let out = read_one(
            &[b"POST /search HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd"],
            1024,
        );
        let ReadOutcome::Request(req) = out else {
            panic!("expected request, got {out:?}");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/search");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
    }

    #[test]
    fn body_split_across_reads_is_reassembled() {
        let out = read_one(
            &[
                b"POST /x HTTP/1.1\r\ncont",
                b"ent-length: 6\r\n\r\nab",
                b"cdef",
            ],
            1024,
        );
        let ReadOutcome::Request(req) = out else {
            panic!("expected request, got {out:?}");
        };
        assert_eq!(req.body, b"abcdef");
    }

    #[test]
    fn received_is_stamped_at_the_head_and_survives_a_body_timeout() {
        let mut stream = FakeStream::new(&[b"POST /x HTTP/1.1\r\ncontent-length: 2\r\n\r\n"]);
        stream.timeout_once = true;
        let mut conn = HttpConn::new(stream);
        let before = Instant::now();
        assert!(matches!(
            conn.read_request(64),
            ReadOutcome::Timeout { partial: true }
        ));
        let stamped = conn.head_at.expect("head seen, body pending");
        std::thread::sleep(std::time::Duration::from_millis(5));
        conn.stream.input.push_back(b"ab".to_vec());
        let ReadOutcome::Request(req) = conn.read_request(64) else {
            panic!("expected the completed request");
        };
        assert_eq!(req.received, stamped, "the body's arrival does not restamp");
        assert!(req.received >= before);
        assert!(
            conn.head_at.is_none(),
            "the next request gets its own stamp"
        );
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let mut conn = HttpConn::new(FakeStream::new(&[
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nconnection: close\r\n\r\n",
        ]));
        let ReadOutcome::Request(a) = conn.read_request(64) else {
            panic!("first pipelined request");
        };
        let ReadOutcome::Request(b) = conn.read_request(64) else {
            panic!("second pipelined request");
        };
        assert_eq!(a.path, "/a");
        assert!(a.keep_alive);
        assert_eq!(b.path, "/b");
        assert!(!b.keep_alive);
    }

    #[test]
    fn oversized_body_is_rejected_with_413_without_reading_it() {
        let out = read_one(
            &[b"POST /x HTTP/1.1\r\ncontent-length: 999999\r\n\r\n"],
            100,
        );
        let ReadOutcome::Error(e) = out else {
            panic!("expected error, got {out:?}");
        };
        assert_eq!(e.status, 413);
    }

    #[test]
    fn truncated_head_is_disconnected() {
        let out = read_one(&[b"GET /x HTT"], 64);
        assert!(matches!(out, ReadOutcome::Disconnected), "{out:?}");
    }

    #[test]
    fn truncated_body_is_disconnected() {
        let out = read_one(&[b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"], 64);
        assert!(matches!(out, ReadOutcome::Disconnected), "{out:?}");
    }

    #[test]
    fn clean_eof_is_closed_and_timeout_reports_partial() {
        assert!(matches!(read_one(&[], 64), ReadOutcome::Closed));
        let mut stream = FakeStream::new(&[b"GET /x H"]);
        stream.timeout_once = true;
        let out = HttpConn::new(stream).read_request(64);
        assert!(
            matches!(out, ReadOutcome::Timeout { partial: true }),
            "{out:?}"
        );
    }

    #[test]
    fn rejects_bad_request_lines_and_versions() {
        for head in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length: nan\r\n\r\n",
        ] {
            let out = read_one(&[head], 64);
            let ReadOutcome::Error(e) = out else {
                panic!("expected error for {head:?}, got {out:?}");
            };
            assert_eq!(e.status, 400);
        }
    }

    #[test]
    fn chunked_encoding_is_rejected() {
        let out = read_one(
            &[b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"],
            64,
        );
        let ReadOutcome::Error(e) = out else {
            panic!("expected error, got {out:?}");
        };
        assert_eq!(e.status, 411);
    }

    #[test]
    fn identity_transfer_encoding_is_not_chunked() {
        // "identity" is not chunked: parses as a body-less request
        // instead of a 411.
        let out = read_one(
            &[b"GET /x HTTP/1.1\r\ntransfer-encoding: identity\r\n\r\n"],
            64,
        );
        let ReadOutcome::Request(req) = out else {
            panic!("expected request, got {out:?}");
        };
        assert!(req.body.is_empty());
    }

    #[test]
    fn smuggling_shaped_heads_are_rejected_with_400() {
        // Transfer-Encoding alongside Content-Length, and conflicting
        // duplicate Content-Length values.
        for head in [
            &b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\ncontent-length: 4\r\n\r\nabcd"[..],
            b"POST /x HTTP/1.1\r\ntransfer-encoding: identity\r\ncontent-length: 4\r\n\r\nabcd",
            b"POST /x HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 5\r\n\r\nabcd",
        ] {
            let out = read_one(&[head], 64);
            let ReadOutcome::Error(e) = out else {
                panic!("expected error for {head:?}, got {out:?}");
            };
            assert_eq!(e.status, 400);
        }
        // Identical duplicates are harmless and accepted.
        let out = read_one(
            &[b"POST /x HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 4\r\n\r\nabcd"],
            64,
        );
        let ReadOutcome::Request(req) = out else {
            panic!("expected request, got {out:?}");
        };
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn interrupted_reads_are_retried_not_timeouts() {
        let mut stream = FakeStream::new(&[b"GET /x HTTP/1.1\r\n\r\n"]);
        stream.interrupt_once = true;
        let out = HttpConn::new(stream).read_request(64);
        let ReadOutcome::Request(req) = out else {
            panic!("expected request after EINTR retry, got {out:?}");
        };
        assert_eq!(req.path, "/x");
    }

    #[test]
    fn oversized_head_is_rejected_with_431() {
        let huge = format!(
            "GET /x HTTP/1.1\r\nx-padding: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES + 1)
        );
        let out = read_one(&[huge.as_bytes()], 64);
        let ReadOutcome::Error(e) = out else {
            panic!("expected error, got {out:?}");
        };
        assert_eq!(e.status, 431);
    }

    #[test]
    fn write_response_emits_valid_http() {
        let mut conn = HttpConn::new(FakeStream::new(&[]));
        conn.write_response(&Response::json(200, "{\"ok\":true}".into()), true)
            .unwrap();
        let text = String::from_utf8(conn.stream.output.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"));
        assert!(!text.contains("connection: close"));
        assert!(text.ends_with("{\"ok\":true}"));

        conn.stream.output.clear();
        conn.write_response(&Response::error(429, "overloaded"), false)
            .unwrap();
        let text = String::from_utf8(conn.stream.output.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("connection: close\r\n"));
    }

    #[test]
    fn query_strings_are_stripped_from_path() {
        let out = read_one(&[b"GET /stats?verbose=1 HTTP/1.1\r\n\r\n"], 64);
        let ReadOutcome::Request(req) = out else {
            panic!("expected request, got {out:?}");
        };
        assert_eq!(req.path, "/stats");
        assert_eq!(req.query, "verbose=1");
        assert_eq!(req.query_param("verbose"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn query_params_parse_flags_and_pairs() {
        let out = read_one(&[b"POST /search?debug=timings&trace HTTP/1.1\r\n\r\n"], 64);
        let ReadOutcome::Request(req) = out else {
            panic!("expected request, got {out:?}");
        };
        assert_eq!(req.query_param("debug"), Some("timings"));
        assert_eq!(req.query_param("trace"), Some(""));
        // And a target with no query at all parses to the empty string.
        let out = read_one(&[b"GET /stats HTTP/1.1\r\n\r\n"], 64);
        let ReadOutcome::Request(req) = out else {
            panic!("expected request, got {out:?}");
        };
        assert!(req.query.is_empty());
        assert_eq!(req.query_param("debug"), None);
    }

    #[test]
    fn http10_defaults_to_close() {
        let out = read_one(&[b"GET /x HTTP/1.0\r\n\r\n"], 64);
        let ReadOutcome::Request(req) = out else {
            panic!("expected request, got {out:?}");
        };
        assert!(!req.keep_alive);
    }
}
