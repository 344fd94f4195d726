//! Shared plumbing for the server integration tests: a seeded on-disk
//! collection and a deliberately tiny raw-socket HTTP client (the point
//! is to exercise the server's real parser, not to reuse its code).

// Each integration target compiles its own copy of this module and none
// uses every helper.
#![allow(dead_code)]

use rabitq_serve::{Json, ServeConfig, Server};
use rabitq_store::{Collection, CollectionConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// Builds a collection of `rows` vectors where row `i` is
/// `[i*dim, i*dim+1, …] * 0.01` — so row `i` is its own nearest
/// neighbour — and spans both sealed segments and the memtable.
pub fn seeded_collection(tag: &str, dim: usize, rows: usize) -> (PathBuf, Collection) {
    let dir = std::env::temp_dir().join(format!("serve-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = rows.max(2) / 2;
    let mut collection = Collection::open(&dir, config).unwrap();
    for i in 0..rows {
        collection.insert(&row_vector(i, dim)).unwrap();
    }
    (dir, collection)
}

/// The vector stored at row `i` (see [`seeded_collection`]).
pub fn row_vector(i: usize, dim: usize) -> Vec<f32> {
    (0..dim).map(|d| (i * dim + d) as f32 * 0.01).collect()
}

/// Starts a server over one freshly seeded collection named `"test"`.
pub fn start_server(tag: &str, config: ServeConfig) -> (Server, PathBuf) {
    let (dir, collection) = seeded_collection(tag, 4, 64);
    let server = Server::start(config, vec![("test".into(), collection)]).unwrap();
    (server, dir)
}

/// One parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub body: String,
}

impl HttpResponse {
    pub fn json(&self) -> Json {
        Json::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON {:?}: {e}", self.body))
    }
}

/// A keep-alive client connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    /// Sends raw bytes without waiting for anything.
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
        self.stream.flush().unwrap();
    }

    /// Sends one request (adds Content-Length; keep-alive by default).
    pub fn send(&mut self, method: &str, path: &str, body: &str) {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.send_raw(req.as_bytes());
    }

    /// Sends one request's head, waits `gap`, then sends its body. The
    /// server's clock for a request starts at its head, so `gap` counts
    /// against the request's deadline and latency.
    pub fn send_with_body_gap(&mut self, method: &str, path: &str, body: &str, gap: Duration) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.send_raw(head.as_bytes());
        std::thread::sleep(gap);
        self.send_raw(body.as_bytes());
    }

    /// Reads one full response off the connection.
    pub fn read_response(&mut self) -> HttpResponse {
        loop {
            if let Some(resp) = self.try_parse() {
                return resp;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed mid-response: {:?}", self.buf);
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Reads until the server closes the connection; `Some` if a full
    /// response arrived first, `None` on a silent close.
    pub fn read_response_or_close(&mut self) -> Option<HttpResponse> {
        loop {
            if let Some(resp) = self.try_parse() {
                return Some(resp);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    fn try_parse(&mut self) -> Option<HttpResponse> {
        let head_end = self.buf.windows(4).position(|w| w == b"\r\n\r\n")?;
        let head = std::str::from_utf8(&self.buf[..head_end])
            .unwrap()
            .to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .unwrap();
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().unwrap())
            })
            .unwrap_or(0);
        let total = head_end + 4 + content_length;
        if self.buf.len() < total {
            return None;
        }
        let body = String::from_utf8(self.buf[head_end + 4..total].to_vec()).unwrap();
        self.buf.drain(..total);
        Some(HttpResponse { status, body })
    }
}

/// One-shot request on a fresh connection whose body arrives `gap` after
/// its head (see [`Client::send_with_body_gap`]).
pub fn late_body_request(addr: SocketAddr, path: &str, body: &str, gap: Duration) -> HttpResponse {
    let mut client = Client::connect(addr);
    client.send_with_body_gap("POST", path, body, gap);
    client.read_response()
}

/// One-shot request on a fresh connection.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> HttpResponse {
    let mut client = Client::connect(addr);
    client.send(method, path, body);
    client.read_response()
}

/// The value of one sample in a `/metrics` scrape; `series` is the
/// sample's name and labels exactly as printed.
pub fn sample(scrape: &str, series: &str) -> f64 {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no sample {series:?} in\n{scrape}"))
        .parse()
        .unwrap()
}

/// Serializes a query vector as the search request body.
pub fn search_body(vector: &[f32], k: usize) -> String {
    let vec_json: Vec<String> = vector.iter().map(|v| format!("{v}")).collect();
    format!("{{\"vector\":[{}],\"k\":{k}}}", vec_json.join(","))
}

/// A search body with an explicit `timeout_ms`.
pub fn timed_search_body(vector: &[f32], k: usize, timeout_ms: u64) -> String {
    let mut body = search_body(vector, k);
    body.truncate(body.len() - 1); // strip the closing brace
    format!("{body},\"timeout_ms\":{timeout_ms}}}")
}

/// Top neighbour id of a search response.
pub fn top_id(resp: &HttpResponse) -> u64 {
    resp.json()
        .get("neighbors")
        .and_then(Json::as_array)
        .and_then(|n| n.first())
        .and_then(|n| n.get("id"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no neighbors in {:?}", resp.body))
}
