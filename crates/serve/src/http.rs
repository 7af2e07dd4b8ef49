//! A hand-rolled HTTP/1.1 front end over [`StatsIndex`]es — plain
//! `std::net`, a fixed worker pool, keep-alive connections, JSON
//! responses. No framework: the protocol surface a statistics read API
//! needs is a request line, a handful of headers, and a content length.
//!
//! Routes (all `GET`):
//!
//! | route | query | answer |
//! |-------|-------|--------|
//! | `/` | — | the mounted index names |
//! | `/v1/{index}/ngram` | `q=` | count of exactly that n-gram |
//! | `/v1/{index}/prefix` | `q=`, `limit=` | extensions of the prefix, in gram order |
//! | `/v1/{index}/topk` | `k=` | highest-frequency grams |
//! | `/v1/{index}/stats` | — | manifest + cache telemetry |
//! | `/metrics` | — | Prometheus text exposition (see [`crate::metrics`]) |
//! | `/healthz` | — | liveness: `{"status":"ok","indexes":N}` |
//!
//! The serving path is hardened against misbehaving clients: every
//! request head must arrive within [`HEADER_READ_TIMEOUT`] (a slowloris
//! trickling bytes is disconnected with 408, a silent one just dropped),
//! writes carry a socket timeout so a peer that stops reading cannot
//! wedge a worker, oversized heads are rejected with 400, and accepted
//! connections beyond the worker pool's [`ACCEPT_BACKLOG`] are shed
//! immediately with 503 instead of queueing without bound. Shutdown
//! drains: workers finish the request in flight, answer it with
//! `connection: close`, and exit.

use crate::index::StatsIndex;
use crate::json::{json_array, JsonObject};
use crate::metrics::{Endpoint, ServerMetrics};
use mapreduce::{log_debug, MrError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Default worker threads serving requests.
pub const DEFAULT_WORKERS: usize = 4;
/// Requests larger than this are rejected with 400.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Cap on `limit=` / `k=` to bound per-request work.
const MAX_ROWS: usize = 10_000;
/// A complete request head (and any keep-alive idle gap) must arrive
/// within this budget; the deadline spans the whole head, so trickling
/// one byte per read cannot hold a worker indefinitely.
pub const HEADER_READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Socket write timeout: a peer that stops reading its response is
/// disconnected rather than blocking a worker on a full send buffer.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Accepted connections queued for a worker beyond this bound are shed
/// with 503 instead of growing the queue without limit.
pub const ACCEPT_BACKLOG: usize = 64;

/// The HTTP server: a listener plus the indexes it serves, keyed by the
/// `{index}` path component.
pub struct StatsServer {
    listener: TcpListener,
    addr: SocketAddr,
    indexes: Arc<HashMap<String, Arc<StatsIndex>>>,
    workers: usize,
    header_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
    metrics: Arc<ServerMetrics>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metric registry (live; the server keeps updating it).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stop the accept loop and join the server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.stop();
        }
    }
}

impl StatsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:8600"`; port 0 picks a free port)
    /// serving `indexes` with the default worker count.
    pub fn bind(addr: &str, indexes: HashMap<String, Arc<StatsIndex>>) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(StatsServer {
            listener,
            addr,
            indexes: Arc::new(indexes),
            workers: DEFAULT_WORKERS,
            header_timeout: HEADER_READ_TIMEOUT,
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics: ServerMetrics::new(),
        })
    }

    /// The server's metric registry.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Override the worker thread count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Override how long one request head may take to arrive (tests;
    /// the default [`HEADER_READ_TIMEOUT`] is right for production).
    pub fn header_timeout(mut self, timeout: Duration) -> Self {
        self.header_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until the shutdown flag flips: accept connections and hand
    /// them to the worker pool. Blocks the calling thread.
    pub fn run(self) -> Result<()> {
        // Bounded hand-off queue: when every worker is busy and the
        // backlog is full, new connections are shed with 503 right on
        // the accept thread instead of queueing without bound.
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(ACCEPT_BACKLOG);
        let rx = Arc::new(Mutex::new(rx));
        let header_timeout = self.header_timeout;
        std::thread::scope(|scope| {
            for worker in 0..self.workers {
                let rx = Arc::clone(&rx);
                let indexes = Arc::clone(&self.indexes);
                let shutdown = Arc::clone(&self.shutdown);
                let metrics = Arc::clone(&self.metrics);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{worker}"))
                    .spawn_scoped(scope, move || loop {
                        let conn = { rx.lock().recv() };
                        match conn {
                            Ok(stream) => serve_connection(
                                stream,
                                &indexes,
                                header_timeout,
                                &shutdown,
                                &metrics,
                            ),
                            Err(_) => break, // accept loop gone
                        }
                    })
                    .expect("spawn http worker");
            }
            for conn in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        // Interactive point lookups: never trade latency
                        // for coalescing.
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                        match tx.try_send(stream) {
                            Ok(()) => self.metrics.connection(),
                            Err(mpsc::TrySendError::Full(mut stream)) => {
                                self.metrics.shed();
                                let _ = write_response(
                                    &mut stream,
                                    503,
                                    &error_json("server overloaded, retry later"),
                                    JSON_CONTENT_TYPE,
                                    true,
                                );
                            }
                            Err(mpsc::TrySendError::Disconnected(_)) => break,
                        }
                    }
                    Err(_) => break,
                }
            }
            // Graceful drain: closing the queue lets each worker finish
            // the connection it is serving, then exit; the scope joins.
            drop(tx);
        });
        Ok(())
    }

    /// Run on a background thread, returning a handle that can stop it.
    pub fn spawn(self) -> Result<ServerHandle> {
        let addr = self.addr;
        let shutdown = Arc::clone(&self.shutdown);
        let metrics = Arc::clone(&self.metrics);
        let join = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || {
                let _ = self.run();
            })
            .map_err(|e| MrError::Config(format!("cannot spawn server thread: {e}")))?;
        Ok(ServerHandle {
            addr,
            shutdown,
            join: Some(join),
            metrics,
        })
    }
}

/// How one attempt to read a request head ended.
enum HeadRead {
    /// Header terminator found at this offset.
    Complete(usize),
    /// Peer closed (or errored) the connection.
    Closed,
    /// The head did not arrive within the deadline.
    TimedOut,
    /// The head exceeded [`MAX_REQUEST_BYTES`].
    TooLarge,
}

/// Read one request head into `buf`, bounded in both bytes and time.
/// The deadline covers the whole head, so a slowloris trickling a byte
/// per timeout window still gets disconnected.
fn read_request_head(stream: &mut TcpStream, buf: &mut Vec<u8>, timeout: Duration) -> HeadRead {
    let deadline = Instant::now() + timeout;
    let mut chunk = [0u8; 1024];
    loop {
        // None of our requests carry a body, so the headers are the
        // request (a pipelined head may already be buffered).
        if let Some(end) = find_header_end(buf) {
            return HeadRead::Complete(end);
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return HeadRead::TooLarge;
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() || stream.set_read_timeout(Some(remaining)).is_err() {
            return HeadRead::TimedOut;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return HeadRead::Closed,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return HeadRead::TimedOut;
            }
            Err(_) => return HeadRead::Closed,
        }
    }
}

/// One keep-alive connection: read requests until close/EOF/error,
/// timeout, or server drain.
fn serve_connection(
    mut stream: TcpStream,
    indexes: &HashMap<String, Arc<StatsIndex>>,
    header_timeout: Duration,
    shutdown: &AtomicBool,
    metrics: &ServerMetrics,
) {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let end = match read_request_head(&mut stream, &mut buf, header_timeout) {
            HeadRead::Complete(end) => end,
            HeadRead::Closed => return,
            HeadRead::TimedOut => {
                metrics.timeout();
                // An idle keep-alive peer is just dropped; one that sent a
                // partial head gets told why before the disconnect.
                if !buf.is_empty() {
                    let _ = write_response(
                        &mut stream,
                        408,
                        &error_json("request head timed out"),
                        JSON_CONTENT_TYPE,
                        true,
                    );
                }
                return;
            }
            HeadRead::TooLarge => {
                metrics.too_large();
                let _ = write_response(
                    &mut stream,
                    400,
                    &error_json("request too large"),
                    JSON_CONTENT_TYPE,
                    true,
                );
                return;
            }
        };
        let head = String::from_utf8_lossy(&buf[..end]).into_owned();
        buf.drain(..end + 4);
        // Draining: answer the request in flight, then close.
        let close = wants_close(&head) || shutdown.load(Ordering::SeqCst);
        let started = Instant::now();
        let _in_flight = metrics.begin_request();
        let (status, body, endpoint) = handle_request(&head, indexes, metrics);
        let content_type = if endpoint == Endpoint::Metrics && status == 200 {
            METRICS_CONTENT_TYPE
        } else {
            JSON_CONTENT_TYPE
        };
        let wrote = write_response(&mut stream, status, &body, content_type, close);
        metrics.observe(endpoint, status, started.elapsed());
        // Access log: one line per request at debug (the format args are
        // only evaluated when the level is on).
        log_debug!(
            "http",
            "{status} {} {}us",
            head.lines().next().unwrap_or(""),
            started.elapsed().as_micros()
        );
        if wrote.is_err() || close {
            return;
        }
    }
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn wants_close(head: &str) -> bool {
    head.lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .any(|(k, v)| {
            k.eq_ignore_ascii_case("connection") && v.trim().eq_ignore_ascii_case("close")
        })
}

/// `content-type` of every JSON response.
const JSON_CONTENT_TYPE: &str = "application/json";
/// `content-type` of the Prometheus text exposition.
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    content_type: &str,
    close: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    // One write for head+body: a split write would leave the body segment
    // queued behind Nagle waiting on the peer's delayed ACK (~40ms per
    // response on keep-alive connections).
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{body}",
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

fn error_json(msg: &str) -> String {
    let mut o = JsonObject::new();
    o.field_str("error", msg);
    o.finish()
}

/// Dispatch one parsed request head to `(status, body, endpoint-label)`.
fn handle_request(
    head: &str,
    indexes: &HashMap<String, Arc<StatsIndex>>,
    metrics: &ServerMetrics,
) -> (u16, String, Endpoint) {
    let with_endpoint = |(status, body): (u16, String), e: Endpoint| (status, body, e);
    let Some(request_line) = head.lines().next() else {
        return (400, error_json("empty request"), Endpoint::Other);
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return (400, error_json("malformed request line"), Endpoint::Other);
    };
    if !version.starts_with("HTTP/1.") {
        return (400, error_json("unsupported protocol"), Endpoint::Other);
    }
    if method != "GET" {
        return (405, error_json("only GET is supported"), Endpoint::Other);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = parse_query(query);

    if path == "/healthz" {
        // Liveness only: answering at all proves the accept loop and a
        // worker are alive. Index health is enforced at mount time —
        // StatsIndex::open refuses a partial index — so a mounted index
        // needs no per-probe re-validation.
        let mut o = JsonObject::new();
        o.field_str("status", "ok")
            .field_u64("indexes", indexes.len() as u64);
        return (200, o.finish(), Endpoint::Healthz);
    }

    if path == "/metrics" {
        return (200, metrics.render_prometheus(indexes), Endpoint::Metrics);
    }

    if path == "/" || path == "/v1" || path == "/v1/" {
        let mut names: Vec<&str> = indexes.keys().map(String::as_str).collect();
        names.sort_unstable();
        let mut o = JsonObject::new();
        o.field(
            "indexes",
            &json_array(names.into_iter().map(|n| {
                let mut s = String::new();
                crate::json::write_json_str(&mut s, n);
                s
            })),
        );
        return (200, o.finish(), Endpoint::Root);
    }

    let rest = match path.strip_prefix("/v1/") {
        Some(rest) => rest,
        None => return (404, error_json("no such route"), Endpoint::Other),
    };
    let Some((index_name, endpoint)) = rest.split_once('/') else {
        return (
            404,
            error_json("route is /v1/{index}/{endpoint}"),
            Endpoint::Other,
        );
    };
    let Some(index) = indexes.get(index_name) else {
        return (404, error_json("unknown index"), Endpoint::Other);
    };
    match endpoint {
        "ngram" => with_endpoint(handle_ngram(index, &params), Endpoint::Ngram),
        "prefix" => with_endpoint(handle_prefix(index, &params), Endpoint::Prefix),
        "topk" => with_endpoint(handle_topk(index, &params), Endpoint::Topk),
        "stats" => with_endpoint(handle_stats(index_name, index), Endpoint::Stats),
        _ => (404, error_json("unknown endpoint"), Endpoint::Other),
    }
}

fn handle_ngram(index: &StatsIndex, params: &HashMap<String, String>) -> (u16, String) {
    let Some(q) = params
        .get("q")
        .map(String::as_str)
        .filter(|q| !q.trim().is_empty())
    else {
        return (400, error_json("missing query parameter q"));
    };
    match index.lookup(q) {
        Ok(count) => {
            let mut o = JsonObject::new();
            o.field_str("q", q)
                .field_u64("count", count.unwrap_or(0))
                .field("found", if count.is_some() { "true" } else { "false" });
            (200, o.finish())
        }
        Err(e) => (500, error_json(&format!("lookup failed: {e}"))),
    }
}

fn rows_json(rows: Vec<(String, u64)>) -> String {
    json_array(rows.into_iter().map(|(gram, count)| {
        let mut o = JsonObject::new();
        o.field_str("gram", &gram).field_u64("count", count);
        o.finish()
    }))
}

fn handle_prefix(index: &StatsIndex, params: &HashMap<String, String>) -> (u16, String) {
    let Some(q) = params.get("q") else {
        return (400, error_json("missing query parameter q"));
    };
    let limit = match parse_bounded(params, "limit", 100) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    match index.prefix(q, limit) {
        Ok(rows) => {
            let mut o = JsonObject::new();
            o.field_str("q", q)
                .field_u64("limit", limit as u64)
                .field_u64("returned", rows.len() as u64)
                .field("results", &rows_json(rows));
            (200, o.finish())
        }
        Err(e) => (500, error_json(&format!("prefix scan failed: {e}"))),
    }
}

fn handle_topk(index: &StatsIndex, params: &HashMap<String, String>) -> (u16, String) {
    let k = match parse_bounded(params, "k", 10) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    match index.topk(k) {
        Ok(rows) => {
            let mut o = JsonObject::new();
            o.field_u64("k", k as u64)
                .field_u64("returned", rows.len() as u64)
                .field("results", &rows_json(rows));
            (200, o.finish())
        }
        Err(e) => (500, error_json(&format!("topk failed: {e}"))),
    }
}

fn handle_stats(name: &str, index: &StatsIndex) -> (u16, String) {
    let meta = index.meta();
    let (hits, misses) = index.cache_stats();
    let total = hits + misses;
    let mut cache = JsonObject::new();
    cache
        .field_u64("hits", hits)
        .field_u64("misses", misses)
        .field_u64("negative_hits", index.cache_negative_hits())
        .field_f64(
            "hit_rate",
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            },
        )
        .field_u64("used_bytes", index.cache_used_bytes() as u64);
    let mut o = JsonObject::new();
    o.field_str("index", name)
        .field_str("corpus", &meta.corpus)
        .field_str("method", &meta.method)
        .field_str("count_mode", &meta.count_mode)
        .field_u64("tau", meta.tau)
        .field_u64("sigma", meta.sigma)
        .field_str("codec", meta.codec.name())
        .field_u64("segments", meta.segments)
        .field_u64("entries", meta.entries)
        .field_str("partitioner", meta.partitioner.map_or("none", |p| p.name()))
        .field_u64("terms", index.dictionary().len() as u64)
        .field("cache", &cache.finish());
    (200, o.finish())
}

/// Parse a bounded positive integer parameter, with a default.
fn parse_bounded(
    params: &HashMap<String, String>,
    name: &str,
    default: usize,
) -> std::result::Result<usize, (u16, String)> {
    match params.get(name) {
        None => Ok(default),
        Some(raw) => match raw.parse::<usize>() {
            Ok(v) if (1..=MAX_ROWS).contains(&v) => Ok(v),
            _ => Err((
                400,
                error_json(&format!("{name} must be an integer in 1..={MAX_ROWS}")),
            )),
        },
    }
}

/// Split `a=1&b=two+words` into a map, percent/plus-decoding values.
fn parse_query(query: &str) -> HashMap<String, String> {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (url_decode(k), url_decode(v))
        })
        .collect()
}

fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_decodes_escapes() {
        let p = parse_query("q=new+york%20times&limit=5&flag");
        assert_eq!(p["q"], "new york times");
        assert_eq!(p["limit"], "5");
        assert_eq!(p["flag"], "");
    }

    #[test]
    fn bad_requests_get_structured_errors() {
        let indexes = HashMap::new();
        let metrics = ServerMetrics::new();
        let (s, _, e) = handle_request("POST /v1/x/ngram HTTP/1.1", &indexes, &metrics);
        assert_eq!((s, e), (405, Endpoint::Other));
        let (s, _, _) = handle_request("GET /v2/nope HTTP/1.1", &indexes, &metrics);
        assert_eq!(s, 404);
        let (s, _, _) = handle_request("GET /v1/missing/ngram?q=a HTTP/1.1", &indexes, &metrics);
        assert_eq!(s, 404);
        let (s, body, e) = handle_request("GET / HTTP/1.1", &indexes, &metrics);
        assert_eq!((s, e), (200, Endpoint::Root));
        assert_eq!(body, r#"{"indexes":[]}"#);
        let (s, body, e) = handle_request("GET /metrics HTTP/1.1", &indexes, &metrics);
        assert_eq!((s, e), (200, Endpoint::Metrics));
        assert!(body.contains("# TYPE http_requests_total counter"));
        let (s, body, e) = handle_request("GET /healthz HTTP/1.1", &indexes, &metrics);
        assert_eq!((s, e), (200, Endpoint::Healthz));
        assert_eq!(body, r#"{"status":"ok","indexes":0}"#);
    }

    #[test]
    fn connection_close_is_detected() {
        assert!(wants_close("GET / HTTP/1.1\r\nConnection: close"));
        assert!(!wants_close("GET / HTTP/1.1\r\nConnection: keep-alive"));
        assert!(!wants_close("GET / HTTP/1.1"));
    }

    /// Issue one request on a fresh connection and return the raw reply.
    fn round_trip(addr: SocketAddr) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        reply
    }

    #[test]
    fn slowloris_is_disconnected_and_never_wedges_a_worker() {
        // A single worker makes wedging observable: if the slow client
        // held it, no later request could ever be answered.
        let server = StatsServer::bind("127.0.0.1:0", HashMap::new())
            .unwrap()
            .workers(1)
            .header_timeout(Duration::from_millis(200));
        let addr = server.local_addr();
        let handle = server.spawn().unwrap();

        // Client A sends a partial request head, then goes silent.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET / HT").unwrap();
        slow.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        // Client B's ordinary request must still be answered promptly.
        let started = Instant::now();
        let reply = round_trip(addr);
        assert!(reply.starts_with("HTTP/1.1 200"), "reply: {reply}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "request stalled behind the slowloris: {:?}",
            started.elapsed()
        );

        // The slow client gets a 408 (it sent a partial head) and then
        // EOF — the server, not the client, ends the connection.
        let mut tail = Vec::new();
        slow.read_to_end(&mut tail).unwrap();
        let tail = String::from_utf8_lossy(&tail);
        assert!(tail.starts_with("HTTP/1.1 408"), "slow client saw: {tail}");

        // A fully silent client is dropped without a response.
        let mut silent = TcpStream::connect(addr).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut tail = Vec::new();
        silent.read_to_end(&mut tail).unwrap();
        assert!(tail.is_empty(), "silent client saw: {tail:?}");

        // And the pool still serves after both abuses.
        assert!(round_trip(addr).starts_with("HTTP/1.1 200"));
        handle.shutdown();
    }

    /// Read one keep-alive response off `conn` (head + content-length
    /// body) and return `(head, body)`.
    fn read_one_response(conn: &mut TcpStream) -> (String, String) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break end;
            }
            let n = conn.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed mid-response");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let len: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .expect("content-length header");
        let mut body = buf.split_off(head_end + 4);
        while body.len() < len {
            let n = conn.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed mid-body");
            body.extend_from_slice(&chunk[..n]);
        }
        (head, String::from_utf8_lossy(&body[..len]).into_owned())
    }

    /// Every exposition line must be a comment (`# HELP` / `# TYPE`) or
    /// `name{labels} value` with a numeric value.
    fn assert_prometheus_parses(text: &str) {
        for line in text.lines() {
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                continue;
            }
            let (name_labels, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("bad line: {line}"));
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "non-numeric value in: {line}"
            );
            let name = name_labels.split('{').next().unwrap();
            assert!(
                !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in: {line}"
            );
            if let Some(rest) = name_labels.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(
                        rest.starts_with('{') && rest.ends_with('}'),
                        "bad labels in: {line}"
                    );
                }
            }
        }
    }

    #[test]
    fn metrics_endpoint_parses_and_counts_across_keep_alive() {
        let server = StatsServer::bind("127.0.0.1:0", HashMap::new())
            .unwrap()
            .workers(1);
        let addr = server.local_addr();
        let metrics = server.metrics();
        let handle = server.spawn().unwrap();

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let request = b"GET /metrics HTTP/1.1\r\n\r\n";

        conn.write_all(request).unwrap();
        let (head1, body1) = read_one_response(&mut conn);
        assert!(head1.starts_with("HTTP/1.1 200"), "head: {head1}");
        assert!(
            head1
                .to_ascii_lowercase()
                .contains("content-type: text/plain"),
            "head: {head1}"
        );
        assert_prometheus_parses(&body1);

        // Second request on the SAME connection. The exposition is
        // rendered before its own request is observed, so the counter
        // the client sees lags by one: 0 on the first scrape, 1 on the
        // second — it must still increment across keep-alive requests.
        conn.write_all(request).unwrap();
        let (_, body2) = read_one_response(&mut conn);
        assert_prometheus_parses(&body2);
        let count_line = |body: &str| -> u64 {
            body.lines()
                .find(|l| l.starts_with("http_requests_total{endpoint=\"metrics\"}"))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        assert_eq!(count_line(&body1), 0);
        assert_eq!(count_line(&body2), 1);
        // The second observe() runs after its response is written; poll
        // briefly rather than racing the worker thread.
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.requests_total() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(metrics.requests_total(), 2);
        assert_eq!(metrics.latency(Endpoint::Metrics).count(), 2);
        // The histogram the exposition renders is the same object the
        // quantile API reads — p50 ≤ p99 ≤ recorded max.
        let h = metrics.latency(Endpoint::Metrics);
        assert!(h.quantile_nanos(0.5) <= h.quantile_nanos(0.99));
        assert!(h.quantile_nanos(0.99) <= h.max_nanos());
        handle.shutdown();
    }

    #[test]
    fn oversized_request_heads_are_rejected() {
        let server = StatsServer::bind("127.0.0.1:0", HashMap::new())
            .unwrap()
            .workers(1);
        let addr = server.local_addr();
        let handle = server.spawn().unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Never-terminating header stream well past MAX_REQUEST_BYTES.
        let filler = format!(
            "GET / HTTP/1.1\r\nx-filler: {}\r\n",
            "y".repeat(MAX_REQUEST_BYTES)
        );
        conn.write_all(filler.as_bytes()).unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400"), "reply: {reply}");
        handle.shutdown();
    }
}
