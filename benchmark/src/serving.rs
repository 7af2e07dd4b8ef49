//! The serve half of a scenario: derive a query set from the computed
//! statistics, stand `StatsServer` up in-process, and drive it in a closed
//! loop over keep-alive connections while checking what it answers.

use crate::compute::Expected;
use crate::gate::Gate;
use crate::json;
use crate::stats::{percentile, Rng};
use crate::workload::{KeySkew, Mix};
use corpus::Dictionary;
use ngrams::Gram;
use serve::{Endpoint, ServerHandle, ServerMetrics, StatsIndex, StatsServer};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Closed-loop client connections: callers of a statistics service wait for
/// each reply, and two is the core count of the host of record.
pub const CONNECTIONS: usize = 2;

/// Name the index is mounted under.
const MOUNT: &str = "bench";

/// One in this many `/prefix` and `/topk` bodies is re-derived from the
/// sorted output (every `/ngram` body is checked).
const ROWS_SAMPLE: usize = 100;

/// Leading terms of this many top grams form the `/prefix` key set.
const PREFIX_TOP_GRAMS: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Ngram = 0,
    Prefix = 1,
    Topk = 2,
}

pub const KINDS: [(Kind, &str, Endpoint); 3] = [
    (Kind::Ngram, "ngram", Endpoint::Ngram),
    (Kind::Prefix, "prefix", Endpoint::Prefix),
    (Kind::Topk, "topk", Endpoint::Topk),
];

/// What a correct server answers to one request.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// `/ngram`: the computed count, or absent.
    Count(Option<u64>),
    /// `/prefix` on this leading term: re-derived when sampled.
    PrefixOf(u32),
    Topk,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub kind: Kind,
    /// The request bytes as sent.
    pub wire: Vec<u8>,
    pub expect: Expect,
}

/// Everything the load generator draws from, derived once per set-up from
/// the computed statistics.
pub struct QuerySet {
    expected: Expected,
    dictionary: Dictionary,
    /// Record indices by descending count, ties by ascending key — the
    /// order `/topk` answers in and the hot-set skew ranks by.
    ranked: Vec<u32>,
    /// Distinct leading terms of the top grams.
    prefixes: Vec<u32>,
    mix: Mix,
}

impl QuerySet {
    pub fn derive(expected: Expected, dictionary: Dictionary, mix: Mix) -> Self {
        let records = &expected.records;
        let mut ranked: Vec<u32> = (0..records.len() as u32).collect();
        ranked.sort_unstable_by(|&a, &b| {
            let (ra, rb) = (&records[a as usize], &records[b as usize]);
            rb.1.cmp(&ra.1).then_with(|| ra.0.cmp(&rb.0))
        });
        let mut prefixes: Vec<u32> = ranked
            .iter()
            .take(PREFIX_TOP_GRAMS)
            .map(|&i| terms_of(&records[i as usize].0)[0])
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        QuerySet {
            expected,
            dictionary,
            ranked,
            prefixes,
            mix,
        }
    }

    /// The computed statistics the set was derived from.
    pub fn expected(&self) -> &Expected {
        &self.expected
    }

    /// Serialized single-term keys of the `/prefix` key set.
    pub fn prefix_keys(&self) -> Vec<Vec<u8>> {
        self.prefixes
            .iter()
            .map(|&t| mapreduce::to_bytes(&Gram::new(&[t])))
            .collect()
    }

    fn text(&self, key: &[u8]) -> String {
        self.dictionary.decode(&terms_of(key))
    }

    fn present(&self, key: &[u8]) -> bool {
        self.expected
            .records
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .is_ok()
    }

    /// Draw a served gram according to the mix's skew.
    fn draw_gram(&self, rng: &mut Rng) -> &(Vec<u8>, u64) {
        let n = self.ranked.len();
        let rank = match self.mix.skew {
            KeySkew::Uniform => rng.below(n),
            KeySkew::Hot => rng.below(n).min(rng.below(n)),
        };
        &self.expected.records[self.ranked[rank] as usize]
    }

    /// A gram over known terms that is not served: a served gram with its
    /// last term redrawn until the result is absent.
    fn draw_absent(&self, rng: &mut Rng) -> Vec<u32> {
        let mut terms = terms_of(&self.draw_gram(rng).0);
        let vocab = self.dictionary.len();
        loop {
            *terms.last_mut().expect("grams are non-empty") = rng.below(vocab) as u32;
            if !self.present(&mapreduce::to_bytes(&Gram::new(&terms))) {
                return terms;
            }
        }
    }

    /// One `/ngram` query of the mix: its text and the count a correct
    /// server answers (`None` for the mix's share of absent grams).
    pub fn draw_ngram_query(&self, rng: &mut Rng) -> (String, Option<u64>) {
        if rng.next_u64() % 100 < self.mix.absent_pct {
            (self.dictionary.decode(&self.draw_absent(rng)), None)
        } else {
            let (key, count) = self.draw_gram(rng);
            (self.text(key), Some(*count))
        }
    }

    /// The next `n` requests of the mix.
    pub fn requests(&self, rng: &mut Rng, n: usize) -> Vec<Request> {
        (0..n)
            .map(|_| {
                let roll = rng.next_u64() % 100;
                if roll < self.mix.ngram_pct {
                    let (text, count) = self.draw_ngram_query(rng);
                    ngram_request(&text, count)
                } else if roll < self.mix.ngram_pct + self.mix.prefix_pct {
                    let term = self.prefixes[rng.below(self.prefixes.len())];
                    Request {
                        kind: Kind::Prefix,
                        wire: get_bytes(&format!(
                            "/v1/{MOUNT}/prefix?q={}&limit={}",
                            self.dictionary.decode(&[term]),
                            self.mix.prefix_limit
                        )),
                        expect: Expect::PrefixOf(term),
                    }
                } else {
                    Request {
                        kind: Kind::Topk,
                        wire: get_bytes(&format!("/v1/{MOUNT}/topk?k={}", self.mix.topk_k)),
                        expect: Expect::Topk,
                    }
                }
            })
            .collect()
    }

    /// The rows a correct server returns for a `/prefix` or `/topk` request.
    fn expected_rows(&self, expect: &Expect) -> Vec<(String, u64)> {
        let records = &self.expected.records;
        match expect {
            Expect::PrefixOf(term) => {
                let prefix = mapreduce::to_bytes(&Gram::new(&[*term]));
                let start = records.partition_point(|(k, _)| k.as_slice() < prefix.as_slice());
                records[start..]
                    .iter()
                    .take_while(|(k, _)| k.starts_with(&prefix))
                    .take(self.mix.prefix_limit)
                    .map(|(k, c)| (self.text(k), *c))
                    .collect()
            }
            Expect::Topk => self
                .ranked
                .iter()
                .take(self.mix.topk_k)
                .map(|&i| {
                    let (k, c) = &records[i as usize];
                    (self.text(k), *c)
                })
                .collect(),
            Expect::Count(_) => Vec::new(),
        }
    }

    /// Check one response body against what the computed output implies.
    pub fn verify(&self, expect: &Expect, body: &[u8]) -> Result<(), String> {
        match expect {
            Expect::Count(want) => {
                let got = parse_ngram_body(body)
                    .ok_or_else(|| format!("unreadable /ngram body {}", lossy(body)))?;
                if got == *want {
                    Ok(())
                } else {
                    Err(format!("/ngram answered {got:?}, computed {want:?}"))
                }
            }
            rows => {
                let doc = std::str::from_utf8(body)
                    .map_err(|e| e.to_string())
                    .and_then(json::parse)?;
                let got: Option<Vec<(String, u64)>> = doc
                    .get("results")
                    .and_then(|r| r.as_array())
                    .and_then(|rows| {
                        rows.iter()
                            .map(|row| {
                                Some((
                                    row.get("gram")?.as_str()?.to_string(),
                                    row.get("count")?.as_u64()?,
                                ))
                            })
                            .collect()
                    });
                let want = self.expected_rows(rows);
                if got.as_ref() == Some(&want) {
                    Ok(())
                } else {
                    Err(format!(
                        "{rows:?} answered {} rows, re-derived {} differ",
                        got.map_or(0, |g| g.len()),
                        want.len()
                    ))
                }
            }
        }
    }
}

fn terms_of(key: &[u8]) -> Vec<u32> {
    mapreduce::from_bytes::<Gram>(key)
        .expect("keys were serialized by this process")
        .0
}

fn get_bytes(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

fn ngram_request(text: &str, count: Option<u64>) -> Request {
    Request {
        kind: Kind::Ngram,
        wire: get_bytes(&format!("/v1/{MOUNT}/ngram?q={}", text.replace(' ', "+"))),
        expect: Expect::Count(count),
    }
}

fn lossy(body: &[u8]) -> String {
    String::from_utf8_lossy(&body[..body.len().min(200)]).into_owned()
}

/// Read `{"q":…,"count":N,"found":B}` without a full parse (this runs once
/// per request on the client side of a two-core closed loop): `Some(N)` when
/// found, `None` when absent. Query text is lower-case words, so neither
/// marker can occur inside it.
fn parse_ngram_body(body: &[u8]) -> Option<Option<u64>> {
    let find = |needle: &[u8]| body.windows(needle.len()).rposition(|w| w == needle);
    let at = find(b"\"count\":")? + 8;
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    let count: u64 = std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()?;
    if find(b"\"found\":true").is_some() {
        Some(Some(count))
    } else if find(b"\"found\":false").is_some() && count == 0 {
        Some(None)
    } else {
        None
    }
}

/// One keep-alive connection with a reusable, buffered response reader:
/// each `read` takes whatever the socket holds, never one byte at a time.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Send one request and read its whole response; returns the status
    /// and the body's range in `self.buf`.
    fn round_trip(&mut self, wire: &[u8]) -> std::io::Result<(u16, std::ops::Range<usize>)> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        self.stream.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let mut scanned = 0usize;
        let head_end = loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed the connection"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
            let from = scanned.saturating_sub(3);
            if let Some(p) = self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + p;
            }
            scanned = self.buf.len();
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let len: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("no content-length"))?;
        let body = head_end + 4..head_end + 4 + len;
        while self.buf.len() < body.end {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok((status, body))
    }
}

/// An index mounted behind a running server.
pub struct Served {
    pub index: Arc<StatsIndex>,
    indexes: HashMap<String, Arc<StatsIndex>>,
    handle: ServerHandle,
}

impl Served {
    /// Serve `index` on an ephemeral loopback port with the default worker
    /// count — what `ngram-mr serve` runs.
    pub fn start(index: Arc<StatsIndex>) -> Result<Served, String> {
        let indexes = HashMap::from([(MOUNT.to_string(), Arc::clone(&index))]);
        let handle = StatsServer::bind("127.0.0.1:0", indexes.clone())
            .and_then(StatsServer::spawn)
            .map_err(|e| format!("cannot start server: {e}"))?;
        Ok(Served {
            index,
            indexes,
            handle,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn metrics(&self) -> Arc<ServerMetrics> {
        self.handle.metrics()
    }

    /// A counter the registry only exposes through its Prometheus text.
    pub fn prometheus_counter(&self, name: &str) -> Option<u64> {
        self.metrics()
            .render_prometheus(&self.indexes)
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
    }

    /// Stop the server and wait for its threads.
    pub fn stop(self) {
        self.handle.shutdown();
    }
}

/// Client-side observations of one batch.
pub struct Batch {
    /// First request sent to last response read, over all connections.
    pub wall: f64,
    /// Round-trip nanoseconds per request kind.
    pub latencies: [Vec<u64>; 3],
    /// All round trips of the batch, ascending.
    pub sorted: Vec<u64>,
    /// Requests that did not come back as a complete `200` response.
    pub errors: u64,
}

impl Batch {
    /// Exact `q` percentile of the batch's round trips, in microseconds.
    pub fn percentile_us(&self, q: f64) -> f64 {
        percentile(&self.sorted, q) as f64 / 1e3
    }
}

struct ClientOutcome {
    started: Instant,
    finished: Instant,
    latencies: [Vec<u64>; 3],
    failures: Vec<String>,
    /// Errors plus wrong bodies.
    failed: u64,
    errors: u64,
}

fn client(
    addr: SocketAddr,
    requests: &[Request],
    queries: &QuerySet,
    barrier: &Barrier,
) -> ClientOutcome {
    let mut conn = Conn::open(addr);
    barrier.wait();
    let started = Instant::now();
    let mut out = ClientOutcome {
        started,
        finished: started,
        latencies: Default::default(),
        failures: Vec::new(),
        failed: 0,
        errors: 0,
    };
    let fail = |out: &mut ClientOutcome, note: String| {
        out.failed += 1;
        if out.failures.len() < 5 {
            out.failures.push(note);
        }
    };
    for (i, req) in requests.iter().enumerate() {
        let conn = match &mut conn {
            Ok(conn) => conn,
            Err(e) => {
                out.errors += 1;
                fail(&mut out, format!("cannot connect: {e}"));
                continue;
            }
        };
        let sent = Instant::now();
        let answer = conn.round_trip(&req.wire);
        let nanos = sent.elapsed().as_nanos() as u64;
        out.finished = Instant::now();
        match answer {
            Ok((200, body)) => {
                out.latencies[req.kind as usize].push(nanos);
                if req.kind == Kind::Ngram || i % ROWS_SAMPLE == 0 {
                    if let Err(note) = queries.verify(&req.expect, &conn.buf[body]) {
                        fail(&mut out, note);
                    }
                }
            }
            Ok((status, body)) => {
                out.errors += 1;
                fail(
                    &mut out,
                    format!("HTTP {status}: {}", lossy(&conn.buf[body])),
                );
            }
            Err(e) => {
                out.errors += 1;
                fail(&mut out, format!("request failed: {e}"));
                // The connection's framing is gone; reconnect for the rest.
                *conn = match Conn::open(addr) {
                    Ok(c) => c,
                    Err(_) => continue,
                };
            }
        }
    }
    out
}

/// Run one batch: `CONNECTIONS` clients start together, each sending its
/// share of `batch_requests` back to back. Every request is counted in
/// `gate`; non-200s, I/O errors and wrong bodies fail it.
pub fn run_batch(
    served: &Served,
    queries: &QuerySet,
    rng: &mut Rng,
    batch_requests: usize,
    gate: &mut Gate,
) -> Batch {
    let per_client = (batch_requests / CONNECTIONS).max(1);
    let plans: Vec<Vec<Request>> = (0..CONNECTIONS)
        .map(|_| queries.requests(rng, per_client))
        .collect();
    let barrier = Barrier::new(CONNECTIONS);
    let addr = served.addr();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let barrier = &barrier;
                scope.spawn(move || client(addr, plan, queries, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let started = outcomes
        .iter()
        .map(|o| o.started)
        .min()
        .expect("clients ran");
    let finished = outcomes
        .iter()
        .map(|o| o.finished)
        .max()
        .expect("clients ran");
    let mut batch = Batch {
        wall: finished.duration_since(started).as_secs_f64(),
        latencies: Default::default(),
        sorted: Vec::new(),
        errors: outcomes.iter().map(|o| o.errors).sum(),
    };
    for o in outcomes {
        gate.absorb(per_client as u64, o.failed, o.failures);
        for (all, mine) in batch.latencies.iter_mut().zip(o.latencies) {
            all.extend(mine);
        }
    }
    batch.sorted = batch.latencies.iter().flatten().copied().collect();
    batch.sorted.sort_unstable();
    batch
}

/// Median `/ngram` round trip on one connection and median direct
/// `StatsIndex::lookup` over the same `n` keys, in microseconds. Each key is
/// touched once first, so both sides answer from the cache whatever the mix:
/// the difference is what accept, parse, serialize, write and loopback cost.
pub fn http_vs_direct(
    served: &Served,
    queries: &QuerySet,
    rng: &mut Rng,
    n: usize,
    gate: &mut Gate,
) -> Option<(f64, f64)> {
    let mut conn = Conn::open(served.addr()).ok()?;
    let (mut direct, mut http) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let (text, want) = queries.draw_ngram_query(rng);
        let _ = served.index.lookup(&text);
        let start = Instant::now();
        let got = served.index.lookup(&text);
        direct.push(start.elapsed().as_nanos() as u64);
        gate.check(matches!(&got, Ok(c) if *c == want), || {
            format!("direct lookup of {text:?} answered {got:?}, computed {want:?}")
        });
        let req = ngram_request(&text, want);
        let start = Instant::now();
        let answer = conn.round_trip(&req.wire);
        http.push(start.elapsed().as_nanos() as u64);
        let verdict = match answer {
            Ok((200, body)) => queries.verify(&req.expect, &conn.buf[body]),
            Ok((status, _)) => Err(format!("HTTP {status}")),
            Err(e) => Err(format!("request failed: {e}")),
        };
        gate.check(verdict.is_ok(), || verdict.unwrap_err());
    }
    direct.sort_unstable();
    http.sort_unstable();
    Some((
        percentile(&http, 0.5) as f64 / 1e3,
        percentile(&direct, 0.5) as f64 / 1e3,
    ))
}

/// Touch every served gram once through the index (the `hot` and `scan`
/// mixes serve from a warm cache) and check each count on the way.
pub fn prewarm(index: &StatsIndex, expected: &Expected, gate: &mut Gate) {
    let mut wrong = 0u64;
    for (key, count) in &expected.records {
        if !matches!(index.lookup_gram(&terms_of(key)), Ok(Some(c)) if c == *count) {
            wrong += 1;
        }
    }
    gate.check(wrong == 0, || {
        format!("{wrong} served counts differ from the computed output")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Digest;
    use crate::workload::WORKLOADS;

    fn expected() -> (Expected, Dictionary) {
        // Terms ranked by frequency: id 0 most frequent.
        let dictionary = Dictionary::from_counts(
            [("ba", 90), ("be", 50), ("bi", 30), ("bo", 20), ("bu", 10)]
                .map(|(t, c)| (t.to_string(), c)),
        );
        let mut records: Vec<(Vec<u8>, u64)> = [
            (vec![0], 90),
            (vec![0, 1], 40),
            (vec![0, 1, 2], 12),
            (vec![0, 2], 12),
            (vec![1], 50),
            (vec![1, 0], 9),
            (vec![2], 30),
            (vec![3, 4], 7),
        ]
        .into_iter()
        .map(|(t, c)| (mapreduce::to_bytes(&Gram(t)), c))
        .collect();
        records.sort_unstable();
        (
            Expected {
                digest: Digest::default(),
                records,
            },
            dictionary,
        )
    }

    #[test]
    fn query_sequence_repeats_for_a_seed_and_differs_across_seeds() {
        let (expected, dictionary) = expected();
        for w in &WORKLOADS {
            let qs = QuerySet::derive(expected.clone(), dictionary.clone(), w.mix);
            let draw = |seed| qs.requests(&mut Rng::new(seed), 300);
            assert_eq!(draw(11), draw(11));
            assert_ne!(draw(11), draw(12));
            let reqs = draw(11);
            let share = |k| reqs.iter().filter(|r| r.kind == k).count() as u64 * 100 / 300;
            assert!(share(Kind::Ngram).abs_diff(w.mix.ngram_pct) <= 10);
            assert!(share(Kind::Prefix).abs_diff(w.mix.prefix_pct) <= 10);
            let absent = reqs
                .iter()
                .filter(|r| r.expect == Expect::Count(None))
                .count();
            assert_eq!(absent > 0, w.mix.absent_pct > 0);
        }
    }

    #[test]
    fn absent_grams_are_really_absent_and_present_ones_carry_their_count() {
        let (expected, dictionary) = expected();
        let qs = QuerySet::derive(expected, dictionary, WORKLOADS[1].mix);
        let mut rng = Rng::new(3);
        for _ in 0..200 {
            let terms = qs.draw_absent(&mut rng);
            assert!(!qs.present(&mapreduce::to_bytes(&Gram(terms))));
        }
        let (key, count) = qs.draw_gram(&mut rng);
        assert!(qs.present(key));
        assert!(*count >= 7);
    }

    #[test]
    fn verification_accepts_right_bodies_and_rejects_corrupted_ones() {
        let (expected, dictionary) = expected();
        let mut mix = WORKLOADS[0].mix;
        mix.prefix_limit = 3;
        mix.topk_k = 2;
        let qs = QuerySet::derive(expected, dictionary, mix);

        let count = Expect::Count(Some(40));
        assert!(qs
            .verify(&count, br#"{"q":"ba be","count":40,"found":true}"#)
            .is_ok());
        assert!(qs
            .verify(&count, br#"{"q":"ba be","count":41,"found":true}"#)
            .is_err());
        assert!(qs
            .verify(&count, br#"{"q":"ba be","count":0,"found":false}"#)
            .is_err());
        let absent = Expect::Count(None);
        assert!(qs
            .verify(&absent, br#"{"q":"bu bu","count":0,"found":false}"#)
            .is_ok());
        assert!(qs
            .verify(&absent, br#"{"q":"bu bu","count":3,"found":true}"#)
            .is_err());
        assert!(qs.verify(&absent, b"garbage").is_err());

        let prefix = Expect::PrefixOf(0);
        let good = br#"{"q":"ba","limit":3,"returned":3,"results":[{"gram":"ba","count":90},{"gram":"ba be","count":40},{"gram":"ba be bi","count":12}]}"#;
        assert!(qs.verify(&prefix, good).is_ok());
        let wrong_count = br#"{"q":"ba","limit":3,"returned":3,"results":[{"gram":"ba","count":90},{"gram":"ba be","count":39},{"gram":"ba be bi","count":12}]}"#;
        assert!(qs.verify(&prefix, wrong_count).is_err());
        let short = br#"{"q":"ba","limit":3,"returned":1,"results":[{"gram":"ba","count":90}]}"#;
        assert!(qs.verify(&prefix, short).is_err());

        // Ties (12, 12) break by ascending key, as the index does.
        let topk = br#"{"k":2,"returned":2,"results":[{"gram":"ba","count":90},{"gram":"be","count":50}]}"#;
        assert!(qs.verify(&Expect::Topk, topk).is_ok());
        let swapped = br#"{"k":2,"returned":2,"results":[{"gram":"be","count":50},{"gram":"ba","count":90}]}"#;
        assert!(qs.verify(&Expect::Topk, swapped).is_err());
    }

    #[test]
    fn prefix_keys_are_leading_terms_of_top_grams() {
        let (expected, dictionary) = expected();
        let qs = QuerySet::derive(expected, dictionary, WORKLOADS[2].mix);
        assert_eq!(qs.prefixes, vec![0, 1, 2, 3]);
        assert_eq!(qs.ranked[0], 0);
        assert_eq!(qs.prefix_keys()[3], vec![3u8]);
    }
}
