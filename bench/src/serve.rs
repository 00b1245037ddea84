//! Drives `mixen-serve` the way its users do — `Server::start` and plain
//! sockets — with a closed-loop load generator that checks every body.
//!
//! Closed loop: `clients` threads, one connection in flight each; a client
//! sends its next request only when the previous response has landed, so a
//! slower server receives less load. Mix: every third request is
//! `GET /rank/top?k=10`, the rest `GET /score?node=`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mixen_algos::{pagerank, top_k, PageRankOpts};
use mixen_core::{Json, MixenEngine};
use mixen_graph::Graph;
use mixen_serve::{ServeOpts, Server, ServerHandle};

use crate::spans::Tracer;
use crate::stats::percentile;

/// `k` of the top-k requests in the mix.
pub const MIX_TOP_K: usize = 10;
/// Share of the measured window's length that the clients first spend on
/// requests that are discarded (150 per client ahead of a 3.75 s window).
const WARMUP_SHARE: f64 = 0.1;

/// The server configuration of the two serve modes. `refresh` keeps the
/// ranker from ever converging, so it publishes a snapshot every
/// `refresh_iters` iterations for as long as the server lives.
pub fn serve_opts(refresh: bool) -> ServeOpts {
    if refresh {
        ServeOpts {
            tol: -1.0,
            max_iters: usize::MAX / 2,
            ..ServeOpts::default()
        }
    } else {
        ServeOpts::default()
    }
}

pub fn start(graph: &Arc<Graph>, refresh: bool) -> Result<ServerHandle, String> {
    Server::start(Arc::clone(graph), serve_opts(refresh)).map_err(|e| format!("Server::start: {e}"))
}

/// One response with the instants the client saw.
pub struct Reply {
    pub status: u16,
    pub body: String,
    pub bytes: usize,
    pub sent: Instant,
    pub connected: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

impl Reply {
    /// Connect-to-last-byte latency in ms.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e3
    }
}

/// One `GET` on a fresh connection (the server speaks one request per
/// connection).
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Reply> {
    let sent = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: mixen\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::with_capacity(1024);
    let mut first = [0u8; 1];
    stream.read_exact(&mut first)?;
    let first_byte = Instant::now();
    raw.push(first[0]);
    stream.read_to_end(&mut raw)?;
    let done = Instant::now();
    let text = String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply {
        status,
        body,
        bytes: text.len(),
        sent,
        connected,
        first_byte,
        done,
    })
}

fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    let reply = get(addr, path).map_err(|e| format!("GET {path}: {e}"))?;
    if reply.status != 200 {
        return Err(format!("GET {path}: status {}", reply.status));
    }
    Json::parse(&reply.body).map_err(|e| format!("GET {path}: {e}"))
}

/// Polls `/healthz` until the ranker reports convergence (or sits at its
/// iteration cap); returns the iterations folded into the live snapshot.
pub fn wait_converged(addr: SocketAddr) -> Result<usize, String> {
    let cap = ServeOpts::default().max_iters as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let health = get_json(addr, "/healthz")?;
        let iters = health.get("iterations").and_then(Json::as_u64).unwrap_or(0);
        if matches!(health.get("converged"), Some(Json::Bool(true))) || iters >= cap {
            return usize::try_from(iters).map_err(|e| e.to_string());
        }
        if Instant::now() > deadline {
            return Err("snapshot did not converge within 60 s".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The server's request and snapshot counters, from `GET /metrics`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub requests_served: u64,
    pub requests_rejected: u64,
    pub request_batches: u64,
    pub max_batch_size: u64,
    pub snapshot_swaps: u64,
}

pub fn counters(addr: SocketAddr) -> Result<Counters, String> {
    let metrics = get_json(addr, "/metrics")?;
    let counters = metrics.get("counters").ok_or("/metrics has no counters")?;
    let read = |name: &str| {
        counters
            .get(name)
            .and_then(Json::as_u64)
            .ok_or(format!("/metrics lacks {name}"))
    };
    Ok(Counters {
        requests_served: read("requests_served")?,
        requests_rejected: read("requests_rejected")?,
        request_batches: read("request_batches")?,
        max_batch_size: read("max_batch_size")?,
        snapshot_swaps: read("snapshot_swaps")?,
    })
}

/// What a correct response holds.
pub struct Expect {
    scores: Vec<f32>,
    top: Vec<usize>,
    /// Converged snapshot: bodies must carry exactly these values. While the
    /// ranker keeps refreshing, values may differ within the cross-engine
    /// tolerance and the order of near-ties may change.
    exact: bool,
    tol: f32,
}

impl Expect {
    /// Answers of a snapshot that folded `iters` iterations: the batch
    /// PageRank value after as many (`PageRankStream` follows the batch
    /// trajectory bit for bit).
    pub fn converged(g: &Graph, engine: &MixenEngine, iters: usize) -> Self {
        let damping = ServeOpts::default().damping;
        let opts = PageRankOpts {
            damping,
            ..PageRankOpts::default()
        };
        Self::new(pagerank(g, engine, opts, iters), true)
    }

    /// Answers near `scores` (a converged run) while snapshots keep moving.
    pub fn near(scores: Vec<f32>) -> Self {
        Self::new(scores, false)
    }

    fn new(scores: Vec<f32>, exact: bool) -> Self {
        let max = scores.iter().fold(0.0f32, |m, s| m.max(s.abs()));
        Self {
            top: top_k(&scores, MIX_TOP_K),
            tol: crate::verify::TOLERANCE * (1.0 + max),
            scores,
            exact,
        }
    }

    fn score_ok(&self, node: usize, got: f64) -> bool {
        let Some(&want) = self.scores.get(node) else {
            return false;
        };
        // The server widens its f32 to f64 and prints it round-trip exact.
        let got = got as f32;
        if self.exact {
            got == want
        } else {
            (got - want).abs() <= self.tol
        }
    }

    fn node_score(&self, entry: &Json) -> Option<(usize, f64)> {
        let node = usize::try_from(entry.get("node")?.as_u64()?).ok()?;
        let score = entry.get("score")?.as_f64()?;
        self.score_ok(node, score).then_some((node, score))
    }

    /// Checks a `/score?node=` body.
    fn check_score(&self, body: &str, node: usize) -> bool {
        Json::parse(body)
            .ok()
            .and_then(|j| self.node_score(&j))
            .is_some_and(|(got, _)| got == node)
    }

    /// Checks a `/rank/top?k=` body: `k` nodes, scores descending, each the
    /// snapshot's value, and — on a converged snapshot — exactly the top-k.
    fn check_top(&self, body: &str) -> bool {
        let Ok(j) = Json::parse(body) else {
            return false;
        };
        let Some(Json::Arr(nodes)) = j.get("nodes") else {
            return false;
        };
        let Some(ranked) = nodes
            .iter()
            .map(|e| self.node_score(e))
            .collect::<Option<Vec<_>>>()
        else {
            return false;
        };
        j.get("k").and_then(Json::as_u64) == Some(MIX_TOP_K as u64)
            && ranked.len() == MIX_TOP_K
            && ranked.windows(2).all(|w| w[0].1 >= w[1].1)
            && (!self.exact || ranked.iter().map(|r| r.0).eq(self.top.iter().copied()))
    }
}

/// Latencies (ms) and tallies of one load window.
#[derive(Default)]
pub struct Load {
    pub wall_s: f64,
    pub ok: u64,
    pub failed: u64,
    pub all_ms: Vec<f64>,
    /// When each request of `all_ms` completed, seconds into the window.
    pub done_s: Vec<f64>,
    pub top_ms: Vec<f64>,
    pub score_ms: Vec<f64>,
    pub connect_ms: Vec<f64>,
    pub ttfb_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub response_bytes: Vec<f64>,
    /// Snapshot versions published during the window.
    pub versions: u64,
}

/// Equal spans a load window is cut into, so that its rate and median
/// latency come with a spread of their own.
const SLICES: usize = 10;

impl Load {
    /// Verified responses per second and median latency (ms) of each of the
    /// window's [`SLICES`] spans, by completion time. A stall of the host
    /// lowers a few spans, not the medians over them; a span in which nothing
    /// completed has a rate of zero and no latency.
    pub fn slices(&self) -> (Vec<f64>, Vec<f64>) {
        let span_s = self.wall_s / SLICES as f64;
        let mut spans = vec![Vec::new(); SLICES];
        for (&done, &ms) in self.done_s.iter().zip(&self.all_ms) {
            // Truncation picks the span; the last request ends the window.
            spans[((done / span_s) as usize).min(SLICES - 1)].push(ms);
        }
        let qps = spans.iter().map(|s| s.len() as f64 / span_s).collect();
        let p50 = spans
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| percentile(s, 50.0))
            .collect();
        (qps, p50)
    }

    fn merge(&mut self, other: Load) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.all_ms.extend(other.all_ms);
        self.done_s.extend(other.done_s);
        self.top_ms.extend(other.top_ms);
        self.score_ms.extend(other.score_ms);
        self.connect_ms.extend(other.connect_ms);
        self.ttfb_ms.extend(other.ttfb_ms);
        self.read_ms.extend(other.read_ms);
        self.response_bytes.extend(other.response_bytes);
    }
}

/// One client's closed loop from `started` until `deadline`.
fn client_loop(
    addr: SocketAddr,
    client: usize,
    n: usize,
    expect: &Expect,
    started: Instant,
    deadline: Instant,
    mut trace: Option<&mut Tracer>,
) -> Load {
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    let mut load = Load::default();
    for i in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let node = (client * 7_919 + i * 104_729) % n;
        let top = i % 3 == 0;
        let path = if top {
            format!("/rank/top?k={MIX_TOP_K}")
        } else {
            format!("/score?node={node}")
        };
        let reply = match get(addr, &path) {
            Ok(reply) if reply.status == 200 => reply,
            _ => {
                load.failed += 1;
                continue;
            }
        };
        let correct = if top {
            expect.check_top(&reply.body)
        } else {
            expect.check_score(&reply.body, node)
        };
        if !correct {
            load.failed += 1;
            continue;
        }
        load.ok += 1;
        let latency = reply.latency_ms();
        load.all_ms.push(latency);
        load.done_s.push(ms(started, reply.done) / 1e3);
        if top {
            &mut load.top_ms
        } else {
            &mut load.score_ms
        }
        .push(latency);
        load.connect_ms.push(ms(reply.sent, reply.connected));
        load.ttfb_ms.push(ms(reply.connected, reply.first_byte));
        load.read_ms.push(ms(reply.first_byte, reply.done));
        load.response_bytes.push(reply.bytes as f64);
        if let Some(tr) = trace.as_deref_mut() {
            let name = if top {
                "serve.request.top"
            } else {
                "serve.request.score"
            };
            let req = tr.record(name, reply.sent, reply.done);
            tr.record_under(req, "serve.connect", reply.sent, reply.connected);
            tr.record_under(req, "serve.ttfb", reply.connected, reply.first_byte);
            tr.record_under(req, "serve.read", reply.first_byte, reply.done);
        }
    }
    load
}

/// Warm-up, then `clients` closed loops for `seconds`. With a tracer, every
/// request leaves a span with its connect / first-byte / read children.
pub fn run_load(
    server: &ServerHandle,
    n: usize,
    clients: usize,
    seconds: f64,
    expect: &Expect,
    mut trace: Option<&mut Tracer>,
) -> Load {
    let addr = server.addr();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds * WARMUP_SHARE);
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || client_loop(addr, c, n, expect, started, deadline, None));
        }
    });

    let root = trace.as_deref_mut().map(|tr| tr.enter("serve.load"));
    let epoch = trace.as_deref().map(Tracer::epoch);
    let version0 = server.snapshot_version();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let parts: Vec<(Load, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut tr = epoch.map(|e| Tracer::with_epoch("", e));
                    let load = client_loop(addr, c, n, expect, started, deadline, tr.as_mut());
                    (load, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut load = Load {
        wall_s: started.elapsed().as_secs_f64(),
        versions: server.snapshot_version() - version0,
        ..Load::default()
    };
    for (part, tr) in parts {
        load.merge(part);
        if let (Some(mine), Some(theirs)) = (trace.as_deref_mut(), tr) {
            // `serve.load` is still the innermost open span.
            mine.graft(theirs.into_spans(), 0.0);
        }
    }
    if let (Some(tr), Some(root)) = (trace, root) {
        tr.exit(root);
    }
    load
}

/// The first ranks a fresh server hands out: `GET /rank/top?k=100`, checked
/// for shape (the snapshot is real but not yet converged).
pub fn first_ranks(addr: SocketAddr) -> Result<(), String> {
    let body = get_json(addr, &format!("/rank/top?k={}", crate::algo::TOP))?;
    let Some(Json::Arr(nodes)) = body.get("nodes") else {
        return Err("/rank/top: no nodes".into());
    };
    let scores: Option<Vec<f64>> = nodes
        .iter()
        .map(|e| e.get("score").and_then(Json::as_f64))
        .collect();
    match scores {
        Some(s) if !s.is_empty() && s.windows(2).all(|w| w[0] >= w[1]) => Ok(()),
        _ => Err("/rank/top: scores missing or not descending".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_split_the_window_by_completion_time() {
        // A 10 s window, so a span is 1 s: three requests in the first span,
        // none in the next eight, one whose completion ends the window.
        let load = Load {
            wall_s: 10.0,
            done_s: vec![0.1, 0.5, 0.9, 10.0],
            all_ms: vec![3.0, 1.0, 2.0, 7.0],
            ..Load::default()
        };
        let (qps, p50_ms) = load.slices();
        assert_eq!(qps.len(), SLICES);
        assert_eq!((qps[0], qps[1], qps[9]), (3.0, 0.0, 1.0));
        assert_eq!(p50_ms, [2.0, 7.0]);
    }
}
