//! The server proper: accept loop, admission, batched request workers, and
//! graceful drain.
//!
//! Thread layout (for `workers = W`):
//!
//! * **1 ranking thread** — owns the resident engine, publishes
//!   [`RankSnapshot`]s through the [`SnapCell`] (see [`crate::snapshot`]).
//! * **1 accept thread** — non-blocking accept; admits connections into the
//!   bounded queue or answers 429 on the spot.
//! * **1 supervisor thread** hosting a dedicated `mixen_pool::ThreadPool`
//!   of W request workers. Each worker drains *batches* from the admission
//!   queue and serves a whole batch against a single snapshot load.
//!
//! Shutdown (signal, `/admin/shutdown`, or [`ServerHandle::shutdown`]):
//! the accept loop stops admitting and closes the queue; workers serve the
//! already-admitted backlog and exit; the ranking thread exits at its next
//! batch boundary; [`ServerHandle::join`] then returns. In-flight requests
//! are always answered.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mixen_algos::top_k;
use mixen_core::{Json, Metrics, SnapCell};
use mixen_graph::{Graph, GraphError};

use crate::admission::Admission;
use crate::http::{error_json, respond_json, HttpError, Request};
use crate::signal;
use crate::snapshot::{ranking_loop, RankSnapshot};

/// Server configuration. `Default` is sized for functional tests and small
/// graphs; the CLI maps its flags onto these fields.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Request worker count (≥ 1).
    pub workers: usize,
    /// Admission bound: pending requests beyond this are answered 429.
    pub queue_cap: usize,
    /// Max requests a worker serves per snapshot load.
    pub batch_cap: usize,
    /// Default per-request deadline in ms (0 = none); `?deadline_ms=` on a
    /// request overrides it.
    pub default_deadline_ms: u64,
    /// Engine iterations folded into each published snapshot.
    pub refresh_iters: usize,
    /// Total iteration cap for the resident ranking.
    pub max_iters: usize,
    /// Convergence tolerance on the max-norm score change of each refresh
    /// batch's last iteration.
    pub tol: f64,
    /// PageRank damping factor.
    pub damping: f32,
    /// Whether SIGINT/SIGTERM (via [`crate::signal`]) trigger the drain.
    /// Off by default so in-process tests are isolated; the CLI turns it
    /// on.
    pub honor_signals: bool,
    /// Options for the resident [`mixen_core::MixenEngine`] — the CLI's
    /// `--reorder` flag lands here (as a resolved `ordering`), so the
    /// serving engine preprocesses with the requested relabel policy.
    pub mixen: mixen_core::MixenOpts,
}

impl Default for ServeOpts {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 128,
            batch_cap: 16,
            default_deadline_ms: 2_000,
            refresh_iters: 4,
            max_iters: 200,
            tol: 1e-7,
            damping: 0.85,
            honor_signals: false,
            mixen: mixen_core::MixenOpts::default(),
        }
    }
}

/// An admitted connection waiting for a worker.
pub(crate) struct Job {
    stream: TcpStream,
    enqueued: Instant,
}

/// State shared by every server thread.
pub(crate) struct Shared {
    pub(crate) opts: ServeOpts,
    pub(crate) graph: Arc<Graph>,
    pub(crate) cell: SnapCell<RankSnapshot>,
    pub(crate) metrics: Metrics,
    pub(crate) admission: Admission<Job>,
    shutdown: AtomicBool,
    started: Instant,
}

impl Shared {
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || (self.opts.honor_signals && signal::requested())
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

/// Constructor namespace: [`Server::start`] builds the thread set and hands
/// back a [`ServerHandle`].
pub struct Server;

/// A running server: its bound address plus the drain/join controls.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, computes and publishes the first rank snapshot, then starts
    /// the accept loop and request workers. Returns once the server is
    /// fully ready: a request issued after `start` returns is never told
    /// "warming up".
    pub fn start(graph: Arc<Graph>, opts: ServeOpts) -> Result<ServerHandle, GraphError> {
        let listener = TcpListener::bind(&opts.addr).map_err(GraphError::Io)?;
        let addr = listener.local_addr().map_err(GraphError::Io)?;
        listener.set_nonblocking(true).map_err(GraphError::Io)?;

        let queue_cap = opts.queue_cap.max(1);
        let shared = Arc::new(Shared {
            cell: SnapCell::new(Arc::new(RankSnapshot::empty(graph.n()))),
            metrics: Metrics::default(),
            admission: Admission::new(queue_cap),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            graph: Arc::clone(&graph),
            opts,
        });

        let ranker = {
            let shared = Arc::clone(&shared);
            let graph = Arc::clone(&graph);
            std::thread::Builder::new()
                .name("mixen-serve-rank".into())
                .spawn(move || ranking_loop(&shared, &graph, &shared.cell))
                .map_err(GraphError::Io)?
        };
        // Block until the first snapshot is live so no request ever reads
        // the zeroed placeholder.
        let wait_started = Instant::now();
        while shared.cell.version() == 0 {
            if ranker.is_finished() {
                return Err(GraphError::Invariant(
                    "ranking thread exited before publishing the first snapshot".into(),
                ));
            }
            if wait_started.elapsed() > Duration::from_secs(300) {
                return Err(GraphError::Invariant(
                    "first rank snapshot not ready within 300s".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mixen-serve-accept".into())
                .spawn(move || accept_loop(&shared, listener))
                .map_err(GraphError::Io)?
        };
        let workers = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mixen-serve-workers".into())
                .spawn(move || {
                    // A dedicated pool: request workers block on the
                    // admission condvar and on sockets, which must never
                    // starve the global compute pool the engine uses.
                    let pool = mixen_pool::ThreadPool::new(shared.opts.workers.max(1));
                    pool.scope(|s| {
                        for _ in 0..shared.opts.workers.max(1) {
                            let shared = Arc::clone(&shared);
                            s.spawn(move || worker_loop(&shared));
                        }
                    });
                })
                .map_err(GraphError::Io)?
        };

        Ok(ServerHandle {
            addr,
            shared,
            threads: vec![ranker, acceptor, workers],
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain; returns immediately. Pair with
    /// [`ServerHandle::join`].
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Waits until every thread has drained and exited.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Requests a drain and waits for it to finish.
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }

    /// Waits for the drain, then reports `(requests_served,
    /// requests_rejected)` — the final tallies, since every thread has
    /// exited by the time they are read.
    pub fn join_and_report(self) -> (u64, u64) {
        let ServerHandle {
            shared, threads, ..
        } = self;
        for t in threads {
            let _ = t.join();
        }
        (
            shared.metrics.requests_served.get(),
            shared.metrics.requests_rejected.get(),
        )
    }

    /// Total requests answered by workers so far (any status).
    pub fn requests_served(&self) -> u64 {
        self.shared.metrics.requests_served.get()
    }

    /// Total connections rejected by admission control (429s).
    pub fn requests_rejected(&self) -> u64 {
        self.shared.metrics.requests_rejected.get()
    }

    /// Version of the currently published snapshot.
    pub fn snapshot_version(&self) -> u64 {
        self.shared.cell.version()
    }
}

/// Non-blocking accept with admission control. On shutdown: stop accepting
/// and close the queue — the drain signal for the workers.
fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        if shared.shutdown_requested() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let job = Job {
                    stream,
                    enqueued: Instant::now(),
                };
                if let Err(job) = shared.admission.try_push(job) {
                    shared.metrics.requests_rejected.inc();
                    // Shed on a detached responder so a slow rejected peer
                    // can never stall the accept loop. The responder is
                    // short-lived: bounded drain + one write, sub-second
                    // timeouts.
                    let _ = std::thread::Builder::new()
                        .name("mixen-serve-reject".into())
                        .spawn(move || reject_connection(job.stream));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    shared.admission.close();
}

/// Answers 429 on a connection that failed admission. The in-flight
/// request is drained (bounded) first: responding and closing with unread
/// bytes in the receive buffer would RST the connection and the client
/// would see a reset instead of the 429.
fn reject_connection(mut stream: TcpStream) {
    use std::io::Read;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 4096];
    let mut total = 0usize;
    while total < crate::http::MAX_HEAD_BYTES + crate::http::MAX_BODY_BYTES {
        match stream.read(&mut buf) {
            // EOF, timeout, or reset: the peer is done sending (or gone).
            Ok(0) | Err(_) => break,
            Ok(n) => total += n,
        }
    }
    let _ = respond_json(
        &mut stream,
        429,
        &error_json(429, "pending queue full, retry later"),
    );
}

/// One request worker: drain a batch, load one snapshot, answer the batch.
fn worker_loop(shared: &Shared) {
    loop {
        let batch = shared.admission.pop_batch(shared.opts.batch_cap.max(1));
        if batch.is_empty() {
            return; // closed and drained
        }
        shared.metrics.request_batches.inc();
        shared.metrics.max_batch_size.max(batch.len() as u64);
        // One snapshot load serves the whole batch: every response in it is
        // consistent (same version), and the cell is touched once however
        // deep the backlog got.
        let (version, snap) = shared.cell.load();
        for job in batch {
            handle_job(shared, job, version, &snap);
        }
    }
}

/// Parses, enforces the deadline, routes, responds. Any answered request —
/// success or error status — counts as served; only admission rejections
/// count as rejected.
fn handle_job(shared: &Shared, mut job: Job, version: u64, snap: &RankSnapshot) {
    let _ = job.stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = job.stream.set_write_timeout(Some(Duration::from_secs(5)));
    let req = match Request::read_from(&mut job.stream) {
        Ok(req) => req,
        Err(HttpError::Bad(msg)) => {
            let _ = respond_json(&mut job.stream, 400, &error_json(400, msg));
            shared.metrics.requests_served.inc();
            return;
        }
        Err(HttpError::TooLarge(msg)) => {
            let _ = respond_json(&mut job.stream, 413, &error_json(413, msg));
            shared.metrics.requests_served.inc();
            return;
        }
        Err(HttpError::Io(_)) => return, // peer went away; nothing to answer
    };

    let (status, body) = match request_deadline(shared, &req, job.enqueued) {
        Err(response) => response,
        Ok(()) => route(shared, &req, version, snap),
    };
    let _ = respond_json(&mut job.stream, status, &body);
    shared.metrics.requests_served.inc();
}

/// Applies the per-request deadline: queueing time already spent counts
/// against the budget, so a request that aged out in the admission queue is
/// answered 504 without paying for routing. The 504 body reuses the typed
/// [`GraphError::Deadline`] rendering the batch runner emits.
fn request_deadline(shared: &Shared, req: &Request, enqueued: Instant) -> Result<(), (u16, Json)> {
    let budget_ms = match req.query_parse::<u64>("deadline_ms") {
        Ok(v) => v.unwrap_or(shared.opts.default_deadline_ms),
        Err(msg) => return Err((400, error_json(400, msg))),
    };
    if budget_ms == 0 && req.query("deadline_ms").is_none() {
        return Ok(()); // no default configured, none requested
    }
    let elapsed_ms = u64::try_from(enqueued.elapsed().as_millis()).unwrap_or(u64::MAX);
    if elapsed_ms >= budget_ms {
        let err = GraphError::Deadline {
            elapsed_ms,
            budget_ms,
        };
        return Err((504, error_json(504, err.to_string())));
    }
    Ok(())
}

/// Dispatch table: every endpoint answers from the *given* snapshot (and
/// the static graph) — no locks, no engine calls on the request path.
fn route(shared: &Shared, req: &Request, version: u64, snap: &RankSnapshot) -> (u16, Json) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(shared, version, snap),
        ("GET", "/rank/top") => rank_top(req, version, snap),
        ("GET", "/score") => score(shared, req, version, snap),
        ("GET", "/neighbors") => neighbors(shared, req),
        ("POST", "/scores") => scores_batch(shared, req, version, snap),
        ("GET", "/metrics") => metrics(shared, version, snap),
        ("POST", "/admin/shutdown") => {
            shared.request_shutdown();
            (200, Json::Obj(vec![("draining".into(), Json::Bool(true))]))
        }
        (_, "/healthz" | "/rank/top" | "/score" | "/neighbors" | "/metrics") => (
            405,
            error_json(405, format!("{} not allowed on {}", req.method, req.path)),
        ),
        (_, "/scores" | "/admin/shutdown") => (
            405,
            error_json(405, format!("{} not allowed on {}", req.method, req.path)),
        ),
        _ => (404, error_json(404, format!("no route for {}", req.path))),
    }
}

fn healthz(shared: &Shared, version: u64, snap: &RankSnapshot) -> (u16, Json) {
    let mut obj = vec![
        ("ok".into(), Json::Bool(true)),
        ("nodes".into(), Json::from_u64(shared.graph.n() as u64)),
        ("edges".into(), Json::from_u64(shared.graph.m() as u64)),
    ];
    obj.extend(snap.meta_json(version));
    (200, Json::Obj(obj))
}

fn rank_top(req: &Request, version: u64, snap: &RankSnapshot) -> (u16, Json) {
    let k = match req.query_parse::<usize>("k") {
        Ok(v) => v.unwrap_or(10),
        Err(msg) => return (400, error_json(400, msg)),
    };
    let k = k.min(snap.scores.len());
    let ranked = top_k(&snap.scores, k);
    let nodes: Vec<Json> = ranked
        .into_iter()
        .map(|node| node_score_json(node, snap.scores[node]))
        .collect();
    let mut obj = snap.meta_json(version);
    obj.push(("k".into(), Json::from_u64(k as u64)));
    obj.push(("nodes".into(), Json::Arr(nodes)));
    (200, Json::Obj(obj))
}

fn score(shared: &Shared, req: &Request, version: u64, snap: &RankSnapshot) -> (u16, Json) {
    let node = match required_node(shared, req) {
        Ok(node) => node,
        Err(response) => return response,
    };
    let mut obj = snap.meta_json(version);
    obj.push(("node".into(), Json::from_u64(node as u64)));
    obj.push(("score".into(), Json::from_f64(f64::from(snap.scores[node]))));
    (200, Json::Obj(obj))
}

fn neighbors(shared: &Shared, req: &Request) -> (u16, Json) {
    let node = match required_node(shared, req) {
        Ok(node) => node,
        Err(response) => return response,
    };
    let limit = match req.query_parse::<usize>("limit") {
        Ok(v) => v.unwrap_or(64),
        Err(msg) => return (400, error_json(400, msg)),
    };
    let g = &shared.graph;
    let out = g.out_neighbors(mixen_graph::nid(node));
    let listed: Vec<Json> = out
        .iter()
        .take(limit)
        .map(|&v| Json::from_u64(u64::from(v)))
        .collect();
    (
        200,
        Json::Obj(vec![
            ("node".into(), Json::from_u64(node as u64)),
            (
                "out_degree".into(),
                Json::from_u64(g.out_degree(mixen_graph::nid(node)) as u64),
            ),
            (
                "in_degree".into(),
                Json::from_u64(g.in_degree(mixen_graph::nid(node)) as u64),
            ),
            ("out".into(), Json::Arr(listed)),
        ]),
    )
}

/// `POST /scores` with body `{"nodes": [id, ...]}` — the one endpoint that
/// parses client JSON, so the obs parser's nesting-depth cap is what stands
/// between a hostile body and the worker's stack.
fn scores_batch(shared: &Shared, req: &Request, version: u64, snap: &RankSnapshot) -> (u16, Json) {
    const MAX_BATCH_NODES: usize = 4_096;
    let body = match Json::parse(&req.body) {
        Ok(body) => body,
        Err(e) => return (400, error_json(400, format!("invalid body: {e}"))),
    };
    let Some(Json::Arr(nodes)) = body.get("nodes") else {
        return (
            400,
            error_json(400, "body must be an object with a \"nodes\" array"),
        );
    };
    if nodes.len() > MAX_BATCH_NODES {
        return (
            413,
            error_json(
                413,
                format!(
                    "{} nodes exceeds the {MAX_BATCH_NODES}-node batch limit",
                    nodes.len()
                ),
            ),
        );
    }
    let mut out = Vec::with_capacity(nodes.len());
    for entry in nodes {
        let Some(node) = entry.as_u64() else {
            return (400, error_json(400, "\"nodes\" entries must be node IDs"));
        };
        let Ok(node) = usize::try_from(node) else {
            return (404, error_json(404, format!("unknown node {node}")));
        };
        if node >= shared.graph.n() {
            return (404, error_json(404, format!("unknown node {node}")));
        }
        out.push(node_score_json(node, snap.scores[node]));
    }
    let mut obj = snap.meta_json(version);
    obj.push(("scores".into(), Json::Arr(out)));
    (200, Json::Obj(obj))
}

fn metrics(shared: &Shared, version: u64, snap: &RankSnapshot) -> (u16, Json) {
    // Serve-side counters and the engine counters frozen into the snapshot,
    // merged by name into one catalogue.
    let mut merged = shared.metrics.snapshot();
    merged.merge(&snap.engine_counters);
    (
        200,
        Json::Obj(vec![
            ("snapshot_version".into(), Json::from_u64(version)),
            (
                "uptime_s".into(),
                Json::from_f64(shared.started.elapsed().as_secs_f64()),
            ),
            (
                "queue_depth".into(),
                Json::from_u64(shared.admission.len() as u64),
            ),
            ("counters".into(), merged.to_json()),
        ]),
    )
}

/// Parses the required `node` query parameter and bounds-checks it.
fn required_node(shared: &Shared, req: &Request) -> Result<usize, (u16, Json)> {
    let node = match req.query_parse::<u64>("node") {
        Ok(Some(node)) => node,
        Ok(None) => return Err((400, error_json(400, "query parameter 'node' is required"))),
        Err(msg) => return Err((400, error_json(400, msg))),
    };
    match usize::try_from(node) {
        Ok(node) if node < shared.graph.n() => Ok(node),
        _ => Err((404, error_json(404, format!("unknown node {node}")))),
    }
}

fn node_score_json(node: usize, score: f32) -> Json {
    Json::Obj(vec![
        ("node".into(), Json::from_u64(node as u64)),
        ("score".into(), Json::from_f64(f64::from(score))),
    ])
}
