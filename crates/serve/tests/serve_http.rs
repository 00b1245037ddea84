//! End-to-end tests: a real server on an ephemeral port, driven over real
//! sockets with the load generator's HTTP helpers.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mixen_core::Json;
use mixen_graph::{Dataset, Graph, Scale};
use mixen_serve::{http_get, http_request, run_load, LoadOpts, ServeOpts, Server, ServerHandle};

fn start_server(opts: ServeOpts) -> (SocketAddr, ServerHandle) {
    let g = Arc::new(Dataset::Wiki.generate(Scale::Tiny, 42));
    let handle = Server::start(g, opts).expect("server start");
    (handle.addr(), handle)
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Json) {
    let (status, body) = http_get(addr, path).expect("request");
    let json = Json::parse(&body).unwrap_or_else(|e| panic!("bad JSON from {path}: {e}\n{body}"));
    (status, json)
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> (u16, Json) {
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: mixen\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let (status, text) = http_request(addr, &request).expect("request");
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("bad JSON from {path}: {e}\n{text}"));
    (status, json)
}

/// Polls until the resident ranking has converged, so responses from
/// successive requests come from the same (final) snapshot.
fn wait_converged(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, health) = get_json(addr, "/healthz");
        if health.get("converged") == Some(&Json::Bool(true)) {
            return;
        }
        assert!(Instant::now() < deadline, "ranking never converged");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn endpoints_answer_from_a_live_snapshot() {
    let (addr, handle) = start_server(ServeOpts::default());
    wait_converged(addr);

    let (status, health) = get_json(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
    let n = health.get("nodes").and_then(Json::as_u64).unwrap();
    assert!(n > 0);
    // Server::start waits for the first publish, so version >= 1 always.
    assert!(
        health
            .get("snapshot_version")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );

    let (status, top) = get_json(addr, "/rank/top?k=5");
    assert_eq!(status, 200);
    let Some(Json::Arr(nodes)) = top.get("nodes") else {
        panic!("missing nodes: {top:?}");
    };
    assert_eq!(nodes.len(), 5);
    // Descending, finite scores.
    let scores: Vec<f64> = nodes
        .iter()
        .map(|e| e.get("score").and_then(Json::as_f64).unwrap())
        .collect();
    for pair in scores.windows(2) {
        assert!(pair[0] >= pair[1], "not descending: {scores:?}");
    }
    assert!(scores.iter().all(|s| s.is_finite()));

    let first = nodes[0].get("node").and_then(Json::as_u64).unwrap();
    let (status, one) = get_json(addr, &format!("/score?node={first}"));
    assert_eq!(status, 200);
    assert_eq!(
        one.get("score").and_then(Json::as_f64).unwrap(),
        scores[0],
        "single lookup disagrees with top-k"
    );

    let (status, nbrs) = get_json(addr, &format!("/neighbors?node={first}&limit=3"));
    assert_eq!(status, 200);
    let Some(Json::Arr(out)) = nbrs.get("out") else {
        panic!("missing out: {nbrs:?}");
    };
    let out_degree = nbrs.get("out_degree").and_then(Json::as_u64).unwrap();
    assert_eq!(out.len() as u64, out_degree.min(3));

    let (status, scored) = post_json(addr, "/scores", &format!("{{\"nodes\": [0, 1, {first}]}}"));
    assert_eq!(status, 200);
    let Some(Json::Arr(entries)) = scored.get("scores") else {
        panic!("missing scores: {scored:?}");
    };
    assert_eq!(entries.len(), 3);

    let (status, metrics) = get_json(addr, "/metrics");
    assert_eq!(status, 200);
    let counters = metrics.get("counters").expect("counters");
    assert!(
        counters
            .get("requests_served")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
    assert!(
        counters
            .get("snapshot_swaps")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
    // Engine counters merged in by name from the snapshot.
    assert!(
        counters
            .get("edges_scattered")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1,
        "{counters:?}"
    );

    handle.shutdown_and_join();
}

#[test]
fn error_paths_are_typed_statuses() {
    let (addr, handle) = start_server(ServeOpts::default());

    assert_eq!(get_json(addr, "/nope").0, 404);
    assert_eq!(get_json(addr, "/score").0, 400); // node required
    assert_eq!(get_json(addr, "/score?node=abc").0, 400);
    assert_eq!(get_json(addr, "/score?node=99999999").0, 404);
    assert_eq!(get_json(addr, "/rank/top?k=abc").0, 400);
    // GET on a POST-only route.
    assert_eq!(get_json(addr, "/scores").0, 405);
    // Hostile body: nesting far past MAX_JSON_DEPTH must be a clean 400
    // (the depth cap), not a stack overflow.
    // 40 KB: under MAX_BODY_BYTES, so it reaches the parser — whose depth
    // cap must stop it.
    let hostile = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
    let (status, err) = post_json(addr, "/scores", &hostile);
    assert_eq!(status, 400);
    assert!(
        err.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("json nesting depth"),
        "{err:?}"
    );
    // Body over the byte limit is refused before parsing.
    let huge = "x".repeat(mixen_serve::http::MAX_BODY_BYTES + 1);
    assert_eq!(post_json(addr, "/scores", &huge).0, 413);

    // An already-expired deadline answers 504 with the typed rendering.
    let (status, err) = get_json(addr, "/rank/top?k=3&deadline_ms=0");
    assert_eq!(status, 504);
    assert!(
        err.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("deadline exceeded"),
        "{err:?}"
    );

    handle.shutdown_and_join();
}

#[test]
fn concurrent_load_is_served_consistently() {
    let (addr, handle) = start_server(ServeOpts::default());
    let report = run_load(
        addr,
        &LoadOpts {
            concurrency: 8,
            requests_per_client: 50,
            top_k: 10,
        },
    );
    assert_eq!(report.requests, 400);
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.ok + report.rejected, report.requests);
    assert!(report.ok > 0);
    assert!(report.p99_ms >= report.p50_ms);
    assert!(handle.requests_served() >= report.ok);
    handle.shutdown_and_join();
}

#[test]
fn admission_control_rejects_overflow_with_429() {
    // One worker, tiny queue: park the worker on a slow request by holding
    // a connection open (the worker blocks reading it), then flood.
    let (addr, handle) = start_server(ServeOpts {
        workers: 1,
        queue_cap: 1,
        batch_cap: 1,
        default_deadline_ms: 0,
        ..ServeOpts::default()
    });
    // Open a connection but send nothing: the worker sits in the read until
    // its socket timeout, pinning the queue.
    let blocker = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // Flood in parallel: with the worker pinned and one queue slot, most of
    // these must be shed at the door.
    let statuses: Vec<u16> = (0..8)
        .map(|_| std::thread::spawn(move || http_get(addr, "/healthz").map(|(s, _)| s)))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap().unwrap_or(0))
        .collect();
    assert!(
        statuses.contains(&429),
        "flood never hit admission control: {statuses:?}"
    );
    assert!(handle.requests_rejected() >= 1);
    drop(blocker);
    handle.shutdown_and_join();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (addr, handle) = start_server(ServeOpts::default());
    // Request the drain over the wire...
    let (status, body) = post_json(addr, "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(body.get("draining"), Some(&Json::Bool(true)));
    // ...and the server must come down on its own (no handle.shutdown()).
    let deadline = Instant::now() + Duration::from_secs(30);
    handle.join();
    assert!(Instant::now() < deadline, "drain took too long");
    // The port is released: a fresh connect must fail or be refused.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err(),
        "listener still accepting after drain"
    );
}

#[test]
fn snapshot_versions_do_not_regress_under_refresh() {
    // Slow refresh so versions keep advancing while we read.
    let (addr, handle) = start_server(ServeOpts {
        refresh_iters: 1,
        max_iters: 400,
        tol: 0.0, // never converges: keeps publishing until max_iters
        ..ServeOpts::default()
    });
    let mut last = 0u64;
    for _ in 0..40 {
        let (status, j) = get_json(addr, "/rank/top?k=3");
        assert_eq!(status, 200);
        let v = j.get("snapshot_version").and_then(Json::as_u64).unwrap();
        assert!(v >= last, "snapshot version regressed {last} -> {v}");
        last = v;
    }
    assert!(last >= 1);
    handle.shutdown_and_join();
}

#[test]
fn convergence_is_read_from_the_last_iteration_of_a_batch() {
    // The star 0 <-> {1, 2, 3} is a period-2 component: the scores swing
    // back and forth, so a four-iteration batch can change less than its
    // last iteration did. At tol 0.05 the batch ending at iteration 12
    // changes by 2.99e-2 while its last step moves 7.11e-2; the first batch
    // whose last step is within tol ends at iteration 16 (3.71e-2).
    let star = Graph::from_pairs(4, &[(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)]);
    let opts = ServeOpts {
        workers: 1,
        refresh_iters: 4,
        tol: 0.05,
        ..ServeOpts::default()
    };
    let handle = Server::start(Arc::new(star), opts).expect("server start");
    let addr = handle.addr();
    wait_converged(addr);
    let (_, health) = get_json(addr, "/healthz");
    assert_eq!(health.get("iterations").and_then(Json::as_u64), Some(16));
    let residual = health.get("residual").and_then(Json::as_f64).unwrap();
    assert!(residual <= 0.05, "residual {residual}");
    handle.shutdown_and_join();
}
