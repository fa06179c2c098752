//! End-to-end tests of the network tier over real loopback sockets:
//! warm-path correctness, typed overload, protocol hardening, and
//! drain accounting. Fault-injected behavior lives in `chaos.rs`
//! (behind the `faults` feature).

use spiral_serve::client::{drive, request_from_inputs, Client, LoadSpec};
use spiral_serve::wire::{Request, Response};
use spiral_serve::{PlanService, Server, ServerConfig};
use spiral_spl::builder::dft;
use spiral_spl::cplx::{assert_slices_close, Cplx};
use std::sync::Arc;
use std::time::Duration;

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        conn_backlog: 16,
        queue_bound: 16,
        read_timeout: Duration::from_millis(25),
        default_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

fn ramp(n: usize, k: usize) -> Vec<Cplx> {
    (0..n)
        .map(|j| {
            Cplx::new(
                j as f64 * 0.25 - k as f64,
                k as f64 * 0.5 - j as f64 * 0.125,
            )
        })
        .collect()
}

#[test]
fn served_response_matches_the_dft() {
    let service = Arc::new(PlanService::new(2, 4));
    let server = Server::start(service, test_config()).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let n = 64;
    let inputs: Vec<Vec<Cplx>> = (0..3).map(|k| ramp(n, k)).collect();
    let req = request_from_inputs(7, 0, &inputs);
    match client.request(&req).expect("response arrives") {
        Response::Ok { id, data } => {
            assert_eq!(id, 7);
            assert_eq!(data.len(), 3 * n);
            for (k, x) in inputs.iter().enumerate() {
                let want = dft(n).eval(x);
                assert_slices_close(&data[k * n..(k + 1) * n], &want, 1e-8 * n as f64);
            }
        }
        other => panic!("expected Ok, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.thread_panics, 0);
    assert_eq!(report.counters.ok, 1);
    assert!(report.counters.accounted());
}

/// A NaN in one client's request is that client's typed `Error`: it
/// never reaches the executor, so it cannot flip the server into
/// degraded mode for everyone else.
#[test]
fn non_finite_request_data_is_a_typed_error_and_does_not_degrade() {
    let service = Arc::new(PlanService::new(2, 4));
    let server = Server::start(service, test_config()).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let n = 64;
    let mut inputs: Vec<Vec<Cplx>> = (0..2).map(|k| ramp(n, k)).collect();
    inputs[1][5] = Cplx::new(f64::NAN, 0.0);
    match client.request(&request_from_inputs(1, 0, &inputs)) {
        Ok(Response::Error { id, message }) => {
            assert_eq!(id, 1);
            assert!(message.contains("non-finite"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(!server.is_degraded());

    let clean: Vec<Vec<Cplx>> = (0..2).map(|k| ramp(n, k)).collect();
    match client.request(&request_from_inputs(2, 0, &clean)) {
        Ok(Response::Ok { id, data }) => {
            assert_eq!(id, 2);
            assert_slices_close(&data[n..], &dft(n).eval(&clean[1]), 1e-8 * n as f64);
        }
        other => panic!("expected Ok, got {other:?}"),
    }
    assert!(!server.is_degraded());

    let report = server.shutdown();
    assert!(!report.degraded);
    assert_eq!(report.counters.errors, 1);
    assert_eq!(report.counters.ok, 1);
    assert_eq!(report.counters.degraded_dispatches, 0);
    assert!(report.counters.accounted());
}

#[test]
fn sequential_requests_reuse_the_connection_and_the_plan() {
    let service = Arc::new(PlanService::new(2, 4));
    let tuner_probe = Arc::clone(&service);
    let server = Server::start(service, test_config()).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let n = 32;
    for rid in 0..5u64 {
        let req = request_from_inputs(rid, 0, &[ramp(n, 0)]);
        match client.request(&req).expect("response arrives") {
            Response::Ok { id, .. } => assert_eq!(id, rid),
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    assert_eq!(
        tuner_probe.tuner_invocations(),
        1,
        "five same-size requests must plan once"
    );

    let report = server.shutdown();
    assert_eq!(report.counters.ok, 5);
    assert_eq!(report.counters.conns_accepted, 1);
    assert!(report.counters.accounted());
}

#[test]
fn concurrent_load_is_fully_accounted() {
    let service = Arc::new(PlanService::new(2, 4));
    let server = Server::start(service, test_config()).expect("server starts");

    let spec = LoadSpec {
        addr: server.local_addr(),
        connections: 4,
        requests_per_conn: 8,
        n: 64,
        batch: 4,
        deadline_ms: 0,
        reconnect_per_request: false,
        seed: 3,
    };
    let outcome = drive(&spec);
    assert_eq!(outcome.ok, 32, "every request should succeed: {outcome:?}");
    assert_eq!(outcome.protocol_errors, 0);
    assert_eq!(outcome.conn_failures, 0);

    let report = server.shutdown();
    assert_eq!(report.thread_panics, 0);
    assert_eq!(report.counters.requests, 32);
    assert!(report.counters.accounted());
    assert!(report.exec_max_depth <= 16);
}

#[test]
fn admission_control_rejects_with_a_typed_overloaded_response() {
    // One worker, a one-slot connection queue: connection A occupies
    // the worker, connection B fills the queue, connection C must be
    // turned away with Overloaded — deterministically, no timing.
    let cfg = ServerConfig {
        workers: 1,
        conn_backlog: 1,
        ..test_config()
    };
    let service = Arc::new(PlanService::new(1, 4));
    let server = Server::start(service, cfg).expect("server starts");

    let mut held = Client::connect(server.local_addr()).expect("A connects");
    // Serve one request so the worker has definitely popped A.
    let req = request_from_inputs(1, 0, &[ramp(32, 0)]);
    assert!(matches!(
        held.request(&req).expect("A served"),
        Response::Ok { .. }
    ));

    // B parks in the connection queue (the only slot).
    let _parked = Client::connect(server.local_addr()).expect("B connects");
    // Give the acceptor a moment to enqueue B before C arrives.
    std::thread::sleep(Duration::from_millis(50));

    let mut rejected = Client::connect(server.local_addr()).expect("C connects");
    match rejected.request(&req).expect("C gets an answer") {
        Response::Overloaded { id } => assert_eq!(id, 0, "rejected before any frame is read"),
        other => panic!("expected Overloaded, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.thread_panics, 0);
    assert!(report.counters.conns_rejected >= 1);
    assert!(report.conn_max_depth <= 1);
    assert!(report.counters.accounted());
}

#[test]
fn torn_frame_closes_the_connection_but_not_the_server() {
    let service = Arc::new(PlanService::new(1, 4));
    let server = Server::start(service, test_config()).expect("server starts");

    let req = request_from_inputs(9, 0, &[ramp(64, 1)]);
    let mut torn = Client::connect(server.local_addr()).expect("connects");
    torn.send_torn(&req).expect("half frame sent");
    drop(torn);

    // The server must keep serving fresh connections.
    let mut ok = Client::connect(server.local_addr()).expect("connects");
    assert!(matches!(
        ok.request(&req).expect("served after the torn peer"),
        Response::Ok { .. }
    ));

    // The torn connection is reaped asynchronously; poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.counters().protocol_errors == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = server.shutdown();
    assert_eq!(report.counters.protocol_errors, 1);
    assert_eq!(report.thread_panics, 0);
    assert!(report.counters.accounted());
}

#[test]
fn slow_client_is_reaped_by_the_read_timeout() {
    let cfg = ServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(30),
        ..test_config()
    };
    let service = Arc::new(PlanService::new(1, 4));
    let server = Server::start(service, cfg).expect("server starts");

    let req = request_from_inputs(5, 0, &[ramp(64, 0)]);
    let mut slow = Client::connect(server.local_addr()).expect("connects");
    // Dribble the frame far slower than the read timeout: the server
    // must classify the connection as stalled and drop it rather than
    // letting it hold the worker indefinitely.
    let _ = slow.send_slow(&req, 4, Duration::from_millis(120));
    drop(slow);

    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while server.counters().protocol_errors == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = server.shutdown();
    assert!(
        report.counters.protocol_errors >= 1,
        "stalled writer must be counted: {:?}",
        report.counters
    );
    assert_eq!(report.thread_panics, 0);
}

#[test]
fn oversized_frame_is_rejected_without_allocation() {
    use std::io::Write as _;
    let service = Arc::new(PlanService::new(1, 4));
    let server = Server::start(service, test_config()).expect("server starts");

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connects");
    // Prefix claiming 4 GiB − 1. The server must drop the connection
    // instead of trying to buffer it.
    raw.write_all(&u32::MAX.to_le_bytes()).expect("prefix sent");
    raw.write_all(b"SQ01").expect("some payload sent");
    drop(raw);

    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.counters().protocol_errors == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    // And it keeps serving.
    let mut ok = Client::connect(server.local_addr()).expect("connects");
    let req = request_from_inputs(2, 0, &[ramp(32, 0)]);
    assert!(matches!(
        ok.request(&req).expect("served"),
        Response::Ok { .. }
    ));
    let report = server.shutdown();
    assert_eq!(report.counters.protocol_errors, 1);
    assert_eq!(report.thread_panics, 0);
}

#[test]
fn awkward_sizes_are_served_not_dropped() {
    let service = Arc::new(PlanService::new(1, 4));
    let server = Server::start(service, test_config()).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    // n = 7: no power-of-two structure for the generator to exploit,
    // but a well-formed request must still be answered — the planner
    // falls back rather than the server dropping the connection.
    let req = Request {
        id: 11,
        n: 7,
        batch: 1,
        deadline_ms: 0,
        data: vec![Cplx::ONE; 7],
    };
    match client.request(&req).expect("typed answer") {
        Response::Ok { id, data } => {
            assert_eq!(id, 11);
            assert_slices_close(&data, &dft(7).eval(&[Cplx::ONE; 7]), 1e-8);
        }
        other => panic!("expected Ok, got {other:?}"),
    }
    // The same connection stays usable for ordinary sizes.
    let ok_req = request_from_inputs(12, 0, &[ramp(32, 0)]);
    assert!(matches!(
        client.request(&ok_req).expect("served"),
        Response::Ok { .. }
    ));

    let report = server.shutdown();
    assert_eq!(report.counters.ok, 2);
    assert!(report.counters.accounted());
}

#[test]
fn drain_refuses_new_connections_and_accounts_everything() {
    let service = Arc::new(PlanService::new(1, 4));
    let server = Server::start(service, test_config()).expect("server starts");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connects");
    let req = request_from_inputs(3, 0, &[ramp(32, 0)]);
    assert!(matches!(
        client.request(&req).expect("served"),
        Response::Ok { .. }
    ));

    let report = server.shutdown();
    assert!(report.counters.accounted());
    assert_eq!(report.thread_panics, 0);

    // The listener is gone: connects must fail (or be reset on first
    // use) — nothing may silently queue behind a drained server.
    match std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
        Err(_) => {}
        Ok(s) => {
            // Connected before the OS tore the listener down; any
            // request on it must fail.
            drop(s);
        }
    }
}
