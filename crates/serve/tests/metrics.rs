//! Live-telemetry contract of the serving tier: the metrics snapshot is
//! a *view* over the exact accounting surface (so live == exact at
//! drain, by construction, and this suite pins it), the `SS01` stats
//! exchange serves both exposition formats over a real socket without
//! perturbing request accounting, and the JSON layout is frozen by a
//! golden under `results/serve_metrics_schema.json`.

use serde_json::Value;
use spiral_serve::client::{request_from_inputs, Client};
use spiral_serve::wire::Response;
use spiral_serve::{GaugeReadings, PlanService, ServeMetrics, Server, ServerConfig, StatsKind};
use spiral_spl::cplx::Cplx;
use spiral_trace::metrics::{
    lint_prometheus, BucketCount, CounterSample, GaugeSample, HistogramSample, HistogramSnapshot,
    MetricsSnapshot, METRICS_SCHEMA_VERSION,
};
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
        .map(|j| Cplx::new(j as f64 * 0.25 - k as f64, k as f64 * 0.5))
        .collect()
}

#[test]
fn drained_metrics_snapshot_equals_exact_accounting() {
    let service = Arc::new(PlanService::new(2, 4));
    let server = Server::start(service, test_config()).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    for rid in 0..5u64 {
        let req = request_from_inputs(rid, 0, &[ramp(32, 0)]);
        assert!(matches!(
            client.request(&req).expect("response arrives"),
            Response::Ok { .. }
        ));
    }
    let report = server.shutdown();
    assert_eq!(report.thread_panics, 0);
    assert!(report.counters.accounted());

    // The live snapshot and the exact drain accounting are the same
    // numbers — the counters are views over one set of atomics.
    let m = &report.metrics;
    let c = &report.counters;
    assert_eq!(m.counter("serve_requests_total"), Some(c.requests));
    assert_eq!(m.counter("serve_ok_total"), Some(c.ok));
    assert_eq!(m.counter("serve_overloaded_total"), Some(c.overloaded));
    assert_eq!(m.counter("serve_expired_total"), Some(c.expired));
    assert_eq!(m.counter("serve_errors_total"), Some(c.errors));
    assert_eq!(m.counter("serve_shed_expired_total"), Some(c.shed_expired));
    assert_eq!(m.counter("serve_dispatches_total"), Some(c.dispatches));
    assert_eq!(
        m.counter("serve_protocol_errors_total"),
        Some(c.protocol_errors)
    );
    // Conservation holds *inside* the snapshot exactly when it holds in
    // the accounting (Counters::accounted()).
    assert_eq!(
        m.counter("serve_requests_total").unwrap(),
        m.counter("serve_ok_total").unwrap()
            + m.counter("serve_overloaded_total").unwrap()
            + m.counter("serve_expired_total").unwrap()
            + m.counter("serve_errors_total").unwrap()
    );
    // Queues are empty after drain.
    assert_eq!(m.gauge("serve_conn_queue_depth"), Some(0));
    assert_eq!(m.gauge("serve_exec_queue_depth"), Some(0));
    assert_eq!(m.gauge("serve_degraded"), Some(0));
}

#[test]
fn ss01_stats_serve_both_formats_without_counting_as_requests() {
    let service = Arc::new(PlanService::new(2, 4));
    let server = Server::start(service, test_config()).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let req = request_from_inputs(1, 0, &[ramp(32, 1)]);
    assert!(matches!(
        client.request(&req).expect("response arrives"),
        Response::Ok { .. }
    ));

    // JSON: parses as a schema-versioned snapshot mirroring the live
    // counters; the stats exchange itself must not appear in them.
    let json = client.stats(StatsKind::Json).expect("json stats");
    let snap = MetricsSnapshot::from_json(&json).expect("snapshot parses");
    assert_eq!(snap.schema, METRICS_SCHEMA_VERSION);
    assert_eq!(snap.counter("serve_requests_total"), Some(1));
    assert_eq!(snap.counter("serve_ok_total"), Some(1));

    // Prometheus: lints clean and carries the counter series.
    let prom = client.stats(StatsKind::Prom).expect("prom stats");
    lint_prometheus(&prom).expect("exposition lints clean");
    assert!(prom.contains("# TYPE serve_requests_total counter"));
    assert!(prom.contains("serve_requests_total 1"));
    assert!(prom.contains("# TYPE serve_exec_queue_depth gauge"));

    // Dump: valid Perfetto/Chrome JSON holding the recorder's rings.
    let dump = client.stats(StatsKind::Dump).expect("dump stats");
    let doc: Value = serde_json::from_str(&dump).expect("dump parses as JSON");
    assert!(matches!(doc.get("traceEvents"), Some(Value::Arr(_))));

    // A later request still gets served and the accounting never saw
    // the three stats exchanges.
    let req = request_from_inputs(2, 0, &[ramp(32, 2)]);
    assert!(matches!(
        client.request(&req).expect("response arrives"),
        Response::Ok { .. }
    ));
    let report = server.shutdown();
    assert_eq!(report.counters.requests, 2);
    assert!(report.counters.accounted());
    assert_eq!(report.metrics.counter("serve_requests_total"), Some(2));
}

#[test]
fn warm_histograms_populate_and_forced_breach_persists_a_flight_record() {
    let dir = std::env::temp_dir().join(format!("spiral-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let record = dir.join("flight_record.json");
    let service = Arc::new(PlanService::new(2, 4));
    let cfg = ServerConfig {
        // Every completed request "breaches": zero tolerance forces the
        // first response to latch and persist the recorder export.
        slo_fraction: 0.0,
        flight_record_path: Some(record.clone()),
        ..test_config()
    };
    let server = Server::start(service, cfg).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    for rid in 0..4u64 {
        let req = request_from_inputs(rid, 0, &[ramp(32, 0)]);
        assert!(matches!(
            client.request(&req).expect("response arrives"),
            Response::Ok { .. }
        ));
    }
    let report = server.shutdown();
    assert!(report.counters.accounted());

    // The per-phase histograms saw the traffic.
    let m = &report.metrics;
    let e2e = m.histogram("serve_request_seconds").expect("e2e histogram");
    assert_eq!(e2e.count, 4);
    e2e.validate().expect("valid layout");
    assert!(m.histogram("serve_parse_seconds").expect("parse").count >= 4);
    assert!(
        m.histogram("serve_pool_execute_seconds")
            .expect("pool execute")
            .count
            >= 1
    );
    assert!(m.histogram("serve_coalesce_size").expect("coalesce").count >= 1);
    assert_eq!(m.counter("serve_slo_breaches_total"), Some(4));

    // The forced breach persisted a valid Perfetto trace with the
    // triggering request's span and the breach mark on it.
    let dumped = std::fs::read_to_string(&record).expect("flight record written");
    let doc: Value = serde_json::from_str(&dumped).expect("flight record parses");
    assert!(matches!(doc.get("traceEvents"), Some(Value::Arr(_))));
    assert!(dumped.contains("SLO BREACH request 0"));
    assert!(dumped.contains("\"request 0\""));
    let _ = std::fs::remove_dir_all(&dir);
}

// --- golden schema ----------------------------------------------------

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/serve_metrics_schema.json")
}

/// Fixed literals — identical on every machine, so the golden pins the
/// interchange layout itself.
fn fixture() -> MetricsSnapshot {
    let mut snap = ServeMetrics::new(1).snapshot(
        &spiral_serve::CounterSnapshot {
            conns_accepted: 3,
            conns_rejected: 1,
            requests: 8,
            ok: 5,
            overloaded: 1,
            expired: 1,
            errors: 1,
            shed_expired: 1,
            coalesced: 2,
            dispatches: 4,
            degraded_dispatches: 1,
            protocol_errors: 2,
        },
        &GaugeReadings {
            conn_queue_depth: 1,
            exec_queue_depth: 2,
            degraded: true,
        },
    );
    // One histogram with fixed contents, attached by hand so the golden
    // does not depend on recorded timings.
    snap.histograms = vec![HistogramSample {
        name: "serve_request_seconds".to_string(),
        help: "End-to-end served request latency".to_string(),
        histogram: HistogramSnapshot {
            buckets: vec![
                BucketCount {
                    index: 79,
                    count: 3,
                },
                BucketCount {
                    index: 80,
                    count: 2,
                },
            ],
            count: 5,
            sum: 5120,
            min: 980,
            max: 1090,
        },
    }];
    snap
}

#[test]
fn metrics_json_matches_golden_snapshot() {
    let got = fixture().to_json();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden snapshot");
        return;
    }
    let want = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        ),
    };
    assert_eq!(
        got.trim(),
        want.trim(),
        "metrics JSON schema drifted from results/serve_metrics_schema.json.\n\
         If intentional: bump METRICS_SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1."
    );
}

#[test]
fn golden_snapshot_round_trips_and_lints() {
    let want = fixture();
    if let Ok(s) = std::fs::read_to_string(golden_path()) {
        let parsed = MetricsSnapshot::from_json(&s).expect("golden snapshot must parse");
        assert_eq!(parsed, want);
        assert_eq!(parsed.schema, METRICS_SCHEMA_VERSION);
    }
    // The fixture's Prometheus rendering obeys the exposition lints the
    // registry enforces at construction time.
    lint_prometheus(&want.to_prometheus()).expect("fixture exposition lints clean");
}

#[test]
fn fresh_server_serves_stats_before_any_request() {
    // An SS01 exchange on a cold server must work (monitoring attaches
    // before traffic does).
    let service = Arc::new(PlanService::new(1, 4));
    let server = Server::start(service, test_config()).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let json = client.stats(StatsKind::Json).expect("cold stats");
    let snap = MetricsSnapshot::from_json(&json).expect("parses");
    assert_eq!(snap.counter("serve_requests_total"), Some(0));
    let report = server.shutdown();
    assert_eq!(report.counters.requests, 0);
    assert!(snap
        .counters
        .iter()
        .any(|c: &CounterSample| c.name == "serve_ok_total"));
    assert!(snap
        .gauges
        .iter()
        .any(|g: &GaugeSample| g.name == "serve_degraded"));
}
