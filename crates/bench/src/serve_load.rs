//! SERVE-LOAD: served throughput and latency under concurrency.
//!
//! This module answers "how fast does the *network tier* serve a
//! transform" — round-trip latency percentiles over the wire, measured
//! in three phases per size:
//!
//! * **single** — one blocking client: the uncontended round-trip
//!   baseline;
//! * **warm** — `connections` concurrent persistent clients: the
//!   steady-state concurrency the server is sized for (every request
//!   must be admitted and served; the warm p99 is the number the
//!   overload criterion is measured against);
//! * **overload** — `overload_factor ×` as many clients, each opening a
//!   fresh connection per request: deliberately past admission
//!   capacity, where the server must *shed* (typed `Overloaded`
//!   responses) rather than buffer — the admitted requests' latency is
//!   the proof that shedding protected them.
//!
//! The result is a schema-versioned `serve_load.json` artifact (golden
//! under `results/`).

use crate::history::BenchHost;
use serde::{Deserialize, Serialize};
use spiral_serve::{drive, percentile_us, LoadSpec, PlanService, Server, ServerConfig};
use std::sync::Arc;

/// Version stamp of the serialized [`ServeLoadFile`] layout; guarded by
/// the golden snapshot under `results/serve_load_schema.json`.
///
/// * v1 — initial layout (three phases per size, client-side tallies,
///   nearest-rank latency percentiles).
/// * v2 — rows record the served plan's tuner choice (`plan_kind`), so
///   downstream bench-history points can be labeled with the execution
///   backend (`scalar` vs `vector`) that actually served them.
/// * v3 — rows add the tail percentile `p999_us`; the file adds a
///   [`ServerLatencySummary`] derived from the server's own
///   `serve_request_seconds` histogram at drain (all zeros when the
///   server recorded nothing).
pub const SERVE_LOAD_SCHEMA_VERSION: u64 = 3;

/// One measured load phase at one transform size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeLoadRow {
    /// Transform size as log2 n.
    pub log2n: u64,
    /// Transforms per request.
    pub batch: u64,
    /// Concurrent client connections driving this phase.
    pub connections: u64,
    /// `"single"`, `"warm"`, or `"overload"`.
    pub phase: String,
    /// Tuner choice of the served (sequential, per-transform) plan —
    /// e.g. `"sequential tree (8 x 8) + vec(4)"`, which names the
    /// execution backend that served the phase.
    pub plan_kind: String,
    /// Requests the clients attempted.
    pub requests: u64,
    /// `Ok` responses.
    pub ok: u64,
    /// `Overloaded` responses (admission-control rejects).
    pub overloaded: u64,
    /// `Expired` responses (deadline shed).
    pub expired: u64,
    /// `Error` responses.
    pub errors: u64,
    /// Wire-level failures seen by the clients (must be 0 on a healthy
    /// host — the CI smoke gates on it).
    pub protocol_errors: u64,
    /// Median round-trip latency of `Ok` requests, microseconds.
    pub p50_us: u64,
    /// 95th-percentile round-trip latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile round-trip latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile round-trip latency, microseconds.
    pub p999_us: u64,
    /// Responses (any status) per wall-clock second.
    pub rps: f64,
}

/// Latency percentiles the *server* measured about itself, from its
/// `serve_request_seconds` histogram at drain — the cross-check against
/// the socket-side percentiles the clients measured. All zeros when the
/// server recorded nothing.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerLatencySummary {
    /// Requests the histogram saw (every terminal response).
    pub samples: u64,
    /// Median end-to-end served latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile end-to-end served latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile end-to-end served latency, microseconds.
    pub p999_us: u64,
}

impl ServerLatencySummary {
    /// Summarize a drain-time metrics snapshot. Histogram values are
    /// nanoseconds; the summary reports microseconds to match the
    /// socket-side rows.
    pub fn from_metrics(m: &spiral_serve::MetricsSnapshot) -> ServerLatencySummary {
        match m.histogram("serve_request_seconds") {
            Some(h) if h.count > 0 => ServerLatencySummary {
                samples: h.count,
                p50_us: h.quantile(0.5) / 1_000,
                p99_us: h.quantile(0.99) / 1_000,
                p999_us: h.quantile(0.999) / 1_000,
            },
            _ => ServerLatencySummary::default(),
        }
    }
}

/// The whole SERVE-LOAD artifact: provenance + per-phase rows.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeLoadFile {
    /// Serialization layout version ([`SERVE_LOAD_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Host the measurement ran on.
    pub host: BenchHost,
    /// Execution-pool threads behind the served plans.
    pub workers: u64,
    /// Deadline budget carried on every request (ms; 0 = server
    /// default).
    pub deadline_ms: u64,
    /// Tuner invocations across the whole measurement, pre-warm
    /// included. Zero when serving from warm wisdom — the warm-path
    /// invariant the CI smoke asserts via `--require-warm`.
    pub tuner_invocations: u64,
    /// The server's own latency view at drain.
    pub server: ServerLatencySummary,
    /// Measured phases, size-major then single/warm/overload.
    pub rows: Vec<ServeLoadRow>,
}

/// Knobs for one [`measure_serve_load`] run.
#[derive(Clone, Debug)]
pub struct ServeLoadOpts {
    /// Smallest size, as log2 n.
    pub min_log2n: u32,
    /// Largest size, as log2 n.
    pub max_log2n: u32,
    /// Execution-pool threads for the [`PlanService`].
    pub workers: usize,
    /// Concurrent connections in the warm phase (also sizes the
    /// server's connection workers and admission bounds, so the warm
    /// phase is within capacity and the overload phase is past it).
    pub connections: usize,
    /// Requests per connection per phase.
    pub requests_per_conn: usize,
    /// Transforms per request.
    pub batch: usize,
    /// Relative deadline on every request (ms; 0 = server default).
    pub deadline_ms: u32,
    /// Overload multiplier on `connections` (the acceptance criterion
    /// uses 10).
    pub overload_factor: usize,
    /// Wisdom file to serve from (and persist to on drain).
    pub wisdom: Option<std::path::PathBuf>,
}

impl Default for ServeLoadOpts {
    fn default() -> ServeLoadOpts {
        ServeLoadOpts {
            min_log2n: 6,
            max_log2n: 8,
            workers: 2,
            connections: 4,
            requests_per_conn: 32,
            batch: 8,
            deadline_ms: 0,
            overload_factor: 10,
            wisdom: None,
        }
    }
}

/// Run the three-phase load measurement against an in-process server.
///
/// One server instance serves every size (its plan cache holds them
/// all, like a production deployment would); each size is pre-planned
/// before measurement so the phases exercise the serving path, not the
/// tuner — against warm wisdom the pre-plan is a cache load and
/// `tuner_invocations` stays 0.
pub fn measure_serve_load(opts: &ServeLoadOpts) -> Result<ServeLoadFile, String> {
    let mu = spiral_smp::topology::mu();
    let service = match &opts.wisdom {
        Some(path) => {
            let (svc, report) = PlanService::with_wisdom(opts.workers, mu, path);
            println!("wisdom: {} ({})", report.summary(), path.display());
            svc
        }
        None => PlanService::new(opts.workers, mu),
    };
    let service = Arc::new(service);
    let mut choices = std::collections::HashMap::new();
    for k in opts.min_log2n..=opts.max_log2n {
        let n = 1usize << k;
        let served = service
            .sequential_plan(n)
            .map_err(|e| format!("planning DFT_{n} failed: {e}"))?;
        choices.insert(k, served.choice.clone());
    }

    let conns = opts.connections.max(1);
    let cfg = ServerConfig {
        // Connection workers sized to the warm concurrency: the warm
        // phase is fully admitted, the overload phase is not.
        workers: conns,
        conn_backlog: conns,
        queue_bound: conns * 2,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), cfg)?;
    let addr = server.local_addr();

    let mut rows = Vec::new();
    for k in opts.min_log2n..=opts.max_log2n {
        let n = 1usize << k;
        let base = LoadSpec {
            addr,
            connections: 1,
            requests_per_conn: opts.requests_per_conn,
            n,
            batch: opts.batch.max(1),
            deadline_ms: opts.deadline_ms,
            reconnect_per_request: false,
            seed: 1,
        };
        let choice = choices.get(&k).cloned().unwrap_or_default();
        rows.push(run_phase(k, "single", &choice, &base));
        rows.push(run_phase(
            k,
            "warm",
            &choice,
            &LoadSpec {
                connections: conns,
                ..base.clone()
            },
        ));
        rows.push(run_phase(
            k,
            "overload",
            &choice,
            &LoadSpec {
                connections: conns * opts.overload_factor.max(1),
                reconnect_per_request: true,
                ..base
            },
        ));
    }

    let report = server.shutdown();
    if report.thread_panics > 0 {
        return Err(format!(
            "{} server thread(s) panicked during the measurement",
            report.thread_panics
        ));
    }
    if let Some(e) = report.wisdom_error {
        return Err(format!("wisdom save failed on drain: {e}"));
    }

    Ok(ServeLoadFile {
        schema: SERVE_LOAD_SCHEMA_VERSION,
        host: BenchHost::current(),
        workers: opts.workers as u64,
        deadline_ms: u64::from(opts.deadline_ms),
        tuner_invocations: service.tuner_invocations(),
        server: ServerLatencySummary::from_metrics(&report.metrics),
        rows,
    })
}

/// Drive one phase and tally it into a row.
fn run_phase(log2n: u32, phase: &str, plan_kind: &str, spec: &LoadSpec) -> ServeLoadRow {
    let mut outcome = drive(spec);
    let responses = outcome.responses();
    ServeLoadRow {
        log2n: u64::from(log2n),
        batch: spec.batch as u64,
        connections: spec.connections as u64,
        phase: phase.to_string(),
        plan_kind: plan_kind.to_string(),
        requests: (spec.connections * spec.requests_per_conn) as u64,
        ok: outcome.ok,
        overloaded: outcome.overloaded,
        expired: outcome.expired,
        errors: outcome.errors,
        protocol_errors: outcome.protocol_errors,
        p50_us: percentile_us(&mut outcome.latencies_us, 50.0),
        p95_us: percentile_us(&mut outcome.latencies_us, 95.0),
        p99_us: percentile_us(&mut outcome.latencies_us, 99.0),
        p999_us: percentile_us(&mut outcome.latencies_us, 99.9),
        rps: responses as f64 / outcome.elapsed_s.max(1e-12),
    }
}

/// Aggregate sanity check used by tests and the smoke gate: every
/// phase's client-side tallies are internally consistent.
pub fn validate_file(file: &ServeLoadFile) -> Result<(), String> {
    if file.schema != SERVE_LOAD_SCHEMA_VERSION {
        return Err(format!(
            "unsupported serve-load schema {} (this build writes {})",
            file.schema, SERVE_LOAD_SCHEMA_VERSION
        ));
    }
    for r in &file.rows {
        let responses = r.ok + r.overloaded + r.expired + r.errors;
        if responses + r.protocol_errors > r.requests {
            return Err(format!(
                "row (n=2^{}, {}): more outcomes than requests: {r:?}",
                r.log2n, r.phase
            ));
        }
        if !r.rps.is_finite() || r.rps < 0.0 {
            return Err(format!(
                "row (n=2^{}, {}): degenerate rps: {r:?}",
                r.log2n, r.phase
            ));
        }
        if r.p50_us > r.p95_us || r.p95_us > r.p99_us || r.p99_us > r.p999_us {
            return Err(format!(
                "row (n=2^{}, {}): percentiles not monotone: {r:?}",
                r.log2n, r.phase
            ));
        }
        match r.phase.as_str() {
            "single" | "warm" | "overload" => {}
            other => return Err(format!("unknown phase name '{other}'")),
        }
    }
    let s = &file.server;
    if s.p50_us > s.p99_us || s.p99_us > s.p999_us {
        return Err(format!("server-side percentiles not monotone: {s:?}"));
    }
    if s.samples == 0 && (s.p50_us != 0 || s.p99_us != 0 || s.p999_us != 0) {
        return Err(format!(
            "server summary has percentiles but no samples: {s:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ServeLoadOpts {
        ServeLoadOpts {
            min_log2n: 5,
            max_log2n: 5,
            workers: 1,
            connections: 2,
            requests_per_conn: 4,
            batch: 2,
            overload_factor: 3,
            ..ServeLoadOpts::default()
        }
    }

    #[test]
    fn live_measurement_produces_consistent_rows() {
        let file = measure_serve_load(&quick_opts()).expect("measurement runs");
        validate_file(&file).expect("rows are consistent");
        assert_eq!(file.rows.len(), 3, "single + warm + overload");
        let single = &file.rows[0];
        let warm = &file.rows[1];
        assert_eq!(single.phase, "single");
        assert_eq!(warm.phase, "warm");
        // In-capacity phases on an idle host serve everything.
        assert_eq!(single.ok, single.requests, "{single:?}");
        assert_eq!(warm.ok, warm.requests, "{warm:?}");
        assert!(single.p50_us > 0);
        // Without wisdom the pre-warm tuned exactly the one size.
        assert!(file.tuner_invocations >= 1);
    }

    #[test]
    fn file_round_trips_through_json() {
        let file = measure_serve_load(&quick_opts()).expect("measurement runs");
        let json = serde_json::to_string_pretty(&file).expect("serializes");
        let back: ServeLoadFile = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, file);
    }

    #[test]
    fn validate_rejects_inconsistent_rows() {
        let mut file = ServeLoadFile {
            schema: SERVE_LOAD_SCHEMA_VERSION,
            host: BenchHost::current(),
            workers: 1,
            deadline_ms: 0,
            tuner_invocations: 0,
            server: ServerLatencySummary::default(),
            rows: vec![ServeLoadRow {
                log2n: 5,
                batch: 1,
                connections: 1,
                phase: "single".to_string(),
                plan_kind: "sequential tree (4 x 8)".to_string(),
                requests: 1,
                ok: 2, // more outcomes than requests
                overloaded: 0,
                expired: 0,
                errors: 0,
                protocol_errors: 0,
                p50_us: 1,
                p95_us: 1,
                p99_us: 1,
                p999_us: 1,
                rps: 1.0,
            }],
        };
        assert!(validate_file(&file).is_err());
        file.rows[0].ok = 1;
        validate_file(&file).expect("fixed row validates");
        file.rows[0].p50_us = 5; // not monotone vs p95
        assert!(validate_file(&file).is_err());
        file.rows[0].p50_us = 1;
        file.server.p999_us = 7; // percentiles without samples
        assert!(validate_file(&file).is_err());
    }

    /// The server's own latency view must agree with what the clients
    /// saw on the socket — same requests, measured from the other end of
    /// the wire.
    #[test]
    fn server_histogram_percentiles_track_the_socket_percentiles() {
        let file = measure_serve_load(&quick_opts()).expect("measurement runs");
        // Admission rejects at the accept loop answer `Overloaded`
        // without ever becoming a read request, so the histogram sees
        // at least every served/expired/errored request and at most
        // every response the clients tallied.
        let served: u64 = file.rows.iter().map(|r| r.ok + r.expired + r.errors).sum();
        let total: u64 = file
            .rows
            .iter()
            .map(|r| r.ok + r.overloaded + r.expired + r.errors)
            .sum();
        assert!(
            file.server.samples >= served && file.server.samples <= total,
            "histogram samples {} outside [{served}, {total}]",
            file.server.samples
        );
        assert!(file.server.p50_us > 0);
        // The server measures read-to-write; the client adds the wire
        // round trip on top. Generous noise bounds — this is a
        // cross-check, not a microbenchmark.
        let socket_p99 = file.rows.iter().map(|r| r.p99_us).max().unwrap_or(0);
        assert!(
            file.server.p99_us <= socket_p99.saturating_mul(3).saturating_add(500),
            "server p99 {}us implausibly above socket p99 {}us",
            file.server.p99_us,
            socket_p99
        );
    }
}
