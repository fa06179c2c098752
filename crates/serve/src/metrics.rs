//! Live serving telemetry: the serve-tier metric layout over
//! [`spiral_trace::metrics`].
//!
//! The design splits the metric set by *where the truth lives*:
//!
//! * **Counters are views.** [`crate::overload::ServeCounters`] is
//!   already the exact accounting surface (the chaos suite proves its
//!   conservation law at drain), so the metrics snapshot does not keep a
//!   second set of increments that could drift — it *reads* the same
//!   atomics at snapshot time. `metrics == DrainReport` is then an
//!   identity by construction, and the invariant test in
//!   `tests/metrics.rs` pins it.
//! * **Gauges are views too.** Queue depths and the degraded flag are
//!   point-in-time reads of live structures; sampling them at snapshot
//!   time costs the hot path nothing.
//! * **Histograms are recorded.** Per-phase latencies (parse,
//!   conn-queue wait, exec-queue wait, pool execute, end-to-end) and the
//!   coalesce-size distribution only exist if the hot path records them,
//!   so they live in a [`MetricsRegistry`] of cache-line-padded,
//!   single-writer-sharded log-linear histograms. The server always
//!   records into them.
//!
//! Next to the histograms sits the [`FlightRecorder`]: bounded timeline
//! rings that every served request and pool dispatch writes through,
//! exported as Perfetto JSON on the first SLO breach or on an `SS01
//! dump` request.

use crate::overload::CounterSnapshot;
use spiral_trace::metrics::{
    CounterSample, GaugeSample, MetricKind, MetricSpec, MetricsRegistry, MetricsSnapshot,
};
use spiral_trace::FlightRecorder;
use std::time::Duration;

/// Time from the first byte of a request frame to its decoded form.
pub const PARSE_SECONDS: &str = "serve_parse_seconds";
/// Time a connection waited in the accept backlog before a worker took it.
pub const CONN_QUEUE_WAIT_SECONDS: &str = "serve_conn_queue_wait_seconds";
/// Time an admitted request waited in the execution queue.
pub const EXEC_QUEUE_WAIT_SECONDS: &str = "serve_exec_queue_wait_seconds";
/// Requests riding one execution dispatch (1 = no coalescing).
pub const COALESCE_SIZE: &str = "serve_coalesce_size";
/// Time one coalesced group spent in the plan executor / thread pool.
pub const POOL_EXECUTE_SECONDS: &str = "serve_pool_execute_seconds";
/// End-to-end request latency, arrival through response encode.
pub const REQUEST_SECONDS: &str = "serve_request_seconds";

static HISTOGRAM_SPECS: &[MetricSpec] = &[
    MetricSpec {
        name: PARSE_SECONDS,
        help: "Time to read and decode one request frame off the socket",
        kind: MetricKind::Histogram,
    },
    MetricSpec {
        name: CONN_QUEUE_WAIT_SECONDS,
        help: "Time an accepted connection waited for a worker",
        kind: MetricKind::Histogram,
    },
    MetricSpec {
        name: EXEC_QUEUE_WAIT_SECONDS,
        help: "Time an admitted request waited for the dispatcher",
        kind: MetricKind::Histogram,
    },
    MetricSpec {
        name: COALESCE_SIZE,
        help: "Requests coalesced into one execution dispatch",
        kind: MetricKind::Histogram,
    },
    MetricSpec {
        name: POOL_EXECUTE_SECONDS,
        help: "Pool execution time of one coalesced dispatch",
        kind: MetricKind::Histogram,
    },
    MetricSpec {
        name: REQUEST_SECONDS,
        help: "End-to-end served request latency",
        kind: MetricKind::Histogram,
    },
];

/// One counter exposed as a snapshot-time view over [`CounterSnapshot`].
struct CounterView {
    name: &'static str,
    help: &'static str,
    read: fn(&CounterSnapshot) -> u64,
}

static COUNTER_VIEWS: &[CounterView] = &[
    CounterView {
        name: "serve_requests_total",
        help: "Well-formed request frames read off connections",
        read: |c| c.requests,
    },
    CounterView {
        name: "serve_ok_total",
        help: "Requests answered Ok",
        read: |c| c.ok,
    },
    CounterView {
        name: "serve_overloaded_total",
        help: "Requests answered Overloaded (admission rejection)",
        read: |c| c.overloaded,
    },
    CounterView {
        name: "serve_expired_total",
        help: "Requests answered Expired (deadline passed)",
        read: |c| c.expired,
    },
    CounterView {
        name: "serve_errors_total",
        help: "Requests answered Error (admitted, then failed)",
        read: |c| c.errors,
    },
    CounterView {
        name: "serve_shed_expired_total",
        help: "Expired requests shed without executing",
        read: |c| c.shed_expired,
    },
    CounterView {
        name: "serve_coalesced_total",
        help: "Requests that rode another request's dispatch",
        read: |c| c.coalesced,
    },
    CounterView {
        name: "serve_dispatches_total",
        help: "Execution dispatches performed",
        read: |c| c.dispatches,
    },
    CounterView {
        name: "serve_degraded_dispatches_total",
        help: "Dispatches served on the degraded sequential path",
        read: |c| c.degraded_dispatches,
    },
    CounterView {
        name: "serve_protocol_errors_total",
        help: "Connections dropped for protocol violations",
        read: |c| c.protocol_errors,
    },
    CounterView {
        name: "serve_conns_accepted_total",
        help: "Connections accepted into a worker",
        read: |c| c.conns_accepted,
    },
    CounterView {
        name: "serve_conns_rejected_total",
        help: "Connections turned away at the accept loop",
        read: |c| c.conns_rejected,
    },
];

/// Point-in-time gauge readings sampled by the caller at snapshot time.
#[derive(Clone, Copy, Debug, Default)]
pub struct GaugeReadings {
    /// Current depth of the accepted-connection queue.
    pub conn_queue_depth: u64,
    /// Current depth of the execution queue.
    pub exec_queue_depth: u64,
    /// Whether the server is in degraded (sequential) mode.
    pub degraded: bool,
}

/// The serving tier's metric surface: histogram registry, flight
/// recorder, and counter/gauge views.
pub struct ServeMetrics {
    /// Histogram writer lanes: worker `wid` records on lane `wid`, the
    /// dispatcher on lane `writers - 1`.
    writers: usize,
    registry: MetricsRegistry,
    recorder: FlightRecorder,
}

impl ServeMetrics {
    /// Metric surface for a server with `workers` connection workers
    /// (one extra writer lane for the dispatcher).
    pub fn new(workers: usize) -> ServeMetrics {
        let writers = workers + 1;
        ServeMetrics {
            writers,
            registry: MetricsRegistry::new(HISTOGRAM_SPECS, writers)
                .expect("serve histogram layout is valid"),
            recorder: FlightRecorder::new(writers),
        }
    }

    /// The dispatcher's writer lane (workers use their own index).
    pub fn dispatcher_lane(&self) -> usize {
        self.writers - 1
    }

    /// The flight recorder (bounded timeline rings).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Record one phase duration into histogram `name` on `writer`'s
    /// lane.
    pub fn record(&self, name: &str, writer: usize, d: Duration) {
        self.registry.histogram(name).record_duration(writer, d);
    }

    /// Record a dimensionless value (coalesce group size) into histogram
    /// `name`.
    pub fn record_size(&self, name: &str, writer: usize, value: u64) {
        self.registry.histogram(name).record(writer, value);
    }

    /// Build the full snapshot: counter views over `counters`, gauge
    /// views over `gauges`, histogram snapshots from the registry.
    pub fn snapshot(&self, counters: &CounterSnapshot, gauges: &GaugeReadings) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for v in COUNTER_VIEWS {
            snap.counters.push(CounterSample {
                name: v.name.to_string(),
                help: v.help.to_string(),
                value: (v.read)(counters),
            });
        }
        snap.counters.push(CounterSample {
            name: "serve_slo_breaches_total".to_string(),
            help: "SLO breaches recorded by the flight recorder".to_string(),
            value: self.recorder.breaches(),
        });
        snap.gauges.push(GaugeSample {
            name: "serve_conn_queue_depth".to_string(),
            help: "Current depth of the accepted-connection queue".to_string(),
            value: gauges.conn_queue_depth,
        });
        snap.gauges.push(GaugeSample {
            name: "serve_exec_queue_depth".to_string(),
            help: "Current depth of the execution queue".to_string(),
            value: gauges.exec_queue_depth,
        });
        snap.gauges.push(GaugeSample {
            name: "serve_degraded".to_string(),
            help: "1 once a runtime fault flipped the server to the sequential path".to_string(),
            value: u64::from(gauges.degraded),
        });
        snap.gauges.push(GaugeSample {
            name: "serve_recorder_dropped_events".to_string(),
            help: "Timeline events lost to flight-recorder ring wrap".to_string(),
            value: self.recorder.dropped_events(),
        });
        snap.histograms = self.registry.snapshot().histograms;
        snap
    }

    /// Flight-recorder export: Perfetto JSON of the recent past.
    pub fn dump(&self) -> String {
        self.recorder.dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_trace::metrics::lint_prometheus;

    fn sample_counters() -> CounterSnapshot {
        CounterSnapshot {
            conns_accepted: 4,
            conns_rejected: 1,
            requests: 10,
            ok: 7,
            overloaded: 1,
            expired: 1,
            errors: 1,
            shed_expired: 1,
            coalesced: 2,
            dispatches: 5,
            degraded_dispatches: 0,
            protocol_errors: 3,
        }
    }

    #[test]
    fn snapshot_mirrors_counter_views_exactly() {
        let m = ServeMetrics::new(2);
        let snap = m.snapshot(&sample_counters(), &GaugeReadings::default());
        assert_eq!(snap.counter("serve_requests_total"), Some(10));
        assert_eq!(snap.counter("serve_ok_total"), Some(7));
        assert_eq!(snap.counter("serve_overloaded_total"), Some(1));
        assert_eq!(snap.counter("serve_expired_total"), Some(1));
        assert_eq!(snap.counter("serve_errors_total"), Some(1));
        assert_eq!(snap.counter("serve_protocol_errors_total"), Some(3));
        // The conservation law holds inside the snapshot because the
        // counters are views over one accounting surface.
        assert_eq!(
            snap.counter("serve_requests_total").unwrap(),
            snap.counter("serve_ok_total").unwrap()
                + snap.counter("serve_overloaded_total").unwrap()
                + snap.counter("serve_expired_total").unwrap()
                + snap.counter("serve_errors_total").unwrap()
        );
    }

    #[test]
    fn gauges_reflect_readings() {
        let m = ServeMetrics::new(1);
        let snap = m.snapshot(
            &sample_counters(),
            &GaugeReadings {
                conn_queue_depth: 3,
                exec_queue_depth: 9,
                degraded: true,
            },
        );
        assert_eq!(snap.gauge("serve_conn_queue_depth"), Some(3));
        assert_eq!(snap.gauge("serve_exec_queue_depth"), Some(9));
        assert_eq!(snap.gauge("serve_degraded"), Some(1));
        assert_eq!(snap.gauge("serve_recorder_dropped_events"), Some(0));
    }

    #[test]
    fn prometheus_exposition_lints_clean() {
        let m = ServeMetrics::new(2);
        m.record(REQUEST_SECONDS, 0, Duration::from_micros(120));
        m.record(PARSE_SECONDS, 1, Duration::from_micros(4));
        m.record_size(COALESCE_SIZE, m.dispatcher_lane(), 3);
        let snap = m.snapshot(&sample_counters(), &GaugeReadings::default());
        lint_prometheus(&snap.to_prometheus()).expect("serve exposition lints clean");
    }

    #[test]
    fn recorded_phases_appear_in_histograms() {
        let m = ServeMetrics::new(2);
        for w in 0..2 {
            m.record(REQUEST_SECONDS, w, Duration::from_micros(100 + w as u64));
        }
        let snap = m.snapshot(&sample_counters(), &GaugeReadings::default());
        let h = snap.histogram(REQUEST_SECONDS).expect("present");
        assert_eq!(h.count, 2);
        h.validate().expect("valid layout");
    }

    #[test]
    fn json_snapshot_roundtrips() {
        let m = ServeMetrics::new(1);
        m.record(REQUEST_SECONDS, 0, Duration::from_micros(50));
        let snap = m.snapshot(&sample_counters(), &GaugeReadings::default());
        let back = MetricsSnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(back, snap);
    }
}
