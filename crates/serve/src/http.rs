//! A zero-dependency scrape endpoint for a serving [`Fleet`].
//!
//! [`ObsServer`] binds a `std::net::TcpListener` and answers two routes:
//!
//! - `GET /metrics` — the process metrics registry in Prometheus text
//!   exposition format 0.0.4 ([`pmu_obs::prometheus_text`]), plus one
//!   `serve_feed_mode{session="grid/fN"}` gauge line per open feed
//!   (0 healthy, 1 degraded, 2 dark).
//! - `GET /health` — a JSON document with the served systems, per-grid
//!   provenance, per-shard load counters (inflight, drained, shed, p99
//!   push latency, drain rate), active session count, detect-latency and
//!   per-stage quantiles, shortlist hit/fallback counts, and one entry
//!   per feed (mode, pushed, rejected, missing, events, alarm state).
//!
//! The server is deliberately minimal: blocking accept loop on one
//! thread, one request per connection (`Connection: close`), no
//! keep-alive, no TLS, HTTP/1.0-style responses. It exists so `serve
//! --listen` can be scraped by Prometheus or `curl` without pulling a
//! web framework into a `std`-only workspace; it is not a general web
//! server and must only be bound to trusted interfaces. Both directions
//! of each connection carry timeouts (500 ms read, 2 s write), so a
//! client that connects and stalls — or reads its response at a crawl —
//! delays later scrapes by at most that bound instead of wedging the
//! accept loop forever.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::fleet::Fleet;
use crate::session::SessionHealth;

/// Metric names whose quantiles `/health` reports, with the JSON keys
/// they surface under.
const HEALTH_QUANTILE_METRICS: &[(&str, &str)] = &[
    ("serve.detect_latency_us", "detect_latency_us"),
    ("detect.stage1_us", "stage1_us"),
    ("detect.stage2_us", "stage2_us"),
    ("detect.stage3_us", "stage3_us"),
];

/// `(label, health)` for every open feed, sorted by (grid, feed).
fn labelled_healths(fleet: &Fleet) -> Vec<(String, SessionHealth)> {
    fleet.feed_healths().into_iter().map(|(key, h)| (fleet.feed_label(key), h)).collect()
}

/// A running scrape endpoint. Dropping the handle stops the accept loop
/// and joins the serving thread.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl ObsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9464`; port `0` picks a free port)
    /// and start answering scrapes against `fleet` on a background
    /// thread.
    ///
    /// # Errors
    /// Propagates the bind failure (`EADDRINUSE`, privileged port, …).
    pub fn bind_fleet(addr: &str, fleet: Arc<Fleet>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Poll the stop flag between accepts instead of blocking forever:
        // a short accept timeout keeps shutdown prompt without spinning.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_seen = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("pmu-obs-http".into())
            .spawn(move || {
                while !stop_seen.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            pmu_obs::counter!("serve.http_requests").inc();
                            if let Err(e) = handle_connection(stream, &fleet) {
                                pmu_obs::counter!("serve.http_errors").inc();
                                pmu_obs::info(&format!("obs endpoint error: {e}"));
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
            })?;
        Ok(ObsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the accept loop to stop and join the serving thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read one request, route it, write one response, close. Both
/// directions are bounded: a stalled sender trips the 500 ms read
/// timeout, a non-draining receiver the 2 s write timeout — either way
/// the single accept loop gets its thread back and later scrapes
/// proceed (pinned by `slow_clients_cannot_block_subsequent_scrapes`).
fn handle_connection(mut stream: TcpStream, fleet: &Fleet) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 2048];
    let n = stream.read(&mut buf)?;
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");

    let (status, content_type, body) = match path {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", metrics_body(fleet)),
        "/health" => ("200 OK", "application/json", health_body(fleet)),
        _ => ("404 Not Found", "text/plain", String::from("not found\n")),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// The `/metrics` payload: the registry exposition plus per-feed
/// feed-mode gauges (labelled series do not fit the scalar registry).
fn metrics_body(fleet: &Fleet) -> String {
    let mut out = pmu_obs::prometheus_text();
    let sessions = labelled_healths(fleet);
    if !sessions.is_empty() {
        out.push_str("# TYPE serve_feed_mode gauge\n");
        out.push_str("# HELP serve_feed_mode Per-session degraded-mode state (0 healthy, 1 degraded, 2 dark).\n");
        for (label, health) in &sessions {
            out.push_str(&format!(
                "serve_feed_mode{{session=\"{label}\"}} {}\n",
                health.mode.code()
            ));
        }
    }
    out
}

/// The `/health` payload: hand-written JSON (the workspace has no serde)
/// via the same escaping helper the trace sink uses.
fn health_body(fleet: &Fleet) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');
    let systems: Vec<&str> =
        fleet.grids().iter().map(|&(id, _)| fleet.grid_system(id)).collect();
    push_str_field(&mut out, "system", &systems.join(","));
    out.push_str(",\"grids\":[");
    for (i, (id, name)) in fleet.grids().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_str_field(&mut out, "name", name);
        out.push(',');
        push_str_field(&mut out, "system", fleet.grid_system(id));
        out.push(',');
        push_str_field(&mut out, "fingerprint", fleet.grid_fingerprint(id));
        out.push_str(&format!(",\"nodes\":{}}}", fleet.grid_nodes(id)));
    }
    out.push(']');
    out.push_str(",\"shards\":[");
    for (i, s) in fleet.shard_stats().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"shard\":{},\"sessions\":{},\"inflight\":{},\"drained\":{},\
             \"shed\":{},\"push_p99_us\":{},\"drain_rate\":{}}}",
            s.shard,
            s.sessions,
            s.inflight,
            s.drained,
            s.shed,
            json_f64(s.push_p99_us),
            json_f64(s.drain_rate),
        ));
    }
    out.push(']');
    let sessions = labelled_healths(fleet);
    out.push_str(&format!(",\"sessions_active\":{}", sessions.len()));
    out.push_str(&format!(",\"incident_dumps\":{}", fleet.incident_dumps_written()));

    out.push_str(",\"detect\":{");
    for (i, (metric, key)) in HEALTH_QUANTILE_METRICS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // The `histogram!` macro caches per call site, which would pin
        // this loop to its first metric — use the registry function.
        let h = pmu_obs::metrics::histogram(metric);
        out.push_str(&format!(
            "\"{key}\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            h.count(),
            json_f64(h.quantile(0.5)),
            json_f64(h.quantile(0.9)),
            json_f64(h.quantile(0.99)),
        ));
    }
    out.push_str(&format!(
        ",\"shortlist_hits\":{},\"shortlist_fallbacks\":{}",
        pmu_obs::counter!("detect.shortlist_hits").get(),
        pmu_obs::counter!("detect.shortlist_fallbacks").get(),
    ));
    out.push('}');

    out.push_str(",\"sessions\":[");
    for (i, (label, h)) in sessions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_str_field(&mut out, "id", label);
        out.push(',');
        push_str_field(&mut out, "mode", h.mode.label());
        out.push_str(&format!(
            ",\"pushed\":{},\"rejected\":{},\"samples_seen\":{},\"missing_samples\":{},\
             \"bad_data_samples\":{},\"events_raised\":{},\"events_cleared\":{},\
             \"alarm_streak\":{},\"active\":{}}}",
            h.pushed,
            h.rejected,
            h.snapshot.samples_seen,
            h.snapshot.missing_samples,
            h.snapshot.bad_data_samples,
            h.snapshot.events_raised,
            h.snapshot.events_cleared,
            h.snapshot.alarm_streak,
            h.snapshot.active,
        ));
    }
    out.push_str("]}");
    out
}

/// Append `"key":"escaped value"` to a JSON object under construction.
fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    let escaped: String = value
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    out.push('"');
    out.push_str(&escaped);
    out.push('"');
}

/// JSON has no NaN/Infinity literals; an empty histogram reports `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("null")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::fleet::{FeedKey, FleetConfig};
    use pmu_baseline::MlrConfig;
    use pmu_detect::detector::default_config_for;
    use pmu_sim::{generate_dataset, GenConfig};
    use std::time::Instant;

    fn tiny_bundle() -> pmu_model::ModelBundle {
        let net = pmu_grid::cases::ieee14().unwrap();
        let gen = GenConfig { train_len: 10, test_len: 6, ..GenConfig::default() };
        let data = generate_dataset(&net, &gen).unwrap();
        pmu_model::ModelBundle::train(&data, &gen, &default_config_for(&data.network), &MlrConfig::default())
            .unwrap()
    }

    /// One full scrape: request `path`, drain the response, return it.
    fn scrape(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut body = String::new();
        let _ = stream.read_to_string(&mut body);
        body
    }

    /// Satellite regression: the endpoint serves one connection at a
    /// time, so a client that connects and then stalls (sends nothing)
    /// used to be able to wedge the accept loop for as long as it
    /// pleased. The per-connection read/write timeouts bound the damage:
    /// a well-behaved scrape issued *behind* two misbehaving clients
    /// must still complete, promptly.
    #[test]
    fn slow_clients_cannot_block_subsequent_scrapes() {
        let mut fleet = Fleet::new(FleetConfig::default());
        fleet.add_grid("ieee14", tiny_bundle(), &EngineConfig::default()).unwrap();
        let server = ObsServer::bind_fleet("127.0.0.1:0", Arc::new(fleet)).unwrap();
        let addr = server.addr();

        // Client 1 connects and never sends a byte: the 500 ms read
        // timeout must reclaim the serving thread.
        let stalled = TcpStream::connect(addr).unwrap();
        // Client 2 sends a torn request prefix and goes silent.
        let mut torn = TcpStream::connect(addr).unwrap();
        torn.write_all(b"GET /met").unwrap();

        // The scrape queued behind both must complete within a couple of
        // read-timeout budgets, not hang until the rude clients leave.
        let t0 = Instant::now();
        let response = scrape(addr, "/metrics");
        let elapsed = t0.elapsed();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "got: {response:.100?}");
        assert!(
            response.contains("serve_http_requests"),
            "registry exposition missing from body"
        );
        assert!(
            elapsed < Duration::from_secs(4),
            "scrape behind stalled clients took {elapsed:?}"
        );
        drop(stalled);
        drop(torn);
    }

    #[test]
    fn fleet_endpoint_reports_grids_shards_and_feed_modes() {
        let mut fleet = Fleet::new(FleetConfig { shards: 2, ..FleetConfig::default() });
        let bundle = tiny_bundle();
        let east = fleet.add_grid("east", bundle.clone(), &EngineConfig::default()).unwrap();
        let west = fleet.add_grid("west", bundle, &EngineConfig::default()).unwrap();
        let fleet = Arc::new(fleet);
        fleet.open_feed(FeedKey { grid: east, feed: 0 }).unwrap();
        fleet.open_feed(FeedKey { grid: west, feed: 3 }).unwrap();

        let server = ObsServer::bind_fleet("127.0.0.1:0", Arc::clone(&fleet)).unwrap();
        let health = scrape(server.addr(), "/health");
        assert!(health.contains("\"system\":\"ieee14,ieee14\""), "got: {health}");
        assert!(health.contains("\"name\":\"east\""));
        assert!(health.contains("\"name\":\"west\""));
        assert!(health.contains("\"sessions_active\":2"));
        assert!(health.contains("\"shards\":[{\"shard\":0,"));
        assert!(health.contains("\"id\":\"east/f0\""));
        assert!(health.contains("\"id\":\"west/f3\""));
        assert!(health.contains("\"bad_data_samples\":0"), "got: {health}");

        let metrics = scrape(server.addr(), "/metrics");
        assert!(metrics.contains("serve_feed_mode{session=\"east/f0\"} 0"));
        assert!(metrics.contains("serve_feed_mode{session=\"west/f3\"} 0"));

        let miss = scrape(server.addr(), "/nope");
        assert!(miss.starts_with("HTTP/1.1 404"));
    }
}
