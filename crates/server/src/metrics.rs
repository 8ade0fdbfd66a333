//! Telemetry export surfaces: the `metrics` wire op's JSON shape and
//! the Prometheus sidecar endpoint (`dpcq serve --metrics-addr`).
//!
//! Both surfaces render the *same* registry snapshot
//! ([`dpcq_obs::snapshot`]) the `stats` frame sources its telemetry
//! fields from, so a scrape, a `metrics` frame, and a `stats` frame
//! taken back-to-back always tell one story. Everything exported is
//! timings, counts, and ε totals — the registry cannot hold anything
//! else (invariants P1–P3; `dpa check` rule R6 enforces the call
//! sites).
//!
//! The HTTP endpoint is deliberately minimal: plain `std::net`, one
//! nonblocking accept loop on a sidecar thread, any request answered
//! with the full exposition and `Connection: close`. It polls the
//! server's shutdown flag so `shutdown` retires it alongside the accept
//! loop.

use crate::server::Server;
use dpcq_wire::Json;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// The registry snapshot as one JSON object — the `metrics` op's
/// payload. Histogram buckets render as `[upper_bound_ns, cumulative]`
/// pairs with `null` standing in for the `+Inf` bound.
pub fn snapshot_json(snap: &dpcq_obs::Snapshot) -> Json {
    let counter_obj = |table: &[(&'static str, u64)]| {
        Json::Obj(
            table
                .iter()
                .map(|&(name, n)| (name.to_string(), Json::Int(n as i128)))
                .collect(),
        )
    };
    let caches = |hits: bool| {
        Json::Obj(
            snap.caches
                .iter()
                .map(|c| {
                    let n = if hits { c.hits } else { c.misses };
                    (c.name.to_string(), Json::Int(n as i128))
                })
                .collect(),
        )
    };
    let stages = Json::Obj(
        snap.stages
            .iter()
            .map(|s| {
                let buckets = Json::Arr(
                    s.cumulative
                        .iter()
                        .map(|&(bound, cum)| {
                            let bound = if bound == u64::MAX {
                                Json::Null
                            } else {
                                Json::Int(bound as i128)
                            };
                            Json::Arr(vec![bound, Json::Int(cum as i128)])
                        })
                        .collect(),
                );
                (
                    s.stage.to_string(),
                    Json::Obj(vec![
                        ("count".to_string(), Json::Int(s.count as i128)),
                        ("sum_ns".to_string(), Json::Int(s.sum_ns as i128)),
                        ("buckets".to_string(), buckets),
                    ]),
                )
            })
            .collect(),
    );
    Json::Obj(vec![
        ("uptime_ms".to_string(), Json::Int(snap.uptime_ms as i128)),
        ("requests_total".to_string(), counter_obj(&snap.requests)),
        (
            "errors_total".to_string(),
            Json::Int(snap.errors_total as i128),
        ),
        ("cache_hits_total".to_string(), caches(true)),
        ("cache_misses_total".to_string(), caches(false)),
        ("events_total".to_string(), counter_obj(&snap.events)),
        ("gauges".to_string(), counter_obj(&snap.gauges)),
        (
            "epsilon_spent_total".to_string(),
            Json::Num(snap.epsilon_spent),
        ),
        ("stages".to_string(), stages),
    ])
}

/// Binds `addr` and spawns the Prometheus exposition thread. Returns
/// the bound address (callers pass port 0 in tests). The thread answers
/// every connection with one `200 text/plain; version=0.0.4` response
/// and exits within one poll interval of the server's shutdown flag.
pub(crate) fn spawn_exporter(server: Arc<Server>, addr: &str) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    std::thread::spawn(move || {
        while !server.is_shut_down() {
            match listener.accept() {
                Ok((stream, _)) => serve_scrape(stream),
                // Nonblocking accept: idle-poll so the shutdown flag is
                // observed without a waker connection.
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    });
    Ok(bound)
}

fn serve_scrape(mut stream: std::net::TcpStream) {
    // One best-effort read drains the request head; the exposition is
    // the answer to any request on this port, so nothing is parsed.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut head = [0u8; 1024];
    let _ = stream.read(&mut head);
    // Head and body go out in one write.
    let body = dpcq_obs::prometheus_text();
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_lists_every_section() {
        let json = snapshot_json(&dpcq_obs::snapshot());
        for section in [
            "uptime_ms",
            "requests_total",
            "errors_total",
            "cache_hits_total",
            "cache_misses_total",
            "events_total",
            "gauges",
            "epsilon_spent_total",
            "stages",
        ] {
            assert!(json.get(section).is_some(), "missing section {section}");
        }
        // Round-trips through the wire grammar.
        let rendered = json.render_compact();
        let parsed = Json::parse(&rendered).unwrap();
        assert!(parsed.get("errors_total").is_some());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn snapshot_json_buckets_are_cumulative_with_inf_last() {
        dpcq_obs::observe_stage_ns(dpcq_obs::Stage::Flush, 5_000);
        let json = snapshot_json(&dpcq_obs::snapshot());
        let stages = json.get("stages").unwrap();
        let flush = stages.get("flush").expect("flush stage listed");
        let count = flush.get("count").and_then(Json::as_i128).unwrap();
        let buckets = flush.get("buckets").and_then(Json::as_array).unwrap();
        assert!(!buckets.is_empty());
        let mut prev = 0;
        for pair in buckets {
            let entry = pair.as_array().unwrap();
            let cum = entry[1].as_i128().unwrap();
            assert!(cum >= prev, "cumulative counts never decrease");
            prev = cum;
        }
        let last = buckets.last().unwrap().as_array().unwrap();
        assert_eq!(last[0], Json::Null, "+Inf bound renders as null");
        assert_eq!(last[1].as_i128(), Some(count), "+Inf bucket == count");
    }
}
