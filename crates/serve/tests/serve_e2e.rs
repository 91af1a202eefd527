//! End-to-end service tests over real sockets: boot a server on an
//! ephemeral port, drive it with the in-repo client, and check the
//! result-cache semantics the service promises — byte-identical hits,
//! no cross-key collisions, single-flight, backpressure, and response
//! bytes identical to the CLI's golden-pinned `--json` output.

use mstacks_serve::client::Client;
use mstacks_serve::{Server, ServerConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn small_server() -> (mstacks_serve::ServerHandle, Client) {
    let handle = Server::spawn(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let client = Client::connect(handle.addr()).expect("connect");
    (handle, client)
}

#[test]
fn healthz_and_stats_respond() {
    let (handle, mut c) = small_server();
    let h = c.get("/healthz").unwrap();
    assert_eq!((h.status, h.body.as_str()), (200, "{\"ok\":true}"));
    let s = c.get("/v1/stats").unwrap();
    assert_eq!(s.status, 200);
    assert!(s.body.contains("\"cache\""), "{}", s.body);
    assert!(s.body.contains("\"pool\""), "{}", s.body);
    handle.shutdown();
}

#[test]
fn simulate_hit_is_byte_identical_to_its_miss() {
    let (handle, mut c) = small_server();
    let body = r#"{"workload":"mcf","core":"bdw","uops":20000}"#;
    let miss = c.post("/v1/simulate", body).unwrap();
    assert_eq!(miss.status, 200, "{}", miss.body);
    assert_eq!(miss.header("X-Cache"), Some("miss"));
    // The audit member is part of the schema even with no audit.
    assert!(miss.body.contains("\"audit\":null"), "{}", miss.body);
    let hit = c.post("/v1/simulate", body).unwrap();
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("X-Cache"), Some("hit"));
    assert_eq!(hit.body, miss.body, "hit must replay the exact miss bytes");
    handle.shutdown();
}

#[test]
fn response_bytes_match_the_cli_json_schema() {
    // The serve path and the CLI must serialize the same report through
    // the same emitter: compare against an in-process run of the same
    // pipeline the CLI uses for `simulate --json`.
    use mstacks_core::{jsonfmt, Session};
    use mstacks_model::coretab;
    use mstacks_workloads::{spec, SharedTraceBuffer, TraceBuffer};

    let (handle, mut c) = small_server();
    let got = c
        .post(
            "/v1/simulate",
            r#"{"workload":"lbm","core":"skx","uops":20000}"#,
        )
        .unwrap();
    assert_eq!(got.status, 200, "{}", got.body);
    let cfg = coretab::builtin("skx").unwrap();
    let buf = TraceBuffer::capture(&spec::lbm(), 20_000).shared();
    let report = Session::new(cfg).run(buf.cursor()).expect("runs");
    let want = jsonfmt::sim_report(&report, None);
    assert_eq!(got.body, want, "service bytes must equal the CLI emitter");
    handle.shutdown();
}

#[test]
fn distinct_flags_plans_and_cores_get_distinct_entries() {
    let (handle, mut c) = small_server();
    let variants = [
        r#"{"workload":"mcf","uops":20000}"#,
        r#"{"workload":"mcf","uops":20000,"ideal":"dcache"}"#,
        r#"{"workload":"mcf","uops":20000,"ideal":"bpred"}"#,
        r#"{"workload":"mcf","uops":20000,"sample":"500:1500:8000"}"#,
        r#"{"workload":"mcf","uops":20000,"core":"knl"}"#,
    ];
    let mut bodies = Vec::new();
    for v in variants {
        let r = c.post("/v1/simulate", v).unwrap();
        assert_eq!(r.status, 200, "{v}: {}", r.body);
        assert_eq!(r.header("X-Cache"), Some("miss"), "{v} must not collide");
        bodies.push(r.body);
    }
    for i in 0..bodies.len() {
        for j in i + 1..bodies.len() {
            assert_ne!(bodies[i], bodies[j], "distinct requests, distinct results");
        }
    }
    handle.shutdown();
}

#[test]
fn corun_endpoint_returns_the_corun_schema() {
    let (handle, mut c) = small_server();
    let r = c
        .post("/v1/corun", r#"{"workloads":["mcf","lbm"],"uops":20000}"#)
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"cores\":["), "{}", r.body);
    assert!(r.body.contains("\"interference_cycles\""), "{}", r.body);
    assert!(r.body.contains("\"shared\""), "{}", r.body);
    // Bad arity is a 400, not a 500.
    let bad = c.post("/v1/corun", r#"{"workloads":["mcf"]}"#).unwrap();
    assert_eq!(bad.status, 400);
    handle.shutdown();
}

#[test]
fn sweep_lattice_rides_the_cache() {
    let (handle, mut c) = small_server();
    // The 16-subset IdealFlags lattice, twice: the second pass must be
    // all hits, so the overall hit rate is ≥ 50%.
    let flags = ["icache", "dcache", "bpred", "alu"];
    let mut points = Vec::new();
    for mask in 0..16u32 {
        let list: Vec<&str> = flags
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, f)| *f)
            .collect();
        points.push(format!(
            r#"{{"workload":"mcf","uops":15000,"ideal":"{}"}}"#,
            list.join(",")
        ));
    }
    let body = format!(r#"{{"points":[{}]}}"#, points.join(","));
    let first = c.post("/v1/sweep", &body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("X-Cache-Misses"), Some("16"));
    let second = c.post("/v1/sweep", &body).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Cache-Hits"), Some("16"), "all warm");
    assert_eq!(second.body, first.body, "sweep hits replay the same bytes");
    handle.shutdown();
}

#[test]
fn concurrent_identical_requests_simulate_once() {
    let (handle, _c) = small_server();
    let addr = handle.addr();
    let bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let r = c
                        .post("/v1/simulate", r#"{"workload":"bwaves","uops":40000}"#)
                        .unwrap();
                    assert_eq!(r.status, 200, "{}", r.body);
                    r.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0]);
    }
    let stats = handle.stats_json();
    // Single-flight: exactly one cache miss across the 6 requests.
    assert!(
        stats.contains("\"cache\":{\"hits\":5,\"misses\":1"),
        "{stats}"
    );
    handle.shutdown();
}

#[test]
fn over_budget_requests_get_429_with_retry_after() {
    // A tiny debt budget and no fast lane: the second big request must
    // be rejected while the first is still running.
    let handle = Server::spawn(ServerConfig {
        shards: 1,
        debt_budget_uops: 600_000,
        fast_lane_uops: 0,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        // 500k µops of detailed simulation holds the debt for a while.
        c.post("/v1/simulate", r#"{"workload":"mcf","uops":500000}"#)
            .unwrap()
    });
    // Wait until the big job is actually admitted (debt outstanding)
    // before probing, so the probe can't win the race and reject *it*.
    let mut stats = Client::connect(addr).unwrap();
    for _ in 0..500 {
        let s = stats.get("/v1/stats").unwrap().body;
        if !s.contains("\"debt_uops\":0}") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    // Keep poking until we observe the debt window. Every probe uses a
    // fresh µop count (fresh cache key), so each one actually reaches
    // admission control instead of hitting the cache.
    let mut rejected = None;
    for i in 0..100u64 {
        let mut c = Client::connect(addr).unwrap();
        let r = c
            .post(
                "/v1/simulate",
                &format!(r#"{{"workload":"lbm","uops":{}}}"#, 400_000 + i),
            )
            .unwrap();
        if r.status == 429 {
            rejected = Some(r);
            break;
        }
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let r = rejected.expect("saw a 429 while the big job held the debt");
    let retry: u64 = r
        .header("Retry-After")
        .expect("429 carries Retry-After")
        .parse()
        .expect("integer seconds");
    assert!(retry >= 1);
    assert!(r.body.contains("\"error\""), "{}", r.body);
    assert_eq!(slow.join().unwrap().status, 200);
    handle.shutdown();
}

#[test]
fn small_requests_ride_the_fast_lane_past_a_busy_queue() {
    let handle = Server::spawn(ServerConfig {
        shards: 1,
        debt_budget_uops: 2_000_000,
        fast_lane_uops: 50_000,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    // Park the single shard worker on a long cold run…
    let big = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.post("/v1/simulate", r#"{"workload":"cactus","uops":1500000}"#)
            .unwrap()
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    // …and watch a small interactive query finish long before it.
    let mut c = Client::connect(addr).unwrap();
    let t = std::time::Instant::now();
    let small = c
        .post("/v1/simulate", r#"{"workload":"exchange2","uops":20000}"#)
        .unwrap();
    let small_latency = t.elapsed();
    assert_eq!(small.status, 200, "{}", small.body);
    assert!(
        small_latency < std::time::Duration::from_secs(2),
        "fast lane latency {small_latency:?}"
    );
    let stats = handle.stats_json();
    assert!(stats.contains("\"fast_lane\":1"), "{stats}");
    assert_eq!(big.join().unwrap().status, 200);
    handle.shutdown();
}

#[test]
fn bad_requests_are_400s_and_unknown_routes_404() {
    let (handle, mut c) = small_server();
    assert_eq!(c.post("/v1/simulate", "not json").unwrap().status, 400);
    assert_eq!(
        c.post("/v1/simulate", r#"{"workload":"nope"}"#)
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        c.post("/v1/simulate", r#"{"workload":"mcf","core":"p4"}"#)
            .unwrap()
            .status,
        400
    );
    assert_eq!(c.post("/v1/nope", "{}").unwrap().status, 404);
    assert_eq!(c.get("/nope").unwrap().status, 404);
    handle.shutdown();
}

/// One response split off the front of raw bytes read from a socket.
struct Message {
    status: u16,
    head: String,
    body: Vec<u8>,
}

impl Message {
    fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

/// Parses one well-framed HTTP/1.1 response off the front of `raw`
/// (status line, headers, exactly one `Content-Length`, then that many
/// body bytes) and returns it with the bytes after it, or `None` when
/// `raw` does not hold a whole message yet.
fn split_message(raw: &[u8]) -> Option<(Message, &[u8])> {
    let end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8(raw[..end].to_vec()).expect("ASCII head");
    let status_line = head.lines().next().expect("status line");
    assert!(status_line.starts_with("HTTP/1.1 "), "{status_line:?}");
    let status = status_line[9..12].parse().expect("status code");
    let lengths: Vec<usize> = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .filter(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.trim().parse().expect("numeric Content-Length"))
        .collect();
    assert_eq!(lengths.len(), 1, "exactly one Content-Length in {head:?}");
    let body_start = end + 4;
    let body_end = body_start + lengths[0];
    if raw.len() < body_end {
        return None;
    }
    let msg = Message {
        status,
        head,
        body: raw[body_start..body_end].to_vec(),
    };
    Some((msg, &raw[body_end..]))
}

/// Sends `request` on a kept-alive connection and reads exactly one
/// response; nothing may follow it.
fn exchange(s: &mut TcpStream, request: &str) -> Message {
    s.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((msg, rest)) = split_message(&raw) {
            assert!(rest.is_empty(), "bytes past the message: {rest:?}");
            // No stray bytes arrive after a complete message either.
            s.set_read_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            match s.read(&mut chunk) {
                Ok(n) => assert_eq!(n, 0, "stray bytes after the message"),
                Err(e) => assert!(
                    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "{e}"
                ),
            }
            s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            return msg;
        }
        let n = s.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed mid-message");
        raw.extend_from_slice(&chunk[..n]);
    }
}

/// Reads to EOF and splits the bytes into messages; nothing may be left.
fn read_all_messages(s: &mut TcpStream) -> Vec<Message> {
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read to EOF");
    let mut rest = &raw[..];
    let mut out = Vec::new();
    while !rest.is_empty() {
        let (msg, tail) = split_message(rest).expect("a whole message before EOF");
        out.push(msg);
        rest = tail;
    }
    out
}

fn post(path: &str, body: &str, connection: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    )
}

#[test]
fn every_response_is_one_well_framed_message() {
    let (handle, _) = small_server();
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    let sim = r#"{"workload":"mcf","core":"zen","uops":20000}"#;

    let miss = exchange(&mut s, &post("/v1/simulate", sim, ""));
    assert_eq!((miss.status, miss.header("X-Cache")), (200, Some("miss")));
    assert_eq!(miss.header("Connection"), Some("keep-alive"));
    let hit = exchange(&mut s, &post("/v1/simulate", sim, ""));
    assert_eq!((hit.status, hit.header("X-Cache")), (200, Some("hit")));
    assert_eq!(hit.body, miss.body, "hit bytes equal the miss bytes");
    assert_eq!(hit.head, miss.head.replace("X-Cache: miss", "X-Cache: hit"));

    let bad_json = exchange(&mut s, &post("/v1/simulate", "not json", ""));
    assert_eq!(bad_json.status, 400);
    assert!(bad_json.body.starts_with(b"{\"error\":"));
    let not_found = exchange(&mut s, &post("/v1/nope", "{}", ""));
    assert_eq!(not_found.status, 404);

    // The connection survived all of the above; a close request gets one
    // last message and then EOF.
    s.write_all(post("/v1/simulate", sim, "Connection: close\r\n").as_bytes())
        .unwrap();
    let last = read_all_messages(&mut s);
    assert_eq!(last.len(), 1);
    assert_eq!(
        (last[0].status, last[0].header("X-Cache")),
        (200, Some("hit"))
    );
    assert_eq!(last[0].header("Connection"), Some("close"));
    assert_eq!(last[0].body, miss.body);

    // A malformed request line is a 400 that closes the connection.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let bad = read_all_messages(&mut s);
    assert_eq!(bad.len(), 1);
    assert_eq!(bad[0].status, 400);
    assert_eq!(bad[0].header("Connection"), Some("close"));
    handle.shutdown();
}

#[test]
fn pipelined_keep_alive_requests_are_answered_in_order() {
    let (handle, _) = small_server();
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    let sim = r#"{"workload":"lbm","core":"bdw","uops":20000}"#;
    // Three requests in one write: a miss, a probe, and a closing 404.
    let batch = [
        post("/v1/simulate", sim, ""),
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_string(),
        "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_string(),
    ]
    .concat();
    s.write_all(batch.as_bytes()).unwrap();
    let got = read_all_messages(&mut s);
    assert_eq!(got.len(), 3, "one response per request, then EOF");
    assert_eq!(
        (got[0].status, got[0].header("X-Cache")),
        (200, Some("miss"))
    );
    assert!(got[0].body.starts_with(b"{"), "simulate schema first");
    assert_eq!(
        (got[1].status, &got[1].body[..]),
        (200, &b"{\"ok\":true}"[..])
    );
    assert_eq!(got[2].status, 404);
    assert_eq!(got[2].header("Connection"), Some("close"));
    for m in &got[..2] {
        assert_eq!(m.header("Connection"), Some("keep-alive"));
    }
    handle.shutdown();
}
