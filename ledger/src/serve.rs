//! The `serve` workload: an in-process `mstacks serve` driven closed-loop
//! by keep-alive clients over a seeded mix of cache hits and fresh keys.
//!
//! Four requests in five come from a 16-key hot set primed during set-up,
//! so they replay cached bytes and never reach the engine; one in five is
//! a key never asked before, above the fast-lane cutoff, so it passes
//! shard admission and simulates. Fresh keys come in quads that share a
//! profile and a new µop count: the first of each quad misses the capture
//! registry, the other three hit it.

use crate::harness::{end_to_end, shuffle, timed_loop, Ctx, HostClock, Phase};
use crate::metrics::Outcome;
use crate::probes::{self, Solo};
use crate::spans::{self, Tracer};
use crate::stats::median;
use mstacks_core::{jsonfmt, Session};
use mstacks_model::{coretab, rng::SmallRng};
use mstacks_serve::client::{Client, Response};
use mstacks_serve::jsonin::{self, Value};
use mstacks_serve::request::Request;
use mstacks_serve::{Server, ServerConfig, ServerHandle};
use mstacks_workloads::{spec, SharedTraceBuffer, TraceBuffer};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// µops of a hot-set request; fresh keys use `SERVE_UOPS + 1 + quad`.
/// Both are above the service's 100k fast-lane cutoff.
pub const SERVE_UOPS: u64 = 120_000;
pub const HOT_KEYS: usize = 16;
const PROFILES: [&str; 4] = ["mcf", "lbm", "gcc", "xz"];
const CORES: [&str; 4] = ["bdw", "skx", "zen", "knl"];
const IDEALS: [&str; 4] = ["icache", "dcache", "bpred", "alu"];
/// Fresh-key responses recomputed in-process after timing (with the 16
/// primed hot-set responses: 32 bodies compared byte for byte).
const CHECKED_FRESH: usize = 16;
/// Requests generated per run; far more than a run can send.
const STREAM_LEN: usize = 100_000;

/// One `/v1/simulate` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    profile: usize,
    core: usize,
    /// Bit i set = `IDEALS[i]` idealized.
    ideal: usize,
    pub uops: u64,
}

impl Key {
    pub fn body(&self) -> String {
        let ideal: Vec<&str> = (0..IDEALS.len())
            .filter(|i| self.ideal & (1 << i) != 0)
            .map(|i| IDEALS[i])
            .collect();
        format!(
            r#"{{"workload":"{}","core":"{}","uops":{},"ideal":"{}"}}"#,
            PROFILES[self.profile],
            CORES[self.core],
            self.uops,
            ideal.join(",")
        )
    }
}

/// Hot key `k`: every profile on every core, no idealization.
pub fn hot(k: usize) -> Key {
    Key {
        profile: k % PROFILES.len(),
        core: k / PROFILES.len(),
        ideal: 0,
        uops: SERVE_UOPS,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Hot(usize),
    Fresh(usize),
}

/// The seeded request stream and its fresh keys, in first-use order.
#[derive(Debug, PartialEq)]
pub struct Stream {
    pub reqs: Vec<Req>,
    pub fresh: Vec<Key>,
}

/// `n` requests in blocks of five: four hot keys and one fresh key at a
/// seeded position. Every 16 fresh keys cover each profile × core pair
/// once and each ideal-flag subset once, in seeded orders, so the miss
/// cost mix hardly depends on the seed.
pub fn stream(seed: u64, n: usize) -> Stream {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut reqs = Vec::with_capacity(n);
    let mut fresh: Vec<Key> = Vec::new();
    let mut profiles = [0, 1, 2, 3];
    let mut cores = [0, 1, 2, 3];
    let mut ideals: [usize; 16] = std::array::from_fn(|i| i);
    while reqs.len() < n {
        let at = rng.gen_range(0..5usize);
        for i in 0..5 {
            if reqs.len() == n {
                break;
            }
            if i != at {
                reqs.push(Req::Hot(rng.gen_range(0..HOT_KEYS)));
                continue;
            }
            let j = fresh.len();
            if j.is_multiple_of(16) {
                shuffle(&mut rng, &mut profiles);
                shuffle(&mut rng, &mut ideals);
            }
            if j.is_multiple_of(4) {
                shuffle(&mut rng, &mut cores);
            }
            let quad = j / 4;
            fresh.push(Key {
                profile: profiles[quad % 4],
                core: cores[j % 4],
                ideal: ideals[j % 16],
                uops: SERVE_UOPS + 1 + quad as u64,
            });
            reqs.push(Req::Fresh(j));
        }
    }
    Stream { reqs, fresh }
}

/// One timed request.
struct Sample {
    req: Req,
    start: Instant,
    end: Instant,
    error: Option<String>,
    /// Kept for the fresh keys recomputed after timing.
    body: Option<String>,
}

fn post(c: &mut Option<Client>, addr: SocketAddr, body: &str) -> Result<Response, String> {
    if c.is_none() {
        *c = Client::connect(addr).ok();
    }
    let r = c
        .as_mut()
        .ok_or("connect failed")?
        .post("/v1/simulate", body)
        .map_err(|e| e.to_string());
    if r.is_err() {
        *c = None;
    }
    r
}

/// Checks one response: 200, the expected `X-Cache` state, and hot-key
/// bytes identical to the primed (miss) response.
fn check(r: &Response, want_hit: bool, primed: Option<&str>) -> Option<String> {
    if r.status != 200 {
        return Some(format!("status {}: {}", r.status, r.body));
    }
    let state = if want_hit { "hit" } else { "miss" };
    if r.header("X-Cache") != Some(state) {
        return Some(format!(
            "X-Cache {:?}, expected {state}",
            r.header("X-Cache")
        ));
    }
    match primed {
        Some(p) if p != r.body => Some("hit bytes differ from the miss bytes".into()),
        _ => None,
    }
}

struct Loop<'a> {
    addr: SocketAddr,
    stream: &'a Stream,
    hot_bodies: &'a [String],
    primed: &'a [String],
    next: AtomicUsize,
}

impl Loop<'_> {
    /// One closed-loop client until `deadline`: send the next request of
    /// the stream, wait for the reply, repeat.
    fn client(&self, c: &mut Option<Client>, deadline: Instant) -> Vec<Sample> {
        let mut out = Vec::new();
        while Instant::now() < deadline {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&req) = self.stream.reqs.get(i) else {
                break;
            };
            let (body, primed) = match req {
                Req::Hot(k) => (self.hot_bodies[k].clone(), Some(self.primed[k].as_str())),
                Req::Fresh(j) => (self.stream.fresh[j].body(), None),
            };
            let start = Instant::now();
            let r = post(c, self.addr, &body);
            let end = Instant::now();
            let error = match &r {
                Ok(r) => check(r, primed.is_some(), primed),
                Err(e) => Some(e.clone()),
            };
            let keep = matches!(req, Req::Fresh(j) if j < CHECKED_FRESH);
            out.push(Sample {
                req,
                start,
                end,
                error,
                body: r.ok().filter(|_| keep).map(|r| r.body),
            });
        }
        out
    }
}

/// `(hits, misses)` of one `/v1/stats` section.
fn counters(stats: &Value, section: &str) -> (f64, f64) {
    let get = |k: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    (get("hits"), get("misses"))
}

fn stats(h: &ServerHandle) -> Value {
    jsonin::parse(&h.stats_json()).expect("/v1/stats is JSON")
}

/// The in-process twin of a served miss: parse, decode, capture, run,
/// emit — the service's compute path without HTTP, cache or pool.
fn compute(tr: &mut Tracer, body: &str, op: usize) -> Result<String, String> {
    let op = Some(op);
    let v = tr.span("serve.jsonin.parse", op, |_| jsonin::parse(body))?;
    let req = tr
        .span("serve.request.decode", op, |_| Request::simulate(&v))
        .map_err(|e| e.0)?;
    let buf = tr.span("workloads.capture", op, |_| {
        TraceBuffer::capture(&req.workloads[0], req.uops).shared()
    });
    let r = tr
        .span("core.session.run", op, |_| {
            Session::new(req.core.clone())
                .with_ideal(req.ideal)
                .run(buf.cursor())
        })
        .map_err(|e| e.to_string())?;
    Ok(tr.span("core.jsonfmt.emit", op, |_| jsonfmt::sim_report(&r, None)))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(ctx.tracing(), ctx.process_start);
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let hot_bodies: Vec<String> = (0..HOT_KEYS).map(|k| hot(k).body()).collect();
    let mut clock = HostClock::new();
    let config = ServerConfig::default();
    out.info("serve_shards", config.shards);
    out.info("clients", clients);

    // Set-up: spawn the service, prime the hot set (16 misses), then
    // three warm-up hits.
    let reps = ctx.setup_reps();
    let mut setup_s = Vec::with_capacity(reps);
    let mut primed: Vec<String> = Vec::new();
    let mut server = None;
    for rep in 0..reps {
        let t0 = if rep == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        let handle = Server::spawn(config.clone()).expect("bind an ephemeral localhost port");
        let mut c = None;
        primed = hot_bodies
            .iter()
            .map(|b| match post(&mut c, handle.addr(), b) {
                Ok(r) => {
                    if let Some(e) = check(&r, false, None) {
                        out.fail(format!("priming {b}: {e}"));
                    }
                    r.body
                }
                Err(e) => {
                    out.fail(format!("priming {b}: {e}"));
                    String::new()
                }
            })
            .collect();
        for k in 0..3 {
            match post(&mut c, handle.addr(), &hot_bodies[k]) {
                Ok(r) => {
                    if let Some(e) = check(&r, true, Some(&primed[k])) {
                        out.fail(format!("warm-up: {e}"));
                    }
                }
                Err(e) => out.fail(format!("warm-up: {e}")),
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        setup_s.push(secs * clock.factor());
        drop(c);
        if rep + 1 < reps {
            handle.shutdown();
        } else {
            server = Some(handle);
        }
    }
    let handle = server.expect("set-up ran");

    let stream = stream(ctx.seed, STREAM_LEN);
    let before = stats(&handle);
    mstacks_pipeline::stage_prof_reset();
    let lp = Loop {
        addr: handle.addr(),
        stream: &stream,
        hot_bodies: &hot_bodies,
        primed: &primed,
        next: AtomicUsize::new(0),
    };
    let mut conns: Vec<Option<Client>> = (0..clients)
        .map(|_| Client::connect(lp.addr).ok())
        .collect();
    let mut samples: Vec<Sample> = Vec::new();
    // One-second segments: each ends by draining the clients, so shorter
    // ones would cut into the queueing between concurrent misses.
    let mut timed = timed_loop(ctx, &mut clock, Duration::from_secs(1), |deadline| {
        let seg: Vec<Sample> = std::thread::scope(|s| {
            let threads: Vec<_> = conns
                .iter_mut()
                .map(|c| s.spawn(|| lp.client(c, deadline)))
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("client thread"))
                .collect()
        });
        let lat = seg
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect();
        samples.extend(seg);
        lat
    });
    drop(conns);
    if ctx.phase == Phase::Stages {
        crate::stage_metrics(&mut out, &timed.ref_lat_ms);
    }
    let after = stats(&handle);

    out.attempted = samples.len() as u64;
    let mut sim_uops = 0;
    let (mut hits, mut misses) = (0, 0);
    for s in &samples {
        match s.req {
            Req::Hot(_) => hits += 1,
            Req::Fresh(j) => {
                misses += 1;
                if s.error.is_none() {
                    sim_uops += stream.fresh[j].uops;
                }
            }
        }
        if let Some(e) = &s.error {
            out.fail(format!("request {:?}: {e}", s.req));
        }
    }
    out.info("requests", samples.len());
    out.info("hits", hits);
    out.info("misses", misses);

    // Correctness: recompute the primed hot-set bodies and the first
    // fresh misses in-process and compare bytes. A wrong primed body
    // means every hit of that key served wrong bytes.
    let mut fresh_bodies: Vec<(usize, &str)> = samples
        .iter()
        .filter_map(|s| match (s.req, &s.body) {
            (Req::Fresh(j), Some(b)) => Some((j, b.as_str())),
            _ => None,
        })
        .collect();
    fresh_bodies.sort_unstable();
    let checks = (0..HOT_KEYS)
        .map(|k| (Req::Hot(k), hot(k).body(), primed[k].as_str()))
        .chain(
            fresh_bodies
                .iter()
                .map(|&(j, b)| (Req::Fresh(j), stream.fresh[j].body(), b)),
        );
    let mut op_label = Vec::new();
    for (op, (req, body, served)) in checks.enumerate() {
        op_label.push(body.replace('"', "'"));
        let got = tr.span("serve.recompute", Some(op), |tr| compute(tr, &body, op));
        if got.as_deref() != Ok(served) {
            let served_by = samples.iter().filter(|s| s.req == req).count().max(1);
            for _ in 0..served_by {
                out.fail(format!(
                    "{req:?}: served body differs from the in-process result"
                ));
            }
        }
    }

    match ctx.phase {
        Phase::Plain => end_to_end(&mut out, &setup_s, &mut timed, sim_uops, &clock),
        Phase::Stages => {}
        Phase::Spans => {
            out.set("op_p50_ms", median(&timed.ref_lat_ms));
            let lat = |hot: bool| {
                let v: Vec<f64> = samples
                    .iter()
                    .filter(|s| matches!(s.req, Req::Hot(_)) == hot)
                    .map(|s| (s.end - s.start).as_nanos() as f64)
                    .collect();
                median(&v)
            };
            for s in &samples {
                let name = if matches!(s.req, Req::Hot(_)) {
                    "serve.hit"
                } else {
                    "serve.miss"
                };
                tr.record(name, None, s.start, s.end);
            }
            let sp = tr.spans();
            let total = |name: &str| spans::durations(sp, name).iter().sum::<f64>();
            let compute_total = total("serve.recompute");
            out.set(
                "workloads.capture.share",
                total("workloads.capture") / compute_total,
            );
            out.set(
                "core.session.share",
                total("core.session.run") / compute_total,
            );
            out.set(
                "core.jsonfmt.emit_us",
                median(&spans::durations(sp, "core.jsonfmt.emit")) / 1e3,
            );
            let compute_ns = median(&spans::durations(sp, "serve.recompute"));
            let miss_ns = lat(false);
            out.set("serve.miss.wait_share", (miss_ns - compute_ns) / miss_ns);
            let rate = |section: &str| {
                let (h0, m0) = counters(&before, section);
                let (h1, m1) = counters(&after, section);
                (h1 - h0) / ((h1 - h0) + (m1 - m0))
            };
            out.set("serve.cache.hit_rate", rate("cache"));
            out.set("workloads.registry.hit_rate", rate("registry"));

            let solos: Vec<Solo> = (0..4)
                .map(|i| Solo {
                    workload: spec::by_name(PROFILES[i]).expect("built-in profile"),
                    core: coretab::builtin(CORES[i]).expect("built-in core"),
                })
                .collect();
            probes::engine(&mut tr, &solos, &mut out);
            let front_us = probes::front(&mut tr, &hot_bodies, &mut out);
            let hit_us = lat(true) / 1e3;
            out.set("serve.hit.transport_share", (hit_us - front_us) / hit_us);
            out.set("core.sampling.detail_share", 1.0);
            out.set("core.sampling.cpi_rel_err", 0.0);
            out.set("core.corun.lockstep_overhead_frac", 0.0);
            out.set("mem.shared.interference_cycles_per_kuop", 0.0);
            crate::write_spans(ctx, &out, &op_label, tr.spans());
        }
    }
    handle.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn stream_is_seeded_with_exact_hit_and_fresh_counts() {
        let s = stream(7, 1500);
        assert_eq!(s, stream(7, 1500), "same seed, same stream");
        assert_ne!(s.reqs, stream(8, 1500).reqs, "the seed matters");
        let hits = s.reqs.iter().filter(|r| matches!(r, Req::Hot(_))).count();
        assert_eq!((hits, s.reqs.len() - hits), (1200, 300));
        assert_eq!(s.fresh.len(), 300);
        let mut seen: HashSet<String> = (0..HOT_KEYS).map(|k| hot(k).body()).collect();
        assert_eq!(seen.len(), HOT_KEYS);
        for k in &s.fresh {
            assert!(k.uops > 100_000, "fresh keys stay off the fast lane");
            assert!(seen.insert(k.body()), "fresh key repeated: {}", k.body());
        }
    }

    #[test]
    fn every_sixteen_fresh_keys_cover_each_pair_and_flag_subset() {
        let s = stream(3, 800);
        for group in s.fresh.chunks_exact(16) {
            let pairs: HashSet<(usize, usize)> =
                group.iter().map(|k| (k.profile, k.core)).collect();
            let ideals: HashSet<usize> = group.iter().map(|k| k.ideal).collect();
            assert_eq!((pairs.len(), ideals.len()), (16, 16));
        }
    }

    #[test]
    fn bodies_decode_as_simulate_requests() {
        let s = stream(1, 100);
        for body in (0..HOT_KEYS)
            .map(|k| hot(k).body())
            .chain(s.fresh.iter().map(Key::body))
        {
            let r = Request::simulate(&jsonin::parse(&body).expect("parses")).expect("decodes");
            assert!(r.sample.is_none());
        }
    }
}
