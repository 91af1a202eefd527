//! `mstacks-serve` — a zero-dependency HTTP/1.1 analysis service over the
//! mstacks simulator.
//!
//! The ROADMAP's production framing ("a system serving heavy traffic")
//! needs a long-lived, queryable entry point rather than one-shot CLI
//! binaries. This crate provides it with three cooperating mechanisms
//! (DESIGN.md §15):
//!
//! * a **content-addressed result cache** ([`cache::ResultCache`]):
//!   requests canonicalize to a string built from round-trip-canonical
//!   forms (`.core` table dump, workload `Debug`, `IdealFlags`/plan
//!   `Display`), FNV-1a-digested for sharding; a hit replays the exact
//!   response bytes the simulator emitted, single-flighted so concurrent
//!   identical requests simulate once;
//! * a **sharded worker pool** ([`pool::Pool`]): one queue+worker per
//!   shard keyed by content digest, plus a dedicated fast lane for small
//!   interactive jobs, with workload trace capture shared across requests
//!   through [`mstacks_workloads::CaptureRegistry`];
//! * **admission control**: every job carries a µop-cost estimate; when
//!   the pool's outstanding debt exceeds its budget the request gets
//!   `429 Too Many Requests` with a proportional `Retry-After`.
//!
//! # Endpoints
//!
//! | Route | Body | Response |
//! |---|---|---|
//! | `POST /v1/simulate` | `{"workload","core"∣"core_table","uops","ideal","sample"}` | the CLI's `--json` simulate schema, byte-identical |
//! | `POST /v1/sweep` | `{"points":[<simulate body>…]}` | `{"results":[…]}`, each point the simulate schema |
//! | `POST /v1/corun` | `{"workloads":[2–4 names],…}` | the CLI's corun schema |
//! | `GET /v1/stats` | — | cache/registry/pool counters |
//! | `GET /healthz` | — | `{"ok":true}` |
//!
//! Responses carry `X-Cache: hit|miss` (sweeps: `X-Cache-Hits`/`-Misses`
//! counts).
//!
//! # Quick start
//!
//! ```no_run
//! let handle = mstacks_serve::Server::spawn(mstacks_serve::ServerConfig::default())
//!     .expect("bind");
//! println!("listening on {}", handle.addr());
//! // POST {"workload":"mcf","core":"bdw"} to /v1/simulate …
//! ```

pub mod cache;
pub mod client;
pub mod http;
pub mod jsonin;
pub mod pool;
pub mod request;

use cache::{Fetched, ResultCache};
use http::{HttpRequest, HttpResponse, ReadError};
use mstacks_core::cachekey::CacheKey;
use mstacks_core::{jsonfmt, CoRun, Session};
use mstacks_workloads::{CaptureRegistry, SharedTraceBuffer};
use pool::{Pool, Rejected};
use request::{BadRequest, Kind, Request};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Server tuning knobs (defaults suit a developer box and CI).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard workers (the fast lane adds one more thread).
    pub shards: usize,
    /// Result-cache byte budget (keys + response bodies).
    pub cache_bytes: usize,
    /// Capture-registry byte budget (decoded trace buffers).
    pub registry_bytes: usize,
    /// Admission budget: estimated µops admitted but not yet retired.
    pub debt_budget_uops: u64,
    /// Jobs at or under this estimate ride the fast lane.
    pub fast_lane_uops: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(2).clamp(1, 8))
            .unwrap_or(4);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards,
            cache_bytes: 64 << 20,
            registry_bytes: 256 << 20,
            debt_budget_uops: 16_000_000,
            fast_lane_uops: 100_000,
        }
    }
}

/// Shared service state.
struct App {
    cache: ResultCache,
    registry: CaptureRegistry,
    pool: Pool,
    started: Instant,
    requests: AtomicU64,
}

/// A running server: bound address plus a shutdown switch.
pub struct Server;

/// Handle to a spawned server.
pub struct ServerHandle {
    addr: SocketAddr,
    app: Arc<App>,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr`, spawns the accept loop and the worker pool,
    /// and returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let app = Arc::new(App {
            cache: ResultCache::new(config.cache_bytes),
            registry: CaptureRegistry::new(config.registry_bytes),
            pool: Pool::new(
                config.shards,
                config.debt_budget_uops,
                config.fast_lane_uops,
            ),
            started: Instant::now(),
            requests: AtomicU64::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let app = app.clone();
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("mstacks-accept".to_string())
                .spawn(move || accept_loop(&listener, &app, &stop))
                .expect("spawn acceptor")
        };
        Ok(ServerHandle {
            addr,
            app,
            stop,
            acceptor: Some(acceptor),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `GET /v1/stats` payload, for in-process embedders (loadgen,
    /// smoke tests) that want counters without a round trip.
    pub fn stats_json(&self) -> String {
        stats_json(&self.app)
    }

    /// Stops accepting connections and joins the accept thread. Worker
    /// threads drain and exit once the shared state drops.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Poke the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, app: &Arc<App>, stop: &Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let app = app.clone();
        let _ = std::thread::Builder::new()
            .name("mstacks-conn".to_string())
            .spawn(move || serve_connection(stream, &app));
    }
}

/// Handles one keep-alive connection until close/EOF/error.
fn serve_connection(stream: TcpStream, app: &Arc<App>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(60)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(4096);
    loop {
        let req = match http::read_request(&mut reader) {
            Ok(r) => r,
            Err(ReadError::Eof) => return,
            Err(ReadError::Bad(msg)) => {
                let _ = HttpResponse::error(400, "Bad Request", &msg).write(
                    &mut write_half,
                    &mut out,
                    true,
                );
                return;
            }
            Err(ReadError::Io(_)) => return,
        };
        app.requests.fetch_add(1, Ordering::Relaxed);
        let close = req.close;
        let resp = route(app, &req);
        if resp.write(&mut write_half, &mut out, close).is_err() || close {
            return;
        }
    }
}

fn route(app: &Arc<App>, req: &HttpRequest) -> HttpResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => HttpResponse::json(200, "OK", b"{\"ok\":true}".to_vec()),
        ("GET", "/v1/stats") => HttpResponse::json(200, "OK", stats_json(app).into_bytes()),
        ("POST", "/v1/simulate") => one_shot(app, &req.body, Request::simulate),
        ("POST", "/v1/corun") => one_shot(app, &req.body, Request::corun),
        ("POST", "/v1/sweep") => sweep(app, &req.body),
        ("POST", _) | ("GET", _) => HttpResponse::error(404, "Not Found", "unknown route"),
        _ => HttpResponse::error(405, "Method Not Allowed", "use GET or POST"),
    }
}

/// Parses, executes and serializes a single-result endpoint.
fn one_shot(
    app: &Arc<App>,
    body: &str,
    decode: impl Fn(&jsonin::Value) -> Result<Request, BadRequest>,
) -> HttpResponse {
    let parsed = match jsonin::parse(body) {
        Ok(v) => v,
        Err(e) => return HttpResponse::error(400, "Bad Request", &format!("bad JSON: {e}")),
    };
    let req = match decode(&parsed) {
        Ok(r) => r,
        Err(e) => return HttpResponse::error(400, "Bad Request", &e.0),
    };
    match execute_cached(app, req) {
        Ok(f) => {
            let cache_state = if f.was_hit() { "hit" } else { "miss" };
            HttpResponse::json(200, "OK", f.body().clone()).header("X-Cache", cache_state)
        }
        Err(e) => e.into_response(),
    }
}

/// `/v1/sweep`: every point keys (and caches) exactly like a direct
/// simulate call; cold points fan out over the worker pool concurrently
/// via the same atomic work-index discipline as the bench sweep executor.
fn sweep(app: &Arc<App>, body: &str) -> HttpResponse {
    let parsed = match jsonin::parse(body) {
        Ok(v) => v,
        Err(e) => return HttpResponse::error(400, "Bad Request", &format!("bad JSON: {e}")),
    };
    let points = match Request::sweep(&parsed) {
        Ok(p) => p,
        Err(e) => return HttpResponse::error(400, "Bad Request", &e.0),
    };
    let n = points.len();
    let mut results: Vec<Option<Result<Fetched, ComputeError>>> = Vec::new();
    results.resize_with(n, || None);
    let results = Mutex::new(results);
    let next = AtomicU64::new(0);
    let lanes = (app.pool.shards() + 1).min(n);
    std::thread::scope(|s| {
        for _ in 0..lanes {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= n {
                    return;
                }
                let out = execute_cached(app, points[i].clone());
                results.lock().expect("sweep results")[i] = Some(out);
            });
        }
    });
    let results = results.into_inner().expect("sweep results");
    let mut bodies = Vec::with_capacity(n);
    let (mut hits, mut misses) = (0usize, 0usize);
    let mut worst: Option<ComputeError> = None;
    for r in results {
        match r.expect("every sweep point resolved") {
            Ok(f) => {
                if f.was_hit() {
                    hits += 1;
                } else {
                    misses += 1;
                }
                bodies.push(String::from_utf8_lossy(f.body()).into_owned());
            }
            Err(e) => worst = Some(worst.map_or(e.clone(), |w| w.worse(e))),
        }
    }
    if let Some(e) = worst {
        return e.into_response();
    }
    let body = format!("{{\"results\":[{}]}}", bodies.join(","));
    HttpResponse::json(200, "OK", body.into_bytes())
        .header("X-Cache-Hits", hits)
        .header("X-Cache-Misses", misses)
}

/// Why a request failed to execute.
#[derive(Debug, Clone)]
enum ComputeError {
    /// Admission control said no.
    Backpressure(Rejected),
    /// The simulation itself failed (deadlock watchdog, …).
    Failed(String),
}

impl ComputeError {
    fn into_response(self) -> HttpResponse {
        match self {
            ComputeError::Backpressure(r) => {
                HttpResponse::error(429, "Too Many Requests", "queue over budget; retry later")
                    .header("Retry-After", r.retry_after_secs)
            }
            ComputeError::Failed(msg) => HttpResponse::error(500, "Internal Server Error", &msg),
        }
    }

    /// Merges two sweep-point failures: server errors dominate
    /// backpressure; larger Retry-After dominates smaller.
    fn worse(self, other: ComputeError) -> ComputeError {
        match (self, other) {
            (ComputeError::Failed(m), _) | (_, ComputeError::Failed(m)) => ComputeError::Failed(m),
            (ComputeError::Backpressure(a), ComputeError::Backpressure(b)) => {
                ComputeError::Backpressure(if a.retry_after_secs >= b.retry_after_secs {
                    a
                } else {
                    b
                })
            }
        }
    }
}

/// A one-shot rendezvous the leader blocks on while its job runs on a
/// pool worker.
type ResultSlot = Arc<(Mutex<Option<Result<Vec<u8>, String>>>, Condvar)>;

/// Fills a [`ResultSlot`] exactly once, when dropped: with the job's
/// output if it set one, else with an error — the job panicked, or was
/// dropped without running. The leader therefore never waits on a slot
/// nobody will fill.
struct SlotWriter {
    slot: ResultSlot,
    out: Option<Result<Vec<u8>, String>>,
}

impl SlotWriter {
    /// Fills the slot with the job's output.
    fn fill(mut self, out: Result<Vec<u8>, String>) {
        self.out = Some(out);
    }
}

impl Drop for SlotWriter {
    fn drop(&mut self) {
        let out = self.out.take().unwrap_or_else(|| {
            Err("simulation job did not complete (panicked or dropped)".to_string())
        });
        let (lock, cv) = &*self.slot;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        cv.notify_all();
    }
}

/// The cache-then-pool execution path shared by every analysis endpoint.
fn execute_cached(app: &Arc<App>, req: Request) -> Result<Fetched, ComputeError> {
    let key = req.cache_key();
    let cost = req.cost_uops();
    execute_keyed(app, &key, cost, move |app| compute(app, &req))
}

/// Looks `key` up in the result cache; on a miss, runs `job` on the
/// worker pool (admission-controlled, on the key's shard) as the
/// single-flight leader and waits for it. A job that panics answers
/// [`ComputeError::Failed`] and leaves no entry.
fn execute_keyed(
    app: &Arc<App>,
    key: &CacheKey,
    cost_uops: u64,
    job: impl FnOnce(&App) -> Result<Vec<u8>, String> + Send + 'static,
) -> Result<Fetched, ComputeError> {
    app.cache.get_or_compute(key, || {
        let slot: ResultSlot = Arc::new((Mutex::new(None), Condvar::new()));
        let writer = SlotWriter {
            slot: slot.clone(),
            out: None,
        };
        let job_app = app.clone();
        app.pool
            .submit(key.shard(app.pool.shards()), cost_uops, move || {
                writer.fill(job(&job_app));
            })
            .map_err(ComputeError::Backpressure)?;
        let (lock, cv) = &*slot;
        let mut got = lock.lock().unwrap_or_else(PoisonError::into_inner);
        while got.is_none() {
            got = cv.wait(got).unwrap_or_else(PoisonError::into_inner);
        }
        got.take()
            .expect("slot filled")
            .map_err(ComputeError::Failed)
    })
}

/// Runs the simulation for `req` and serializes the golden-pinned JSON.
/// Trace decode goes through the shared capture registry, so concurrent
/// and repeated requests for one workload profile decode it once.
fn compute(app: &App, req: &Request) -> Result<Vec<u8>, String> {
    match req.kind {
        Kind::Simulate => {
            let w = &req.workloads[0];
            let buf = app.registry.get_or_capture(w, req.uops);
            let session = Session::new(req.core.clone()).with_ideal(req.ideal);
            if let Some(plan) = req.sample {
                let sampled = session
                    .run_sampled(req.uops, plan, &buf)
                    .map_err(|e| format!("simulation failed: {e}"))?;
                Ok(jsonfmt::sampled_report(&sampled).into_bytes())
            } else {
                let report = session
                    .run(buf.cursor())
                    .map_err(|e| format!("simulation failed: {e}"))?;
                Ok(jsonfmt::sim_report(&report, None).into_bytes())
            }
        }
        Kind::CoRun => {
            let names: Vec<String> = req.workloads.iter().map(|w| w.name()).collect();
            let bufs: Vec<_> = req
                .workloads
                .iter()
                .map(|w| app.registry.get_or_capture(w, req.uops))
                .collect();
            let report = CoRun::new(req.core.clone())
                .with_ideal(req.ideal)
                .run(bufs.iter().map(|b| b.cursor()).collect())
                .map_err(|e| format!("simulation failed: {e}"))?;
            Ok(jsonfmt::corun_report(&names, &report, None).into_bytes())
        }
    }
}

/// `GET /v1/stats` payload.
fn stats_json(app: &Arc<App>) -> String {
    let c = app.cache.stats();
    let r = app.registry.stats();
    let p = app.pool.stats();
    format!(
        "{{\"uptime_secs\":{},\"requests\":{},\
         \"cache\":{{\"hits\":{},\"misses\":{},\"joined\":{},\"evictions\":{},\"resident_bytes\":{},\"entries\":{}}},\
         \"registry\":{{\"hits\":{},\"misses\":{},\"joined\":{},\"evictions\":{},\"resident_bytes\":{}}},\
         \"pool\":{{\"admitted\":{},\"fast_lane\":{},\"rejected\":{},\"executed\":{},\"debt_uops\":{}}}}}",
        app.started.elapsed().as_secs(),
        app.requests.load(Ordering::Relaxed),
        c.hits,
        c.misses,
        c.joined,
        c.evictions,
        c.resident_bytes,
        c.entries,
        r.hits,
        r.misses,
        r.joined,
        r.evictions,
        r.resident_bytes,
        p.admitted,
        p.fast_lane,
        p.rejected,
        p.executed,
        p.debt_uops,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstacks_core::cachekey::KeyBuilder;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;

    fn app() -> Arc<App> {
        Arc::new(App {
            cache: ResultCache::new(1 << 20),
            registry: CaptureRegistry::new(1 << 20),
            pool: Pool::new(1, 1_000_000, 0),
            started: Instant::now(),
            requests: AtomicU64::new(0),
        })
    }

    fn wait_for_zero_debt(app: &App) {
        for _ in 0..200 {
            if app.pool.stats().debt_uops == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("debt never retired: {:?}", app.pool.stats());
    }

    #[test]
    fn a_panicking_job_fails_its_request_and_the_next_identical_one_recomputes() {
        let app = app();
        let key = KeyBuilder::new("test").field("tag", "boom").finish();
        let first = execute_keyed(&app, &key, 10_000, |_| panic!("injected job panic"));
        assert!(matches!(first, Err(ComputeError::Failed(_))));
        let second = execute_keyed(&app, &key, 10_000, |_| Ok(b"fine".to_vec()))
            .unwrap_or_else(|_| panic!("the retry computes"));
        assert!(!second.was_hit());
        assert_eq!(second.body().as_slice(), b"fine");
        let third = execute_keyed(&app, &key, 10_000, |_| panic!("resident, never run"))
            .unwrap_or_else(|_| panic!("hit"));
        assert!(third.was_hit());
        wait_for_zero_debt(&app);
    }

    #[test]
    fn waiters_on_a_panicking_leader_do_not_hang() {
        let app = app();
        let key = KeyBuilder::new("test").field("tag", "joined").finish();
        let panicked = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let (app, key, panicked, tx) = (app.clone(), key.clone(), panicked.clone(), tx.clone());
            std::thread::spawn(move || {
                let got = execute_keyed(&app, &key, 10_000, move |_| {
                    if !panicked.swap(true, Ordering::SeqCst) {
                        // The first leader holds the slot long enough
                        // for the others to join it, then panics.
                        std::thread::sleep(Duration::from_millis(50));
                        panic!("injected job panic");
                    }
                    Ok(b"body".to_vec())
                });
                let _ = tx.send(got.map(|f| f.body().to_vec()).map_err(|e| format!("{e:?}")));
            });
        }
        let results: Vec<_> = (0..4)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(30))
                    .expect("every request is answered")
            })
            .collect();
        let failed = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(failed, 1, "{results:?}");
        for r in results.iter().flatten() {
            assert_eq!(r, b"body");
        }
        wait_for_zero_debt(&app);
    }
}
