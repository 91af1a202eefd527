//! Layer probes: timings of single public calls, taken after the timed
//! loop of a traced run on the workload's own configurations. Each probe
//! is a root span with no `op_id`, never a child of an operation.

use crate::metrics::Outcome;
use crate::spans::Tracer;
use crate::stats::median;
use mstacks_core::{
    BadSpecMode, CoRun, CommitAccountant, DispatchAccountant, FlopsAccountant, IssueAccountant,
    SamplePlan, Session,
};
use mstacks_model::{CoreConfig, IdealFlags};
use mstacks_pipeline::{Core, Engine};
use mstacks_serve::cache::ResultCache;
use mstacks_serve::jsonin;
use mstacks_serve::request::Request;
use mstacks_workloads::{BatchCursor, SampleSource, SharedTraceBuffer, TraceBuffer, Workload};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Trace length of the engine probes: long enough that per-µop costs
/// dominate engine construction, short enough for three interleaved reps
/// of six probes per configuration to stay within a few seconds.
pub const PROBE_UOPS: u64 = 100_000;

/// Interleaved repetitions; each probe reports its median.
const REPS: usize = 3;

/// Calls per front-half timing: single calls take microseconds, so each
/// timing covers a loop of them.
const FRONT_ITERS: u32 = 200;

/// Runs `f` as a root probe span and returns its result and duration (ns).
fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    let end = Instant::now();
    tr.record(name, None, start, end);
    (out, (end - start).as_nanos() as f64)
}

/// One single-core configuration the engine probes run.
pub struct Solo {
    pub workload: Workload,
    pub core: CoreConfig,
}

/// Capture, functional warming, the bare engine, the full accountant set
/// and the paper's §IV pair (dispatch stack alone vs dispatch + issue +
/// commit + FLOPS) on every configuration in `solos`. Each probe's median
/// over [`REPS`] is summed over configurations.
pub fn engine(tr: &mut Tracer, solos: &[Solo], out: &mut Outcome) {
    let none = IdealFlags::none();
    // Per configuration: capture, warm, bare, full, dispatch-only, paper-full.
    let mut samples = vec![[(); 6].map(|_| Vec::new()); solos.len()];
    let (mut uops, mut bytes, mut cycles) = (0.0, 0.0, 0.0);
    for rep in 0..REPS {
        for (s, t) in solos.iter().zip(samples.iter_mut()) {
            let (buf, cap) = timed(tr, "probe.capture", || {
                TraceBuffer::capture(&s.workload, PROBE_UOPS).shared()
            });
            let mut eng = Engine::new(
                s.core.clone(),
                none,
                vec![BatchCursor::slice(buf.clone(), 0, 0)],
            );
            eng.run(&mut [(); 1]).expect("an empty trace drains");
            let ((), warm) = timed(tr, "probe.warm", || {
                buf.warm_range(0, buf.len(), &mut eng.warmer(0));
            });
            let core = || Core::new(s.core.clone(), none, buf.cursor());
            let (_, bare) = timed(tr, "probe.bare", || {
                core().run(&mut ()).expect("bare engine completes")
            });
            let (report, full) = timed(tr, "probe.full", || {
                Session::new(s.core.clone())
                    .run(buf.cursor())
                    .expect("full session completes")
            });
            let w = s.core.accounting_width();
            let (_, dispatch_only) = timed(tr, "probe.dispatch_only", || {
                let mut d = DispatchAccountant::new(w, BadSpecMode::GroundTruth);
                (core().run(&mut d).expect("completes"), d)
            });
            let (_, paper_full) = timed(tr, "probe.paper_full", || {
                let mut obs = (
                    DispatchAccountant::new(w, BadSpecMode::GroundTruth),
                    IssueAccountant::new(w, BadSpecMode::GroundTruth),
                    CommitAccountant::new(w),
                    FlopsAccountant::new(s.core.vpu_count().max(1), s.core.vector_lanes_f32()),
                );
                (core().run(&mut obs).expect("completes"), obs)
            });
            for (v, x) in t
                .iter_mut()
                .zip([cap, warm, bare, full, dispatch_only, paper_full])
            {
                v.push(x);
            }
            if rep == 0 {
                uops += buf.len() as f64;
                bytes += buf.approx_bytes() as f64;
                cycles += report.result.cycles as f64;
            }
        }
    }
    let sum = |i: usize| samples.iter().map(|t| median(&t[i])).sum::<f64>();
    out.set("workloads.capture.ns_per_uop", sum(0) / uops);
    out.set("workloads.capture.bytes_per_uop", bytes / uops);
    out.set("workloads.warm.ns_per_uop", sum(1) / uops);
    out.set("pipeline.bare.ns_per_uop", sum(2) / uops);
    out.set("pipeline.ns_per_sim_cycle", sum(3) / cycles);
    out.set("core.accounting.overhead_frac", sum(3) / sum(2) - 1.0);
    out.set("core.accounting.paper_overhead_frac", sum(5) / sum(4) - 1.0);
}

/// The service's front half on the workload's own request bodies:
/// JSON parse, request decode, cache key, and a resident cache hit.
/// Returns the per-request sum (µs) of the four.
pub fn front(tr: &mut Tracer, bodies: &[String], out: &mut Outcome) -> f64 {
    let n = f64::from(FRONT_ITERS);
    let mut per_body = vec![[(); 4].map(|_| Vec::new()); bodies.len()];
    for _ in 0..REPS {
        for (body, t) in bodies.iter().zip(per_body.iter_mut()) {
            let decode = |v: &jsonin::Value| {
                if v.get("workloads").is_some() {
                    Request::corun(v)
                } else {
                    Request::simulate(v)
                }
            };
            let ((), parse) = timed(tr, "probe.jsonin.parse", || {
                for _ in 0..FRONT_ITERS {
                    black_box(jsonin::parse(black_box(body)).expect("ledger bodies parse"));
                }
            });
            let value = jsonin::parse(body).expect("ledger bodies parse");
            let ((), dec) = timed(tr, "probe.request.decode", || {
                for _ in 0..FRONT_ITERS {
                    black_box(decode(black_box(&value)).expect("ledger bodies decode"));
                }
            });
            let req = decode(&value).expect("ledger bodies decode");
            let ((), key) = timed(tr, "probe.cachekey", || {
                for _ in 0..FRONT_ITERS {
                    black_box(black_box(&req).cache_key());
                }
            });
            let cache = ResultCache::new(64 << 20);
            let k = req.cache_key();
            cache
                .get_or_compute::<()>(&k, || Ok(body.as_bytes().to_vec()))
                .expect("insert");
            let ((), hit) = timed(tr, "probe.cache.hit", || {
                for _ in 0..FRONT_ITERS {
                    let f = cache.get_or_compute::<()>(black_box(&k), || Err(()));
                    black_box(f.expect("resident entry hits"));
                }
            });
            for (v, x) in t.iter_mut().zip([parse, dec, key, hit]) {
                v.push(x / n / 1e3);
            }
        }
    }
    let names = [
        "serve.jsonin.parse_us",
        "serve.request.decode_us",
        "core.cachekey.us",
        "serve.cache.hit_us",
    ];
    let mut total = 0.0;
    for (i, name) in names.iter().enumerate() {
        let mean = per_body.iter().map(|t| median(&t[i])).sum::<f64>() / bodies.len() as f64;
        out.set(name, mean);
        total += mean;
    }
    total
}

/// Host time of the lockstep co-run driver over the time of the same
/// per-core buffers run solo, minus one.
pub fn corun_lockstep(tr: &mut Tracer, groups: &[(Vec<Workload>, CoreConfig)], uops: u64) -> f64 {
    let (mut co, mut solo) = (0.0, 0.0);
    for (workloads, core) in groups {
        let bufs = mstacks_bench::capture_shared(workloads, uops);
        let (mut c, mut s) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            let (_, t) = timed(tr, "probe.corun.lockstep", || {
                CoRun::new(core.clone())
                    .run(bufs.iter().map(|b| b.cursor()).collect())
                    .expect("co-run completes")
            });
            c.push(t);
            let (_, t) = timed(tr, "probe.corun.solo", || {
                for b in &bufs {
                    black_box(
                        Session::new(core.clone())
                            .run(b.cursor())
                            .expect("completes"),
                    );
                }
            });
            s.push(t);
        }
        co += median(&c);
        solo += median(&s);
    }
    co / solo - 1.0
}

/// Largest relative CPI error of the sampled estimate against a full
/// detailed run of the same captured trace (simulated, deterministic).
pub fn sampled_cpi_err(tr: &mut Tracer, solos: &[Solo], uops: u64, plan: SamplePlan) -> f64 {
    let mut worst: f64 = 0.0;
    for s in solos {
        let buf: Arc<TraceBuffer> = TraceBuffer::capture(&s.workload, uops).shared();
        let session = Session::new(s.core.clone());
        let (full, _) = timed(tr, "probe.sampling.full", || {
            session.run(buf.cursor()).expect("full run completes")
        });
        let sampled = session
            .run_sampled(uops, plan, &buf)
            .expect("sampled run completes");
        worst = worst.max((sampled.cpi_mean - full.cpi()).abs() / full.cpi());
    }
    worst
}
