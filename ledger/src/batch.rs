//! The three batch workloads: full-detail runs, interval-sampled runs and
//! co-runs. One operation is what a CLI invocation does: capture (or
//! stream) the trace, simulate it with modelled caches starting empty,
//! and emit the golden-pinned JSON report.

use crate::harness::{end_to_end, timed_loop, Ctx, HostClock, Order, Phase};
use crate::metrics::Outcome;
use crate::probes::{self, Solo};
use crate::spans::{self, Tracer};
use crate::stats::median;
use mstacks_core::cachekey::fnv1a;
use mstacks_core::sampling::COOLDOWN_UOPS;
use mstacks_core::{jsonfmt, SamplePlan, Session};
use mstacks_model::{coretab, CoreConfig, IdealFlags};
use mstacks_workloads::{spec, SharedTraceBuffer, TraceBuffer, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// µops per full-detail operation.
pub const DETAIL_UOPS: u64 = 250_000;
/// Trace µops one sampled operation covers.
pub const SAMPLED_UOPS: u64 = 2_000_000;
/// µops per core of one co-run operation.
pub const CORUN_UOPS: u64 = 50_000;

/// The sampling plan of the `sampled` workload (the one `BENCH_PR7`
/// tracked): 4 000 warm-up + 2 500 measured µops every 125 000.
pub fn plan() -> SamplePlan {
    SamplePlan::new(4_000, 2_500, 118_500)
}

/// Expected FNV-1a digests of every configuration's JSON report.
const EXPECTED: &str = include_str!("../expected.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Detail,
    Sampled,
    Corun,
}

/// One operation's configuration: the workloads (one per core), the core.
pub struct OpCfg {
    pub label: String,
    pub workloads: Vec<Workload>,
    pub names: Vec<String>,
    pub core: CoreConfig,
}

impl OpCfg {
    fn new(profiles: &[&str], core: &str) -> OpCfg {
        OpCfg {
            label: format!("{}-{core}", profiles.join("+")),
            workloads: profiles
                .iter()
                .map(|p| spec::by_name(p).expect("built-in profile"))
                .collect(),
            names: profiles.iter().map(|p| p.to_string()).collect(),
            core: coretab::builtin(core).expect("built-in core"),
        }
    }
}

/// What one operation produced.
pub struct OpOut {
    pub json: String,
    /// Simulated µops (sampled: trace µops covered; co-run: all cores).
    pub sim_uops: u64,
    /// Shared-uncore interference cycles per 1000 committed µops (co-run).
    pub interference_per_kuop: f64,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        [Kind::Detail, Kind::Sampled, Kind::Corun]
            .into_iter()
            .find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Detail => "detail",
            Kind::Sampled => "sampled",
            Kind::Corun => "corun",
        }
    }

    /// Configurations, chosen to load different layers: memory-bound
    /// pointer chasing (mcf), a busy FLOPS stack (imagick, bwaves), a
    /// bad-speculation-heavy branchy profile (exchange2), a table-only core
    /// (zen); for co-runs, the all-distinct streaming path (mcf+lbm), the
    /// shared-capture path (duplicates) and a 4-core distinct run.
    pub fn configs(self) -> Vec<OpCfg> {
        match self {
            Kind::Detail => vec![
                OpCfg::new(&["mcf"], "bdw"),
                OpCfg::new(&["imagick"], "skx"),
                OpCfg::new(&["exchange2"], "knl"),
            ],
            Kind::Sampled => vec![
                OpCfg::new(&["mcf"], "bdw"),
                OpCfg::new(&["bwaves"], "skx"),
                OpCfg::new(&["gcc"], "zen"),
            ],
            Kind::Corun => vec![
                OpCfg::new(&["mcf", "lbm"], "bdw"),
                OpCfg::new(&["mcf", "mcf", "lbm", "lbm"], "bdw"),
                OpCfg::new(&["mcf", "lbm", "omnetpp", "xz"], "bdw"),
            ],
        }
    }

    /// The span name of the operation's simulation call.
    fn sim_span(self) -> &'static str {
        match self {
            Kind::Detail => "core.session.run",
            Kind::Sampled => "core.session.run_sampled",
            Kind::Corun => "bench.run_corun",
        }
    }

    /// One operation, with a span around each layer call.
    fn op(self, c: &OpCfg, tr: &mut Tracer, op: Option<usize>) -> Result<OpOut, String> {
        let emit = "core.jsonfmt.emit";
        let fail = |e| format!("{}: {e}", c.label);
        match self {
            Kind::Detail | Kind::Sampled => {
                let len = if self == Kind::Detail {
                    DETAIL_UOPS
                } else {
                    SAMPLED_UOPS
                };
                let buf = tr.span("workloads.capture", op, |_| {
                    TraceBuffer::capture(&c.workloads[0], len).shared()
                });
                let session = Session::new(c.core.clone());
                if self == Kind::Detail {
                    let r = tr
                        .span(self.sim_span(), op, |_| session.run(buf.cursor()))
                        .map_err(fail)?;
                    let json = tr.span(emit, op, |_| jsonfmt::sim_report(&r, None));
                    Ok(OpOut {
                        json,
                        sim_uops: r.result.committed_uops,
                        interference_per_kuop: 0.0,
                    })
                } else {
                    let s = tr
                        .span(self.sim_span(), op, |_| {
                            session.run_sampled(len, plan(), &buf)
                        })
                        .map_err(fail)?;
                    let json = tr.span(emit, op, |_| jsonfmt::sampled_report(&s));
                    Ok(OpOut {
                        json,
                        sim_uops: s.total_uops,
                        interference_per_kuop: 0.0,
                    })
                }
            }
            Kind::Corun => {
                let r = tr.span(self.sim_span(), op, |_| {
                    mstacks_bench::run_corun(&c.workloads, &c.core, IdealFlags::none(), CORUN_UOPS)
                });
                let json = tr.span(emit, op, |_| jsonfmt::corun_report(&c.names, &r, None));
                let uops: u64 = r.cores.iter().map(|t| t.result.committed_uops).sum();
                let interf: u64 = r.shared.cores.iter().map(|s| s.interference_cycles).sum();
                Ok(OpOut {
                    json,
                    sim_uops: uops,
                    interference_per_kuop: interf as f64 * 1e3 / uops as f64,
                })
            }
        }
    }

    /// [`Kind::op`] with panics caught and the report checked against its
    /// committed digest.
    fn checked(self, c: &OpCfg, tr: &mut Tracer, op: Option<usize>) -> Result<OpOut, String> {
        let out = catch_unwind(AssertUnwindSafe(|| self.op(c, tr, op)))
            .map_err(|_| format!("{}: panicked", c.label))??;
        let got = fnv1a(out.json.as_bytes());
        match expected_digest(self.name(), &c.label) {
            Some(want) if want == got => Ok(out),
            Some(want) => Err(format!(
                "{}: report digest {got:016x}, expected {want:016x} (expected.txt line: `{} {} {got:016x}`)",
                c.label,
                self.name(),
                c.label
            )),
            None => Err(format!(
                "{}: no digest in expected.txt (add `{} {} {got:016x}`)",
                c.label,
                self.name(),
                c.label
            )),
        }
    }
}

/// The committed digest for `(workload, label)`.
pub fn expected_digest(workload: &str, label: &str) -> Option<u64> {
    EXPECTED.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(label))
            .then(|| f.next().and_then(|d| u64::from_str_radix(d, 16).ok()))
            .flatten()
    })
}

/// Fast-forwarded µops of one sampled operation under [`plan`] (the
/// cooldown borrows the head of each fast-forward segment).
fn ff_uops(total: u64, plan: SamplePlan) -> u64 {
    let cooldown = plan.ff.min(COOLDOWN_UOPS);
    let (mut pos, mut ff) = (0, 0);
    loop {
        pos = (pos + plan.warmup + plan.detailed + cooldown).min(total);
        if pos >= total {
            return ff;
        }
        let end = (pos + plan.ff - cooldown).min(total);
        ff += end - pos;
        pos = end;
        if pos >= total {
            return ff;
        }
    }
}

/// Runs one batch workload in the phase `ctx` names.
pub fn run(kind: Kind, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(ctx.tracing(), ctx.process_start);
    let mut untraced = Tracer::new(false, ctx.process_start);
    let mut clock = HostClock::new();

    // Set-up: core tables and profiles, then one untimed warm-up
    // operation per configuration.
    let mut setup_s = Vec::new();
    let mut cfgs = Vec::new();
    for rep in 0..ctx.setup_reps() {
        let t0 = if rep == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        cfgs = kind.configs();
        for c in &cfgs {
            if let Err(e) = kind.checked(c, &mut untraced, None) {
                out.fail(format!("warm-up {e}"));
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        setup_s.push(secs * clock.factor());
    }
    mstacks_pipeline::stage_prof_reset();

    let mut order = Order::new(ctx.seed, cfgs.len());
    let mut op_cfg = Vec::new();
    let mut per_cfg = vec![0usize; cfgs.len()];
    let mut interference = vec![0.0; cfgs.len()];
    let mut sim_uops = 0;
    // Calibrate every ~250 ms (one or two operations): host speed shifts
    // within seconds, and the kernel costs ~1% of that.
    let mut timed = timed_loop(ctx, &mut clock, Duration::from_millis(250), |deadline| {
        let mut lat_ms = Vec::new();
        while lat_ms.is_empty() || Instant::now() < deadline {
            let ci = order.next().expect("the op order never ends");
            let op = op_cfg.len();
            let t = Instant::now();
            let res = tr.span("op", Some(op), |tr| kind.checked(&cfgs[ci], tr, Some(op)));
            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            op_cfg.push(cfgs[ci].label.clone());
            per_cfg[ci] += 1;
            out.attempted += 1;
            match res {
                Ok(o) => {
                    sim_uops += o.sim_uops;
                    interference[ci] = o.interference_per_kuop;
                }
                Err(e) => out.fail(e),
            }
        }
        lat_ms
    });
    let ops: Vec<String> = cfgs
        .iter()
        .zip(&per_cfg)
        .map(|(c, n)| format!("{}:{n}", c.label))
        .collect();
    out.info("ops", ops.join(" "));

    match ctx.phase {
        Phase::Plain => end_to_end(&mut out, &setup_s, &mut timed, sim_uops, &clock),
        Phase::Stages => crate::stage_metrics(&mut out, &timed.ref_lat_ms),
        Phase::Spans => {
            out.set("op_p50_ms", median(&timed.ref_lat_ms));
            let s = tr.spans();
            let total = |name: &str| spans::durations(s, name).iter().sum::<f64>();
            let op_total = total("op");
            out.set(
                "workloads.capture.share",
                total("workloads.capture") / op_total,
            );
            out.set("core.session.share", total(kind.sim_span()) / op_total);
            out.set(
                "core.jsonfmt.emit_us",
                median(&spans::durations(s, "core.jsonfmt.emit")) / 1e3,
            );
            out.set(
                "mem.shared.interference_cycles_per_kuop",
                interference.iter().sum::<f64>() / cfgs.len() as f64,
            );
            layer_probes(kind, &cfgs, &mut tr, &mut out);
            crate::write_spans(ctx, &out, &op_cfg, tr.spans());
        }
    }
    out
}

/// The probe half of a traced batch run.
fn layer_probes(kind: Kind, cfgs: &[OpCfg], tr: &mut Tracer, out: &mut Outcome) {
    let solos: Vec<Solo> = match kind {
        // Co-runs probe each distinct profile on the shared core.
        Kind::Corun => ["mcf", "lbm", "omnetpp", "xz"]
            .iter()
            .map(|p| Solo {
                workload: spec::by_name(p).expect("built-in profile"),
                core: cfgs[0].core.clone(),
            })
            .collect(),
        _ => cfgs
            .iter()
            .map(|c| Solo {
                workload: c.workloads[0].clone(),
                core: c.core.clone(),
            })
            .collect(),
    };
    probes::engine(tr, &solos, out);
    let bodies: Vec<String> = cfgs.iter().map(|c| request_body(kind, c)).collect();
    probes::front(tr, &bodies, out);

    let (mut detail_share, mut cpi_err, mut lockstep) = (1.0, 0.0, 0.0);
    match kind {
        Kind::Detail => {}
        Kind::Sampled => {
            // Share of run_sampled host time not spent warming: the warm
            // probe's ns/µop times the plan's fast-forwarded µops.
            let run = median(&spans::durations(tr.spans(), "core.session.run_sampled"));
            let warm = out.get("workloads.warm.ns_per_uop").unwrap_or(f64::NAN);
            detail_share = 1.0 - warm * ff_uops(SAMPLED_UOPS, plan()) as f64 / run;
            cpi_err = probes::sampled_cpi_err(tr, &solos, SAMPLED_UOPS, plan());
        }
        Kind::Corun => {
            let groups: Vec<_> = cfgs
                .iter()
                .map(|c| (c.workloads.clone(), c.core.clone()))
                .collect();
            lockstep = probes::corun_lockstep(tr, &groups, CORUN_UOPS);
        }
    }
    out.set("core.sampling.detail_share", detail_share);
    out.set("core.sampling.cpi_rel_err", cpi_err);
    out.set("core.corun.lockstep_overhead_frac", lockstep);
    for name in [
        "serve.hit.transport_share",
        "serve.miss.wait_share",
        "serve.cache.hit_rate",
        "workloads.registry.hit_rate",
    ] {
        out.set(name, 0.0);
    }
}

/// The `/v1/simulate` or `/v1/corun` body that asks the service for the
/// same analysis as one operation of `c`.
pub fn request_body(kind: Kind, c: &OpCfg) -> String {
    let core = &c.core.name;
    match kind {
        Kind::Detail => format!(
            r#"{{"workload":"{}","core":"{core}","uops":{DETAIL_UOPS}}}"#,
            c.names[0]
        ),
        Kind::Sampled => format!(
            r#"{{"workload":"{}","core":"{core}","uops":{SAMPLED_UOPS},"sample":"{}"}}"#,
            c.names[0],
            plan()
        ),
        Kind::Corun => {
            let names: Vec<String> = c.names.iter().map(|n| format!("\"{n}\"")).collect();
            format!(
                r#"{{"workloads":[{}],"core":"{core}","uops":{CORUN_UOPS}}}"#,
                names.join(",")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_configuration_has_a_committed_digest() {
        for kind in [Kind::Detail, Kind::Sampled, Kind::Corun] {
            for c in kind.configs() {
                assert!(
                    expected_digest(kind.name(), &c.label).is_some(),
                    "{} {}",
                    kind.name(),
                    c.label
                );
            }
        }
    }

    #[test]
    fn ff_uops_matches_the_plan_period() {
        // 16 periods of 125 000: each fast-forwards 118 500 − 1 024.
        assert_eq!(ff_uops(SAMPLED_UOPS, plan()), 16 * (118_500 - 1_024));
    }

    #[test]
    fn request_bodies_decode_to_the_operation() {
        use mstacks_serve::{jsonin, request::Request};
        for kind in [Kind::Detail, Kind::Sampled] {
            for c in kind.configs() {
                let r =
                    Request::simulate(&jsonin::parse(&request_body(kind, &c)).unwrap()).unwrap();
                assert_eq!(
                    (r.workloads[0].name(), r.core.name.clone()),
                    (c.names[0].clone(), c.core.name.clone())
                );
            }
        }
        for c in Kind::Corun.configs() {
            let r =
                Request::corun(&jsonin::parse(&request_body(Kind::Corun, &c)).unwrap()).unwrap();
            assert_eq!(r.workloads.len(), c.workloads.len());
        }
    }
}
