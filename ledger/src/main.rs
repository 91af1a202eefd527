//! `ledger` — one benchmark for the mstacks simulator and its service,
//! end to end and layer by layer.
//!
//! ```text
//! ledger [--seed N] [--seconds S] [--trace 0|1] [--out FILE]   all workloads
//! ledger --workload W --seed N --seconds S --trace 0|1          one workload
//! ledger --compare A.json… -- B.json…                            §8 verdicts
//! ```
//!
//! Every workload runs in a child process of its own (this binary,
//! re-executed with `--child`), with every `MSTACKS_*` variable removed
//! from its environment, so `peak_rss_mb` and `setup_s` belong to that
//! workload alone and a stray variable cannot change what is measured.
//! Untraced, one child measures the end-to-end metrics. Traced
//! (`--trace 1`), one child records spans around each layer call and runs
//! the layer probes, and a second runs with the engine's stage profiler
//! on; the last line printed is then the per-layer metrics. See
//! `README.md` next to this crate for the workloads and metrics.

mod batch;
mod compare;
mod harness;
mod metrics;
mod probes;
mod serve;
mod spans;
mod stats;

use harness::{Ctx, Phase};
use metrics::{metrics_json, string_map, table, Outcome};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Per-stage metric names, in `mstacks_pipeline::STAGE_PROF_NAMES` order.
const STAGE_METRICS: [&str; 6] = [
    "pipeline.stage.resolve.ns_per_cycle",
    "pipeline.stage.commit.ns_per_cycle",
    "pipeline.stage.issue.ns_per_cycle",
    "pipeline.stage.dispatch.ns_per_cycle",
    "pipeline.stage.fetch.ns_per_cycle",
    "pipeline.stage.cycle_end.ns_per_cycle",
];

/// Host ns per simulated cycle of each engine stage over the timed loop,
/// plus the loop's median op latency (for `trace_overhead_frac`).
fn stage_metrics(out: &mut Outcome, lat_ms: &[f64]) {
    out.set("op_p50_ms", stats::median(lat_ms));
    match mstacks_pipeline::stage_prof_snapshot() {
        Some((cycles, ns)) if cycles > 0 => {
            for (name, t) in STAGE_METRICS.iter().zip(ns) {
                out.set(name, t as f64 / cycles as f64);
            }
        }
        _ => out.fail("the stage profiler recorded no cycles".into()),
    }
}

/// Host facts for the fingerprint block.
fn machine() -> Vec<(String, String)> {
    let rustc = Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    vec![
        ("kernel".into(), read_trim("/proc/sys/kernel/osrelease")),
        ("arch".into(), std::env::consts::ARCH.into()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc".into(), rustc),
        ("git_head".into(), git_head()),
        ("unix_time".into(), unix_time.to_string()),
    ]
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path).map_or("unknown".into(), |s| s.trim().to_string())
}

/// HEAD of a git checkout in the working directory, read from `.git`
/// directly; "none" outside a repository.
fn git_head() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    std::fs::read_to_string(format!(".git/{r}"))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        })
        .map_or_else(|| r.to_string(), |h| h.trim().to_string())
}

/// Writes the spans of a traced child to
/// `target/ledger/spans-<workload>-<seed>.json`; `ops[i]` names the
/// configuration of `op_id` i.
fn write_spans(ctx: &Ctx, out: &Outcome, ops: &[String], spans: &[spans::Span]) {
    let mut header = machine();
    header.push(("workload".into(), ctx.workload.clone()));
    header.push(("seed".into(), ctx.seed.to_string()));
    header.extend(out.info.iter().cloned());
    let dir = std::path::Path::new("target").join("ledger");
    let path = dir.join(format!("spans-{}-{}.json", ctx.workload, ctx.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(&string_map(&header), ops, spans)));
    match written {
        Ok(()) => eprintln!("ledger: wrote {} ({} spans)", path.display(), spans.len()),
        Err(e) => eprintln!("ledger: cannot write {}: {e}", path.display()),
    }
}

/// Runs one workload phase in this process and prints its outcome.
fn child(ctx: &Ctx) -> ExitCode {
    let out = match ctx.workload.as_str() {
        "serve" => serve::run(ctx),
        w => batch::run(
            batch::Kind::parse(w).expect("workload checked by the parent"),
            ctx,
        ),
    };
    for e in &out.errors {
        eprintln!("ledger [{} {}]: {e}", ctx.workload, ctx.phase.name());
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}

/// Re-executes this binary as a clean child for one workload phase.
fn spawn(workload: &str, phase: Phase, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the ledger binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", phase.name(), "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("MSTACKS_") {
            cmd.env_remove(k);
        }
    }
    if phase == Phase::Stages {
        cmd.env("MSTACKS_STAGE_PROF", "1");
    }
    let done = cmd
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    if !done.status.success() {
        return Err(format!(
            "{workload} ({}): child {}",
            phase.name(),
            done.status
        ));
    }
    let text = String::from_utf8_lossy(&done.stdout);
    let last = text.lines().last().unwrap_or_default();
    Outcome::from_json(last).map_err(|e| format!("{workload}: bad child output: {e}"))
}

/// One workload's merged result.
struct WorkloadRun {
    name: String,
    out: Outcome,
}

/// Runs the untraced phase (`plain`) and/or the two traced phases of one
/// workload and merges what they report.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    plain: bool,
    traced: bool,
) -> Result<WorkloadRun, String> {
    let mut out = if plain {
        spawn(name, Phase::Plain, seed, seconds)?
    } else {
        Outcome::default()
    };
    if traced {
        let spans = spawn(name, Phase::Spans, seed, seconds)?;
        let stages = spawn(name, Phase::Stages, seed, seconds)?;
        let p50 = |o: &Outcome| o.get("op_p50_ms").unwrap_or(f64::NAN);
        out.set("trace_overhead_frac", p50(&stages) / p50(&spans) - 1.0);
        for (phase, o) in [("spans", spans), ("stages", stages)] {
            out.attempted += o.attempted;
            out.failed += o.failed;
            out.metrics
                .extend(o.metrics.into_iter().filter(|(n, _)| n != "op_p50_ms"));
            out.info
                .extend(o.info.into_iter().map(|(k, v)| (format!("{phase}.{k}"), v)));
        }
    }
    Ok(WorkloadRun {
        name: name.to_string(),
        out,
    })
}

/// The fingerprint: host facts, run parameters and per-workload facts.
fn fingerprint(seed: u64, seconds: f64, runs: &[WorkloadRun]) -> Vec<(String, String)> {
    let mut f = machine();
    f.push(("seed".into(), seed.to_string()));
    f.push(("seconds".into(), seconds.to_string()));
    for r in runs {
        for (k, v) in &r.out.info {
            f.push((format!("{}.{k}", r.name), v.clone()));
        }
    }
    f
}

/// The ledger file: fingerprint plus every workload's metrics.
fn ledger_json(
    fp: &[(String, String)],
    runs: &[WorkloadRun],
    plain: bool,
    traced: bool,
) -> Result<String, String> {
    let t = table();
    let mut defs = Vec::new();
    if plain {
        defs.extend(t.end_to_end.iter().cloned());
    }
    if traced {
        defs.extend(t.per_layer.iter().cloned());
    }
    let mut ws = Vec::new();
    for r in runs {
        let metrics = metrics_json(&defs, &r.out.metrics)
            .map_err(|m| format!("{}: no metric {m}", r.name))?;
        ws.push(format!(
            "\"{}\":{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
            r.name,
            r.out.failed == 0,
            r.out.attempted,
            r.out.failed
        ));
    }
    Ok(format!(
        "{{\"fingerprint\":{},\"traced\":{traced},\"workloads\":{{{}}}}}\n",
        string_map(fp),
        ws.join(",")
    ))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    child: Option<Phase>,
}

const USAGE: &str = "usage: ledger [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       ledger --compare A.json... -- B.json...";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: table().run_seconds,
        traced: false,
        out: None,
        child: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(value()?.clone()),
            "--child" => a.child = Some(Phase::parse(value()?).ok_or("unknown --child phase")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !table().workloads.contains(w) {
            return Err(format!(
                "unknown workload `{w}` (use {})",
                table().workloads.join(", ")
            ));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let rest = &argv[1..];
        let split = rest.iter().position(|a| a == "--").unwrap_or(rest.len());
        let b = rest.get(split + 1..).unwrap_or_default();
        return match compare::run(&rest[..split], b) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(phase) = args.child {
        return child(&Ctx {
            workload: args.workload.expect("--child needs --workload"),
            seed: args.seed,
            seconds: args.seconds,
            phase,
            process_start,
        });
    }

    let names: Vec<String> = match &args.workload {
        Some(w) => vec![w.clone()],
        None => table().workloads.clone(),
    };
    // A single traced workload reports only per-layer metrics, so it
    // skips the untraced phase; the all-workload ledger prints both.
    let plain = !args.traced || args.workload.is_none();
    let mut runs = Vec::new();
    for name in &names {
        match run_workload(name, args.seed, args.seconds, plain, args.traced) {
            Ok(r) => runs.push(r),
            Err(e) => {
                eprintln!("ledger: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let fp = fingerprint(args.seed, args.seconds, &runs);
    println!("fingerprint {}", string_map(&fp));
    if let Some(path) = &args.out {
        let written = ledger_json(&fp, &runs, plain, args.traced)
            .and_then(|j| std::fs::write(path, j).map_err(|e| e.to_string()));
        if let Err(e) = written {
            eprintln!("ledger: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if args.workload.is_none() {
        print_table(&runs, args.traced);
        return ExitCode::SUCCESS;
    }
    // One workload: the last line is the result object the contract
    // names — end-to-end metrics untraced, per-layer metrics traced.
    let r = &runs[0];
    match metrics_json(table().reported(args.traced), &r.out.metrics) {
        Ok(m) => {
            println!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{m}}}",
                r.out.failed == 0,
                r.out.attempted,
                r.out.failed
            );
            ExitCode::SUCCESS
        }
        Err(name) => {
            eprintln!("ledger: {}: metric {name} was not measured", r.name);
            ExitCode::FAILURE
        }
    }
}

/// The human-readable ledger: one column per workload.
fn print_table(runs: &[WorkloadRun], traced: bool) {
    let t = table();
    let mut defs: Vec<&metrics::MetricDef> = t.end_to_end.iter().collect();
    if traced {
        defs.extend(&t.per_layer);
    }
    print!("{:<46}", "metric (unit)");
    for r in runs {
        print!(" {:>14}", r.name);
    }
    println!();
    let row = |label: String, cell: &dyn Fn(&WorkloadRun) -> String| {
        print!("{label:<46}");
        for r in runs {
            print!(" {:>14}", cell(r));
        }
        println!();
    };
    for d in defs {
        row(format!("{} ({})", d.name, d.unit), &|r| {
            r.out.get(&d.name).map_or("-".into(), |v| format!("{v:.4}"))
        });
    }
    row("ops attempted".into(), &|r| r.out.attempted.to_string());
    row("ops failed".into(), &|r| r.out.failed.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstacks_serve::jsonin;

    #[test]
    fn stage_metrics_follow_the_profiler_order() {
        for (metric, stage) in STAGE_METRICS.iter().zip(mstacks_pipeline::STAGE_PROF_NAMES) {
            assert_eq!(*metric, format!("pipeline.stage.{stage}.ns_per_cycle"));
            assert!(
                table().per_layer.iter().any(|d| d.name == *metric),
                "{metric} is in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn ledger_output_parses_with_the_service_parser() {
        let t = table();
        let mut out = Outcome {
            attempted: 120,
            ..Outcome::default()
        };
        for d in t.end_to_end.iter().chain(&t.per_layer) {
            out.set(&d.name, 0.125);
        }
        out.info("ops", "mcf-bdw:40 imagick-skx:40");
        let runs = [WorkloadRun {
            name: "detail".into(),
            out,
        }];
        let fp = fingerprint(1, 20.0, &runs);
        let json = ledger_json(&fp, &runs, true, true).expect("every metric present");
        let v = jsonin::parse(&json).expect("ledger JSON parses");
        let m = v
            .get("workloads")
            .and_then(|w| w.get("detail"))
            .and_then(|d| d.get("metrics"));
        assert_eq!(
            m.and_then(|m| m.get("setup_s"))
                .and_then(|s| s.get("unit"))
                .and_then(jsonin::Value::as_str),
            Some("s")
        );
        let back = compare::parse_run(&json).expect("compare reads it");
        assert_eq!(back["detail"]["op_p90_ms"], 0.125);
    }

    #[test]
    fn arguments_parse_and_reject_unknown_input() {
        let a = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = a("--workload serve --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload.as_deref(), ok.seed, ok.seconds, ok.traced),
            (Some("serve"), 9, 3.0, true)
        );
        assert!(a("--workload nope").is_err());
        assert!(a("--trace 2").is_err());
        assert!(a("--seconds 0").is_err());
        assert!(a("--bogus").is_err());
    }
}
