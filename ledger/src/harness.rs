//! What every workload shares: the run context, the seeded op order, the
//! end-to-end metrics and the host facts they are read from.

use crate::metrics::Outcome;
use crate::stats::{median, percentile, MIN_OPS};
use mstacks_model::rng::SmallRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported,
/// so one slow repetition cannot move `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Which child process this is. `Plain` measures the end-to-end metrics
/// with tracing off; `Spans` records spans around every layer call and
/// runs the layer probes; `Stages` runs with the engine's stage profiler
/// (`MSTACKS_STAGE_PROF=1`). The two traced phases split the run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Plain,
    Spans,
    Stages,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plain => "plain",
            Phase::Spans => "spans",
            Phase::Stages => "stages",
        }
    }

    pub fn parse(s: &str) -> Option<Phase> {
        [Phase::Plain, Phase::Spans, Phase::Stages]
            .into_iter()
            .find(|p| p.name() == s)
    }
}

/// One child's run parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub phase: Phase,
    /// `main` entry: the first set-up repetition is timed from here.
    pub process_start: Instant,
}

impl Ctx {
    /// Timed-loop length: the traced phases each take half the run.
    pub fn timed(&self) -> Duration {
        let share = if self.phase == Phase::Plain { 1.0 } else { 0.5 };
        Duration::from_secs_f64(self.seconds * share)
    }

    pub fn tracing(&self) -> bool {
        self.phase == Phase::Spans
    }

    /// Set-up repetitions: only the untraced phase reports `setup_s`.
    pub fn setup_reps(&self) -> usize {
        if self.phase == Phase::Plain {
            SETUP_REPS
        } else {
            1
        }
    }

    /// Fewest timed operations: the untraced phase reports p90.
    pub fn min_ops(&self) -> usize {
        if self.phase == Phase::Plain {
            MIN_OPS
        } else {
            1
        }
    }
}

/// The seed's op order over `n` configurations: consecutive blocks that
/// each hold every configuration once, in a seeded order. The seed moves
/// ops around but every prefix keeps the configuration mix balanced, so
/// throughput does not depend on which seed ran.
pub struct Order {
    rng: SmallRng,
    block: Vec<usize>,
    pos: usize,
}

impl Order {
    pub fn new(seed: u64, n: usize) -> Self {
        Order {
            rng: SmallRng::seed_from_u64(seed),
            block: (0..n).collect(),
            pos: n,
        }
    }
}

impl Iterator for Order {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pos == self.block.len() {
            shuffle(&mut self.rng, &mut self.block);
            self.pos = 0;
        }
        self.pos += 1;
        self.block.get(self.pos - 1).copied()
    }
}

/// Fisher–Yates shuffle with the ledger's seeded generator.
pub fn shuffle<T>(rng: &mut SmallRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Peak resident set of this process (VmHWM), MiB, less the host-speed
/// kernel's tables (resident from start to end, so part of every peak).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| {
            (kb * 1024.0 - KERNEL_BYTES as f64) / (1 << 20) as f64
        })
}

/// Host-speed kernel tables (u64 entries): one that lives in L2 and one
/// that spills to the last-level cache and DRAM, with the number of
/// dependent loads chased through each. Contention on a shared host slows
/// core-bound and memory-bound code by different factors; this mix of the
/// two tracks the simulator's slow-down (measured over ten minutes of
/// paired kernel/op timings: op ÷ kernel spread 3% where raw op time
/// spread 23%).
const KERNEL_TABLES: [(usize, usize); 2] = [(1 << 17, 100_000), (1 << 21, 12_000)];

/// What the kernel takes on the reference host (an uncontended 2-vCPU
/// 2.1 GHz Xeon VM): host times are reported at this host speed.
/// Changing the kernel or this constant re-bases every timed metric.
pub const REF_KERNEL_MS: f64 = 1.25;

/// Kernel runs per calibration; their median is the calibration.
const KERNEL_REPS: usize = 3;

/// Host-speed reference: fixed pointer-chasing hashes over the
/// [`KERNEL_TABLES`], code of this benchmark that no change to the
/// repository can speed up or slow down.
///
/// Shared hosts slow a whole run by tens of percent for seconds to
/// minutes; the simulator and this kernel slow by about the same factor,
/// so `REF_KERNEL_MS ÷ kernel time` measured just around a segment scales
/// its host times to what the reference host would take.
pub struct HostClock {
    tables: Vec<Vec<u64>>,
    /// Every calibration taken, ms.
    pub kernel_ms: Vec<f64>,
}

/// Bytes the kernel tables keep resident (excluded from `peak_rss_mb`).
pub const KERNEL_BYTES: usize = (KERNEL_TABLES[0].0 + KERNEL_TABLES[1].0) * 8;

impl HostClock {
    pub fn new() -> Self {
        let mut state = 0x5eed_u64;
        let tables = KERNEL_TABLES
            .iter()
            .map(|&(len, _)| {
                (0..len)
                    .map(|_| {
                        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        z ^ (z >> 27)
                    })
                    .collect()
            })
            .collect();
        HostClock {
            tables,
            kernel_ms: Vec::new(),
        }
    }

    /// Times the kernel and returns the factor that scales host time
    /// measured now to reference-host time. Each table is chased
    /// [`KERNEL_REPS`] times in a row and its median kept, so the L2
    /// table is timed warm and the large one is not mixed into it.
    pub fn factor(&mut self) -> f64 {
        let ms: f64 = self
            .tables
            .iter()
            .zip(&KERNEL_TABLES)
            .map(|(table, &(_, steps))| {
                let runs: Vec<f64> = (0..KERNEL_REPS)
                    .map(|_| {
                        let t = Instant::now();
                        black_box(chase(black_box(table), steps));
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .collect();
                median(&runs)
            })
            .sum();
        self.kernel_ms.push(ms);
        REF_KERNEL_MS / ms
    }
}

/// `steps` dependent loads through `table`, hashed.
fn chase(table: &[u64], steps: usize) -> u64 {
    let mask = table.len() - 1;
    let (mut h, mut idx) = (0xcbf2_9ce4_8422_2325_u64, 0usize);
    for _ in 0..steps {
        let v = table[idx];
        h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        idx = (v ^ (h >> 17)) as usize & mask;
    }
    h
}

/// A timed loop's results: raw host times and reference-host times.
#[derive(Default)]
pub struct Timed {
    /// Raw op latencies, ms.
    pub lat_ms: Vec<f64>,
    /// Op latencies scaled to the reference host, ms.
    pub ref_lat_ms: Vec<f64>,
    /// Raw loop time (calibrations excluded), s.
    pub secs: f64,
    /// Loop time scaled to the reference host, s.
    pub ref_secs: f64,
}

/// Runs `segment(deadline)` until the phase's run time has passed and at
/// least its minimum op count completed. Each call runs operations for
/// `seg` (at least one) and returns their latencies (ms); every segment
/// is scaled by the mean of the calibrations taken just before and after
/// it, with no operation in flight.
pub fn timed_loop(
    ctx: &Ctx,
    clock: &mut HostClock,
    seg: Duration,
    mut segment: impl FnMut(Instant) -> Vec<f64>,
) -> Timed {
    let mut t = Timed::default();
    let mut before = clock.factor();
    while t.secs < ctx.timed().as_secs_f64() || t.lat_ms.len() < ctx.min_ops() {
        let start = Instant::now();
        let lats = segment(start + seg);
        if lats.is_empty() {
            break;
        }
        let secs = start.elapsed().as_secs_f64();
        let after = clock.factor();
        // Mean kernel time of the two calibrations, as a factor.
        let f = 2.0 / (1.0 / before + 1.0 / after);
        t.ref_lat_ms.extend(lats.iter().map(|l| l * f));
        t.lat_ms.extend(lats);
        t.secs += secs;
        t.ref_secs += secs * f;
        before = after;
    }
    t
}

/// The end-to-end metrics of a plain run, at reference-host speed; the
/// raw host figures go to the fingerprint.
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    t: &mut Timed,
    sim_uops: u64,
    clock: &HostClock,
) {
    t.ref_lat_ms.sort_by(f64::total_cmp);
    t.lat_ms.sort_by(f64::total_cmp);
    out.set("setup_s", median(setup_s));
    out.set("ops_per_s", t.ref_lat_ms.len() as f64 / t.ref_secs);
    out.set("sim_uops_per_s", sim_uops as f64 / t.ref_secs);
    out.set(
        "op_p50_ms",
        percentile(&t.ref_lat_ms, 0.50).unwrap_or(f64::NAN),
    );
    out.set(
        "op_p90_ms",
        percentile(&t.ref_lat_ms, 0.90).unwrap_or(f64::NAN),
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out.info("host_kernel_ms", format!("{:.4}", median(&clock.kernel_ms)));
    out.info(
        "host_ops_per_s",
        format!("{:.4}", t.lat_ms.len() as f64 / t.secs),
    );
    let p = |q| percentile(&t.lat_ms, q).map_or("-".into(), |v| format!("{v:.4}"));
    out.info("host_op_p50_ms", p(0.5));
    out.info("host_op_p90_ms", p(0.9));
}
