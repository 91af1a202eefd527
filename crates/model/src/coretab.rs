//! `.core` table files: the declarative, on-disk form of a [`CoreConfig`].
//!
//! A core is data, not code (DESIGN.md §11). A table file is a plain-text
//! INI-like document — `[section]` headers, `key = value` lines, and one
//! whitespace-separated row per µop class in `[classes]` carrying the
//! class's latency, pipelining flag and eligible ports (uops.info-style
//! tabular port/latency data). [`parse`] turns a table into a validated
//! [`CoreConfig`] with line-numbered diagnostics; [`dump`] writes a
//! configuration back out in canonical form, and the two compose into an
//! exact round-trip ([`roundtrip`]) for *every* valid configuration,
//! fuzzed ones included.
//!
//! The three paper presets ship as `cores/{bdw,knl,skx}.core` and are
//! guaranteed field-for-field equal to the hand-written constructors (see
//! `tests/core_tables.rs`); two additional table-only cores (`zen`,
//! `atom`) exist purely as data. [`builtin`] parses the embedded copy of
//! any shipped table, once per process.
//!
//! # Grammar notes
//!
//! * `#` starts a comment (anywhere on a line).
//! * `[ports] names = p0 p1 …` declares the ports; declaration order is
//!   issue priority (the allocator picks the first listed free port).
//! * A `[classes]` row reads `class latency pipelined ports…`, e.g.
//!   `int_div 21 no p2`; `-` means "no eligible port". Classes sharing a
//!   functional unit (e.g. `int_add`/`lea`/`nop` on the integer ALUs, the
//!   four `fp_*` classes on the VPUs) must list identical ports, because
//!   eligibility is per-unit in the engine.
//! * `nop` and `load` must declare latency 1 (fixed by the engine: a
//!   load's port slot is address generation; the memory hierarchy adds
//!   the access latency). The divide classes must be `no` (unpipelined),
//!   everything else `yes` — the flags are part of the table so the
//!   execution contract is explicit, and the parser rejects combinations
//!   the engine does not model.
//! * Cache sizes accept `size_kb` or `size_bytes`.

use crate::classes::{UopClass, UOP_CLASSES};
use crate::config::{
    BpredConfig, CacheConfig, CoreConfig, LatencyTable, MemConfig, PrefetchConfig, TlbConfig,
};
use crate::ports::{caps, PortSpec};
use std::sync::OnceLock;

/// Names of the shipped built-in core tables (in `cores/`).
pub const BUILTIN_NAMES: [&str; 5] = ["bdw", "knl", "skx", "zen", "atom"];

/// The embedded source text of a shipped table, by name.
pub fn builtin_source(name: &str) -> Option<&'static str> {
    match name {
        "bdw" => Some(include_str!("../../../cores/bdw.core")),
        "knl" => Some(include_str!("../../../cores/knl.core")),
        "skx" => Some(include_str!("../../../cores/skx.core")),
        "zen" => Some(include_str!("../../../cores/zen.core")),
        "atom" => Some(include_str!("../../../cores/atom.core")),
        _ => None,
    }
}

/// The memoized preset at `BUILTIN_NAMES[i]`, parsed on first use.
fn preset(i: usize) -> &'static CoreConfig {
    static PRESETS: [OnceLock<CoreConfig>; BUILTIN_NAMES.len()] =
        [const { OnceLock::new() }; BUILTIN_NAMES.len()];
    PRESETS[i].get_or_init(|| {
        let name = BUILTIN_NAMES[i];
        let src = builtin_source(name).expect("every builtin name has a source");
        parse(src).unwrap_or_else(|e| panic!("embedded core table `{name}` is invalid: {e}"))
    })
}

/// A shipped built-in table by name, as a [`CoreConfig`].
///
/// Memoized: each embedded table is parsed once per process, on the first
/// call that names it; every call returns a clone of that parse, so it is
/// equal to `parse(builtin_source(name))` field for field.
///
/// # Panics
///
/// Panics if the embedded table fails to parse — shipped tables are build
/// artifacts validated in CI, so that is a packaging bug, not user error.
pub fn builtin(name: &str) -> Option<CoreConfig> {
    let i = BUILTIN_NAMES.iter().position(|&n| n == name)?;
    Some(preset(i).clone())
}

/// The index in [`BUILTIN_NAMES`] of the shipped preset that `cfg` equals:
/// matched by name, then field for field (`==`). A configuration that
/// borrows a preset's name but differs in any field has no index.
pub fn preset_index(cfg: &CoreConfig) -> Option<usize> {
    let i = BUILTIN_NAMES.iter().position(|&n| n == cfg.name)?;
    (*preset(i) == *cfg).then_some(i)
}

/// Error from parsing or round-tripping a core table, with the offending
/// line when one exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableError {
    /// 1-based line number of the offending line, when attributable.
    pub line: Option<usize>,
    message: String,
}

impl TableError {
    fn new(message: impl Into<String>) -> Self {
        TableError {
            line: None,
            message: message.into(),
        }
    }

    fn at(line: usize, message: impl Into<String>) -> Self {
        TableError {
            line: Some(line),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(n) => write!(f, "core table, line {n}: {}", self.message),
            None => write!(f, "core table: {}", self.message),
        }
    }
}

impl std::error::Error for TableError {}

const SECTIONS: [&str; 12] = [
    "core", "bpred", "ports", "classes", "l1i", "l1d", "l2", "l3", "mem", "itlb", "dtlb",
    "prefetch",
];

/// Raw section: header line plus its content lines (comments stripped).
struct RawSection {
    name: String,
    header_line: usize,
    lines: Vec<(usize, String)>,
}

/// A key/value section with duplicate detection and used-key tracking
/// (leftover keys are reported as unknown).
struct Kv {
    name: String,
    header_line: usize,
    entries: Vec<(usize, String, String)>,
    used: Vec<bool>,
}

impl Kv {
    fn from_raw(raw: RawSection) -> Result<Kv, TableError> {
        let mut entries: Vec<(usize, String, String)> = Vec::new();
        for (line, text) in raw.lines {
            let Some((k, v)) = text.split_once('=') else {
                return Err(TableError::at(
                    line,
                    format!("[{}]: expected `key = value`, got `{text}`", raw.name),
                ));
            };
            let (k, v) = (k.trim().to_string(), v.trim().to_string());
            if let Some((first, _, _)) = entries.iter().find(|(_, ek, _)| *ek == k) {
                return Err(TableError::at(
                    line,
                    format!("duplicate key `{k}` (first at line {first})"),
                ));
            }
            entries.push((line, k, v));
        }
        let used = vec![false; entries.len()];
        Ok(Kv {
            name: raw.name,
            header_line: raw.header_line,
            entries,
            used,
        })
    }

    fn has(&self, key: &str) -> bool {
        self.entries.iter().any(|(_, k, _)| k == key)
    }

    fn get(&mut self, key: &str) -> Result<(usize, String), TableError> {
        match self.entries.iter().position(|(_, k, _)| k == key) {
            Some(i) => {
                self.used[i] = true;
                Ok((self.entries[i].0, self.entries[i].2.clone()))
            }
            None => Err(TableError::at(
                self.header_line,
                format!("[{}]: missing key `{key}`", self.name),
            )),
        }
    }

    fn u32(&mut self, key: &str) -> Result<u32, TableError> {
        let (line, v) = self.get(key)?;
        v.parse().map_err(|_| {
            TableError::at(
                line,
                format!("`{key}`: expected an unsigned integer, got `{v}`"),
            )
        })
    }

    fn u64(&mut self, key: &str) -> Result<u64, TableError> {
        let (line, v) = self.get(key)?;
        v.parse().map_err(|_| {
            TableError::at(
                line,
                format!("`{key}`: expected an unsigned integer, got `{v}`"),
            )
        })
    }

    fn usize(&mut self, key: &str) -> Result<usize, TableError> {
        let (line, v) = self.get(key)?;
        v.parse().map_err(|_| {
            TableError::at(
                line,
                format!("`{key}`: expected an unsigned integer, got `{v}`"),
            )
        })
    }

    fn f64(&mut self, key: &str) -> Result<f64, TableError> {
        let (line, v) = self.get(key)?;
        let x: f64 = v
            .parse()
            .map_err(|_| TableError::at(line, format!("`{key}`: expected a number, got `{v}`")))?;
        if !x.is_finite() {
            return Err(TableError::at(line, format!("`{key}`: must be finite")));
        }
        Ok(x)
    }

    fn bool(&mut self, key: &str) -> Result<bool, TableError> {
        let (line, v) = self.get(key)?;
        match v.as_str() {
            "yes" => Ok(true),
            "no" => Ok(false),
            _ => Err(TableError::at(
                line,
                format!("`{key}`: expected `yes` or `no`, got `{v}`"),
            )),
        }
    }

    /// Errors on the first key that was never consumed.
    fn finish(self) -> Result<(), TableError> {
        for (i, (line, k, _)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(TableError::at(
                    *line,
                    format!("[{}]: unknown key `{k}`", self.name),
                ));
            }
        }
        Ok(())
    }
}

fn cache_section(kv: &mut Kv) -> Result<CacheConfig, TableError> {
    let size_bytes = if kv.has("size_bytes") {
        kv.u64("size_bytes")?
    } else {
        kv.u64("size_kb")?.saturating_mul(1024)
    };
    Ok(CacheConfig {
        size_bytes,
        assoc: kv.u32("assoc")?,
        line_bytes: kv.u32("line_bytes")?,
        latency: kv.u32("latency")?,
        mshrs: kv.u32("mshrs")?,
    })
}

fn tlb_section(kv: &mut Kv) -> Result<TlbConfig, TableError> {
    Ok(TlbConfig {
        entries: kv.u32("entries")?,
        assoc: kv.u32("assoc")?,
        walk_cycles: kv.u32("walk_cycles")?,
    })
}

fn cap_label(cap: u16) -> &'static str {
    match cap {
        caps::INT_ALU => "int_alu",
        caps::INT_MUL => "int_mul",
        caps::INT_DIV => "int_div",
        caps::BRANCH => "branch",
        caps::LOAD => "load",
        caps::STORE => "store",
        caps::VEC_FP => "vec_fp",
        caps::VEC_INT => "vec_int",
        _ => "?",
    }
}

/// One parsed `[classes]` row.
struct ClassRow {
    line: usize,
    latency: u32,
    port_mask: u32,
}

/// Parses a `.core` table into a validated [`CoreConfig`].
///
/// # Errors
///
/// Returns a [`TableError`] with a line number for syntax problems,
/// unknown/duplicate/missing keys or class rows, references to
/// nonexistent ports, inconsistent per-unit port lists, and pipelining or
/// latency declarations the engine does not model; semantic violations
/// found by [`CoreConfig::validate`] are reported without a line.
pub fn parse(text: &str) -> Result<CoreConfig, TableError> {
    // ---- Pass 1: split into raw sections ------------------------------
    let mut sections: Vec<RawSection> = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let content = raw_line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        if let Some(stripped) = content.strip_prefix('[') {
            let Some(name) = stripped.strip_suffix(']') else {
                return Err(TableError::at(line_no, "malformed section header"));
            };
            let name = name.trim().to_string();
            if !SECTIONS.contains(&name.as_str()) {
                return Err(TableError::at(
                    line_no,
                    format!("unknown section `[{name}]`"),
                ));
            }
            if let Some(prev) = sections.iter().find(|s| s.name == name) {
                return Err(TableError::at(
                    line_no,
                    format!(
                        "duplicate section `[{name}]` (first at line {})",
                        prev.header_line
                    ),
                ));
            }
            sections.push(RawSection {
                name,
                header_line: line_no,
                lines: Vec::new(),
            });
        } else {
            let Some(sec) = sections.last_mut() else {
                return Err(TableError::at(
                    line_no,
                    "content before the first [section] header",
                ));
            };
            sec.lines.push((line_no, content.to_string()));
        }
    }
    fn take(sections: &mut Vec<RawSection>, name: &str) -> Option<RawSection> {
        let i = sections.iter().position(|s| s.name == name)?;
        Some(sections.remove(i))
    }
    fn require(sections: &mut Vec<RawSection>, name: &str) -> Result<RawSection, TableError> {
        take(sections, name)
            .ok_or_else(|| TableError::new(format!("missing required section `[{name}]`")))
    }

    // ---- [ports]: declaration order is port-index / issue priority ----
    let mut ports_kv = Kv::from_raw(require(&mut sections, "ports")?)?;
    let (names_line, names_val) = ports_kv.get("names")?;
    let port_names: Vec<String> = names_val.split_whitespace().map(str::to_string).collect();
    if port_names.is_empty() {
        return Err(TableError::at(
            names_line,
            "`names`: at least one port required",
        ));
    }
    if port_names.len() > 32 {
        return Err(TableError::at(
            names_line,
            "`names`: at most 32 ports supported",
        ));
    }
    for (i, n) in port_names.iter().enumerate() {
        if port_names[..i].contains(n) {
            return Err(TableError::at(
                names_line,
                format!("duplicate port name `{n}`"),
            ));
        }
    }
    ports_kv.finish()?;

    // ---- [classes]: one row per µop class -----------------------------
    let classes_raw = require(&mut sections, "classes")?;
    let classes_header = classes_raw.header_line;
    let mut rows: [Option<ClassRow>; UopClass::COUNT] = Default::default();
    for (line, text) in &classes_raw.lines {
        let fields: Vec<&str> = text.split_whitespace().collect();
        if fields.len() < 4 {
            return Err(TableError::at(
                *line,
                format!("expected `class latency pipelined ports…`, got `{text}`"),
            ));
        }
        let Some(class) = UopClass::from_name(fields[0]) else {
            return Err(TableError::at(
                *line,
                format!("unknown µop class `{}`", fields[0]),
            ));
        };
        if let Some(prev) = &rows[class.index()] {
            return Err(TableError::at(
                *line,
                format!(
                    "duplicate class row `{class}` (first at line {})",
                    prev.line
                ),
            ));
        }
        let latency: u32 = fields[1].parse().map_err(|_| {
            TableError::at(
                *line,
                format!("class `{class}`: bad latency `{}`", fields[1]),
            )
        })?;
        let pipelined = match fields[2] {
            "yes" => true,
            "no" => false,
            other => {
                return Err(TableError::at(
                    *line,
                    format!("class `{class}`: pipelined must be `yes` or `no`, got `{other}`"),
                ))
            }
        };
        let mut port_mask = 0u32;
        if fields[3..] != ["-"] {
            for p in &fields[3..] {
                let Some(idx) = port_names.iter().position(|n| n == p) else {
                    return Err(TableError::at(
                        *line,
                        format!(
                            "class `{class}`: unknown port `{p}` (declared ports: {})",
                            port_names.join(" ")
                        ),
                    ));
                };
                port_mask |= 1 << idx;
            }
        }
        // Engine-model constraints — part of the table so the execution
        // contract is explicit, checked so it cannot silently diverge.
        if matches!(class, UopClass::Nop | UopClass::Load) && latency != 1 {
            return Err(TableError::at(
                *line,
                format!(
                    "class `{class}`: latency is fixed at 1 by the engine \
                     (loads get the rest from the memory hierarchy)"
                ),
            ));
        }
        let must_block = matches!(class, UopClass::IntDiv | UopClass::FpDiv);
        if pipelined == must_block {
            return Err(TableError::at(
                *line,
                if must_block {
                    format!("class `{class}`: divides are unpipelined in the engine; write `no`")
                } else {
                    format!("class `{class}`: only the divide classes are unpipelined; write `yes`")
                },
            ));
        }
        rows[class.index()] = Some(ClassRow {
            line: *line,
            latency,
            port_mask,
        });
    }
    for c in UOP_CLASSES {
        if rows[c.index()].is_none() {
            return Err(TableError::at(
                classes_header,
                format!("[classes]: missing class row `{c}`"),
            ));
        }
    }
    let row = |c: UopClass| rows[c.index()].as_ref().expect("all rows present");

    // Rebuild the port capability masks from the class rows, then check
    // consistency: classes sharing a unit must list identical ports.
    let mut port_caps = vec![0u16; port_names.len()];
    for c in UOP_CLASSES {
        for (i, cap) in port_caps.iter_mut().enumerate() {
            if row(c).port_mask >> i & 1 == 1 {
                *cap |= c.cap();
            }
        }
    }
    for c in UOP_CLASSES {
        let derived = port_caps
            .iter()
            .enumerate()
            .filter(|(_, &m)| m & c.cap() != 0)
            .fold(0u32, |m, (i, _)| m | 1 << i);
        if derived != row(c).port_mask {
            let sibling = UOP_CLASSES
                .iter()
                .find(|&&o| o != c && o.cap() == c.cap())
                .map(|o| o.name())
                .unwrap_or("?");
            return Err(TableError::at(
                row(c).line,
                format!(
                    "class `{c}`: classes sharing the {} unit must list identical \
                     ports (compare the `{sibling}` row)",
                    cap_label(c.cap())
                ),
            ));
        }
    }
    for (i, &m) in port_caps.iter().enumerate() {
        if m == 0 {
            return Err(TableError::at(
                names_line,
                format!(
                    "port `{}` is declared but no class row references it",
                    port_names[i]
                ),
            ));
        }
    }

    let lat = LatencyTable {
        int_add: row(UopClass::IntAdd).latency,
        int_mul: row(UopClass::IntMul).latency,
        int_div: row(UopClass::IntDiv).latency,
        lea: row(UopClass::Lea).latency,
        branch: row(UopClass::Branch).latency,
        fp_add: row(UopClass::FpAdd).latency,
        fp_mul: row(UopClass::FpMul).latency,
        fp_fma: row(UopClass::FpFma).latency,
        fp_div: row(UopClass::FpDiv).latency,
        vec_int: row(UopClass::VecInt).latency,
        store: row(UopClass::Store).latency,
    };

    // ---- Scalar sections ----------------------------------------------
    let mut core = Kv::from_raw(require(&mut sections, "core")?)?;
    let mut bpred = Kv::from_raw(require(&mut sections, "bpred")?)?;
    let mut l1i = Kv::from_raw(require(&mut sections, "l1i")?)?;
    let mut l1d = Kv::from_raw(require(&mut sections, "l1d")?)?;
    let mut l2 = Kv::from_raw(require(&mut sections, "l2")?)?;
    let l3 = take(&mut sections, "l3").map(Kv::from_raw).transpose()?;
    let mut mem = Kv::from_raw(require(&mut sections, "mem")?)?;
    let mut itlb = Kv::from_raw(require(&mut sections, "itlb")?)?;
    let mut dtlb = Kv::from_raw(require(&mut sections, "dtlb")?)?;
    let mut prefetch = Kv::from_raw(require(&mut sections, "prefetch")?)?;

    let cfg = CoreConfig {
        name: core.get("name")?.1,
        fetch_width: core.u32("fetch_width")?,
        dispatch_width: core.u32("dispatch_width")?,
        issue_width: core.u32("issue_width")?,
        commit_width: core.u32("commit_width")?,
        rob_size: core.usize("rob_size")?,
        rs_size: core.usize("rs_size")?,
        ldq_size: core.usize("ldq_size")?,
        stq_size: core.usize("stq_size")?,
        frontend_depth: core.u32("frontend_depth")?,
        microcode_decode_cycles: core.u32("microcode_decode_cycles")?,
        ports: port_caps.into_iter().map(PortSpec::new).collect(),
        lat,
        vector_bits: core.u32("vector_bits")?,
        freq_ghz: core.f64("freq_ghz")?,
        bpred: BpredConfig {
            history_bits: bpred.u32("history_bits")?,
            btb_sets_log2: bpred.u32("btb_sets_log2")?,
            btb_ways: bpred.u32("btb_ways")?,
            ras_entries: bpred.u32("ras_entries")?,
        },
        mem: MemConfig {
            l1i: cache_section(&mut l1i)?,
            l1d: cache_section(&mut l1d)?,
            l2: cache_section(&mut l2)?,
            l3: match l3 {
                Some(mut kv) => {
                    let c = cache_section(&mut kv)?;
                    kv.finish()?;
                    Some(c)
                }
                None => None,
            },
            dram_latency: mem.u32("dram_latency")?,
            dram_bytes_per_cycle: mem.f64("dram_bytes_per_cycle")?,
            prefetch: PrefetchConfig {
                stride_enabled: prefetch.bool("stride")?,
                stride_degree: prefetch.u32("stride_degree")?,
                stride_threshold: prefetch.u32("stride_threshold")?,
                next_line_enabled: prefetch.bool("next_line")?,
            },
            itlb: tlb_section(&mut itlb)?,
            dtlb: tlb_section(&mut dtlb)?,
        },
    };
    for kv in [core, bpred, l1i, l1d, l2, mem, itlb, dtlb, prefetch] {
        kv.finish()?;
    }
    if let Some(sec) = sections.first() {
        // Sections that parsed but were never consumed cannot exist: the
        // header pass rejects unknown names and `take` removes known
        // ones. Defensive: report rather than silently ignore.
        return Err(TableError::at(
            sec.header_line,
            format!("section `[{}]` not consumed", sec.name),
        ));
    }
    cfg.validate().map_err(|e| TableError::new(e.to_string()))?;
    Ok(cfg)
}

/// Dumps a configuration as a canonical `.core` table. [`parse`] of the
/// result reproduces the configuration exactly (see [`roundtrip`]); the
/// shipped preset tables are generated this way (`mstacks cores dump`).
pub fn dump(cfg: &CoreConfig) -> String {
    use std::fmt::Write as _;
    let table = cfg.class_table();
    let port_name = |i: usize| format!("p{i}");
    let mut out = String::with_capacity(2048);
    let _ = writeln!(
        out,
        "# {} — mstacks declarative core table (DESIGN.md §11).\n\
         # Regenerate with: mstacks cores dump {}\n",
        cfg.name, cfg.name
    );
    let _ = writeln!(out, "[core]");
    let _ = writeln!(out, "name = {}", cfg.name);
    let _ = writeln!(out, "fetch_width = {}", cfg.fetch_width);
    let _ = writeln!(out, "dispatch_width = {}", cfg.dispatch_width);
    let _ = writeln!(out, "issue_width = {}", cfg.issue_width);
    let _ = writeln!(out, "commit_width = {}", cfg.commit_width);
    let _ = writeln!(out, "rob_size = {}", cfg.rob_size);
    let _ = writeln!(out, "rs_size = {}", cfg.rs_size);
    let _ = writeln!(out, "ldq_size = {}", cfg.ldq_size);
    let _ = writeln!(out, "stq_size = {}", cfg.stq_size);
    let _ = writeln!(out, "frontend_depth = {}", cfg.frontend_depth);
    let _ = writeln!(
        out,
        "microcode_decode_cycles = {}",
        cfg.microcode_decode_cycles
    );
    let _ = writeln!(out, "vector_bits = {}", cfg.vector_bits);
    let _ = writeln!(out, "freq_ghz = {}", cfg.freq_ghz);
    let _ = writeln!(out, "\n[bpred]");
    let _ = writeln!(out, "history_bits = {}", cfg.bpred.history_bits);
    let _ = writeln!(out, "btb_sets_log2 = {}", cfg.bpred.btb_sets_log2);
    let _ = writeln!(out, "btb_ways = {}", cfg.bpred.btb_ways);
    let _ = writeln!(out, "ras_entries = {}", cfg.bpred.ras_entries);
    let _ = writeln!(out, "\n[ports]");
    let _ = writeln!(
        out,
        "# Declaration order is issue priority: the allocator picks the"
    );
    let _ = writeln!(out, "# first listed free port.");
    let names: Vec<String> = (0..cfg.ports.len()).map(port_name).collect();
    let _ = writeln!(out, "names = {}", names.join(" "));
    let _ = writeln!(out, "\n[classes]");
    let _ = writeln!(out, "# class    lat  pipelined  ports");
    for c in UOP_CLASSES {
        let spec = table.spec(c);
        let ports: Vec<String> = spec.ports().map(port_name).collect();
        let _ = writeln!(
            out,
            "{:<8} {:>4}  {:<9}  {}",
            c.name(),
            spec.latency,
            if spec.pipelined { "yes" } else { "no" },
            if ports.is_empty() {
                "-".to_string()
            } else {
                ports.join(" ")
            }
        );
    }
    let cache = |out: &mut String, name: &str, c: &CacheConfig| {
        let _ = writeln!(out, "\n[{name}]");
        if c.size_bytes.is_multiple_of(1024) {
            let _ = writeln!(out, "size_kb = {}", c.size_bytes / 1024);
        } else {
            let _ = writeln!(out, "size_bytes = {}", c.size_bytes);
        }
        let _ = writeln!(out, "assoc = {}", c.assoc);
        let _ = writeln!(out, "line_bytes = {}", c.line_bytes);
        let _ = writeln!(out, "latency = {}", c.latency);
        let _ = writeln!(out, "mshrs = {}", c.mshrs);
    };
    cache(&mut out, "l1i", &cfg.mem.l1i);
    cache(&mut out, "l1d", &cfg.mem.l1d);
    cache(&mut out, "l2", &cfg.mem.l2);
    if let Some(l3) = &cfg.mem.l3 {
        cache(&mut out, "l3", l3);
    }
    let _ = writeln!(out, "\n[mem]");
    let _ = writeln!(out, "dram_latency = {}", cfg.mem.dram_latency);
    let _ = writeln!(
        out,
        "dram_bytes_per_cycle = {}",
        cfg.mem.dram_bytes_per_cycle
    );
    let tlb = |out: &mut String, name: &str, t: &TlbConfig| {
        let _ = writeln!(out, "\n[{name}]");
        let _ = writeln!(out, "entries = {}", t.entries);
        let _ = writeln!(out, "assoc = {}", t.assoc);
        let _ = writeln!(out, "walk_cycles = {}", t.walk_cycles);
    };
    tlb(&mut out, "itlb", &cfg.mem.itlb);
    tlb(&mut out, "dtlb", &cfg.mem.dtlb);
    let _ = writeln!(out, "\n[prefetch]");
    let yn = |b: bool| if b { "yes" } else { "no" };
    let _ = writeln!(out, "stride = {}", yn(cfg.mem.prefetch.stride_enabled));
    let _ = writeln!(out, "stride_degree = {}", cfg.mem.prefetch.stride_degree);
    let _ = writeln!(
        out,
        "stride_threshold = {}",
        cfg.mem.prefetch.stride_threshold
    );
    let _ = writeln!(
        out,
        "next_line = {}",
        yn(cfg.mem.prefetch.next_line_enabled)
    );
    out
}

/// Dump → parse → compare: the table-roundtrip mode of the config fuzzer.
/// Every valid [`CoreConfig`] must survive the trip bit-for-bit (`f64`
/// fields round-trip exactly through shortest-representation formatting).
///
/// # Errors
///
/// Returns the parse error, or a mismatch error if the reparsed
/// configuration differs from the original.
pub fn roundtrip(cfg: &CoreConfig) -> Result<(), TableError> {
    let text = dump(cfg);
    let parsed =
        parse(&text).map_err(|e| TableError::new(format!("dumped table fails to parse: {e}")))?;
    if &parsed != cfg {
        return Err(TableError::new(
            "dump → parse round-trip does not reproduce the configuration",
        ));
    }
    Ok(())
}

impl CoreConfig {
    /// Parses a `.core` table (see [`parse`]).
    ///
    /// # Errors
    ///
    /// See [`parse`].
    pub fn from_table(text: &str) -> Result<Self, TableError> {
        parse(text)
    }

    /// Renders this configuration as a canonical `.core` table.
    pub fn to_table(&self) -> String {
        dump(self)
    }

    /// Loads and parses a `.core` table file.
    ///
    /// # Errors
    ///
    /// Returns a [`TableError`] for I/O problems or any [`parse`] error.
    pub fn from_core_file(path: impl AsRef<std::path::Path>) -> Result<Self, TableError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| TableError::new(format!("cannot read `{}`: {e}", path.display())))?;
        parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    /// Regenerates the three shipped preset tables from the hand-written
    /// constructors: `MSTACKS_BLESS_CORES=1 cargo test -p mstacks-model
    /// bless_preset_tables`. Because the tables are *produced by* `dump`,
    /// parsing them back is field-for-field equal to the constructors by
    /// construction (asserted in `tests/core_tables.rs`).
    #[test]
    fn bless_preset_tables() {
        if std::env::var("MSTACKS_BLESS_CORES").is_err() {
            return;
        }
        for cfg in [
            CoreConfig::broadwell(),
            CoreConfig::knights_landing(),
            CoreConfig::skylake_server(),
        ] {
            let path = format!(
                "{}/../../cores/{}.core",
                env!("CARGO_MANIFEST_DIR"),
                cfg.name
            );
            std::fs::write(&path, dump(&cfg)).unwrap();
        }
    }

    #[test]
    fn presets_roundtrip() {
        for cfg in [
            CoreConfig::broadwell(),
            CoreConfig::knights_landing(),
            CoreConfig::skylake_server(),
        ] {
            roundtrip(&cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        }
    }

    #[test]
    fn fuzzed_configs_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(0x7AB1E);
        for i in 0..100 {
            let cfg = CoreConfig::fuzz(&mut rng);
            roundtrip(&cfg).unwrap_or_else(|e| panic!("fuzz config {i}: {e}"));
        }
    }

    #[test]
    fn builtins_parse_and_validate() {
        for name in BUILTIN_NAMES {
            let cfg = builtin(name).unwrap_or_else(|| panic!("missing builtin {name}"));
            assert_eq!(cfg.name, name);
            cfg.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(builtin("p4").is_none());
    }

    #[test]
    fn memoized_builtins_equal_a_fresh_parse() {
        for name in BUILTIN_NAMES {
            let fresh = parse(builtin_source(name).unwrap()).unwrap();
            assert_eq!(builtin(name).unwrap(), fresh, "{name}");
            // Twice: the second call is served from the memo.
            assert_eq!(builtin(name).unwrap(), fresh, "{name}");
        }
    }

    #[test]
    fn preset_index_matches_by_name_and_every_field() {
        for (i, name) in BUILTIN_NAMES.into_iter().enumerate() {
            let fresh = parse(builtin_source(name).unwrap()).unwrap();
            assert_eq!(preset_index(&fresh), Some(i), "{name}");
            // Same name, one field changed: no preset.
            let mut lookalike = fresh.clone();
            lookalike.rob_size += 1;
            assert_eq!(preset_index(&lookalike), None, "{name}");
        }
        let mut renamed = builtin("bdw").unwrap();
        renamed.name = "mybdw".to_string();
        assert_eq!(preset_index(&renamed), None);
    }

    fn bdw_table() -> String {
        dump(&CoreConfig::broadwell())
    }

    /// Replaces the first line containing `needle` and reports its
    /// 1-based line number.
    fn patch(table: &str, needle: &str, replacement: &str) -> (String, usize) {
        let mut out = Vec::new();
        let mut patched_at = None;
        for (i, l) in table.lines().enumerate() {
            if patched_at.is_none() && l.contains(needle) {
                patched_at = Some(i + 1);
                out.push(replacement.to_string());
            } else {
                out.push(l.to_string());
            }
        }
        (
            out.join("\n"),
            patched_at.unwrap_or_else(|| panic!("needle `{needle}` not found")),
        )
    }

    #[test]
    fn unknown_port_reference_is_line_numbered() {
        let (t, line) = patch(&bdw_table(), "int_div", "int_div   21  no         p9");
        let err = parse(&t).unwrap_err();
        assert_eq!(err.line, Some(line), "{err}");
        assert!(err.to_string().contains("unknown port `p9`"), "{err}");
    }

    #[test]
    fn duplicate_class_row_is_rejected() {
        let (t, line) = patch(
            &bdw_table(),
            "vec_int",
            "vec_int 1 yes p0 p2 p3\nvec_int 1 yes p0",
        );
        let err = parse(&t).unwrap_err();
        assert_eq!(err.line, Some(line + 1), "{err}");
        assert!(err.to_string().contains("duplicate class row"), "{err}");
    }

    #[test]
    fn missing_key_points_at_the_section() {
        let (t, line) = patch(&bdw_table(), "rob_size", "");
        let err = parse(&t).unwrap_err();
        assert!(err.to_string().contains("missing key `rob_size`"), "{err}");
        // Attributed to the [core] section header, which precedes the
        // removed line.
        assert!(err.line.is_some_and(|l| l < line), "{err}");
    }

    #[test]
    fn inconsistent_shared_unit_ports_are_rejected() {
        // `lea` shares the int_alu unit with `int_add`/`nop`; a different
        // port list is unrepresentable in per-unit eligibility.
        let (t, line) = patch(&bdw_table(), "lea", "lea 1 yes p0");
        let err = parse(&t).unwrap_err();
        assert_eq!(err.line, Some(line), "{err}");
        assert!(err.to_string().contains("identical ports"), "{err}");
    }

    #[test]
    fn unreferenced_port_is_rejected() {
        let (t, _) = patch(&bdw_table(), "names = ", "names = p0 p1 p2 p3 p4 p5 p6 p7");
        let err = parse(&t).unwrap_err();
        assert!(err.to_string().contains("no class row references"), "{err}");
    }

    #[test]
    fn engine_model_constraints_are_enforced() {
        let (t, _) = patch(&bdw_table(), "nop", "nop 3 yes p0 p1 p2 p3");
        assert!(parse(&t).unwrap_err().to_string().contains("fixed at 1"));
        let (t, _) = patch(&bdw_table(), "fp_div", "fp_div 13 yes p2 p3");
        assert!(parse(&t).unwrap_err().to_string().contains("unpipelined"));
        let (t, _) = patch(&bdw_table(), "int_mul", "int_mul 3 no p2 p3");
        assert!(parse(&t).unwrap_err().to_string().contains("write `yes`"));
    }

    #[test]
    fn syntax_errors_are_line_numbered() {
        let (t, line) = patch(&bdw_table(), "history_bits", "history_bits 13");
        let err = parse(&t).unwrap_err();
        assert_eq!(err.line, Some(line));
        assert!(err.to_string().contains("key = value"), "{err}");

        let (t, line) = patch(&bdw_table(), "[bpred]", "[bpred");
        let err = parse(&t).unwrap_err();
        assert_eq!(err.line, Some(line));

        let (t, line) = patch(&bdw_table(), "[bpred]", "[btb]");
        let err = parse(&t).unwrap_err();
        assert_eq!(err.line, Some(line));
        assert!(err.to_string().contains("unknown section"), "{err}");

        let (t, line) = patch(&bdw_table(), "stride_degree", "prefetch_degree = 4");
        let err = parse(&t).unwrap_err();
        // The bogus key is flagged as unknown (after the missing real one
        // is reported first — either diagnostic is acceptable, both are
        // attributed to a line).
        assert!(
            err.line == Some(line) || err.to_string().contains("missing key"),
            "{err}"
        );
    }

    #[test]
    fn semantic_validation_still_applies() {
        // A table can be syntactically perfect and still describe an
        // invalid machine; CoreConfig::validate has the last word.
        let (t, _) = patch(&bdw_table(), "rs_size", "rs_size = 100000");
        let err = parse(&t).unwrap_err();
        assert!(err.line.is_none());
        assert!(err.to_string().contains("RS"), "{err}");
    }

    #[test]
    fn size_kb_and_size_bytes_are_equivalent() {
        let (t, _) = patch(&bdw_table(), "size_kb = 32", "size_bytes = 32768");
        assert_eq!(parse(&t).unwrap(), CoreConfig::broadwell());
    }
}
