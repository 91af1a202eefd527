//! Decoding `/v1/*` JSON bodies into executable analysis requests, plus
//! their content-addressed cache keys and admission-cost estimates.
//!
//! The canonical identity of a request is built from round-trip-canonical
//! forms (see `mstacks_core::cachekey`): asking for `"core": "bdw"` and
//! posting the verbatim `.core` table that `cores dump bdw` prints are
//! the *same* cache entry.

use crate::jsonin::Value;
use mstacks_core::cachekey::{CacheKey, KeyBuilder};
use mstacks_core::{BadSpecMode, SamplePlan};
use mstacks_model::{coretab, CoreConfig, IdealFlags};
use mstacks_workloads::{spec, Workload};
use std::borrow::Cow;
use std::sync::OnceLock;

/// A decoded, validated analysis request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request kind (drives execution and the response schema).
    pub kind: Kind,
    /// Core configuration (from a preset name or a verbatim table).
    pub core: CoreConfig,
    /// One workload for simulate, 2–4 for corun.
    pub workloads: Vec<Workload>,
    /// Idealization flags (default: none).
    pub ideal: IdealFlags,
    /// Optional interval-sampling plan (simulate only).
    pub sample: Option<SamplePlan>,
    /// Micro-ops per core.
    pub uops: u64,
}

/// The executable request kinds (`sweep` decodes into many `Simulate`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Simulate,
    CoRun,
}

/// A client error: reported as HTTP 400 with this message.
#[derive(Debug)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn bad(msg: impl Into<String>) -> BadRequest {
    BadRequest(msg.into())
}

impl Request {
    /// Decodes a `/v1/simulate` body.
    pub fn simulate(body: &Value) -> Result<Request, BadRequest> {
        let w = workload_field(body, "workload")?;
        let mut r = Request::common(Kind::Simulate, body, vec![w])?;
        if let Some(s) = body.get("sample") {
            let text = s
                .as_str()
                .ok_or_else(|| bad("`sample` must be a \"warmup:detailed:ff\" string"))?;
            r.sample = Some(SamplePlan::parse(text).map_err(bad)?);
        }
        Ok(r)
    }

    /// Decodes a `/v1/corun` body (2–4 workloads, no sampling — the same
    /// restriction as the CLI: fast-forwarding desynchronizes the shared
    /// uncore).
    pub fn corun(body: &Value) -> Result<Request, BadRequest> {
        let names = body
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or_else(|| bad("`workloads` must be an array of 2-4 workload names"))?;
        if !(2..=4).contains(&names.len()) {
            return Err(bad(format!(
                "corun takes 2-4 workloads (one per core), got {}",
                names.len()
            )));
        }
        if body.get("sample").is_some() {
            return Err(bad(
                "`sample` is not supported for co-run sessions (run cores in full detail)",
            ));
        }
        let workloads = names
            .iter()
            .map(|n| {
                let name = n
                    .as_str()
                    .ok_or_else(|| bad("workload names are strings"))?;
                by_name(name)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Request::common(Kind::CoRun, body, workloads)
    }

    /// Decodes a `/v1/sweep` body: `{"points": [<simulate body>...]}`.
    /// Each point keys independently (and identically to a direct
    /// `/v1/simulate` call), so repeated sweep points and the IdealFlags
    /// lattice are cache hits.
    pub fn sweep(body: &Value) -> Result<Vec<Request>, BadRequest> {
        let pts = body
            .get("points")
            .and_then(Value::as_arr)
            .ok_or_else(|| bad("`points` must be an array of simulate requests"))?;
        if pts.is_empty() {
            return Err(bad("`points` must not be empty"));
        }
        if pts.len() > 1024 {
            return Err(bad("`points` is capped at 1024 per request"));
        }
        pts.iter().map(Request::simulate).collect()
    }

    fn common(kind: Kind, body: &Value, workloads: Vec<Workload>) -> Result<Request, BadRequest> {
        let core = core_field(body)?;
        let uops = match body.get("uops") {
            None => 300_000,
            Some(v) => v
                .as_u64()
                .filter(|&u| u > 0)
                .ok_or_else(|| bad("`uops` must be a positive integer"))?,
        };
        let ideal = match body.get("ideal") {
            None => IdealFlags::none(),
            Some(v) => parse_ideal(
                v.as_str()
                    .ok_or_else(|| bad("`ideal` must be a comma-list string"))?,
            )?,
        };
        Ok(Request {
            kind,
            core,
            workloads,
            ideal,
            sample: None,
            uops,
        })
    }

    /// The content-addressed identity of this request. Every constituent
    /// is a canonical form: the `.core` table dump, the workload's total
    /// `Debug` serialization, the `Display` forms of the flag set and the
    /// plan (both round-trip through their parsers).
    ///
    /// The `endpoint` and `core` frames lead every key. When the core
    /// equals a shipped preset, that prefix — string and running digest —
    /// is built once per process per (endpoint, preset) and cloned, so a
    /// key costs the short per-request fields, not a table dump and a hash
    /// of it. The bytes are those of the unmemoized path either way.
    pub fn cache_key(&self) -> CacheKey {
        static PREFIXES: [[OnceLock<KeyBuilder>; coretab::BUILTIN_NAMES.len()]; 2] =
            [const { [const { OnceLock::new() }; coretab::BUILTIN_NAMES.len()] }; 2];
        let prefix = match coretab::preset_index(&self.core) {
            Some(i) => PREFIXES[self.kind as usize][i]
                .get_or_init(|| self.key_prefix())
                .clone(),
            None => self.key_prefix(),
        };
        self.key_from(prefix)
    }

    fn endpoint(&self) -> &'static str {
        match self.kind {
            Kind::Simulate => "simulate",
            Kind::CoRun => "corun",
        }
    }

    /// The `endpoint` and `core` frames, built from scratch.
    fn key_prefix(&self) -> KeyBuilder {
        KeyBuilder::new(self.endpoint()).field("core", self.core.to_table())
    }

    /// Appends the per-request frames to a [`key_prefix`](Self::key_prefix).
    fn key_from(&self, prefix: KeyBuilder) -> CacheKey {
        let mut b = prefix
            .field("cores", self.workloads.len())
            .field("ideal", self.ideal)
            .field("uops", self.uops)
            .field(
                "sample",
                self.sample
                    .as_ref()
                    .map_or("-".to_string(), |p| p.to_string()),
            )
            .field("badspec", format!("{:?}", BadSpecMode::GroundTruth));
        for w in &self.workloads {
            b = b.field("workload", workload_canon(w));
        }
        b.finish()
    }

    /// Admission-control cost estimate in µops: the total detailed µop
    /// count the engine will actually retire. Sampled runs only simulate
    /// their warmup+detailed windows; the fast-forward is a functional
    /// profile (~10× cheaper), priced at 1/8 of a detailed µop.
    pub fn cost_uops(&self) -> u64 {
        let per_core = match &self.sample {
            None => self.uops,
            Some(p) => {
                let round = p.warmup + p.detailed + p.ff;
                let detailed = (p.warmup + p.detailed) as f64 / round as f64;
                let ff = p.ff as f64 / round as f64 / 8.0;
                (self.uops as f64 * (detailed + ff)).ceil() as u64
            }
        };
        per_core * self.workloads.len() as u64
    }
}

/// The `Debug` form of `w`, its frame in every key. Rendering it is most
/// of a key's cost, so it is memoized for the shipped SPEC profiles
/// (matched by `==`, which compares every generator parameter) and built
/// afresh for any other workload.
fn workload_canon(w: &Workload) -> Cow<'static, str> {
    static PROFILES: OnceLock<Vec<(Workload, OnceLock<String>)>> = OnceLock::new();
    let profiles = PROFILES.get_or_init(|| {
        spec::all()
            .into_iter()
            .map(|p| (p, OnceLock::new()))
            .collect()
    });
    match profiles.iter().find(|(p, _)| p == w) {
        Some((p, debug)) => Cow::Borrowed(debug.get_or_init(|| format!("{p:?}"))),
        None => Cow::Owned(format!("{w:?}")),
    }
}

fn workload_field(body: &Value, field: &str) -> Result<Workload, BadRequest> {
    let name = body
        .get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| bad(format!("`{field}` must be a workload name string")))?;
    by_name(name)
}

fn by_name(name: &str) -> Result<Workload, BadRequest> {
    spec::by_name(name).ok_or_else(|| bad(format!("unknown workload `{name}`")))
}

/// `core` (preset name) or `core_table` (verbatim `.core` text); both
/// canonicalize through the table round trip. Default: `bdw`.
fn core_field(body: &Value) -> Result<CoreConfig, BadRequest> {
    match (body.get("core"), body.get("core_table")) {
        (Some(_), Some(_)) => Err(bad("give `core` or `core_table`, not both")),
        (Some(v), None) => {
            let name = v
                .as_str()
                .ok_or_else(|| bad("`core` must be a preset name"))?;
            coretab::builtin(name).ok_or_else(|| {
                bad(format!(
                    "unknown core `{name}` (use {})",
                    coretab::BUILTIN_NAMES.join(", ")
                ))
            })
        }
        (None, Some(v)) => {
            let text = v
                .as_str()
                .ok_or_else(|| bad("`core_table` must be the .core file text"))?;
            coretab::parse(text).map_err(|e| bad(format!("bad core table: {e}")))
        }
        (None, None) => Ok(coretab::builtin("bdw").expect("bdw is built in")),
    }
}

fn parse_ideal(text: &str) -> Result<IdealFlags, BadRequest> {
    let mut f = IdealFlags::none();
    for part in text.split(',').filter(|p| !p.is_empty()) {
        f = match part.trim() {
            "icache" => f.with_perfect_icache(),
            "dcache" => f.with_perfect_dcache(),
            "bpred" => f.with_perfect_bpred(),
            "alu" => f.with_single_cycle_alu(),
            other => {
                return Err(bad(format!(
                    "unknown ideal flag `{other}` (use icache, dcache, bpred, alu)"
                )))
            }
        };
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonin;

    fn body(text: &str) -> Value {
        jsonin::parse(text).expect("test body parses")
    }

    #[test]
    fn simulate_decodes_with_defaults() {
        let r = Request::simulate(&body(r#"{"workload":"mcf"}"#)).expect("decodes");
        assert_eq!(r.kind, Kind::Simulate);
        assert_eq!(r.core.name, "bdw");
        assert_eq!(r.uops, 300_000);
        assert!(r.ideal.is_baseline());
        assert!(r.sample.is_none());
    }

    #[test]
    fn preset_and_verbatim_table_share_a_key() {
        let preset = Request::simulate(&body(r#"{"workload":"mcf","core":"skx"}"#)).unwrap();
        let table = coretab::builtin("skx").unwrap().to_table();
        let verbatim = Request::simulate(
            &jsonin::parse(&format!(
                r#"{{"workload":"mcf","core_table":{}}}"#,
                quote(&table)
            ))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            preset.cache_key().canonical(),
            verbatim.cache_key().canonical()
        );
    }

    /// The key of `r` built without any memo, frame by frame: its core
    /// re-parsed from the shipped source and dumped afresh, its workloads
    /// formatted afresh.
    fn fresh_key(r: &Request, name: &str) -> CacheKey {
        let core = coretab::parse(coretab::builtin_source(name).unwrap()).unwrap();
        let mut b = KeyBuilder::new(r.endpoint())
            .field("core", core.to_table())
            .field("cores", r.workloads.len())
            .field("ideal", r.ideal)
            .field("uops", r.uops)
            .field(
                "sample",
                r.sample.as_ref().map_or("-".to_string(), |p| p.to_string()),
            )
            .field("badspec", format!("{:?}", BadSpecMode::GroundTruth));
        for w in &r.workloads {
            b = b.field("workload", format!("{w:?}"));
        }
        b.finish()
    }

    #[test]
    fn memoized_keys_equal_fresh_parse_keys_for_every_preset_and_endpoint() {
        use mstacks_core::cachekey::fnv1a;
        for name in coretab::BUILTIN_NAMES {
            let sim = format!(r#"{{"workload":"mcf","core":"{name}","ideal":"dcache"}}"#);
            let co = format!(r#"{{"workloads":["mcf","lbm"],"core":"{name}"}}"#);
            for r in [
                Request::simulate(&body(&sim)).unwrap(),
                Request::corun(&body(&co)).unwrap(),
            ] {
                let want = fresh_key(&r, name);
                // First call fills the memo, the second is served from it.
                for _ in 0..2 {
                    let got = r.cache_key();
                    assert_eq!(got.canonical(), want.canonical(), "{name}");
                    assert_eq!(got.digest(), want.digest(), "{name}");
                    assert_eq!(got.digest(), fnv1a(got.canonical().as_bytes()));
                    assert_eq!(got.shard(7), want.shard(7));
                }
            }
        }
    }

    #[test]
    fn inline_table_with_a_preset_name_but_one_changed_field_gets_its_own_key() {
        let preset = Request::simulate(&body(r#"{"workload":"mcf","core":"skx"}"#)).unwrap();
        let table = coretab::builtin("skx").unwrap().to_table();
        let changed = table.replace("rob_size = 224", "rob_size = 225");
        assert_ne!(changed, table, "the skx table has rob_size = 224");
        let inline = Request::simulate(
            &jsonin::parse(&format!(
                r#"{{"workload":"mcf","core_table":{}}}"#,
                quote(&changed)
            ))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(inline.core.name, "skx");
        let k = inline.cache_key();
        assert_ne!(k.canonical(), preset.cache_key().canonical());
        assert_ne!(k.digest(), preset.cache_key().digest());
        assert!(k.canonical().contains("rob_size = 225"));
    }

    #[test]
    fn a_workload_that_differs_from_its_profile_gets_its_own_key() {
        let profile = Request::simulate(&body(r#"{"workload":"mcf"}"#)).unwrap();
        let mut custom = profile.clone();
        let Workload::Synth(p) = &mut custom.workloads[0] else {
            panic!("mcf is a synthetic profile");
        };
        p.seed += 1;
        let k = custom.cache_key();
        assert_ne!(k.canonical(), profile.cache_key().canonical());
        assert_eq!(k.canonical(), fresh_key(&custom, "bdw").canonical());
        assert_eq!(k.digest(), fresh_key(&custom, "bdw").digest());
    }

    #[test]
    fn distinct_ideal_flags_and_plans_never_collide() {
        let variants = [
            r#"{"workload":"mcf"}"#.to_string(),
            r#"{"workload":"mcf","ideal":"dcache"}"#.to_string(),
            r#"{"workload":"mcf","ideal":"icache"}"#.to_string(),
            r#"{"workload":"mcf","ideal":"dcache,icache"}"#.to_string(),
            r#"{"workload":"mcf","sample":"500:2500:12000"}"#.to_string(),
            r#"{"workload":"mcf","sample":"500:2500:1200"}"#.to_string(),
            r#"{"workload":"mcf","uops":300001}"#.to_string(),
            r#"{"workload":"lbm"}"#.to_string(),
        ];
        let keys: Vec<String> = variants
            .iter()
            .map(|v| {
                Request::simulate(&body(v))
                    .unwrap()
                    .cache_key()
                    .canonical()
                    .to_string()
            })
            .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "{} vs {}", variants[i], variants[j]);
            }
        }
    }

    #[test]
    fn corun_validates_arity_and_keys_on_every_workload() {
        assert!(Request::corun(&body(r#"{"workloads":["mcf"]}"#)).is_err());
        let ab = Request::corun(&body(r#"{"workloads":["mcf","lbm"]}"#)).unwrap();
        let ba = Request::corun(&body(r#"{"workloads":["lbm","mcf"]}"#)).unwrap();
        // Core order is part of the identity (core 0 vs core 1 stacks).
        assert_ne!(ab.cache_key().canonical(), ba.cache_key().canonical());
        // And corun never aliases a simulate of the same workload.
        let sim = Request::simulate(&body(r#"{"workload":"mcf"}"#)).unwrap();
        assert_ne!(ab.cache_key().canonical(), sim.cache_key().canonical());
    }

    #[test]
    fn sweep_decodes_each_point_as_a_simulate() {
        let pts = Request::sweep(&body(
            r#"{"points":[{"workload":"mcf"},{"workload":"mcf"}]}"#,
        ))
        .unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(
            pts[0].cache_key().canonical(),
            pts[1].cache_key().canonical()
        );
        assert!(Request::sweep(&body(r#"{"points":[]}"#)).is_err());
    }

    #[test]
    fn cost_scales_with_cores_and_discounts_sampling() {
        let sim = Request::simulate(&body(r#"{"workload":"mcf","uops":100000}"#)).unwrap();
        assert_eq!(sim.cost_uops(), 100_000);
        let co = Request::corun(&body(r#"{"workloads":["mcf","lbm"],"uops":100000}"#)).unwrap();
        assert_eq!(co.cost_uops(), 200_000);
        let sampled = Request::simulate(&body(
            r#"{"workload":"mcf","uops":100000,"sample":"500:2500:12000"}"#,
        ))
        .unwrap();
        // warmup+detailed is 20% of the round, ff priced at 1/8: ~30k.
        assert!(sampled.cost_uops() < 40_000, "{}", sampled.cost_uops());
    }

    #[test]
    fn bad_bodies_fail_clean() {
        assert!(Request::simulate(&body(r#"{}"#)).is_err());
        assert!(Request::simulate(&body(r#"{"workload":"nope"}"#)).is_err());
        assert!(Request::simulate(&body(r#"{"workload":"mcf","uops":0}"#)).is_err());
        assert!(Request::simulate(&body(r#"{"workload":"mcf","ideal":"magic"}"#)).is_err());
        assert!(Request::simulate(&body(r#"{"workload":"mcf","core":"p4"}"#)).is_err());
        assert!(Request::corun(&body(r#"{"workloads":["mcf","lbm"],"sample":"1:2:3"}"#)).is_err());
    }

    fn quote(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}
