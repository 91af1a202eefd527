//! Content-addressed cache keys for analysis requests.
//!
//! A long-running service wants "same question ⇒ same answer bytes" to be
//! a cache hit, where *same question* must be insensitive to how the
//! question was spelled (preset name vs. the equivalent `.core` table,
//! flag order, whitespace). The canonical form is built from
//! representations that are already round-trip canonical in this
//! workspace:
//!
//! * the core configuration via `CoreConfig::to_table()` — the `cores
//!   dump` canonical `.core` dump, so a preset name and a verbatim table
//!   that parse to the same machine digest identically;
//! * the workload via its `Debug` form — workload generators are plain
//!   parameter structs, so the `Debug` string is a faithful, total
//!   serialization of the generator;
//! * [`crate::sampling::SamplePlan`] and `IdealFlags` via their `Display`
//!   forms (both round-trip through their parsers).
//!
//! Every field is length-framed before hashing, so `("ab", "c")` and
//! `("a", "bc")` canonicalize differently even though their
//! concatenations agree. The 64-bit FNV-1a digest is the *address*
//! (shard selector, log handle); equality decisions always compare the
//! full canonical string, so a digest collision can never serve the
//! wrong bytes.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over `bytes` (the workspace's standing zero-dep hash).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a digest `h` over `bytes`: FNV-1a is a left fold,
/// so `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
#[must_use]
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A finished cache key: the full canonical request string plus its
/// 64-bit content digest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    canonical: String,
    digest: u64,
}

impl CacheKey {
    /// The canonical request string — the authoritative identity.
    #[must_use]
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The FNV-1a digest of the canonical string.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Deterministic shard index in `0..shards`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    #[must_use]
    pub fn shard(&self, shards: usize) -> usize {
        assert!(shards > 0, "shard count must be positive");
        (self.digest % shards as u64) as usize
    }

    /// Approximate heap footprint of the key, for byte-budget accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.canonical.len() + std::mem::size_of::<Self>()
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.digest)
    }
}

/// Builds a [`CacheKey`] from named, length-framed fields.
///
/// The digest is folded in frame by frame as fields are appended, so
/// [`finish`](Self::finish) costs nothing, and a clone of a builder that
/// already holds a long shared prefix (a core table) pays only for the
/// fields appended after it.
///
/// ```
/// use mstacks_core::cachekey::KeyBuilder;
///
/// let a = KeyBuilder::new("simulate").field("uops", "120000").finish();
/// let b = KeyBuilder::new("simulate").field("uops", "120000").finish();
/// assert_eq!(a, b);
/// let c = KeyBuilder::new("simulate").field("uops", "12000").finish();
/// assert_ne!(a.canonical(), c.canonical());
/// ```
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    canon: String,
    /// FNV-1a of `canon` so far.
    digest: u64,
}

impl KeyBuilder {
    /// Starts a key for one endpoint/request kind (its own frame, so
    /// `simulate` and `sweep` requests can never alias).
    #[must_use]
    pub fn new(endpoint: &str) -> Self {
        let mut b = KeyBuilder {
            canon: String::with_capacity(256),
            digest: FNV_OFFSET,
        };
        b.push_frame("endpoint", endpoint);
        b
    }

    /// Appends one named field. Values are length-framed, so adjacent
    /// fields can never alias regardless of their content.
    #[must_use]
    pub fn field(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        let v = value.to_string();
        self.push_frame(name, &v);
        self
    }

    fn push_frame(&mut self, name: &str, value: &str) {
        use std::fmt::Write;
        // name and length in the frame header; \x1f/\x1e are the ASCII
        // unit/record separators (never produced by the canonical dumps,
        // but the length prefix keeps even hostile values unambiguous).
        let start = self.canon.len();
        let _ = write!(self.canon, "{name}\x1f{}\x1f{value}\x1e", value.len());
        self.digest = fnv1a_extend(self.digest, &self.canon.as_bytes()[start..]);
    }

    /// Finalizes into the canonical string + digest (`fnv1a` of the
    /// canonical string, already accumulated frame by frame).
    #[must_use]
    pub fn finish(self) -> CacheKey {
        CacheKey {
            canonical: self.canon,
            digest: self.digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_digest_equals_a_whole_string_fnv() {
        use mstacks_model::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        for _ in 0..200 {
            let mut b = KeyBuilder::new(["simulate", "corun", ""][rng.gen_range(0..3usize)]);
            for _ in 0..rng.gen_range(0..12usize) {
                let text = |rng: &mut SmallRng, max: usize| -> String {
                    (0..rng.gen_range(0..max))
                        .map(|_| char::from_u32(rng.gen_range(0..0x800u32)).unwrap_or('?'))
                        .collect()
                };
                let name = text(&mut rng, 8);
                let value = text(&mut rng, 300);
                b = b.field(&name, value);
                // A clone taken mid-way finishes to its own prefix's key.
                let mid = b.clone().finish();
                assert_eq!(mid.digest(), fnv1a(mid.canonical().as_bytes()));
            }
            let k = b.finish();
            assert_eq!(k.digest(), fnv1a(k.canonical().as_bytes()));
        }
    }

    #[test]
    fn field_framing_prevents_concatenation_aliasing() {
        let ab_c = KeyBuilder::new("e")
            .field("x", "ab")
            .field("y", "c")
            .finish();
        let a_bc = KeyBuilder::new("e")
            .field("x", "a")
            .field("y", "bc")
            .finish();
        assert_ne!(ab_c.canonical(), a_bc.canonical());
        let xy = KeyBuilder::new("e").field("xy", "").field("", "").finish();
        let x_y = KeyBuilder::new("e").field("x", "y").finish();
        assert_ne!(xy.canonical(), x_y.canonical());
    }

    #[test]
    fn endpoint_is_part_of_the_identity() {
        let sim = KeyBuilder::new("simulate").field("w", "mcf").finish();
        let swp = KeyBuilder::new("sweep").field("w", "mcf").finish();
        assert_ne!(sim.canonical(), swp.canonical());
        assert_ne!(sim.digest(), swp.digest());
    }

    #[test]
    fn shard_is_stable_and_in_range() {
        let k = KeyBuilder::new("simulate").field("w", "lbm").finish();
        for shards in 1..9 {
            let s = k.shard(shards);
            assert!(s < shards);
            assert_eq!(s, k.shard(shards));
        }
    }

    #[test]
    fn display_is_the_hex_digest() {
        let k = KeyBuilder::new("simulate").finish();
        assert_eq!(format!("{k}"), format!("{:016x}", k.digest()));
    }
}
