//! Stable fingerprinting for the layer cache's keys.
//!
//! The content-addressed layer cache (`ant-simcache/1`, the one durable
//! result store) decides "is this stored result still valid for the run in
//! front of me?" with the machinery here:
//!
//! * [`Fingerprint`] — the experiment-config identity (seed, sampling
//!   bounds, sparsity targets) folded into every pre-synthesis memo key.
//!   Two runs with equal fingerprints synthesize identical operands for
//!   every layer.
//! * [`StableHasher`] / [`KeyBuilder`] — a dependency-free FNV-1a stream
//!   hasher and its 128-bit double-pass variant, used to fingerprint CSR
//!   operand planes, layer geometry, and machine identity into an
//!   [`ant_sim::cache::CacheKey`]. The byte stream is length-prefixed per
//!   field, so adjacent fields cannot alias.
//!
//! Everything here is deterministic across runs, platforms, and thread
//! counts: no pointers, no hash-map iteration order, no system entropy.

use ant_sim::cache::CacheKey;
use ant_sparse::CsrMatrix;

use crate::runner::ExperimentConfig;

/// The experiment-config fingerprint folded into every pre-synthesis memo
/// key. Two runs with equal fingerprints synthesize identical operands for
/// every layer, which is what makes replaying stored stats byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Base RNG seed.
    pub seed: u64,
    /// Channel-sampling bound (`ExperimentConfig::max_channels`).
    pub max_channels: u64,
    /// PE count used for wall-clock division.
    pub num_pes: u64,
    /// Sparsity targets `[weight, activation, gradient]`.
    pub sparsity: [f64; 3],
}

impl Fingerprint {
    /// Extracts the fingerprint of an experiment config.
    pub fn of(cfg: &ExperimentConfig) -> Self {
        Self {
            seed: cfg.seed,
            max_channels: cfg.max_channels as u64,
            num_pes: cfg.num_pes as u64,
            sparsity: [
                cfg.sparsity.weight,
                cfg.sparsity.activation,
                cfg.sparsity.gradient,
            ],
        }
    }

    /// Folds the fingerprint into a cache key.
    pub fn write_to(&self, key: &mut KeyBuilder) {
        key.write_u64(self.seed);
        key.write_u64(self.max_channels);
        key.write_u64(self.num_pes);
        for s in self.sparsity {
            key.write_f64(s);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a stream hasher with a stable, platform-independent byte
/// encoding. Unlike `std::hash`, the result is pinned forever (it lands in
/// on-disk cache keys), so this must never be swapped for `DefaultHasher`.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    state: u64,
    /// XOR-folded into every input byte; gives the two passes of a
    /// [`KeyBuilder`] genuinely different avalanche behaviour rather than
    /// just different offsets.
    tweak: u8,
}

impl StableHasher {
    /// Starts a hasher at the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Self::with_basis(FNV_OFFSET, 0)
    }

    /// Starts a hasher at a custom basis with a per-byte tweak.
    pub fn with_basis(basis: u64, tweak: u8) -> Self {
        Self {
            state: basis,
            tweak,
        }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b ^ self.tweak)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The 64-bit digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds a 128-bit [`CacheKey`] by feeding one length-prefixed byte
/// stream through two independent FNV-1a passes (distinct offset bases and
/// byte tweaks). 128 bits makes accidental collisions across a cache of
/// millions of layers negligible where a single 64-bit pass would not be.
#[derive(Debug, Clone, Copy)]
pub struct KeyBuilder {
    hi: StableHasher,
    lo: StableHasher,
}

impl KeyBuilder {
    /// Starts an empty key.
    pub fn new() -> Self {
        Self {
            hi: StableHasher::with_basis(FNV_OFFSET, 0),
            // Second pass: golden-ratio-perturbed basis, bit-flipped bytes.
            lo: StableHasher::with_basis(FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15, 0xA5),
        }
    }

    /// Absorbs raw bytes, length-prefixed so adjacent fields cannot alias.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let len = (bytes.len() as u64).to_le_bytes();
        self.hi.write_bytes(&len);
        self.lo.write_bytes(&len);
        self.hi.write_bytes(bytes);
        self.lo.write_bytes(bytes);
    }

    /// Absorbs a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize` (widened, so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by bit pattern (exact, including sign of zero).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs a full CSR plane: dimensions, structure, and value bits.
    pub fn write_csr(&mut self, m: &CsrMatrix) {
        self.write_usize(m.rows());
        self.write_usize(m.cols());
        self.write_usize(m.nnz());
        for &p in m.row_ptr() {
            self.write_u64(p as u64);
        }
        for &c in m.col_idx() {
            self.write_u64(c as u64);
        }
        for &v in m.values() {
            self.write_bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> CacheKey {
        CacheKey {
            hi: self.hi.finish(),
            lo: self.lo.finish(),
        }
    }
}

impl Default for KeyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_sparse::DenseMatrix;

    #[test]
    fn fingerprint_matches_the_config() {
        let cfg = ExperimentConfig::paper_default();
        let fp = Fingerprint::of(&cfg);
        assert_eq!(fp.seed, cfg.seed);
        assert_eq!(fp.max_channels, cfg.max_channels as u64);
        assert_eq!(fp.num_pes, cfg.num_pes as u64);
        assert_eq!(
            fp.sparsity,
            [
                cfg.sparsity.weight,
                cfg.sparsity.activation,
                cfg.sparsity.gradient
            ]
        );
    }

    #[test]
    fn hashing_is_deterministic_and_field_sensitive() {
        let build = |seed: u64, name: &str| {
            let mut k = KeyBuilder::new();
            k.write_u64(seed);
            k.write_str(name);
            k.finish()
        };
        assert_eq!(build(7, "conv1"), build(7, "conv1"));
        assert_ne!(build(7, "conv1"), build(8, "conv1"));
        assert_ne!(build(7, "conv1"), build(7, "conv2"));
        // The two passes must not collapse into one mirrored digest.
        let k = build(7, "conv1");
        assert_ne!(k.hi, k.lo);
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let build = |a: &str, b: &str| {
            let mut k = KeyBuilder::new();
            k.write_str(a);
            k.write_str(b);
            k.finish()
        };
        assert_ne!(build("ab", "c"), build("a", "bc"));
        assert_ne!(build("", "x"), build("x", ""));
    }

    #[test]
    fn csr_keys_see_structure_and_values() {
        let base = DenseMatrix::from_rows(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, 3.0]]);
        let key_of = |m: &CsrMatrix| {
            let mut k = KeyBuilder::new();
            k.write_csr(m);
            k.finish()
        };
        let a = CsrMatrix::from_dense(&base);
        assert_eq!(key_of(&a), key_of(&a.clone()));

        // Different value, same structure.
        let mut shifted = base.clone();
        shifted.set(0, 1, 2.5);
        assert_ne!(key_of(&a), key_of(&CsrMatrix::from_dense(&shifted)));

        // Different structure, same nnz.
        let moved = DenseMatrix::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 0.0, 3.0]]);
        assert_ne!(key_of(&a), key_of(&CsrMatrix::from_dense(&moved)));
    }
}
