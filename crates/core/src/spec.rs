//! Watermarks and the key material / parameter bundle
//! ([`WatermarkSpec`]) shared by embedding and blind detection.

use catmark_crypto::{HashAlgorithm, KeyedHash, SecretKey};
use catmark_relation::CategoricalDomain;

use crate::decode::ErasurePolicy;
use crate::error::CoreError;

/// The watermark: an owner-chosen bit string (the paper uses
/// `|wm| = 10` bits in all experiments).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Watermark {
    bits: Vec<bool>,
}

impl Watermark {
    /// Watermark from explicit bits.
    ///
    /// # Panics
    ///
    /// Panics on an empty bit vector.
    #[must_use]
    pub fn from_bits(bits: Vec<bool>) -> Self {
        assert!(!bits.is_empty(), "watermark must have at least one bit");
        Watermark { bits }
    }

    /// The low `len` bits of `value`, most significant first.
    ///
    /// `Watermark::from_u64(0b101, 3)` is the bit string `101`.
    ///
    /// # Panics
    ///
    /// Panics when `len` is 0 or greater than 64.
    #[must_use]
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!((1..=64).contains(&len), "length must be in 1..=64");
        let bits = (0..len).map(|i| (value >> (len - 1 - i)) & 1 == 1).collect();
        Watermark { bits }
    }

    /// Watermark derived from an owner identity string: the keyed hash
    /// of the identity, truncated to `len` bits. This is how a rights
    /// holder turns "© 2004 DataCorp" into a mark.
    ///
    /// # Panics
    ///
    /// Panics when `len` is 0 or greater than 64.
    #[must_use]
    pub fn from_identity(identity: &str, key: &SecretKey, len: usize) -> Self {
        let h = KeyedHash::new(HashAlgorithm::Sha256, key.clone());
        Self::from_u64(h.hash_u64(&[b"identity", identity.as_bytes()]), len)
    }

    /// Bit at position `i`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Number of bits `|wm|`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Always false (watermarks are non-empty by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// All bits, most significant first.
    #[must_use]
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Number of positions at which `self` and `other` differ
    /// (Hamming distance). Used for the paper's "mark alteration"
    /// metric.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    #[must_use]
    pub fn hamming_distance(&self, other: &Watermark) -> usize {
        assert_eq!(self.len(), other.len(), "watermarks must have equal length");
        self.bits.iter().zip(other.bits.iter()).filter(|(a, b)| a != b).count()
    }

    /// Fraction of differing bits — the y-axis of the paper's Figures
    /// 4–7 ("mark alteration (%)" / "mark loss (%)").
    #[must_use]
    pub fn alteration_fraction(&self, other: &Watermark) -> f64 {
        self.hamming_distance(other) as f64 / self.len() as f64
    }
}

impl std::fmt::Display for Watermark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &b in &self.bits {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

/// Everything embedding and blind detection share: the two secret
/// keys, the algorithm, the fitness modulus `e`, the watermark and
/// `wm_data` lengths, the categorical value domain, and the decoder's
/// erasure policy.
///
/// This is precisely the paper's detection input ("the potentially
/// watermarked data, the secret keys k1, k2 and e") plus the two
/// pieces of bookkeeping the pseudo-code leaves implicit: the value
/// domain `{a_1 … a_nA}` (needed to map values to indices `t`) and the
/// fixed `wm_data` length (needed because `N` shifts under data loss;
/// see DESIGN.md deviation 2).
#[derive(Debug, Clone)]
pub struct WatermarkSpec {
    /// Hash algorithm instantiating `crypto_hash()`.
    pub algo: HashAlgorithm,
    /// Fit-selection / value-selection key.
    pub k1: SecretKey,
    /// Watermark-bit position selection key (`k2 != k1`).
    pub k2: SecretKey,
    /// Fitness modulus: roughly one in `e` tuples is watermarked.
    pub e: u64,
    /// Watermark length `|wm|`.
    pub wm_len: usize,
    /// Expanded length `|wm_data|`, fixed at embed time (≈ N/e).
    pub wm_data_len: usize,
    /// The categorical attribute's value domain.
    pub domain: CategoricalDomain,
    /// How the decoder treats `wm_data` positions with no votes.
    pub erasure: ErasurePolicy,
}

impl WatermarkSpec {
    /// Reject a watermark whose length differs from the spec's.
    pub(crate) fn check_mark(&self, wm: &Watermark) -> Result<(), CoreError> {
        if wm.len() == self.wm_len {
            return Ok(());
        }
        Err(CoreError::InvalidSpec(format!(
            "watermark has {} bits but the spec declares {}",
            wm.len(),
            self.wm_len
        )))
    }

    /// Start building a spec for an attribute with value domain
    /// `domain`.
    #[must_use]
    pub fn builder(domain: CategoricalDomain) -> WatermarkSpecBuilder {
        WatermarkSpecBuilder {
            algo: HashAlgorithm::default(),
            keys: None,
            e: 60,
            wm_len: 10,
            wm_data_len: None,
            expected_tuples: None,
            domain,
            erasure: ErasurePolicy::default(),
        }
    }

    /// Keyed hash `H(·, k1)` for fitness and value selection.
    #[must_use]
    pub fn keyed1(&self) -> KeyedHash {
        KeyedHash::new(self.algo, self.k1.clone())
    }

    /// Keyed hash `H(·, k2)` for `wm_data` position selection.
    #[must_use]
    pub fn keyed2(&self) -> KeyedHash {
        KeyedHash::new(self.algo, self.k2.clone())
    }

    /// Redundancy factor: expected number of `wm_data` positions per
    /// watermark bit.
    #[must_use]
    pub fn redundancy(&self) -> f64 {
        self.wm_data_len as f64 / self.wm_len as f64
    }

    /// A copy of this spec re-keyed with subkeys derived for `label`.
    ///
    /// Multi-attribute embedding (Section 3.3) marks several attribute
    /// pairs; deriving per-pair keys from the master pair keeps the
    /// encodings statistically independent while the detector can
    /// re-derive everything from the master secret.
    #[must_use]
    pub fn derived(&self, label: &str) -> WatermarkSpec {
        let mut spec = self.clone();
        spec.k1 = self.k1.derive(self.algo, &format!("k1:{label}"));
        spec.k2 = self.k2.derive(self.algo, &format!("k2:{label}"));
        spec
    }
}

/// Builder for [`WatermarkSpec`].
#[derive(Debug)]
pub struct WatermarkSpecBuilder {
    algo: HashAlgorithm,
    keys: Option<(SecretKey, SecretKey)>,
    e: u64,
    wm_len: usize,
    wm_data_len: Option<usize>,
    expected_tuples: Option<usize>,
    domain: CategoricalDomain,
    erasure: ErasurePolicy,
}

impl WatermarkSpecBuilder {
    /// Select the hash algorithm (default SHA-256).
    #[must_use]
    pub fn algorithm(mut self, algo: HashAlgorithm) -> Self {
        self.algo = algo;
        self
    }

    /// Derive `k1` and `k2` from a single master secret via
    /// domain-separated subkeys.
    #[must_use]
    pub fn master_key(mut self, master: impl Into<SecretKey>) -> Self {
        let master = master.into();
        let k1 = master.derive(self.algo, "catmark:k1");
        let k2 = master.derive(self.algo, "catmark:k2");
        self.keys = Some((k1, k2));
        self
    }

    /// Provide `k1` and `k2` explicitly.
    #[must_use]
    pub fn keys(mut self, k1: impl Into<SecretKey>, k2: impl Into<SecretKey>) -> Self {
        self.keys = Some((k1.into(), k2.into()));
        self
    }

    /// Fitness modulus `e` (default 60, the paper's running example).
    /// Smaller `e` ⇒ more altered tuples ⇒ more resilience (Figure 5).
    #[must_use]
    pub fn e(mut self, e: u64) -> Self {
        self.e = e;
        self
    }

    /// Watermark bit length (default 10, the paper's experiments).
    #[must_use]
    pub fn wm_len(mut self, wm_len: usize) -> Self {
        self.wm_len = wm_len;
        self
    }

    /// Fix `|wm_data|` explicitly.
    #[must_use]
    pub fn wm_data_len(mut self, len: usize) -> Self {
        self.wm_data_len = Some(len);
        self
    }

    /// Derive `|wm_data| = max(N/e, |wm|)` from the relation size `N`
    /// at embed time (the paper's sizing).
    #[must_use]
    pub fn expected_tuples(mut self, n: usize) -> Self {
        self.expected_tuples = Some(n);
        self
    }

    /// Decoder erasure policy (default [`ErasurePolicy::RandomFill`]).
    #[must_use]
    pub fn erasure(mut self, policy: ErasurePolicy) -> Self {
        self.erasure = policy;
        self
    }

    /// Validate and build.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] on missing keys, `e = 0`, equal
    /// keys, or zero-length watermark; [`CoreError::InsufficientBandwidth`]
    /// when `|wm| > |wm_data|`.
    pub fn build(self) -> Result<WatermarkSpec, CoreError> {
        let (k1, k2) = self.keys.ok_or_else(|| {
            CoreError::InvalidSpec("no keys provided (use master_key or keys)".into())
        })?;
        if k1 == k2 {
            // The paper requires k2 != k1: reusing the key would
            // correlate tuple selection with bit-position selection.
            return Err(CoreError::InvalidSpec("k1 and k2 must differ".into()));
        }
        if self.e == 0 {
            return Err(CoreError::InvalidSpec("e must be positive".into()));
        }
        if self.wm_len == 0 {
            return Err(CoreError::InvalidSpec("watermark length must be positive".into()));
        }
        let wm_data_len = match (self.wm_data_len, self.expected_tuples) {
            (Some(len), _) => len,
            (None, Some(n)) => ((n as u64 / self.e) as usize).max(self.wm_len),
            (None, None) => {
                return Err(CoreError::InvalidSpec(
                    "provide wm_data_len or expected_tuples to size wm_data".into(),
                ))
            }
        };
        if wm_data_len < self.wm_len {
            return Err(CoreError::InsufficientBandwidth {
                wm_len: self.wm_len,
                capacity: wm_data_len,
            });
        }
        Ok(WatermarkSpec {
            algo: self.algo,
            k1,
            k2,
            e: self.e,
            wm_len: self.wm_len,
            wm_data_len,
            domain: self.domain,
            erasure: self.erasure,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_relation::Value;

    fn domain() -> CategoricalDomain {
        CategoricalDomain::new((0..10).map(Value::Int).collect()).unwrap()
    }

    #[test]
    fn watermark_from_u64_bit_order() {
        let wm = Watermark::from_u64(0b101, 3);
        assert_eq!(wm.bits(), &[true, false, true]);
        assert_eq!(wm.to_string(), "101");
    }

    #[test]
    fn watermark_from_u64_pads_leading_zeros() {
        let wm = Watermark::from_u64(1, 5);
        assert_eq!(wm.to_string(), "00001");
    }

    #[test]
    fn hamming_and_alteration() {
        let a = Watermark::from_u64(0b1010, 4);
        let b = Watermark::from_u64(0b1001, 4);
        assert_eq!(a.hamming_distance(&b), 2);
        assert!((a.alteration_fraction(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn hamming_requires_equal_lengths() {
        let _ = Watermark::from_u64(1, 3).hamming_distance(&Watermark::from_u64(1, 4));
    }

    #[test]
    fn identity_watermarks_are_key_dependent() {
        let id = "© 2004 DataCorp";
        let a = Watermark::from_identity(id, &SecretKey::from_u64(1), 16);
        let b = Watermark::from_identity(id, &SecretKey::from_u64(2), 16);
        assert_ne!(a, b);
        assert_eq!(a, Watermark::from_identity(id, &SecretKey::from_u64(1), 16));
    }

    #[test]
    fn builder_defaults_match_paper() {
        let spec = WatermarkSpec::builder(domain())
            .master_key("secret")
            .expected_tuples(6000)
            .build()
            .unwrap();
        assert_eq!(spec.e, 60);
        assert_eq!(spec.wm_len, 10);
        // N/e = 6000/60 = 100, the paper's |wm_data| example.
        assert_eq!(spec.wm_data_len, 100);
        assert!((spec.redundancy() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn builder_requires_keys() {
        let err = WatermarkSpec::builder(domain()).expected_tuples(100).build();
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn builder_rejects_equal_keys() {
        let err = WatermarkSpec::builder(domain())
            .keys(SecretKey::from_u64(5), SecretKey::from_u64(5))
            .expected_tuples(100)
            .build();
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn builder_rejects_zero_e() {
        let err =
            WatermarkSpec::builder(domain()).master_key("s").e(0).expected_tuples(100).build();
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn builder_enforces_bandwidth() {
        let err =
            WatermarkSpec::builder(domain()).master_key("s").wm_len(64).wm_data_len(10).build();
        assert!(matches!(err, Err(CoreError::InsufficientBandwidth { .. })));
    }

    #[test]
    fn expected_tuples_never_sizes_below_wm_len() {
        // 100 tuples at e=60 → N/e = 1, clamped up to |wm| = 10.
        let spec =
            WatermarkSpec::builder(domain()).master_key("s").expected_tuples(100).build().unwrap();
        assert_eq!(spec.wm_data_len, 10);
    }

    #[test]
    fn derived_specs_have_fresh_keys() {
        let spec =
            WatermarkSpec::builder(domain()).master_key("s").expected_tuples(6000).build().unwrap();
        let d = spec.derived("pair:item:city");
        assert_ne!(d.k1, spec.k1);
        assert_ne!(d.k2, spec.k2);
        assert_eq!(d.e, spec.e);
        // Deterministic re-derivation.
        assert_eq!(spec.derived("pair:item:city").k1, d.k1);
    }
}
