//! Multiple attribute embeddings (Section 3.3).
//!
//! A vertical-partitioning adversary (A5) may keep any two attributes
//! and discard the rest — including the primary key. The defense is to
//! watermark *every* attribute pair: for a schema `(K, A, B)` apply
//! `mark(K, A)`, `mark(K, B)` and `mark(A, B)`, each time treating the
//! pair's first attribute as the primary key of the base algorithm.
//! Each surviving pair is then an independent rights "witness".
//!
//! Two complications the paper calls out are handled here:
//!
//! * **Interference** — `mark(A, B)` must not overwrite the
//!   alterations `mark(K, B)` made to `B`. A shared touched-row ledger
//!   ("maintaining a hash-map at watermarking time, remembering
//!   modified tuples in each marking pass") makes later passes skip
//!   already-modified targets.
//! * **Direction** — when `B` already carries marks, prefer
//!   `mark(B, A)` over `mark(A, B)`: still encoding in the A–B
//!   association, but spending the distortion budget on the
//!   less-marked attribute and "spreading the watermark throughout the
//!   entire data".

use std::collections::{HashMap, HashSet};

use catmark_relation::{CategoricalDomain, Relation};

use crate::decode::DecodeReport;
use crate::detect::{detect, Detection};
use crate::embed::{EmbedReport, Embedder};
use crate::error::CoreError;
use crate::fold::{Fold, Pipeline, Source};
use crate::quality::{ImmutableRows, QualityGuard};
use crate::spec::{Watermark, WatermarkSpec};

/// One directed pair embedding: `pseudo_key` plays the role of the
/// primary key, `target` is the attribute altered.
#[derive(Debug, Clone)]
pub struct PairConfig {
    /// Attribute acting as the primary key for this pass.
    pub pseudo_key: String,
    /// Attribute carrying the mark bits for this pass.
    pub target: String,
    /// Per-pair spec (derived keys, target's domain, pair-sized
    /// `wm_data`).
    pub spec: WatermarkSpec,
}

impl PairConfig {
    /// Stable label identifying this pair (used for key derivation).
    #[must_use]
    pub fn label(&self) -> String {
        format!("pair:{}:{}", self.pseudo_key, self.target)
    }
}

/// The full multi-pair embedding plan — the paper's "closure for the
/// set of attribute pairs over the entire schema that minimizes the
/// number of encoding interferences while maximizing the number of
/// pairs watermarked".
#[derive(Debug, Clone)]
pub struct MultiAttrPlan {
    pairs: Vec<PairConfig>,
}

impl MultiAttrPlan {
    /// Build the plan for `rel`: `(K, A_i)` for every categorical
    /// attribute, then one directed pair per unordered categorical
    /// pair, targeting the attribute altered by fewer earlier passes.
    ///
    /// `base` supplies the master keys, `e`, `|wm|` and erasure
    /// policy; `domains` maps each categorical attribute name to its
    /// value domain. Per-pair specs derive independent subkeys from
    /// the pair label and size `wm_data` from the pseudo-key's
    /// *distinct value count* (for non-key pseudo-keys, all rows
    /// sharing a value carry the same position, so distinct values —
    /// not rows — bound the usable bandwidth).
    ///
    /// # Errors
    ///
    /// Unknown attributes or a categorical attribute missing from
    /// `domains`.
    pub fn build(
        rel: &Relation,
        base: &WatermarkSpec,
        domains: &HashMap<String, CategoricalDomain>,
    ) -> Result<Self, CoreError> {
        let schema = rel.schema();
        let key_name = schema.key_attr().name.clone();
        let cat_indices = schema.categorical_indices();
        if cat_indices.is_empty() {
            return Err(CoreError::InvalidSpec(
                "schema has no categorical attributes to watermark".into(),
            ));
        }
        let mut pairs = Vec::new();
        let mut alterations: HashMap<String, usize> = HashMap::new();
        let domain_for = |name: &str| -> Result<CategoricalDomain, CoreError> {
            domains
                .get(name)
                .cloned()
                .ok_or_else(|| CoreError::InvalidSpec(format!("no domain provided for {name:?}")))
        };
        // (K, A_i) passes: bandwidth is the row count.
        for &i in &cat_indices {
            let target = schema.attr(i).name.clone();
            let mut spec = base.derived(&format!("pair:{key_name}:{target}"));
            spec.domain = domain_for(&target)?;
            spec.wm_data_len = ((rel.len() as u64 / spec.e) as usize).max(spec.wm_len);
            pairs.push(PairConfig { pseudo_key: key_name.clone(), target: target.clone(), spec });
            *alterations.entry(target).or_insert(0) += 1;
        }
        // (A_i, A_j) passes: direction targets the less-altered side.
        for (pos, &i) in cat_indices.iter().enumerate() {
            for &j in &cat_indices[pos + 1..] {
                let a = schema.attr(i).name.clone();
                let b = schema.attr(j).name.clone();
                let (pseudo_key, target) = if alterations.get(&a).copied().unwrap_or(0)
                    <= alterations.get(&b).copied().unwrap_or(0)
                {
                    // A is the (weakly) less-altered side: mark(B, A).
                    (b, a)
                } else {
                    (a, b)
                };
                let mut spec = base.derived(&format!("pair:{pseudo_key}:{target}"));
                spec.domain = domain_for(&target)?;
                let pseudo_idx = schema.index_of(&pseudo_key)?;
                let distinct = distinct_count(rel, pseudo_idx);
                spec.wm_data_len = ((distinct as u64 / spec.e) as usize).max(spec.wm_len);
                pairs.push(PairConfig { pseudo_key, target: target.clone(), spec });
                *alterations.entry(target).or_insert(0) += 1;
            }
        }
        Ok(MultiAttrPlan { pairs })
    }

    /// Assemble a plan from explicitly oriented pairs — the escape
    /// hatch used by the [`closure`](crate::closure) optimizer, which
    /// balances interference across targets before deriving specs.
    #[must_use]
    pub fn from_pairs(pairs: Vec<PairConfig>) -> Self {
        MultiAttrPlan { pairs }
    }

    /// The directed pairs, in embedding order.
    #[must_use]
    pub fn pairs(&self) -> &[PairConfig] {
        &self.pairs
    }

    /// Labels of pairs whose bandwidth is thin: the pseudo-key's
    /// distinct-value count supports fewer than `min_redundancy`
    /// carriers per watermark bit.
    ///
    /// The paper leaves open "if a pair-closure can be constructed
    /// over the schema such that no categorical attributes are going
    /// to be used as primary key place-holders"; when it cannot, this
    /// diagnostic tells the rights holder which witnesses will be
    /// weak (e.g. a 40-city attribute pseudo-keying a pair) so they
    /// can lean on the frequency channel instead.
    #[must_use]
    pub fn weak_pairs(&self, min_redundancy: f64) -> Vec<String> {
        self.pairs
            .iter()
            .filter(|p| p.spec.redundancy() < min_redundancy)
            .map(PairConfig::label)
            .collect()
    }
}

fn distinct_count(rel: &Relation, attr_idx: usize) -> usize {
    rel.column_iter(attr_idx).collect::<HashSet<_>>().len()
}

/// Per-pair outcome of a multi-attribute embedding.
#[derive(Debug, Clone)]
pub struct PairEmbedOutcome {
    /// The pair's label.
    pub label: String,
    /// The underlying embed report.
    pub report: EmbedReport,
    /// Alterations skipped because the target row was touched by an
    /// earlier pass (interference avoidance).
    pub skipped_interference: usize,
}

/// Embed `wm` along every pair of `plan`, avoiding interference via a
/// shared touched-row ledger.
///
/// # Errors
///
/// Propagates embedding errors from any pass.
pub fn embed_multiattr(
    plan: &MultiAttrPlan,
    rel: &mut Relation,
    wm: &Watermark,
) -> Result<Vec<PairEmbedOutcome>, CoreError> {
    embed_multiattr_with_cache(plan, rel, wm, &crate::plan::PlanCache::new())
}

/// [`embed_multiattr`] over a shared [`crate::plan::PlanCache`].
///
/// Each pair plans its pseudo-key column once; sharing the cache with
/// a later [`decode_multiattr_with_cache`] over the same relation
/// skips re-planning every pair whose pseudo-key column the embedding
/// left untouched (always true for the `(K, ·)` pairs and for the
/// pair-closure's final pass).
///
/// # Errors
///
/// Propagates embedding errors from any pass.
pub fn embed_multiattr_with_cache(
    plan: &MultiAttrPlan,
    rel: &mut Relation,
    wm: &Watermark,
    cache: &crate::plan::PlanCache,
) -> Result<Vec<PairEmbedOutcome>, CoreError> {
    let mut touched: HashMap<String, HashSet<usize>> = HashMap::new();
    let mut outcomes = Vec::with_capacity(plan.pairs.len());
    for pair in &plan.pairs {
        let key_idx = rel.schema().index_of(&pair.pseudo_key)?;
        let attr_idx = rel.schema().index_of(&pair.target)?;
        let already = touched.entry(pair.target.clone()).or_default().clone();
        let mut guard = QualityGuard::new(vec![Box::new(ImmutableRows::new(already))]);
        let mark_plan = cache.plan_for(&pair.spec, rel, key_idx)?;
        let report = Embedder::engine(&pair.spec).embed_with_plan(
            rel,
            attr_idx,
            wm,
            &crate::ecc::MajorityVotingEcc,
            Some(&mut guard),
            &mark_plan,
        )?;
        let ledger = touched.get_mut(&pair.target).expect("entry created above");
        for &row in &report.touched_rows {
            ledger.insert(row);
        }
        let skipped = guard.vetoes();
        outcomes.push(PairEmbedOutcome {
            label: pair.label(),
            report,
            skipped_interference: skipped,
        });
    }
    Ok(outcomes)
}

/// One pair's detection testimony.
#[derive(Debug, Clone)]
pub struct PairWitness {
    /// The pair's label.
    pub label: String,
    /// Raw decode report.
    pub decode: DecodeReport,
    /// Comparison against the claimed watermark.
    pub detection: Detection,
}

impl std::fmt::Display for PairWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "witness {}: {}", self.label, self.detection)
    }
}

impl crate::session::Outcome for PairWitness {
    fn fit_count(&self) -> usize {
        self.decode.fit_tuples
    }

    fn coverage(&self) -> f64 {
        self.decode.coverage()
    }

    fn confidence(&self) -> f64 {
        1.0 - self.detection.false_positive_probability
    }
}

/// Decode every pair of `plan` that survives in `rel`'s schema and
/// compare against `claimed`. Pairs whose attributes were partitioned
/// away are skipped — the surviving ones are the rights witnesses.
///
/// # Errors
///
/// Never fails on suspect data; errors indicate misuse (e.g. a plan
/// built for a different schema family).
pub fn decode_multiattr(
    plan: &MultiAttrPlan,
    rel: &Relation,
    claimed: &Watermark,
) -> Result<Vec<PairWitness>, CoreError> {
    decode_multiattr_with_cache(plan, rel, claimed, &crate::plan::PlanCache::new())
}

/// [`decode_multiattr`] over a shared [`crate::plan::PlanCache`]; see
/// [`embed_multiattr_with_cache`] for when sharing pays.
///
/// # Errors
///
/// As [`decode_multiattr`].
pub fn decode_multiattr_with_cache(
    plan: &MultiAttrPlan,
    rel: &Relation,
    claimed: &Watermark,
    cache: &crate::plan::PlanCache,
) -> Result<Vec<PairWitness>, CoreError> {
    let mut witnesses = Vec::new();
    for pair in &plan.pairs {
        let (Ok(key_idx), Ok(attr_idx)) =
            (rel.schema().index_of(&pair.pseudo_key), rel.schema().index_of(&pair.target))
        else {
            continue; // partitioned away
        };
        let fold = Fold { spec: &pair.spec, key_idx, attr_idx, plans: cache };
        let decode = fold.votes(Source::Whole(rel), false, Pipeline::Off)?.report;
        let detection = detect(&decode.watermark, claimed);
        witnesses.push(PairWitness { label: pair.label(), decode, detection });
    }
    Ok(witnesses)
}

/// Aggregate verdict over pair witnesses: the best (lowest)
/// false-positive probability among them, and how many individually
/// clear `alpha`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateVerdict {
    /// Number of pairs decoded.
    pub witnesses: usize,
    /// Witnesses whose individual detection clears the significance
    /// level.
    pub significant_witnesses: usize,
    /// The strongest single-witness false-positive probability.
    pub best_false_positive: f64,
}

impl std::fmt::Display for AggregateVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} witnesses significant, best chance odds {:.2e}",
            self.significant_witnesses, self.witnesses, self.best_false_positive
        )
    }
}

impl crate::session::Outcome for AggregateVerdict {
    /// Number of surviving pair witnesses.
    fn fit_count(&self) -> usize {
        self.witnesses
    }

    /// Fraction of surviving witnesses that individually testify.
    fn coverage(&self) -> f64 {
        if self.witnesses == 0 {
            0.0
        } else {
            self.significant_witnesses as f64 / self.witnesses as f64
        }
    }

    fn confidence(&self) -> f64 {
        1.0 - self.best_false_positive
    }
}

/// Summarize pair witnesses at significance level `alpha`.
#[must_use]
pub fn aggregate_verdict(witnesses: &[PairWitness], alpha: f64) -> AggregateVerdict {
    AggregateVerdict {
        witnesses: witnesses.len(),
        significant_witnesses: witnesses
            .iter()
            .filter(|w| w.detection.is_significant(alpha))
            .count(),
        best_false_positive: witnesses
            .iter()
            .map(|w| w.detection.false_positive_probability)
            .fold(1.0, f64::min),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::ops;

    use catmark_datagen::domains::product_codes;
    use catmark_relation::{AttrType, Schema, Value};

    /// Three-attribute fixture: (k, item, supplier) with two
    /// high-cardinality categorical attributes, so even the pair
    /// embeddings (bandwidth = distinct pseudo-key values / e) have
    /// comfortable redundancy.
    fn fixture() -> (Relation, MultiAttrPlan, Watermark) {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("item", AttrType::Integer)
            .categorical_attr("supplier", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::with_capacity(schema, 8_000);
        for i in 0..8_000i64 {
            let item = 10_000 + (i * 7_919) % 400;
            let supplier = 500 + (i * 104_729) % 300;
            rel.push(vec![Value::Int(i), Value::Int(item), Value::Int(supplier)]).unwrap();
        }
        let item_domain = product_codes(400, 10_000);
        let supplier_domain = product_codes(300, 500);
        let base = WatermarkSpec::builder(item_domain.clone())
            .master_key("multiattr-tests")
            .e(5)
            .wm_len(10)
            .expected_tuples(rel.len())
            .erasure(crate::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let mut domains = HashMap::new();
        domains.insert("item".to_owned(), item_domain);
        domains.insert("supplier".to_owned(), supplier_domain);
        let plan = MultiAttrPlan::build(&rel, &base, &domains).unwrap();
        let wm = Watermark::from_u64(0b1100101011, 10);
        (rel, plan, wm)
    }

    #[test]
    fn plan_covers_all_pairs_with_direction_rule() {
        let (_, plan, _) = fixture();
        let labels: Vec<String> = plan.pairs().iter().map(PairConfig::label).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.contains(&"pair:k:item".to_owned()));
        assert!(labels.contains(&"pair:k:supplier".to_owned()));
        // Both categorical attrs carry one prior pass; the tie targets
        // the schema-earlier attribute (item), pseudo-keyed by the
        // other.
        assert!(labels.contains(&"pair:supplier:item".to_owned()));
    }

    #[test]
    fn per_pair_keys_are_independent() {
        let (_, plan, _) = fixture();
        let k1s: HashSet<_> = plan.pairs().iter().map(|p| p.spec.k1.as_bytes().to_vec()).collect();
        assert_eq!(k1s.len(), plan.pairs().len());
    }

    #[test]
    fn pair_bandwidth_uses_distinct_values_for_non_key_pseudo_keys() {
        let (_, plan, _) = fixture();
        let ab =
            plan.pairs().iter().find(|p| p.pseudo_key == "supplier").expect("A-B pair present");
        // 300 distinct suppliers / e = 5 → 60 positions, while the
        // (K, ·) pairs use row count: 8000 / 5 = 1600.
        assert_eq!(ab.spec.wm_data_len, 60);
        let ka = plan.pairs().iter().find(|p| p.pseudo_key == "k").unwrap();
        assert_eq!(ka.spec.wm_data_len, 1600);
    }

    #[test]
    fn embed_reports_every_pair_and_avoids_interference() {
        let (mut rel, plan, wm) = fixture();
        let outcomes = embed_multiattr(&plan, &mut rel, &wm).unwrap();
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(o.report.fit_tuples > 0, "{} embedded nothing", o.label);
        }
        // No row is altered twice for the same attribute: the third
        // pass also targets item, already touched by pass 1.
        let third = &outcomes[2];
        assert_eq!(third.label, "pair:supplier:item");
        assert!(third.skipped_interference > 0, "ledger was never consulted");
        let first_rows: HashSet<usize> = outcomes[0].report.touched_rows.iter().copied().collect();
        let third_rows: HashSet<usize> = third.report.touched_rows.iter().copied().collect();
        assert!(first_rows.is_disjoint(&third_rows));
    }

    #[test]
    fn all_pairs_witness_on_intact_data() {
        let (mut rel, plan, wm) = fixture();
        embed_multiattr(&plan, &mut rel, &wm).unwrap();
        let witnesses = decode_multiattr(&plan, &rel, &wm).unwrap();
        assert_eq!(witnesses.len(), 3);
        let verdict = aggregate_verdict(&witnesses, 1e-2);
        // The (K, ·) pairs must decode perfectly; the (A, B) pair can
        // lose bits to interference skips but at least 2 of 3 must be
        // individually significant.
        assert!(verdict.significant_witnesses >= 2, "verdict: {verdict:?}");
        assert!(verdict.best_false_positive <= 2f64.powi(-10) * 1.001);
    }

    #[test]
    fn survives_vertical_partition_dropping_the_key() {
        let (mut rel, plan, wm) = fixture();
        embed_multiattr(&plan, &mut rel, &wm).unwrap();
        // A5: Mallory keeps only (item, supplier) — no key.
        let item_idx = rel.schema().index_of("item").unwrap();
        let supplier_idx = rel.schema().index_of("supplier").unwrap();
        let partitioned = ops::project(&rel, &[item_idx, supplier_idx], 0, false).unwrap();
        let witnesses = decode_multiattr(&plan, &partitioned, &wm).unwrap();
        // Only the key-less pair survives…
        assert_eq!(witnesses.len(), 1);
        assert_eq!(witnesses[0].label, "pair:supplier:item");
        // …and still testifies.
        let verdict = aggregate_verdict(&witnesses, 1e-2);
        assert_eq!(verdict.significant_witnesses, 1, "witness: {:?}", witnesses[0].detection);
    }

    #[test]
    fn plan_requires_domains_for_categorical_attributes() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 50, ..Default::default() });
        let rel = gen.generate();
        let base = WatermarkSpec::builder(gen.item_domain())
            .master_key("x")
            .expected_tuples(5000)
            .build()
            .unwrap();
        let err = MultiAttrPlan::build(&rel, &base, &HashMap::new());
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn weak_pairs_flags_thin_bandwidth() {
        let (_, plan, _) = fixture();
        // (K,·) pairs have 160 copies/bit; the supplier pair has 6.
        let weak = plan.weak_pairs(10.0);
        assert_eq!(weak, vec!["pair:supplier:item".to_owned()]);
        assert!(plan.weak_pairs(1.0).is_empty());
        assert_eq!(plan.weak_pairs(1000.0).len(), 3);
    }

    #[test]
    fn aggregate_of_empty_witness_list_is_null_verdict() {
        let v = aggregate_verdict(&[], 0.05);
        assert_eq!(v.witnesses, 0);
        assert_eq!(v.significant_witnesses, 0);
        assert_eq!(v.best_false_positive, 1.0);
    }
}
