//! Out-of-core watermarking: [`MarkSession`] drivers over a
//! [`SegmentedRelation`].
//!
//! A relation larger than RAM cannot take the monolithic
//! embed/decode path — it is never fully resident. These drivers run
//! the same passes **segment-at-a-time** under the segmented
//! relation's pager: each segment is paged in (within the configured
//! resident-byte budget), planned, embedded or vote-counted, and
//! paged back out, while only small aggregate state (the coverage
//! bitmap, the per-position vote tallies) crosses segment boundaries.
//!
//! # Why streaming is byte-identical
//!
//! Everything the scheme computes per tuple is a pure function of
//! that tuple's primary key under the spec's keys: fitness, `wm_data`
//! position, value base (see [`crate::plan`]). Embedding therefore
//! commutes with any partition of the rows — a segment's
//! [`crate::plan::MarkPlan`] is exactly the corresponding slice of the monolithic
//! plan — and decoding is a sum of commutative per-position vote
//! increments resolved once at the end. The golden byte-identity
//! suite and the segment-boundary proptests pin both facts.
//!
//! # Scheduling
//!
//! The plain entry points pick [`Pipeline::Auto`]: a prefetch worker
//! plans the next segment while this one is embedded or vote-counted
//! whenever more than one segment must be planned and the host has
//! more than one CPU. [`MarkSession::embed_segmented_with`] and
//! [`MarkSession::decode_segmented_with`] take the mode explicitly and
//! report the pipeline's [`PipelineStats`]; [`Pipeline::Off`] is the
//! reference the pipelined runs are pinned against. The pager's budget
//! stays a hard ceiling either way (`peak_pageable_bytes() <=
//! max(budget, peak_segment_bytes())`), and the pipeline adds at most
//! one in-flight segment clone on top.
//!
//! ```
//! use catmark_core::{detect, MarkSession, Watermark, WatermarkSpec};
//! use catmark_datagen::{ItemScanConfig, SalesGenerator};
//! use catmark_relation::SegmentedRelation;
//!
//! let gen = SalesGenerator::new(ItemScanConfig { tuples: 2_000, ..Default::default() });
//! let rel = gen.generate();
//! let spec = WatermarkSpec::builder(gen.item_domain())
//!     .master_key("my-secret")
//!     .e(10)
//!     .wm_len(10)
//!     .expected_tuples(rel.len())
//!     .build()
//!     .unwrap();
//! let session = MarkSession::builder(spec)
//!     .key_column("visit_nbr")
//!     .target_column("item_nbr")
//!     .bind(&rel)
//!     .unwrap();
//!
//! // Split into segments under a resident budget of 1/4 of the data;
//! // cold segments spill to the (here in-memory) segment store.
//! let mut seg = SegmentedRelation::builder(rel.schema().clone())
//!     .segment_rows(256)
//!     .budget_bytes(rel.resident_bytes() / 4)
//!     .from_relation(&rel)
//!     .unwrap();
//!
//! let wm = Watermark::from_u64(0b10_0111_0101, 10);
//! let report = session.embed_segmented(&mut seg, &wm).unwrap();
//! assert!(report.fit_count() > 0);
//! let decoded = session.decode_segmented(&mut seg).unwrap();
//! assert!(detect(&decoded.watermark, &wm).is_significant(1e-2));
//! assert!(seg.peak_pageable_bytes() <= rel.resident_bytes() / 4);
//! # use catmark_core::session::Outcome;
//! ```

use catmark_relation::SegmentedRelation;

use crate::decode::DecodeReport;
use crate::ecc::{ErrorCorrectingCode, MajorityVotingEcc};
use crate::embed::EmbedReport;
use crate::error::CoreError;
use crate::fold::{Pipeline, PipelineStats, Source};
use crate::quality::QualityGuard;
use crate::session::MarkSession;
use crate::spec::Watermark;

impl MarkSession {
    /// Verify the bound columns still line up with the segmented
    /// relation's schema.
    pub(crate) fn check_segmented(&self, seg: &SegmentedRelation) -> Result<(), CoreError> {
        self.key().still_bound(seg.schema())?;
        self.target().still_bound(seg.schema())
    }

    /// Shared embed preamble: binding and length validation, then the
    /// ECC-expanded `wm_data` every segmented embed consumes.
    pub(crate) fn checked_wm_data(
        &self,
        seg: &SegmentedRelation,
        wm: &Watermark,
    ) -> Result<Vec<bool>, CoreError> {
        self.check_segmented(seg)?;
        let spec = self.spec();
        spec.check_mark(wm)?;
        Ok(MajorityVotingEcc.encode(wm, spec.wm_data_len))
    }

    /// [`MarkSession::embed`] over a [`SegmentedRelation`]: segments
    /// are paged in one at a time, planned, and rewritten in place
    /// under the relation's resident-byte budget. Byte-identical to
    /// embedding the materialized relation in memory.
    ///
    /// # Errors
    ///
    /// Binding drift, watermark length mismatch, or
    /// [`CoreError::Relation`] when paging/spilling fails.
    pub fn embed_segmented(
        &self,
        seg: &mut SegmentedRelation,
        wm: &Watermark,
    ) -> Result<EmbedReport, CoreError> {
        Ok(self.embed_segmented_with(seg, wm, None, Pipeline::Auto)?.0)
    }

    /// [`MarkSession::embed_guarded`] over a [`SegmentedRelation`]:
    /// the guard's state persists across segments and proposals
    /// arrive in ascending global row order, so admit/veto decisions
    /// match a monolithic guarded pass.
    ///
    /// # Errors
    ///
    /// As [`MarkSession::embed_segmented`].
    pub fn embed_guarded_segmented(
        &self,
        seg: &mut SegmentedRelation,
        wm: &Watermark,
        guard: &mut QualityGuard,
    ) -> Result<EmbedReport, CoreError> {
        Ok(self.embed_segmented_with(seg, wm, Some(guard), Pipeline::Auto)?.0)
    }

    /// [`MarkSession::embed_segmented`], optionally guarded, under an
    /// explicit [`Pipeline`] mode, plus the pass's resource counters.
    /// The guard always runs on the calling thread in segment order,
    /// so every mode makes the same decisions and writes the same
    /// bytes.
    ///
    /// # Errors
    ///
    /// As [`MarkSession::embed_segmented`].
    pub fn embed_segmented_with(
        &self,
        seg: &mut SegmentedRelation,
        wm: &Watermark,
        guard: Option<&mut QualityGuard>,
        pipeline: Pipeline,
    ) -> Result<(EmbedReport, PipelineStats), CoreError> {
        let wm_data = self.checked_wm_data(seg, wm)?;
        let all: Vec<usize> = (0..seg.segment_count()).collect();
        self.fold().embed(seg, &all, &wm_data, guard, pipeline)
    }

    /// [`MarkSession::decode`] over a [`SegmentedRelation`]: one
    /// vote-accumulation pass per segment, one resolution at the end.
    /// Byte-identical to decoding the materialized relation.
    ///
    /// # Errors
    ///
    /// Binding drift, or [`CoreError::Relation`] when paging fails.
    pub fn decode_segmented(&self, seg: &mut SegmentedRelation) -> Result<DecodeReport, CoreError> {
        Ok(self.decode_segmented_with(seg, Pipeline::Auto)?.0)
    }

    /// [`MarkSession::decode_segmented`] under an explicit
    /// [`Pipeline`] mode, plus the pass's resource counters.
    ///
    /// # Errors
    ///
    /// As [`MarkSession::decode_segmented`].
    pub fn decode_segmented_with(
        &self,
        seg: &mut SegmentedRelation,
        pipeline: Pipeline,
    ) -> Result<(DecodeReport, PipelineStats), CoreError> {
        self.check_segmented(seg)?;
        let folded = self.fold().votes(Source::Segments(seg), false, pipeline)?;
        Ok((folded.report, folded.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::AlterationBudget;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::Relation;

    fn fixture(tuples: usize, e: u64) -> (Relation, MarkSession, Watermark) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
        let rel = gen.generate();
        let spec = crate::WatermarkSpec::builder(gen.item_domain())
            .master_key("outofcore-tests")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .erasure(crate::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let session = MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel)
            .unwrap();
        (rel, session, Watermark::from_u64(0b1011001110, 10))
    }

    fn segmented(rel: &Relation, rows: usize, budget: usize) -> SegmentedRelation {
        SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(rows)
            .budget_bytes(budget)
            .from_relation(rel)
            .unwrap()
    }

    #[test]
    fn segmented_round_trip_is_byte_identical_under_quarter_budget() {
        let (rel, session, wm) = fixture(4_000, 10);
        let mut mono = rel.clone();
        let mono_report = session.embed(&mut mono, &wm).unwrap();
        let mono_decode = session.decode(&mono).unwrap();

        let budget = rel.resident_bytes() / 4;
        let mut seg = segmented(&rel, 250, budget);
        let seg_report =
            session.embed_segmented_with(&mut seg, &wm, None, Pipeline::Off).unwrap().0;
        assert_eq!(seg_report, mono_report, "embed reports diverge");
        let seg_decode = session.decode_segmented_with(&mut seg, Pipeline::Off).unwrap().0;
        assert_eq!(seg_decode, mono_decode, "decode reports diverge");
        assert!(seg.peak_pageable_bytes() <= budget, "budget was not honored");

        let back = seg.to_relation().unwrap();
        assert!(mono.iter().zip(back.iter()).all(|(a, b)| a == b), "marked bytes diverge");

        let decoded = session.decode_segmented(&mut seg).unwrap();
        assert!(crate::detect(&decoded.watermark, &wm).is_significant(1e-3));
    }

    #[test]
    fn pipelined_round_trip_matches_sequential_and_bounds_memory() {
        let (rel, session, wm) = fixture(4_000, 10);
        let budget = rel.resident_bytes() / 4;

        let mut seq = segmented(&rel, 250, budget);
        let seq_report =
            session.embed_segmented_with(&mut seq, &wm, None, Pipeline::Off).unwrap().0;
        let seq_decode = session.decode_segmented_with(&mut seq, Pipeline::Off).unwrap().0;
        let seq_bytes = seq.to_relation().unwrap();

        let mut piped = segmented(&rel, 250, budget);
        let (pipe_report, embed_stats) =
            session.embed_segmented_with(&mut piped, &wm, None, Pipeline::On).unwrap();
        assert_eq!(pipe_report, seq_report, "pipelined embed report diverges");
        let (pipe_decode, decode_stats) =
            session.decode_segmented_with(&mut piped, Pipeline::On).unwrap();
        assert_eq!(pipe_decode, seq_decode, "pipelined decode report diverges");
        let pipe_bytes = piped.to_relation().unwrap();
        assert!(
            seq_bytes.iter().zip(pipe_bytes.iter()).all(|(a, b)| a == b),
            "pipelined bytes diverge"
        );

        // The pager ceiling is unchanged by pipelining...
        assert!(
            piped.peak_pageable_bytes() <= budget.max(piped.peak_segment_bytes()),
            "pipelined pager ceiling violated"
        );
        // ...and the pipeline adds at most one in-flight segment clone
        // on top of it.
        for stats in [embed_stats, decode_stats] {
            assert_eq!(stats.segments, piped.segment_count());
            assert_eq!(stats.prefetched, piped.segment_count() - 1);
            assert!(
                stats.peak_inflight_bytes <= piped.peak_segment_bytes(),
                "in-flight clone {} exceeds the largest segment {}",
                stats.peak_inflight_bytes,
                piped.peak_segment_bytes()
            );
        }
    }

    #[test]
    fn guarded_segmented_matches_guarded_monolithic() {
        let (rel, session, wm) = fixture(3_000, 10);
        let mut mono = rel.clone();
        let mut mono_guard = QualityGuard::new(vec![Box::new(AlterationBudget::new(40))]);
        let mono_report = session.embed_guarded(&mut mono, &wm, &mut mono_guard).unwrap();

        let mut seg = segmented(&rel, 177, rel.resident_bytes() / 3);
        let mut seg_guard = QualityGuard::new(vec![Box::new(AlterationBudget::new(40))]);
        let (seg_report, _) = session
            .embed_segmented_with(&mut seg, &wm, Some(&mut seg_guard), Pipeline::Off)
            .unwrap();
        assert_eq!(seg_report, mono_report);
        assert_eq!(mono_guard.log().len(), seg_guard.log().len());
        let back = seg.to_relation().unwrap();
        assert!(mono.iter().zip(back.iter()).all(|(a, b)| a == b));

        // Guard decisions are order-sensitive; the pipelined walk
        // must reproduce them exactly (the guard runs on the driving
        // thread either way).
        let mut piped = segmented(&rel, 177, rel.resident_bytes() / 3);
        let mut pipe_guard = QualityGuard::new(vec![Box::new(AlterationBudget::new(40))]);
        let (pipe_report, _) = session
            .embed_segmented_with(&mut piped, &wm, Some(&mut pipe_guard), Pipeline::On)
            .unwrap();
        assert_eq!(pipe_report, mono_report);
        assert_eq!(pipe_guard.log().len(), mono_guard.log().len());
        let piped_back = piped.to_relation().unwrap();
        assert!(mono.iter().zip(piped_back.iter()).all(|(a, b)| a == b));
    }

    #[test]
    fn binding_drift_errors_before_any_paging() {
        let (rel, session, wm) = fixture(200, 10);
        let other = catmark_relation::Schema::builder()
            .key_attr("different", catmark_relation::AttrType::Integer)
            .categorical_attr("cols", catmark_relation::AttrType::Integer)
            .build()
            .unwrap();
        let mut seg = SegmentedRelation::builder(other).build();
        assert!(matches!(
            session.embed_segmented(&mut seg, &wm),
            Err(CoreError::ColumnBinding { .. })
        ));
        assert!(matches!(session.decode_segmented(&mut seg), Err(CoreError::ColumnBinding { .. })));
        assert!(matches!(
            session.embed_segmented_with(&mut seg, &wm, None, Pipeline::On),
            Err(CoreError::ColumnBinding { .. })
        ));
        assert!(matches!(
            session.decode_segmented_with(&mut seg, Pipeline::On),
            Err(CoreError::ColumnBinding { .. })
        ));
        let _ = rel;
    }

    #[test]
    fn wrong_watermark_length_is_rejected() {
        let (rel, session, _) = fixture(200, 10);
        let mut seg = segmented(&rel, 64, usize::MAX);
        let short = Watermark::from_u64(1, 3);
        assert!(matches!(
            session.embed_segmented(&mut seg, &short),
            Err(CoreError::InvalidSpec(_))
        ));
        assert!(matches!(
            session.embed_segmented_with(&mut seg, &short, None, Pipeline::On),
            Err(CoreError::InvalidSpec(_))
        ));
    }

    #[test]
    fn empty_and_single_row_segments_round_trip() {
        let (rel, session, wm) = fixture(101, 5);
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(1)
            .from_relation(&rel)
            .unwrap();
        seg.seal_tail().unwrap(); // explicit empty trailing segment
        let mut mono = rel.clone();
        let mono_report = session.embed(&mut mono, &wm).unwrap();
        let seg_report = session.embed_segmented(&mut seg, &wm).unwrap();
        assert_eq!(seg_report, mono_report);
        assert_eq!(session.decode_segmented(&mut seg).unwrap(), session.decode(&mono).unwrap());

        // Same shape through the pipeline: a 1-row-per-segment split
        // maximizes hand-offs, and the trailing empty segment is a
        // prefetch of an empty clone.
        let mut piped = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(1)
            .from_relation(&rel)
            .unwrap();
        piped.seal_tail().unwrap();
        let (pipe_report, stats) =
            session.embed_segmented_with(&mut piped, &wm, None, Pipeline::On).unwrap();
        assert_eq!(pipe_report, mono_report);
        assert_eq!(stats.prefetched, piped.segment_count() - 1);
    }
}
