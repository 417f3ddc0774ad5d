//! The segment fold: the one driver behind every segmented,
//! incremental and certified embed, decode and detect.
//!
//! Sion's blind decode is one computation. Each fit tuple casts a
//! keyed vote for one `wm_data` position, and the votes are resolved
//! once by majority and ECC. Votes commute, so every detection path is
//! the same fold over a different [`Source`]: a whole relation as one
//! segment, every segment of a `SegmentedRelation`, or a committed
//! version whose [`VoteCache`] leaves already-tallied blobs unpaged.
//! Each segment's tally goes to the fold's observer: the fast path
//! merges it into the running total at once and keeps nothing, and the
//! certified path also keeps every tally for the evidence bundle. Fast
//! and certified runs are two modes of one meaning, so their outcomes
//! are byte-identical by construction. Embedding walks the same
//! skeleton over the segments a dirty filter selects.
//!
//! # The two-stage pipeline
//!
//! Sequentially, each segment pays `plan` (keyed hashing, CPU-bound)
//! then `embed`/`accumulate` plus paging (store I/O) back to back.
//! Planning only reads the key column, which no pass ever rewrites,
//! so the next segment's plan is computable the moment its bytes are
//! readable: it does not depend on this segment's outcome. Under
//! [`Pipeline::On`] a single prefetch worker hashes and plans the next
//! visited segment from an **off-pager clone** while the main thread
//! embeds or vote-counts this one. All mutation, guard state,
//! reporting, and vote folding stay on the main thread in segment
//! order, so every byte and report matches [`Pipeline::Off`] exactly.
//!
//! Memory stays bounded: the pager's budget is still enforced as a
//! hard ceiling on resident segments, and the pipeline adds **at most
//! one in-flight segment clone** on top. The clone channel is a
//! rendezvous, so a new clone is only handed over once the worker has
//! dropped the previous one, and
//! [`PipelineStats::peak_inflight_bytes`] reports the clone's
//! high-water mark so callers can assert it.

use std::num::NonZero;
use std::sync::{mpsc, Arc};

use catmark_relation::{Relation, SegmentedRelation, VersionManifest};

use crate::decode::{DecodeReport, Decoder, VoteAccumulator};
use crate::ecc::MajorityVotingEcc;
use crate::embed::{EmbedReport, Embedder};
use crate::error::CoreError;
use crate::incremental::VoteCache;
use crate::plan::{spec_identity, MarkPlan, PlanCache};
use crate::quality::QualityGuard;
use crate::session::MarkSession;
use crate::spec::WatermarkSpec;

/// How a segmented pass schedules plan building. Every mode produces
/// identical bytes and reports; the choice is purely about resource
/// shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pipeline {
    /// Plan and process each segment back to back on the calling
    /// thread: the reference every pipelined run is pinned against.
    Off,
    /// Prefetch the next segment's plan on a worker thread whenever
    /// more than one segment must be planned.
    On,
    /// [`Pipeline::On`] when more than one segment must be planned and
    /// the host has more than one CPU, [`Pipeline::Off`] otherwise.
    #[default]
    Auto,
}

impl Pipeline {
    /// Whether a pass that plans `planned` segments runs the worker.
    fn enabled(self, planned: usize) -> bool {
        planned > 1
            && match self {
                Pipeline::Off => false,
                Pipeline::On => true,
                Pipeline::Auto => std::thread::available_parallelism().map_or(1, NonZero::get) > 1,
            }
    }
}

/// Resource counters from one segmented pass.
///
/// The pipeline's memory contract is `pager budget + one in-flight
/// segment clone`; [`PipelineStats::peak_inflight_bytes`] is the
/// observed size of that one clone (its high-water mark across the
/// pass), never a sum over several — the rendezvous hand-off keeps at
/// most one clone alive at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Segments the pass planned.
    pub segments: usize,
    /// Segments whose plan was built ahead by the prefetch worker
    /// (every planned segment but the first when the pipeline ran).
    pub prefetched: usize,
    /// Largest off-pager segment clone handed to the worker, in
    /// bytes. Zero when nothing was prefetched.
    pub peak_inflight_bytes: usize,
}

/// What a vote fold walks.
pub(crate) enum Source<'s> {
    /// An in-memory relation, tallied as one segment.
    Whole(&'s Relation),
    /// Every segment of a segmented relation, paged in turn.
    Segments(&'s mut SegmentedRelation),
    /// A committed version: segments whose blob tally `cache` already
    /// holds are folded from it unpaged; the rest are paged in,
    /// tallied, and cached. `manifest` must describe `seg`.
    Cached {
        seg: &'s mut SegmentedRelation,
        manifest: &'s VersionManifest,
        cache: &'s mut VoteCache,
    },
}

/// A resolved vote fold.
pub(crate) struct Folded {
    pub(crate) report: DecodeReport,
    /// Every segment's tally in segment order when the fold kept them
    /// for evidence; empty on the fast path.
    pub(crate) tallies: Vec<VoteAccumulator>,
    /// Segments paged in and tallied by this pass.
    pub(crate) accumulated: usize,
    /// Segments folded from the vote cache.
    pub(crate) cached: usize,
    pub(crate) stats: PipelineStats,
}

/// The fold's observer: the running merge, plus every tally in
/// segment order when certifying.
struct Observer {
    votes: VoteAccumulator,
    kept: Option<Vec<VoteAccumulator>>,
}

impl Observer {
    fn push(&mut self, tally: &VoteAccumulator) {
        self.votes.merge(tally);
        if let Some(kept) = &mut self.kept {
            kept.push(tally.clone());
        }
    }
}

/// The fold's fixed inputs: whose keys, which columns, which plan
/// cache.
#[derive(Clone, Copy)]
pub(crate) struct Fold<'a> {
    pub(crate) spec: &'a WatermarkSpec,
    pub(crate) key_idx: usize,
    pub(crate) attr_idx: usize,
    pub(crate) plans: &'a PlanCache,
}

impl MarkSession {
    /// The fold over this session's keys, bound columns, and cache.
    pub(crate) fn fold(&self) -> Fold<'_> {
        Fold {
            spec: self.spec(),
            key_idx: self.key().index(),
            attr_idx: self.target().index(),
            plans: self.cache(),
        }
    }
}

impl Fold<'_> {
    /// One segment's votes under `plan`, which was built over `rel`.
    fn tally(&self, rel: &Relation, plan: &MarkPlan) -> VoteAccumulator {
        let mut tally = VoteAccumulator::new(self.spec.wm_data_len);
        tally.accumulate(self.spec, rel, self.attr_idx, plan);
        tally
    }

    /// Fold `source`'s votes and resolve them once, keeping every
    /// segment's tally when `keep` (the certified path).
    pub(crate) fn votes(
        &self,
        source: Source<'_>,
        keep: bool,
        pipeline: Pipeline,
    ) -> Result<Folded, CoreError> {
        let mut out = Observer {
            votes: VoteAccumulator::new(self.spec.wm_data_len),
            kept: keep.then(Vec::new),
        };
        let (accumulated, cached, stats) = match source {
            Source::Whole(rel) => {
                let plan = self.plans.plan_for(self.spec, rel, self.key_idx)?;
                out.push(&self.tally(rel, &plan));
                (1, 0, PipelineStats { segments: 1, ..PipelineStats::default() })
            }
            Source::Segments(seg) => {
                let all: Vec<usize> = (0..seg.segment_count()).collect();
                let stats = self.walk(seg, &all, pipeline, |seg, i, plan| {
                    let tally = seg.with_segment(i, |rel| self.tally(rel, plan));
                    out.push(&tally.map_err(CoreError::Relation)?);
                    Ok(())
                })?;
                (all.len(), 0, stats)
            }
            Source::Cached { seg, manifest, cache } => {
                let spec_id = spec_identity(self.spec);
                let blobs = &manifest.segments;
                let fresh = cache.untallied(spec_id, manifest);
                // Cached segments between tallied ones fold in as the
                // walk passes them, so kept tallies stay in order.
                let mut next = 0;
                let stats = self.walk(seg, &fresh, pipeline, |seg, i, plan| {
                    for blob in &blobs[next..i] {
                        out.push(cache.get(spec_id, &blob.hash));
                    }
                    let tally = seg
                        .with_segment(i, |rel| self.tally(rel, plan))
                        .map_err(CoreError::Relation)?;
                    out.push(&tally);
                    cache.insert(spec_id, blobs[i].hash, tally);
                    next = i + 1;
                    Ok(())
                })?;
                for blob in &blobs[next..] {
                    out.push(cache.get(spec_id, &blob.hash));
                }
                cache.retain_manifest(spec_id, manifest);
                (fresh.len(), blobs.len() - fresh.len(), stats)
            }
        };
        let report = Decoder::engine(self.spec).resolve(&MajorityVotingEcc, out.votes)?;
        Ok(Folded { report, tallies: out.kept.unwrap_or_default(), accumulated, cached, stats })
    }

    /// Embed `wm_data` into the segments `visit` names (ascending),
    /// each at its global row base, under an optional guard whose
    /// state carries across segments in row order.
    pub(crate) fn embed(
        &self,
        seg: &mut SegmentedRelation,
        visit: &[usize],
        wm_data: &[bool],
        mut guard: Option<&mut QualityGuard>,
        pipeline: Pipeline,
    ) -> Result<(EmbedReport, PipelineStats), CoreError> {
        let engine = Embedder::engine(self.spec);
        let total = visit.iter().map(|&i| seg.segment_len(i)).sum();
        let mut report = EmbedReport::new(total, self.spec.wm_data_len);
        let mut covered = vec![false; self.spec.wm_data_len];
        let bases: Vec<usize> = (0..seg.segment_count())
            .scan(0, |rows, i| Some(std::mem::replace(rows, *rows + seg.segment_len(i))))
            .collect();
        let stats = self.walk(seg, visit, pipeline, |seg, i, plan| {
            report.fit_tuples += plan.fit().len();
            let g = guard.as_deref_mut();
            seg.with_segment_mut(i, |rel| {
                engine.embed_pass(
                    rel,
                    self.attr_idx,
                    wm_data,
                    g,
                    plan,
                    bases[i],
                    &mut covered,
                    &mut report,
                )
            })
            .map_err(CoreError::Relation)?
        })?;
        report.positions_covered = covered.iter().filter(|&&c| c).count();
        Ok((report, stats))
    }

    /// Visit the segments `visit` names (ascending) in order: plan
    /// each one, its successor's plan prefetched by a worker when the
    /// pipeline runs, and hand `step` the segment index and its plan.
    ///
    /// Correctness leans on two invariants. First, a plan reads only
    /// the key column, which no pass rewrites, so the clone taken
    /// *before* segment `i` is mutated still plans its successor
    /// exactly. Second, plan-cache keys are content fingerprints, so
    /// the worker populates the same entries the sequential walk
    /// would. The clone channel is a rendezvous (capacity 0): the
    /// hand-off of the next clone only completes after the worker has
    /// finished (and dropped) the previous one, bounding off-pager
    /// memory to one segment.
    fn walk(
        &self,
        seg: &mut SegmentedRelation,
        visit: &[usize],
        pipeline: Pipeline,
        mut step: impl FnMut(&mut SegmentedRelation, usize, &MarkPlan) -> Result<(), CoreError>,
    ) -> Result<PipelineStats, CoreError> {
        // Embedding never rewrites the key column, so an embed → decode
        // round trip can take every segment's plan from the cache,
        // halving the keyed-hash work. A pass visits segments
        // cyclically, and LRU evicts the oldest entry first, so once a
        // relation has more segments than the cache holds every plan
        // is evicted before the next pass asks for it. Half the
        // capacity leaves the other half to the session's other plans;
        // larger segment counts build plans directly.
        let cacheable = seg.segment_count() <= PlanCache::CAPACITY / 2;
        let fold = *self;
        let plan = move |rel: &Relation| -> Result<Arc<MarkPlan>, CoreError> {
            if cacheable {
                fold.plans.plan_for(fold.spec, rel, fold.key_idx)
            } else {
                Ok(Arc::new(MarkPlan::build(fold.spec, rel, fold.key_idx)))
            }
        };
        let mut stats = PipelineStats { segments: visit.len(), ..PipelineStats::default() };
        if !pipeline.enabled(visit.len()) {
            for &i in visit {
                let planned = seg.with_segment(i, plan).map_err(CoreError::Relation)??;
                step(seg, i, &planned)?;
            }
            return Ok(stats);
        }
        std::thread::scope(|scope| -> Result<(), CoreError> {
            let (clone_tx, clone_rx) = mpsc::sync_channel::<Relation>(0);
            let (plan_tx, plan_rx) = mpsc::sync_channel(1);
            scope.spawn(move || {
                while let Ok(rel) = clone_rx.recv() {
                    let planned = plan(&rel);
                    // Release the clone before signalling readiness for
                    // the next one: this is what keeps the in-flight
                    // bound at a single segment.
                    drop(rel);
                    if plan_tx.send(planned).is_err() {
                        break; // the driver hung up (error path)
                    }
                }
            });
            for (k, &i) in visit.iter().enumerate() {
                if let Some(&next) = visit.get(k + 1) {
                    let clone =
                        seg.with_segment(next, Relation::clone).map_err(CoreError::Relation)?;
                    stats.peak_inflight_bytes =
                        stats.peak_inflight_bytes.max(clone.resident_bytes());
                    if clone_tx.send(clone).is_ok() {
                        stats.prefetched += 1;
                    }
                }
                let planned = if k == 0 {
                    // No plan is in flight yet; the first segment is
                    // planned inline while the worker starts on the
                    // second.
                    seg.with_segment(i, plan).map_err(CoreError::Relation)??
                } else {
                    // The worker only stops after this side hangs up,
                    // so a closed channel here means it panicked;
                    // propagate (the scope re-raises its panic too).
                    plan_rx.recv().expect("plan prefetch worker disconnected")?
                };
                step(seg, i, &planned)?;
            }
            drop(clone_tx); // stop the worker; the scope joins it
            Ok(())
        })?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect;
    use crate::incremental::IncrementalEmbedReport;
    use crate::session::Verdict;
    use crate::spec::Watermark;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::{CacheStats, ContentStore, Tuple, VersionLog};

    const TUPLES: usize = 700;

    /// Everything one pipeline mode's incremental round produces.
    #[derive(Debug, PartialEq)]
    struct Round {
        marked: Vec<Tuple>,
        embed: IncrementalEmbedReport,
        decode: DecodeReport,
        decode_counts: (usize, usize),
        verdict: Verdict,
        bundle: Vec<u8>,
        vote_caches: [CacheStats; 2],
    }

    /// Which of `n` segments a churn pattern touches.
    fn pattern(name: &str, n: usize) -> Vec<usize> {
        match name {
            "none" => Vec::new(),
            "first" => vec![0],
            "last" => vec![n - 1],
            "all" => (0..n).collect(),
            "alternating" => (0..n).step_by(2).collect(),
            _ => unreachable!("unknown pattern {name}"),
        }
    }

    /// Mark, commit, warm two vote caches, churn the `touched`
    /// segments, then re-mark incrementally, decode through one cache
    /// and certify through the other, all under `mode`.
    fn round(rel: &Relation, segments: usize, touched: &[usize], mode: Pipeline) -> Round {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: TUPLES, ..Default::default() });
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("fold-tests")
            .e(10)
            .wm_len(10)
            .expected_tuples(TUPLES)
            .build()
            .unwrap();
        let session = MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(rel)
            .unwrap();
        let wm = Watermark::from_u64(0b1011001110, 10);
        let store = ContentStore::in_memory();
        let mut log = VersionLog::new();
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(TUPLES.div_ceil(segments))
            .budget_bytes(rel.resident_bytes() / 3)
            .store(Box::new(store.clone()))
            .from_relation(rel)
            .unwrap();
        assert_eq!(seg.segment_count(), segments);
        session.embed_segmented_with(&mut seg, &wm, None, mode).unwrap();
        let marked = log.commit(&mut seg, &store).unwrap();
        let marked = log.get(marked).unwrap().clone();
        let (mut fast_cache, mut cert_cache) = (VoteCache::new(), VoteCache::new());
        for cache in [&mut fast_cache, &mut cert_cache] {
            session.fold_version(&mut seg, &marked, cache, false, mode).unwrap();
        }

        // Rewrite the first rows of each touched segment to another
        // domain value; some are unfit, so the blob stays changed
        // after the re-mark.
        let attr = session.target().index();
        let values = session.spec().domain.values().to_vec();
        for &i in touched {
            seg.with_segment_mut(i, |r| {
                for row in 0..8 {
                    let old = r.value(row, attr).unwrap();
                    let at = values.iter().position(|v| *v == old).unwrap();
                    r.update_value(row, attr, values[(at + 1) % values.len()].clone()).unwrap();
                }
            })
            .unwrap();
        }
        let current = log.commit(&mut seg, &store).unwrap();
        let current = log.get(current).unwrap().clone();
        let (embed, embed_stats) =
            session.embed_incremental_with(&mut seg, &wm, &marked, &current, mode).unwrap();
        let remarked = log.commit(&mut seg, &store).unwrap();
        let remarked = log.get(remarked).unwrap().clone();
        let decoded =
            session.fold_version(&mut seg, &remarked, &mut fast_cache, false, mode).unwrap();
        let (certified, cert_stats) =
            session.certify_version(&mut seg, &wm, &remarked, &mut cert_cache, mode).unwrap();

        assert_eq!(embed.dirty_segments, touched.len());
        assert_eq!(decoded.accumulated, touched.len());
        assert_eq!(certified.outcome.detection, detect(&decoded.report.watermark, &wm));
        for stats in [embed_stats, decoded.stats, cert_stats] {
            assert_eq!(stats.segments, touched.len());
            assert!(stats.peak_inflight_bytes <= seg.peak_segment_bytes());
            let expect = if mode == Pipeline::On { touched.len().saturating_sub(1) } else { 0 };
            assert_eq!(stats.prefetched, expect);
        }
        Round {
            marked: seg.to_relation().unwrap().iter().collect(),
            embed,
            decode: decoded.report,
            decode_counts: (decoded.accumulated, decoded.cached),
            verdict: certified.outcome,
            bundle: certified.bundle,
            vote_caches: [fast_cache.stats(), cert_cache.stats()],
        }
    }

    #[test]
    fn skip_filters_under_a_forced_pipeline_match_the_sequential_reference() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: TUPLES, ..Default::default() });
        let rel = gen.generate();
        for segments in [1, 2, 7] {
            for name in ["none", "first", "last", "all", "alternating"] {
                let touched = pattern(name, segments);
                let off = round(&rel, segments, &touched, Pipeline::Off);
                let on = round(&rel, segments, &touched, Pipeline::On);
                assert_eq!(off, on, "{segments} segments, {name} touched");
            }
        }
    }

    #[test]
    fn the_pipeline_runs_only_with_more_than_one_segment_to_plan() {
        for planned in [0, 1] {
            for mode in [Pipeline::Off, Pipeline::On, Pipeline::Auto] {
                assert!(!mode.enabled(planned));
            }
        }
        assert!(Pipeline::On.enabled(2));
        assert!(!Pipeline::Off.enabled(2));
        let cpus = std::thread::available_parallelism().map_or(1, NonZero::get);
        assert_eq!(Pipeline::Auto.enabled(2), cpus > 1);
    }
}
