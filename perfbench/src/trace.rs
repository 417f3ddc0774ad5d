//! The traced run (`--trace 1`). It first runs the workload over the
//! real daemon or CLI as usual — for the wire, cache and generator
//! numbers — then replays the identical seeded request stream
//! in-process with a span around every public call of each layer:
//!
//! * the daemon path: `json::parse` on the exact request text, the
//!   wait for the `Service` mutex (two bench threads share it on
//!   `audit`, as `serve_unix_pool`'s workers do), `Service::handle`
//!   with the daemon's flags, and `Json::to_text`;
//! * a decomposed replay of the same op through the layers:
//!   `read_csv_inferred`, `MarkSession::{plan, embed_planned,
//!   decode_planned, embed_incremental, decode_incremental,
//!   detect_certified_incremental}`, `VersionLog::{commit,
//!   open_version}`, `FingerprintSession::{mark_delta, trace}`,
//!   `MarkDelta::encode`, `verify_evidence` and `write_csv`, on
//!   state that mirrors the daemon's.
//!
//! On `cli_court` each CLI round is followed by the same four
//! commands replayed in-process. Spans stay in memory and are written
//! to `.bench_run/trace-<workload>-<seed>.csv` when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use catmark_core::keyfile::{from_key_file, TenantKeyRegistry};
use catmark_core::{
    verify_evidence, FingerprintSession, MarkSession, VoteCache, Watermark, WatermarkSpec,
};
use catmark_relation::csv::read_csv_inferred;
use catmark_relation::spill::SegmentStore;
use catmark_relation::{ContentStore, Relation, Schema, SegmentedRelation, VersionLog};
use catmark_service::json::{self as service_json, Json};
use catmark_service::{Service, ServiceConfig};

use crate::cli::{self, Court};
use crate::stats::{median, percentile, tail_percentile};
use crate::workload::{
    self, audit_setup, from_hex, hello, ms, render, AuditReader, Dataset, Distribute, Endpoint,
    Recorder, ATTR, KEY_ATTR,
};
use crate::{measure, Args, Metrics, Outcome, SEGMENT_ROWS};

/// The daemon's default pager budget (`--budget-bytes` not given).
const BUDGET_BYTES: usize = 64 << 20;
/// Request ids of the `audit` writer thread start here.
const WRITER_IDS: u64 = 1 << 40;

/// Ops whose handler time is reported per op.
const OPS: [&str; 6] =
    ["update", "mark_delta", "trace", "detect_at", "detect_at_evidence", "verify_evidence"];

/// One timed call. `parent` is `None` for a request's root span.
#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    fn ms(&self) -> f64 {
        ms(self.end.saturating_sub(self.start))
    }
}

/// A per-thread span log plus counters recorded at the same
/// boundaries.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
    next_req: u64,
    op: &'static str,
    /// Root-span durations of the daemon path, in send order.
    roots_ms: Vec<f64>,
}

impl Tracer {
    fn new(origin: Instant, first_req: u64) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            counters: BTreeMap::new(),
            next_req: first_req,
            op: "",
            roots_ms: Vec::new(),
        }
    }

    /// Start request `op`: a new id and its root span.
    fn begin(&mut self, op: &'static str) -> usize {
        self.next_req += 1;
        self.op = op;
        self.open("request", None)
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        let req = self.next_req;
        self.spans.push(Span { name, op: self.op, req, parent, start: now, end: now });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, Some(parent));
        let value = f();
        self.close(span);
        value
    }

    fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_default() += v;
    }

    /// Forget what set-up recorded.
    fn reset(&mut self) {
        self.spans.clear();
        self.counters.clear();
        self.roots_ms.clear();
    }
}

fn e2s(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn field<'a>(req: &'a Json, name: &str) -> Result<&'a str, String> {
    req.get(name).and_then(Json::as_str).ok_or_else(|| format!("request has no {name:?}"))
}

fn watermark(bits: &str) -> Result<Watermark, String> {
    let value = u64::from_str_radix(bits, 2).map_err(e2s)?;
    Ok(Watermark::from_u64(value, bits.len()))
}

fn bind(spec: &WatermarkSpec, rel: &Relation) -> Result<MarkSession, String> {
    MarkSession::builder(spec.clone())
        .key_column(KEY_ATTR)
        .target_column(ATTR)
        .bind(rel)
        .map_err(e2s)
}

struct Table {
    schema: Schema,
    store: ContentStore,
    log: VersionLog,
    votes: VoteCache,
    marked: Option<u64>,
}

/// The decomposed replay's state: what the daemon keeps for the one
/// tenant key and versioned table the workloads use.
struct Mirror {
    spec: WatermarkSpec,
    session: Option<MarkSession>,
    fp: Option<FingerprintSession>,
    table: Option<Table>,
}

impl Mirror {
    fn replay(
        &mut self,
        op: &'static str,
        req: &Json,
        t: &mut Tracer,
        p: usize,
    ) -> Result<(), String> {
        match op {
            "update" => self.update(req, t, p),
            "mark_delta" | "trace" => self.fingerprint(op, req, t, p),
            "detect_at" | "detect_at_evidence" => self.detect_at(op, req, t, p),
            "verify_evidence" => {
                let bytes = from_hex(field(req, "bundle")?)?;
                t.time("evidence.verify", p, || verify_evidence(&bytes)).map_err(e2s)?;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn parse(&mut self, req: &Json, t: &mut Tracer, p: usize) -> Result<Relation, String> {
        let csv = field(req, "csv")?;
        let rel = t.time("csv.parse", p, || read_csv_inferred(csv, &[ATTR])).map_err(e2s)?;
        t.count("csv.rows", rel.len() as f64);
        if self.session.is_none() {
            self.session = Some(bind(&self.spec, &rel)?);
        }
        Ok(rel)
    }

    fn update(&mut self, req: &Json, t: &mut Tracer, p: usize) -> Result<(), String> {
        let wm = watermark(field(req, "mark")?)?;
        let rel = self.parse(req, t, p)?;
        let session = self.session.as_ref().expect("bound by parse");
        let table = self.table.get_or_insert_with(|| Table {
            schema: rel.schema().clone(),
            store: ContentStore::in_memory(),
            log: VersionLog::new(),
            votes: VoteCache::new(),
            marked: None,
        });
        let (bytes0, dedup0) = (table.store.spilled_bytes(), table.store.dedup_hits());
        let (mut seg, version) = t
            .time("versioned.commit", p, || {
                let mut seg = SegmentedRelation::builder(rel.schema().clone())
                    .segment_rows(SEGMENT_ROWS)
                    .budget_bytes(BUDGET_BYTES)
                    .store(Box::new(table.store.clone()))
                    .from_relation(&rel)?;
                let version = table.log.commit(&mut seg, &table.store)?;
                Ok::<_, catmark_relation::RelationError>((seg, version))
            })
            .map_err(e2s)?;
        let (report, dirty, clean) = t
            .time("incremental.embed", p, || match table.marked {
                Some(marked) => session
                    .embed_incremental(
                        &mut seg,
                        &wm,
                        table.log.get(marked).expect("logged"),
                        table.log.get(version).expect("logged"),
                    )
                    .map(|inc| (inc.report, inc.dirty_segments, inc.clean_segments)),
                None => {
                    let report = session.embed_segmented(&mut seg, &wm);
                    report.map(|r| (r, seg.segment_count(), 0))
                }
            })
            .map_err(e2s)?;
        let marked = t.time("versioned.commit", p, || table.log.commit(&mut seg, &table.store));
        table.marked = Some(marked.map_err(e2s)?);
        let marked = t.time("csv.render", p, || seg.to_relation().map(|r| render(&r)));
        std::hint::black_box(marked.map_err(e2s)?);
        let pager = seg.cache_stats();
        t.count("update.n", 1.0);
        t.count("versioned.bytes_appended", (table.store.spilled_bytes() - bytes0) as f64);
        t.count("versioned.dedup_hits", (table.store.dedup_hits() - dedup0) as f64);
        t.count("incremental.dirty_segments", dirty as f64);
        t.count("incremental.clean_segments", clean as f64);
        t.count("embed.altered", report.altered as f64);
        t.count("embed.n", 1.0);
        t.count("segment.pager_hits", pager.hits as f64);
        t.count("segment.pager_misses", pager.misses as f64);
        t.count("segment.n", 1.0);
        Ok(())
    }

    fn fingerprint(
        &mut self,
        op: &'static str,
        req: &Json,
        t: &mut Tracer,
        p: usize,
    ) -> Result<(), String> {
        let rel = self.parse(req, t, p)?;
        let session = self.session.as_ref().expect("bound by parse");
        let fp = self.fp.get_or_insert_with(|| session.fingerprint());
        if op == "trace" {
            for buyer in req.get("buyers").and_then(Json::as_array).unwrap_or_default() {
                fp.register(buyer.as_str().unwrap_or_default());
            }
            t.time("fingerprint.trace", p, || fp.trace(&rel)).map_err(e2s)?;
            return Ok(());
        }
        // The cold keyed scan over the request relation: what the plan
        // layer costs the first time it sees this key column.
        let spec = &self.spec;
        t.time("plan.scan", p, || bind(spec, &rel)?.plan(&rel).map_err(e2s))?;
        t.count("plan.rows", rel.len() as f64);
        let buyer = field(req, "buyer")?;
        let (delta, _) =
            t.time("fingerprint.mark_delta", p, || fp.mark_delta(&rel, buyer)).map_err(e2s)?;
        let blob = t.time("delta.encode", p, || delta.encode());
        t.count("delta.bytes", blob.len() as f64);
        t.count("delta.n", 1.0);
        Ok(())
    }

    fn detect_at(
        &mut self,
        op: &'static str,
        req: &Json,
        t: &mut Tracer,
        p: usize,
    ) -> Result<(), String> {
        let claim = watermark(field(req, "claim")?)?;
        let version = req.get("version").and_then(Json::as_u64).ok_or("no version")?;
        let session = self.session.as_ref().ok_or("detect_at before any update")?;
        let table = self.table.as_mut().ok_or("detect_at before any update")?;
        let manifest = table.log.get(version).ok_or("unknown version")?.clone();
        let mut seg = t
            .time("versioned.open", p, || {
                table.log.open_version(version, &table.schema, &table.store, Some(BUDGET_BYTES))
            })
            .map_err(e2s)?;
        if op == "detect_at_evidence" {
            let certified = t
                .time("evidence.detect", p, || {
                    session.detect_certified_incremental(
                        &mut seg,
                        &claim,
                        &manifest,
                        &mut table.votes,
                    )
                })
                .map_err(e2s)?;
            t.count("evidence.bundle_bytes", certified.bundle.len() as f64);
            t.count("evidence.n", 1.0);
        } else {
            let inc = t
                .time("incremental.decode", p, || {
                    session.decode_incremental(&mut seg, &manifest, &mut table.votes)
                })
                .map_err(e2s)?;
            t.count("incremental.cached", inc.cached_segments as f64);
            t.count("incremental.accumulated", inc.accumulated_segments as f64);
        }
        let pager = seg.cache_stats();
        t.count("segment.pager_hits", pager.hits as f64);
        t.count("segment.pager_misses", pager.misses as f64);
        t.count("segment.n", 1.0);
        Ok(())
    }
}

/// The in-process endpoint: the daemon path under spans, then the
/// decomposed replay of the same request.
struct Traced<'a> {
    service: &'a Mutex<Service>,
    mirror: &'a Mutex<Mirror>,
    bound: Option<String>,
    t: Tracer,
}

impl Traced<'_> {
    fn new<'a>(
        service: &'a Mutex<Service>,
        mirror: &'a Mutex<Mirror>,
        origin: Instant,
        first_req: u64,
    ) -> Traced<'a> {
        Traced { service, mirror, bound: None, t: Tracer::new(origin, first_req) }
    }
}

impl Endpoint for Traced<'_> {
    fn call(&mut self, op: &'static str, request: &str) -> Result<String, String> {
        let t = &mut self.t;
        let root = t.begin(op);
        t.count("json.request_bytes", request.len() as f64);
        t.count("json.n", 1.0);
        let parsed = t.time("json.parse", root, || service_json::parse(request))?;
        let wait = t.open("daemon.lock_wait", Some(root));
        let mut service = self.service.lock().expect("service lock is never poisoned");
        t.close(wait);
        let bound = &mut self.bound;
        let (response, _) = t.time("daemon.handle", root, || service.handle(bound, &parsed));
        drop(service);
        let text = t.time("json.render", root, || response.to_text());
        t.close(root);
        let root_ms = t.spans[root].ms();
        t.roots_ms.push(root_ms);
        let replay = t.open("replay", None);
        self.mirror
            .lock()
            .expect("mirror lock is never poisoned")
            .replay(op, &parsed, t, replay)?;
        t.close(replay);
        Ok(text)
    }
}

fn service_for(ds: &Dataset) -> Result<Service, String> {
    let mut service = Service::new(ServiceConfig::default());
    service
        .add_registry(TenantKeyRegistry::from_registry_file(&ds.registry()).map_err(e2s)?)
        .map_err(e2s)?;
    Ok(service)
}

/// What the replay hands to the metric assembly.
struct Replay {
    tracers: Vec<Tracer>,
    rec: Recorder,
    /// Per CLI round: the four commands' wall time minus their
    /// in-process layer spans.
    cli_overhead_ms: Vec<f64>,
}

fn replay_distribute(args: &Args, rounds: usize) -> Result<Replay, String> {
    let ds = Dataset::new(workload::DISTRIBUTE_ROWS, args.seed);
    let service = Mutex::new(service_for(&ds)?);
    let mirror = Mutex::new(Mirror { spec: ds.spec.clone(), session: None, fp: None, table: None });
    let mut ep = Traced::new(&service, &mirror, Instant::now(), 0);
    let mut rec = Recorder::default();
    let mut d = Distribute::setup(ds, args.seed, &mut ep, &mut rec)?;
    ep.t.reset();
    for _ in 0..rounds {
        d.round(&mut ep, &mut rec)?;
    }
    Ok(Replay { tracers: vec![ep.t], rec, cli_overhead_ms: Vec::new() })
}

fn replay_audit(args: &Args, steps: usize) -> Result<Replay, String> {
    let ds = Dataset::new(workload::AUDIT_ROWS, args.seed);
    let service = Mutex::new(service_for(&ds)?);
    let mirror = Mutex::new(Mirror { spec: ds.spec.clone(), session: None, fp: None, table: None });
    let origin = Instant::now();
    let mut writer_ep = Traced::new(&service, &mirror, origin, WRITER_IDS);
    let mut reader_ep = Traced::new(&service, &mirror, origin, 0);
    let mut rec = Recorder::default();
    let mut table = audit_setup(&ds, args.seed, &mut writer_ep, &mut rec)?;
    hello(&mut reader_ep, &mut rec)?.ok_or("reader hello failed")?;
    writer_ep.t.reset();
    reader_ep.t.reset();
    let mut reader = AuditReader::new(args.seed, table.expectations(), &ds.mark);
    // The same pace as the socket run: an update after every
    // `WRITER_EVERY` reader steps.
    let (due_tx, due_rx) = std::sync::mpsc::channel::<Instant>();
    let (writer_out, reader_out) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<Recorder, String> {
            let mut rec = Recorder::default();
            for due in due_rx {
                table.update(&ds, &mut writer_ep, &mut rec, Some(due))?;
            }
            Ok(rec)
        });
        let mut reader_rec = Recorder::default();
        let reader_out = (1..=steps)
            .try_for_each(|k| {
                reader.step(&mut reader_ep, &mut reader_rec)?;
                if k % workload::WRITER_EVERY == 0 {
                    let _ = due_tx.send(Instant::now());
                }
                Ok::<_, String>(())
            })
            .map(|()| reader_rec);
        drop(due_tx);
        (writer.join().expect("writer thread panicked"), reader_out)
    });
    rec.absorb(writer_out?);
    rec.absorb(reader_out?);
    Ok(Replay { tracers: vec![reader_ep.t, writer_ep.t], rec, cli_overhead_ms: Vec::new() })
}

/// `cli_court`: each round runs the real CLI, then replays its four
/// commands in-process on the files it produced.
fn replay_cli(args: &Args, seconds: u64) -> Result<(Outcome, Replay), String> {
    let dir = crate::run_dir("court-traced");
    let mut court = Court::setup(&args.catmark, &dir, args.seed)?;
    let spec = from_key_file(&std::fs::read_to_string(court.path("key.catmark")).map_err(e2s)?)
        .map_err(e2s)?;
    let mut t = Tracer::new(Instant::now(), 0);
    let (mut rec, mut checks) = (Recorder::default(), Recorder::default());
    let mut overhead = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while start.elapsed() < Duration::from_secs(seconds) {
        let (runs, mark) = court.round(&mut rec)?;
        rounds += 1;
        let wm = watermark(&mark)?;
        let mut round_overhead = 0.0;
        for run in runs {
            let root = t.begin(run.op);
            let outcome = replay_command(&court, &spec, run.op, &wm, &mut t, root);
            t.close(root);
            round_overhead += run.wall_ms - t.spans[root].ms();
            checks.tally(outcome);
        }
        overhead.push(round_overhead);
    }
    let out = Outcome {
        recs: vec![rec],
        setup_s: Vec::new(),
        measured: start.elapsed(),
        peak_rss_mb: cli::children_peak_rss_mb(),
        cache_stats: None,
        rounds: vec![rounds],
        clean_exit: Ok(()),
        cpu_ms: 0.0,
    };
    Ok((out, Replay { tracers: vec![t], rec: checks, cli_overhead_ms: overhead }))
}

/// One CLI command replayed through the layers it calls, with the
/// same check the CLI's output passed.
fn replay_command(
    court: &Court,
    spec: &WatermarkSpec,
    op: &str,
    wm: &Watermark,
    t: &mut Tracer,
    p: usize,
) -> Result<(), String> {
    let load = |t: &mut Tracer, file: &str| -> Result<Relation, String> {
        let rel = t.time("csv.parse", p, || {
            let text = std::fs::read_to_string(court.path(file)).map_err(e2s)?;
            read_csv_inferred(&text, &[ATTR]).map_err(e2s)
        })?;
        t.count("csv.rows", rel.len() as f64);
        Ok(rel)
    };
    if op == "verify_evidence" {
        let bytes = std::fs::read(court.path("evidence.bin")).map_err(e2s)?;
        let summary = t.time("evidence.verify", p, || verify_evidence(&bytes)).map_err(e2s)?;
        return if summary.decoded == wm.to_string() {
            Ok(())
        } else {
            Err("replayed verify".into())
        };
    }
    let mut rel = load(t, if op == "embed" { "data.csv" } else { "marked.csv" })?;
    let session = bind(spec, &rel)?;
    let plan = t.time("plan.scan", p, || session.plan(&rel)).map_err(e2s)?;
    t.count("plan.rows", rel.len() as f64);
    let decoded = match op {
        "embed" => {
            let report = t
                .time("embed.write", p, || session.embed_planned(&mut rel, wm, &plan))
                .map_err(e2s)?;
            std::hint::black_box(t.time("csv.render", p, || render(&rel)));
            t.count("embed.altered", report.altered as f64);
            t.count("embed.n", 1.0);
            return Ok(());
        }
        "decode" => {
            t.time("decode.vote", p, || session.decode_planned(&rel, &plan)).map_err(e2s)?.watermark
        }
        _ => {
            let certified =
                t.time("evidence.detect", p, || session.detect_certified(&rel, wm)).map_err(e2s)?;
            t.count("evidence.bundle_bytes", certified.bundle.len() as f64);
            t.count("evidence.n", 1.0);
            certified.outcome.decode.watermark
        }
    };
    if decoded == *wm {
        Ok(())
    } else {
        Err(format!("replayed {op} decoded {decoded}"))
    }
}

/// Cost of recording one span, measured on a scratch log.
fn span_cost() -> Duration {
    let mut t = Tracer::new(Instant::now(), 0);
    let n = 20_000;
    let t0 = Instant::now();
    for _ in 0..n {
        let s = t.open("calibrate", None);
        t.close(s);
    }
    t0.elapsed() / n
}

/// Run the traced workload; returns the socket or CLI phase's outcome
/// (with the replay's checks folded in) and the per-layer metrics.
pub fn run(args: &Args) -> Result<(Outcome, Metrics), String> {
    // The real run and the replay share the run's seconds.
    let half = Args { seconds: (args.seconds / 2).max(1), ..args.clone() };
    let (mut out, replay) = match args.workload.as_str() {
        "distribute" => {
            let out = measure(&half, 1)?;
            let replay = replay_distribute(args, out.rounds[0])?;
            (out, replay)
        }
        "audit" => {
            let out = measure(&half, 1)?;
            let replay = replay_audit(args, out.rounds[0])?;
            (out, replay)
        }
        _ => replay_cli(args, args.seconds)?,
    };
    write_spans(args, &replay.tracers);
    let metrics = layer_metrics(&out, &replay, span_cost());
    let checks = Recorder {
        attempted: replay.rec.attempted,
        failed: replay.rec.failed,
        first_error: replay.rec.first_error,
        ..Recorder::default()
    };
    out.recs.push(checks);
    Ok((out, metrics))
}

fn write_spans(args: &Args, tracers: &[Tracer]) {
    let mut text = String::from("req,op,name,parent,start_us,end_us\n");
    for s in tracers.iter().flat_map(|t| &t.spans) {
        text.push_str(&format!(
            "{},{},{},{},{},{}\n",
            s.req,
            s.op,
            s.name,
            s.parent.map_or(String::new(), |p| p.to_string()),
            s.start.as_micros(),
            s.end.as_micros()
        ));
    }
    let _ = std::fs::create_dir_all(".bench_run");
    let path = format!(".bench_run/trace-{}-{}.csv", args.workload, args.seed);
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("perfbench: writing {path}: {e}");
    }
}

fn layer_metrics(out: &Outcome, replay: &Replay, span_cost: Duration) -> Metrics {
    let spans: Vec<&Span> = replay.tracers.iter().flat_map(|t| &t.spans).collect();
    let mut counters: BTreeMap<&str, f64> = BTreeMap::new();
    for t in &replay.tracers {
        for (k, v) in &t.counters {
            *counters.entry(k).or_default() += v;
        }
    }
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let per = |num: &str, den: &str| if c(den) > 0.0 { c(num) / c(den) } else { 0.0 };

    // Per request: the summed duration of each named span.
    let mut by_req: BTreeMap<(u64, &str), (f64, &str)> = BTreeMap::new();
    for s in &spans {
        let e = by_req.entry((s.req, s.name)).or_insert((0.0, s.op));
        e.0 += s.ms();
    }
    let samples = |name: &str, op: Option<&str>| -> Vec<f64> {
        by_req
            .iter()
            .filter(|((_, n), (_, o))| *n == name && op.is_none_or(|op| op == *o))
            .map(|(_, (v, _))| *v)
            .collect()
    };
    let med = |name: &str| median(&samples(name, None)).unwrap_or(0.0);
    let total_s = |name: &str| samples(name, None).iter().sum::<f64>() / 1e3;
    let rate = |amount: f64, name: &str| {
        let secs = total_s(name);
        if secs > 0.0 {
            amount / secs
        } else {
            0.0
        }
    };

    // Handler time minus the replayed layer spans of the same request.
    let mut replay_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for t in &replay.tracers {
        for s in &t.spans {
            if s.parent.is_some_and(|p| t.spans[p].name == "replay") {
                *replay_ms.entry(s.req).or_default() += s.ms();
            }
        }
    }
    let dispatch_self: Vec<f64> = by_req
        .iter()
        .filter(|((_, n), _)| *n == "daemon.handle")
        .map(|((req, _), (v, _))| v - replay_ms.get(req).copied().unwrap_or(0.0))
        .collect();

    let lock = samples("daemon.lock_wait", None);
    let lock_tail = tail_percentile(lock.len()).and_then(|p| percentile(&lock, p)).unwrap_or(0.0);

    // Socket latency minus the in-process daemon path of the same
    // request: the first stream's requests, matched in send order.
    let socket_rec = &out.recs[0];
    let wire_overhead: Vec<f64> = socket_rec
        .latency
        .iter()
        .zip(&replay.tracers[0].roots_ms)
        .map(|((_, socket), inproc)| socket - inproc)
        .collect();
    let socket_all = out.merged();
    let sent = socket_all.latency.len().max(1) as f64;
    let has_daemon = out.cache_stats.is_some();

    let cache = |cache: &str, what: &str| -> f64 {
        let stats = out.cache_stats.as_ref().and_then(|s| s.get(cache));
        let get = |k: &str| stats.and_then(|s| s.num_of(k)).unwrap_or(0.0);
        match what {
            "hit_ratio" if get("hits") + get("misses") > 0.0 => {
                get("hits") / (get("hits") + get("misses"))
            }
            "hit_ratio" => 0.0,
            _ => get("evictions"),
        }
    };

    let root_ms: f64 = spans.iter().filter(|s| s.parent.is_none()).map(|s| s.ms()).sum();
    let overhead_pct =
        if root_ms > 0.0 { 100.0 * spans.len() as f64 * ms(span_cost) / root_ms } else { 0.0 };
    let cached = c("incremental.cached");
    let accumulated = c("incremental.accumulated");

    let mut m: Metrics = vec![
        ("json.parse_ms".into(), med("json.parse"), "ms"),
        ("json.parse_mb_per_s".into(), rate(c("json.request_bytes") / 1e6, "json.parse"), "MB/s"),
        ("json.request_bytes".into(), per("json.request_bytes", "json.n"), "bytes"),
        ("json.render_ms".into(), med("json.render"), "ms"),
        (
            "wire.bytes_in_per_req".into(),
            if has_daemon { socket_all.bytes_out as f64 / sent } else { 0.0 },
            "bytes",
        ),
        (
            "wire.bytes_out_per_req".into(),
            if has_daemon { socket_all.bytes_in as f64 / sent } else { 0.0 },
            "bytes",
        ),
        ("wire.overhead_ms".into(), median(&wire_overhead).unwrap_or(0.0), "ms"),
    ];
    for op in OPS {
        let handle = median(&samples("daemon.handle", Some(op))).unwrap_or(0.0);
        m.push((format!("daemon.handle_ms.{op}"), handle, "ms"));
    }
    m.extend([
        ("daemon.dispatch_self_ms".into(), median(&dispatch_self).unwrap_or(0.0), "ms"),
        ("daemon.lock_wait_p50_ms".into(), median(&lock).unwrap_or(0.0), "ms"),
        ("daemon.lock_wait_tail_ms".into(), lock_tail, "ms"),
    ]);
    for name in ["plan", "fingerprint", "votes", "pager"] {
        m.push((format!("daemon.{name}_hit_ratio"), cache(name, "hit_ratio"), "ratio"));
        m.push((format!("daemon.{name}_evictions"), cache(name, "evictions"), "count"));
    }
    m.extend([
        ("csv.parse_ms".into(), med("csv.parse"), "ms"),
        ("csv.render_ms".into(), med("csv.render"), "ms"),
        ("csv.rows_per_s".into(), rate(c("csv.rows"), "csv.parse"), "rows/s"),
        ("versioned.commit_ms".into(), med("versioned.commit"), "ms"),
        ("versioned.bytes_appended".into(), per("versioned.bytes_appended", "update.n"), "bytes"),
        ("versioned.dedup_hits".into(), per("versioned.dedup_hits", "update.n"), "count"),
        ("versioned.open_ms".into(), med("versioned.open"), "ms"),
        ("segment.pager_hits".into(), per("segment.pager_hits", "segment.n"), "count"),
        ("segment.pager_misses".into(), per("segment.pager_misses", "segment.n"), "count"),
        ("plan.scan_ms".into(), med("plan.scan"), "ms"),
        ("plan.rows_per_s".into(), rate(c("plan.rows"), "plan.scan"), "rows/s"),
        ("embed.write_ms".into(), med("embed.write"), "ms"),
        ("embed.altered".into(), per("embed.altered", "embed.n"), "count"),
        ("decode.vote_ms".into(), med("decode.vote"), "ms"),
        ("incremental.embed_ms".into(), med("incremental.embed"), "ms"),
        (
            "incremental.dirty_segments".into(),
            per("incremental.dirty_segments", "update.n"),
            "count",
        ),
        (
            "incremental.clean_segments".into(),
            per("incremental.clean_segments", "update.n"),
            "count",
        ),
        ("incremental.decode_ms".into(), med("incremental.decode"), "ms"),
        (
            "incremental.cached_ratio".into(),
            if cached + accumulated > 0.0 { cached / (cached + accumulated) } else { 0.0 },
            "ratio",
        ),
        ("evidence.detect_ms".into(), med("evidence.detect"), "ms"),
        ("evidence.bundle_bytes".into(), per("evidence.bundle_bytes", "evidence.n"), "bytes"),
        ("evidence.verify_ms".into(), med("evidence.verify"), "ms"),
        ("fingerprint.mark_delta_ms".into(), med("fingerprint.mark_delta"), "ms"),
        ("fingerprint.trace_ms".into(), med("fingerprint.trace"), "ms"),
        ("delta.encode_ms".into(), med("delta.encode"), "ms"),
        ("delta.bytes".into(), per("delta.bytes", "delta.n"), "bytes"),
        ("cli.process_overhead_ms".into(), median(&replay.cli_overhead_ms).unwrap_or(0.0), "ms"),
        ("gen.client_ms".into(), median(&socket_all.client_ms).unwrap_or(0.0), "ms"),
        ("gen.writer_lateness_ms".into(), median(&socket_all.lateness_ms).unwrap_or(0.0), "ms"),
        ("trace.overhead_pct".into(), overhead_pct, "%"),
    ]);
    m
}

/// The names and units `layer_metrics` reports, in order — the
/// `per_layer` list of `BENCHMARK.json`.
#[cfg(test)]
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let out = Outcome {
        recs: vec![Recorder::default()],
        setup_s: Vec::new(),
        measured: Duration::from_secs(1),
        peak_rss_mb: 0.0,
        cache_stats: Some(crate::json::Value::Null),
        rounds: Vec::new(),
        clean_exit: Ok(()),
        cpu_ms: 0.0,
    };
    let replay = Replay {
        tracers: vec![Tracer::new(Instant::now(), 0)],
        rec: Recorder::default(),
        cli_overhead_ms: Vec::new(),
    };
    layer_metrics(&out, &replay, Duration::ZERO).into_iter().map(|(n, _, u)| (n, u)).collect()
}
