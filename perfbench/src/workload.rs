//! Seeded inputs and request streams of the three workloads, written
//! once against [`Endpoint`] so the socket run and the in-process
//! traced replay send byte-identical requests.

use std::time::{Duration, Instant};

use catmark_core::keyfile::TenantKeyRegistry;
use catmark_core::{detect, FingerprintSession, MarkSession, Watermark, WatermarkSpec};
use catmark_datagen::{ItemScanConfig, SalesGenerator};
use catmark_relation::csv::{read_csv_inferred, write_csv};
use catmark_relation::{MarkDelta, Relation};

use crate::check::{self, Expected};
use crate::json::{self, Request, Value};
use crate::{E, SEGMENT_ROWS, WM_LEN};

pub const TENANT: &str = "bench";
pub const KEY: &str = "production";
pub const KEY_ATTR: &str = "visit_nbr";
pub const ATTR: &str = "item_nbr";

/// Rows of the `distribute` table: the paper's N (6 segments).
pub const DISTRIBUTE_ROWS: usize = 6_000;
/// Buyers `distribute` fingerprints copies for and traces against.
pub const BUYERS: usize = 32;
/// Rows of the `audit` table (12 segments).
pub const AUDIT_ROWS: usize = 12_000;
/// Marked versions `audit` commits before measuring; the reader
/// detects among them.
pub const AUDIT_VERSIONS: usize = 8;
/// Every 8th reader request asks for evidence and verifies it.
pub const EVIDENCE_EVERY: u64 = 8;
/// The `audit` writer's fixed pace: one `update` per this many reader
/// steps, about one every 2 s on the two-core reference host. Counting
/// steps rather than seconds keeps the mix of reads and writes, and so
/// the CPU per request, the same whatever the host's speed; a faster
/// `update` still does not change how often it takes the lock.
pub const WRITER_EVERY: usize = 200;
/// Rows of the `cli_court` CSV file (markplan's size).
pub const CLI_ROWS: usize = 120_000;

/// SplitMix64: the workload's only source of randomness.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A `WM_LEN`-bit watermark as a bit string.
    pub fn mark(&mut self) -> String {
        let bits = self.next();
        (0..WM_LEN).map(|i| if bits >> i & 1 == 1 { '1' } else { '0' }).collect()
    }
}

/// A seeded sales relation with its key and owner mark.
#[derive(Clone)]
pub struct Dataset {
    pub rows: usize,
    pub csv: String,
    pub spec: WatermarkSpec,
    pub items: Vec<i64>,
    pub mark: String,
}

impl Dataset {
    /// `rows` tuples drawn from `seed`, keyed with the markplan
    /// parameters (`e`, `wm_len`, `expected_tuples = rows`).
    pub fn new(rows: usize, seed: u64) -> Dataset {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: rows, seed, ..Default::default() });
        let domain = gen.item_domain();
        let spec = WatermarkSpec::builder(domain.clone())
            .master_key(format!("perfbench-{seed}").as_str())
            .e(E)
            .wm_len(WM_LEN)
            .expected_tuples(rows)
            .build()
            .expect("benchmark spec is valid");
        let items = domain.values().iter().map(|v| v.as_int().expect("integer items")).collect();
        Dataset { rows, csv: render(&gen.generate()), spec, items, mark: Rng::new(seed, 1).mark() }
    }

    /// The owner's session over `rel`, as the daemon binds it.
    pub fn session(&self, rel: &Relation) -> Result<MarkSession, String> {
        MarkSession::builder(self.spec.clone())
            .key_column(KEY_ATTR)
            .target_column(ATTR)
            .bind(rel)
            .map_err(|e| e.to_string())
    }

    /// What a detection over `csv` must report for `claim`: a
    /// whole-relation decode of the same bytes, in-process.
    pub fn expected(&self, csv: &str, claim: &str) -> Result<Expected, String> {
        let rel = read_csv_inferred(csv, &[ATTR]).map_err(|e| e.to_string())?;
        let decoded = self.session(&rel)?.decode(&rel).map_err(|e| e.to_string())?.watermark;
        let claimed =
            Watermark::from_u64(u64::from_str_radix(claim, 2).map_err(|e| e.to_string())?, WM_LEN);
        Ok(Expected { mark: decoded.to_string(), matched: detect(&decoded, &claimed).matched_bits })
    }

    /// The daemon's registry file: one tenant holding this key.
    pub fn registry(&self) -> String {
        let mut reg = TenantKeyRegistry::new(TENANT).expect("valid tenant");
        reg.insert(KEY, self.spec.clone()).expect("fresh registry");
        reg.to_registry_file()
    }

    /// Segments of the table, at the daemon's versioned granularity.
    pub fn segments(&self) -> usize {
        self.rows.div_ceil(SEGMENT_ROWS)
    }

    /// `csv` with `rows / 10` item rewrites drawn (with replacement)
    /// inside segment `window` only, each to a different product: the
    /// churn that leaves every other segment byte-identical.
    pub fn churn(&self, csv: &str, window: usize, rng: &mut Rng) -> String {
        let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
        let lo = window * SEGMENT_ROWS;
        let hi = (lo + SEGMENT_ROWS).min(self.rows);
        for _ in 0..self.rows / 10 {
            let line = &mut lines[1 + lo + rng.below(hi - lo)];
            let comma = line.rfind(',').expect("two-column rows");
            let old: i64 = line[comma + 1..].parse().expect("integer item");
            let mut new = self.items[rng.below(self.items.len())];
            if new == old {
                new = self.items[(self.items.iter().position(|&i| i == old).unwrap_or(0) + 1)
                    % self.items.len()];
            }
            line.truncate(comma + 1);
            line.push_str(&new.to_string());
        }
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

pub fn render(rel: &Relation) -> String {
    let mut buf = Vec::new();
    write_csv(rel, &mut buf).expect("writing to memory");
    String::from_utf8(buf).expect("CSV is UTF-8")
}

/// Where requests go: the real daemon over its socket, or an
/// in-process `Service` in the traced replay. `op` labels the request
/// for per-op statistics (`detect_at_evidence` is `detect_at` with
/// `"evidence":true`).
pub trait Endpoint {
    fn call(&mut self, op: &'static str, request: &str) -> Result<String, String>;
}

/// What the generator saw: per-request latency, bytes, its own time,
/// and the outcome of every check.
#[derive(Default, Clone)]
pub struct Recorder {
    pub latency: Vec<(&'static str, f64)>,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub client_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    /// Daemon time of each closed-loop round: the sum of its request
    /// latencies, without the generator's own work.
    pub round_ms: Vec<f64>,
    /// Checked outcomes that were also ideal (the claim decoded 10/10;
    /// the leaker ranked first at 10/10), out of `ideal_of`.
    pub ideal: u64,
    pub ideal_of: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Recorder {
    /// One request: build it, send it, check the response. Latency
    /// runs from `due` when given (open loop), else from the send.
    /// Returns what `check` extracted, or `None` when the check
    /// failed (counted). Transport errors abort the run.
    pub fn exchange<T>(
        &mut self,
        ep: &mut dyn Endpoint,
        op: &'static str,
        due: Option<Instant>,
        build: impl FnOnce() -> String,
        check: impl FnOnce(Value) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let t0 = Instant::now();
        let request = build();
        let t1 = Instant::now();
        let response = ep.call(op, &request)?;
        let t2 = Instant::now();
        let checked = json::parse(&response).and_then(check);
        let t3 = Instant::now();
        self.latency.push((op, ms(t2 - due.unwrap_or(t1))));
        self.client_ms.push(ms((t1 - t0) + (t3 - t2)));
        self.bytes_out += request.len() as u64;
        self.bytes_in += response.len() as u64;
        Ok(self.tally(checked))
    }

    /// Close a round that began when `latency` held `first` samples.
    pub fn end_round(&mut self, first: usize) {
        let daemon_ms = self.latency[first..].iter().map(|l| l.1).sum();
        self.round_ms.push(daemon_ms);
    }

    pub fn ideal(&mut self, held: bool) {
        self.ideal_of += 1;
        self.ideal += u64::from(held);
    }

    pub fn tally<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.latency.extend(other.latency);
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.client_ms.extend(other.client_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.round_ms.extend(other.round_ms);
        self.ideal += other.ideal;
        self.ideal_of += other.ideal_of;
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Latency samples of one op, or of every op when `op` is `None`.
    pub fn samples(&self, op: Option<&str>) -> Vec<f64> {
        self.latency.iter().filter(|(o, _)| op.is_none_or(|op| *o == op)).map(|l| l.1).collect()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn take_str(v: Value, key: &str) -> Option<String> {
    match v {
        Value::Obj(fields) => {
            fields.into_iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
                Value::Str(s) => Some(s),
                _ => None,
            })
        }
        _ => None,
    }
}

pub fn hello(ep: &mut dyn Endpoint, rec: &mut Recorder) -> Result<Option<()>, String> {
    rec.exchange(
        ep,
        "hello",
        None,
        || Request::op("hello").str("tenant", TENANT).finish(),
        |v| check::ok(&v),
    )
}

fn update_request(name: &str, mark: &str, csv: &str) -> String {
    Request::op("update")
        .str("key", KEY)
        .str("name", name)
        .str("key_attr", KEY_ATTR)
        .str("attr", ATTR)
        .str("mark", mark)
        .str("csv", csv)
        .finish()
}

/// A versioned table the owner keeps re-marking under churn.
pub struct Churner {
    /// Filled by `audit_setup`: per marked version, the expected detection.
    expected: Vec<(u64, Expected)>,
    name: &'static str,
    rng: Rng,
    window: usize,
    /// The last marked CSV the daemon returned.
    pub marked: String,
    /// Marked version ids, oldest first.
    pub versions: Vec<u64>,
}

impl Churner {
    /// Every marked version with what a detection of it must report.
    pub fn expectations(&self) -> &[(u64, Expected)] {
        &self.expected
    }
}

impl Churner {
    /// Seed the table: the first `update` embeds every segment.
    pub fn seed(
        ds: &Dataset,
        name: &'static str,
        rng: Rng,
        ep: &mut dyn Endpoint,
        rec: &mut Recorder,
    ) -> Result<Churner, String> {
        let rows = ds.rows;
        let seeded = rec.exchange(
            ep,
            "update",
            None,
            || update_request(name, &ds.mark, &ds.csv),
            |v| {
                check::ok(&v)?;
                let version = v.num_of("marked_version").ok_or("no marked_version")? as u64;
                let csv = take_str(v, "csv").ok_or("no csv")?;
                if csv.lines().count() != rows + 1 {
                    return Err("seeding update lost rows".into());
                }
                Ok((version, csv))
            },
        )?;
        let (version, marked) = seeded.ok_or("seeding update failed")?;
        Ok(Churner { expected: Vec::new(), name, rng, window: 0, marked, versions: vec![version] })
    }

    /// One churned `update` of the last marked CSV, in the next
    /// segment window.
    pub fn update(
        &mut self,
        ds: &Dataset,
        ep: &mut dyn Endpoint,
        rec: &mut Recorder,
        due: Option<Instant>,
    ) -> Result<bool, String> {
        let window = self.window;
        self.window = (self.window + 1) % ds.segments();
        let (name, rng, marked) = (self.name, &mut self.rng, &self.marked);
        let done = rec.exchange(
            ep,
            "update",
            due,
            || update_request(name, &ds.mark, &ds.churn(marked, window, rng)),
            |v| {
                check::update(&v, ds.rows)?;
                let version = v.num_of("marked_version").ok_or("no marked_version")? as u64;
                Ok((version, take_str(v, "csv").ok_or("no csv")?))
            },
        )?;
        Ok(match done {
            Some((version, csv)) => {
                self.marked = csv;
                self.versions.push(version);
                true
            }
            None => false,
        })
    }
}

/// `distribute`: update, fingerprint the next buyer, trace its leak.
pub struct Distribute {
    pub ds: Dataset,
    table: Churner,
    buyers: Vec<String>,
    /// The generator's own fingerprint session: it traces each leaked
    /// copy in-process to know the ranking the daemon must return.
    reference: FingerprintSession,
    round: usize,
}

impl Distribute {
    pub fn setup(
        ds: Dataset,
        seed: u64,
        ep: &mut dyn Endpoint,
        rec: &mut Recorder,
    ) -> Result<Distribute, String> {
        hello(ep, rec)?.ok_or("hello failed")?;
        let table = Churner::seed(&ds, "sales", Rng::new(seed, 2), ep, rec)?;
        let buyers: Vec<String> = (0..BUYERS).map(|b| format!("buyer-{b:02}")).collect();
        let base = read_csv_inferred(&ds.csv, &[ATTR]).map_err(|e| e.to_string())?;
        let mut reference = ds.session(&base)?.fingerprint();
        for buyer in &buyers {
            reference.register(buyer);
        }
        Ok(Distribute { ds, table, buyers, reference, round: 0 })
    }

    pub fn round(&mut self, ep: &mut dyn Endpoint, rec: &mut Recorder) -> Result<(), String> {
        let first = rec.latency.len();
        self.requests(ep, rec)?;
        rec.end_round(first);
        Ok(())
    }

    fn requests(&mut self, ep: &mut dyn Endpoint, rec: &mut Recorder) -> Result<(), String> {
        let buyer = self.buyers[self.round % BUYERS].clone();
        self.round += 1;
        if !self.table.update(&self.ds, ep, rec, None)? {
            return Ok(());
        }
        let marked = &self.table.marked;
        let delta = rec.exchange(
            ep,
            "mark_delta",
            None,
            || {
                Request::op("mark_delta")
                    .str("key", KEY)
                    .str("key_attr", KEY_ATTR)
                    .str("attr", ATTR)
                    .str("buyer", &buyer)
                    .str("csv", marked)
                    .finish()
            },
            |v| {
                check::mark_delta(&v)?;
                Ok(take_str(v, "delta").expect("checked"))
            },
        )?;
        let Some(delta) = delta else { return Ok(()) };
        let (buyers, reference) = (&self.buyers, &self.reference);
        let leaked = std::cell::RefCell::new(Err(String::new()));
        let ranking = rec.exchange(
            ep,
            "trace",
            None,
            || {
                *leaked.borrow_mut() = leaked_copy(marked, &delta);
                let csv = leaked.borrow().as_ref().map(render).unwrap_or_default();
                Request::op("trace")
                    .str("key", KEY)
                    .str("key_attr", KEY_ATTR)
                    .str("attr", ATTR)
                    .strs("buyers", buyers)
                    .str("csv", &csv)
                    .finish()
            },
            |v| {
                let leaked = leaked.replace(Err(String::new()));
                let leaked = leaked.map_err(|e| format!("rebuilding the leaked copy: {e}"))?;
                let want: Vec<(String, usize)> = reference
                    .trace(&leaked)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(|r| (r.buyer, r.detection.matched_bits))
                    .collect();
                check::trace(&v, &want)?;
                Ok(want)
            },
        )?;
        if let Some(ranking) = ranking {
            rec.ideal(ranking.first() == Some(&(buyer, WM_LEN)));
        }
        Ok(())
    }
}

/// The buyer's copy, rebuilt client-side from the base and its delta.
fn leaked_copy(base_csv: &str, delta_hex: &str) -> Result<Relation, String> {
    let base = read_csv_inferred(base_csv, &[ATTR]).map_err(|e| e.to_string())?;
    let blob = from_hex(delta_hex)?;
    let delta = MarkDelta::decode(&blob).map_err(|e| e.to_string())?;
    base.apply_delta(&delta).map_err(|e| e.to_string())
}

pub fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("odd-length hex".into());
    }
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).map_err(|e| e.to_string()))
        .collect()
}

/// `audit` set-up: the table with `AUDIT_VERSIONS` marked versions.
pub fn audit_setup(
    ds: &Dataset,
    seed: u64,
    ep: &mut dyn Endpoint,
    rec: &mut Recorder,
) -> Result<Churner, String> {
    hello(ep, rec)?.ok_or("hello failed")?;
    let mut table = Churner::seed(ds, "ledger", Rng::new(seed, 3), ep, rec)?;
    loop {
        let version = *table.versions.last().expect("seeded");
        table.expected.push((version, ds.expected(&table.marked, &ds.mark)?));
        if table.versions.len() == AUDIT_VERSIONS {
            return Ok(table);
        }
        if !table.update(ds, ep, rec, None)? {
            return Err("audit set-up update failed".into());
        }
    }
}

/// The `audit` reader: `detect_at` on a seeded-random version among
/// the set-up versions; every 8th with evidence, then verified.
pub struct AuditReader {
    rng: Rng,
    versions: Vec<(u64, Expected)>,
    mark: String,
    step: u64,
}

impl AuditReader {
    pub fn new(seed: u64, versions: &[(u64, Expected)], mark: &str) -> AuditReader {
        AuditReader {
            rng: Rng::new(seed, 4),
            versions: versions.to_vec(),
            mark: mark.into(),
            step: 0,
        }
    }

    pub fn step(&mut self, ep: &mut dyn Endpoint, rec: &mut Recorder) -> Result<(), String> {
        let first = rec.latency.len();
        self.requests(ep, rec)?;
        rec.end_round(first);
        Ok(())
    }

    fn requests(&mut self, ep: &mut dyn Endpoint, rec: &mut Recorder) -> Result<(), String> {
        self.step += 1;
        let (version, want) = &self.versions[self.rng.below(self.versions.len())];
        let evidence = self.step.is_multiple_of(EVIDENCE_EVERY);
        let mark = &self.mark;
        let op = if evidence { "detect_at_evidence" } else { "detect_at" };
        let bundle = rec.exchange(
            ep,
            op,
            None,
            || {
                let r = Request::op("detect_at")
                    .str("key", KEY)
                    .str("name", "ledger")
                    .str("key_attr", KEY_ATTR)
                    .str("attr", ATTR)
                    .num("version", *version)
                    .str("claim", mark);
                if evidence { r.bool("evidence", true) } else { r }.finish()
            },
            |v| {
                check::detect(&v, want, evidence)?;
                Ok(take_str(v, "evidence"))
            },
        )?;
        if bundle.is_some() {
            rec.ideal(want.mark == *mark);
        }
        if let Some(Some(bundle)) = bundle {
            rec.exchange(
                ep,
                "verify_evidence",
                None,
                || Request::op("verify_evidence").str("bundle", &bundle).finish(),
                |v| check::verify(&v, mark, want),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_service::{json as service_json, Service, ServiceConfig};

    /// In-process endpoint that logs every request it is sent.
    struct Logging {
        service: Service,
        bound: Option<String>,
        log: Vec<String>,
    }

    impl Endpoint for Logging {
        fn call(&mut self, _op: &'static str, request: &str) -> Result<String, String> {
            self.log.push(request.to_string());
            let parsed = service_json::parse(request)?;
            Ok(self.service.handle(&mut self.bound, &parsed).0.to_text())
        }
    }

    fn logging(ds: &Dataset) -> Logging {
        let mut service = Service::new(ServiceConfig::default());
        service
            .add_registry(TenantKeyRegistry::from_registry_file(&ds.registry()).unwrap())
            .unwrap();
        Logging { service, bound: None, log: Vec::new() }
    }

    fn distribute_stream(seed: u64) -> (Vec<String>, u64) {
        let ds = Dataset::new(2_100, seed);
        let mut ep = logging(&ds);
        let mut rec = Recorder::default();
        let mut d = Distribute::setup(ds, seed, &mut ep, &mut rec).unwrap();
        for _ in 0..4 {
            d.round(&mut ep, &mut rec).unwrap();
        }
        assert_eq!(rec.failed, 0, "{:?}", rec.first_error);
        (ep.log, rec.attempted)
    }

    fn audit_stream(seed: u64) -> Vec<String> {
        let ds = Dataset::new(3_000, seed);
        let mut ep = logging(&ds);
        let mut rec = Recorder::default();
        let table = audit_setup(&ds, seed, &mut ep, &mut rec).unwrap();
        let mut reader = AuditReader::new(seed, table.expectations(), &ds.mark);
        for _ in 0..2 * EVIDENCE_EVERY {
            reader.step(&mut ep, &mut rec).unwrap();
        }
        assert_eq!(rec.failed, 0, "{:?}", rec.first_error);
        ep.log
    }

    #[test]
    fn same_seed_gives_byte_identical_request_streams() {
        let (a, attempted) = distribute_stream(7);
        let (b, _) = distribute_stream(7);
        assert_eq!(attempted, 2 + 3 * 4);
        assert_eq!(a.len(), 2 + 3 * 4);
        assert!(a == b, "distribute streams differ");
        let (c, _) = distribute_stream(8);
        assert!(a != c, "another seed gives other inputs");
        assert!(audit_stream(11) == audit_stream(11), "audit streams differ");
    }

    #[test]
    fn churn_stays_inside_one_segment() {
        let ds = Dataset::new(3_000, 5);
        let mut rng = Rng::new(5, 9);
        let churned = ds.churn(&ds.csv, 1, &mut rng);
        let changed: Vec<usize> = ds
            .csv
            .lines()
            .zip(churned.lines())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i - 1)
            .collect();
        assert!(!changed.is_empty());
        assert!(changed.iter().all(|r| (SEGMENT_ROWS..2 * SEGMENT_ROWS).contains(r)));
        assert_eq!(churned.lines().count(), ds.csv.lines().count());
    }
}
