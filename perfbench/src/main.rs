//! The catmark benchmark: drives the real `catmark` binary — the
//! `catmark serve` daemon over its Unix socket and the CLI — through
//! three seeded workloads, checks every output, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced in-process replay (`--trace 1`) as the last line of stdout.
//!
//! ```text
//! perfbench --catmark <bin> --workload distribute|audit|cli_court
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics
//! and what each layer metric should move.

mod check;
mod cli;
mod daemon;
mod json;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use daemon::{Conn, Daemon};
use json::Value;
use workload::{Dataset, Endpoint, Recorder};

/// Fitness modulus: one tuple in `E` carries a mark bit.
pub const E: u64 = 60;
/// Watermark length in bits.
pub const WM_LEN: usize = 10;
/// Rows per segment of the daemon's versioned tables (its default
/// when `--segment-rows` is not given).
pub const SEGMENT_ROWS: usize = 1024;
/// Set-ups per untraced run; `setup_s` is their median. The `audit`
/// set-up commits eight 12,000-row versions and takes seconds; the
/// others take a fraction of a second and repeat more.
fn setup_repeats(workload: &str) -> usize {
    match workload {
        "audit" => 2,
        "distribute" => 5,
        _ => 7,
    }
}

#[derive(Clone)]
pub struct Args {
    pub catmark: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let num = |name: &str| get(name)?.parse::<u64>().map_err(|e| format!("--{name}: {e}"));
    let args = Args {
        catmark: PathBuf::from(get("catmark")?),
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace: num("trace")? != 0,
    };
    if !["distribute", "audit", "cli_court"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// The socket endpoint: the daemon over one framed connection.
struct Socket(Conn);

impl Endpoint for Socket {
    fn call(&mut self, _op: &'static str, request: &str) -> Result<String, String> {
        self.0.call(request).map_err(|e| format!("daemon connection: {e}"))
    }
}

/// What one measured phase produced.
pub struct Outcome {
    /// One recorder per connection or child-process stream, each in
    /// send order.
    pub recs: Vec<Recorder>,
    pub setup_s: Vec<f64>,
    pub measured: Duration,
    pub peak_rss_mb: f64,
    /// `cache_stats` of a final `hello` on the daemon.
    pub cache_stats: Option<Value>,
    /// Rounds completed per stream, for the traced replay.
    pub rounds: Vec<usize>,
    /// Whether the daemon shut down cleanly.
    pub clean_exit: Result<(), String>,
    /// CPU time the program (daemon threads, or `catmark` children)
    /// spent over the measured phase.
    pub cpu_ms: f64,
}

impl Outcome {
    pub fn merged(&self) -> Recorder {
        let mut all = Recorder::default();
        for rec in &self.recs {
            all.absorb(rec.clone());
        }
        all
    }
}

/// This process's scratch directory inside the checkout.
fn run_root() -> PathBuf {
    PathBuf::from(".bench_run").join(std::process::id().to_string())
}

fn run_dir(tag: &str) -> PathBuf {
    run_root().join(tag)
}

/// Spawn the daemon (in its own directory `dir<k>`) and run
/// `seed_table` on a fresh connection, `repeats` times; keep the last
/// daemon. Returns the set-up times.
fn socket_setups<T>(
    args: &Args,
    repeats: usize,
    registry: &str,
    dir: &str,
    mut seed_table: impl FnMut(&mut Socket) -> Result<T, String>,
) -> Result<(Vec<f64>, Daemon, Socket, T), String> {
    let mut times = Vec::new();
    for k in 0.. {
        let t0 = Instant::now();
        let daemon = Daemon::spawn(&args.catmark, &run_dir(&format!("{dir}{k}")), registry)?;
        let mut ep = Socket(daemon.connect()?);
        let state = seed_table(&mut ep)?;
        times.push(t0.elapsed().as_secs_f64());
        if k + 1 == repeats {
            return Ok((times, daemon, ep, state));
        }
        drop(ep);
        daemon.shutdown()?;
    }
    unreachable!("the loop returns on its last set-up")
}

/// Run `round` until `seconds` of measurement have passed. `extra`
/// further set-ups run at evenly spaced points of the run, so that
/// `setup_s` samples the host across the run and not only at its
/// start; the time they take is not measured. Returns the measured
/// time, the extra set-up times and the rounds run.
fn run_rounds(
    seconds: u64,
    extra: usize,
    mut setup: impl FnMut() -> Result<f64, String>,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<(Duration, Vec<f64>, usize), String> {
    let run = Duration::from_secs(seconds);
    let every = run / u32::try_from(extra + 1).expect("few set-ups");
    let start = Instant::now();
    let (mut paused, mut setups, mut rounds) = (Duration::ZERO, Vec::new(), 0);
    loop {
        let measured = start.elapsed() - paused;
        if measured >= run {
            return Ok((measured, setups, rounds));
        }
        if setups.len() < extra && measured >= every * (setups.len() as u32 + 1) {
            let t0 = Instant::now();
            setups.push(setup()?);
            paused += t0.elapsed();
        } else {
            round()?;
            rounds += 1;
        }
    }
}

/// A final `hello`: its `cache_stats` are the daemon's cache counters.
fn final_hello(ep: &mut Socket) -> Result<Value, String> {
    let resp = json::parse(&ep.call("hello", r#"{"op":"hello","tenant":"bench"}"#)?)?;
    check::ok(&resp)?;
    resp.get("cache_stats").cloned().ok_or_else(|| "hello carried no cache_stats".into())
}

fn distribute(args: &Args, repeats: usize) -> Result<Outcome, String> {
    let ds = Dataset::new(workload::DISTRIBUTE_ROWS, args.seed);
    let registry = ds.registry();
    let mut setup_rec = Recorder::default();
    let mut seed_table =
        |ep: &mut Socket| workload::Distribute::setup(ds.clone(), args.seed, ep, &mut setup_rec);
    let (mut setup_s, daemon, mut ep, mut d) =
        socket_setups(args, 1, &registry, "daemon", &mut seed_table)?;
    let mut rec = Recorder::default();
    let cpu_start = daemon.cpu_ms();
    let mut extra = 0;
    let (measured, extra_setups, rounds) = run_rounds(
        args.seconds,
        repeats - 1,
        || {
            extra += 1;
            let dir = format!("extra{extra}-");
            let (times, other, _, _) = socket_setups(args, 1, &registry, &dir, &mut seed_table)?;
            other.shutdown()?;
            Ok(times[0])
        },
        || d.round(&mut ep, &mut rec),
    )?;
    setup_s.extend(extra_setups);
    let cpu_ms = daemon.cpu_ms() - cpu_start;
    let cache_stats = Some(final_hello(&mut ep)?);
    let peak_rss_mb = daemon.peak_rss_mb()?;
    drop(ep);
    Ok(Outcome {
        recs: vec![rec],
        setup_s,
        measured,
        peak_rss_mb,
        cache_stats,
        rounds: vec![rounds],
        clean_exit: daemon.shutdown(),
        cpu_ms,
    })
}

fn audit(args: &Args, repeats: usize) -> Result<Outcome, String> {
    let ds = Dataset::new(workload::AUDIT_ROWS, args.seed);
    let registry = ds.registry();
    let mut setup_rec = Recorder::default();
    let (setup_s, daemon, mut writer_ep, mut table) =
        socket_setups(args, repeats, &registry, "daemon", |ep| {
            workload::audit_setup(&ds, args.seed, ep, &mut setup_rec)
        })?;
    let mut reader_ep = Socket(daemon.connect()?);
    workload::hello(&mut reader_ep, &mut setup_rec)?.ok_or("reader hello failed")?;
    let mut reader = workload::AuditReader::new(args.seed, table.expectations(), &ds.mark);
    let run = Duration::from_secs(args.seconds);
    // The reader sends the writer the instant each update falls due;
    // the writer times the update from then.
    let (due_tx, due_rx) = std::sync::mpsc::channel::<Instant>();
    let cpu_start = daemon.cpu_ms();
    let start = Instant::now();
    let (reader_out, writer_out) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<(Recorder, usize), String> {
            let mut rec = Recorder::default();
            let mut updates = 0;
            for due in due_rx {
                rec.lateness_ms.push(workload::ms(Instant::now() - due));
                table.update(&ds, &mut writer_ep, &mut rec, Some(due))?;
                updates += 1;
            }
            Ok((rec, updates))
        });
        let mut rec = Recorder::default();
        let mut steps = 0;
        let reader_out = (|| {
            while start.elapsed() < run {
                reader.step(&mut reader_ep, &mut rec)?;
                steps += 1;
                if steps % workload::WRITER_EVERY == 0 {
                    // A writer that failed has stopped receiving; its
                    // error is reported when it is joined.
                    let _ = due_tx.send(Instant::now());
                }
            }
            Ok::<_, String>((rec, steps))
        })();
        drop(due_tx);
        (reader_out, writer.join().expect("writer thread panicked"))
    });
    let (reader_rec, steps) = reader_out?;
    let (writer_rec, updates) = writer_out?;
    let measured = start.elapsed();
    let cpu_ms = daemon.cpu_ms() - cpu_start;
    let cache_stats = Some(final_hello(&mut reader_ep)?);
    let peak_rss_mb = daemon.peak_rss_mb()?;
    drop((reader_ep, writer_ep));
    Ok(Outcome {
        recs: vec![reader_rec, writer_rec],
        setup_s,
        measured,
        peak_rss_mb,
        cache_stats,
        rounds: vec![steps, updates],
        clean_exit: daemon.shutdown(),
        cpu_ms,
    })
}

fn cli_court(args: &Args, repeats: usize) -> Result<Outcome, String> {
    let mut setups = 0;
    // Set-up k: a fresh directory, the CSV file written, the key made.
    // Returns the court, its set-up time and the CPU its keygen used.
    let mut setup = || {
        let dir = run_dir(&format!("court{setups}"));
        setups += 1;
        let (t0, cpu0) = (Instant::now(), cli::children_cpu_ms());
        let court = cli::Court::setup(&args.catmark, &dir, args.seed)?;
        Ok::<_, String>((court, t0.elapsed().as_secs_f64(), cli::children_cpu_ms() - cpu0))
    };
    let (mut court, first_s, _) = setup()?;
    let mut rec = Recorder::default();
    let cpu_start = cli::children_cpu_ms();
    let mut setup_cpu = 0.0;
    let (measured, extra_setups, rounds) = run_rounds(
        args.seconds,
        repeats - 1,
        || {
            let (_, secs, cpu) = setup()?;
            setup_cpu += cpu;
            Ok(secs)
        },
        || court.round(&mut rec).map(drop),
    )?;
    let cpu_ms = cli::children_cpu_ms() - cpu_start - setup_cpu;
    let mut setup_s = vec![first_s];
    setup_s.extend(extra_setups);
    Ok(Outcome {
        recs: vec![rec],
        setup_s,
        measured,
        peak_rss_mb: cli::children_peak_rss_mb(),
        cache_stats: None,
        rounds: vec![rounds],
        clean_exit: Ok(()),
        cpu_ms,
    })
}

pub fn measure(args: &Args, repeats: usize) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "distribute" => distribute(args, repeats),
        "audit" => audit(args, repeats),
        _ => cli_court(args, repeats),
    }
}

/// Metrics in `BENCHMARK.json` order: name → (value, unit).
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The gated metrics. Latency quantiles are reported beside them (the
/// `ops` line) but not gated: on a shared host they move with the
/// host's speed more than the bounds allow (see README.md).
fn end_to_end(out: &Outcome, all: &Recorder) -> Result<Metrics, String> {
    let requests = all.latency.len();
    if requests == 0 {
        return Err("no request completed".into());
    }
    let setup_s = stats::median(&out.setup_s).ok_or("no set-up completed")?;
    Ok(vec![
        ("setup_s".into(), setup_s, "s"),
        ("throughput_rps".into(), requests as f64 / out.measured.as_secs_f64(), "1/s"),
        ("cpu_ms_per_request".into(), out.cpu_ms / requests as f64, "ms"),
        ("peak_rss_mb".into(), out.peak_rss_mb, "MB"),
    ])
}

/// Latency medians and tails with sample counts: over every request
/// (`all`), per closed-loop round (`round`), and per op.
fn op_summary(all: &Recorder) -> String {
    let mut ops: Vec<&str> = all.latency.iter().map(|l| l.0).collect();
    ops.sort_unstable();
    ops.dedup();
    let mut out = String::from("{");
    for (i, op) in ["all", "round"].into_iter().chain(ops).enumerate() {
        let s = match op {
            "all" => all.samples(None),
            "round" => all.round_ms.clone(),
            op => all.samples(Some(op)),
        };
        let p50 = stats::median(&s).unwrap_or(0.0);
        let p90 = stats::percentile(&s, 90.0).unwrap_or(0.0);
        let tail = stats::tail_percentile(s.len());
        let tail_ms = tail.and_then(|p| stats::percentile(&s, p));
        out.push_str(&format!(
            "{}\"{op}\":{{\"n\":{},\"p50_ms\":{p50},\"p90_ms\":{p90},\"tail_pct\":{},\"tail_ms\":{}}}",
            if i > 0 { "," } else { "" },
            s.len(),
            tail.map_or("null".into(), |p| p.to_string()),
            tail_ms.map_or("null".into(), |v| v.to_string()),
        ));
    }
    out.push('}');
    out
}

fn host_block(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_default();
    let target_cpu = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|s| {
            s.split("target-cpu=").nth(1).map(|r| r.split('"').next().unwrap_or("").to_string())
        })
        .unwrap_or_else(|| "default".into());
    let mut out = String::from("{\"host\":{");
    let mut kv = |k: &str, v: String| {
        if !out.ends_with('{') {
            out.push(',');
        }
        json::push_str_lit(&mut out, k);
        out.push(':');
        out.push_str(&v);
    };
    let lit = |s: &str| {
        let mut o = String::new();
        json::push_str_lit(&mut o, s);
        o
    };
    kv("nproc", nproc.to_string());
    kv("cpu", lit(&cpu));
    kv("sha256_backend", lit(catmark_crypto::Sha256Backend::active().name()));
    kv("CATMARK_SHA_BACKEND", lit(&std::env::var("CATMARK_SHA_BACKEND").unwrap_or_default()));
    kv("target_cpu", lit(&target_cpu));
    kv("RUSTFLAGS", lit(&std::env::var("RUSTFLAGS").unwrap_or_default()));
    kv("daemon_flags", lit(&format!("--workers {}", daemon::WORKERS)));
    kv("workload", lit(&args.workload));
    kv("seed", args.seed.to_string());
    kv("seconds", args.seconds.to_string());
    kv("trace", args.trace.to_string());
    kv(
        "rows",
        match args.workload.as_str() {
            "distribute" => workload::DISTRIBUTE_ROWS,
            "audit" => workload::AUDIT_ROWS,
            _ => workload::CLI_ROWS,
        }
        .to_string(),
    );
    kv("segment_rows", SEGMENT_ROWS.to_string());
    kv("spec", format!("{{\"e\":{E},\"wm_len\":{WM_LEN},\"expected_tuples\":\"rows\"}}"));
    kv("setup_repeats", if args.trace { 1 } else { setup_repeats(&args.workload) }.to_string());
    out.push_str("}}");
    out
}

fn result_line(correct: bool, all: &Recorder, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        all.attempted, all.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str_lit(&mut out, name);
        out.push_str(&format!(":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<String, String> {
    println!("{}", host_block(args));
    let (out, metrics) = if args.trace {
        let (out, metrics) = trace::run(args)?;
        (out, Ok(metrics))
    } else {
        let out = measure(args, setup_repeats(&args.workload))?;
        let metrics = end_to_end(&out, &out.merged());
        (out, metrics)
    };
    let all = out.merged();
    if let Err(e) = &out.clean_exit {
        eprintln!("perfbench: daemon did not exit cleanly: {e}");
    }
    if let Some(e) = &all.first_error {
        eprintln!("perfbench: first failed check: {e}");
    }
    let correct = all.failed == 0 && out.clean_exit.is_ok() && all.attempted > 0;
    println!(
        "{{\"ops\":{},\"rounds\":{:?},\"error_rate\":{},\"ideal\":[{},{}],\"setup_s\":{:?},\"gen_client_p50_ms\":{}}}",
        op_summary(&all),
        out.rounds,
        all.failed as f64 / all.attempted.max(1) as f64,
        all.ideal,
        all.ideal_of,
        out.setup_s,
        stats::median(&all.client_ms).unwrap_or(0.0),
    );
    Ok(result_line(correct, &all, &metrics?))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(&args.catmark).is_file() {
        eprintln!("perfbench: no catmark binary at {}", args.catmark.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args);
    let _ = std::fs::remove_dir_all(run_root());
    let _ = std::fs::remove_dir(".bench_run");
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
        spec.arr_of(section)
            .expect("metric list")
            .iter()
            .map(|m| (m.str_of("name").unwrap().to_string(), m.str_of("unit").unwrap().to_string()))
            .collect()
    }

    fn reported(metrics: Metrics) -> Vec<(String, String)> {
        metrics.into_iter().map(|(n, _, u)| (n, u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let rec = Recorder {
            latency: (0..100).map(|i| ("detect_at", f64::from(i))).collect(),
            round_ms: vec![1.0],
            ..Recorder::default()
        };
        let out = Outcome {
            recs: vec![rec],
            setup_s: vec![1.0],
            measured: Duration::from_secs(1),
            peak_rss_mb: 1.0,
            cache_stats: None,
            rounds: vec![1],
            clean_exit: Ok(()),
            cpu_ms: 1.0,
        };
        let e2e = end_to_end(&out, &out.merged()).unwrap();
        assert_eq!(reported(e2e), listed("end_to_end"));
        let layers: Vec<(String, String)> =
            trace::layer_metric_names().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(layers, listed("per_layer"));
    }
}
