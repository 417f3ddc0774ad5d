//! `cli_court`: the engine through the `catmark` CLI, one child
//! process at a time — embed, decode with a claim, decode with
//! evidence, verify the evidence.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use catmark_datagen::{ItemScanConfig, SalesGenerator};

use crate::check;
use crate::workload::{ms, render, Recorder, Rng, ATTR, CLI_ROWS, KEY_ATTR};
use crate::{E, WM_LEN};

/// The four commands of one court round, in order.
pub const COMMANDS: [&str; 4] = ["embed", "decode", "decode_evidence", "verify_evidence"];

pub struct Court {
    catmark: PathBuf,
    dir: PathBuf,
    rng: Rng,
}

/// One finished CLI command.
pub struct Run {
    pub op: &'static str,
    pub wall_ms: f64,
}

impl Court {
    /// Set-up: write the seeded CSV file and generate its key with
    /// `catmark keygen`.
    pub fn setup(catmark: &Path, dir: &Path, seed: u64) -> Result<Court, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let gen =
            SalesGenerator::new(ItemScanConfig { tuples: CLI_ROWS, seed, ..Default::default() });
        let data = dir.join("data.csv");
        std::fs::write(&data, render(&gen.generate())).map_err(|e| e.to_string())?;
        let out = Command::new(catmark)
            .args(["keygen", "--master", &format!("perfbench-{seed}"), "--domain-from"])
            .arg(&data)
            .args(["--attr", ATTR, "--e", &E.to_string(), "--wm-len", &WM_LEN.to_string()])
            .args(["--tuples", &CLI_ROWS.to_string()])
            .output()
            .map_err(|e| format!("spawning keygen: {e}"))?;
        if !out.status.success() {
            return Err(format!("keygen failed: {}", String::from_utf8_lossy(&out.stderr)));
        }
        std::fs::write(dir.join("key.catmark"), &out.stdout).map_err(|e| e.to_string())?;
        Ok(Court { catmark: catmark.to_path_buf(), dir: dir.to_path_buf(), rng: Rng::new(seed, 5) })
    }

    pub fn path(&self, file: &str) -> String {
        self.dir.join(file).to_string_lossy().into_owned()
    }

    /// One round under a fresh seeded mark; every command is timed
    /// wall to wall and checked. Returns the runs and the mark.
    pub fn round(&mut self, rec: &mut Recorder) -> Result<(Vec<Run>, String), String> {
        let mark = self.rng.mark();
        let common = |input: &str| {
            vec![
                "--key".into(),
                self.path("key.catmark"),
                "--input".into(),
                self.path(input),
                "--key-attr".into(),
                KEY_ATTR.into(),
                "--attr".into(),
                ATTR.into(),
            ]
        };
        let mut embed = vec!["embed".to_string()];
        embed.extend(common("data.csv"));
        embed.extend(["--mark".into(), mark.clone(), "--output".into(), self.path("marked.csv")]);
        let mut decode = vec!["decode".to_string()];
        decode.extend(common("marked.csv"));
        decode.extend(["--claim".into(), mark.clone()]);
        let mut decode_ev = decode.clone();
        decode_ev.extend(["--evidence".into(), self.path("evidence.bin")]);
        let verify = vec!["verify-evidence".to_string(), self.path("evidence.bin")];

        let first = rec.latency.len();
        let mut runs = Vec::with_capacity(COMMANDS.len());
        for (op, args) in COMMANDS.into_iter().zip([embed, decode, decode_ev, verify]) {
            let t0 = Instant::now();
            let out = Command::new(&self.catmark)
                .args(&args)
                .output()
                .map_err(|e| format!("spawning catmark {op}: {e}"))?;
            let wall_ms = ms(t0.elapsed());
            let stdout = String::from_utf8_lossy(&out.stdout);
            let t1 = Instant::now();
            let checked = if !out.status.success() {
                Err(format!(
                    "catmark {op} exited {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ))
            } else {
                match op {
                    "embed" if stdout.starts_with(&format!("embedded {mark} into")) => Ok(()),
                    "embed" => Err(format!("unexpected embed output {stdout:?}")),
                    "decode" => check::cli_decode(&stdout, &mark),
                    "decode_evidence" => check::cli_decode(&stdout, &mark).and_then(|()| {
                        if stdout.contains("evidence ") {
                            Ok(())
                        } else {
                            Err("no evidence written".into())
                        }
                    }),
                    _ => check::cli_verify(&stdout, &mark),
                }
            };
            rec.client_ms.push(ms(t1.elapsed()));
            rec.latency.push((op, wall_ms));
            rec.tally(checked);
            runs.push(Run { op, wall_ms });
        }
        rec.end_round(first);
        Ok((runs, mark))
    }
}

/// `getrusage(RUSAGE_CHILDREN)`: user + system CPU ms of every
/// waited-for child, and the largest child's peak resident set in MB.
fn children_usage() -> (f64, f64) {
    // `struct rusage` on Linux: two timevals, then fourteen longs, the
    // first of which is ru_maxrss in KiB.
    #[repr(C)]
    struct RUsage {
        /// ru_utime, ru_stime: seconds and microseconds each.
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage { times: [0; 4], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, correctly sized `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return (0.0, 0.0);
    }
    let [us, uu, ss, su] = usage.times;
    let cpu_ms = (us + ss) as f64 * 1e3 + (uu + su) as f64 / 1e3;
    (cpu_ms, usage.maxrss as f64 / 1024.0)
}

/// Peak resident set of the largest waited-for child, in MB.
pub fn children_peak_rss_mb() -> f64 {
    children_usage().1
}

/// CPU time of every waited-for child so far, in ms.
pub fn children_cpu_ms() -> f64 {
    children_usage().0
}
