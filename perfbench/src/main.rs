//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload det-paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. It runs one workload for about
//! `--seconds` seconds, checks every output, prints a table of every
//! metric by name and unit, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end set of `BENCHMARK.json`;
//! with `--trace 1` an sk-obs hub is attached and the metrics are the
//! per-layer set. Spans are written to `perfbench/out/`. Any failed check
//! exits non-zero.

mod calib;
mod layers;
mod metrics;
mod serve;
mod sim;
mod spans;
mod stats;

use spans::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up passes whose median is reported as `setup_s`.
pub const SETUP_PASSES: usize = 21;

/// A run that has not finished by now has hung: report it and exit.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Pass/fail counts over every checked operation, and counts of the
/// known seed-code defects a check tolerates instead of failing.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub known: BTreeMap<&'static str, u64>,
}

impl Tally {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failures.push(why);
    }

    /// A passing check that met the known defect `what`.
    pub fn known(&mut self, what: &'static str) {
        self.pass();
        *self.known.entry(what).or_default() += 1;
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        for (k, n) in other.known {
            *self.known.entry(k).or_default() += n;
        }
    }
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// The metrics of this mode's registry.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra figures, printed in the table only.
    pub table: BTreeMap<&'static str, f64>,
}

/// CPU time of `clock`, seconds.
fn cpu_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the whole call, laid
    // out as the 64-bit Linux ABI defines it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are supported on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time of the calling thread, seconds. Unlike wall time it leaves
/// out time the thread waited for a CPU, including time the hypervisor
/// stole from the VM, so simulations time steadily on a shared host.
pub fn thread_cpu_s() -> f64 {
    cpu_s(3) // CLOCK_THREAD_CPUTIME_ID
}

/// A host-time stopwatch: CPU time of the calling thread or of the whole
/// process, which leaves out time the hypervisor stole from the VM, or
/// wall time less steal, which also counts time threads spend waiting.
pub enum Stopwatch {
    Thread(f64),
    Process(f64),
    Wall(Instant, Vec<(u64, u64)>),
}

impl Stopwatch {
    pub fn thread() -> Stopwatch {
        Stopwatch::Thread(thread_cpu_s())
    }

    pub fn process() -> Stopwatch {
        Stopwatch::Process(cpu_s(2)) // CLOCK_PROCESS_CPUTIME_ID
    }

    pub fn wall() -> Stopwatch {
        Stopwatch::Wall(Instant::now(), cpu_ticks())
    }

    /// Host seconds since the start. Wall time is scaled by the share of
    /// time every CPU of the VM ran: the threaded engine stalls while any
    /// of its threads is descheduled, so a steal on any CPU stalls it.
    pub fn secs(&self) -> f64 {
        match self {
            Stopwatch::Thread(t) => thread_cpu_s() - t,
            Stopwatch::Process(t) => cpu_s(2) - t,
            Stopwatch::Wall(t, ticks) => {
                let running: f64 = ticks
                    .iter()
                    .zip(cpu_ticks())
                    .map(|(a, b)| 1.0 - (b.0 - a.0) as f64 / (b.1 - a.1).max(1) as f64)
                    .product();
                t.elapsed().as_secs_f64() * running
            }
        }
    }
}

/// Run `f`, returning its result and the calling thread's CPU seconds.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Stopwatch::thread();
    let out = f();
    (out, t.secs())
}

/// (stolen, total) ticks of each CPU of this VM since boot, from
/// `/proc/stat` (empty where it is unreadable).
pub fn cpu_ticks() -> Vec<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .map(|l| {
            let fields: Vec<u64> =
                l.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
            (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
        })
        .collect()
}

/// The share of the VM's CPU time stolen between two [`cpu_ticks`].
pub fn steal_frac(from: &[(u64, u64)], to: &[(u64, u64)]) -> f64 {
    let (mut stolen, mut total) = (0, 0);
    for (a, b) in from.iter().zip(to) {
        stolen += b.0 - a.0;
        total += b.1 - a.1;
    }
    stolen as f64 / total.max(1) as f64
}

/// Thousands of committed instructions per host second over runs given
/// as (committed, seconds); 0 when no time was spent.
pub fn kips(runs: impl Iterator<Item = (u64, f64)>) -> f64 {
    let (instr, secs) = runs.fold((0, 0.0), |(i, s), (n, t)| (i + n, s + t));
    if secs > 0.0 {
        instr as f64 / 1000.0 / secs
    } else {
        0.0
    }
}

/// Medians over set-up passes of (pass, build, new), scaled by the
/// calibration samples around each pass. A pass is given as the index of
/// the sample before it and its CPU seconds.
pub fn setup_medians(cal: &mut calib::Calib, passes: &[(usize, [f64; 3])]) -> (f64, f64, f64) {
    cal.sample();
    let col = |k: usize| {
        stats::median(&passes.iter().map(|(b, t)| t[k] * cal.scale(*b)).collect::<Vec<_>>())
    };
    (col(0), col(1), col(2))
}

/// A schedule or stream seed derived from the benchmark seed and a path
/// of tags (SplitMix64 over each tag in turn).
pub fn derive_seed(seed: u64, tags: &[u64]) -> u64 {
    tags.iter().fold(seed, |s, &t| {
        sk_det::SplitMix64::new(s ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
    })
}

/// Self time of the simulator-call spans as shares of the recorder's
/// root time.
pub fn span_fractions(rec: &Recorder) -> BTreeMap<&'static str, f64> {
    let self_ns = rec.self_ns();
    let root = rec.root_ns().max(1) as f64;
    let share = |names: &[&str]| {
        names.iter().map(|n| self_ns.get(n).copied().unwrap_or(0)).sum::<u64>() as f64 / root
    };
    BTreeMap::from([
        ("span.build_frac", share(&["kernels.build"])),
        ("span.engine_new_frac", share(&["engine.new"])),
        ("span.seq_run_frac", share(&["seq.run"])),
        ("span.det_run_frac", share(&["det.run"])),
        ("span.threads_run_frac", share(&["threads.run"])),
        ("span.report_frac", share(&["report"])),
        ("span.parse_frac", share(&["json.parse", "scenario.parse"])),
    ])
}

/// The serve layer's metrics on a workload that never reaches it.
pub fn serve_layers_idle() -> BTreeMap<&'static str, f64> {
    [
        "serve.post_frac",
        "serve.polls_per_job",
        "serve.cache_hit_ratio",
        "serve.warm_cold_ratio",
        "serve.queue_depth_p50",
        "serve.status_bytes",
    ]
    .into_iter()
    .map(|n| (n, 0.0))
    .collect()
}

/// Put the job latency quartiles in the table, and `job_p90_ms` when
/// enough jobs ran for it to have ten beyond it.
pub fn insert_latency(table: &mut BTreeMap<&'static str, f64>, lat_ms: &[f64]) {
    if let Some([q1, _, q3]) = stats::quartiles(lat_ms) {
        table.insert("job_q1_ms", q1);
        table.insert("job_q3_ms", q3);
    }
    if stats::reportable(lat_ms.len(), 90.0) {
        table.insert("job_p90_ms", stats::percentile(lat_ms, 90.0));
    }
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

fn result_line(
    correct: bool,
    tally: &Tally,
    metrics: &BTreeMap<&'static str, f64>,
    trace: bool,
) -> String {
    let units: BTreeMap<&str, &str> =
        metrics::registry(trace).iter().map(|d| (d.name, d.unit)).collect();
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.attempted.max(1),
        tally.failures.len()
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let unit = units.get(name).copied().unwrap_or("");
        let _ = write!(out, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // The manifest and the metrics printed must agree before any run.
    let manifest = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: run from the repository root: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = metrics::check_manifest(&manifest) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let sim_workload = sim::workload(&args.workload);
    if sim_workload.is_none() && args.workload != serve::NAME {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }

    let trace = args.trace;
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        let mut t = Tally::default();
        t.fail(format!("run exceeded {WATCHDOG:?}"));
        println!("{}", result_line(false, &t, &BTreeMap::new(), trace));
        std::process::exit(3);
    });

    let epoch = Instant::now();
    let ticks0 = cpu_ticks();
    let mut rec = Recorder::new(epoch);
    let mut out = match &sim_workload {
        Some(w) => sim::run(w, args.seed, args.seconds, args.trace, &mut rec),
        None => serve::run(args.seed, args.seconds, args.trace, &mut rec),
    };
    if !args.trace {
        out.metrics.insert("peak_rss_mb", peak_rss_mb());
    }
    out.table.insert("host_steal_frac", steal_frac(&ticks0, &cpu_ticks()));
    for (what, n) in &out.tally.known {
        out.table.insert(what, *n as f64);
    }
    if let Err(e) = metrics::check_printed(args.trace, &out.metrics) {
        out.tally.fail(e);
    }
    out.table
        .insert("fail_frac", out.tally.failures.len() as f64 / out.tally.attempted.max(1) as f64);

    println!(
        "workload {} seed {} trace {} wall_s {:.3}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        epoch.elapsed().as_secs_f64()
    );
    for d in metrics::registry(args.trace) {
        let v = out.metrics.get(d.name).map_or("missing".into(), |v| format!("{v:.6}"));
        println!("  {:<28} {:>18} {:<12} {}", d.name, v, d.unit, d.doc);
    }
    for (name, unit) in metrics::TABLE_ONLY {
        let v = out.table.get(name).map_or("n/a".into(), |v| format!("{v:.6}"));
        println!("  {:<28} {:>18} {} (table only)", name, v, unit);
    }
    for (name, v) in
        out.table.iter().filter(|(n, _)| !metrics::TABLE_ONLY.iter().any(|t| t.0 == **n))
    {
        println!("  {name:<28} {v:>18.6}");
    }
    // Failures go to standard error, where a harness that keeps only the
    // error stream still sees why a run failed.
    for f in &out.tally.failures {
        eprintln!("perfbench: FAILED: {f}");
    }

    let spans_path = format!(
        "perfbench/out/spans-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let doc = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},{}",
        args.workload,
        args.seed,
        args.trace,
        &rec.to_json()[1..]
    );
    if let Err(e) =
        std::fs::create_dir_all("perfbench/out").and_then(|_| std::fs::write(&spans_path, doc))
    {
        eprintln!("perfbench: could not write {spans_path}: {e}");
    }

    let correct = out.tally.failures.is_empty();
    println!("{}", result_line(correct, &out.tally, &out.metrics, args.trace));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
