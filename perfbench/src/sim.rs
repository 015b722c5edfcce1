//! The simulation workloads: det-paper, det-irregular and threads-paper.
//!
//! A workload is a list of cells — (kernel, shards, engine, scheme,
//! schedule seed) — run as rounds. Every round builds the programs and
//! runs each cell once as a job: engine construction, run, report. Each
//! call into a layer is timed from outside by a span.

use crate::calib::Calib;
use crate::layers::{Engine, LayerAcc};
use crate::spans::Recorder;
use crate::stats::{median, median_of_medians};
use crate::{cpu_timed, derive_seed, Outcome, Stopwatch, Tally, SETUP_PASSES};
use sk_core::{DetEngine, Engine as ThreadsEngine, RunOutcome, Scheme, SimReport, TargetConfig};
use sk_kernels::{irregular_suite, paper_suite, Scale, Workload};
use sk_obs::{Metrics, ObsConfig};
use sk_snap::fnv1a64;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// How a cell's timing counts toward the end-to-end metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// Counts toward `kips_cc`.
    Cc,
    /// Counts toward `kips_slack`.
    Slack,
    /// Counts toward `kips_seq`.
    Seq,
    /// A reference run: checked, and used for the error metrics, but
    /// not counted in any throughput.
    Reference,
}

#[derive(Clone, Debug)]
struct Cell {
    kernel: usize,
    shards: usize,
    engine: Engine,
    scheme: Scheme,
    seed: u64,
    class: Class,
}

impl Cell {
    fn label(&self, kernels: &[Workload]) -> String {
        let engine = match self.engine {
            Engine::Seq => "seq".to_string(),
            Engine::Det => format!("det:{:016x}", self.seed),
            Engine::Threads => "threads".to_string(),
        };
        format!(
            "{}/sh{}/{}/{}",
            kernels[self.kernel].name,
            self.shards,
            engine,
            self.scheme.short_name()
        )
    }
}

/// One of the simulation workloads.
pub struct SimWorkload {
    cfg: TargetConfig,
    build: fn() -> Vec<Workload>,
    cells: fn(u64, u64) -> Vec<Cell>,
    /// Distinct seed slots: round r runs slot r mod `slots`, and the
    /// error metrics cover rounds 0..slots, so they repeat exactly.
    slots: u64,
}

fn scheme(s: &str) -> Scheme {
    s.parse().expect("scheme names in this file parse")
}

fn det(kernel: usize, shards: usize, s: &str, seed: u64, class: Class) -> Cell {
    Cell { kernel, shards, engine: Engine::Det, scheme: scheme(s), seed, class }
}

fn unseeded(kernel: usize, engine: Engine, s: &str, class: Class) -> Cell {
    Cell { kernel, shards: 0, engine, scheme: scheme(s), seed: 0, class }
}

fn paper_cells(seed: u64, _slot: u64) -> Vec<Cell> {
    let mut v = Vec::new();
    for k in 0..4 {
        let d = |i: u64| derive_seed(seed, &[1, k as u64, i]);
        v.push(unseeded(k, Engine::Seq, "CC", Class::Seq));
        // Two schedule seeds for CC: the conservative scheme must not
        // depend on the schedule.
        v.push(det(k, 0, "CC", d(0), Class::Cc));
        v.push(det(k, 0, "CC", d(1), Class::Cc));
        v.push(det(k, 0, "S9", d(2), Class::Slack));
        v.push(det(k, 0, "S100", d(3), Class::Slack));
        v.push(det(k, 0, "SU", d(4), Class::Slack));
    }
    v
}

fn irregular_cells(seed: u64, slot: u64) -> Vec<Cell> {
    let mut v = Vec::new();
    for k in 0..4 {
        v.push(unseeded(k, Engine::Seq, "CC", Class::Seq));
        for sh in [0, 2] {
            let d = |i: u64| derive_seed(seed, &[2, slot, k as u64, sh as u64, i]);
            v.push(det(k, sh, "CC", d(0), Class::Cc));
            v.push(det(k, sh, "S9", d(1), Class::Slack));
            v.push(det(k, sh, "SU", d(2), Class::Slack));
        }
    }
    v
}

fn threads_cells(seed: u64, slot: u64) -> Vec<Cell> {
    let mut v = Vec::new();
    for k in 0..4 {
        let d = |i: u64| derive_seed(seed, &[3, slot, k as u64, i]);
        v.push(unseeded(k, Engine::Seq, "CC", Class::Seq));
        // Det references: the third CC backend for the fingerprint check,
        // and the schedule-fixed error (the threaded error follows host
        // timing and is only printed in the table).
        v.push(det(k, 0, "CC", d(0), Class::Reference));
        v.push(det(k, 0, "S9", d(1), Class::Reference));
        v.push(det(k, 0, "SU", d(2), Class::Reference));
        v.push(unseeded(k, Engine::Threads, "CC", Class::Cc));
        v.push(unseeded(k, Engine::Threads, "S9", Class::Slack));
        v.push(unseeded(k, Engine::Threads, "SU", Class::Slack));
    }
    v
}

/// The simulation workload named `name`.
pub fn workload(name: &str) -> Option<SimWorkload> {
    let w = match name {
        "det-paper" => SimWorkload {
            cfg: TargetConfig::paper_8core(),
            build: || paper_suite(8, Scale::Bench),
            cells: paper_cells,
            slots: 1,
        },
        "det-irregular" => SimWorkload {
            cfg: TargetConfig::small(8),
            build: || irregular_suite(8, Scale::Full),
            cells: irregular_cells,
            slots: 3,
        },
        // Threaded CC costs host time per simulated cycle, and far more
        // when the host steals CPU from its 9 threads: test-scale inputs
        // keep a round short, so a run takes many rounds in its time.
        "threads-paper" => SimWorkload {
            cfg: TargetConfig::paper_8core(),
            build: || paper_suite(8, Scale::Test),
            cells: threads_cells,
            slots: 4,
        },
        _ => return None,
    };
    Some(w)
}

/// What one simulation job produced. Host time is CPU time: the calling
/// thread's for the single-threaded engines (seq, det), the whole
/// process's for the threaded engine.
pub struct Ran {
    /// Host seconds in the run call alone.
    pub run_s: f64,
    /// Host seconds from engine construction to fingerprinted report.
    pub latency_s: f64,
    pub committed: u64,
    pub exec_cycles: u64,
    /// FNV-1a of the report's simulated-state fingerprint.
    pub fingerprint: u64,
    /// The same with every core's `idle_cycles` zeroed: the sequential
    /// engine counts the cycles before a spawned thread starts, and the
    /// parallel engines do not.
    pub fingerprint_busy: u64,
    /// Threaded runs: host seconds in the run call in wall time less steal
    /// (0 for the other engines).
    pub wall_s: f64,
}

/// One finished job of a round.
struct Rec {
    label: String,
    cell: Cell,
    ran: Ran,
    /// Scales the job's host times to reference-host seconds.
    scale: f64,
}

/// Run one simulation as a job: construct the engine, run it, take its
/// report, and check the printed output against the workload's
/// expected values. With `traced`, an sk-obs hub is attached and the
/// run's layer counts go into `acc`.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    rec: &mut Recorder,
    w: &Workload,
    cfg: &TargetConfig,
    engine: Engine,
    scheme: Scheme,
    seed: u64,
    traced: bool,
    acc: &mut LayerAcc,
) -> Result<Ran, String> {
    let obs_cfg = ObsConfig { trace_capacity: 0, ..ObsConfig::default() };
    let stopwatch = || match engine {
        Engine::Threads => Stopwatch::process(),
        _ => Stopwatch::thread(),
    };
    let t0 = stopwatch();
    let (mut run_s, mut wall_s) = (0.0, 0.0);
    let (report, wall_run_s, hub, picks, fingerprint) = rec.span("sim", |rec| {
        let mut timed = |rec: &mut Recorder, name, f: &mut dyn FnMut()| {
            let wall = (engine == Engine::Threads).then(Stopwatch::wall);
            let t = stopwatch();
            rec.span(name, |_| f());
            run_s = t.secs();
            wall_s = wall.map_or(0.0, |w| w.secs());
            rec.last_secs(name)
        };
        let (report, wall_run_s, hub, picks): (SimReport, f64, Option<Arc<Metrics>>, u64) =
            match engine {
                Engine::Seq => {
                    let mut report = None;
                    let wall = timed(rec, "seq.run", &mut || {
                        report = Some(sk_core::run_sequential(&w.program, cfg))
                    });
                    (report.expect("the run closure ran"), wall, None, 0)
                }
                Engine::Det => {
                    let mut eng =
                        rec.span("engine.new", |_| DetEngine::new(&w.program, scheme, cfg, seed));
                    let hub = traced.then(|| eng.engine_mut().attach_new_metrics(obs_cfg));
                    let mut outcome = RunOutcome::Cancelled;
                    let wall = timed(rec, "det.run", &mut || outcome = eng.run());
                    if outcome != RunOutcome::Finished {
                        return Err(format!("det run ended {outcome:?}"));
                    }
                    let picks = eng.picks();
                    (rec.span("report", |_| eng.into_report()), wall, hub, picks)
                }
                Engine::Threads => {
                    let mut eng =
                        rec.span("engine.new", |_| ThreadsEngine::new(&w.program, scheme, cfg));
                    let hub = traced.then(|| eng.attach_new_metrics(obs_cfg));
                    let mut outcome = RunOutcome::Cancelled;
                    let wall = timed(rec, "threads.run", &mut || outcome = eng.run_until(None));
                    if outcome != RunOutcome::Finished {
                        return Err(format!("threaded run ended {outcome:?}"));
                    }
                    (rec.span("report", |_| eng.into_report()), wall, hub, 0)
                }
            };
        let fingerprint = rec.span("report", |_| {
            let mut busy = report.clone();
            busy.cores.iter_mut().for_each(|c| c.idle_cycles = 0);
            (fnv1a64(report.fingerprint().as_bytes()), fnv1a64(busy.fingerprint().as_bytes()))
        });
        Ok((report, wall_run_s, hub, picks, fingerprint))
    })?;
    let latency_s = t0.secs();
    let printed: Vec<i64> = report.printed().into_iter().map(|(_, v)| v).collect();
    if printed != w.expected {
        return Err(format!("printed {printed:?}, expected {:?}", w.expected));
    }
    if traced {
        acc.add(engine, &report, wall_run_s * 1e9, hub.as_deref(), picks);
    }
    Ok(Ran {
        run_s,
        latency_s,
        committed: report.total_committed(),
        exec_cycles: report.exec_cycles,
        fingerprint: fingerprint.0,
        fingerprint_busy: fingerprint.1,
        wall_s,
    })
}

/// Run one round: build the programs, then every cell of `slot`.
#[allow(clippy::too_many_arguments)]
fn round(
    w: &SimWorkload,
    seed: u64,
    slot: u64,
    traced: bool,
    rec: &mut Recorder,
    cal: &mut Calib,
    acc: &mut LayerAcc,
    tally: &mut Tally,
) -> Vec<Rec> {
    rec.span("round", |rec| {
        let kernels = rec.span("kernels.build", |_| (w.build)());
        let mut out = Vec::new();
        let mut before = Vec::new();
        for (i, cell) in (w.cells)(seed, slot).iter().enumerate() {
            rec.set_run(slot << 32 | i as u64);
            let b = cal.sample();
            let label = cell.label(&kernels);
            let cfg = TargetConfig { mem_shards: cell.shards, ..w.cfg };
            let r = catch_unwind(AssertUnwindSafe(|| {
                execute(
                    rec,
                    &kernels[cell.kernel],
                    &cfg,
                    cell.engine,
                    cell.scheme,
                    cell.seed,
                    traced,
                    acc,
                )
            }));
            match r {
                Ok(Ok(ran)) => {
                    tally.pass();
                    before.push(b);
                    out.push(Rec { label, cell: cell.clone(), ran, scale: 1.0 });
                }
                Ok(Err(e)) => tally.fail(format!("{label}: {e}")),
                Err(_) => tally.fail(format!("{label}: panicked")),
            }
        }
        cal.sample();
        for (r, b) in out.iter_mut().zip(before) {
            r.scale = cal.scale(b);
        }
        check_cc(&out, tally);
        out
    })
}

/// Every CC run of a kernel — det under any seed, threads, with or
/// without shards — must simulate exactly the same thing. Two known
/// defects of the seed code are tolerated and counted:
/// - `seq_idle_only`: the sequential engine alone counts the cycles
///   before a spawned thread starts, so it must match with every core's
///   `idle_cycles` zeroed;
/// - `cc_drift`: a threaded run whose per-core counters differ at the
///   same simulated time and instruction count (its sync-wait accounting
///   depends on host timing).
fn check_cc(recs: &[Rec], tally: &mut Tally) {
    let mut by_kernel: BTreeMap<usize, Vec<&Rec>> = BTreeMap::new();
    for r in recs.iter().filter(|r| r.cell.scheme == Scheme::CycleByCycle) {
        by_kernel.entry(r.cell.kernel).or_default().push(r);
    }
    for runs in by_kernel.values() {
        let Some(base) = runs.iter().find(|r| r.cell.engine == Engine::Det) else { continue };
        for r in runs.iter().filter(|r| !std::ptr::eq(**r, *base)) {
            let (a, b) = (&r.ran, &base.ran);
            match r.cell.engine {
                _ if a.fingerprint == b.fingerprint => tally.pass(),
                Engine::Seq if a.fingerprint_busy == b.fingerprint_busy => {
                    tally.known("seq_idle_only")
                }
                Engine::Threads if (a.exec_cycles, a.committed) == (b.exec_cycles, b.committed) => {
                    tally.known("cc_drift")
                }
                _ => tally.fail(format!("CC run {} differs from {}", r.label, base.label)),
            }
        }
    }
}

/// Mean |exec(scheme) − exec(CC)| / exec(CC), percent, over the engine's
/// runs of `scheme`; `None` when the workload has no such run.
fn error_pct(recs: &[&Rec], engine: Engine, scheme: Scheme) -> Option<f64> {
    let cc: BTreeMap<usize, u64> = recs
        .iter()
        .filter(|r| r.cell.scheme == Scheme::CycleByCycle)
        .map(|r| (r.cell.kernel, r.ran.exec_cycles))
        .collect();
    let errs: Vec<f64> = recs
        .iter()
        .filter(|r| r.cell.engine == engine && r.cell.scheme == scheme)
        .filter_map(|r| {
            let base = *cc.get(&r.cell.kernel)? as f64;
            Some(100.0 * (r.ran.exec_cycles as f64 - base).abs() / base)
        })
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Set up `SETUP_PASSES` times: build the programs and construct one
/// engine per distinct engine cell. Returns medians of (pass, build, new),
/// in calibrated CPU seconds of the calling thread.
fn setup(w: &SimWorkload, seed: u64, rec: &mut Recorder, cal: &mut Calib) -> (f64, f64, f64) {
    let mut passes = Vec::new();
    let cells = (w.cells)(seed, 0);
    for p in 0..SETUP_PASSES {
        rec.set_run(u64::MAX - p as u64);
        let b = cal.sample();
        let (mut build_s, mut new_s) = (0.0, 0.0);
        let ((), pass_s) = cpu_timed(|| {
            rec.span("setup", |rec| {
                let kernels;
                (kernels, build_s) = rec.span("kernels.build", |_| cpu_timed(w.build));
                let mut seen = Vec::new();
                for c in cells.iter().filter(|c| c.engine != Engine::Seq) {
                    let key = (c.kernel, c.shards, c.engine, c.scheme);
                    if seen.contains(&key) {
                        continue;
                    }
                    seen.push(key);
                    let cfg = TargetConfig { mem_shards: c.shards, ..w.cfg };
                    let program = &kernels[c.kernel].program;
                    let ((), s) = rec.span("engine.new", |_| {
                        cpu_timed(|| match c.engine {
                            Engine::Det => drop(DetEngine::new(program, c.scheme, &cfg, c.seed)),
                            _ => drop(ThreadsEngine::new(program, c.scheme, &cfg)),
                        })
                    });
                    new_s += s;
                }
            })
        });
        passes.push((b, [pass_s, build_s, new_s]));
    }
    crate::setup_medians(cal, &passes)
}

/// Each distinct cell of `recs` that `pick` selects, with its committed
/// count and its median over rounds of the calibrated host time `time`
/// gives.
fn per_cell(
    recs: &[&Rec],
    pick: impl Fn(&Rec) -> bool,
    time: impl Fn(&Ran) -> f64,
) -> Vec<(u64, f64)> {
    let mut cells: BTreeMap<&str, (u64, Vec<f64>)> = BTreeMap::new();
    for r in recs.iter().filter(|r| pick(r)) {
        let e = cells.entry(&r.label).or_insert((r.ran.committed, Vec::new()));
        e.1.push(time(&r.ran) * r.scale);
    }
    cells.values().map(|(n, secs)| (*n, median(secs))).collect()
}

/// KIPS over the cells of `class`: each distinct cell contributes its
/// committed count and its median run time.
fn kips(recs: &[&Rec], class: Class) -> f64 {
    crate::kips(per_cell(recs, |r| r.cell.class == class, |ran| ran.run_s).into_iter())
}

/// Run `w` for `seconds` (at least `slots` rounds) and measure it.
pub fn run(w: &SimWorkload, seed: u64, seconds: f64, trace: bool, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let mut cal = Calib::default();
    let (setup_s, build_s, new_s) = setup(w, seed, rec, &mut cal);

    // Untraced rounds give the end-to-end metrics and, when tracing, the
    // baseline for the tracing overhead.
    let mut acc = LayerAcc::default();
    let mut rounds: Vec<Vec<Rec>> = Vec::new();
    let start = Instant::now();
    // Start another round only while it should end within `seconds`.
    let mut last = 0.0;
    while (rounds.len() as u64) < w.slots
        || (!trace && start.elapsed().as_secs_f64() + last <= seconds)
    {
        let slot = rounds.len() as u64 % w.slots;
        let t = Instant::now();
        rounds.push(round(w, seed, slot, false, rec, &mut cal, &mut acc, &mut out.tally));
        last = t.elapsed().as_secs_f64();
    }
    let (seeded, repeats) = rounds.split_at(w.slots as usize);
    let seeded: Vec<&Rec> = seeded.iter().flatten().collect();

    // A later round with the same seed slot must simulate the same thing.
    let first: BTreeMap<&str, u64> =
        seeded.iter().map(|r| (r.label.as_str(), r.ran.fingerprint)).collect();
    for r in repeats.iter().flatten().filter(|r| r.cell.engine != Engine::Threads) {
        if first.get(r.label.as_str()) == Some(&r.ran.fingerprint) {
            out.tally.pass();
        } else {
            out.tally.fail(format!("{} did not repeat its seed's outcome", r.label));
        }
    }

    for (name, engine, s) in [
        ("error_s9_pct", Engine::Det, "S9"),
        ("error_su_pct", Engine::Det, "SU"),
        ("error_s100_pct", Engine::Det, "S100"),
        ("thr_error_s9_pct", Engine::Threads, "S9"),
        ("thr_error_su_pct", Engine::Threads, "SU"),
    ] {
        if let Some(e) = error_pct(&seeded, engine, scheme(s)) {
            out.table.insert(name, e);
        }
    }
    if trace {
        let untraced_s: f64 = seeded.iter().map(|r| r.ran.latency_s).sum();
        let mut traced = Recorder::new(rec.epoch());
        let mut traced_s = 0.0;
        for slot in 0..w.slots {
            let recs = round(w, seed, slot, true, &mut traced, &mut cal, &mut acc, &mut out.tally);
            traced_s += recs.iter().map(|r| r.ran.latency_s).sum::<f64>();
        }
        out.metrics.extend(acc.finish());
        out.metrics.insert("kernels.build_s", build_s);
        out.metrics.insert("engine.new_s", new_s);
        out.metrics.insert("trace.overhead_frac", traced_s / untraced_s - 1.0);
        out.metrics.extend(crate::span_fractions(&traced));
        out.metrics.extend(crate::serve_layers_idle());
        rec.absorb(traced);
    } else {
        let all: Vec<&Rec> = rounds.iter().flatten().collect();
        let lat_ms: Vec<f64> = all.iter().map(|r| r.ran.latency_s * 1e3).collect();
        out.metrics.insert("kips_cc", kips(&all, Class::Cc));
        out.metrics.insert("kips_slack", kips(&all, Class::Slack));
        out.metrics.insert("kips_seq", kips(&all, Class::Seq));
        out.metrics.insert("error_su_pct", out.table.remove("error_su_pct").unwrap_or(0.0));
        out.metrics.insert("setup_s", setup_s);
        let jobs = per_cell(&all, |_| true, |ran| ran.latency_s);
        let job_s: f64 = jobs.iter().map(|j| j.1).sum();
        out.metrics.insert("jobs_per_s", jobs.len() as f64 / job_s);
        out.table.insert(
            "job_p50_ms",
            median_of_medians(all.iter().map(|r| (r.label.as_str(), r.ran.latency_s * 1e3))),
        );
        out.table.insert("rounds", rounds.len() as f64);
        out.table.insert("calib_ms", cal.median_s() * 1e3);
        // The threaded engine in wall time less steal, which counts its
        // threads' waiting but moved by a third under heavy steal.
        for (name, class) in [("wall_kips_cc", Class::Cc), ("wall_kips_slack", Class::Slack)] {
            let threads = |r: &Rec| r.cell.class == class && r.cell.engine == Engine::Threads;
            let cells = per_cell(&all, threads, |ran| ran.wall_s);
            if !cells.is_empty() {
                out.table.insert(name, crate::kips(cells.into_iter()));
            }
        }
        crate::insert_latency(&mut out.table, &lat_ms);
    }
    out
}
