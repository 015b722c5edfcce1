//! serve-mixed: sk-serve's job pipeline, in process, driven as a closed
//! loop by two clients.
//!
//! The pipeline is the server's own, called through its public API:
//! request parsing (`json::parse`, `JobSpec::from_json`), admission to the
//! `JobQueue`, worker threads that pop job ids and run them with
//! `worker::run_job` against a shared `SnapCache`, and the `Job::to_json`
//! status document each poll encodes. Only the HTTP transport is left
//! out: the benchmark has to run where loopback TCP is unavailable, and
//! there `Server::shutdown`, which wakes its accept loop by connecting to
//! itself, never returns.
//!
//! A seeded stream draws each request from a small pool that mixes
//! flag-JSON bodies with `{"scenario": …}` bodies built from the
//! committed `scenarios/*.skn`. The first sight of a cache key runs cold;
//! repeats fork warm from the cached snapshot. Every job's CC fingerprint
//! is checked against a local det reference of the same spec.

use crate::calib::Calib;
use crate::layers::{Engine, LayerAcc};
use crate::sim::execute;
use crate::spans::Recorder;
use crate::stats::{median, median_of_medians};
use crate::{cpu_timed, derive_seed, kips, Outcome, Stopwatch, Tally, SETUP_PASSES};
use sk_core::{Engine as ThreadsEngine, Scheme};
use sk_det::SplitMix64;
use sk_kernels::Workload;
use sk_obs::ServeObs;
use sk_scenario::Scenario;
use sk_serve::json::{self, escape, Json};
use sk_serve::worker::run_job;
use sk_serve::{Admission, Job, JobQueue, JobSpec, JobState, ServerConfig, SnapCache};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve-mixed";

/// Clients, each a closed loop of one job at a time.
const CLIENTS: u64 = 2;
/// Closed-loop segments; the timed references run again after each, so
/// their timings sample the whole run and not one moment of host load.
const SEGMENTS: usize = 8;
/// Det schedule seeds per pool entry and slack scheme for the error
/// metrics.
const ERROR_SEEDS: u64 = 8;
/// A job not terminal by then counts as timed out.
const JOB_DEADLINE: Duration = Duration::from_secs(60);
/// Pause between status polls (as `Client::wait_job`).
const POLL_GAP: Duration = Duration::from_millis(2);

/// Flag-JSON half of the pool: scheme grids over small kernels of both
/// core models. The three bench-scale bodies hold the median of the
/// latency mix: their runs are long enough that thread start-up does not
/// swamp the timing.
const FLAG_BODIES: &[&str] = &[
    r#"{"bench":"pipeline","cores":4,"scale":"bench","schemes":["CC","S9","SU"]}"#,
    r#"{"bench":"mailbox_actors","cores":4,"scale":"bench","schemes":["CC","SU"]}"#,
    r#"{"bench":"treiber_stack","cores":4,"scale":"bench","model":"ooo","schemes":["CC","S9"]}"#,
    r#"{"bench":"private_compute","cores":4,"schemes":["CC","S9"]}"#,
    r#"{"bench":"pingpong","cores":2,"schemes":["CC","SU"]}"#,
];

/// sk-serve's job pipeline without its HTTP front: the queue, the
/// snapshot cache, the telemetry hub and the worker threads, sized as
/// `ServerConfig::default()` sizes a server.
struct Service {
    queue: JobQueue,
    cache: SnapCache,
    obs: ServeObs,
    /// Admitted jobs not yet collected by their client.
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
}

/// A running [`Service`] and its workers.
struct Running {
    service: Arc<Service>,
    workers: Vec<JoinHandle<()>>,
}

impl Running {
    fn start() -> Running {
        let cfg = ServerConfig::default();
        let service = Arc::new(Service {
            queue: JobQueue::new(cfg.queue_capacity, cfg.tenant_quota),
            cache: SnapCache::new(cfg.cache_entries),
            obs: ServeObs::new(),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let s = service.clone();
                std::thread::spawn(move || s.work())
            })
            .collect();
        Running { service, workers }
    }

    /// Stop admitting, drain the queue and join every worker.
    fn shutdown(self) {
        self.service.queue.close();
        for w in self.workers {
            // A worker catches the panics of the jobs it runs.
            let _ = w.join();
        }
    }
}

impl Service {
    /// The worker loop: pop a job id, run the job, release its tenant's
    /// slot (as the server's workers do).
    fn work(&self) {
        while let Some(id) = self.queue.pop() {
            let Some(job) = self.jobs.lock().expect("no holder panics").get(&id).cloned() else {
                continue;
            };
            let ran = catch_unwind(AssertUnwindSafe(|| run_job(&job, &self.cache, &self.obs)));
            if ran.is_err()
                && matches!(
                    job.set_state(JobState::Failed("panic during simulation".into())),
                    JobState::Failed(_)
                )
            {
                self.obs.jobs_failed.inc();
            }
            self.queue.release(&job.spec.tenant);
        }
    }

    /// Parse a request body and admit it, as `POST /jobs` does; the job,
    /// or why it was refused.
    fn submit(&self, rec: &mut Recorder, body: &str, tenant: &str) -> Result<Arc<Job>, String> {
        let doc = rec.span("json.parse", |_| json::parse(body)).map_err(|e| e.to_string())?;
        let spec = rec
            .span("scenario.parse", |_| JobSpec::from_json(&doc, tenant))
            .map_err(|e| format!("refused: {e}"))?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job::new(id, spec));
        self.jobs.lock().expect("no holder panics").insert(id, job.clone());
        match self.queue.push(id, &job.spec.tenant, job.spec.priority) {
            (Admission::Enqueued, depth) => {
                self.obs.jobs_submitted.inc();
                self.obs.queue_depth.record(depth as u64);
                Ok(job)
            }
            (refused, _) => {
                self.jobs.lock().expect("no holder panics").remove(&id);
                Err(format!("admission refused: {refused:?}"))
            }
        }
    }
}

/// One pool entry with its local reference.
struct Entry {
    body: String,
    spec: JobSpec,
    workload: Workload,
    /// The timed reference runs.
    refs: Vec<RefRun>,
    /// Fingerprint, simulated time and committed count of the CC
    /// reference.
    cc_fingerprint: u64,
    cc_exec_cycles: u64,
    cc_committed: u64,
}

/// Build the pool: flag bodies plus one scenario body per committed
/// `.skn` file.
fn pool_bodies(rec: &mut Recorder) -> Result<Vec<String>, String> {
    let mut bodies: Vec<String> = FLAG_BODIES.iter().map(|b| b.to_string()).collect();
    let mut files: Vec<_> = std::fs::read_dir("scenarios")
        .map_err(|e| format!("scenarios/: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "skn"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err("scenarios/ holds no .skn file".into());
    }
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        rec.span("scenario.parse", |_| Scenario::parse(&text))
            .map_err(|e| format!("{}: {e}", f.display()))?;
        bodies.push(format!("{{\"scenario\":\"{}\"}}", escape(&text)));
    }
    Ok(bodies)
}

/// Parse a body as the server would and build its program.
fn spec_of(rec: &mut Recorder, body: &str) -> Result<(JobSpec, Workload), String> {
    let doc = rec.span("json.parse", |_| json::parse(body)).map_err(|e| e.to_string())?;
    let spec = rec
        .span("scenario.parse", |_| JobSpec::from_json(&doc, "perfbench"))
        .map_err(|e| e.to_string())?;
    let workload = rec.span("kernels.build", |_| spec.workload()).ok_or("no workload")?;
    Ok((spec, workload))
}

/// Set up `SETUP_PASSES` times: parse every body, build its program,
/// construct its engine, and start the job pipeline's workers. Medians of (pass, build, new),
/// in calibrated CPU seconds of the calling thread.
fn setup(
    bodies: &[String],
    rec: &mut Recorder,
    cal: &mut Calib,
    tally: &mut Tally,
) -> (f64, f64, f64) {
    let mut passes = Vec::new();
    for p in 0..SETUP_PASSES {
        rec.set_run(u64::MAX - p as u64);
        let b = cal.sample();
        let (mut build_s, mut new_s) = (0.0, 0.0);
        let (workers, pass_s) = cpu_timed(|| {
            rec.span("setup", |rec| {
                for body in bodies {
                    match cpu_timed(|| spec_of(rec, body)) {
                        (Ok((spec, w)), s) => {
                            build_s += s;
                            let cfg = spec.config();
                            let ((), s) = rec.span("engine.new", |_| {
                                cpu_timed(|| {
                                    drop(ThreadsEngine::new(&w.program, Scheme::CycleByCycle, &cfg))
                                })
                            });
                            new_s += s;
                        }
                        (Err(e), _) => tally.fail(format!("setup {body}: {e}")),
                    }
                }
                rec.span("serve.start", |_| Running::start())
            })
        });
        passes.push((b, [pass_s, build_s, new_s]));
        workers.shutdown();
    }
    crate::setup_medians(cal, &passes)
}

/// One timed local reference run of a pool entry.
struct RefRun {
    engine: Engine,
    scheme: Scheme,
    seed: u64,
    committed: u64,
    /// Each timing of this run: the calibration sample before it and its
    /// CPU seconds.
    cpu_s: Vec<(usize, f64)>,
}

/// What the local references measured.
struct Refs {
    entries: Vec<Entry>,
    error_s9_pct: f64,
    error_su_pct: f64,
}

/// Local references for each pool entry: a sequential CC run, a det CC
/// run (the fingerprint served CC results must match) and det S9 and SU
/// runs under `ERROR_SEEDS` schedule seeds each (the error metrics). The
/// sequential, CC and first S9 and SU runs are kept for timing (see
/// [`retime`]): they give the workload's `kips_*`, because the server
/// times its own runs in wall time, which follows host steal.
fn references(
    bodies: &[String],
    seed: u64,
    traced: bool,
    rec: &mut Recorder,
    cal: &mut Calib,
    acc: &mut LayerAcc,
    tally: &mut Tally,
) -> Refs {
    let mut entries = Vec::new();
    let (mut e9, mut esu) = (Vec::new(), Vec::new());
    for (i, body) in bodies.iter().enumerate() {
        rec.set_run(1 << 40 | i as u64);
        let (spec, workload) = match spec_of(rec, body) {
            Ok(x) => x,
            Err(e) => {
                tally.fail(format!("reference {body}: {e}"));
                continue;
            }
        };
        let cfg = spec.config();
        let cc = Scheme::CycleByCycle;
        let b = cal.sample();
        let seq = match execute(rec, &workload, &cfg, Engine::Seq, cc, 0, traced, acc) {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("seq reference {body}: {e}"));
                continue;
            }
        };
        tally.pass();
        let timed = |engine, scheme, seed, committed, b, cpu_s| RefRun {
            engine,
            scheme,
            seed,
            committed,
            cpu_s: vec![(b, cpu_s)],
        };
        let mut refs = vec![timed(Engine::Seq, cc, 0, seq.committed, b, seq.run_s)];
        let base = seq.exec_cycles as f64;
        // The det CC run is the fingerprint every served CC result must
        // match; the sequential reference must match it but for idle cycles.
        let mut cc_ref = None;
        let runs = std::iter::once("CC").chain((0..ERROR_SEEDS).flat_map(|_| ["S9", "SU"]));
        for (k, s) in runs.enumerate() {
            let d = derive_seed(seed, &[4, i as u64, k as u64]);
            let scheme: Scheme = s.parse().expect("scheme names in this file parse");
            let b = cal.sample();
            let r = match execute(rec, &workload, &cfg, Engine::Det, scheme, d, traced, acc) {
                Ok(r) => r,
                Err(e) => {
                    tally.fail(format!("det {s} reference {body}: {e}"));
                    continue;
                }
            };
            if k < 3 {
                refs.push(timed(Engine::Det, scheme, d, r.committed, b, r.run_s));
            }
            let err = 100.0 * (r.exec_cycles as f64 - base).abs() / base;
            match s {
                "CC" if r.fingerprint_busy != seq.fingerprint_busy => {
                    tally.fail(format!("det CC reference {body} differs from sequential"));
                    continue;
                }
                "CC" => cc_ref = Some((r.fingerprint, r.exec_cycles)),
                "S9" => e9.push(err),
                _ => esu.push(err),
            }
            tally.pass();
        }
        let Some((cc_fingerprint, cc_exec_cycles)) = cc_ref else { continue };
        entries.push(Entry {
            body: body.clone(),
            spec,
            workload,
            refs,
            cc_fingerprint,
            cc_exec_cycles,
            cc_committed: seq.committed,
        });
    }
    cal.sample();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Refs { entries, error_s9_pct: mean(&e9), error_su_pct: mean(&esu) }
}

/// Time every entry's timed reference runs once more. Called between the
/// closed loop's segments, so the timings sample the whole run.
fn retime(entries: &mut [Entry], rec: &mut Recorder, cal: &mut Calib, tally: &mut Tally) {
    let mut acc = LayerAcc::default();
    for e in entries.iter_mut() {
        let cfg = e.spec.config();
        for r in &mut e.refs {
            let b = cal.sample();
            match execute(rec, &e.workload, &cfg, r.engine, r.scheme, r.seed, false, &mut acc) {
                Ok(ran) => {
                    tally.pass();
                    r.cpu_s.push((b, ran.run_s));
                }
                Err(err) => tally.fail(format!("reference {}: {err}", e.body)),
            }
        }
    }
    cal.sample();
}

/// KIPS over the timed reference runs `pick` selects: each run counts its
/// committed instructions and its median calibrated CPU time.
fn ref_kips(entries: &[Entry], cal: &Calib, pick: impl Fn(&RefRun) -> bool) -> f64 {
    let runs = entries.iter().flat_map(|e| &e.refs).filter(|r| pick(r));
    kips(runs.map(|r| {
        (r.committed, median(&r.cpu_s.iter().map(|(b, s)| s * cal.scale(*b)).collect::<Vec<_>>()))
    }))
}

/// One scheme result of a finished job.
struct SchemeRun {
    cc: bool,
    kips: f64,
    committed: u64,
}

/// One finished job, as the client saw it.
struct Finished {
    /// Index of its pool entry.
    kind: usize,
    latency_s: f64,
    post_s: f64,
    polls: u64,
    status_bytes: usize,
    /// CC results whose fingerprint drifted at equal simulated time.
    drift: u64,
    runs: Vec<SchemeRun>,
    /// Traced jobs: each scheme's sk-obs dump and its run's wall time, ns.
    dumps: Vec<(Json, f64)>,
}

/// Fingerprint and simulated time that each (body, scheme) of a
/// deterministic scheme must repeat, shared by every client of a run.
type Repeats = Mutex<BTreeMap<(String, String), (String, i64)>>;

/// Submit one body and poll its status document to a terminal state, as
/// `Client::wait_job` does; check everything the job reports.
fn one_job(
    service: &Service,
    rec: &mut Recorder,
    entry: &Entry,
    body: &str,
    tenant: &str,
    traced: bool,
    deterministic: &Repeats,
) -> Result<Finished, String> {
    let t0 = Instant::now();
    rec.span("serve.job", |rec| {
        let job = rec.span("serve.post", |rec| service.submit(rec, body, tenant))?;
        let post_s = rec.last_secs("serve.post");
        let id = job.id;
        let mut polls = 0;
        let (doc, status_bytes) = loop {
            let status = rec.span("serve.poll", |_| job.to_json());
            polls += 1;
            let doc = rec
                .span("json.parse", |_| json::parse(&status))
                .map_err(|e| format!("job {id}: status document does not parse: {e}: {status}"))?;
            match doc.get("state").and_then(Json::as_str) {
                Some("queued" | "running") => {}
                Some("done") => break (doc, status.len()),
                other => return Err(format!("job {id} ended {other:?}: {status}")),
            }
            if t0.elapsed() > JOB_DEADLINE {
                return Err(format!("job {id} not done within {JOB_DEADLINE:?}"));
            }
            std::thread::sleep(POLL_GAP);
        };
        let latency_s = t0.elapsed().as_secs_f64();
        service.jobs.lock().expect("no holder panics").remove(&id);
        let results = doc.get("results").and_then(Json::as_arr).unwrap_or(&[]);
        if results.len() != entry.spec.schemes.len() {
            return Err(format!(
                "job {id}: {} results for {} schemes",
                results.len(),
                entry.spec.schemes.len()
            ));
        }
        let mut runs = Vec::new();
        let mut drift = 0;
        for r in results {
            let scheme = r.get("scheme").and_then(Json::as_str).unwrap_or("?").to_string();
            let fp = r.get("fingerprint").and_then(Json::as_str).unwrap_or("").to_string();
            if r.get("output_ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("job {id} {scheme}: output mismatch"));
            }
            let cc = scheme == "CC";
            let exec = r.get("exec_cycles").and_then(Json::as_i64).unwrap_or(-1);
            // A zero-slack scheme must repeat itself; CC must also repeat
            // the det reference.
            if cc || r.get("deterministic").and_then(Json::as_bool) == Some(true) {
                let mut deterministic = deterministic.lock().expect("no client panics");
                let want = deterministic
                    .entry((entry.body.clone(), scheme.clone()))
                    .or_insert_with(|| {
                        if cc {
                            (format!("{:016x}", entry.cc_fingerprint), entry.cc_exec_cycles as i64)
                        } else {
                            (fp.clone(), exec)
                        }
                    });
                if want.0 != fp {
                    if want.1 != exec {
                        return Err(format!(
                            "job {id} {scheme}: {exec} cycles, {} expected (fingerprint {fp})",
                            want.1
                        ));
                    }
                    // Same simulated time, different per-core counters: the
                    // threaded backend's host-timing-dependent sync-wait
                    // accounting. Counted, not failed. A served result
                    // carries no committed count, so equal simulated time
                    // is all this check can ask for.
                    drift += 1;
                }
            }
            let kips = match r.get("kips") {
                Some(Json::Float(k)) => *k,
                Some(Json::Int(k)) => *k as f64,
                _ => return Err(format!("job {id} {scheme}: no kips")),
            };
            runs.push(SchemeRun { cc, kips, committed: entry.cc_committed });
        }
        let dumps = if traced { dumps(rec, &job, results)? } else { Vec::new() };
        Ok(Finished { kind: 0, latency_s, post_s, polls, status_bytes, drift, runs, dumps })
    })
}

/// The sk-obs dump of each scheme run of a traced job (what
/// `GET /jobs/{id}/metrics` serves), with the run's wall time (whole
/// milliseconds as the job reports them, at least 1).
fn dumps(rec: &mut Recorder, job: &Job, results: &[Json]) -> Result<Vec<(Json, f64)>, String> {
    let id = job.id;
    let dumps = job.metrics_dumps();
    if dumps.len() != results.len() {
        return Err(format!(
            "job {id}: {} metrics dumps for {} results",
            dumps.len(),
            results.len()
        ));
    }
    let mut out = Vec::new();
    for ((scheme, dump), r) in dumps.iter().zip(results) {
        if r.get("scheme").and_then(Json::as_str) != Some(scheme.as_str()) {
            return Err(format!("job {id}: metrics dumps do not follow its results"));
        }
        let metrics = rec
            .span("json.parse", |_| json::parse(dump))
            .map_err(|e| format!("job {id} {scheme}: metrics dump does not parse: {e}"))?;
        let wall_ms = r.get("wall_ms").and_then(Json::as_i64).unwrap_or(0).max(1);
        out.push((metrics, wall_ms as f64 * 1e6));
    }
    Ok(out)
}

/// What one closed-loop phase measured.
struct Phase {
    jobs: Vec<Finished>,
    wall_s: f64,
    /// Calibrated CPU seconds of the whole process (workers and clients)
    /// in the loop.
    cpu_s: f64,
    cache_hit_ratio: f64,
    warm_cold_ratio: f64,
    queue_depth_p50: f64,
}

/// Start the job pipeline and drive it from `CLIENTS` closed loops for
/// `seconds`, split into `segments` windows with `between` called after
/// each.
#[allow(clippy::too_many_arguments)]
fn phase(
    entries: &mut [Entry],
    seed: u64,
    seconds: f64,
    segments: usize,
    traced: bool,
    rec: &mut Recorder,
    cal: &mut Calib,
    acc: &mut LayerAcc,
    tally: &mut Tally,
    between: impl Fn(&mut [Entry], &mut Recorder, &mut Calib, &mut Tally),
) -> Phase {
    let running = Running::start();
    let service: &Service = &running.service;
    let epoch = rec.epoch();
    let (mut jobs, mut wall_s, mut cpu_s) = (Vec::new(), 0.0, 0.0);
    let repeats = Repeats::default();
    let repeats = &repeats;
    // Each client's request stream: a seeded shuffle of the whole pool,
    // deck after deck, so the mix is fixed and the order follows the seed.
    // A stream runs on across segments, so that only the last deck of a
    // run is cut short.
    let mut streams: Vec<(SplitMix64, Vec<usize>, u64)> = (0..CLIENTS)
        .map(|c| (SplitMix64::new(derive_seed(seed, &[5, c])), Vec::new(), 0))
        .collect();
    for seg in 0..segments as u64 {
        let b = cal.sample();
        let start = Instant::now();
        let cpu = Stopwatch::process();
        let deadline = start + Duration::from_secs_f64(seconds / segments as f64);
        let shared: &[Entry] = entries;
        let per_client: Vec<(Recorder, Tally, Vec<Finished>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .zip(streams.iter_mut())
                .map(|(c, (rng, deck, n))| {
                    s.spawn(move || {
                        let mut rec = Recorder::new(epoch);
                        let mut tally = Tally::default();
                        let mut jobs = Vec::new();
                        let tenant = format!("perfbench-{c}");
                        while Instant::now() < deadline {
                            if deck.is_empty() {
                                *deck = (0..shared.len()).collect();
                                for i in (1..deck.len()).rev() {
                                    deck.swap(i, rng.next_below(i + 1));
                                }
                            }
                            let kind = deck.pop().expect("deck refilled above");
                            let entry = &shared[kind];
                            let body = if traced {
                                format!("{{\"metrics\":true,{}", &entry.body[1..])
                            } else {
                                entry.body.clone()
                            };
                            rec.set_run(seg << 48 | c << 32 | *n);
                            *n += 1;
                            match one_job(service, &mut rec, entry, &body, &tenant, traced, repeats)
                                .map_err(|e| format!("{e} [{}]", entry.body))
                            {
                                Ok(j) => {
                                    match j.drift {
                                        0 => tally.pass(),
                                        _ => tally.known("cc_drift"),
                                    }
                                    jobs.push(Finished { kind, ..j });
                                }
                                Err(e) => tally.fail(e),
                            }
                        }
                        (rec, tally, jobs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads return their results"))
                .collect()
        });
        wall_s += start.elapsed().as_secs_f64();
        let seg_cpu_s = cpu.secs();
        cal.sample();
        cpu_s += seg_cpu_s * cal.scale(b);
        for (r, t, j) in per_client {
            rec.absorb(r);
            tally.absorb(t);
            for job in &j {
                for (dump, wall_ns) in &job.dumps {
                    acc.add_dump(dump, *wall_ns);
                }
            }
            jobs.extend(j);
        }
        between(entries, rec, cal, tally);
    }
    let obs = &service.obs;
    for (what, n) in [("failed", obs.jobs_failed.get()), ("cancelled", obs.jobs_cancelled.get())] {
        if n > 0 {
            tally.fail(format!("the workers counted {n} {what} jobs"));
        }
    }
    let (hits, misses) = (obs.cache_hits.get() as f64, obs.cache_misses.get() as f64);
    let mean = |h: &sk_obs::Histogram| h.sum() as f64 / h.count().max(1) as f64;
    let cold = mean(&obs.cold_wall_ms);
    let out = Phase {
        jobs,
        wall_s,
        cpu_s,
        cache_hit_ratio: if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        warm_cold_ratio: if cold > 0.0 { mean(&obs.warm_wall_ms) / cold } else { 0.0 },
        queue_depth_p50: obs.queue_depth.quantile(0.5) as f64,
    };
    running.shutdown();
    out
}

/// Served KIPS over scheme runs: each run's committed count over its
/// server-reported (wall-time) rate gives its host time.
fn served_kips(jobs: &[Finished], cc: bool) -> f64 {
    let runs = jobs.iter().flat_map(|j| &j.runs).filter(|r| r.cc == cc && r.kips > 0.0);
    let (instr, secs) = runs.fold((0.0, 0.0), |(i, s), r| {
        (i + r.committed as f64, s + r.committed as f64 / (r.kips * 1000.0))
    });
    if secs > 0.0 {
        instr / 1000.0 / secs
    } else {
        0.0
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let bodies = match pool_bodies(rec) {
        Ok(b) => b,
        Err(e) => {
            out.tally.fail(e);
            return out;
        }
    };
    let mut cal = Calib::default();
    let (setup_s, build_s, new_s) = setup(&bodies, rec, &mut cal, &mut out.tally);
    let mut acc = LayerAcc::default();
    if trace {
        let mut traced = Recorder::new(rec.epoch());
        let mut entries =
            references(&bodies, seed, true, &mut traced, &mut cal, &mut acc, &mut out.tally)
                .entries;
        let idle = |_: &mut [Entry], _: &mut Recorder, _: &mut Calib, _: &mut Tally| {};
        let half = seconds / 2.0;
        let tally = &mut out.tally;
        let mut untraced_acc = LayerAcc::default();
        let base = phase(
            &mut entries,
            seed,
            half,
            1,
            false,
            rec,
            &mut cal,
            &mut untraced_acc,
            tally,
            idle,
        );
        let p =
            phase(&mut entries, seed, half, 1, true, &mut traced, &mut cal, &mut acc, tally, idle);
        let lat = |ph: &Phase| median(&ph.jobs.iter().map(|j| j.latency_s).collect::<Vec<_>>());
        let n = p.jobs.len().max(1) as f64;
        let total_latency: f64 = p.jobs.iter().map(|j| j.latency_s).sum();
        out.metrics.extend(acc.finish());
        out.metrics.extend(crate::span_fractions(&traced));
        out.metrics.extend([
            ("kernels.build_s", build_s),
            ("engine.new_s", new_s),
            (
                "trace.overhead_frac",
                if lat(&base) > 0.0 { lat(&p) / lat(&base) - 1.0 } else { 0.0 },
            ),
            (
                "serve.post_frac",
                p.jobs.iter().map(|j| j.post_s).sum::<f64>() / total_latency.max(1e-9),
            ),
            ("serve.polls_per_job", p.jobs.iter().map(|j| j.polls as f64).sum::<f64>() / n),
            ("serve.cache_hit_ratio", p.cache_hit_ratio),
            ("serve.warm_cold_ratio", p.warm_cold_ratio),
            ("serve.queue_depth_p50", p.queue_depth_p50),
            ("serve.status_bytes", p.jobs.iter().map(|j| j.status_bytes as f64).sum::<f64>() / n),
        ]);
        rec.absorb(traced);
    } else {
        let mut refs = references(&bodies, seed, false, rec, &mut cal, &mut acc, &mut out.tally);
        let p = phase(
            &mut refs.entries,
            seed,
            seconds,
            SEGMENTS,
            false,
            rec,
            &mut cal,
            &mut acc,
            &mut out.tally,
            retime,
        );
        let det_slack = |r: &RefRun| r.engine == Engine::Det && r.scheme != Scheme::CycleByCycle;
        let lat_ms: Vec<f64> = p.jobs.iter().map(|j| j.latency_s * 1e3).collect();
        out.metrics.extend([
            (
                "kips_cc",
                ref_kips(&refs.entries, &cal, |r| r.engine == Engine::Det && !det_slack(r)),
            ),
            ("kips_slack", ref_kips(&refs.entries, &cal, det_slack)),
            ("kips_seq", ref_kips(&refs.entries, &cal, |r| r.engine == Engine::Seq)),
            ("error_su_pct", refs.error_su_pct),
            ("setup_s", setup_s),
            ("jobs_per_s", p.jobs.len() as f64 / p.cpu_s.max(1e-9)),
        ]);
        out.table.extend([
            ("job_p50_ms", median_of_medians(p.jobs.iter().map(|j| (j.kind, j.latency_s * 1e3)))),
            ("error_s9_pct", refs.error_s9_pct),
            ("served_kips_cc", served_kips(&p.jobs, true)),
            ("served_kips_slack", served_kips(&p.jobs, false)),
            ("jobs_per_wall_s", p.jobs.len() as f64 / p.wall_s.max(1e-9)),
            ("jobs", p.jobs.len() as f64),
            ("cache_hit_ratio", p.cache_hit_ratio),
            ("calib_ms", cal.median_s() * 1e3),
        ]);
        crate::insert_latency(&mut out.table, &lat_ms);
    }
    out
}
