//! The parallel simulation engine: N core Pthreads + one manager thread.
//!
//! This is SlackSim's execution model (paper Fig. 1): each target core is
//! simulated by one host thread; the simulation manager thread simulates
//! the lower cache hierarchy and paces the run by publishing global time
//! and per-core max local times through shared memory.

use crate::adapt::{AdaptDecision, SlackController};
use crate::clock::{ClockBoard, CoreState, GlobalCache};
use crate::config::{CoreModel, StopCondition, TargetConfig};
use crate::core_thread::{CoreOutput, CoreSim, RoiState};
use crate::cpu::{inorder::InOrderCpu, ooo::OooCpu, Cpu};
use crate::msg::{InMsg, OutEvent};
use crate::scheme::Scheme;
use crate::spsc;
use crate::stats::{EngineStats, SimReport, ViolationReport};
use crate::uncore::Uncore;
use crate::violation::ConflictTracker;
use sk_isa::{DecodedProgram, Program, SuperblockTable};
use sk_mem::FuncMemory;
use sk_obs::{Metrics, ObsConfig};
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most samples the manager records into the slack profile (the rest are
/// counted in `EngineStats::slack_profile_truncated`).
const SLACK_PROFILE_CAP: usize = 1_000_000;
/// Initial slack-profile reservation (grows on demand up to the cap).
const SLACK_PROFILE_RESERVE: usize = 1 << 16;

/// Shortest and longest idle park of the manager's pacing loop. While
/// events flow, a pending signal makes `manager_wait` return immediately
/// and the timeout is irrelevant; once the manager goes an iteration with
/// no signal and nothing drained, the park doubles per quiet iteration up
/// to the cap, so a fully quiescent manager (all cores SyncWait/Parked)
/// costs ~`1/IDLE_WAIT_MAX` wakeups per second instead of a fixed poll.
const IDLE_WAIT_MIN: Duration = Duration::from_micros(100);
const IDLE_WAIT_MAX: Duration = Duration::from_millis(5);
/// Continuous quiescence (nothing runnable, nothing in flight) after
/// which the manager declares the workload deadlocked.
const DEADLOCK_AFTER: Duration = Duration::from_millis(100);

pub(crate) fn build_cpu(cfg: &TargetConfig) -> Box<dyn Cpu> {
    match cfg.core.model {
        CoreModel::OutOfOrder => Box::new(OooCpu::new(cfg)),
        CoreModel::InOrder => Box::new(InOrderCpu::new(cfg)),
    }
}

pub(crate) struct Plumbing {
    pub cores: Vec<CoreSim>,
    pub out_consumers: Vec<spsc::Consumer<OutEvent>>,
    pub in_producers: Vec<spsc::Producer<InMsg>>,
    pub tracker: Option<Arc<ConflictTracker>>,
    pub roi: Arc<RoiState>,
    pub mem: FuncMemory,
    pub text_len: usize,
    pub sbt: Option<Arc<SuperblockTable>>,
}

/// Wire up cores, queues, functional memory and the violation tracker.
pub(crate) fn plumb(program: &Program, cfg: &TargetConfig) -> Plumbing {
    cfg.validate().expect("invalid target configuration");
    program.validate().expect("program failed validation");
    let mem = FuncMemory::new();
    mem.load(program.image());
    // Predecode the text once; every core shares the read-only table.
    let text = Arc::new(DecodedProgram::from_program(program));
    // Fuse superblocks once over the same table (derived, read-only).
    let sbt = cfg.superblocks.then(|| Arc::new(SuperblockTable::build(&text)));
    let tracker = if cfg.track_workload_violations || cfg.fast_forward_compensation {
        Some(Arc::new(ConflictTracker::new(cfg.fast_forward_compensation)))
    } else {
        None
    };
    let roi = Arc::new(RoiState::default());

    let mut cores = Vec::with_capacity(cfg.n_cores);
    let mut out_consumers = Vec::with_capacity(cfg.n_cores);
    let mut in_producers = Vec::with_capacity(cfg.n_cores);
    for id in 0..cfg.n_cores {
        let (in_p, in_c) = spsc::channel(cfg.queue_capacity);
        let (out_p, out_c) = spsc::channel(cfg.queue_capacity);
        let mut cpu = build_cpu(cfg);
        if let Some(t) = &sbt {
            cpu.attach_superblocks(t.clone());
        }
        cores.push(CoreSim::new(
            id,
            cfg,
            cpu,
            in_c,
            out_p,
            mem.clone(),
            text.clone(),
            tracker.clone(),
            roi.clone(),
        ));
        out_consumers.push(out_c);
        in_producers.push(in_p);
    }
    cores[0].start_main(program.entry);
    Plumbing {
        cores,
        out_consumers,
        in_producers,
        tracker,
        roi,
        mem,
        text_len: program.text_len(),
        sbt,
    }
}

pub(crate) fn violation_report(tracker: &Option<Arc<ConflictTracker>>) -> ViolationReport {
    match tracker {
        None => ViolationReport::default(),
        Some(t) => ViolationReport {
            store_past_load: t.stats.store_past_load.load(Ordering::Relaxed),
            load_past_store: t.stats.load_past_store.load(Ordering::Relaxed),
            compensations: t.stats.compensations.load(Ordering::Relaxed),
            compensation_cycles: t.stats.compensation_cycles.load(Ordering::Relaxed),
            max_inversion_cycles: t.stats.max_inversion.load(Ordering::Relaxed),
        },
    }
}

pub(crate) fn assemble_report(
    scheme: Scheme,
    cfg: &TargetConfig,
    outputs: Vec<CoreOutput>,
    uncore: &Uncore,
    engine: EngineStats,
    violations: ViolationReport,
    wall: Duration,
) -> SimReport {
    let exec_end = outputs.iter().map(|o| o.stats.cycles).max().unwrap_or(0);
    let roi_start = uncore.roi_start.unwrap_or(0);
    let mut traces = Vec::new();
    let mut cores = Vec::new();
    let mut have_traces = false;
    for o in outputs {
        if let Some(t) = o.trace {
            have_traces = true;
            traces.push(t);
        } else {
            traces.push(Vec::new());
        }
        cores.push(o.stats);
    }
    SimReport {
        scheme: scheme.short_name(),
        n_cores: cfg.n_cores,
        exec_cycles: exec_end.saturating_sub(roi_start),
        wall,
        cores,
        dir: uncore.dir.stats,
        bus: uncore.dir.bus_stats(),
        sync: uncore.sync.stats,
        engine,
        violations,
        superblocks: cfg.superblocks,
        traces: if have_traces { Some(traces) } else { None },
        slack_profile: None,
    }
}

/// Per-segment manager-loop state, threaded through
/// [`Engine::manager_iter`] so both backends (the manager Pthread and the
/// deterministic scheduler) drive the identical iteration body.
pub(crate) struct MgrState {
    clock_cache: GlobalCache,
    drain_scratch: Vec<OutEvent>,
    /// Consecutive iterations the safe-point condition held with no
    /// event drained. Two in a row prove the system is at rest:
    /// the first pass shows every core was already parked *before*
    /// this iteration's drain (a core publishes its events, then
    /// its parked state, so anything it sent is visible), and the
    /// second shows the manager's own processing woke nobody.
    ready_streak: u32,
    /// Ordered scheme with sharded managers: windows also hold back to
    /// the slowest shard's processed frontier.
    ordered_scheme: bool,
    /// Threaded backend only: when a lagging shard frontier clamps the
    /// window, signal the shard and yield-retry instead of parking (the
    /// lag is resolved by other host threads). Must stay `false` for the
    /// cooperative backend, whose shard tasks cannot run mid-iteration.
    spin_on_frontier: bool,
    /// Cooperative backend under a zero-slack scheme: the coordinator
    /// serves the shards itself (see [`Engine::serve_shards`]).
    pub(crate) serve_shards: bool,
    /// Host time of inline shard iterations (ns, telemetry only), booked to
    /// the shards; the caller subtracts it from the manager's `busy_ns`.
    pub(crate) shard_ns: u64,
    /// An inline shard iteration did observable work.
    pub(crate) shard_progress: bool,
}

impl MgrState {
    pub(crate) fn new(n: usize, ordered_scheme: bool) -> Self {
        MgrState {
            clock_cache: GlobalCache::new(n),
            drain_scratch: Vec::new(),
            ready_streak: 0,
            ordered_scheme,
            spin_on_frontier: false,
            serve_shards: false,
            shard_ns: 0,
            shard_progress: false,
        }
    }
}

/// What one manager iteration decided. Pacing (idle backoff) and the
/// deadlock *policy* stay with the caller: the threaded backend times
/// continuous quiescence on the wall clock, the deterministic backend
/// counts fruitless scheduling rounds — both act on the same
/// `deadlockable` signal.
pub(crate) enum MgrVerdict {
    /// Keep iterating. `ingested` is the number of OutQ events drained
    /// (pacing signal); `deadlockable` means nothing is runnable, nothing
    /// is mem-waiting and nothing is in flight — continuous repetition of
    /// this state is a workload deadlock.
    Continue { ingested: usize, deadlockable: bool },
    /// The segment is over (workload exit, stop condition, max cycles).
    Finish,
    /// Every clock is parked exactly on the checkpoint cycle.
    CheckpointReady,
}

/// Why an [`Engine::run_until`] segment ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The simulation is over: workload exit, stop condition reached, or
    /// workload deadlock.
    Finished,
    /// Every clock is parked exactly on the requested checkpoint cycle
    /// (safe-point): [`Engine::snapshot`] now captures a quiescent system.
    CheckpointReady,
    /// The cooperative cancellation flag (see [`Engine::cancel_token`])
    /// was raised. The segment stopped at the next manager iteration with
    /// checkpoint-style teardown: no `Stop` broadcast, no final drain, the
    /// engine is *not* finished. The run can continue (clear the flag and
    /// call [`Engine::run_until`] again) or be abandoned; a snapshot taken
    /// at an earlier safe-point resumes cleanly.
    Cancelled,
}

/// The parallel simulation engine as a resumable object.
///
/// [`run_parallel`] is `Engine::new` + `run_until(None)` + `into_report`.
/// The segmented form exists for checkpointing: `run_until(Some(c))`
/// converges every clock onto cycle `c` (a *safe-point*: global == local
/// on every unfinished driving core, SPSC rings drained, no in-flight
/// uncore transaction unaccounted for), after which [`Engine::snapshot`]
/// serializes the complete simulated system and [`Engine::resume`]
/// reconstructs it — bit-deterministically for conservative schemes —
/// in this or any later process, optionally under a different scheme
/// (fork-from-snapshot, the Fig. 6 grid workflow).
pub struct Engine {
    pub(crate) cfg: TargetConfig,
    scheme: Scheme,
    mem: FuncMemory,
    pub(crate) cores: Vec<CoreSim>,
    out_consumers: Vec<spsc::Consumer<OutEvent>>,
    pub(crate) uncore: Uncore,
    pub(crate) board: Arc<ClockBoard>,
    tracker: Option<Arc<ConflictTracker>>,
    roi: Arc<RoiState>,
    pub(crate) shards: Vec<crate::shard::MemShard>,
    pub(crate) shard_signals: Vec<Arc<crate::shard::ShardSignal>>,
    shard_frontiers: Vec<Arc<AtomicU64>>,
    /// The coordinator's window grant (sharded clock domains): instead of
    /// raising `max_local` on every core itself — an O(n_cores) loop that
    /// serializes in the coordinator at scale — the manager publishes the
    /// new window here and signals the shards; each shard raises its own
    /// clock domain. Monotone; liveness-only (a late raise keeps a core
    /// blocked a little longer but never changes simulated results).
    window_grant: Arc<AtomicU64>,
    engine: EngineStats,
    slack_profile: Vec<(u64, u64)>,
    /// Highest window already published to every core: re-raising an
    /// unchanged window is a no-op per core, so skip the whole loop.
    last_window: u64,
    pub(crate) wall: Duration,
    pub(crate) finished: bool,
    /// Optional telemetry hub (see [`Engine::attach_metrics`]).
    obs: Option<Arc<Metrics>>,
    /// Next global cycle at which to sample the violation counters.
    next_violation_sample: u64,
    /// Length of the program's text segment in instructions; persisted so
    /// resume can rebuild the predecode table from functional memory.
    text_len: usize,
    /// Shared superblock table (None with `cfg.superblocks` off). Derived
    /// from the text and rebuilt on resume, never serialized.
    sbt: Option<Arc<SuperblockTable>>,
    /// Closed-loop slack controller (`Scheme::Adaptive` only). Stepped
    /// once per control epoch inside [`Engine::manager_iter`]; its window
    /// replaces the uncore's static one when present.
    adapt: Option<SlackController>,
    /// Fault injection for the conformance suite: added to every published
    /// window, letting cores illegally outrun the scheme's slack bound.
    /// Always zero outside tests.
    window_bug_extra: u64,
    /// Cooperative cancellation flag, shared with callers via
    /// [`Engine::cancel_token`]. Checked once per manager iteration, so
    /// cancellation latency is bounded by the idle backoff (≤
    /// `IDLE_WAIT_MAX` while quiescent). Sticky: the holder clears it to
    /// run further segments on the same engine.
    cancel: Arc<AtomicBool>,
}

impl Engine {
    /// Wire up a simulation of `program` under `scheme` without starting
    /// any host threads.
    pub fn new(program: &Program, scheme: Scheme, cfg: &TargetConfig) -> Engine {
        let Plumbing { mut cores, out_consumers, in_producers, tracker, roi, mem, text_len, sbt } =
            plumb(program, cfg);
        for core in &mut cores {
            core.set_batch_cap(scheme.batch_cap());
        }
        let n = cfg.n_cores;
        let adapt = match scheme {
            Scheme::Adaptive { budget } => Some(SlackController::new(budget)),
            _ => None,
        };
        let initial_window = match (&adapt, scheme) {
            (Some(c), _) => c.window(),
            (None, Scheme::AdaptiveQuantum { min, .. }) => min,
            (None, s) => s.window(0),
        };
        let board = Arc::new(ClockBoard::new(n, initial_window));
        let uncore = Uncore::new(cfg, scheme, in_producers, Some(board.clone()), mem.clone());

        // ---- sharded memory managers (extension; cfg.mem_shards > 0) ----
        // `validate()` (in `plumb`) already rejected mem_shards > n_banks.
        let n_shards = cfg.mem_shards;
        let window_grant = Arc::new(AtomicU64::new(0));
        let mut shards: Vec<crate::shard::MemShard> = Vec::new();
        let mut shard_signals: Vec<Arc<crate::shard::ShardSignal>> = Vec::new();
        if n_shards > 0 {
            // rings[s][c]: events core c -> shard s; replies shard s -> core c.
            let mut ev_consumers: Vec<Vec<spsc::Consumer<OutEvent>>> =
                (0..n_shards).map(|_| Vec::new()).collect();
            let mut reply_producers: Vec<Vec<spsc::Producer<InMsg>>> =
                (0..n_shards).map(|_| Vec::new()).collect();
            shard_signals =
                (0..n_shards).map(|_| Arc::new(crate::shard::ShardSignal::default())).collect();
            let dirty_masks: Vec<Arc<Vec<AtomicU64>>> = (0..n_shards)
                .map(|_| {
                    Arc::new((0..cfg.n_cores.div_ceil(64)).map(|_| AtomicU64::new(0)).collect())
                })
                .collect();
            for core in cores.iter_mut() {
                let mut my_reply_rings = Vec::new();
                let mut my_event_rings = Vec::new();
                for s in 0..n_shards {
                    let (ev_p, ev_c) = spsc::channel(cfg.queue_capacity);
                    let (rep_p, rep_c) = spsc::channel(cfg.queue_capacity);
                    ev_consumers[s].push(ev_c);
                    reply_producers[s].push(rep_p);
                    my_event_rings.push(ev_p);
                    my_reply_rings.push(rep_c);
                }
                core.attach_shards(
                    my_reply_rings,
                    my_event_rings,
                    shard_signals.clone(),
                    dirty_masks.clone(),
                );
            }
            for (s, (evc, repp)) in ev_consumers.into_iter().zip(reply_producers).enumerate() {
                shards.push(crate::shard::MemShard::new(
                    s,
                    cfg,
                    scheme,
                    evc,
                    repp,
                    board.clone(),
                    window_grant.clone(),
                    dirty_masks[s].clone(),
                ));
            }
        }
        let shard_frontiers: Vec<_> = shards.iter().map(|s| s.frontier.clone()).collect();
        let slack_profile: Vec<(u64, u64)> =
            Vec::with_capacity(SLACK_PROFILE_RESERVE.min(SLACK_PROFILE_CAP));
        Engine {
            cfg: *cfg,
            scheme,
            mem,
            cores,
            out_consumers,
            uncore,
            board,
            tracker,
            roi,
            shards,
            shard_signals,
            shard_frontiers,
            window_grant,
            engine: EngineStats::default(),
            slack_profile,
            last_window: 0,
            wall: Duration::ZERO,
            finished: false,
            obs: None,
            next_violation_sample: 0,
            text_len,
            sbt,
            adapt,
            window_bug_extra: 0,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Deliberately raise every published window by `extra` cycles beyond
    /// what the scheme allows — an injected ordering bug for validating
    /// that the conformance suite (and the DetEngine schedule fuzzer)
    /// actually catches slack-discipline escapes. Never call outside tests.
    #[doc(hidden)]
    pub fn inject_window_bug(&mut self, extra: u64) {
        self.window_bug_extra = extra;
    }

    /// Force the run-ahead batch cap on every core, overriding the
    /// scheme-derived default (see [`Scheme::batch_cap`]). Intended for
    /// tests and tuning experiments proving batched publication is
    /// invisible; must be called between run segments, not during one.
    pub fn set_batch_cap(&mut self, cap: u64) {
        for core in &mut self.cores {
            core.set_batch_cap(cap);
        }
    }

    /// Attach a telemetry hub to every layer of the engine: the clock
    /// board (park durations, run/park trace spans), each core (slack and
    /// batch histograms, OutQ high-water), the uncore (InQ high-water,
    /// sync wait times) and any memory shards (drain batches). The hub
    /// must be sized for this engine's core count.
    ///
    /// Telemetry costs one relaxed-load branch per hot-path site when no
    /// hub is attached.
    pub fn attach_metrics(&mut self, obs: Arc<Metrics>) {
        assert_eq!(obs.n_cores(), self.cfg.n_cores, "metrics hub sized for a different core count");
        assert!(
            obs.shards.len() >= self.shards.len(),
            "metrics hub sized for {} shards but the engine has {}",
            obs.shards.len(),
            self.shards.len()
        );
        self.board.set_obs(obs.clone());
        for core in &mut self.cores {
            core.set_obs(obs.clone());
        }
        self.uncore.set_obs(obs.clone());
        for shard in &mut self.shards {
            shard.set_obs(obs.clone());
        }
        // Static formation census: every core shares the one table.
        if let Some(t) = &self.sbt {
            for c in &obs.cores {
                c.sb_blocks_formed.raise_to(t.blocks_formed());
            }
        }
        self.obs = Some(obs);
    }

    /// Build a fresh hub from `cfg` (sized for this engine's core *and*
    /// shard counts), attach it, and return it.
    pub fn attach_new_metrics(&mut self, cfg: ObsConfig) -> Arc<Metrics> {
        let obs = Arc::new(Metrics::new_sharded(self.cfg.n_cores, self.shards.len(), cfg));
        self.attach_metrics(obs.clone());
        obs
    }

    /// Does this engine couple windows to shard frontiers (an ordered
    /// scheme running over sharded memory managers)? Shared by both
    /// backends so their `MgrState` flags agree.
    pub(crate) fn ordered_sharded(&self) -> bool {
        self.scheme.ordering() != crate::scheme::EventOrdering::Eager
            && !self.shard_frontiers.is_empty()
    }

    /// The attached telemetry hub, if any.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.obs.as_ref()
    }

    /// The scheme this engine runs under.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The current global time.
    pub fn global(&self) -> u64 {
        self.board.global()
    }

    /// Has the simulation ended (workload exit, stop condition, deadlock)?
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The cooperative cancellation flag for this engine. Store `true`
    /// from any thread to stop the current (or next) [`Engine::run_until`]
    /// segment at its next manager iteration with
    /// [`RunOutcome::Cancelled`]. The flag is sticky — clear it (store
    /// `false`) before running further segments on the same engine.
    pub fn cancel_token(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// `(decisions made, current effective window)` of the closed-loop
    /// controller — `Some` only under [`Scheme::Adaptive`]. The
    /// deterministic backend folds every decision into its interleaver
    /// hash through this, making the trajectory part of the schedule.
    pub fn adapt_decisions(&self) -> Option<(u64, u64)> {
        self.adapt.as_ref().map(|c| (c.epochs(), c.window()))
    }

    /// The controller's recorded `(global cycle, window)` decision
    /// trajectory — `Some` only under [`Scheme::Adaptive`].
    pub fn adapt_trajectory(&self) -> Option<&[(u64, u64)]> {
        self.adapt.as_ref().map(|c| c.trajectory())
    }

    /// Has the workload's region of interest begun (the manager has
    /// processed `RoiBegin`)? At a safe-point this is exact: a snapshot
    /// taken when it returns `true` carries the ROI start, so forked runs
    /// measure `exec_cycles` from the same origin as a cold run.
    pub fn roi_started(&self) -> bool {
        self.uncore.roi_start.is_some()
    }

    /// Is every core either excluded from the driving set (finished,
    /// parked without a thread, sync-suspended) or blocked exactly on the
    /// checkpoint cycle? This is the safe-point condition: nothing is
    /// simulating, and no clock that drives global time sits anywhere but
    /// `c`.
    fn checkpoint_ready(&self, c: u64) -> bool {
        (0..self.board.n_cores()).all(|i| match self.board.state(i) {
            CoreState::Running | CoreState::MemWait => false,
            CoreState::Blocked => self.board.local(i) == c,
            CoreState::Finished | CoreState::Parked | CoreState::SyncWait => true,
        })
    }

    /// One manager iteration (the body of the paper's §2.1 manager loop,
    /// minus the wait and the pacing/deadlock policy — see [`MgrVerdict`]).
    /// Both backends call this: the manager Pthread from [`Engine::run_until`],
    /// the deterministic scheduler whenever the interleaver picks the
    /// manager task.
    pub(crate) fn manager_iter(&mut self, until: Option<u64>, st: &mut MgrState) -> MgrVerdict {
        let n = self.cfg.n_cores;
        let obs = self.obs.clone();
        let ready_before = match until {
            Some(c) => self.checkpoint_ready(c),
            None => false,
        };
        // Order matters for determinism of ordered schemes: publish
        // global time first, then drain (every event with ts ≤ global
        // is already in its ring by the release/acquire pairing on
        // local time), then process up to the horizon.
        let (g, all_done) = self.board.recompute_global_cached(&mut st.clock_cache);
        self.engine.global_updates += 1;
        let slack_now = self.board.observed_slack();
        self.engine.max_observed_slack = self.engine.max_observed_slack.max(slack_now);
        if self.slack_profile.last().map(|&(pg, _)| pg) != Some(g) {
            if let Some(o) = &obs {
                o.manager.slack.record(slack_now);
                if o.cfg.violation_sample_interval > 0 && g >= self.next_violation_sample {
                    let v = self.tracker.as_ref().map_or(0, |t| {
                        t.stats.store_past_load.load(Ordering::Relaxed)
                            + t.stats.load_past_store.load(Ordering::Relaxed)
                    });
                    o.record_violation_sample(g, v);
                    self.next_violation_sample = g + o.cfg.violation_sample_interval;
                }
            }
            if self.slack_profile.len() < SLACK_PROFILE_CAP {
                self.slack_profile.push((g, slack_now));
            } else {
                self.engine.slack_profile_truncated += 1;
            }
        }
        // Read before the drain: a core publishes its events before its
        // parked state, so a core seen parked here has nothing left in its
        // ring that this drain could miss (see `quiescent` below).
        let idle_before_drain = self.board.active_count() == 0;
        let mut ingested = 0usize;
        let drain_t0 = obs.as_ref().map(|o| o.trace.now_us());
        for (c, q) in self.out_consumers.iter_mut().enumerate() {
            loop {
                st.drain_scratch.clear();
                if q.drain_into(&mut st.drain_scratch, usize::MAX) == 0 {
                    break;
                }
                ingested += st.drain_scratch.len();
                if let Some(o) = &obs {
                    o.manager.drain_batch.record(st.drain_scratch.len() as u64);
                }
                self.uncore.ingest_batch(c, &st.drain_scratch);
            }
        }
        if ingested > 0 {
            if let (Some(o), Some(t0)) = (&obs, drain_t0) {
                o.manager.events_ingested.add(ingested as u64);
                o.trace.span(o.trace.manager_lane(), "drain", t0);
            }
        }
        // When no core is actively driving global time (all blocked in
        // sync calls / parked / finished), advance the processing
        // horizon to the earliest queued event so barrier arrivals can
        // complete and release the waiters. Quiescence must hold from
        // before the drain: a core that parks during it may have pushed
        // an event this drain missed (say, a lock request at the same
        // timestamp as the ones drained), and the raised horizon would
        // then decide that contest by host timing.
        let quiescent = idle_before_drain && self.board.active_count() == 0;
        let mut g_eff =
            if quiescent { self.uncore.min_pending_ts().map_or(g, |t| g.max(t)) } else { g };
        if let Some(c) = until {
            // The horizon never passes the safe-point: events due
            // after it belong to the next segment (and are carried
            // in the snapshot's GQ).
            g_eff = g_eff.min(c);
        }
        if quiescent {
            // Sync-blocked cores cannot complete the current quantum;
            // process pending events directly so they can be released.
            self.uncore.process_all_upto(g_eff);
        } else {
            self.uncore.process_ready(g_eff);
        }
        if st.serve_shards {
            self.serve_shards(g, st);
        }
        // Windows derive from the *true* global time: g_eff is only a
        // processing horizon and may sit on a future event timestamp —
        // deriving windows from it would let cores tick past
        // global + slack, breaking the discipline. With sharded
        // managers and an ordered scheme, windows additionally hold
        // back to the slowest shard's processed frontier so no core
        // outruns an undelivered reply. The adaptive controller (eager
        // ordering) clamps against the inter-shard frontier too: its
        // budget then bounds run-ahead past *delivered* time, keeping
        // the closed loop's error model honest under sharding.
        let g_window =
            if st.ordered_scheme || (self.adapt.is_some() && !self.shard_frontiers.is_empty()) {
                let fmin_of = |fs: &[Arc<AtomicU64>]| {
                    fs.iter().map(|f| f.load(Ordering::Acquire)).min().unwrap_or(g)
                };
                let mut fmin = fmin_of(&self.shard_frontiers);
                // A frontier behind global clamps the window below what the
                // scheme would grant. In threaded mode the stall is resolved
                // by *other threads* (the lagging shards), so signal them and
                // yield a bounded number of times instead of falling into the
                // idle backoff — a grant path paced by park timeouts costs
                // hundreds of microseconds per simulated cycle under CC. The
                // cooperative backend must not spin: its shard tasks cannot
                // run until this iteration returns.
                if fmin < g && !st.spin_on_frontier {
                    // Cooperative backend: spinning is useless (the lagging
                    // shard's task cannot run until this iteration returns),
                    // but its pending flag must still be raised — the
                    // deterministic scheduler's signal-gated shard picks
                    // (or, under zero slack, the next pass's inline
                    // service) would otherwise skip the very iterate that
                    // publishes the frontier this window is clamped on.
                    for (s, f) in self.shard_frontiers.iter().enumerate() {
                        if f.load(Ordering::Acquire) < g {
                            self.shard_signals[s].ring();
                        }
                    }
                } else if fmin < g {
                    // Spin time is blocked-on-other-threads time, not
                    // serialized coordinator work: book it separately so
                    // occupancy readers can subtract it from `busy_ns`.
                    let t_spin = obs.as_ref().map(|_| std::time::Instant::now());
                    for _ in 0..64 {
                        for (s, f) in self.shard_frontiers.iter().enumerate() {
                            if f.load(Ordering::Acquire) < g {
                                self.shard_signals[s].ring();
                            }
                        }
                        std::thread::yield_now();
                        fmin = fmin_of(&self.shard_frontiers);
                        if fmin >= g {
                            break;
                        }
                    }
                    if let (Some(o), Some(t)) = (&obs, t_spin) {
                        o.manager.frontier_wait_ns.add(t.elapsed().as_nanos() as u64);
                    }
                }
                g.min(fmin)
            } else {
                g
            };
        let mut w = if let Some(ctrl) = self.adapt.as_mut() {
            // Closed loop (see `crate::adapt`): feed this iteration's
            // slack sample, then once per control epoch decide from the
            // cumulative violation and park counters. The published
            // window is `global + window ≤ global + budget`, and the
            // board only ever extends a bound already published, so the
            // scheme's `slack_bound()` holds along any trajectory.
            ctrl.observe_slack(slack_now);
            if ctrl.due(g) {
                let viols = self.tracker.as_ref().map_or(0, |t| {
                    t.stats.store_past_load.load(Ordering::Relaxed)
                        + t.stats.load_past_store.load(Ordering::Relaxed)
                });
                let parks = self.board.blocks.load(Ordering::Relaxed);
                let decision = ctrl.step(g, viols, parks);
                self.engine.adapt_epochs += 1;
                match decision {
                    AdaptDecision::Raise => self.engine.adapt_raises += 1,
                    AdaptDecision::Lower => self.engine.adapt_lowers += 1,
                    AdaptDecision::Hold => {}
                }
                if let Some(o) = &obs {
                    match decision {
                        AdaptDecision::Raise => o.manager.adapt_raise.inc(),
                        AdaptDecision::Lower => o.manager.adapt_lower.inc(),
                        AdaptDecision::Hold => o.manager.adapt_hold.inc(),
                    }
                    o.manager.adapt_window.record(ctrl.window());
                }
            }
            self.engine.adapt_final_window = ctrl.window();
            g_window.saturating_add(ctrl.window())
        } else {
            self.uncore.window(g_window)
        };
        if let Some(c) = until {
            // The core-side limit would clamp anyway; capping the
            // published window spares pointless wake-and-recheck
            // cycles on cores already parked at the safe-point.
            w = w.min(c);
        }
        // Fault injection (see `Engine::inject_window_bug`): a deliberately
        // over-raised window lets cores escape the slack discipline, which
        // the conformance suite must detect. Zero in every real run.
        w = w.saturating_add(self.window_bug_extra);
        if w > self.last_window {
            if self.shards.is_empty() || !st.spin_on_frontier {
                // Single manager — or the cooperative backend, where the
                // grant indirection would cost one scheduler hop per
                // shard with no parallelism to win (every task shares
                // one host thread). Raising is monotone and
                // liveness-only, so who raises never changes simulated
                // results; shards seeing a grant at or below an
                // already-raised window simply no-op.
                for c in 0..n {
                    self.board.raise_max_local(c, w);
                }
            } else {
                // Sharded clock domains: publish one monotone grant and
                // let every shard raise its own domain, so the raise loop
                // parallelizes with the shard count instead of serializing
                // here. Late application is liveness-only (see `MemShard`).
                self.window_grant.store(w, Ordering::Release);
                for sig in &self.shard_signals {
                    sig.ring();
                }
            }
            self.last_window = w;
        }
        self.uncore.flush_overflow();
        self.uncore.flush_wakeups();

        if all_done {
            if std::env::var_os("SK_TRACE").is_some() {
                eprintln!("[mgr] stop: all_done at g={g}");
            }
            return MgrVerdict::Finish;
        }
        if let Some(c) = until {
            if ready_before && ingested == 0 && self.checkpoint_ready(c) {
                st.ready_streak += 1;
                if st.ready_streak >= 2 {
                    return MgrVerdict::CheckpointReady;
                }
            } else {
                st.ready_streak = 0;
            }
        }
        let deadlockable =
            quiescent && !self.board.any_mem_waiting() && self.uncore.min_pending_ts().is_none();
        if let StopCondition::RoiInstructions(limit) = self.cfg.stop {
            if self.roi.committed.load(Ordering::Relaxed) >= limit {
                return MgrVerdict::Finish;
            }
        }
        if g >= self.cfg.max_cycles {
            if std::env::var_os("SK_TRACE").is_some() {
                eprintln!("[mgr] stop: max_cycles at g={g}");
            }
            return MgrVerdict::Finish;
        }
        if self.board.stopping() {
            if std::env::var_os("SK_TRACE").is_some() {
                eprintln!("[mgr] stop: stopping at g={g}");
            }
            return MgrVerdict::Finish;
        }
        MgrVerdict::Continue { ingested, deadlockable }
    }

    /// Serve the memory shards inside this manager pass: iterate every
    /// shard that was signalled or whose frontier lags `g`. The
    /// deterministic backend does this under zero-slack schemes, where no
    /// schedule can change the report, so where a shard runs is free; as
    /// separate tasks the shards cost about four scheduler picks and a
    /// second, frontier-clamped manager pass per simulated cycle. Host
    /// time is booked to each shard's `busy_ns`, not the manager's.
    fn serve_shards(&mut self, g: u64, st: &mut MgrState) {
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let signalled = self.shard_signals[s].take();
            if !signalled && shard.frontier.load(Ordering::Acquire) >= g {
                continue;
            }
            let t = self.obs.as_ref().map(|_| Instant::now());
            st.shard_progress |= shard.iterate();
            if let (Some(o), Some(t)) = (&self.obs, t) {
                let ns = t.elapsed().as_nanos() as u64;
                o.shards[s].busy_ns.add(ns);
                st.shard_ns += ns;
            }
        }
    }

    /// Run one segment: spawn the core (and shard) threads, drive the
    /// manager loop, and tear the threads down again when the segment
    /// ends. With `until = None` the segment runs to the natural end of
    /// the simulation. With `until = Some(c)` the checkpoint limit caps
    /// every clock at `c` and the segment ends at the safe-point (or
    /// earlier, if the simulation finishes first — the outcome says
    /// which).
    ///
    /// `until` must not lie in the past of any core's clock.
    pub fn run_until(&mut self, until: Option<u64>) -> RunOutcome {
        if self.finished {
            return RunOutcome::Finished;
        }
        if let Some(c) = until {
            assert!(
                self.cores.iter().all(|core| core.local() <= c),
                "checkpoint cycle {c} is in the past of a core clock"
            );
            self.board.set_checkpoint_limit(c);
        } else {
            self.board.clear_checkpoint_limit();
        }
        self.board.reset_stop();

        let n = self.cfg.n_cores;
        let ordered_scheme = self.ordered_sharded();
        let t0 = Instant::now();
        // Time the manager has been continuously quiescent with nothing to
        // do while unfinished cores exist: a workload deadlock (e.g. a
        // barrier that can never be released). Global time is frozen in
        // that state, so the max_cycles backstop alone cannot fire.
        let mut quiet_since: Option<Instant> = None;
        let mut outcome = RunOutcome::Finished;

        let cores = std::mem::take(&mut self.cores);
        let shards = std::mem::take(&mut self.shards);
        let obs = self.obs.clone();
        std::thread::scope(|s| {
            let handles: Vec<_> = cores
                .into_iter()
                .map(|mut core| {
                    let board = self.board.clone();
                    s.spawn(move || {
                        core.run(&board);
                        core
                    })
                })
                .collect();
            let shard_handles: Vec<_> = shards
                .into_iter()
                .map(|shard| {
                    let sig = self.shard_signals[shard.index].clone();
                    s.spawn(move || shard.run(sig))
                })
                .collect();

            // ---- the manager thread (paper §2.1) ----
            // Adaptive pacing state: see IDLE_WAIT_MIN/MAX above.
            let mut idle_wait = IDLE_WAIT_MIN;
            let mut st = MgrState::new(n, ordered_scheme);
            st.spin_on_frontier = true;
            loop {
                let signalled = self.board.manager_wait(idle_wait);
                if self.cancel.load(Ordering::Relaxed) {
                    outcome = RunOutcome::Cancelled;
                    break;
                }
                if let Some(o) = &obs {
                    o.manager.iterations.inc();
                    if !signalled {
                        o.manager.backoff_us.record(idle_wait.as_micros() as u64);
                    }
                }
                let t_iter = obs.as_ref().map(|_| Instant::now());
                let verdict = self.manager_iter(until, &mut st);
                if let (Some(o), Some(t)) = (&obs, t_iter) {
                    // Manager occupancy: time actually spent in iteration
                    // bodies (excludes parked time), the serialization
                    // signal the scaleout bench watches.
                    o.manager.busy_ns.add(t.elapsed().as_nanos() as u64);
                }
                match verdict {
                    MgrVerdict::Finish => break,
                    MgrVerdict::CheckpointReady => {
                        outcome = RunOutcome::CheckpointReady;
                        break;
                    }
                    MgrVerdict::Continue { ingested, deadlockable } => {
                        // Pacing: a signal or drained events means the
                        // pipeline is flowing — stay responsive. Otherwise
                        // back off exponentially; the first signal_manager
                        // ends the park immediately.
                        if signalled || ingested > 0 {
                            idle_wait = IDLE_WAIT_MIN;
                        } else {
                            idle_wait = (idle_wait * 2).min(IDLE_WAIT_MAX);
                        }
                        if deadlockable {
                            let since = *quiet_since.get_or_insert_with(Instant::now);
                            if since.elapsed() > DEADLOCK_AFTER {
                                // Continuous quiescence: the workload is
                                // deadlocked (sync-blocked with nothing in
                                // flight).
                                break;
                            }
                        } else {
                            quiet_since = None;
                        }
                    }
                }
            }
            // Checkpoint (and cancellation) teardown deliberately skips the
            // `Stop` broadcast: a `Stop` in an InQ would poison `stop_seen`
            // in restored or continued cores. The stop flag alone unblocks
            // every parked thread.
            if outcome == RunOutcome::Finished {
                self.uncore.broadcast_stop();
            }
            self.board.stop_all();
            for sig in &self.shard_signals {
                sig.ring();
            }

            self.cores =
                handles.into_iter().map(|h| h.join().expect("core thread panicked")).collect();
            self.shards = shard_handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect();
            if outcome == RunOutcome::Finished {
                self.final_drain();
            }
        });
        self.wall += t0.elapsed();
        if self.obs.is_some() {
            self.uncore.publish_obs();
        }
        if outcome == RunOutcome::Finished {
            self.finished = true;
        }
        outcome
    }

    /// Final drain at the true end of a run, so late events (Exit,
    /// statistics) are accounted. Shared by both backends' teardown.
    pub(crate) fn final_drain(&mut self) {
        let mut scratch: Vec<OutEvent> = Vec::new();
        for (c, q) in self.out_consumers.iter_mut().enumerate() {
            loop {
                scratch.clear();
                if q.drain_into(&mut scratch, usize::MAX) == 0 {
                    break;
                }
                self.uncore.ingest_batch(c, &scratch);
            }
        }
        self.uncore.process_ready(u64::MAX);
    }

    /// Serialize the complete simulated system. Call at a safe-point: a
    /// fresh engine (nothing run yet), after `run_until(Some(c))` returned
    /// [`RunOutcome::CheckpointReady`], or after the simulation finished.
    ///
    /// Unsupported configurations (trace recording) return
    /// [`SnapError::Unsupported`] — they keep state in host-side
    /// structures this format does not carry.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, SnapError> {
        if self.cfg.record_trace {
            return Err(SnapError::Unsupported(
                "trace-recording runs cannot be snapshotted".into(),
            ));
        }
        // Move every in-flight message into serializable structures:
        // cores re-offer overflowed events to their rings, shards drain
        // and process them (sound at a safe-point — every queued event's
        // timestamp is ≤ the checkpoint cycle, and `finish` preserves
        // `(ts, core, seq)` order), overflowed replies retry into the
        // rings, and cores drain the rings into their timestamp heaps,
        // until every level is empty.
        for _ in 0..1024 {
            for core in self.cores.iter_mut() {
                core.flush_rings();
            }
            for sh in self.shards.iter_mut() {
                sh.finish();
            }
            self.uncore.flush_overflow();
            for core in self.cores.iter_mut() {
                core.drain_pending();
            }
            if self.uncore.overflow_empty()
                && self.shards.iter().all(|s| s.deliveries_flushed())
                && self.cores.iter().all(|c| !c.overflow_pending())
            {
                break;
            }
        }
        if !self.uncore.overflow_empty()
            || !self.shards.iter().all(|s| s.deliveries_flushed())
            || self.cores.iter().any(|c| c.overflow_pending())
        {
            return Err(SnapError::Unsupported(
                "in-flight messages failed to drain at the safe-point".into(),
            ));
        }
        let mut w = Writer::with_capacity(1 << 16);
        self.cfg.save(&mut w);
        self.scheme.save(&mut w);
        w.put_u64(self.board.global());
        w.put_usize(self.cores.len());
        for core in &self.cores {
            w.put_u64(core.local());
        }
        self.mem.save(&mut w);
        // v3: the text length lets resume rebuild the predecode table
        // straight from functional memory (the image holds encoded text).
        w.put_usize(self.text_len);
        match &self.tracker {
            None => w.put_bool(false),
            Some(t) => {
                w.put_bool(true);
                t.save(&mut w);
            }
        }
        w.put_bool(self.roi.active.load(Ordering::Relaxed));
        w.put_u64(self.roi.committed.load(Ordering::Relaxed));
        let mut es = self.engine;
        es.blocks += self.board.blocks.load(Ordering::Relaxed);
        es.wakeups += self.board.wakeups.load(Ordering::Relaxed);
        es.save(&mut w);
        for core in &self.cores {
            core.save_state(&mut w);
        }
        self.uncore.save_state(&mut w);
        // v6: sharded memory-manager state (count is zero when unsharded).
        w.put_usize(self.shards.len());
        for sh in &self.shards {
            sh.save_state(&mut w);
        }
        // v5: adaptive-controller state, so a resumed run continues the
        // control loop mid-epoch bit-exactly instead of re-ramping.
        match &self.adapt {
            None => w.put_bool(false),
            Some(c) => {
                w.put_bool(true);
                c.save(&mut w);
            }
        }
        match &self.obs {
            None => w.put_bool(false),
            Some(o) => {
                // Ratchet the ring high-water marks into the hub before it
                // is serialized, so the snapshot carries current values.
                self.uncore.publish_obs();
                for core in self.cores.iter_mut() {
                    core.publish_obs();
                }
                w.put_bool(true);
                o.save(&mut w);
            }
        }
        Ok(sk_snap::seal(&w.into_bytes()))
    }

    /// [`Engine::snapshot`] straight to a file (write-then-rename, so a
    /// crash never leaves a torn image under the target name).
    pub fn snapshot_to_file(&mut self, path: &std::path::Path) -> Result<(), SnapError> {
        let bytes = self.snapshot()?; // already sealed
        let tmp = path.with_extension("snap.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// [`Engine::resume`] from a snapshot file.
    pub fn resume_from_file(
        path: &std::path::Path,
        scheme_override: Option<Scheme>,
    ) -> Result<Engine, SnapError> {
        let bytes = std::fs::read(path)?;
        Engine::resume(&bytes, scheme_override)
    }

    /// Reconstruct an engine from [`Engine::snapshot`] bytes, optionally
    /// forking onto a different scheme. All validation errors come back as
    /// [`SnapError`]s — a damaged or wrong-version snapshot never panics.
    pub fn resume(bytes: &[u8], scheme_override: Option<Scheme>) -> Result<Engine, SnapError> {
        let payload = sk_snap::open(bytes)?;
        let mut r = Reader::new(payload);
        let cfg = TargetConfig::load(&mut r)?;
        let saved_scheme = Scheme::load(&mut r)?;
        let scheme = scheme_override.unwrap_or(saved_scheme);
        if cfg.record_trace {
            return Err(SnapError::Unsupported(
                "snapshot claims a configuration that cannot be snapshotted".into(),
            ));
        }
        let g = r.get_u64()?;
        let nl = r.get_count(8)?;
        if nl != cfg.n_cores {
            return Err(SnapError::Corrupt(format!("{nl} core clocks for {} cores", cfg.n_cores)));
        }
        let mut locals = Vec::with_capacity(nl);
        for _ in 0..nl {
            locals.push(r.get_u64()?);
        }
        // Qualified: FuncMemory's inherent `load(image)` shadows the trait.
        let mem = <FuncMemory as Persist>::load(&mut r)?;
        let text_len = r.get_usize()?;
        // Rebuild the predecode table from the text words in functional
        // memory (the cores only ever read it, so it is image-identical).
        let text = Arc::new(DecodedProgram::from_words(
            (0..text_len).map(|i| mem.read(Program::text_addr(i))),
        ));
        // The superblock table is derived from the text: rebuild, never load.
        let sbt = cfg.superblocks.then(|| Arc::new(SuperblockTable::build(&text)));
        let tracker =
            if r.get_bool()? { Some(Arc::new(ConflictTracker::load(&mut r)?)) } else { None };
        let wants_tracker = cfg.track_workload_violations || cfg.fast_forward_compensation;
        if tracker.is_some() != wants_tracker {
            return Err(SnapError::Corrupt(
                "conflict-tracker presence disagrees with the configuration".into(),
            ));
        }
        let roi = Arc::new(RoiState::default());
        let roi_active = r.get_bool()?;
        let roi_committed = r.get_u64()?;
        roi.active.store(roi_active, Ordering::Relaxed);
        roi.committed.store(roi_committed, Ordering::Relaxed);
        let engine_stats = EngineStats::load(&mut r)?;

        let board = Arc::new(ClockBoard::restored(&locals, g));
        // Sharded plumbing mirrors `Engine::new`: fresh rings (empty at a
        // safe-point by construction), fresh signals, restored state.
        let n_shards = cfg.mem_shards;
        let window_grant = Arc::new(AtomicU64::new(0));
        let mut ev_consumers: Vec<Vec<spsc::Consumer<OutEvent>>> =
            (0..n_shards).map(|_| Vec::new()).collect();
        let mut reply_producers: Vec<Vec<spsc::Producer<InMsg>>> =
            (0..n_shards).map(|_| Vec::new()).collect();
        let shard_signals: Vec<Arc<crate::shard::ShardSignal>> =
            (0..n_shards).map(|_| Arc::new(crate::shard::ShardSignal::default())).collect();
        let dirty_masks: Vec<Arc<Vec<AtomicU64>>> = (0..n_shards)
            .map(|_| Arc::new((0..cfg.n_cores.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()))
            .collect();
        let mut cores = Vec::with_capacity(cfg.n_cores);
        let mut out_consumers = Vec::with_capacity(cfg.n_cores);
        let mut in_producers = Vec::with_capacity(cfg.n_cores);
        for (id, &local) in locals.iter().enumerate() {
            let (in_p, in_c) = spsc::channel(cfg.queue_capacity);
            let (out_p, out_c) = spsc::channel(cfg.queue_capacity);
            let mut cpu = build_cpu(&cfg);
            if let Some(t) = &sbt {
                cpu.attach_superblocks(t.clone());
            }
            let mut core = CoreSim::new(
                id,
                &cfg,
                cpu,
                in_c,
                out_p,
                mem.clone(),
                text.clone(),
                tracker.clone(),
                roi.clone(),
            );
            core.set_batch_cap(scheme.batch_cap());
            if n_shards > 0 {
                let mut my_reply_rings = Vec::new();
                let mut my_event_rings = Vec::new();
                for s in 0..n_shards {
                    let (ev_p, ev_c) = spsc::channel(cfg.queue_capacity);
                    let (rep_p, rep_c) = spsc::channel(cfg.queue_capacity);
                    ev_consumers[s].push(ev_c);
                    reply_producers[s].push(rep_p);
                    my_event_rings.push(ev_p);
                    my_reply_rings.push(rep_c);
                }
                core.attach_shards(
                    my_reply_rings,
                    my_event_rings,
                    shard_signals.clone(),
                    dirty_masks.clone(),
                );
            }
            core.restore_state(&mut r)?;
            if core.local() != local {
                return Err(SnapError::Corrupt(format!(
                    "core {id} clock {} disagrees with the board clock {}",
                    core.local(),
                    local
                )));
            }
            cores.push(core);
            out_consumers.push(out_c);
            in_producers.push(in_p);
        }
        let mut uncore = Uncore::new(&cfg, scheme, in_producers, Some(board.clone()), mem.clone());
        uncore.restore_state(&mut r)?;
        // v6: sharded memory-manager state.
        let ns = r.get_usize()?;
        if ns != n_shards {
            return Err(SnapError::Corrupt(format!(
                "{ns} shard states for a {n_shards}-shard configuration"
            )));
        }
        let mut shards = Vec::with_capacity(ns);
        for (s, (evc, repp)) in ev_consumers.into_iter().zip(reply_producers).enumerate() {
            let mut sh = crate::shard::MemShard::new(
                s,
                &cfg,
                scheme,
                evc,
                repp,
                board.clone(),
                window_grant.clone(),
                dirty_masks[s].clone(),
            );
            sh.restore_state(&mut r)?;
            shards.push(sh);
        }
        let shard_frontiers: Vec<_> = shards.iter().map(|s| s.frontier.clone()).collect();
        let saved_adapt = if r.get_bool()? { Some(SlackController::load(&mut r)?) } else { None };
        // Same budget ⇒ the loop continues mid-epoch exactly where it
        // stopped; a fork onto a different budget (or onto Adaptive from
        // a static snapshot) starts a fresh controller, like any other
        // scheme change.
        let adapt = match scheme {
            Scheme::Adaptive { budget } => match saved_adapt {
                Some(c) if c.budget() == budget => Some(c),
                _ => Some(SlackController::new(budget)),
            },
            _ => None,
        };
        let obs = if r.get_bool()? {
            let m = Metrics::load(&mut r)?;
            if m.n_cores() != cfg.n_cores {
                return Err(SnapError::Corrupt(format!(
                    "metrics hub for {} cores in a {}-core snapshot",
                    m.n_cores(),
                    cfg.n_cores
                )));
            }
            Some(Arc::new(m))
        } else {
            None
        };
        r.finish()?;
        // A fork onto an eager scheme must not strand events that were
        // queued under the snapshot's ordered discipline.
        uncore.adopt_queued_for_scheme();

        let mut engine = Engine {
            cfg,
            scheme,
            mem,
            cores,
            out_consumers,
            uncore,
            board,
            tracker,
            roi,
            shards,
            shard_signals,
            shard_frontiers,
            window_grant,
            engine: engine_stats,
            slack_profile: Vec::new(),
            last_window: 0,
            wall: Duration::ZERO,
            finished: false,
            obs: None,
            next_violation_sample: 0,
            text_len,
            sbt,
            adapt,
            window_bug_extra: 0,
            cancel: Arc::new(AtomicBool::new(false)),
        };
        // Re-wire the restored hub through every layer (restore_state
        // rebuilt the uncore's sync table without its obs handle).
        if let Some(o) = obs {
            engine.attach_metrics(o);
        }
        Ok(engine)
    }

    /// Finalize the cores and assemble the run's [`SimReport`].
    pub fn into_report(mut self) -> SimReport {
        self.engine.blocks += self.board.blocks.load(Ordering::Relaxed);
        self.engine.wakeups += self.board.wakeups.load(Ordering::Relaxed);
        self.engine.events_processed = self.uncore.events_processed
            + self.shards.iter().map(|s| s.events_processed).sum::<u64>();
        self.engine.final_quantum = self.uncore.current_quantum();

        let outputs: Vec<CoreOutput> = self.cores.into_iter().map(|c| c.into_output()).collect();
        let violations = violation_report(&self.tracker);
        let mut report = assemble_report(
            self.scheme,
            &self.cfg,
            outputs,
            &self.uncore,
            self.engine,
            violations,
            self.wall,
        );
        report.slack_profile = Some(self.slack_profile);
        // Merge sharded directory/interconnect statistics.
        for sh in &self.shards {
            let d = sh.dir_stats();
            let r = &mut report.dir;
            r.gets += d.gets;
            r.getm += d.getm;
            r.upgrades += d.upgrades;
            r.puts += d.puts;
            r.invalidations_out += d.invalidations_out;
            r.downgrades_out += d.downgrades_out;
            r.l2_hits += d.l2_hits;
            r.l2_misses += d.l2_misses;
            r.writebacks += d.writebacks;
            r.transition_inversions += d.transition_inversions;
            let b = sh.bus_stats();
            report.bus.grants += b.grants;
            report.bus.conflicts += b.conflicts;
            report.bus.wait_cycles += b.wait_cycles;
            report.bus.inversions += b.inversions;
        }
        report
    }
}

/// Run `program` on the parallel engine under `scheme`.
///
/// One host thread per target core plus a manager thread, exactly as in
/// the paper ("simulation is composed of 9 POSIX threads that simulate an
/// 8-core target CMP"). With `cfg.mem_shards > 0`, additional sharded
/// memory-manager threads carry the directory/L2 work (the paper's §2.2
/// "split the manager" suggestion; see `crate::shard`).
pub fn run_parallel(program: &Program, scheme: Scheme, cfg: &TargetConfig) -> SimReport {
    let mut engine = Engine::new(program, scheme, cfg);
    engine.run_until(None);
    engine.into_report()
}
