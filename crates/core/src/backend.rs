//! Execution backends: the threaded engine and the deterministic
//! single-threaded schedule explorer.
//!
//! The parallel engine ([`crate::engine`]) runs N core Pthreads plus a
//! manager Pthread; the host OS scheduler picks the interleaving, so two
//! runs of a racy scheme differ. [`DetEngine`] runs the *same* cores and
//! the *same* manager iteration body ([`Engine::manager_iter`] via
//! [`CoreSim::run_step`]) as cooperative tasks on one thread, with every
//! "who steps next" decision delegated to a seedable [`Interleaver`]:
//!
//! * same seed ⇒ bit-identical simulation, including every violation
//!   counter — a failing schedule is a replayable artifact;
//! * different seeds ⇒ different *legal* interleavings of the same run,
//!   turning the violation tracker and the conformance suite into a
//!   schedule-fuzzing oracle (see `--det-schedules` in the CLI);
//! * the conservative schemes (CC, Q, L, adaptive) are schedule-
//!   independent by construction, so any seed must reproduce the threaded
//!   run byte for byte — asserted by `tests/conformance.rs`.
//!
//! Where the schedule cannot show in the report, the scheduler offers
//! only tasks that can move (`runnable_tasks`): under a zero-slack scheme
//! (CC) a core at its window edge is left out, and the manager is offered
//! only when no core or shard can move. Slack schemes keep the full pick
//! space, which committed schedule seeds replay.
//!
//! Blocking points map one-to-one: where a threaded core would park on a
//! condvar, `run_step` publishes the parked state on the [`ClockBoard`]
//! and returns; the scheduler simply stops picking that core until the
//! manager's reply (or a window raise) makes it runnable again. The
//! threaded backend's 10 ms liveness timeout — a *progress mechanism*
//! under barrier schemes, not just a watchdog — becomes a deterministic
//! "virtual timeout": after a fixed number of fruitless picks the
//! scheduler resumes every waiting core via
//! [`ClockBoard::unpark_all_waiting`], with identical re-park semantics.

use crate::clock::{ClockBoard, CoreState};
use crate::config::TargetConfig;
use crate::core_thread::StepOutcome;
use crate::engine::{Engine, MgrState, MgrVerdict, RunOutcome};
use crate::scheme::Scheme;
use crate::shard::ShardSignal;
use crate::stats::SimReport;
use sk_det::{Interleaver, PickHook};
use sk_isa::Program;
use std::sync::Arc;
use std::time::Instant;

/// Which machinery executes a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecBackend {
    /// One host Pthread per target core plus a manager thread (the
    /// paper's execution model; the default).
    Threads,
    /// All cores and the manager as cooperative tasks on one thread,
    /// interleaved by a seeded PRNG ([`DetEngine`]).
    Deterministic {
        /// Schedule seed: same seed ⇒ bit-identical run.
        seed: u64,
    },
}

impl ExecBackend {
    /// Run `program` under `scheme` on this backend.
    pub fn run(self, program: &Program, scheme: Scheme, cfg: &TargetConfig) -> SimReport {
        match self {
            ExecBackend::Threads => crate::engine::run_parallel(program, scheme, cfg),
            ExecBackend::Deterministic { seed } => run_det(program, scheme, cfg, seed),
        }
    }
}

/// Consecutive fruitless scheduler picks (no core progressed, manager
/// ingested nothing) before the scheduler forces a manager iteration and,
/// if that also yields nothing, fires the virtual timeout. Scaled by task
/// count at runtime; the constant only sets the per-task factor.
const STALL_FACTOR: usize = 4;

/// Forced-manager rounds with no progress before the run is declared
/// livelocked (a bug in the engine, not the workload — workload deadlock
/// is detected separately via `deadlockable`, exactly like the threaded
/// backend's 100 ms quiescence timer).
const LIVELOCK_ROUNDS: u64 = 100_000;

/// The deterministic schedule-exploration backend.
///
/// Wraps an [`Engine`] and drives it to completion on the calling thread.
/// No host threads are spawned; all cross-task interaction goes through
/// the same SPSC rings and [`ClockBoard`](crate::clock::ClockBoard) states
/// as the threaded backend, so the simulated outcome differs only where
/// the *schedule* is allowed to matter (racy schemes' violation counts).
pub struct DetEngine {
    engine: Engine,
    il: Interleaver,
    /// Adaptive-controller decisions already folded into the interleaver
    /// (see [`DetEngine::fold_adapt_decisions`]).
    adapt_seen: u64,
}

impl DetEngine {
    /// Wire up a deterministic simulation of `program`.
    pub fn new(program: &Program, scheme: Scheme, cfg: &TargetConfig, seed: u64) -> DetEngine {
        DetEngine::from_engine(Engine::new(program, scheme, cfg), seed)
    }

    /// Adopt an existing engine (e.g. one restored from a snapshot).
    /// Sharded memory managers run as additional cooperative tasks;
    /// the cores' ring transport switches to nonblocking (overflow-queue)
    /// mode because the consumers share this one host thread — a full
    /// ring must yield to the scheduler, not spin.
    pub fn from_engine(mut engine: Engine, seed: u64) -> DetEngine {
        for core in engine.cores.iter_mut() {
            core.set_nonblocking_rings(true);
        }
        // A resumed adaptive engine arrives with decisions already made;
        // only decisions taken under *this* interleaver belong in its
        // schedule stream.
        let adapt_seen = engine.adapt_decisions().map_or(0, |(n, _)| n);
        DetEngine { engine, il: Interleaver::from_seed(seed), adapt_seen }
    }

    /// Draw every new closed-loop controller decision through the
    /// interleaver ([`sk_det::Interleaver::note_decision`]): the granted
    /// window enters the decision hash and the recorded schedule, so same
    /// seed ⇒ bit-identical adaptive run *including the window
    /// trajectory*, and a replayed schedule that diverges from the
    /// recorded trajectory is detectable by hash.
    fn fold_adapt_decisions(&mut self) {
        if let Some((n, w)) = self.engine.adapt_decisions() {
            while self.adapt_seen < n {
                self.adapt_seen += 1;
                self.il.note_decision(w);
            }
        }
    }

    /// The schedule seed.
    pub fn seed(&self) -> u64 {
        self.il.seed()
    }

    /// Scheduling decisions made so far.
    pub fn picks(&self) -> u64 {
        self.il.picks()
    }

    /// Running hash of all scheduling decisions: two runs with equal
    /// hashes (and pick counts) took the identical schedule.
    pub fn decision_hash(&self) -> u64 {
        self.il.decision_hash()
    }

    /// Record the exact pick log for later [`DetEngine::replay`].
    pub fn record_schedule(&mut self) {
        self.il.record();
    }

    /// The recorded pick log, if recording was enabled.
    pub fn recorded_schedule(&self) -> Option<&[u32]> {
        self.il.recorded()
    }

    /// Replay a previously recorded pick log (takes priority over the
    /// seed's RNG while entries remain).
    pub fn replay(&mut self, log: Vec<u32>) {
        self.il.replay(log);
    }

    /// Install a test-only pick override (see [`sk_det::PickHook`]).
    pub fn set_pick_hook(&mut self, hook: PickHook) {
        self.il.set_pick_hook(hook);
    }

    /// The wrapped engine (e.g. for `inject_window_bug` in tests).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Run the simulation to its natural end (workload exit, stop
    /// condition, max cycles, or workload deadlock). Checkpoint
    /// safe-points are a threads-backend feature; the deterministic
    /// backend always runs whole segments.
    pub fn run(&mut self) -> RunOutcome {
        if self.engine.finished {
            return RunOutcome::Finished;
        }
        self.engine.board.clear_checkpoint_limit();
        self.engine.board.reset_stop();

        let n = self.engine.cfg.n_cores;
        let board = self.engine.board.clone();
        let zero_slack = self.engine.scheme().slack_bound() == Some(0);
        let t0 = Instant::now();
        // Dispatch timing mirrors the threaded backend's busy_ns
        // accounting: on one host thread, busy_ns / wall is the *exact*
        // fraction of the schedule each role consumed — the noise-free
        // serialization measurement the scaleout bench reports.
        let obs = self.engine.metrics().cloned();
        let mut st = MgrState::new(n, self.engine.ordered_sharded());
        // Core i is permanently out of the schedule: its step returned
        // Stopped or Finished.
        let mut done = vec![false; n];
        // Core i parked as MemWait; its inert streak must be cleared when
        // it next steps (the threaded backend resets it after wait_parked).
        let mut mem_blocked = vec![false; n];
        let mut runnable: Vec<usize> = Vec::with_capacity(n + 1);
        // Fruitless picks since the last progress; `stall_after` fruitless
        // picks trigger one forced-manager round.
        let mut stall = 0usize;
        let stall_after = STALL_FACTOR * (n + 1);
        // Consecutive forced-manager rounds that found the system
        // deadlockable; two in a row = workload deadlock (mirrors the
        // threaded DEADLOCK_AFTER policy on a virtual clock).
        let mut deadlock_rounds = 0u32;
        // Forced-manager rounds with no progress at all since the last
        // progress; the livelock backstop.
        let mut barren_rounds = 0u64;

        'sim: loop {
            runnable_tasks(&mut runnable, &done, &board, &self.engine.shard_signals, zero_slack);
            let pick = runnable[self.il.pick(runnable.len())];
            let progressed = if pick == n {
                let t = obs.as_ref().map(|_| Instant::now());
                let verdict = self.engine.manager_iter(None, &mut st);
                if let (Some(o), Some(t)) = (&obs, t) {
                    o.manager.iterations.inc();
                    o.manager.busy_ns.add(t.elapsed().as_nanos() as u64);
                }
                self.fold_adapt_decisions();
                match verdict {
                    MgrVerdict::Finish | MgrVerdict::CheckpointReady => break 'sim,
                    MgrVerdict::Continue { ingested, .. } => ingested > 0,
                }
            } else if pick > n {
                let si = pick - n - 1;
                // Signal-gated: cores and the coordinator raise the
                // shard's pending flag on every state change it could
                // act on (event flush, window grant, frontier clamp),
                // so an unsignalled pick has nothing to do — skip the
                // O(n_cores) ring scan. Re-raise after a productive
                // iterate so residual work (held-back heap events,
                // parked overflow) gets another look.
                if self.engine.shard_signals[si].take() {
                    let t = obs.as_ref().map(|_| Instant::now());
                    let progressed = self.engine.shards[si].iterate();
                    if let (Some(o), Some(t)) = (&obs, t) {
                        o.shards[si].busy_ns.add(t.elapsed().as_nanos() as u64);
                    }
                    if progressed {
                        self.engine.shard_signals[si].signal();
                    }
                    progressed
                } else {
                    false
                }
            } else {
                if mem_blocked[pick] {
                    // Resumed after MemWait (reply delivered or virtual
                    // timeout): same streak reset as the threaded loop.
                    self.engine.cores[pick].clear_inert_streak();
                    mem_blocked[pick] = false;
                }
                match self.engine.cores[pick].run_step(&board) {
                    StepOutcome::Progressed => true,
                    StepOutcome::Stopped | StepOutcome::Finished => {
                        done[pick] = true;
                        true
                    }
                    StepOutcome::MemBlocked => {
                        mem_blocked[pick] = true;
                        false
                    }
                    StepOutcome::Idle | StepOutcome::SyncBlocked | StepOutcome::AtWindow => false,
                }
            };

            if progressed {
                stall = 0;
                deadlock_rounds = 0;
                barren_rounds = 0;
                continue;
            }
            stall += 1;
            if stall < stall_after {
                continue;
            }
            // Nothing has moved for a full round of picks: force a manager
            // iteration (it may raise a window or release a barrier) and a
            // round of every shard (it may apply a grant or deliver the
            // reply a MemWait core is parked on)…
            stall = 0;
            let t = obs.as_ref().map(|_| Instant::now());
            let verdict = self.engine.manager_iter(None, &mut st);
            if let (Some(o), Some(t)) = (&obs, t) {
                o.manager.busy_ns.add(t.elapsed().as_nanos() as u64);
            }
            self.fold_adapt_decisions();
            let mut shard_progress = false;
            for (si, sh) in self.engine.shards.iter_mut().enumerate() {
                let t = obs.as_ref().map(|_| Instant::now());
                shard_progress |= sh.iterate();
                if let (Some(o), Some(t)) = (&obs, t) {
                    o.shards[si].busy_ns.add(t.elapsed().as_nanos() as u64);
                }
            }
            match verdict {
                MgrVerdict::Finish | MgrVerdict::CheckpointReady => break 'sim,
                MgrVerdict::Continue { ingested, deadlockable } => {
                    if ingested > 0 || shard_progress {
                        deadlock_rounds = 0;
                        barren_rounds = 0;
                        continue;
                    }
                    barren_rounds += 1;
                    if deadlockable {
                        // Quiescent with nothing in flight. One sighting
                        // may be transient (a core parked between our
                        // drain and its publish is impossible here, but
                        // keep the threaded two-strike shape).
                        deadlock_rounds += 1;
                        if deadlock_rounds >= 2 {
                            break 'sim; // workload deadlock
                        }
                        continue;
                    }
                    deadlock_rounds = 0;
                    // …then fire the virtual timeout: resume every waiting
                    // core so it re-checks its queues and re-ticks, exactly
                    // what the threaded 10 ms backstop does (barrier-quantum
                    // schemes and self-scheduled core work need this to
                    // make progress).
                    board.unpark_all_waiting();
                    assert!(
                        barren_rounds < LIVELOCK_ROUNDS,
                        "deterministic scheduler livelocked (seed {}, {} picks): \
                         no task progressed for {} forced-manager rounds",
                        self.il.seed(),
                        self.il.picks(),
                        barren_rounds,
                    );
                }
            }
        }

        // Teardown, mirroring the threaded run_until: stop everything,
        // let each core publish its final state, account late events.
        // Sharded transports drain in rounds: overflowed core events
        // re-offer into the rings, shards consume and deliver, until the
        // queues are dry (bounded — nothing produces new work after stop).
        self.engine.uncore.broadcast_stop();
        board.stop_all();
        for core in self.engine.cores.iter_mut() {
            if core.finished() {
                board.finish(core.id());
            }
            core.publish_obs();
        }
        for _ in 0..1024 {
            let mut pending = false;
            for core in self.engine.cores.iter_mut() {
                pending |= !core.flush_rings();
            }
            for sh in self.engine.shards.iter_mut() {
                sh.finish();
            }
            self.engine.final_drain();
            if !pending {
                break;
            }
        }
        self.engine.wall += t0.elapsed();
        if self.engine.metrics().is_some() {
            self.engine.uncore.publish_obs();
        }
        self.engine.finished = true;
        RunOutcome::Finished
    }

    /// Finalize and assemble the run's report.
    pub fn into_report(self) -> SimReport {
        self.engine.into_report()
    }
}

/// Fill `runnable` with the tasks the interleaver may pick this turn:
/// core `i` (task `i`), the manager (task `n`) and memory shard `s`
/// (task `n + 1 + s`).
///
/// Finished and parked cores and unsignalled shards are never offered.
/// A core at its window edge can only answer `AtWindow`, so it is left
/// out in sharded runs (at 64+ cores these picks dominate) and under
/// zero-slack schemes (`slack_bound() == Some(0)`, i.e. CC), which also
/// offer the manager only when nothing else can move: their report is
/// the same under every schedule. Slack schemes keep the manager and,
/// unsharded, every running core: their pick stream is what committed
/// schedule seeds replay.
fn runnable_tasks(
    runnable: &mut Vec<usize>,
    done: &[bool],
    board: &ClockBoard,
    shard_signals: &[Arc<ShardSignal>],
    zero_slack: bool,
) {
    let n = done.len();
    let gate_window = zero_slack || !shard_signals.is_empty();
    runnable.clear();
    for (i, &core_done) in done.iter().enumerate() {
        let movable = !core_done
            && !matches!(
                board.state(i),
                CoreState::Parked | CoreState::SyncWait | CoreState::MemWait | CoreState::Finished
            )
            && (!gate_window || board.may_advance(i, board.local(i)));
        if movable {
            runnable.push(i);
        }
    }
    if !zero_slack {
        runnable.push(n);
    }
    for (s, signal) in shard_signals.iter().enumerate() {
        if signal.pending() {
            runnable.push(n + 1 + s);
        }
    }
    if runnable.is_empty() {
        runnable.push(n);
    }
}

/// Run `program` deterministically under `scheme` with schedule `seed`:
/// [`DetEngine::new`] + [`DetEngine::run`] + [`DetEngine::into_report`].
pub fn run_det(program: &Program, scheme: Scheme, cfg: &TargetConfig, seed: u64) -> SimReport {
    let mut det = DetEngine::new(program, scheme, cfg, seed);
    det.run();
    det.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sk_isa::{ProgramBuilder, Reg, Syscall};

    /// Two threads ping a lock-protected counter; thread 0 prints the sum.
    fn counter_program(n: usize, iters: i64) -> Program {
        let a0 = Reg::arg(0);
        let a1 = Reg::arg(1);
        let mut b = ProgramBuilder::new();
        let counter = b.zeros("counter", 1);
        let worker = b.new_label("worker");
        let main = b.here("main");
        b.li(a0, 0);
        b.sys(Syscall::InitLock);
        b.li(a0, 1);
        b.li(a1, n as i64);
        b.sys(Syscall::InitBarrier);
        for _ in 1..n {
            b.la_text(a0, worker);
            b.li(a1, 0);
            b.sys(Syscall::Spawn);
        }
        b.j(worker);
        b.bind(worker);
        let t_iter = Reg::saved(0);
        let t_addr = Reg::saved(1);
        let t_val = Reg::tmp(1);
        let t_inc = Reg::saved(2);
        b.li(t_iter, iters);
        b.li(t_addr, counter as i64);
        b.sys(Syscall::GetTid);
        b.addi(t_inc, a0, 1);
        let loop_top = b.here("loop");
        b.li(a0, 0);
        b.sys(Syscall::Lock);
        b.ld(t_val, t_addr, 0);
        b.add(t_val, t_val, t_inc);
        b.st(t_val, t_addr, 0);
        b.li(a0, 0);
        b.sys(Syscall::Unlock);
        b.addi(t_iter, t_iter, -1);
        b.bne(t_iter, Reg::ZERO, loop_top);
        b.li(a0, 1);
        b.sys(Syscall::Barrier);
        let done = b.new_label("done");
        b.sys(Syscall::GetTid);
        b.bne(a0, Reg::ZERO, done);
        b.ld(a0, t_addr, 0);
        b.sys(Syscall::PrintInt);
        b.bind(done);
        b.sys(Syscall::Exit);
        b.entry(main);
        b.build().unwrap()
    }

    fn cfg(n: usize) -> TargetConfig {
        let mut cfg = TargetConfig::small(n);
        cfg.max_cycles = 5_000_000;
        cfg
    }

    #[test]
    fn det_runs_a_locked_counter_to_completion() {
        let p = counter_program(3, 4);
        let r = run_det(&p, Scheme::CycleByCycle, &cfg(3), 1);
        assert_eq!(r.printed(), vec![(0, (1 + 2 + 3) * 4)]);
        assert_eq!(r.violations.total(), 0);
    }

    #[test]
    fn same_seed_is_bit_identical_including_schedule() {
        let p = counter_program(3, 4);
        let c = cfg(3);
        let mut a = DetEngine::new(&p, Scheme::BoundedSlack(10), &c, 7);
        let mut b = DetEngine::new(&p, Scheme::BoundedSlack(10), &c, 7);
        a.run();
        b.run();
        assert_eq!(a.picks(), b.picks());
        assert_eq!(a.decision_hash(), b.decision_hash());
        assert_eq!(a.into_report().fingerprint(), b.into_report().fingerprint());
    }

    #[test]
    fn different_seeds_take_different_schedules() {
        let p = counter_program(3, 4);
        let c = cfg(3);
        let mut a = DetEngine::new(&p, Scheme::BoundedSlack(10), &c, 1);
        let mut b = DetEngine::new(&p, Scheme::BoundedSlack(10), &c, 2);
        a.run();
        b.run();
        // The simulated outcome may or may not coincide; the schedules
        // themselves must differ for a multi-core run of this length.
        assert_ne!(a.decision_hash(), b.decision_hash());
        // …and both must still compute the right answer.
        assert_eq!(a.into_report().printed(), vec![(0, 24)]);
        assert_eq!(b.into_report().printed(), vec![(0, 24)]);
    }

    #[test]
    fn det_cc_matches_threaded_cc_byte_for_byte() {
        let p = counter_program(4, 3);
        let c = cfg(4);
        let threaded = crate::engine::run_parallel(&p, Scheme::CycleByCycle, &c);
        for seed in [0u64, 3, 99] {
            let det = run_det(&p, Scheme::CycleByCycle, &c, seed);
            assert_eq!(det.fingerprint(), threaded.fingerprint(), "seed {seed}");
        }
    }

    #[test]
    fn recorded_schedule_replays_identically() {
        let p = counter_program(3, 4);
        let c = cfg(3);
        let mut a = DetEngine::new(&p, Scheme::Unbounded, &c, 5);
        a.record_schedule();
        a.run();
        let log = a.recorded_schedule().unwrap().to_vec();
        let hash = a.decision_hash();
        let fp = a.into_report().fingerprint();

        // Replay under a different seed: the log drives every pick.
        let mut b = DetEngine::new(&p, Scheme::Unbounded, &c, 999);
        b.replay(log);
        b.run();
        assert_eq!(b.decision_hash(), hash);
        assert_eq!(b.into_report().fingerprint(), fp);
    }

    #[test]
    fn backend_enum_dispatches() {
        let p = counter_program(2, 2);
        let c = cfg(2);
        let t = ExecBackend::Threads.run(&p, Scheme::CycleByCycle, &c);
        let d = ExecBackend::Deterministic { seed: 0 }.run(&p, Scheme::CycleByCycle, &c);
        assert_eq!(t.fingerprint(), d.fingerprint());
    }
}
