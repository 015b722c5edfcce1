//! Sharded memory managers (the paper's §2.2 extension).
//!
//! > "If the simulation manager thread ever becomes a bottleneck it is
//! > possible to split the functionality of the manager thread also into
//! > several threads."
//!
//! This module implements that split: the *coordination* manager keeps the
//! clocks, windows, sync objects and thread placement, while the
//! lower-hierarchy memory work (directory + L2 banks) is partitioned over
//! `n` **memory-shard** threads by bank (`shard = bank mod n`). Each shard
//! owns its banks' directory state and an interconnect channel, consumes
//! per-core SPSC rings of memory events, and produces replies and
//! invalidations on per-core SPSC rings of its own.
//!
//! Ordering: within a shard, timestamp-ordered schemes process events in
//! `(ts, core, seq)` order behind the global-time horizon, exactly like
//! the single manager, and the coordinator holds ordered-scheme windows
//! back to the slowest shard's published **frontier** so no core ever
//! ticks past an undelivered reply. The result (asserted by tests): the
//! sharded engine is fully *deterministic* for every conservative scheme
//! at any shard count, and differs in timing from the single manager only
//! through the interconnect model — one occupancy channel per bank group
//! instead of one shared channel (sub-1% on the paper kernels, exactly
//! zero when the shared channel was uncontended). Eager schemes skip the
//! frontier (the paper's semantics have no such coupling) and simply gain
//! manager throughput — which measurably shrinks their host-induced
//! timing error.

use crate::clock::ClockBoard;
use crate::config::TargetConfig;
use crate::msg::{GlobalEvent, InKind, InMsg, OutEvent, OutKind};
use crate::scheme::{EventOrdering, Scheme};
use crate::spsc::{Consumer, Producer};
use sk_mem::l1::ReqKind;
use sk_mem::Directory;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Wakeup channel for one shard manager: cores ring it after landing
/// events, the coordinator after publishing a window grant or finding the
/// shard's frontier behind global time. A shard thread sleeps on it; the
/// deterministic backend only reads its pending flag — under slack schemes
/// to gate shard picks, under zero-slack schemes (CC) to decide which
/// shards its coordinator serves inline (see [`crate::backend`]).
pub type ShardSignal = crate::clock::Doorbell;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct OrderedEv(GlobalEvent);

impl Ord for OrderedEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}
impl PartialOrd for OrderedEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One memory-shard manager: a directory shard plus its queue endpoints.
pub struct MemShard {
    /// Shard index (owns banks where `bank % n_shards == index`).
    pub index: usize,
    scheme: Scheme,
    dir: Directory,
    ordered: std::collections::BinaryHeap<Reverse<OrderedEv>>,
    /// Event rings, one per core (this shard is the consumer).
    pub from_cores: Vec<Consumer<OutEvent>>,
    /// Dirty-core bitmask (word `c >> 6`, bit `c & 63`): core `c` sets
    /// its bit after landing an event in `from_cores[c]`; `iterate`
    /// swap-consumes the mask and drains only flagged rings, so the
    /// per-iteration cost scales with *active* cores, not `n_cores`.
    /// Soundness of skipping the rest rides on the frontier argument:
    /// any event with `ts <= g` — and its dirty bit — happens-before
    /// the local-clock advance that fed `g`, so reading `g` first makes
    /// the swap see every bit the frontier publication is about to
    /// vouch for.
    dirty: Arc<Vec<AtomicU64>>,
    /// Reply rings, one per core (this shard is the producer).
    to_cores: Vec<Producer<InMsg>>,
    overflow: Vec<VecDeque<InMsg>>,
    /// Total messages across `overflow` (skips the O(n_cores) scan).
    overflow_len: usize,
    /// Cores that received a reply since the last wakeup flush.
    wake_pending: Vec<bool>,
    /// Any bit set in `wake_pending` (skips the O(n_cores) scan).
    wake_any: bool,
    /// Reusable ring-drain buffer.
    scratch: Vec<OutEvent>,
    board: Arc<ClockBoard>,
    /// Global time through which this shard has processed *and delivered*
    /// every event (its frontier). The coordinator holds ordered-scheme
    /// windows back to the slowest shard frontier, which is what makes
    /// sharded conservative schemes deterministic: no core can tick past
    /// a timestamp whose events are still in flight.
    pub frontier: Arc<AtomicU64>,
    /// Cores in this shard's clock domain (`core % n_shards == index`).
    /// The coordinator publishes one window grant; each shard paces its
    /// own domain, so the O(n_cores) raise loop parallelizes with the
    /// shard count instead of serializing in the coordinator.
    domain: Vec<usize>,
    /// Latest window grant from the coordinator (monotone; see
    /// [`MemShard::iterate`]). Raising windows late never changes simulated
    /// results — cores simply stay blocked a little longer — so the grant
    /// path is liveness-only and needs no extra synchronization beyond the
    /// release/acquire pair on this cell.
    grant: Arc<AtomicU64>,
    /// Last grant applied to the domain.
    last_window: u64,
    /// Events processed by this shard.
    pub events_processed: u64,
    /// Optional telemetry hub (drain-batch histogram).
    obs: Option<Arc<sk_obs::Metrics>>,
}

impl MemShard {
    /// Assemble a shard.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        index: usize,
        cfg: &TargetConfig,
        scheme: Scheme,
        from_cores: Vec<Consumer<OutEvent>>,
        to_cores: Vec<Producer<InMsg>>,
        board: Arc<ClockBoard>,
        grant: Arc<AtomicU64>,
        dirty: Arc<Vec<AtomicU64>>,
    ) -> Self {
        let n_shards = cfg.mem_shards.max(1);
        MemShard {
            index,
            scheme,
            dir: Directory::new(cfg.n_cores, cfg.mem),
            ordered: Default::default(),
            from_cores,
            dirty,
            to_cores,
            overflow: (0..cfg.n_cores).map(|_| VecDeque::new()).collect(),
            overflow_len: 0,
            wake_pending: vec![false; cfg.n_cores],
            wake_any: false,
            scratch: Vec::new(),
            board,
            frontier: Arc::new(AtomicU64::new(0)),
            domain: (0..cfg.n_cores).filter(|c| c % n_shards == index).collect(),
            grant,
            last_window: 0,
            events_processed: 0,
            obs: None,
        }
    }

    /// Attach a telemetry hub (drain-batch sizes land in
    /// `manager.shard_batch`).
    pub fn set_obs(&mut self, obs: Arc<sk_obs::Metrics>) {
        self.obs = Some(obs);
    }

    fn push_to_core(&mut self, core: usize, msg: InMsg) {
        if self.overflow[core].is_empty() {
            if let Err(back) = self.to_cores[core].try_push(msg) {
                self.overflow[core].push_back(back);
                self.overflow_len += 1;
            }
        } else {
            self.overflow[core].push_back(msg);
            self.overflow_len += 1;
        }
        // Deferred to `flush_wakeups`: one unpark per core per iteration.
        self.wake_pending[core] = true;
        self.wake_any = true;
    }

    fn flush_wakeups(&mut self) {
        if !self.wake_any {
            return;
        }
        self.wake_any = false;
        for core in 0..self.wake_pending.len() {
            if self.wake_pending[core] {
                self.wake_pending[core] = false;
                self.board.unpark(core);
            }
        }
    }

    fn flush_overflow(&mut self) {
        if self.overflow_len == 0 {
            return;
        }
        for core in 0..self.overflow.len() {
            while let Some(msg) = self.overflow[core].front().copied() {
                match self.to_cores[core].try_push(msg) {
                    Ok(()) => {
                        self.overflow[core].pop_front();
                        self.overflow_len -= 1;
                    }
                    Err(_) => break,
                }
            }
        }
    }

    fn process_event(&mut self, ge: GlobalEvent) {
        self.events_processed += 1;
        let core = ge.core;
        let ts = ge.ev.ts;
        match ge.ev.kind {
            OutKind::DMem { req, block } => {
                let out = self.dir.handle(core, req, block, ts);
                for inv in &out.invalidations {
                    self.push_to_core(
                        inv.core,
                        InMsg {
                            ts: inv.ts,
                            kind: InKind::Invalidate { block: inv.block, downgrade: inv.downgrade },
                        },
                    );
                }
                if let Some(granted) = out.granted {
                    self.push_to_core(
                        core,
                        InMsg { ts: out.done_ts, kind: InKind::DMemReply { block, granted } },
                    );
                }
            }
            OutKind::IMem { block } => {
                let out = self.dir.handle(core, ReqKind::GetS, block, ts);
                for inv in &out.invalidations {
                    self.push_to_core(
                        inv.core,
                        InMsg {
                            ts: inv.ts,
                            kind: InKind::Invalidate { block: inv.block, downgrade: inv.downgrade },
                        },
                    );
                }
                self.push_to_core(
                    core,
                    InMsg { ts: out.done_ts, kind: InKind::IMemReply { block } },
                );
            }
            // Mirror of the coordinator's ROI reset: the core broadcasts the
            // marker into every shard stream, so pre-ROI warm-up traffic
            // vanishes from sharded directory totals exactly as it does from
            // the single manager's.
            OutKind::RoiBegin => self.dir.reset_stats(),
            // Memory shards receive only memory and ROI-marker events.
            _ => unreachable!("non-memory event routed to a shard"),
        }
    }

    /// One iteration: apply the coordinator's window grant to this shard's
    /// clock domain, drain rings, process per the scheme discipline.
    /// Returns `true` if any observable work happened (events drained or
    /// processed, deliveries flushed, windows raised, frontier advanced) —
    /// the deterministic backend's stall detector keys off this.
    pub fn iterate(&mut self) -> bool {
        let mut progressed = false;
        // Window pacing for this shard's clock domain: the coordinator
        // publishes one monotone grant, every shard fans it out to its own
        // cores. Late application is harmless (cores just block longer);
        // `raise_max_local` itself ignores lowering, so replays of a stale
        // grant are no-ops.
        let grant = self.grant.load(Ordering::Acquire);
        if grant > self.last_window {
            self.last_window = grant;
            for &c in &self.domain {
                self.board.raise_max_local(c, grant);
            }
            if let Some(obs) = &self.obs {
                obs.shards[self.index].window_raises.add(1);
            }
            progressed = true;
        }
        let g = self.board.global();
        let eager = self.scheme.ordering() == EventOrdering::Eager;
        let events0 = self.events_processed;
        let mut drained = 0u64;
        let mut scratch = std::mem::take(&mut self.scratch);
        // Dirty-mask drain: only rings whose core flagged a push since the
        // last consume. The mask is swapped *after* reading `g` above, so
        // every event the frontier publication below vouches for (ts <= g,
        // hence pushed-and-flagged before its core's clock fed `g`) is
        // covered; bits set after the swap are picked up next iteration
        // and describe events beyond `g`.
        for wi in 0..self.dirty.len() {
            let mut m = self.dirty[wi].swap(0, Ordering::Acquire);
            while m != 0 {
                let c = (wi << 6) | m.trailing_zeros() as usize;
                m &= m - 1;
                loop {
                    scratch.clear();
                    if self.from_cores[c].drain_into(&mut scratch, usize::MAX) == 0 {
                        break;
                    }
                    drained += scratch.len() as u64;
                    if let Some(obs) = &self.obs {
                        obs.manager.shard_batch.record(scratch.len() as u64);
                        obs.shards[self.index].drain_batch.record(scratch.len() as u64);
                    }
                    if eager {
                        for &ev in &scratch {
                            self.process_event(GlobalEvent { core: c, ev });
                        }
                    } else {
                        self.ordered.extend(
                            scratch
                                .iter()
                                .map(|&ev| Reverse(OrderedEv(GlobalEvent { core: c, ev }))),
                        );
                    }
                }
            }
        }
        self.scratch = scratch;
        let horizon = match self.scheme.ordering() {
            EventOrdering::Eager => None,
            EventOrdering::TimestampOrdered => Some(g),
            EventOrdering::AtBarrier => match self.scheme {
                Scheme::Quantum(q) => Some((g / q) * q),
                _ => Some(g),
            },
        };
        if let Some(h) = horizon {
            while let Some(&Reverse(OrderedEv(ge))) = self.ordered.peek() {
                if ge.ev.ts > h {
                    break;
                }
                self.ordered.pop();
                self.process_event(ge);
            }
        }
        let had_overflow = self.overflow_len > 0;
        self.flush_overflow();
        self.flush_wakeups();
        // Publish the processed frontier: every event with ts <= g had
        // arrived before g was computed (cores push before advancing their
        // local clocks) and has now been processed and delivered.
        let all_delivered = self.overflow_len == 0;
        if all_delivered && self.frontier.fetch_max(g, Ordering::Release) < g {
            progressed = true;
            // The coordinator's ordered-scheme window may be clamped on
            // this very frontier; wake it so the grant path stays
            // signal-driven instead of timeout-paced.
            self.board.signal_manager();
        }
        if let Some(obs) = &self.obs {
            let sh = &obs.shards[self.index];
            sh.iterations.add(1);
            sh.events.add(self.events_processed - events0);
            sh.heap_occupancy.record(self.ordered.len() as u64);
            sh.frontier_lag.record(g.saturating_sub(self.frontier.load(Ordering::Relaxed)));
        }
        progressed
            || drained > 0
            || self.events_processed > events0
            || (had_overflow && all_delivered)
    }

    /// Drain everything unconditionally (shutdown).
    pub fn finish(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for c in 0..self.from_cores.len() {
            loop {
                scratch.clear();
                if self.from_cores[c].drain_into(&mut scratch, usize::MAX) == 0 {
                    break;
                }
                self.ordered.extend(
                    scratch.iter().map(|&ev| Reverse(OrderedEv(GlobalEvent { core: c, ev }))),
                );
            }
        }
        self.scratch = scratch;
        while let Some(Reverse(OrderedEv(ge))) = self.ordered.pop() {
            self.process_event(ge);
        }
        self.flush_overflow();
        self.flush_wakeups();
    }

    /// This shard's directory statistics.
    pub fn dir_stats(&self) -> sk_mem::directory::DirStats {
        self.dir.stats
    }

    /// This shard's interconnect statistics.
    pub fn bus_stats(&self) -> sk_mem::bus::BusStats {
        self.dir.bus_stats()
    }

    /// Are all produced replies delivered (no per-core overflow pending)?
    pub fn deliveries_flushed(&self) -> bool {
        self.overflow.iter().all(|o| o.is_empty())
    }

    /// The thread body for a shard manager.
    pub fn run(mut self, signal: Arc<ShardSignal>) -> MemShard {
        loop {
            signal.wait(Duration::from_micros(200));
            let t0 = self.obs.is_some().then(std::time::Instant::now);
            self.iterate();
            if let (Some(t0), Some(obs)) = (t0, &self.obs) {
                obs.shards[self.index].busy_ns.add(t0.elapsed().as_nanos() as u64);
            }
            if self.board.stopping() {
                self.finish();
                return self;
            }
        }
    }

    // ---- snapshot support ----

    /// Serialize shard-local dynamic state. Call only at a safe-point with
    /// the shard quiescent: [`MemShard::finish`] run (ordered heap empty)
    /// and all deliveries flushed.
    pub fn save_state(&self, w: &mut sk_snap::Writer) {
        debug_assert!(self.ordered.is_empty(), "shard heap must be drained at a safe-point");
        debug_assert!(self.deliveries_flushed(), "shard deliveries must be flushed");
        use sk_snap::Persist;
        w.put_u64(self.frontier.load(Ordering::Acquire));
        w.put_u64(self.last_window);
        w.put_u64(self.events_processed);
        self.dir.save(w);
    }

    /// Restore state written by [`MemShard::save_state`] into a freshly
    /// plumbed shard (same configuration, fresh rings).
    pub fn restore_state(&mut self, r: &mut sk_snap::Reader<'_>) -> Result<(), sk_snap::SnapError> {
        use sk_snap::Persist;
        self.frontier.store(r.get_u64()?, Ordering::Release);
        self.last_window = r.get_u64()?;
        self.events_processed = r.get_u64()?;
        self.dir = Directory::load(r)?;
        Ok(())
    }
}

/// The shard owning `block` among `n` shards (bank-interleaved).
#[inline]
pub fn shard_of(block: sk_mem::BlockAddr, n_banks: usize, n_shards: usize) -> usize {
    ((block as usize) % n_banks) % n_shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_bank_interleaved() {
        // 8 banks over 2 shards: even banks -> shard 0, odd -> shard 1.
        for block in 0..64u64 {
            let s = shard_of(block, 8, 2);
            assert_eq!(s, (block % 8 % 2) as usize);
        }
    }

    #[test]
    fn signal_wakes_waiter() {
        let sig = Arc::new(ShardSignal::default());
        sig.ring();
        // Pending flag consumed without blocking.
        assert!(sig.wait(Duration::from_secs(5)));
        // No pending: times out quickly.
        let t0 = std::time::Instant::now();
        assert!(!sig.wait(Duration::from_millis(1)));
        assert!(t0.elapsed() >= Duration::from_micros(500));
    }

    /// A shard thread asleep on its signal wakes on a ring from another
    /// thread well before its timeout (the threaded shard loop's path).
    #[test]
    fn sleeping_shard_wakes_on_ring() {
        let sig = Arc::new(ShardSignal::default());
        let s2 = sig.clone();
        let t = std::thread::spawn(move || s2.wait(Duration::from_secs(5)));
        while sig.sleepers() == 0 {
            std::thread::yield_now();
        }
        sig.ring();
        assert!(t.join().unwrap(), "the ring, not the timeout, ended the wait");
    }
}
