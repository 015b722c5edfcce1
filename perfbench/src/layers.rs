//! Per-layer accumulation over traced simulations: counts and busy times
//! from each run's `SimReport` and, where a hub was attached, its sk-obs
//! metrics dump. A hub is read through its JSON dump, as served jobs give
//! theirs, so one reader covers both.

use sk_core::SimReport;
use sk_obs::{Histogram, Metrics};
use sk_serve::json::{self, Json};
use std::collections::BTreeMap;

/// Which engine ran a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Seq,
    Det,
    Threads,
}

/// Running totals for the simulator's layers.
#[derive(Default)]
pub struct LayerAcc {
    committed: u64,
    core_cycles: u64,
    exec_cycles: u64,
    /// Core-model host time: wall minus manager, shard and park time.
    core_busy_ns: f64,
    sb_exits: u64,
    sb_window: u64,
    sb_fallback: u64,
    sb_uops: u64,
    l1d: (u64, u64),
    l1i: (u64, u64),
    utlb: (u64, u64),
    l2: (u64, u64),
    invalidations: u64,
    bus: (u64, u64),
    events: u64,
    out_batch: (u64, u64),
    drain_batch: (u64, u64),
    outq_high_water: u64,
    blocks: u64,
    wakeups: u64,
    park_ns: u64,
    sync_park_ns: u64,
    /// Sum over hub runs of cores x wall, ns.
    core_wall_ns: f64,
    global_updates: u64,
    /// Sum over hub runs of wall, ns.
    hub_wall_ns: f64,
    mgr_busy_ns: u64,
    mgr_iterations: u64,
    backoff_us: u64,
    lock_waits: u64,
    barrier_episodes: u64,
    lock_wait: Histogram,
    shard_busy_ns: u64,
    /// Sum over sharded hub runs of shards x wall, ns.
    shard_wall_ns: f64,
    frontier_lag: Histogram,
    frontier_wait_ns: u64,
    det_picks: u64,
    det_exec_cycles: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn hist_mean(h: (u64, u64)) -> f64 {
    ratio(h.0 as f64, h.1 as f64)
}

fn add_hist(acc: &mut (u64, u64), (sum, count): (u64, u64)) {
    acc.0 += sum;
    acc.1 += count;
}

fn uint(v: Option<&Json>) -> u64 {
    match v {
        Some(Json::Int(n)) => *n as u64,
        Some(Json::Float(x)) => *x as u64,
        _ => 0,
    }
}

/// A counter of one dump role (a core, the manager or a shard).
fn counter(role: &Json, name: &str) -> u64 {
    uint(role.get("counters").and_then(|c| c.get(name)))
}

/// (sum, count) of one histogram of a dump role.
fn hist(role: &Json, name: &str) -> (u64, u64) {
    let h = role.get("hist").and_then(|h| h.get(name));
    (uint(h.and_then(|h| h.get("sum"))), uint(h.and_then(|h| h.get("count"))))
}

/// Merge one histogram's buckets, given by their floors, into `into`:
/// enough for its quantiles.
fn merge_buckets(into: &Histogram, role: &Json, name: &str) {
    let h = role.get("hist").and_then(|h| h.get(name));
    for b in h.and_then(|h| h.get("buckets")).and_then(Json::as_arr).unwrap_or(&[]) {
        if let Some([floor, n]) = b.as_arr() {
            into.record_n(uint(Some(floor)), uint(Some(n)));
        }
    }
}

impl LayerAcc {
    /// Fold in one finished simulation. `wall_ns` is the host time of its
    /// run call; `obs` its hub, if one was attached; `picks` the det
    /// scheduler's pick count.
    pub fn add(
        &mut self,
        engine: Engine,
        report: &SimReport,
        wall_ns: f64,
        obs: Option<&Metrics>,
        picks: u64,
    ) {
        self.committed += report.total_committed();
        self.core_cycles += report.cores.iter().map(|c| c.cycles).sum::<u64>();
        self.exec_cycles += report.exec_cycles;
        for c in &report.cores {
            self.l1d.0 += c.l1d.hits;
            self.l1d.1 += c.l1d.accesses();
            self.l1i.0 += c.l1i.hits;
            self.l1i.1 += c.l1i.accesses();
        }
        self.l2.0 += report.dir.l2_hits;
        self.l2.1 += report.dir.l2_hits + report.dir.l2_misses;
        self.invalidations += report.dir.invalidations_out;
        self.bus.0 += report.bus.conflicts;
        self.bus.1 += report.bus.grants;
        self.lock_waits += report.sync.lock_waits;
        self.barrier_episodes += report.sync.barrier_episodes;
        if engine != Engine::Seq {
            self.blocks += report.engine.blocks;
            self.wakeups += report.engine.wakeups;
            self.global_updates += report.engine.global_updates;
        }
        if engine == Engine::Det {
            self.det_picks += picks;
            self.det_exec_cycles += report.exec_cycles;
        }
        let Some(m) = obs else {
            // No hub (the sequential engine): all of its time is core model.
            self.core_busy_ns += wall_ns;
            return;
        };
        let dump = json::parse(&m.to_json()).expect("sk-obs dumps are valid JSON");
        let (parked, roles_busy) = self.add_dump(&dump, wall_ns);
        self.core_busy_ns += match engine {
            // One host thread: every role's busy time is carved out of wall.
            Engine::Det => (wall_ns - roles_busy).max(0.0),
            _ => (m.cores.len() as f64 * wall_ns - parked).max(0.0),
        };
    }

    /// Fold in one sk-obs metrics dump (the JSON of `Metrics::to_json`, as
    /// a hub or a served job gives it) of a run that
    /// took `wall_ns`. Returns the run's summed core park time and its
    /// manager and shard busy time, ns.
    pub fn add_dump(&mut self, dump: &Json, wall_ns: f64) -> (f64, f64) {
        let cores = dump.get("cores").and_then(Json::as_arr).unwrap_or(&[]);
        let shards = dump.get("shards").and_then(Json::as_arr).unwrap_or(&[]);
        let mgr = dump.get("manager").unwrap_or(&Json::Null);
        let mut parked = 0;
        for c in cores {
            let exits = ["branch", "miss", "sync", "syscall", "window", "fallback"];
            self.sb_exits += exits.iter().map(|e| counter(c, &format!("sb_exit_{e}"))).sum::<u64>();
            self.sb_window += counter(c, "sb_exit_window");
            self.sb_fallback += counter(c, "sb_exit_fallback");
            self.sb_uops += hist(c, "sb_block_len").0;
            let (hits, misses) = (counter(c, "utlb_hits"), counter(c, "utlb_misses"));
            self.utlb.0 += hits;
            self.utlb.1 += hits + misses;
            add_hist(&mut self.out_batch, hist(c, "out_batch"));
            self.outq_high_water = self.outq_high_water.max(counter(c, "outq_high_water"));
            let (park, sync_park) = (hist(c, "park_ns").0, hist(c, "sync_park_ns").0);
            self.park_ns += park;
            self.sync_park_ns += sync_park;
            parked += park + sync_park + hist(c, "mem_park_ns").0;
        }
        self.events += counter(mgr, "events_ingested");
        add_hist(&mut self.drain_batch, hist(mgr, "drain_batch"));
        let mgr_busy = counter(mgr, "busy_ns");
        self.mgr_busy_ns += mgr_busy;
        self.mgr_iterations += counter(mgr, "iterations");
        self.backoff_us += hist(mgr, "backoff_us").0;
        merge_buckets(&self.lock_wait, mgr, "lock_wait");
        self.frontier_wait_ns += counter(mgr, "frontier_wait_ns");
        let shard_busy: u64 = shards.iter().map(|s| counter(s, "busy_ns")).sum();
        self.shard_busy_ns += shard_busy;
        self.shard_wall_ns += shards.len() as f64 * wall_ns;
        for s in shards {
            merge_buckets(&self.frontier_lag, s, "frontier_lag");
        }
        self.hub_wall_ns += wall_ns;
        self.core_wall_ns += cores.len() as f64 * wall_ns;
        (parked as f64, (mgr_busy + shard_busy) as f64)
    }

    /// The simulator-layer metrics, keyed by registry name.
    pub fn finish(&self) -> BTreeMap<&'static str, f64> {
        let kcyc = self.exec_cycles as f64 / 1000.0;
        let f = |x: u64| x as f64;
        BTreeMap::from([
            ("cpu.committed", f(self.committed)),
            ("cpu.cycles", f(self.core_cycles)),
            ("cpu.ipc", ratio(f(self.committed), f(self.core_cycles))),
            ("cpu.host_ns_per_instr", ratio(self.core_busy_ns, f(self.committed))),
            ("cpu.sb_uops_per_run", ratio(f(self.sb_uops), f(self.sb_exits))),
            ("cpu.sb_window_exit_frac", ratio(f(self.sb_window), f(self.sb_exits))),
            ("cpu.sb_fallback_frac", ratio(f(self.sb_fallback), f(self.sb_exits))),
            ("mem.l1d_hit_ratio", ratio(f(self.l1d.0), f(self.l1d.1))),
            ("mem.l1i_hit_ratio", ratio(f(self.l1i.0), f(self.l1i.1))),
            ("mem.utlb_hit_ratio", ratio(f(self.utlb.0), f(self.utlb.1))),
            ("dir.l2_hit_ratio", ratio(f(self.l2.0), f(self.l2.1))),
            ("dir.invalidations", f(self.invalidations)),
            ("bus.conflict_ratio", ratio(f(self.bus.0), f(self.bus.1))),
            ("spsc.events", f(self.events)),
            ("spsc.out_batch_mean", hist_mean(self.out_batch)),
            ("spsc.drain_batch_mean", hist_mean(self.drain_batch)),
            ("spsc.outq_high_water", f(self.outq_high_water)),
            ("clock.blocks_per_kcycle", ratio(f(self.blocks), kcyc)),
            ("clock.wakeups_per_kcycle", ratio(f(self.wakeups), kcyc)),
            ("clock.park_frac", ratio(f(self.park_ns), self.core_wall_ns)),
            ("clock.sync_park_frac", ratio(f(self.sync_park_ns), self.core_wall_ns)),
            ("clock.global_updates", f(self.global_updates)),
            ("manager.busy_frac", ratio(f(self.mgr_busy_ns), self.hub_wall_ns)),
            ("manager.iterations", f(self.mgr_iterations)),
            ("manager.backoff_frac", ratio(f(self.backoff_us) * 1e3, self.hub_wall_ns)),
            ("sync.lock_waits", f(self.lock_waits)),
            ("sync.barrier_episodes", f(self.barrier_episodes)),
            ("manager.lock_wait_p50", f(self.lock_wait.quantile(0.5))),
            ("shard.busy_frac", ratio(f(self.shard_busy_ns), self.shard_wall_ns)),
            ("shard.frontier_lag_p50", f(self.frontier_lag.quantile(0.5))),
            ("manager.frontier_wait_frac", ratio(f(self.frontier_wait_ns), self.hub_wall_ns)),
            (
                "det.picks_per_kcycle",
                ratio(f(self.det_picks), self.det_exec_cycles as f64 / 1000.0),
            ),
        ])
    }
}
