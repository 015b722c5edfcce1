//! The metric registry: every metric the benchmark prints, its unit, and
//! for each per-layer metric which end-to-end metric it should move, on
//! which workload, and what it should leave unchanged.
//!
//! `BENCHMARK.json` at the repository root must list exactly these
//! names and units; [`check_manifest`] enforces that before any run.

use sk_serve::json::{self, Json};
use std::collections::BTreeMap;

/// One metric.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// What the number is.
    pub doc: &'static str,
    /// Per-layer only: the end-to-end metric and workload it should move.
    #[cfg_attr(not(test), allow(dead_code))]
    pub moves: &'static str,
    /// Per-layer only: what it should leave unchanged.
    #[cfg_attr(not(test), allow(dead_code))]
    pub keeps: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    doc: &'static str,
) -> Def {
    Def { name, unit, better, doc, moves: "", keeps: "" }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    doc: &'static str,
    moves: &'static str,
    keeps: &'static str,
) -> Def {
    Def { name, unit, better, doc, moves, keeps }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    e2e("kips_cc", "kinstr/s", "higher", "committed target kilo-instructions per calibrated host CPU second over the workload's CC runs"),
    e2e("kips_slack", "kinstr/s", "higher", "the same over the workload's slack-scheme runs"),
    e2e("kips_seq", "kinstr/s", "higher", "the same over the sequential reference runs"),
    e2e("error_su_pct", "%", "lower", "mean |exec_cycles(SU) - exec_cycles(CC)| / exec_cycles(CC) over det runs with seeds derived from the benchmark seed"),
    e2e("setup_s", "s", "lower", "median over set-up passes of building the programs, constructing the engines and starting the serve workers, calibrated"),
    e2e("peak_rss_mb", "MB", "lower", "peak resident set size of the benchmark process"),
    e2e("jobs_per_s", "1/s", "higher", "simulation jobs completed per calibrated host CPU second"),
];

const DET: &str = "det-paper, det-irregular";
const SB: &str = "kips_* on det-irregular (in-order superblock dispatch)";
const THR_CC: &str = "kips_cc on threads-paper";
const IRR: &str = "kips_* on det-irregular";
const SHARD: &str = "kips_* on det-irregular with mem_shards 2";
const SERVE: &str = "jobs_per_s on serve-mixed";
const SIM: &str = "simulated counts and error_*";

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[Def] = &[
    layer("kernels.build_s", "s", "lower", "median per set-up pass: building the workload's programs", "setup_s on every workload", "kips_*, simulated counts"),
    layer("engine.new_s", "s", "lower", "median per set-up pass: Engine::new / DetEngine::new, including superblock formation and sk-mem allocation", "setup_s on every workload", "kips_*, simulated counts"),
    layer("cpu.committed", "count", "higher", "committed instructions over one traced round (exact on det)", "nothing: a count of simulated work", "must repeat exactly for a seed on det workloads"),
    layer("cpu.cycles", "count", "lower", "simulated core cycles over one traced round (exact on det)", "nothing: a count of simulated work", "must repeat exactly for a seed on det workloads"),
    layer("cpu.ipc", "instr/cycle", "higher", "cpu.committed / cpu.cycles", "nothing: a property of the model", SIM),
    layer("cpu.host_ns_per_instr", "ns", "lower", "core-model host time per committed instruction: wall minus manager, shard and park time", "kips_* on det-paper (OoO) and det-irregular (in-order)", SIM),
    layer("cpu.sb_uops_per_run", "uops", "higher", "dynamic uops per fused superblock run", SB, "det-paper (OoO cores fuse nothing)"),
    layer("cpu.sb_window_exit_frac", "frac", "lower", "fused runs split at the slack-window edge / all fused-run exits", SB, SIM),
    layer("cpu.sb_fallback_frac", "frac", "lower", "fused runs ending in the live-decode fallback / all fused-run exits", SB, SIM),
    layer("mem.l1d_hit_ratio", "frac", "higher", "L1D hits / accesses", "kips_* on det-paper", "kips on serve-mixed"),
    layer("mem.l1i_hit_ratio", "frac", "higher", "L1I hits / accesses", "kips_* on det-paper", "kips on serve-mixed"),
    layer("mem.utlb_hit_ratio", "frac", "higher", "uTLB hits / accesses", "kips_* on det-paper", SIM),
    layer("dir.l2_hit_ratio", "frac", "higher", "L2 hits / directory lookups", "kips_* on det-paper", "kips_seq"),
    layer("dir.invalidations", "count", "lower", "invalidations the directory sent", "kips_* on det-paper", "kips_seq"),
    layer("bus.conflict_ratio", "frac", "lower", "interconnect conflicts / grants", "kips_* on det-paper", "kips_seq"),
    layer("spsc.events", "count", "higher", "events the manager drained from core rings", THR_CC, "simulated counts"),
    layer("spsc.out_batch_mean", "events", "higher", "events per outbound ring flush", THR_CC, "simulated counts"),
    layer("spsc.drain_batch_mean", "events", "higher", "events per manager ring drain", THR_CC, "simulated counts"),
    layer("spsc.outq_high_water", "events", "lower", "largest outbound ring occupancy", THR_CC, "simulated counts"),
    layer("clock.blocks_per_kcycle", "1/kcycle", "lower", "window blocks per thousand simulated cycles", THR_CC, "kips_slack on threads-paper"),
    layer("clock.wakeups_per_kcycle", "1/kcycle", "lower", "manager wake-ups per thousand simulated cycles", THR_CC, "kips_slack on threads-paper"),
    layer("clock.park_frac", "frac", "lower", "sum of window park time / (cores x wall)", THR_CC, "kips_slack on threads-paper"),
    layer("clock.sync_park_frac", "frac", "lower", "sum of sync park time / (cores x wall)", THR_CC, "kips_slack on threads-paper"),
    layer("clock.global_updates", "count", "lower", "global-time recomputations", THR_CC, "kips_slack on threads-paper"),
    layer("manager.busy_frac", "frac", "lower", "manager busy time / wall", IRR, "det-paper under S9"),
    layer("manager.iterations", "count", "lower", "manager loop iterations", IRR, SIM),
    layer("manager.backoff_frac", "frac", "lower", "manager idle-backoff sleep / wall (threaded only)", THR_CC, DET),
    layer("sync.lock_waits", "count", "lower", "lock requests that queued", IRR, "kips on det-paper"),
    layer("sync.barrier_episodes", "count", "lower", "barrier episodes completed", "kips_* on det-paper", "det-irregular"),
    layer("manager.lock_wait_p50", "cycles", "lower", "median simulated lock/semaphore wait", IRR, "kips on det-paper"),
    layer("shard.busy_frac", "frac", "lower", "shard busy time / (shards x wall)", SHARD, "every run with mem_shards 0"),
    layer("shard.frontier_lag_p50", "cycles", "lower", "median global - shard frontier", SHARD, "every run with mem_shards 0"),
    layer("manager.frontier_wait_frac", "frac", "lower", "manager frontier wait / wall", SHARD, "every run with mem_shards 0"),
    layer("det.picks_per_kcycle", "1/kcycle", "lower", "det scheduler picks per thousand simulated cycles", "kips_* on det-paper and det-irregular", "threads-paper threaded runs"),
    layer("serve.post_frac", "frac", "lower", "submit time (parse + admission) / client job latency", SERVE, "the det workloads"),
    layer("serve.polls_per_job", "count", "lower", "status polls per job", SERVE, "the det workloads"),
    layer("serve.cache_hit_ratio", "frac", "higher", "warm starts / jobs", SERVE, "the det workloads"),
    layer("serve.warm_cold_ratio", "frac", "lower", "mean warm job wall / mean cold job wall (the snapshot fork)", SERVE, "the det workloads"),
    layer("serve.queue_depth_p50", "jobs", "lower", "median queue depth at enqueue", SERVE, "the det workloads"),
    layer("serve.status_bytes", "bytes", "lower", "mean size of a terminal status document", SERVE, "the det workloads"),
    layer("trace.overhead_frac", "frac", "lower", "traced wall / untraced wall - 1 over the same work", "nothing: the cost of the sk-obs hub", "end-to-end metrics, which come from untraced runs"),
    layer("span.build_frac", "frac", "lower", "self time in kernel builders / traced wall", "setup_s", "kips_*"),
    layer("span.engine_new_frac", "frac", "lower", "self time in engine construction / traced wall", "setup_s", "kips_*"),
    layer("span.seq_run_frac", "frac", "lower", "self time in run_sequential / traced wall", "kips_seq", "kips_cc, kips_slack"),
    layer("span.det_run_frac", "frac", "lower", "self time in DetEngine::run / traced wall", "kips_* on det workloads", "threaded runs"),
    layer("span.threads_run_frac", "frac", "lower", "self time in Engine::run_until / traced wall", "kips_* on threads-paper", "det workloads"),
    layer("span.report_frac", "frac", "lower", "self time in into_report and fingerprinting / traced wall", "jobs_per_s", "kips_*"),
    layer("span.parse_frac", "frac", "lower", "self time in the JSON and scenario parsers / traced wall", SERVE, "the det workloads"),
];

/// Metrics printed in the table only, because no bound could hold them
/// on every workload: `fail_frac` is 0 on correct code; serve-mixed's
/// client latency is raw wall time, which moved 2.9× between runs under
/// host steal, so `job_p50_ms` is not gated anywhere; `job_p90_ms` needs 100
/// jobs to have ten beyond it; and `error_s9_pct`, the S9 counterpart of
/// `error_su_pct`, moves by up to a third of its median from one seed to
/// the next on the four paper kernels.
pub const TABLE_ONLY: &[(&str, &str)] =
    &[("fail_frac", "frac"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"), ("error_s9_pct", "%")];

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `[A-Za-z0-9_/%.-]{1,16}`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// The registry for one mode: end-to-end for untraced runs, per-layer
/// for traced ones.
pub fn registry(trace: bool) -> &'static [Def] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Check that `manifest` (the text of `BENCHMARK.json`) lists exactly the
/// registry's metrics with the registry's units and directions, and that
/// every name and unit is well formed.
pub fn check_manifest(manifest: &str) -> Result<(), String> {
    let doc = json::parse(manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))?;
        let mut seen = BTreeMap::new();
        for m in listed {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            let (name, unit, better) = (field("name"), field("unit"), field("better"));
            if !valid_name(&name) || !valid_unit(&unit) {
                return Err(format!("BENCHMARK.json {key}: bad name or unit {name:?} {unit:?}"));
            }
            if seen.insert(name.clone(), (unit, better)).is_some() {
                return Err(format!("BENCHMARK.json {key}: {name} listed twice"));
            }
        }
        let want: BTreeMap<String, (String, String)> = defs
            .iter()
            .map(|d| (d.name.to_string(), (d.unit.to_string(), d.better.to_string())))
            .collect();
        if seen != want {
            return Err(format!(
                "BENCHMARK.json {key} does not match the benchmark's metrics\n  listed: {seen:?}\n  printed: {want:?}"
            ));
        }
    }
    Ok(())
}

/// Check that the metrics about to be printed are exactly the registry's
/// for this mode, and that every value is finite.
pub fn check_printed(trace: bool, printed: &BTreeMap<&'static str, f64>) -> Result<(), String> {
    let want: Vec<&str> = registry(trace).iter().map(|d| d.name).collect();
    let mut got: Vec<&str> = printed.keys().copied().collect();
    let mut want_sorted = want.clone();
    want_sorted.sort_unstable();
    got.sort_unstable();
    if got != want_sorted {
        return Err(format!("printed metrics {got:?} differ from the registry {want_sorted:?}"));
    }
    match printed.iter().find(|(_, v)| !v.is_finite()) {
        Some((name, v)) => Err(format!("metric {name} is not finite: {v}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(matches!(d.better, "higher" | "lower"), "{}", d.name);
            assert!(seen.insert(d.name), "{} defined twice", d.name);
        }
        for d in PER_LAYER {
            assert!(!d.moves.is_empty() && !d.keeps.is_empty(), "{} lacks its layer map", d.name);
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("kips_cc"));
        assert!(valid_name("cpu.sb_uops_per_run"));
        assert!(valid_name("a-b.c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("pct%"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("k instr"));
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        check_manifest(&manifest()).unwrap();
    }

    #[test]
    fn manifest_mismatches_are_refused() {
        let m = manifest();
        assert!(check_manifest(&m.replace("\"kips_cc\"", "\"kips_cc2\"")).is_err());
        assert!(check_manifest(&m.replacen("\"unit\": \"s\"", "\"unit\": \"ms\"", 1)).is_err());
        assert!(check_manifest(&m.replacen("\"better\": \"higher\"", "\"better\": \"lower\"", 1))
            .is_err());
        assert!(check_manifest("{}").is_err());
    }

    #[test]
    fn printed_set_must_match_exactly() {
        let full: BTreeMap<&'static str, f64> = END_TO_END.iter().map(|d| (d.name, 1.0)).collect();
        check_printed(false, &full).unwrap();
        assert!(check_printed(true, &full).is_err(), "wrong mode");
        let mut short = full.clone();
        short.remove("setup_s");
        assert!(check_printed(false, &short).is_err());
        let mut nan = full;
        nan.insert("kips_cc", f64::NAN);
        assert!(check_printed(false, &nan).is_err());
    }
}
