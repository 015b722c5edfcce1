//! The sequential engine and the deterministic backend under CC are the
//! same machine: whole-report fingerprints agree, per-core idle cycles
//! included, on the paper kernels and the irregular kernels.

use sk_core::run_det;
use sk_kernels::irregular_suite;
use slacksim_suite::prelude::*;

fn assert_seq_equals_det_cc(w: &Workload, cfg: &TargetConfig) {
    let seq = run_sequential(&w.program, cfg);
    let det = run_det(&w.program, Scheme::CycleByCycle, cfg, 1);
    let printed: Vec<i64> = seq.printed().into_iter().map(|(_, v)| v).collect();
    assert_eq!(printed, w.expected, "{}: wrong output", w.name);
    assert_eq!(seq.fingerprint(), det.fingerprint(), "{}: seq and det CC differ", w.name);
}

#[test]
fn seq_equals_det_cc_on_the_paper_kernels() {
    let cfg = TargetConfig::paper_8core();
    for w in paper_suite(8, Scale::Test) {
        assert_seq_equals_det_cc(&w, &cfg);
    }
}

#[test]
fn seq_equals_det_cc_on_the_irregular_kernels() {
    let cfg = TargetConfig::small(8);
    for w in irregular_suite(8, Scale::Test) {
        assert_seq_equals_det_cc(&w, &cfg);
    }
}
