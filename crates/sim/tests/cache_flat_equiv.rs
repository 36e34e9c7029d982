//! Differential test: the flat SoA + word-bitmap [`Cache`] against the
//! boxed-`bool` oracle [`BoolMetaCache`] (kept in `bool_meta_cache/`).
//!
//! Random interleavings of every public cache operation — access,
//! invalidate, probe, `meta_set`/`meta_any`/`meta_all` with cross-line
//! spans, and full `tag_observation` snapshots — over varied geometries
//! (ways, sets, line sizes below/at/above one metadata word) and both
//! `meta_fill` polarities. Address streams deliberately mix a small hot
//! region (so sets and ways actually collide) with the last line of the
//! address space, so the wrapping byte-count contract (`u64::MAX - 3`
//! + 8 bytes wraps through 0) is exercised on every run.

mod bool_meta_cache;

use bool_meta_cache::BoolMetaCache;
use protean_sim::{Cache, CacheConfig};
use protean_testkit::{Checker, Rng};

/// One cache operation of the differential scripts.
#[derive(Clone, Copy, Debug)]
enum Op {
    Access(u64),
    Invalidate(u64),
    Probe(u64),
    MetaSet(u64, u64, bool),
    MetaAny(u64, u64),
    MetaAll(u64, u64),
    Observation,
}

/// Adversarial address mix: mostly a small region that collides in the
/// tiny geometries, sometimes the very top of the address space (the
/// wrap cases), sometimes anywhere.
fn arb_addr(rng: &mut Rng, line_bytes: u64) -> u64 {
    match rng.gen_range(0u32..8) {
        0..=4 => rng.gen_range(0u64..line_bytes * 24),
        5 | 6 => u64::MAX - rng.gen_range(0u64..line_bytes * 3),
        _ => rng.gen::<u64>(),
    }
}

fn arb_op(rng: &mut Rng, line_bytes: u64) -> Op {
    let addr = arb_addr(rng, line_bytes);
    // Sizes from 0 (empty range) past two full lines (multi-chunk walks).
    let size = rng.gen_range(0u64..line_bytes * 2 + 3);
    match rng.gen_range(0u32..12) {
        0..=3 => Op::Access(addr),
        4 => Op::Invalidate(addr),
        5 => Op::Probe(addr),
        6 | 7 => Op::MetaSet(addr, size, rng.gen::<bool>()),
        8 => Op::MetaAny(addr, size),
        9 => Op::MetaAll(addr, size),
        10 => Op::Observation,
        // The pinned regression shape: unprotect 8 bytes at MAX-3.
        _ => Op::MetaSet(u64::MAX - 3, 8, false),
    }
}

#[derive(Debug)]
struct Case {
    cfg: CacheConfig,
    meta_fill: bool,
    ops: Vec<Op>,
}

fn arb_case(rng: &mut Rng) -> Case {
    // Line sizes below, at, and above one 64-bit metadata word.
    let line_bytes = [16usize, 32, 64, 128][rng.gen_range(0u32..4) as usize];
    let ways = rng.gen_range(1usize..5);
    let sets = 1 << rng.gen_range(0u32..4);
    let cfg = CacheConfig {
        size_bytes: sets * ways * line_bytes,
        ways,
        line_bytes,
        latency: 1,
    };
    let n = rng.gen_range(1usize..200);
    let ops = (0..n).map(|_| arb_op(rng, line_bytes as u64)).collect();
    Case {
        cfg,
        meta_fill: rng.gen::<bool>(),
        ops,
    }
}

fn run_case(case: &Case) {
    let mut flat = Cache::new(case.cfg, case.meta_fill);
    let mut oracle = BoolMetaCache::new(case.cfg, case.meta_fill);
    for (i, op) in case.ops.iter().enumerate() {
        match *op {
            Op::Access(a) => {
                assert_eq!(flat.access(a), oracle.access(a), "access {a:#x} at op {i}");
            }
            Op::Invalidate(a) => {
                assert_eq!(
                    flat.invalidate(a),
                    oracle.invalidate(a),
                    "invalidate {a:#x} at op {i}"
                );
            }
            Op::Probe(a) => {
                assert_eq!(flat.probe(a), oracle.probe(a), "probe {a:#x} at op {i}");
            }
            Op::MetaSet(a, s, v) => {
                flat.meta_set(a, s, v);
                oracle.meta_set(a, s, v);
            }
            Op::MetaAny(a, s) => {
                assert_eq!(
                    flat.meta_any(a, s),
                    oracle.meta_any(a, s),
                    "meta_any({a:#x}, {s}) at op {i}"
                );
            }
            Op::MetaAll(a, s) => {
                assert_eq!(
                    flat.meta_all(a, s),
                    oracle.meta_all(a, s),
                    "meta_all({a:#x}, {s}) at op {i}"
                );
            }
            Op::Observation => {
                assert_eq!(
                    flat.tag_observation(),
                    oracle.tag_observation(),
                    "tag_observation at op {i}"
                );
            }
        }
    }
    // Final state: observation, counters, and a metadata sweep of the
    // hot region plus the wrap window.
    assert_eq!(flat.tag_observation(), oracle.tag_observation());
    assert_eq!((flat.hits, flat.misses), (oracle.hits, oracle.misses));
    let lb = case.cfg.line_bytes as u64;
    for base in 0..4 * lb {
        assert_eq!(flat.meta_any(base, 3), oracle.meta_any(base, 3));
        assert_eq!(flat.meta_all(base, 3), oracle.meta_all(base, 3));
    }
    for off in 0..2 * lb {
        let a = u64::MAX - off;
        assert_eq!(flat.meta_any(a, lb + 2), oracle.meta_any(a, lb + 2));
        assert_eq!(flat.meta_all(a, lb + 2), oracle.meta_all(a, lb + 2));
    }
}

#[test]
fn cache_flat_matches_boxed_bool_oracle() {
    Checker::new("cache_flat_matches_boxed_bool_oracle")
        .cases(400)
        .run(arb_case, run_case);
}

/// The pinned regression scenarios from the unit suite, verbatim,
/// through the differential harness (deterministic, not sampled).
#[test]
fn cache_flat_equiv_pinned_wrap_cases() {
    let cfg = CacheConfig {
        size_bytes: 256,
        ways: 2,
        line_bytes: 64,
        latency: 1,
    };
    for meta_fill in [true, false] {
        let ops = vec![
            Op::Access(u64::MAX - 3),
            Op::Access(0),
            Op::MetaSet(u64::MAX - 3, 8, false),
            Op::MetaAny(u64::MAX - 3, 8),
            Op::MetaAny(0, 4),
            Op::MetaAny(0, 5),
            Op::MetaAll(u64::MAX, 1),
            Op::MetaSet(0, 4, true),
            Op::MetaAny(u64::MAX - 3, 8),
            Op::MetaAll(u64::MAX - 3, 8),
            Op::Observation,
            Op::Access(0x78),
            Op::Access(0x80),
            Op::MetaSet(0x7c, 8, false),
            Op::MetaAny(0x7c, 8),
            Op::Invalidate(u64::MAX - 3),
            Op::MetaAny(u64::MAX - 3, 8),
            Op::Observation,
        ];
        run_case(&Case {
            cfg,
            meta_fill,
            ops,
        });
    }
}

#[test]
fn oracle_agrees_on_the_unit_scenarios() {
    // Spot-check the boxed-bool oracle against the flat cache on the
    // lifecycle scenario (the exhaustive version is the
    // `cache_flat_equiv` differential test).
    let cfg = CacheConfig {
        size_bytes: 256,
        ways: 2,
        line_bytes: 64,
        latency: 1,
    };
    let mut flat = Cache::new(cfg, true);
    let mut oracle = BoolMetaCache::new(cfg, true);
    for a in [0x40u64, 0x0c0, 0x140, u64::MAX - 3, 0x40] {
        assert_eq!(flat.access(a), oracle.access(a));
    }
    flat.meta_set(u64::MAX - 3, 8, false);
    oracle.meta_set(u64::MAX - 3, 8, false);
    for (addr, size) in [(u64::MAX - 3, 8), (0x40, 9), (0, 4)] {
        assert_eq!(flat.meta_any(addr, size), oracle.meta_any(addr, size));
        assert_eq!(flat.meta_all(addr, size), oracle.meta_all(addr, size));
    }
    assert_eq!(flat.tag_observation(), oracle.tag_observation());
    assert_eq!(flat.invalidate(0x140), oracle.invalidate(0x140));
    assert_eq!(flat.tag_observation(), oracle.tag_observation());
    assert_eq!((flat.hits, flat.misses), (oracle.hits, oracle.misses));
}
