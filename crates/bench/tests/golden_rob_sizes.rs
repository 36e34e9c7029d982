//! Golden fixture for ROBs whose size is not a power of two.
//!
//! The scheduler maps ROB positions onto a ring of
//! `rob_size.next_power_of_two()` slots, and every in-tree preset
//! (512/256/32 entries) fills its ring exactly. These runs leave spare
//! slots: the tiny core with a 24-entry ROB (12-entry issue window)
//! and the P-core with 48- and 384-entry ROBs, each running the six
//! `backends/` cases under every shipped defense. Every run is compared
//! against a committed fixture of full observable snapshots (the
//! `golden_backends` digest), recorded before the ROB itself became a
//! slot-addressed ring.
//!
//! Regenerate (only when an *intentional* timing change lands) with:
//!
//! ```text
//! PROTEAN_GOLDEN_REGEN=1 cargo test -p protean-bench --test golden_rob_sizes
//! ```

mod backends;

use protean_sim::CoreConfig;

/// The non-power-of-two ROB configurations, each with its fixture
/// header. The issue window never exceeds the ROB.
fn configs() -> Vec<(String, CoreConfig)> {
    let mut out = Vec::new();
    let mut tiny = CoreConfig::test_tiny();
    tiny.rob_size = 24;
    tiny.iq_size = 12;
    out.push(tiny);
    for rob in [48, 384] {
        let mut p = CoreConfig::p_core();
        p.rob_size = rob;
        p.iq_size = p.iq_size.min(rob);
        out.push(p);
    }
    out.into_iter()
        .map(|c| {
            (
                format!("# {} rob={} iq={}", c.name, c.rob_size, c.iq_size),
                c,
            )
        })
        .collect()
}

#[test]
fn non_power_of_two_robs_match_golden_fixture() {
    let mut got = String::new();
    for (header, cfg) in configs() {
        got.push_str(&header);
        got.push('\n');
        got.push_str(&backends::observed(&cfg));
    }
    if std::env::var_os("PROTEAN_GOLDEN_REGEN").is_some() {
        let path = backends::fixture_path("golden_rob_sizes");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        println!("regenerated {}", path.display());
        return;
    }
    backends::assert_matches_fixture(
        &got,
        "golden_rob_sizes",
        "run drifted from the golden fixture",
    );
}
