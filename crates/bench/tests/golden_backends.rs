//! Golden fixture for the simulator's one scheduler and one front end.
//!
//! Runs the shared cases of `backends/` (six random programs × every
//! shipped defense on the tiny core) and compares a full observable
//! snapshot of each run against a committed fixture, recorded while
//! the retired scheduler and front-end legs were still asserted
//! identical to the current ones.
//!
//! Regenerate (only when an *intentional* timing change lands) with:
//!
//! ```text
//! PROTEAN_GOLDEN_REGEN=1 cargo test -p protean-bench --test golden_backends
//! ```

mod backends;

use protean_sim::CoreConfig;

#[test]
fn scheduler_and_front_end_match_golden_fixture() {
    let got = backends::observed(&CoreConfig::test_tiny());
    if std::env::var_os("PROTEAN_GOLDEN_REGEN").is_some() {
        let path = backends::fixture_path("golden_backends");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        println!("regenerated {}", path.display());
        return;
    }
    backends::assert_matches_fixture(
        &got,
        "golden_backends",
        "run drifted from the golden fixture",
    );
}
