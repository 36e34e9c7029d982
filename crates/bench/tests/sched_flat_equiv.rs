//! The flat ROB-indexed scheduler against the retired ordered-set
//! (`BTreeSet` / `BTreeMap`) scheduler.
//!
//! The ordered-set leg is gone from the simulator; its full observables
//! on the differential test's six random programs × every shipped
//! defense survive as the lines of the `golden_backends` fixture,
//! recorded while both legs were asserted identical on exactly these
//! runs. The flat scheduler must still reproduce every line, including
//! the cycle-exact commit timing and the occupancy high-water marks.

mod backends;

use protean_sim::CoreConfig;

#[test]
fn flat_and_btree_schedulers_are_observationally_identical() {
    backends::assert_matches_fixture(
        &backends::observed(&CoreConfig::test_tiny()),
        "golden_backends",
        "flat scheduler diverged from the recorded ordered-set leg",
    );
}
