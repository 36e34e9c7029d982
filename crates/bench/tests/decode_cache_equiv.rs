//! The decode-once front end against the retired decode-per-visit
//! front end.
//!
//! The decode-per-visit leg (operand lists, control-flow class and the
//! policy's sensitive-register sets recomputed per dynamic visit) is
//! gone from the simulator; its full observables on the differential
//! test's six random programs × every shipped defense survive as the
//! lines of the `golden_backends` fixture, recorded while both legs
//! were asserted identical on exactly these runs. The decoded table
//! and `sens_table` path must still reproduce every line.

mod backends;

use protean_sim::CoreConfig;

#[test]
fn decoded_and_legacy_paths_are_observationally_identical() {
    backends::assert_matches_fixture(
        &backends::observed(&CoreConfig::test_tiny()),
        "golden_backends",
        "decoded front end diverged from the recorded decode-per-visit leg",
    );
}
