//! Step-budget divergence handling: the emulator runs for
//! `cfg.max_steps` architectural steps while the hardware gets a
//! `(max_steps, max_steps * 60)` instruction/cycle budget. A program the
//! SEQ oracle cannot finish must be skipped outright — never compared
//! against (possibly truncated) hardware runs — and a hardware run cut
//! off by its budget must never enter an adversary comparison.
//!
//! That the threaded-code SEQ oracle stops where the reference
//! interpreter stops under a truncated budget is checked in
//! `protean-bench`'s `threaded_oracle_equiv` test.

use protean_amulet::{fuzz, run_campaign, Adversary, CampaignConfig, ContractKind, FuzzConfig};
use protean_cc::Pass;
use protean_core::ProtTrackPolicy;
use protean_sim::UnsafePolicy;

fn budget_cfg(max_steps: u64) -> FuzzConfig {
    let mut cfg = FuzzConfig::quick(Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb);
    cfg.programs = 6;
    cfg.inputs_per_program = 3;
    cfg.gen.seed = 0xbead;
    cfg.max_steps = max_steps;
    cfg
}

/// Every generated program needs far more than 4 architectural steps:
/// with such a budget the SEQ oracle exits `StepLimit` for every base
/// input, so no hardware run happens at all — no bogus
/// emulator-StepLimit-vs-halted-hardware comparisons, no tests, no
/// violations.
#[test]
fn seq_step_limit_skips_program_entirely() {
    let r = fuzz(&budget_cfg(4), &|| Box::new(UnsafePolicy));
    assert_eq!(r.tests, 0, "no pair may be compared");
    assert_eq!(r.violations, 0);
    assert_eq!(r.false_positives, 0);
    assert_eq!(r.pairs_rejected, 0);
    assert_eq!(
        r.committed_uops, 0,
        "no hardware run may happen without a base trace"
    );
    assert_eq!(r.hw_truncated, 0);
}

/// With the normal budget, the campaign's hardware runs all halt and
/// every mutant pair is compared — including under a stalling defense,
/// where hardware runs take many more cycles than architectural steps.
#[test]
fn full_budget_runs_all_halt() {
    for factory in [
        &(|| Box::new(UnsafePolicy) as Box<dyn protean_sim::DefensePolicy>)
            as &(dyn Fn() -> Box<dyn protean_sim::DefensePolicy> + Sync),
        &|| Box::new(ProtTrackPolicy::new()) as Box<dyn protean_sim::DefensePolicy>,
    ] {
        let cfg = budget_cfg(60_000);
        let r = fuzz(&cfg, factory);
        assert_eq!(r.hw_truncated, 0);
        assert_eq!(r.no_partner, 0);
        assert_eq!(
            r.tests + 2 * r.pairs_rejected,
            2 * (cfg.programs * cfg.inputs_per_program) as u64,
            "every mutant is either compared or rejected"
        );
    }
}

/// A defense that never lets any µop begin execution: the pipeline
/// commits nothing, the deadlock watchdog fires, and every *base*
/// hardware run ends truncated (`exit != Halted`).
struct StallForeverPolicy;

impl protean_sim::DefensePolicy for StallForeverPolicy {
    fn name(&self) -> String {
        "stall-forever".to_string()
    }

    fn may_execute(
        &self,
        _u: &protean_sim::DynInst,
        _tags: &protean_sim::RegTags,
        _fr: &protean_sim::SpecFrontier,
    ) -> bool {
        false
    }
}

/// When the base hardware run is truncated, no mutant has a comparison
/// partner: the whole mutant loop must be skipped up front — no SEQ
/// traces are paid for, `pairs_rejected` stays untouched (it counts
/// genuine contract non-equivalence, not missing partners), and the
/// skips are accounted under `no_partner`.
#[test]
fn truncated_base_run_skips_mutants_as_no_partner() {
    let cfg = budget_cfg(60_000);
    let r = fuzz(&cfg, &|| Box::new(StallForeverPolicy));
    assert_eq!(
        r.hw_truncated, cfg.programs as u64,
        "every base run must deadlock under the stalling policy"
    );
    assert_eq!(
        r.no_partner,
        (cfg.programs * cfg.inputs_per_program) as u64,
        "every mutant of every program is partnerless"
    );
    assert_eq!(
        r.pairs_rejected, 0,
        "partnerless mutants must not inflate the SEQ rejection stats"
    );
    assert_eq!(r.tests, 0, "nothing may be compared");
    assert_eq!(r.violations, 0);
    assert_eq!(r.false_positives, 0);
    assert_eq!(r.committed_uops, 0, "a fully stalled core commits nothing");
}

/// With prefilter and triage on, the campaign engine reports the same
/// `Report` for the stalling defense as the plain campaign: stage 1
/// still traces every mutant (`prefilter_rejected` counts each
/// rejection there), but a mutant only reaches `pairs_rejected` when the
/// stage-2 walk gets to it, and a truncated base run stops the walk
/// before any mutant.
#[test]
fn truncated_base_counts_match_with_engine_features_on() {
    let cfg = budget_cfg(60_000);
    let plain = fuzz(&cfg, &|| Box::new(StallForeverPolicy));
    let mut engine_cfg = CampaignConfig::new(cfg.clone());
    engine_cfg.prefilter = true;
    engine_cfg.triage = true;
    let engine = run_campaign(&engine_cfg, &|| Box::new(StallForeverPolicy));
    assert_eq!(format!("{:?}", engine.report), format!("{plain:?}"));
    assert_eq!(engine.report.hw_truncated, cfg.programs as u64);
    assert_eq!(
        engine.prefilter_pairs + engine.prefilter_rejected,
        (cfg.programs * cfg.inputs_per_program) as u64,
        "stage 1 still traces every mutant"
    );
    assert_eq!(engine.hw_pairs, 0);
}

/// An in-between budget: some generated programs finish inside it, some
/// do not. The ones that finish are fuzzed normally; the ones that do
/// not are skipped outright.
#[test]
fn partial_budget_skips_unfinished_programs() {
    let full = fuzz(&budget_cfg(60_000), &|| Box::new(UnsafePolicy));
    let partial = fuzz(&budget_cfg(500), &|| Box::new(UnsafePolicy));
    assert!(
        0 < partial.tests && partial.tests < full.tests,
        "the budget must split the corpus (partial {} of {} tests)",
        partial.tests,
        full.tests
    );
    assert_eq!(partial.hw_truncated, 0);
    assert_eq!(partial.no_partner, 0);
}
