//! Traced `Core::reset` equivalence: the trace a reused arena core
//! records must equal the trace of a freshly constructed traced core.
//!
//! The campaign engine triages candidate violations on the audit
//! signature of the mutant run it already simulated, and renders
//! counterexamples from the traces of the base and mutant runs it
//! already holds. Those runs happen on one arena core per program, reset
//! between runs, so this property — reset ≡ new, for everything the
//! tracer records — is what makes reusing them equal to re-simulating
//! each run from scratch on a fresh traced core.
//!
//! The arena is driven through every defense and two inputs per program
//! (a base input and a secret mutant, as the fuzzer draws them), so
//! consecutive runs switch policy, input, or both.

use protean_amulet::{
    generate, init_cold_chain, GenConfig, PUBLIC_BASE, PUBLIC_SIZE, SECRET_BASE, SECRET_SIZE,
};
use protean_arch::ArchState;
use protean_bench::Defense;
use protean_isa::{Program, Reg};
use protean_sim::{Core, CoreConfig, Trace};
use protean_testkit::{Checker, Rng};

const MAX_INSTS: u64 = 20_000;
const MAX_CYCLES: u64 = 2_000_000;

const DEFENSES: [Defense; 14] = [
    Defense::Unsafe,
    Defense::Nda,
    Defense::Stt,
    Defense::SttOriginal,
    Defense::Spt,
    Defense::SptOriginal,
    Defense::SptNoPerfFix,
    Defense::SptSb,
    Defense::SptSbOriginal,
    Defense::ProtDelay,
    Defense::ProtTrack,
    Defense::ProtTrackEntries(64),
    Defense::RawAccessDelay,
    Defense::RawAccessTrack,
];

/// A random program with a fuzzer-shaped base input and a mutant that
/// differs from it in the secret region only.
fn arb_case(rng: &mut Rng) -> (u64, Program, [ArchState; 2]) {
    let seed = rng.gen::<u64>();
    let program = generate(&GenConfig {
        segments: 3 + (seed % 4) as usize,
        gadget_bias: 0.2 + (seed >> 8 & 0x3f) as f64 / 100.0,
        seed,
    });
    let mut base = ArchState::new();
    init_cold_chain(&mut base.mem);
    for i in 0u64..PUBLIC_SIZE / 8 {
        base.mem.write(PUBLIC_BASE + i * 8, 8, rng.gen_range(0..64));
    }
    for i in 0..6 {
        base.set_reg(Reg::gpr(i), rng.gen_range(0..1024));
    }
    let mut mutant = base.clone();
    for i in 0..SECRET_SIZE / 8 {
        base.mem.write(SECRET_BASE + i * 8, 8, rng.gen::<u64>());
        mutant.mem.write(SECRET_BASE + i * 8, 8, rng.gen::<u64>());
    }
    (seed, program, [base, mutant])
}

fn traced_cfg() -> CoreConfig {
    let mut cfg = CoreConfig::test_tiny();
    cfg.trace = true;
    cfg
}

/// Everything campaign triage, coverage and counterexample rendering
/// read from a trace.
fn observables(t: &Trace) -> String {
    format!(
        "signature={}\nsquash_causes={:?}\nblocked_by_rule={:?}\nblocked_totals={:?}\n{}\n{}",
        t.audit_signature(),
        t.squash_causes(),
        t.blocked_by_rule(),
        t.blocked_totals(),
        t.render_pipeline(48, 120),
        t.render_audit(16),
    )
}

#[test]
fn traced_reset_core_matches_fresh_traced_core() {
    Checker::new("traced_reset_core_matches_fresh_traced_core")
        .cases(6)
        .run(arb_case, |(seed, program, inputs)| {
            let mut arena = Core::new(program, traced_cfg(), DEFENSES[0].make(), &inputs[0]);
            for defense in DEFENSES {
                for (k, input) in inputs.iter().enumerate() {
                    arena.reset(program, defense.make(), input);
                    arena.record_traces(true);
                    let reused = arena.run_mut(MAX_INSTS, MAX_CYCLES);
                    let mut fresh_core = Core::new(program, traced_cfg(), defense.make(), input);
                    fresh_core.record_traces(true);
                    let fresh = fresh_core.run(MAX_INSTS, MAX_CYCLES);
                    let (Some(a), Some(b)) = (&reused.trace, &fresh.trace) else {
                        panic!("a traced core must return a trace");
                    };
                    assert_eq!(
                        observables(a),
                        observables(b),
                        "reset vs new trace divergence: seed={seed:#x} defense={defense:?} input={k}"
                    );
                }
            }
        });
}
