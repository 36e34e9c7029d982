//! Differential property test for the threaded-code architectural
//! oracle: the closure-IR fast mode ([`Emulator::with_threaded`]) and
//! the reference interpreter must produce **bit-identical executions**
//! — exit status, the full per-step [`ExecRecord`] stream (PCs, operand
//! reads, register/memory writes, branch resolutions, protection
//! bits), final architectural registers, and the final ProtSet — on
//! random amulet-generated programs under every ProtCC instrumentation
//! pass, and therefore identical projections under every observer mode.
//!
//! This is the property that lets the fuzzer run the threaded backend
//! as its only SEQ oracle while the interpreter stays the semantic
//! ground truth: any divergence here is a lowering bug, never a
//! tolerated approximation. Truncated step budgets are covered too, so
//! the two agree on which runs the fuzzer's step budget cuts short.

use protean_amulet::{generate, init_cold_chain, GenConfig, PUBLIC_BASE, PUBLIC_SIZE};
use protean_arch::{ArchState, Emulator, ExitStatus, ObserverMode, ThreadedProgram};
use protean_cc::{compile_with, public_typing, Pass};
use protean_isa::{Program, Reg};
use protean_testkit::{Checker, Rng};

/// Matches the fuzzer's architectural step budget.
const MAX_STEPS: u64 = 60_000;

/// The shipped instrumentation passes: each populates PROT prefixes
/// differently, so together they exercise the prot-propagation paths
/// (full, partial, none, random) of both backends.
const PASSES: [Pass; 5] = [
    Pass::Arch,
    Pass::Ct,
    Pass::Cts,
    Pass::Unr,
    Pass::Rand { prob: 0.5, seed: 7 },
];

/// A random instrumented program plus fuzzer-shaped input state.
fn arb_case(rng: &mut Rng) -> (u64, Vec<Program>, ArchState) {
    let seed = rng.gen::<u64>();
    let raw = generate(&GenConfig {
        segments: 3 + (seed % 4) as usize,
        gadget_bias: 0.2 + (seed >> 8 & 0x3f) as f64 / 100.0,
        seed,
    });
    let programs = PASSES
        .iter()
        .map(|pass| compile_with(&raw, *pass).program)
        .collect();
    let mut state = ArchState::new();
    init_cold_chain(&mut state.mem);
    for i in 0u64..PUBLIC_SIZE / 8 {
        let v = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i.wrapping_mul(7))
            % 64;
        state.mem.write(PUBLIC_BASE + i * 8, 8, v);
    }
    for i in 0..6 {
        state.set_reg(Reg::gpr(i), (seed.wrapping_mul(31) + i as u64 * 13) % 1024);
    }
    (seed, programs, state)
}

#[test]
fn threaded_oracle_matches_interpreter_exactly() {
    Checker::new("threaded_oracle_matches_interpreter_exactly")
        .cases(12)
        .run(arb_case, |(seed, programs, input)| {
            for program in programs {
                let threaded = ThreadedProgram::new(program);

                let mut interp = Emulator::new(program, input.clone());
                let (interp_exit, interp_records) = interp.run(MAX_STEPS);

                let mut fast = Emulator::with_threaded(program, &threaded, input.clone());
                let (fast_exit, fast_records) = fast.run(MAX_STEPS);

                let ctx = format!("seed={seed:#x}");
                assert_eq!(interp_exit, fast_exit, "exit status diverged: {ctx}");
                assert_eq!(interp.steps(), fast.steps(), "step count diverged: {ctx}");
                // The full record stream: every PC, operand read,
                // register/memory write, branch resolution, and
                // protection bit of every step.
                assert_eq!(
                    interp_records, fast_records,
                    "ExecRecord stream diverged: {ctx}"
                );
                // Final architectural state and ProtSet.
                for r in Reg::all() {
                    assert_eq!(interp.state.reg(r), fast.state.reg(r), "{r:?}: {ctx}");
                }
                assert_eq!(
                    interp.prot.protected_regs(),
                    fast.prot.protected_regs(),
                    "register ProtSet diverged: {ctx}"
                );
                assert_eq!(
                    interp.prot.unprotected_byte_count(),
                    fast.prot.unprotected_byte_count(),
                    "memory ProtSet diverged: {ctx}"
                );

                // Every observer projection of the trace — ARCH, CT,
                // CTS (with this binary's secrecy typing), UNPROT —
                // agrees between the backends.
                for observer in [
                    ObserverMode::Arch,
                    ObserverMode::Ct,
                    ObserverMode::Cts(public_typing(program)),
                    ObserverMode::Unprot,
                ] {
                    assert_eq!(
                        observer.trace(&interp_records),
                        observer.trace(&fast_records),
                        "{} projection diverged: {ctx}",
                        observer.name()
                    );
                }
            }
        });
}

/// Truncated step budgets: both backends must stop at the same step with
/// the same status (`StepLimit` when the budget cuts the run short), and
/// the records of the cut run must be exactly the prefix of the full
/// run's records. The campaign relies on this: a mutant whose SEQ run
/// hits the budget is never compared, so the backends must agree on
/// which runs those are.
#[test]
fn threaded_oracle_matches_interpreter_under_truncated_budgets() {
    Checker::new("threaded_oracle_matches_interpreter_under_truncated_budgets")
        .cases(12)
        .run(arb_case, |(seed, programs, input)| {
            for program in programs {
                let threaded = ThreadedProgram::new(program);
                let (full_exit, full) = Emulator::new(program, input.clone()).run(MAX_STEPS);
                let n = full.len() as u64;
                for budget in [0, 1, 7, n / 2, n.saturating_sub(1), n, n + 1] {
                    let ctx = format!("seed={seed:#x} budget={budget} of {n}");
                    let mut interp = Emulator::new(program, input.clone());
                    let (interp_exit, interp_records) = interp.run(budget);
                    let mut fast = Emulator::with_threaded(program, &threaded, input.clone());
                    let (fast_exit, fast_records) = fast.run(budget);
                    assert_eq!(interp_exit, fast_exit, "exit status diverged: {ctx}");
                    if budget < n {
                        assert_eq!(interp_exit, ExitStatus::StepLimit, "{ctx}");
                    } else if n < MAX_STEPS {
                        assert_eq!(interp_exit, full_exit, "{ctx}");
                    }
                    assert_eq!(interp.steps(), fast.steps(), "step count diverged: {ctx}");
                    assert_eq!(
                        interp_records, fast_records,
                        "ExecRecord stream diverged: {ctx}"
                    );
                    assert_eq!(
                        interp_records[..],
                        full[..interp_records.len()],
                        "not a prefix of the full run: {ctx}"
                    );
                }
            }
        });
}
