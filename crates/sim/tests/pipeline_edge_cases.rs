//! Targeted pipeline edge cases: structural-hazard stalls, RSB
//! underflow, divider contention, squash interactions with in-flight
//! stores, and wrong-path fetch containment.

use protean_arch::{ArchState, Emulator, ExitStatus};
use protean_isa::{assemble, Program};
use protean_sim::{Core, CoreConfig, SimExit, SimResult, UnsafePolicy};

fn run_cfg(src: &str, init: ArchState, cfg: CoreConfig) -> SimResult {
    let prog = assemble(src).unwrap();
    check_against_emulator(&prog, &init);
    let mut core = Core::new(&prog, cfg, Box::new(UnsafePolicy), &init);
    core.record_traces(true);
    let r = core.run(500_000, 60_000_000);
    assert_eq!(r.exit, SimExit::Halted);
    r
}

fn run(src: &str, init: ArchState) -> SimResult {
    run_cfg(src, init, CoreConfig::test_tiny())
}

fn check_against_emulator(prog: &Program, init: &ArchState) {
    let mut emu = Emulator::new(prog, init.clone());
    let (status, _) = emu.run(500_000);
    assert_eq!(status, ExitStatus::Halted);
}

/// Deep recursion overflows the 8-entry RSB; returns past the capacity
/// mispredict, but results stay exact.
#[test]
fn rsb_overflow_recursion() {
    let r = run(
        r#"
          mov rsp, 0x80000
          mov r0, 20          ; recursion depth > RSB capacity
          call rec
          halt
        rec:
          cmp r0, 0
          jeq base
          sub r0, r0, 1
          call rec
          add r1, r1, 1
          ret
        base:
          ret
        "#,
        ArchState::new(),
    );
    assert_eq!(r.final_regs[1], 20);
    // Deep returns beyond the RSB must mispredict at least once.
    assert!(r.stats.mispredicts > 0, "RSB underflow should mispredict");
}

/// The (non-pipelined) divider serializes back-to-back divisions; the
/// second waits for the first's operand-dependent latency.
#[test]
fn divider_contention() {
    let serial = run(
        "mov r1, 0xffffffffffffffff\nmov r2, 3\ndiv r3, r1, r2\ndiv r4, r1, r2\ndiv r5, r1, r2\nhalt\n",
        ArchState::new(),
    );
    let single = run(
        "mov r1, 0xffffffffffffffff\nmov r2, 3\ndiv r3, r1, r2\nnop\nnop\nhalt\n",
        ArchState::new(),
    );
    assert!(
        serial.stats.cycles >= single.stats.cycles + 2 * 30,
        "three max-latency divisions must serialize: {} vs {}",
        serial.stats.cycles,
        single.stats.cycles
    );
}

/// Store-queue capacity: more in-flight stores than SQ entries must
/// stall rename, not corrupt state.
#[test]
fn store_queue_pressure() {
    let mut src = String::from("mov r0, 0x10000\n");
    for i in 0..32 {
        src.push_str(&format!("store [r0 + {}], {}\n", i * 8, i));
    }
    src.push_str("halt\n");
    let r = run(&src, ArchState::new()); // tiny core: SQ = 8
    assert_eq!(r.stats.stores, 32);
}

/// A store whose data arrives *after* a squash of younger instructions
/// must still commit the correct value.
#[test]
fn store_data_capture_survives_squash() {
    let mut init = ArchState::new();
    init.mem.write(0x20000, 8, 99); // drives the mispredicted branch
    let r = run(
        r#"
          mov r0, 0x10000
          mov r4, 0
        loop:
          load r1, [0x20000]       ; slow-ish data for the branch
          mul r2, r1, 7            ; store data, arrives late
          store [r0 + 8], r2
          cmp r1, 50
          jlt small                ; mispredicts on first trips
          add r4, r4, 1
        small:
          add r5, r5, 1
          cmp r5, 30
          jlt loop
          load r6, [r0 + 8]
          halt
        "#,
        init,
    );
    assert_eq!(r.final_regs[6], 99 * 7);
    assert_eq!(r.final_regs[4], 30);
}

/// Wrong-path execution must never commit: a trained branch guarding a
/// halt-free region, with the wrong path containing a `halt`.
#[test]
fn wrong_path_halt_never_commits() {
    let r = run(
        r#"
          mov r0, 0
        loop:
          add r0, r0, 1
          cmp r0, 200
          jult loop                ; taken 199 times; not-taken path: halt
          halt
        "#,
        ArchState::new(),
    );
    // Exactly 200 iterations committed despite the halt sitting on the
    // fall-through (often-fetched wrong) path.
    assert_eq!(r.final_regs[0], 200);
}

/// Physical-register exhaustion: a burst of writes wider than the free
/// list must stall rename and recover.
#[test]
fn phys_reg_pressure() {
    let mut src = String::new();
    for round in 0..40 {
        for i in 0..8 {
            src.push_str(&format!("add r{i}, r{i}, {round}\n"));
        }
    }
    src.push_str("halt\n");
    let r = run(&src, ArchState::new()); // tiny core: 64 phys regs
    assert_eq!(r.stats.committed, 40 * 8 + 1);
}

/// The same program must produce identical cycle counts on repeated runs
/// (full determinism — the bedrock of the fuzzer's pair comparisons).
#[test]
fn simulation_is_deterministic() {
    let src = r#"
      mov r0, 0x30000
      mov r1, 0
    loop:
      and r2, r1, 0xff8
      load r3, [r0 + r2*1]
      add r4, r4, r3
      cmp r3, 100
      jlt skip
      xor r4, r4, r1
    skip:
      add r1, r1, 8
      cmp r1, 4000
      jlt loop
      halt
    "#;
    let mut init = ArchState::new();
    for i in 0..512u64 {
        init.mem.write(0x30000 + i * 8, 8, i * 31 % 257);
    }
    let a = run(src, init.clone());
    let b = run(src, init);
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.timing, b.timing);
    assert_eq!(a.cache_obs, b.cache_obs);
}

/// P-core and E-core presets both run a mixed kernel correctly, and the
/// E-core (smaller ROB) takes at least as many cycles.
#[test]
fn core_presets_sanity() {
    let src = r#"
      mov r0, 0x40000
      mov r1, 0
    loop:
      load r2, [r0 + r1*8]
      mul r3, r2, 3
      store [r0 + 0x8000 + r1*8], r3
      add r1, r1, 1
      cmp r1, 400
      jlt loop
      halt
    "#;
    let p = run_cfg(src, ArchState::new(), CoreConfig::p_core());
    let e = run_cfg(src, ArchState::new(), CoreConfig::e_core());
    assert_eq!(p.final_regs, e.final_regs);
    assert!(e.stats.cycles >= p.stats.cycles * 9 / 10);
}

/// A zero port count used to run to the watchdog and report `Deadlock`;
/// `Core::new` now rejects it up front with the typed error's message.
#[test]
#[should_panic(expected = "invalid core configuration `tiny`: `alu_ports` must be positive")]
fn core_rejects_invalid_config() {
    let prog = assemble("mov r0, 1\nhalt\n").unwrap();
    let mut cfg = CoreConfig::test_tiny();
    cfg.alu_ports = 0;
    Core::new(&prog, cfg, Box::new(UnsafePolicy), &ArchState::new());
}
