//! Shared runs of the `golden_backends` and `golden_rob_sizes` fixtures.
//!
//! The random amulet-generated programs of the scheduler and front-end
//! differential tests (the same six property-test cases from the
//! default `protean_testkit` campaign seed) run through **every shipped
//! defense** on a given core configuration: the tiny,
//! high-squash-pressure core for `golden_backends`, and cores with
//! non-power-of-two ROBs for `golden_rob_sizes`. Each run is
//! reduced to a full observable snapshot — exit reason, final
//! registers, architectural protection bits, adversary-visible cache
//! tags, per-µop commit timing, committed instruction indices and every
//! `Stats` counter — and compared against a committed fixture.
//!
//! The `golden_backends` fixture was recorded while the flat ROB-slot
//! scheduler and the ordered-set scheduler, and the decode-once front
//! end and the decode-per-visit front end, were still asserted
//! observationally identical on exactly these runs, so every line is
//! also the observable of each retired leg.

use protean_amulet::{generate, init_cold_chain, GenConfig, PUBLIC_BASE, PUBLIC_SIZE};
use protean_arch::ArchState;
use protean_bench::Defense;
use protean_isa::{Program, Reg};
use protean_sim::{Core, CoreConfig, SimResult};
use protean_testkit::{Rng, SplitMix64, DEFAULT_SEED};

const MAX_INSTS: u64 = 20_000;
const MAX_CYCLES: u64 = 2_000_000;

/// Property-test cases the differential tests ran (`Checker::cases(6)`).
const CASES: usize = 6;

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

/// Command that rewrites the fixture `name` (its test has the same name).
fn regen_command(name: &str) -> String {
    format!("PROTEAN_GOLDEN_REGEN=1 cargo test -p protean-bench --test {name}")
}

/// The program seeds of the default property-test campaign: case seeds
/// drawn from [`DEFAULT_SEED`] through SplitMix64, each seeding the
/// case's generator RNG, exactly as `Checker::run` derives them (fixed
/// here so `PROTEAN_CHECK_*` overrides cannot move the fixture).
fn case_seeds() -> Vec<u64> {
    let mut case_seeds = SplitMix64::new(DEFAULT_SEED);
    (0..CASES)
        .map(|_| Rng::seed_from_u64(case_seeds.next_u64()).gen::<u64>())
        .collect()
}

/// A random program plus deterministic fuzzer-shaped input.
fn case(seed: u64) -> (Program, ArchState) {
    let program = generate(&GenConfig {
        segments: 3 + (seed % 4) as usize,
        gadget_bias: 0.2 + (seed >> 8 & 0x3f) as f64 / 100.0,
        seed,
    });
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
    (program, state)
}

fn run(program: &Program, input: &ArchState, cfg: &CoreConfig, defense: Defense) -> SimResult {
    let mut core = Core::new(program, cfg.clone(), defense.make(), input);
    core.record_traces(true);
    core.run(MAX_INSTS, MAX_CYCLES)
}

/// FNV-1a over a word stream (pins large vectors to one token).
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Everything observable about a finished run, as one fixture line.
fn digest(r: &SimResult) -> String {
    format!(
        "exit={:?} regs={:016x} prot={:016x} cache={:016x} timing={:016x} idxs={:016x} stats={:?}",
        r.exit,
        fnv(r.final_regs.iter().copied()),
        fnv(r.final_reg_prot.iter().map(|&b| b as u64)),
        fnv(r.cache_obs.iter().copied()),
        fnv(r.timing.iter().flat_map(|t| t.iter().copied())),
        fnv(r.committed_idxs.iter().map(|&i| i as u64)),
        r.stats
    )
}

/// Path of the committed fixture `name` (`golden_backends`, ...).
pub fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}.txt"))
}

/// Every case × defense run on a core built from `cfg`, one fixture
/// line each.
pub fn observed(cfg: &CoreConfig) -> String {
    let mut got = String::new();
    for seed in case_seeds() {
        let (program, input) = case(seed);
        for defense in DEFENSES {
            let r = run(&program, &input, cfg, defense);
            got.push_str(&format!("{seed:016x}/{defense:?}: {}\n", digest(&r)));
        }
    }
    got
}

/// Asserts that `got` equals the committed fixture `name` line by line;
/// `what` names the divergence in the failure message.
pub fn assert_matches_fixture(got: &str, name: &str, what: &str) {
    let path = fixture_path(name);
    let regen = regen_command(name);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with {regen}",
            path.display()
        )
    });
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(
            g, w,
            "{what}; if the change is intentional, regenerate with {regen}"
        );
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
