//! Golden fixture for [`fuzz`], the plain campaign call.
//!
//! Runs the `campaign_perf --quick` roster plus one campaign for each
//! report rule that only some configurations reach — `stop_at_first`, a
//! single gadget template, a defense that truncates every base run, and
//! rendered counterexample traces — and compares each `Report` against a
//! committed fixture. Rendered example traces are pinned by FNV-1a hash
//! to keep the fixture readable.
//!
//! The fixture was recorded from the batch driver that `fuzz` used to
//! run its own per-program worker on; it pins the counting rules that
//! driver established (a truncated base run bumps `hw_truncated` once
//! and `no_partner` by `inputs_per_program` with no `pairs_rejected`;
//! under `stop_at_first` nothing after the stopping mutant is counted).
//!
//! Regenerate (only when an *intentional* behaviour change lands) with:
//!
//! ```text
//! PROTEAN_GOLDEN_REGEN=1 cargo test -p protean-bench --test golden_fuzz
//! ```

use protean_amulet::{fuzz, Adversary, ContractKind, FuzzConfig, GadgetTemplate, Report};
use protean_bench::Defense;
use protean_cc::Pass;
use protean_sim::{DefensePolicy, DynInst, RegTags, SpecFrontier};

/// A defense that never lets any µop execute: every base hardware run
/// deadlocks into the cycle budget and ends truncated.
struct StallForeverPolicy;

impl DefensePolicy for StallForeverPolicy {
    fn name(&self) -> String {
        "stall-forever".to_string()
    }

    fn may_execute(&self, _u: &DynInst, _tags: &RegTags, _fr: &SpecFrontier) -> bool {
        false
    }
}

type Factory = Box<dyn Fn() -> Box<dyn DefensePolicy> + Sync>;

fn defense(d: Defense) -> Factory {
    Box::new(move || d.make())
}

/// A `campaign_perf`-shaped configuration.
fn config(pass: Pass, contract: ContractKind, adversary: Adversary, programs: usize) -> FuzzConfig {
    let mut cfg = FuzzConfig::quick(pass, contract, adversary);
    cfg.programs = programs;
    cfg.inputs_per_program = 3;
    cfg.gen.seed = 0xbead;
    cfg.capture_traces = false;
    cfg
}

/// The fixture's campaigns: (name, config, defense).
fn cases() -> Vec<(&'static str, FuzzConfig, Factory)> {
    let arch = || config(Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb, 6);
    let mut stop = config(Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb, 12);
    stop.gen.seed = 3;
    stop.stop_at_first = true;
    let mut template = config(Pass::Ct, ContractKind::CtSeq, Adversary::Timing, 8);
    template.only_template = Some(GadgetTemplate::BoundsDiv);
    let mut traced = config(Pass::Arch, ContractKind::ArchSeq, Adversary::Timing, 8);
    traced.gen.seed = 7;
    traced.capture_traces = true;
    vec![
        ("quick:unsafe/arch/cache", arch(), defense(Defense::Unsafe)),
        (
            "quick:protdelay/ct/cache",
            config(Pass::Ct, ContractKind::CtSeq, Adversary::CacheTlb, 6),
            defense(Defense::ProtDelay),
        ),
        (
            "quick:prottrack/unprot/timing",
            config(
                Pass::Rand { prob: 0.5, seed: 7 },
                ContractKind::UnprotSeq,
                Adversary::Timing,
                6,
            ),
            defense(Defense::ProtTrack),
        ),
        (
            "stop-at-first:unsafe/arch/cache",
            stop,
            defense(Defense::Unsafe),
        ),
        (
            "only-template:sttoriginal/ct/timing",
            template,
            defense(Defense::SttOriginal),
        ),
        (
            "truncated-base:stall-forever/arch/cache",
            arch(),
            Box::new(|| Box::new(StallForeverPolicy)),
        ),
        (
            "capture-traces:sttoriginal/arch/timing",
            traced,
            defense(Defense::SttOriginal),
        ),
    ]
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The report with each rendered example trace replaced by its hash.
fn pinned(report: &Report) -> String {
    let mut r = report.clone();
    for e in &mut r.examples {
        e.trace = e
            .trace
            .as_ref()
            .map(|t| format!("fnv:{:016x}", fnv(t.as_bytes())));
    }
    format!("{r:?}")
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_fuzz.txt")
}

#[test]
fn fuzz_reports_match_golden_fixture() {
    let mut got = String::new();
    for (name, cfg, factory) in cases() {
        let report = fuzz(&cfg, &*factory);
        got.push_str(&format!("{name}: {}\n", pinned(&report)));
    }

    let path = fixture_path();
    if std::env::var_os("PROTEAN_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        println!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             PROTEAN_GOLDEN_REGEN=1 cargo test -p protean-bench --test golden_fuzz",
            path.display()
        )
    });
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(
            g, w,
            "fuzz report drifted from the golden fixture; if the change is \
             intentional, regenerate with PROTEAN_GOLDEN_REGEN=1 cargo test \
             -p protean-bench --test golden_fuzz"
        );
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
