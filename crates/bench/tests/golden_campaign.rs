//! Golden fixture for the campaign engine with every feature on.
//!
//! Runs a small `campaign_service`-style campaign — coverage guidance,
//! SEQ prefilter, audit-signature triage, 2-program chunks, rendered
//! counterexample traces — over the three-case roster the benchmark's
//! `fuzz-service` workload uses, plus STT as originally released under
//! the timing adversary (a defense that leaks while it blocks, so its
//! triage buckets carry defense rules), and compares each case's
//! `CampaignReport::digest()` against a committed fixture. The digest
//! covers every report counter, the triage buckets (keyed on audit
//! signatures) and the coverage map (keyed on squash causes and defense
//! block rules), so any change in how the engine obtains a run's trace
//! — or in the trace itself — shows up here. Rendered example traces
//! are pinned by FNV-1a hash to keep the fixture readable.
//!
//! Regenerate (only when an *intentional* behaviour change lands) with:
//!
//! ```text
//! PROTEAN_GOLDEN_REGEN=1 cargo test -p protean-bench --test golden_campaign
//! ```

use protean_amulet::{
    run_campaign, Adversary, CampaignConfig, CampaignReport, ContractKind, FuzzConfig,
};
use protean_bench::Defense;
use protean_cc::Pass;

/// Programs per case: enough for the unsafe case to produce several
/// candidates and triage buckets.
const PROGRAMS: usize = 24;

/// The `fuzz-service` roster plus a leaking baseline: (name, pass,
/// contract, adversary, defense).
const CASES: [(&str, Pass, ContractKind, Adversary, Defense); 4] = [
    (
        "unsafe/arch/cache",
        Pass::Arch,
        ContractKind::ArchSeq,
        Adversary::CacheTlb,
        Defense::Unsafe,
    ),
    (
        "protdelay/ct/cache",
        Pass::Ct,
        ContractKind::CtSeq,
        Adversary::CacheTlb,
        Defense::ProtDelay,
    ),
    (
        "prottrack/unprot/timing",
        Pass::Rand { prob: 0.5, seed: 7 },
        ContractKind::UnprotSeq,
        Adversary::Timing,
        Defense::ProtTrack,
    ),
    (
        "sttoriginal/arch/timing",
        Pass::Arch,
        ContractKind::ArchSeq,
        Adversary::Timing,
        Defense::SttOriginal,
    ),
];

fn service_config(pass: Pass, contract: ContractKind, adversary: Adversary) -> CampaignConfig {
    let mut fuzz = FuzzConfig::quick(pass, contract, adversary);
    fuzz.programs = PROGRAMS;
    fuzz.inputs_per_program = 3;
    fuzz.gen.seed = 7;
    fuzz.capture_traces = true;
    let mut cfg = CampaignConfig::new(fuzz);
    cfg.chunk_size = 2;
    cfg.coverage_guided = true;
    cfg.prefilter = true;
    cfg.triage = true;
    cfg
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The report's digest with each rendered example trace replaced by its
/// hash (the digest would otherwise carry hundreds of diagram lines).
fn pinned_digest(report: &CampaignReport) -> String {
    let mut r = report.clone();
    for e in &mut r.report.examples {
        e.trace = e
            .trace
            .as_ref()
            .map(|t| format!("fnv:{:016x}", fnv(t.as_bytes())));
    }
    r.digest()
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_campaign.txt")
}

#[test]
fn campaign_engine_matches_golden_fixture() {
    let mut got = String::new();
    for (name, pass, contract, adversary, defense) in CASES {
        let report = run_campaign(&service_config(pass, contract, adversary), &|| {
            defense.make()
        });
        assert!(report.complete, "{name}: campaign must run to completion");
        if matches!(defense, Defense::Unsafe | Defense::SttOriginal) {
            assert!(
                !report.triage.is_empty()
                    && report.report.examples.iter().all(|e| e.trace.is_some()),
                "{name}: the leaking defense must leak, be triaged and render \
                 traces for the fixture to pin anything"
            );
        }
        got.push_str(&format!("{name}: {}\n", pinned_digest(&report)));
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
             PROTEAN_GOLDEN_REGEN=1 cargo test -p protean-bench --test golden_campaign",
            path.display()
        )
    });
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "campaign digest drifted from the golden fixture");
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
