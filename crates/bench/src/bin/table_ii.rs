//! Reproduces **Tab. II**: AMuLeT\*-detected contract violations for
//! ProtCC-RAND/-ARCH/-CTS/-CT/-UNR test binaries on the unsafe baseline
//! and on Protean (ProtDelay and ProtTrack). False positives in
//! parentheses. Campaign sizes are scaled down like the artifact's
//! `table-ii.py` (§A-F2); expect many violations for the unsafe column
//! and zero true positives for Protean.
//!
//! Every table cell is one job on the `protean-jobs` pool (and each
//! cell's campaign fans out further, one job per generated program), so
//! the table saturates the machine; `PROTEAN_JOBS` caps the worker
//! count and the printed table is byte-identical at any setting.
//!
//! ```text
//! cargo run --release -p protean-bench --bin table_ii [--quick]
//! ```

use protean_amulet::{fuzz, Adversary, ContractKind, FuzzConfig, Report};
use protean_bench::report::BenchReport;
use protean_bench::TablePrinter;
use protean_cc::Pass;
use protean_core::{ProtDelayPolicy, ProtTrackPolicy};
use protean_sim::json::Json;
use protean_sim::{DefensePolicy, UnsafePolicy};

fn campaign(
    pass: Pass,
    contract: ContractKind,
    programs: usize,
    factory: &(dyn Fn() -> Box<dyn DefensePolicy> + Sync),
) -> Report {
    // Both adversary models, like the paper's two-stage setup (§VII-B2).
    let mut total = Report::default();
    for adversary in [Adversary::CacheTlb, Adversary::Timing] {
        let mut cfg = FuzzConfig::quick(pass, contract, adversary);
        cfg.programs = programs;
        cfg.inputs_per_program = 3;
        cfg.gen.seed = 0xc0ffee;
        // The table only sums counters: leave the hardware runs untraced.
        cfg.capture_traces = false;
        let r = fuzz(&cfg, factory);
        total.tests += r.tests;
        total.violations += r.violations;
        total.false_positives += r.false_positives;
        total.pairs_rejected += r.pairs_rejected;
    }
    total
}

fn main() {
    let (quick, _) = protean_bench::parse_flags();
    let programs = if quick { 8 } else { 30 };
    let rows: Vec<(&str, &str, Pass, ContractKind)> = vec![
        (
            "UNPROT-SEQ",
            "ProtCC-RAND",
            Pass::Rand { prob: 0.5, seed: 7 },
            ContractKind::UnprotSeq,
        ),
        ("ARCH-SEQ", "ProtCC-ARCH", Pass::Arch, ContractKind::ArchSeq),
        ("CTS-SEQ", "ProtCC-CTS", Pass::Cts, ContractKind::CtsSeq),
        ("CT-SEQ", "ProtCC-CT", Pass::Ct, ContractKind::CtSeq),
        ("CT-SEQ", "ProtCC-UNR", Pass::Unr, ContractKind::CtSeq),
    ];

    // One job per table cell (row × defense column); results land in
    // cell order, so the printed table is independent of scheduling.
    let cells: Vec<(usize, usize)> = (0..rows.len())
        .flat_map(|r| (0..3).map(move |c| (r, c)))
        .collect();
    let reports = protean_jobs::map(&cells, |_, &(r, c)| {
        let (_, _, pass, contract) = rows[r];
        match c {
            0 => campaign(pass, contract, programs, &|| Box::new(UnsafePolicy)),
            1 => campaign(pass, contract, programs, &|| {
                Box::new(ProtDelayPolicy::new())
            }),
            _ => campaign(pass, contract, programs, &|| {
                Box::new(ProtTrackPolicy::new())
            }),
        }
    });

    let t = TablePrinter::new(&[12, 14, 12, 12, 12]);
    println!("Table II: contract violations (true positives, false positives in parens)");
    println!("{programs} programs x 3 secret mutations x 2 adversary models per cell");
    t.row(&[
        "contract".into(),
        "instrument.".into(),
        "Unsafe".into(),
        "ProtDelay".into(),
        "ProtTrack".into(),
    ]);
    t.sep();
    let cell = |r: &Report| format!("{} ({})", r.violations, r.false_positives);
    for (r, (contract_name, instr, _, _)) in rows.iter().enumerate() {
        t.row(&[
            (*contract_name).into(),
            (*instr).into(),
            cell(&reports[r * 3]),
            cell(&reports[r * 3 + 1]),
            cell(&reports[r * 3 + 2]),
        ]);
    }
    t.sep();
    println!("Expected: >0 true positives for Unsafe, 0 for ProtDelay/ProtTrack.");

    let mut rep = BenchReport::new("table_ii");
    let defenses = ["Unsafe", "ProtDelay", "ProtTrack"];
    for (i, &(r, c)) in cells.iter().enumerate() {
        let (contract_name, instr, _, _) = rows[r];
        let report = &reports[i];
        rep.row(vec![
            ("contract", Json::str(contract_name)),
            ("instrumentation", Json::str(instr)),
            ("defense", Json::str(defenses[c])),
            ("tests", Json::U64(report.tests)),
            ("pairs_rejected", Json::U64(report.pairs_rejected)),
            ("violations", Json::U64(report.violations)),
            ("false_positives", Json::U64(report.false_positives)),
        ]);
    }
    rep.write_and_announce();
}
