//! The campaign engine's crash-consistency contract: a campaign killed
//! after any chunk and resumed from its snapshot finishes with a report
//! **byte-identical** to an uninterrupted run — at any worker count,
//! with every engine feature (prefilter, coverage guidance, triage)
//! enabled. Plus the coverage-map determinism corollary: the same seed
//! produces the same coverage counters regardless of parallelism.

use protean_amulet::{fuzz, run_campaign, Adversary, CampaignConfig, ContractKind, FuzzConfig};
use protean_sim::json::Json;
use protean_sim::UnsafePolicy;
use std::path::PathBuf;

fn engine_cfg(workers: usize, capture_traces: bool) -> CampaignConfig {
    let mut fuzz = FuzzConfig::quick(Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb);
    fuzz.programs = 8;
    fuzz.inputs_per_program = 3;
    fuzz.gen.seed = 0xbead;
    fuzz.workers = Some(workers);
    fuzz.capture_traces = capture_traces;
    let mut cfg = CampaignConfig::new(fuzz);
    cfg.chunk_size = 2;
    cfg.coverage_guided = true;
    cfg.prefilter = true;
    cfg.triage = true;
    cfg
}

use protean_cc::Pass;

fn temp_snapshot(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("protean_campaign_resume_tests");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Kill the campaign after 1, 2, and 3 chunks (of 4), resume each, and
/// compare against the uninterrupted run — crossing worker counts 1 and
/// 4 between the killed and resuming halves.
#[test]
fn killed_campaign_resumes_byte_identically() {
    let uninterrupted = run_campaign(&engine_cfg(1, false), &|| Box::new(UnsafePolicy));
    assert!(uninterrupted.complete);
    assert!(
        uninterrupted.report.violations > 0,
        "the unsafe core must leak for this test to be meaningful"
    );
    assert!(!uninterrupted.triage.is_empty(), "triage must bucket them");
    assert!(!uninterrupted.coverage.is_empty(), "coverage must populate");

    for kill_after in [1usize, 2, 3] {
        for (kill_workers, resume_workers) in [(1, 4), (4, 1), (4, 4)] {
            let path = temp_snapshot(&format!("kill{kill_after}_w{kill_workers}{resume_workers}"));
            let mut first = engine_cfg(kill_workers, false);
            first.snapshot = Some(path.clone());
            first.max_chunks_per_call = Some(kill_after);
            let partial = run_campaign(&first, &|| Box::new(UnsafePolicy));
            assert!(!partial.complete, "kill after {kill_after} chunks");
            assert_eq!(partial.chunks_done as usize, kill_after);

            let mut second = engine_cfg(resume_workers, false);
            second.snapshot = Some(path.clone());
            let resumed = run_campaign(&second, &|| Box::new(UnsafePolicy));
            assert!(resumed.resumed, "second call must load the snapshot");
            assert!(resumed.complete);
            assert_eq!(
                resumed.digest(),
                uninterrupted.digest(),
                "kill after {kill_after} chunks ({kill_workers}→{resume_workers} workers)"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Example violations — including their rendered base/mutant pipeline
/// traces — survive the snapshot roundtrip byte-identically.
#[test]
fn resumed_examples_keep_their_traces() {
    let uninterrupted = run_campaign(&engine_cfg(1, true), &|| Box::new(UnsafePolicy));
    assert!(uninterrupted
        .report
        .examples
        .iter()
        .any(|e| e.trace.is_some()));

    let path = temp_snapshot("traced_examples");
    let mut first = engine_cfg(4, true);
    first.snapshot = Some(path.clone());
    first.max_chunks_per_call = Some(2);
    run_campaign(&first, &|| Box::new(UnsafePolicy));
    let mut second = engine_cfg(1, true);
    second.snapshot = Some(path.clone());
    let resumed = run_campaign(&second, &|| Box::new(UnsafePolicy));
    assert_eq!(resumed.digest(), uninterrupted.digest());
    let _ = std::fs::remove_file(&path);
}

/// Coverage counters are a pure function of the seed: the same campaign
/// at worker counts 1 and 4 produces identical coverage maps (weights
/// are only updated at chunk boundaries, so intra-chunk completion
/// order cannot leak into scheduling).
#[test]
fn coverage_map_is_worker_count_independent() {
    let a = run_campaign(&engine_cfg(1, false), &|| Box::new(UnsafePolicy));
    let b = run_campaign(&engine_cfg(4, false), &|| Box::new(UnsafePolicy));
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.digest(), b.digest());
}

/// Features-off engine runs reproduce the batch driver byte-identically
/// even across a kill/resume cycle.
#[test]
fn features_off_resume_still_matches_fuzz() {
    let mut base = engine_cfg(1, false);
    base.coverage_guided = false;
    base.prefilter = false;
    base.triage = false;
    let direct = fuzz(&base.fuzz, &|| Box::new(UnsafePolicy));

    let path = temp_snapshot("features_off");
    let mut first = base.clone();
    first.fuzz.workers = Some(4);
    first.snapshot = Some(path.clone());
    first.max_chunks_per_call = Some(1);
    run_campaign(&first, &|| Box::new(UnsafePolicy));
    let mut second = base.clone();
    second.snapshot = Some(path.clone());
    let resumed = run_campaign(&second, &|| Box::new(UnsafePolicy));
    assert_eq!(format!("{direct:?}"), format!("{:?}", resumed.report));
    let _ = std::fs::remove_file(&path);
}

/// A snapshot with one damaged field is refused loudly instead of
/// resuming into a silently different report. Each damage below is
/// applied to a real snapshot (with traced examples, triage buckets and
/// coverage rows): a malformed field of each row kind, and a missing
/// counter row.
#[test]
fn damaged_snapshot_is_refused() {
    let path = temp_snapshot("damaged");
    let mut first = engine_cfg(1, true);
    first.snapshot = Some(path.clone());
    first.max_chunks_per_call = Some(2);
    run_campaign(&first, &|| Box::new(UnsafePolicy));
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();

    // (row kind, row key or "" for the kind's first row, damaged value,
    // expected message); kind "missing" deletes the keyed row instead.
    let corruptions = [
        (
            "counter",
            "tests",
            "3x",
            "non-integer counter row \"tests\"",
        ),
        ("counter", "programs_done", "", "non-integer counter row"),
        ("coverage", "", "-1", "non-integer coverage row"),
        ("triage", "", r#"{"count":1}"#, "bad false_positives field"),
        (
            "triage",
            "",
            r#"{"count":"2","false_positives":0,"first_program_seed":1,"first_input_index":0}"#,
            "bad count field",
        ),
        (
            "example",
            "",
            r#"{"program_seed":1,"input_index":0,"false_positive":"no","trace":null}"#,
            "bad false_positive",
        ),
        ("missing", "hw_pairs", "", "no hw_pairs counter"),
    ];
    for (kind, key, value, expected) in corruptions {
        let mut damaged = doc.clone();
        let rows = rows_mut(&mut damaged);
        let is_target = |r: &Json| {
            (kind == "missing" || text(r, "kind") == kind)
                && (key.is_empty() || text(r, "key") == key)
        };
        if kind == "missing" {
            rows.retain(|r| !is_target(r));
        } else {
            let Some(Json::Obj(cols)) = rows.iter_mut().find(|r| is_target(r)) else {
                panic!("the snapshot has a {kind} row to damage");
            };
            cols.iter_mut().find(|(c, _)| c == "value").unwrap().1 = Json::str(value);
        }
        std::fs::write(&path, damaged.render_pretty()).unwrap();
        let mut second = engine_cfg(1, true);
        second.snapshot = Some(path.clone());
        let Err(err) =
            std::panic::catch_unwind(|| run_campaign(&second, &|| Box::new(UnsafePolicy)))
        else {
            panic!("a damaged {kind} row must be refused");
        };
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains(expected) && msg.contains("refusing to resume"),
            "{kind} damage: unexpected message {msg:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// The `rows` array of a snapshot document.
fn rows_mut(doc: &mut Json) -> &mut Vec<Json> {
    let Json::Obj(fields) = doc else {
        panic!("a snapshot is an object")
    };
    match fields.iter_mut().find(|(k, _)| k == "rows") {
        Some((_, Json::Arr(rows))) => rows,
        _ => panic!("a snapshot has a rows array"),
    }
}

/// A string column of a snapshot row.
fn text<'a>(row: &'a Json, column: &str) -> &'a str {
    row.get(column).and_then(|v| v.as_str()).unwrap_or("")
}
