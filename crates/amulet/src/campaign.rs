//! The persistent, resumable campaign engine (ROADMAP item 3).
//!
//! [`fuzz`](crate::fuzz) is a batch driver: it fans a fixed program
//! count over workers and returns one report. Paper-scale evaluation
//! (§VII-B) instead wants *long-running* campaigns that survive
//! preemption, spend cheap SEQ emulation before expensive cycle-accurate
//! replay, dedup the violation firehose into root-cause buckets, and
//! steer generation toward undercovered microarchitectural behavior.
//! [`run_campaign`] adds those four capabilities on top of the exact
//! same per-program worker:
//!
//! * **Chunked work queue + snapshots.** The program stream is processed
//!   in chunks of [`CampaignConfig::chunk_size`] via
//!   `protean_jobs::map_range_with`; after every chunk the full
//!   accumulator state is written to a versioned JSON snapshot
//!   (`protean_sim::json`, no serde) with an atomic tmp-file rename. A
//!   killed campaign restarted with the same config resumes from the
//!   last chunk boundary and finishes **byte-identical** to an
//!   uninterrupted run, at any `PROTEAN_JOBS` worker count — chunk
//!   boundaries are a pure function of `chunk_size`, and per-chunk
//!   results concatenate to the single-call result (asserted in
//!   `protean-jobs` tests).
//! * **Two-stage cheap-first filter.** All of a program's mutant SEQ
//!   traces (threaded-code oracle, PR 7) are computed *before* any
//!   hardware run; if no mutant is contract-equivalent to the base, the
//!   cycle-accurate core is never constructed for that program.
//!   [`CampaignReport::prefilter_rejected`] / `prefilter_pairs` /
//!   `hw_pairs` quantify the stage-1 hit rate.
//! * **Audit-signature triage.** Each candidate violation is bucketed on
//!   the [`Trace::audit_signature`](protean_sim::Trace::audit_signature)
//!   of its mutant run — the sorted set of `(gate, rule)` defense
//!   decisions plus squash causes. One root cause, one [`TriageBucket`],
//!   regardless of how many seeds re-trigger it.
//! * **Coverage-guided generation.** The traced base run's pipeline
//!   events (squash causes × defense block rules), attributed to the
//!   gadget templates the generator drew, feed a coverage map; template
//!   weights for chunk *k* are derived from the map as of the end of
//!   chunk *k − 1* (`w = 1 + c_max − c`), biasing generation toward
//!   undercovered templates. Updating weights only at chunk boundaries
//!   keeps reports worker-count independent.
//!
//! **Tracing.** When triage, coverage guidance or counterexample capture
//! ([`FuzzConfig::capture_traces`]) is on, the engine builds its
//! per-program arena core with pipeline tracing on, and triage, coverage
//! and counterexample rendering all read the traces of the runs the
//! engine already simulated — no run is ever replayed. Tracing is
//! observation-only, and the tracer renders each static instruction's
//! disassembly once per run, so a traced campaign costs about what the
//! simulation itself costs.
//!
//! With every feature flag off, the engine routes each program through
//! the *same* [`fuzz_one_program`] worker as [`fuzz`](crate::fuzz) and
//! merges with the same fold — the resulting [`Report`] is
//! byte-identical to the batch driver's.

use crate::fuzzer::{
    self, derive_program_seed, fuzz_one_program, merge_outcome, FuzzConfig, ProgramOutcome, Report,
    SeqOracle, Violation,
};
use crate::generator::{self, GadgetTemplate, GenConfig};
use protean_arch::{ArchState, ExecRecord};
use protean_cc::compile_with;
use protean_rng::Rng;
use protean_sim::json::Json;
use protean_sim::{Core, DefensePolicy, SimExit, SimResult, Trace};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Campaign-engine configuration: a [`FuzzConfig`] plus the engine
/// feature flags. The defaults leave every feature off, in which state
/// [`run_campaign`] reproduces [`fuzz`](crate::fuzz) byte-identically.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The underlying fuzzing configuration. `fuzz.programs` is the
    /// length of the program stream; `fuzz.workers` resolves the worker
    /// count exactly as in [`fuzz`](crate::fuzz).
    pub fuzz: FuzzConfig,
    /// Programs per work-queue chunk: the snapshot/coverage-update
    /// granularity. Reports are independent of this value only when
    /// coverage guidance is off (weights change at chunk boundaries).
    pub chunk_size: usize,
    /// Snapshot file path. `Some(path)`: state is saved after every
    /// chunk and, if `path` exists when the campaign starts, loaded and
    /// resumed from. `None`: run in memory only.
    pub snapshot: Option<PathBuf>,
    /// Feed pipeline-event coverage back into template selection.
    pub coverage_guided: bool,
    /// Skip a program's hardware runs entirely when the cheap SEQ stage
    /// admits none of its mutant pairs.
    pub prefilter: bool,
    /// Triage candidate violations into audit-signature buckets.
    pub triage: bool,
    /// Stop after this many chunks in this call (the campaign is *not*
    /// complete; a later call resumes from the snapshot). `None`: run to
    /// completion. This is how tests and CI simulate a killed campaign.
    pub max_chunks_per_call: Option<usize>,
}

impl CampaignConfig {
    /// An engine wrapper around `fuzz` with every feature off.
    pub fn new(fuzz: FuzzConfig) -> CampaignConfig {
        CampaignConfig {
            fuzz,
            chunk_size: 8,
            snapshot: None,
            coverage_guided: false,
            prefilter: false,
            triage: false,
            max_chunks_per_call: None,
        }
    }

    /// Whether any per-program engine feature is on (off ⇒ the program
    /// worker is exactly [`fuzz_one_program`]).
    fn engine_features_on(&self) -> bool {
        self.coverage_guided || self.prefilter || self.triage
    }
}

/// One root-cause bucket of the violation triage: every candidate whose
/// mutant run produced the same audit signature.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TriageBucket {
    /// Candidate violations with this signature (true and false
    /// positives).
    pub count: u64,
    /// How many of them the committed-fingerprint filter rejected.
    pub false_positives: u64,
    /// Program seed of the first candidate in the bucket (a reproducer).
    pub first_program_seed: u64,
    /// Input index of the first candidate.
    pub first_input_index: usize,
}

/// Campaign results: the plain fuzzing [`Report`] plus engine state
/// (progress cursor, prefilter statistics, triage buckets, coverage
/// map). Everything except [`CampaignReport::resumed`] is a
/// deterministic function of `(config, completed chunk count)`.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// The accumulated fuzzing report (same fold as [`fuzz`](crate::fuzz)).
    pub report: Report,
    /// Programs fully processed (the resume cursor).
    pub programs_done: usize,
    /// Chunks fully processed.
    pub chunks_done: u64,
    /// Mutant pairs admitted by the cheap SEQ stage (contract-equivalent).
    pub prefilter_pairs: u64,
    /// Mutant pairs rejected by the cheap SEQ stage (observer traces
    /// differ — never reached hardware).
    pub prefilter_rejected: u64,
    /// Hardware pair replays actually compared (both runs halted).
    pub hw_pairs: u64,
    /// Candidate violations before dedup (true + false positives).
    pub candidates: u64,
    /// Violation triage: audit signature → bucket. Empty unless
    /// [`CampaignConfig::triage`] is on.
    pub triage: BTreeMap<String, TriageBucket>,
    /// Pipeline-event coverage map: `template|event` → count. Empty
    /// unless [`CampaignConfig::coverage_guided`] is on.
    pub coverage: BTreeMap<String, u64>,
    /// `stop_at_first` fired.
    pub stopped: bool,
    /// This call loaded state from a snapshot (session-local; excluded
    /// from [`CampaignReport::digest`] and never persisted).
    pub resumed: bool,
    /// The whole program stream has been processed (or `stop_at_first`
    /// ended the campaign). `false` after a `max_chunks_per_call` exit.
    pub complete: bool,
}

impl CampaignReport {
    /// A deterministic rendering of every field except `resumed`: a
    /// killed-and-resumed campaign must produce the same digest as an
    /// uninterrupted one, and `resumed` is the one field that records
    /// *how* the state was reached rather than what it is.
    pub fn digest(&self) -> String {
        format!(
            "{:?}|programs_done={}|chunks_done={}|prefilter={}/{}|hw_pairs={}|candidates={}|triage={:?}|coverage={:?}|stopped={}|complete={}",
            self.report,
            self.programs_done,
            self.chunks_done,
            self.prefilter_pairs,
            self.prefilter_rejected,
            self.hw_pairs,
            self.candidates,
            self.triage,
            self.coverage,
            self.stopped,
            self.complete,
        )
    }
}

/// Snapshot schema version (bumped on incompatible layout changes; a
/// mismatched snapshot is refused rather than misread).
const SNAPSHOT_VERSION: u64 = 1;

/// Runs (or resumes) a campaign. See the module docs for the engine's
/// contract; in short:
///
/// * with every feature flag off the returned
///   [`CampaignReport::report`] is byte-identical to
///   [`fuzz`](crate::fuzz) on the same [`FuzzConfig`];
/// * killing the campaign after any chunk (simulated via
///   [`CampaignConfig::max_chunks_per_call`], or a real SIGKILL — the
///   snapshot write is atomic) and re-running with the same config
///   resumes and finishes with an identical [`CampaignReport::digest`],
///   at any worker count.
///
/// # Panics
///
/// Panics if an existing snapshot was written by a different config
/// (fingerprint mismatch) or snapshot schema version, or if any of its
/// rows is missing, malformed or of an unknown kind — resuming a
/// campaign under a silently different configuration or state would
/// corrupt the determinism contract, so it is refused loudly.
pub fn run_campaign(
    cfg: &CampaignConfig,
    policy_factory: &(dyn Fn() -> Box<dyn DefensePolicy> + Sync),
) -> CampaignReport {
    let fingerprint = config_fingerprint(cfg);
    let mut state = CampaignReport::default();
    if let Some(path) = &cfg.snapshot {
        if path.exists() {
            state = load_snapshot(path, &fingerprint);
            state.resumed = true;
        }
    }

    let workers = cfg.fuzz.workers.unwrap_or_else(protean_jobs::worker_count);
    let total = cfg.fuzz.programs;
    let mut chunks_this_call = 0usize;

    while state.programs_done < total && !state.stopped {
        if let Some(max) = cfg.max_chunks_per_call {
            if chunks_this_call >= max {
                return state; // simulated kill: snapshot already saved
            }
        }
        let start = state.programs_done;
        let end = (start + cfg.chunk_size.max(1)).min(total);
        // Coverage weights are frozen for the whole chunk, derived from
        // the map as of the previous chunk boundary — the scheduling
        // decision is independent of intra-chunk completion order, so
        // reports stay byte-identical at any worker count.
        let weights = cfg
            .coverage_guided
            .then(|| coverage_weights(&state.coverage));
        let outcomes = protean_jobs::map_range_with(workers, start..end, |p| {
            run_one(cfg, p, weights.as_ref(), policy_factory)
        });

        state.programs_done = end;
        for (off, outcome) in outcomes.into_iter().enumerate() {
            let stopped = outcome.outcome.stopped;
            fold_outcome(&mut state, outcome);
            if stopped {
                // stop_at_first: discard later programs of the chunk and
                // pin the cursor to the stopping program, exactly like
                // the batch driver's ordered-merge break.
                state.stopped = true;
                state.programs_done = start + off + 1;
                break;
            }
        }
        state.chunks_done += 1;
        chunks_this_call += 1;
        state.complete = state.programs_done >= total || state.stopped;
        if let Some(path) = &cfg.snapshot {
            save_snapshot(path, &fingerprint, &state);
        }
    }
    state.complete = state.programs_done >= total || state.stopped;
    state
}

/// One program's engine outcome: the plain fuzzing outcome plus the
/// engine-only event streams, all merged in program order.
struct EngineOutcome {
    outcome: ProgramOutcome,
    prefilter_pairs: u64,
    prefilter_rejected: u64,
    hw_pairs: u64,
    candidates: u64,
    /// Coverage events, one `template|event` key per increment.
    coverage: Vec<String>,
    /// Triage events: `(signature, program_seed, input_index, fp)`.
    triage: Vec<(String, u64, usize, bool)>,
}

impl EngineOutcome {
    fn plain(outcome: ProgramOutcome) -> EngineOutcome {
        EngineOutcome {
            outcome,
            prefilter_pairs: 0,
            prefilter_rejected: 0,
            hw_pairs: 0,
            candidates: 0,
            coverage: Vec::new(),
            triage: Vec::new(),
        }
    }
}

fn fold_outcome(state: &mut CampaignReport, eo: EngineOutcome) {
    state.prefilter_pairs += eo.prefilter_pairs;
    state.prefilter_rejected += eo.prefilter_rejected;
    state.hw_pairs += eo.hw_pairs;
    state.candidates += eo.candidates;
    for key in eo.coverage {
        *state.coverage.entry(key).or_insert(0) += 1;
    }
    for (sig, seed, input, fp) in eo.triage {
        let bucket = state.triage.entry(sig).or_insert_with(|| TriageBucket {
            count: 0,
            false_positives: 0,
            first_program_seed: seed,
            first_input_index: input,
        });
        bucket.count += 1;
        if fp {
            bucket.false_positives += 1;
        }
    }
    merge_outcome(&mut state.report, eo.outcome);
}

/// Template weights from the coverage map: `w = 1 + c_max − c`, where
/// `c` sums every event counter attributed to the template. A template
/// at the coverage frontier (max events) keeps weight 1; the least
/// covered template is `1 + (c_max − c_min)` times likelier.
fn coverage_weights(coverage: &BTreeMap<String, u64>) -> [u64; GadgetTemplate::ALL.len()] {
    let mut counts = [0u64; GadgetTemplate::ALL.len()];
    for (i, t) in GadgetTemplate::ALL.iter().enumerate() {
        let prefix = format!("{}|", t.name());
        counts[i] = coverage
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, c)| c)
            .sum();
    }
    let c_max = counts.iter().copied().max().unwrap_or(0);
    counts.map(|c| 1 + c_max - c)
}

/// Dispatches one program to the plain worker (features off — exact
/// [`fuzz`](crate::fuzz) behavior) or the engine worker.
fn run_one(
    cfg: &CampaignConfig,
    p: usize,
    weights: Option<&[u64; GadgetTemplate::ALL.len()]>,
    policy_factory: &(dyn Fn() -> Box<dyn DefensePolicy> + Sync),
) -> EngineOutcome {
    if !cfg.engine_features_on() {
        return EngineOutcome::plain(fuzz_one_program(&cfg.fuzz, p, policy_factory));
    }
    engine_one_program(cfg, p, weights, policy_factory)
}

/// The engine's per-program worker: [`fuzz_one_program`] restructured
/// into the two-stage cheap-first shape, with coverage harvesting and
/// audit-signature triage. Pure function of `(cfg, p, weights)`.
fn engine_one_program(
    cc: &CampaignConfig,
    p: usize,
    weights: Option<&[u64; GadgetTemplate::ALL.len()]>,
    policy_factory: &(dyn Fn() -> Box<dyn DefensePolicy> + Sync),
) -> EngineOutcome {
    let cfg = &cc.fuzz;
    let mut report = Report::default();
    let mut stopped = false;
    let mut eo = EngineOutcome::plain(ProgramOutcome {
        report: Report::default(),
        stopped: false,
    });

    let seed = derive_program_seed(cfg.gen.seed, p);
    let gen_cfg = GenConfig {
        seed,
        ..cfg.gen.clone()
    };
    let generated = generator::generate_recorded(&gen_cfg, cfg.only_template, weights);
    let program = compile_with(&generated.program, cfg.pass).program;
    let observer = cfg.contract.observer(&program);
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
    let mut records: Vec<ExecRecord> = Vec::new();
    let oracle = SeqOracle::new(&program, cfg.oracle);

    if cc.coverage_guided {
        // Template-ran events are recorded even when the hardware stage
        // is skipped, so the weight feedback sees every draw.
        for t in &generated.templates {
            eo.coverage.push(format!("{}|ran", t.name()));
        }
    }

    let base = fuzzer::make_input(&mut rng);
    let Some(base_trace) = fuzzer::seq_trace(
        &program,
        &oracle,
        &base,
        &observer,
        cfg.max_steps,
        &mut records,
    ) else {
        eo.outcome = ProgramOutcome { report, stopped };
        return eo;
    };

    // Stage 1 (cheap): draw every mutant and SEQ-trace it on the
    // threaded oracle before any cycle-accurate hardware run. The
    // mutants are drawn in the same RNG order as the batch driver's
    // interleaved loop, so the admitted inputs are identical.
    let mut admitted: Vec<(usize, ArchState)> = Vec::new();
    for i in 0..cfg.inputs_per_program {
        let mut mutant = base.clone();
        fuzzer::randomize_secrets(&mut mutant, &mut rng);
        let Some(mutant_trace) = fuzzer::seq_trace(
            &program,
            &oracle,
            &mutant,
            &observer,
            cfg.max_steps,
            &mut records,
        ) else {
            continue;
        };
        if mutant_trace != base_trace {
            report.pairs_rejected += 1;
            eo.prefilter_rejected += 1;
            continue;
        }
        eo.prefilter_pairs += 1;
        admitted.push((i, mutant));
    }

    if cc.prefilter && admitted.is_empty() {
        // Stage 1 admitted nothing: the hardware core is never built.
        eo.outcome = ProgramOutcome { report, stopped };
        return eo;
    }

    // Stage 2 (expensive): cycle-accurate runs of the admitted pairs.
    // Whenever a run's trace is read — the base run's for the coverage
    // harvest, a candidate's mutant run for triage, both for a rendered
    // counterexample — the core records pipeline traces. Tracing is
    // observation-only, so every counter matches an untraced run, and an
    // arena core reset between runs records exactly the trace a fresh
    // core would (the `traced_reset_equiv` test pins this).
    let mut core_cfg = cfg.core.clone();
    core_cfg.trace |= cc.coverage_guided || cc.triage || cfg.capture_traces;
    let mut core = Core::new(&program, core_cfg, policy_factory(), &base);
    core.record_traces(true);
    let base_hw = core.run_mut(cfg.max_steps, cfg.max_steps * 60);
    report.committed_uops += base_hw.stats.committed;
    if cc.coverage_guided {
        let trace = trace_of(&base_hw);
        let causes = trace.squash_causes();
        let mut rules: Vec<String> = trace
            .blocked_by_rule()
            .iter()
            .map(|(point, rule, _)| format!("{}/{rule}", point.name()))
            .collect();
        rules.sort();
        rules.dedup();
        let mut templates = generated.templates.clone();
        templates.sort_by_key(|t| t.name());
        templates.dedup();
        for t in &templates {
            for c in &causes {
                eo.coverage.push(format!("{}|squash:{c}", t.name()));
            }
            for r in &rules {
                eo.coverage.push(format!("{}|block:{r}", t.name()));
            }
        }
    }
    if base_hw.exit != SimExit::Halted {
        report.hw_truncated += 1;
        report.no_partner += admitted.len() as u64;
        eo.outcome = ProgramOutcome { report, stopped };
        return eo;
    }

    for (i, mutant) in admitted {
        core.reset(&program, policy_factory(), &mutant);
        core.record_traces(true);
        let mutant_hw = core.run_mut(cfg.max_steps, cfg.max_steps * 60);
        report.committed_uops += mutant_hw.stats.committed;
        if mutant_hw.exit != SimExit::Halted {
            report.hw_truncated += 1;
            continue;
        }
        eo.hw_pairs += 1;
        report.tests += 2;
        if cfg.adversary.observations_differ(&base_hw, &mutant_hw) {
            eo.candidates += 1;
            let fp = base_hw.committed_idxs != mutant_hw.committed_idxs;
            if fp {
                report.false_positives += 1;
            } else {
                report.violations += 1;
            }
            if cc.triage {
                eo.triage
                    .push((trace_of(&mutant_hw).audit_signature(), seed, i, fp));
            }
            if report.examples.len() < Report::MAX_EXAMPLES {
                report.examples.push(Violation {
                    program_seed: seed,
                    input_index: i,
                    false_positive: fp,
                    trace: cfg.capture_traces.then(|| {
                        fuzzer::render_counterexample(trace_of(&base_hw), trace_of(&mutant_hw))
                    }),
                });
            }
            if !fp && cfg.stop_at_first {
                stopped = true;
                break;
            }
        }
    }
    eo.outcome = ProgramOutcome { report, stopped };
    eo
}

/// The trace of a run on the engine's traced arena core.
fn trace_of(run: &SimResult) -> &Trace {
    run.trace
        .as_ref()
        .expect("the engine traces every run whose trace it reads")
}

/// A cheap FNV-1a fingerprint of every campaign parameter that affects
/// results. The worker count is deliberately excluded — resuming at a
/// different `PROTEAN_JOBS` is exactly what the engine supports. The
/// defense policy is not capturable (it is a closure); callers resuming
/// a snapshot must supply the same policy.
fn config_fingerprint(cfg: &CampaignConfig) -> String {
    let mut canon = cfg.clone();
    canon.fuzz.workers = None;
    canon.max_chunks_per_call = None; // kill simulation, not a result input
    canon.snapshot = None; // the file's location is not its content
    let text = format!("{canon:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

// --- snapshot serialization -----------------------------------------
//
// The snapshot is a BenchReport-schema JSON document (`bench`,
// `schema:1`, uniform flat `rows`) so the existing `validate_json` CI
// gate covers snapshots with no new tooling. State is flattened into
// `{kind, key, value}` string triples: counters, coverage entries,
// triage buckets (value = nested compact JSON string), and recorded
// examples.

fn snapshot_json(fingerprint: &str, state: &CampaignReport) -> Json {
    let mut rows: Vec<Json> = Vec::new();
    let mut row = |kind: &str, key: String, value: String| {
        rows.push(Json::obj([
            ("kind", Json::str(kind)),
            ("key", Json::Str(key)),
            ("value", Json::Str(value)),
        ]));
    };
    row("meta", "version".into(), SNAPSHOT_VERSION.to_string());
    row("meta", "fingerprint".into(), fingerprint.to_string());
    let counters = [
        ("programs_done", state.programs_done as u64),
        ("chunks_done", state.chunks_done),
        ("stopped", state.stopped as u64),
        ("tests", state.report.tests),
        ("pairs_rejected", state.report.pairs_rejected),
        ("violations", state.report.violations),
        ("false_positives", state.report.false_positives),
        ("committed_uops", state.report.committed_uops),
        ("hw_truncated", state.report.hw_truncated),
        ("no_partner", state.report.no_partner),
        ("prefilter_pairs", state.prefilter_pairs),
        ("prefilter_rejected", state.prefilter_rejected),
        ("hw_pairs", state.hw_pairs),
        ("candidates", state.candidates),
    ];
    for (k, v) in counters {
        row("counter", k.into(), v.to_string());
    }
    for (i, v) in state.report.examples.iter().enumerate() {
        let example = Json::obj([
            ("program_seed", Json::U64(v.program_seed)),
            ("input_index", Json::U64(v.input_index as u64)),
            ("false_positive", Json::Bool(v.false_positive)),
            (
                "trace",
                match &v.trace {
                    Some(t) => Json::str(t.clone()),
                    None => Json::Null,
                },
            ),
        ]);
        row("example", i.to_string(), example.render());
    }
    for (k, c) in &state.coverage {
        row("coverage", k.clone(), c.to_string());
    }
    for (sig, b) in &state.triage {
        let bucket = Json::obj([
            ("count", Json::U64(b.count)),
            ("false_positives", Json::U64(b.false_positives)),
            ("first_program_seed", Json::U64(b.first_program_seed)),
            ("first_input_index", Json::U64(b.first_input_index as u64)),
        ]);
        row("triage", sig.clone(), bucket.render());
    }
    Json::obj([
        ("bench", Json::str("campaign_snapshot")),
        ("schema", Json::U64(1)),
        ("rows", Json::Arr(rows)),
    ])
}

fn save_snapshot(path: &Path, fingerprint: &str, state: &CampaignReport) {
    let doc = snapshot_json(fingerprint, state);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    // Atomic publish: a kill between write and rename leaves the old
    // snapshot intact; a torn write never becomes the snapshot.
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc.render_pretty())
        .and_then(|()| std::fs::rename(&tmp, path))
        .unwrap_or_else(|e| panic!("cannot write snapshot {}: {e}", path.display()));
}

/// Refuses a damaged snapshot. Every field is required and exact:
/// defaulting a missing or malformed one would resume the campaign into
/// a silently different report.
fn bad_snapshot(path: &Path, what: &str) -> ! {
    panic!("snapshot {} has {what}; refusing to resume", path.display())
}

/// Reads an exact integer field from a parsed snapshot object —
/// `Json::as_f64` would silently round seeds above 2^53.
fn get_u64(path: &Path, row: &str, obj: &Json, key: &str) -> u64 {
    match obj.get(key) {
        Some(Json::U64(v)) => *v,
        other => bad_snapshot(path, &format!("a bad {key} field in {row} ({other:?})")),
    }
}

/// Parses a row's integer value text.
fn parse_u64(path: &Path, row: &str, value: &str) -> u64 {
    value
        .parse()
        .unwrap_or_else(|_| bad_snapshot(path, &format!("a non-integer {row} value {value:?}")))
}

fn load_snapshot(path: &Path, fingerprint: &str) -> CampaignReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read snapshot {}: {e}", path.display()));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| panic!("snapshot {} is not JSON: {e}", path.display()));
    let rows = doc
        .get("rows")
        .and_then(|r| r.as_arr())
        .unwrap_or_else(|| panic!("snapshot {} has no rows", path.display()));

    let mut state = CampaignReport::default();
    let (mut versioned, mut fingerprinted) = (false, false);
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut examples: Vec<(u64, Violation)> = Vec::new();
    for (n, r) in rows.iter().enumerate() {
        let field = |f: &str| {
            r.get(f)
                .and_then(|v| v.as_str())
                .unwrap_or_else(|| bad_snapshot(path, &format!("row {n} without a string {f}")))
        };
        let (kind, key, value) = (field("kind"), field("key"), field("value"));
        let row = format!("{kind} row {key:?}");
        match (kind, key) {
            // The meta rows are written first, so a snapshot of another
            // schema version or config is refused before its other rows
            // are read.
            ("meta", "version") => {
                let v = parse_u64(path, &row, value);
                assert!(
                    v == SNAPSHOT_VERSION,
                    "snapshot {} has version {v}, engine expects {SNAPSHOT_VERSION}",
                    path.display()
                );
                versioned = true;
            }
            ("meta", "fingerprint") => {
                assert!(
                    value == fingerprint,
                    "snapshot {} was written by a different campaign config \
                     (fingerprint {value} != {fingerprint}); refusing to resume",
                    path.display()
                );
                fingerprinted = true;
            }
            ("counter", _) => {
                counters.insert(key.to_string(), parse_u64(path, &row, value));
            }
            ("coverage", _) => {
                state
                    .coverage
                    .insert(key.to_string(), parse_u64(path, &row, value));
            }
            ("triage", _) => {
                let b = Json::parse(value)
                    .unwrap_or_else(|e| bad_snapshot(path, &format!("a non-JSON {row}: {e}")));
                let get = |k: &str| get_u64(path, &row, &b, k);
                state.triage.insert(
                    key.to_string(),
                    TriageBucket {
                        count: get("count"),
                        false_positives: get("false_positives"),
                        first_program_seed: get("first_program_seed"),
                        first_input_index: get("first_input_index") as usize,
                    },
                );
            }
            ("example", _) => {
                let v = Json::parse(value)
                    .unwrap_or_else(|e| bad_snapshot(path, &format!("a non-JSON {row}: {e}")));
                let get = |k: &str| get_u64(path, &row, &v, k);
                let false_positive = match v.get("false_positive") {
                    Some(Json::Bool(b)) => *b,
                    other => {
                        bad_snapshot(path, &format!("a bad false_positive in {row} ({other:?})"))
                    }
                };
                let trace = match v.get("trace") {
                    Some(Json::Null) => None,
                    Some(Json::Str(t)) => Some(t.clone()),
                    other => bad_snapshot(path, &format!("a bad trace in {row} ({other:?})")),
                };
                examples.push((
                    parse_u64(path, "example index", key),
                    Violation {
                        program_seed: get("program_seed"),
                        input_index: get("input_index") as usize,
                        false_positive,
                        trace,
                    },
                ));
            }
            _ => bad_snapshot(path, &format!("an unknown {row}")),
        }
    }
    if !versioned || !fingerprinted {
        bad_snapshot(path, "no version or fingerprint row");
    }
    examples.sort_by_key(|(i, _)| *i);
    state.report.examples = examples.into_iter().map(|(_, v)| v).collect();
    let c = |k: &str| {
        counters
            .get(k)
            .copied()
            .unwrap_or_else(|| bad_snapshot(path, &format!("no {k} counter")))
    };
    state.programs_done = c("programs_done") as usize;
    state.chunks_done = c("chunks_done");
    state.stopped = c("stopped") != 0;
    state.report.tests = c("tests");
    state.report.pairs_rejected = c("pairs_rejected");
    state.report.violations = c("violations");
    state.report.false_positives = c("false_positives");
    state.report.committed_uops = c("committed_uops");
    state.report.hw_truncated = c("hw_truncated");
    state.report.no_partner = c("no_partner");
    state.prefilter_pairs = c("prefilter_pairs");
    state.prefilter_rejected = c("prefilter_rejected");
    state.hw_pairs = c("hw_pairs");
    state.candidates = c("candidates");
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzer::{Adversary, ContractKind};
    use protean_cc::Pass;
    use protean_sim::UnsafePolicy;

    fn tiny_cfg() -> CampaignConfig {
        let mut fuzz = FuzzConfig::quick(Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb);
        fuzz.programs = 6;
        fuzz.inputs_per_program = 2;
        fuzz.workers = Some(1);
        fuzz.capture_traces = false;
        let mut cfg = CampaignConfig::new(fuzz);
        cfg.chunk_size = 2;
        cfg
    }

    #[test]
    fn snapshot_roundtrips_every_field() {
        let mut state = CampaignReport {
            programs_done: 7,
            chunks_done: 3,
            prefilter_pairs: 10,
            prefilter_rejected: 4,
            hw_pairs: 9,
            candidates: 2,
            stopped: true,
            complete: false,
            resumed: false,
            ..Default::default()
        };
        state.report.tests = 18;
        state.report.violations = 1;
        state.report.examples.push(Violation {
            program_seed: 0xdead,
            input_index: 1,
            false_positive: false,
            trace: Some("line1\nline2 \"quoted\"".to_string()),
        });
        state.coverage.insert("rsb|squash:branch".into(), 5);
        state.triage.insert(
            "rules[] squashes[branch]".into(),
            TriageBucket {
                count: 2,
                false_positives: 1,
                first_program_seed: 42,
                first_input_index: 0,
            },
        );
        let dir = std::env::temp_dir().join("protean_campaign_test_roundtrip");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("snap.json");
        save_snapshot(&path, "fp", &state);
        let loaded = load_snapshot(&path, "fp");
        // `complete` is recomputed by the driver, not persisted; compare
        // digests after normalizing it.
        let mut expect = state.clone();
        expect.complete = false;
        assert_eq!(loaded.digest(), expect.digest());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "different campaign config")]
    fn snapshot_fingerprint_mismatch_is_refused() {
        let dir = std::env::temp_dir().join("protean_campaign_test_fp");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("snap.json");
        save_snapshot(&path, "aaaa", &CampaignReport::default());
        let _ = load_snapshot(&path, "bbbb");
    }

    #[test]
    fn features_off_campaign_matches_fuzz() {
        let cfg = tiny_cfg();
        let direct = crate::fuzz(&cfg.fuzz, &|| Box::new(UnsafePolicy));
        let engine = run_campaign(&cfg, &|| Box::new(UnsafePolicy));
        assert_eq!(format!("{direct:?}"), format!("{:?}", engine.report));
        assert!(engine.complete);
        assert_eq!(engine.programs_done, cfg.fuzz.programs);
    }

    #[test]
    fn coverage_weights_favor_undercovered_templates() {
        let mut cov = BTreeMap::new();
        cov.insert("rsb|ran".to_string(), 9u64);
        cov.insert("rsb|squash:branch".to_string(), 1u64);
        let w = coverage_weights(&cov);
        // rsb has 10 events, everything else 0 → weight 1 vs 11.
        let rsb = GadgetTemplate::ALL
            .iter()
            .position(|t| t.name() == "rsb")
            .unwrap();
        assert_eq!(w[rsb], 1);
        for (i, &wi) in w.iter().enumerate() {
            if i != rsb {
                assert_eq!(wi, 11);
            }
        }
    }

    #[test]
    fn fingerprint_ignores_workers_and_kill_knobs() {
        let mut a = tiny_cfg();
        let mut b = tiny_cfg();
        b.fuzz.workers = Some(4);
        b.max_chunks_per_call = Some(1);
        b.snapshot = Some(PathBuf::from("/tmp/elsewhere.json"));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        a.fuzz.gen.seed = 99;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }
}
