//! `fuzz-batch` and `fuzz-service`: AMuLeT\*-style campaigns over the
//! `campaign_perf` roster (unsafe/arch/cache, protdelay/ct/cache,
//! prottrack/unprot/timing), with the benchmark's seed as generator seed.
//!
//! * `fuzz-batch` runs each case through `run_campaign` with every
//!   engine feature off and no snapshot, at `nproc` workers. Its traced
//!   run replays every program through the crates' public calls and must
//!   reproduce the campaign's `Report` exactly.
//! * `fuzz-service` runs the `campaign_service` configuration (coverage
//!   guidance, SEQ prefilter, triage, 2-program chunks, a snapshot) one
//!   chunk per `run_campaign` call, resuming from the snapshot each call.

use crate::calib::{Calibrator, Sample};
use crate::cli::Args;
use crate::host;
use crate::layers::SimSums;
use crate::metrics::{Outcome, Timing, Unit};
use crate::stats::{ratio, Fnv};
use protean_amulet::{
    generate, init_cold_chain, run_campaign, Adversary, CampaignConfig, CampaignReport,
    ContractKind, FuzzConfig, GenConfig, Report, Violation, PUBLIC_BASE, PUBLIC_SIZE, SECRET_BASE,
    SECRET_SIZE,
};
use protean_arch::{
    ArchState, Emulator, ExecRecord, ExitStatus, Obs, ObserverMode, ThreadedProgram,
};
use protean_cc::{compile_with, Pass};
use protean_core::{ProtDelayPolicy, ProtTrackPolicy};
use protean_isa::{Program, Reg};
use protean_rng::{Rng, SplitMix64};
use protean_sim::{Core, DefensePolicy, SimExit, SimResult, UnsafePolicy};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Programs per case in one `fuzz-batch` campaign.
pub const BATCH_PROGRAMS: usize = 384;
/// Programs per case in one `fuzz-service` campaign.
pub const SERVICE_PROGRAMS: usize = 192;
/// Mutant inputs per program (as `campaign_perf`).
const INPUTS_PER_PROGRAM: usize = 3;
/// Programs per chunk (one chunk per service call).
const SERVICE_CHUNK: usize = 2;
/// Set-up repetitions whose median is reported as `setup_s`.
const SETUP_REPS: usize = 5;
/// Programs per case in a set-up (warm-up) campaign.
const WARM_PROGRAMS: usize = 16;
/// Longest gap between calibration bursts.
const CALIBRATE_EVERY: Duration = Duration::from_millis(100);

/// One campaign of the roster.
struct Case {
    name: &'static str,
    /// The defense's `sim.*` metric suffix.
    defense: &'static str,
    pass: Pass,
    contract: ContractKind,
    adversary: Adversary,
    policy: fn() -> Box<dyn DefensePolicy>,
    /// Whether the defense must block every violation.
    protected: bool,
}

const CASES: [Case; 3] = [
    Case {
        name: "unsafe/arch/cache",
        defense: "unsafe",
        pass: Pass::Arch,
        contract: ContractKind::ArchSeq,
        adversary: Adversary::CacheTlb,
        policy: || Box::new(UnsafePolicy),
        protected: false,
    },
    Case {
        name: "protdelay/ct/cache",
        defense: "protdelay",
        pass: Pass::Ct,
        contract: ContractKind::CtSeq,
        adversary: Adversary::CacheTlb,
        policy: || Box::new(ProtDelayPolicy::new()),
        protected: true,
    },
    Case {
        name: "prottrack/unprot/timing",
        defense: "prottrack",
        pass: Pass::Rand { prob: 0.5, seed: 7 },
        contract: ContractKind::UnprotSeq,
        adversary: Adversary::Timing,
        policy: || Box::new(ProtTrackPolicy::new()),
        protected: true,
    },
];

fn fuzz_config(case: &Case, programs: usize, seed: u64, workers: usize) -> FuzzConfig {
    let mut cfg = FuzzConfig::quick(case.pass, case.contract, case.adversary);
    cfg.programs = programs;
    cfg.inputs_per_program = INPUTS_PER_PROGRAM;
    cfg.gen.seed = seed;
    cfg.capture_traces = false;
    cfg.workers = Some(workers);
    cfg
}

fn batch_config(case: &Case, programs: usize, seed: u64, workers: usize) -> CampaignConfig {
    CampaignConfig::new(fuzz_config(case, programs, seed, workers))
}

fn service_config(
    case: &Case,
    programs: usize,
    seed: u64,
    workers: usize,
    dir: &Path,
) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(fuzz_config(case, programs, seed, workers));
    cfg.chunk_size = SERVICE_CHUNK;
    cfg.coverage_guided = true;
    cfg.prefilter = true;
    cfg.triage = true;
    cfg.snapshot = Some(dir.join(format!("{}.json", case.name.replace('/', "_"))));
    cfg.max_chunks_per_call = Some(1);
    cfg
}

/// Hash of the roster's configurations with the seed, worker count and
/// snapshot location taken out.
fn roster_hash(workload: &str, cfgs: &[CampaignConfig]) -> String {
    let mut h = Fnv::default();
    h.field(workload);
    for (case, cfg) in CASES.iter().zip(cfgs) {
        let mut canon = cfg.clone();
        canon.fuzz.gen.seed = 0;
        canon.fuzz.workers = None;
        canon.snapshot = None;
        h.field(case.name);
        h.field(&format!("{canon:?}"));
    }
    h.hex()
}

/// Fingerprint of the first `programs` generated programs of a campaign
/// seeded with `seed`: the generated inputs, as a hash.
pub fn inputs_fingerprint(seed: u64, programs: usize) -> String {
    let mut h = Fnv::default();
    for p in 0..programs {
        let cfg = GenConfig {
            seed: program_seed(seed, p),
            ..GenConfig::default()
        };
        h.field(&format!("{:?}", generate(&cfg).insts));
    }
    h.hex()
}

/// Checks the roster's security outcome: the unsafe core leaks, the
/// protected cases find no true positive. Counts hardware runs.
fn check_reports(out: &mut Outcome, reports: &[CampaignReport]) {
    for (case, r) in CASES.iter().zip(reports) {
        let v = r.report.violations;
        if case.protected {
            out.check(v == 0, || {
                format!("{}: {v} true-positive violations", case.name)
            });
        } else {
            out.check(v >= 1, || format!("{}: no violation found", case.name));
        }
        out.check(r.complete, || format!("{}: campaign incomplete", case.name));
        let failed = r.report.hw_truncated + r.report.no_partner;
        out.attempted += r.report.tests + failed;
        out.failed += failed;
    }
}

fn digest(reports: &[CampaignReport]) -> String {
    let mut h = Fnv::default();
    for (case, r) in CASES.iter().zip(reports) {
        h.field(case.name);
        h.field(&r.digest());
    }
    h.hex()
}

/// Checks a repeated campaign's digest against the first one.
fn check_repeat(out: &mut Outcome, case: &Case, first: &CampaignReport, again: &CampaignReport) {
    out.check(first.digest() == again.digest(), || {
        format!("{}: repeated campaign differs", case.name)
    });
}

/// Sets the end-to-end metrics of a fuzz workload, plus
/// `violations_per_s` of the unsafe case, whose work is `unsafe_units`.
fn report_end_to_end(
    out: &mut Outcome,
    timing: &Timing,
    cal: &Calibrator,
    reports: &[CampaignReport],
    unsafe_units: std::ops::Range<usize>,
) {
    timing.report(cal, out);
    let unsafe_s: f64 = timing.units[unsafe_units]
        .iter()
        .map(|u| u.time(&|s: &Sample| s.scaled(cal)))
        .sum();
    let found = reports[0].report.violations as f64;
    out.workload_metrics
        .push(("violations_per_s", "1/s", found / unsafe_s));
}

/// Runs `fuzz-batch`.
pub fn batch(args: &Args) -> Outcome {
    let workers = host::nproc();
    let mut out = Outcome {
        workers,
        ..Outcome::default()
    };
    let mut cal = Calibrator::new(workers, CALIBRATE_EVERY);
    let mut timing = Timing::default();
    // Set-up: build the roster and warm every case with a small campaign
    // (thread pool, allocator, page faults).
    for _ in 0..SETUP_REPS {
        cal.burst();
        let ((), sample) = Sample::time(|| {
            for case in &CASES {
                run_campaign(
                    &batch_config(case, WARM_PROGRAMS, args.seed, workers),
                    &case.policy,
                );
            }
        });
        timing.setup.push(sample);
    }
    let cfgs: Vec<CampaignConfig> = CASES
        .iter()
        .map(|c| batch_config(c, BATCH_PROGRAMS, args.seed, workers))
        .collect();
    out.roster_hash = roster_hash("fuzz-batch", &cfgs);

    if args.trace {
        batch_traced(&cfgs, &mut out);
        return out;
    }

    let start = Instant::now();
    let mut reports: Vec<CampaignReport> = Vec::new();
    timing.units = CASES.iter().map(|_| Unit::default()).collect();
    loop {
        for (c, (case, cfg)) in CASES.iter().zip(&cfgs).enumerate() {
            cal.tick();
            let (r, sample) = Sample::time(|| run_campaign(cfg, &case.policy));
            let unit = &mut timing.units[c];
            unit.committed = r.report.committed_uops;
            unit.tests = r.report.tests;
            unit.samples.push(sample);
            match reports.get(c) {
                None => reports.push(r),
                Some(first) => check_repeat(&mut out, case, first, &r),
            }
        }
        if start.elapsed() >= args.seconds {
            break;
        }
    }
    cal.burst();
    let rounds = timing.units[0].samples.len() as u64;
    check_reports(&mut out, &reports);
    out.attempted *= rounds;
    out.failed *= rounds;
    out.sim_digest = digest(&reports);
    report_end_to_end(&mut out, &timing, &cal, &reports, 0..1);
    out
}

/// The traced `fuzz-batch` run: one untraced round, then every program
/// replayed through the public calls with each call timed.
fn batch_traced(cfgs: &[CampaignConfig], out: &mut Outcome) {
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let reports: Vec<CampaignReport> = CASES
        .iter()
        .zip(cfgs)
        .map(|(case, cfg)| run_campaign(cfg, &case.policy))
        .collect();
    let untraced_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    check_reports(out, &reports);
    out.sim_digest = digest(&reports);
    out.set("jobs.cpu_util", cpu_s / (untraced_s * out.workers as f64));

    let start = Instant::now();
    let mut total = Replay::default();
    for (case, (cfg, campaign)) in CASES.iter().zip(cfgs.iter().zip(&reports)) {
        let fuzz = &cfg.fuzz;
        let programs = protean_jobs::map_indexed_with(out.workers, fuzz.programs, |p| {
            replay_program(case, fuzz, p)
        });
        let mut report = Report::default();
        for r in programs {
            merge_report(&mut report, &r.report);
            total.absorb(&r);
        }
        out.check(
            format!("{report:?}") == format!("{:?}", campaign.report),
            || {
                format!(
                    "{}: traced replay does not reproduce the campaign report",
                    case.name
                )
            },
        );
    }
    let traced_s = start.elapsed().as_secs_f64();
    out.tracing_overhead_s = Some(traced_s - untraced_s);

    let t = &total;
    out.set("amulet.generate_us", t.generate_s * 1e6 / t.programs as f64);
    out.set("cc.compile_ms", t.compile_s * 1e3 / t.programs as f64);
    out.set("arch.lower_us", t.lower_s * 1e6 / t.programs as f64);
    out.set("arch.seq_ns_per_step", t.seq_s * 1e9 / t.seq_steps as f64);
    out.set("arch.seq_share", t.seq_s / t.program_s);
    out.set(
        "sim.core_new_ms",
        ratio(t.core_new_s * 1e3, t.core_news as f64),
    );
    out.set("sim.reset_us", ratio(t.reset_s * 1e6, t.resets as f64));
    out.set("sim.run_share", t.sums.run_s() / t.program_s);
    out.set(
        "amulet.pair_admit_frac",
        ratio(t.admitted as f64, t.mutants as f64),
    );
    t.sums.report(out);
}

/// The campaign engine's ordered merge of one program's report.
fn merge_report(into: &mut Report, part: &Report) {
    into.tests += part.tests;
    into.pairs_rejected += part.pairs_rejected;
    into.violations += part.violations;
    into.false_positives += part.false_positives;
    into.committed_uops += part.committed_uops;
    into.hw_truncated += part.hw_truncated;
    into.no_partner += part.no_partner;
    for v in &part.examples {
        if into.examples.len() < Report::MAX_EXAMPLES {
            into.examples.push(v.clone());
        }
    }
}

/// Per-call times and counts of replayed programs.
#[derive(Default)]
struct Replay {
    report: Report,
    programs: u64,
    program_s: f64,
    generate_s: f64,
    compile_s: f64,
    lower_s: f64,
    seq_s: f64,
    seq_steps: u64,
    core_new_s: f64,
    core_news: u64,
    reset_s: f64,
    resets: u64,
    /// Mutants whose SEQ trace halted (candidate pairs).
    mutants: u64,
    /// Candidate pairs admitted as contract-equivalent.
    admitted: u64,
    sums: SimSums,
}

impl Replay {
    /// Adds another program's times and counts (not its report, which
    /// merges in program order).
    fn absorb(&mut self, r: &Replay) {
        self.programs += r.programs;
        self.program_s += r.program_s;
        self.generate_s += r.generate_s;
        self.compile_s += r.compile_s;
        self.lower_s += r.lower_s;
        self.seq_s += r.seq_s;
        self.seq_steps += r.seq_steps;
        self.core_new_s += r.core_new_s;
        self.core_news += r.core_news;
        self.reset_s += r.reset_s;
        self.resets += r.resets;
        self.mutants += r.mutants;
        self.admitted += r.admitted;
        self.sums.merge(&r.sums);
    }

    /// Times one SEQ trace: emulation plus the observer projection.
    fn seq_trace(
        &mut self,
        program: &Program,
        threaded: &ThreadedProgram,
        input: &ArchState,
        observer: &ObserverMode,
        max_steps: u64,
        records: &mut Vec<ExecRecord>,
    ) -> Option<Vec<Obs>> {
        let t = Instant::now();
        let mut emu = Emulator::with_threaded(program, threaded, input.clone());
        let status = emu.run_into(max_steps, records);
        let trace = (status == ExitStatus::Halted).then(|| observer.trace(records));
        self.seq_s += t.elapsed().as_secs_f64();
        self.seq_steps += emu.steps();
        trace
    }

    /// Times one hardware run of `core` under defense `key`.
    fn hw_run(&mut self, key: &str, core: &mut Core<'_>, max_steps: u64) -> SimResult {
        let t = Instant::now();
        let result = core.run_mut(max_steps, max_steps * 60);
        self.sums.add(key, t.elapsed().as_secs_f64(), &result.stats);
        self.report.committed_uops += result.stats.committed;
        result
    }
}

/// Replays program `p` of a features-off campaign through the public
/// calls — `generate`, `compile_with`, `ThreadedProgram::new`,
/// `Emulator::with_threaded(..).run_into`, `ObserverMode::trace`, and
/// `Core::new`/`reset`/`run_mut` — in the order the campaign engine
/// makes them, so its report must equal the campaign's.
fn replay_program(case: &Case, cfg: &FuzzConfig, p: usize) -> Replay {
    assert!(!cfg.stop_at_first && cfg.only_template.is_none());
    let began = Instant::now();
    let mut r = Replay {
        programs: 1,
        ..Replay::default()
    };
    let seed = program_seed(cfg.gen.seed, p);
    let gen = GenConfig {
        seed,
        ..cfg.gen.clone()
    };
    let t = Instant::now();
    let raw = generate(&gen);
    r.generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let program = compile_with(&raw, cfg.pass).program;
    r.compile_s = t.elapsed().as_secs_f64();
    let observer = cfg.contract.observer(&program);
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
    let t = Instant::now();
    let threaded = ThreadedProgram::new(&program);
    r.lower_s = t.elapsed().as_secs_f64();
    let mut records: Vec<ExecRecord> = Vec::new();

    let base = make_input(&mut rng);
    let Some(base_trace) = r.seq_trace(
        &program,
        &threaded,
        &base,
        &observer,
        cfg.max_steps,
        &mut records,
    ) else {
        r.program_s = began.elapsed().as_secs_f64();
        return r;
    };
    let t = Instant::now();
    let mut core = Core::new(&program, cfg.core.clone(), (case.policy)(), &base);
    r.core_new_s = t.elapsed().as_secs_f64();
    r.core_news = 1;
    core.record_traces(true);
    let base_hw = r.hw_run(case.defense, &mut core, cfg.max_steps);
    if base_hw.exit != SimExit::Halted {
        r.report.hw_truncated += 1;
        r.report.no_partner += cfg.inputs_per_program as u64;
        r.program_s = began.elapsed().as_secs_f64();
        return r;
    }
    for i in 0..cfg.inputs_per_program {
        let mut mutant = base.clone();
        randomize_secrets(&mut mutant, &mut rng);
        let Some(trace) = r.seq_trace(
            &program,
            &threaded,
            &mutant,
            &observer,
            cfg.max_steps,
            &mut records,
        ) else {
            continue;
        };
        r.mutants += 1;
        if trace != base_trace {
            r.report.pairs_rejected += 1;
            continue;
        }
        r.admitted += 1;
        let t = Instant::now();
        core.reset(&program, (case.policy)(), &mutant);
        r.reset_s += t.elapsed().as_secs_f64();
        r.resets += 1;
        core.record_traces(true);
        let mutant_hw = r.hw_run(case.defense, &mut core, cfg.max_steps);
        if mutant_hw.exit != SimExit::Halted {
            r.report.hw_truncated += 1;
            continue;
        }
        r.report.tests += 2;
        let differ = match cfg.adversary {
            Adversary::CacheTlb => base_hw.cache_obs != mutant_hw.cache_obs,
            Adversary::Timing => base_hw.timing != mutant_hw.timing,
        };
        if differ {
            let fp = base_hw.committed_idxs != mutant_hw.committed_idxs;
            if fp {
                r.report.false_positives += 1;
            } else {
                r.report.violations += 1;
            }
            if r.report.examples.len() < Report::MAX_EXAMPLES {
                r.report.examples.push(Violation {
                    program_seed: seed,
                    input_index: i,
                    false_positive: fp,
                    trace: None,
                });
            }
        }
    }
    r.program_s = began.elapsed().as_secs_f64();
    r
}

/// The campaign's per-program seed: the base seed scrambled through
/// SplitMix64, then mixed with the program index.
fn program_seed(base: u64, p: usize) -> u64 {
    let stream = SplitMix64::new(base).next_u64();
    SplitMix64::new(stream ^ p as u64).next_u64()
}

/// A base input: cold chain, small public values, secrets, registers.
fn make_input(rng: &mut Rng) -> ArchState {
    let mut state = ArchState::new();
    init_cold_chain(&mut state.mem);
    for i in 0..PUBLIC_SIZE / 8 {
        state
            .mem
            .write(PUBLIC_BASE + i * 8, 8, rng.gen_range(0..64));
    }
    randomize_secrets(&mut state, rng);
    for i in 0..6 {
        state.set_reg(Reg::gpr(i), rng.gen_range(0..1024));
    }
    state
}

fn randomize_secrets(state: &mut ArchState, rng: &mut Rng) {
    for i in 0..SECRET_SIZE / 8 {
        state.mem.write(SECRET_BASE + i * 8, 8, rng.gen::<u64>());
    }
}

/// A per-process snapshot directory inside the checkout, removed when
/// dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> WorkDir {
        let dir = host::checkout_root()
            .join(".perfbench-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("create the snapshot directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if empty
        }
    }
}

/// One whole service campaign from an empty snapshot: calls
/// `run_campaign` one chunk at a time until complete, with calibration
/// bursts (if given a calibrator) between calls, returning the final
/// report and, per call, its sample and the µops committed and tests
/// run in it.
fn service_campaign(
    case: &Case,
    cfg: &CampaignConfig,
    mut cal: Option<&mut Calibrator>,
) -> (CampaignReport, Vec<(Sample, u64, u64)>) {
    if let Some(path) = &cfg.snapshot {
        let _ = std::fs::remove_file(path);
    }
    let mut calls = Vec::new();
    let mut before = Report::default();
    loop {
        if let Some(cal) = cal.as_deref_mut() {
            cal.tick();
        }
        let (r, sample) = Sample::time(|| run_campaign(cfg, &case.policy));
        calls.push((
            sample,
            r.report.committed_uops - before.committed_uops,
            r.report.tests - before.tests,
        ));
        before = r.report.clone();
        if r.complete {
            return (r, calls);
        }
    }
}

/// Runs `fuzz-service`.
pub fn service(args: &Args) -> Outcome {
    let workers = host::nproc();
    let mut out = Outcome {
        workers,
        ..Outcome::default()
    };
    let dir = WorkDir::new();
    let mut cal = Calibrator::new(workers, CALIBRATE_EVERY);
    let mut timing = Timing::default();
    // Set-up: build the roster and warm every case with a small service
    // campaign (snapshots written, loaded and removed).
    for _ in 0..SETUP_REPS {
        cal.burst();
        let ((), sample) = Sample::time(|| {
            for case in &CASES {
                let cfg = service_config(case, WARM_PROGRAMS, args.seed, workers, &dir.0);
                service_campaign(case, &cfg, None);
            }
        });
        timing.setup.push(sample);
    }
    let cfgs: Vec<CampaignConfig> = CASES
        .iter()
        .map(|c| service_config(c, SERVICE_PROGRAMS, args.seed, workers, &dir.0))
        .collect();
    out.roster_hash = roster_hash("fuzz-service", &cfgs);

    // Traced runs make one untimed round first, without calibration.
    let budget = if args.trace {
        Duration::ZERO
    } else {
        args.seconds
    };
    let mut bursts = (!args.trace).then_some(&mut cal);
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut reports: Vec<CampaignReport> = Vec::new();
    // One unit per chunk: case `c`'s chunks are `case_units[c]`.
    let mut case_units = Vec::new();
    let mut reps = 0;
    loop {
        for (c, (case, cfg)) in CASES.iter().zip(&cfgs).enumerate() {
            let (r, calls) = service_campaign(case, cfg, bursts.as_deref_mut());
            if reps == 0 {
                let first = timing.units.len();
                for &(_, committed, tests) in &calls {
                    timing.units.push(Unit {
                        committed,
                        tests,
                        samples: Vec::new(),
                    });
                }
                case_units.push(first..timing.units.len());
            }
            for (unit, (sample, _, _)) in timing.units[case_units[c].clone()].iter_mut().zip(calls)
            {
                unit.samples.push(sample);
            }
            match reports.get(c) {
                None => reports.push(r),
                Some(first) => check_repeat(&mut out, case, first, &r),
            }
        }
        reps += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let untraced_wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    check_reports(&mut out, &reports);
    out.attempted *= reps;
    out.failed *= reps;
    out.sim_digest = digest(&reports);

    if !args.trace {
        cal.burst();
        report_end_to_end(&mut out, &timing, &cal, &reports, case_units[0].clone());
        return out;
    }

    // Traced: the same campaigns again, reading each call's report.
    let start = Instant::now();
    let mut call_s = Vec::new();
    for (case, (cfg, first)) in CASES.iter().zip(cfgs.iter().zip(&reports)) {
        let (r, calls) = service_campaign(case, cfg, None);
        check_repeat(&mut out, case, first, &r);
        call_s.extend(calls.iter().map(|(s, _, _)| s.secs));
    }
    out.tracing_overhead_s = Some(start.elapsed().as_secs_f64() - untraced_wall_s);
    let sum = |f: fn(&CampaignReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let candidates = sum(|r| r.candidates);
    out.set("jobs.cpu_util", cpu_s / (untraced_wall_s * workers as f64));
    out.set(
        "amulet.call_ms",
        call_s.iter().sum::<f64>() * 1e3 / call_s.len() as f64,
    );
    out.set("amulet.triage_reruns", candidates);
    out.set(
        "amulet.prefilter_hit_rate",
        ratio(
            sum(|r| r.prefilter_pairs),
            sum(|r| r.prefilter_pairs + r.prefilter_rejected),
        ),
    );
    out.set(
        "amulet.dedup_ratio",
        ratio(candidates, sum(|r| r.triage.len() as u64)),
    );
    out.set("amulet.coverage_keys", sum(|r| r.coverage.len() as u64));
    out
}

#[cfg(test)]
mod tests {

    use super::*;

    #[test]
    fn generated_inputs_follow_the_seed() {
        assert_eq!(inputs_fingerprint(5, 3), inputs_fingerprint(5, 3));
        assert_ne!(inputs_fingerprint(5, 3), inputs_fingerprint(6, 3));
    }

    #[test]
    fn traced_replay_reproduces_a_small_campaign() {
        for case in &CASES {
            let cfg = batch_config(case, 4, 11, 1);
            let campaign = run_campaign(&cfg, &case.policy);
            let mut report = Report::default();
            for p in 0..cfg.fuzz.programs {
                merge_report(&mut report, &replay_program(case, &cfg.fuzz, p).report);
            }
            assert_eq!(
                format!("{report:?}"),
                format!("{:?}", campaign.report),
                "{}",
                case.name
            );
        }
    }
}
