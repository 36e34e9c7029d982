//! `paper-matrix`: the Tab. IV SPEC2017 P-core matrix, run serially.
//!
//! Every kernel runs under Unsafe on its base binary, and for each class
//! row (ARCH/CTS/CT/UNR) under the row's best secure baseline on the base
//! binary plus ProtDelay and ProtTrack on the row's ProtCC binary: 12 ×
//! 13 = 156 cells, each a fresh `Core::new`, as the `table_iv` bin runs
//! them. The seed fixes the order the cells run in; the cells themselves
//! are the paper's.

use crate::calib::{Calibrator, Sample};
use crate::cli::Args;
use crate::host;
use crate::layers::SimSums;
use crate::metrics::{per_layer_name, Outcome, Timing, Unit};
use crate::stats::{median, ratio, Fnv};
use protean_arch::{Emulator, ExecRecord, ExitStatus};
use protean_bench::{geomean, prepare, run_workload, Binary, Defense, RunResult};
use protean_cc::{compile_with, Pass};
use protean_isa::{Program, Reg};
use protean_rng::Rng;
use protean_sim::{Core, CoreConfig, SimExit};
use protean_workloads::{spec2017, Scale, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One class row of Tab. IV.
struct Row {
    /// Suffix of the row's `cc.static_growth.*` metric.
    key: &'static str,
    baseline: Defense,
    pass: Pass,
    /// The paper's P-core geomeans (baseline, ProtDelay, ProtTrack),
    /// where the paper gives one.
    paper: [Option<f64>; 3],
}

const ROWS: [Row; 4] = [
    Row {
        key: "arch",
        baseline: Defense::Stt,
        pass: Pass::Arch,
        paper: [Some(1.369), Some(1.299), Some(1.089)],
    },
    Row {
        key: "cts",
        baseline: Defense::Spt,
        pass: Pass::Cts,
        paper: [Some(1.708), None, None],
    },
    Row {
        key: "ct",
        baseline: Defense::Spt,
        pass: Pass::Ct,
        paper: [Some(1.708), Some(1.527), Some(1.422)],
    },
    Row {
        key: "unr",
        baseline: Defense::SptSb,
        pass: Pass::Unr,
        paper: [Some(2.949), None, None],
    },
];

/// Set-up repetitions whose median is reported as `setup_s`.
const SETUP_REPS: usize = 3;
/// Longest gap between calibration bursts.
const CALIBRATE_EVERY: Duration = Duration::from_millis(100);

/// One cell of the matrix.
#[derive(Clone, Copy, Debug)]
struct Cell {
    kernel: usize,
    /// Class row, `None` for the Unsafe cell.
    row: Option<usize>,
    /// Column within the row: 0 baseline, 1 ProtDelay, 2 ProtTrack.
    column: usize,
    defense: Defense,
    /// Index into the kernel's binaries: 0 base, `1 + row` ProtCC.
    bin: usize,
}

impl Cell {
    fn binary(&self) -> Binary {
        match self.bin {
            0 => Binary::Base,
            b => Binary::SingleClass(ROWS[b - 1].pass),
        }
    }

    /// The defense's `sim.*` metric suffix.
    fn defense_key(&self) -> &'static str {
        match self.defense {
            Defense::Unsafe => "unsafe",
            Defense::Stt => "stt",
            Defense::Spt => "spt",
            Defense::SptSb => "sptsb",
            Defense::ProtDelay => "protdelay",
            Defense::ProtTrack => "prottrack",
            d => unreachable!("{d:?} is not in the matrix"),
        }
    }
}

/// The matrix's cells in canonical (kernel-major) order.
fn cells(kernels: usize) -> Vec<Cell> {
    let mut out = Vec::new();
    for kernel in 0..kernels {
        out.push(Cell {
            kernel,
            row: None,
            column: 0,
            defense: Defense::Unsafe,
            bin: 0,
        });
        for (r, row) in ROWS.iter().enumerate() {
            for (column, defense, bin) in [
                (0, row.baseline, 0),
                (1, Defense::ProtDelay, 1 + r),
                (2, Defense::ProtTrack, 1 + r),
            ] {
                out.push(Cell {
                    kernel,
                    row: Some(r),
                    column,
                    defense,
                    bin,
                });
            }
        }
    }
    out
}

/// The seeded order the `n` cells run in (Fisher–Yates).
pub fn cell_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// What the SEQ emulator says a binary must end with.
struct Reference {
    steps: u64,
    regs: [u64; Reg::COUNT],
}

struct Kernel {
    workload: Workload,
    /// Base binary, then one ProtCC binary per row.
    binaries: Vec<Program>,
    reference: Vec<Result<Reference, String>>,
}

struct Setup {
    kernels: Vec<Kernel>,
    build_s: f64,
    compile_ms: f64,
    ref_s: f64,
}

/// Builds the roster, compiles every row's ProtCC binary, and runs each
/// binary on the SEQ emulator for the output check.
fn setup() -> Setup {
    let start = Instant::now();
    let workloads = spec2017(Scale(1));
    let build_s = start.elapsed().as_secs_f64();

    let mut compile = Duration::ZERO;
    let mut compiles = 0u32;
    let mut reference = Duration::ZERO;
    let mut records: Vec<ExecRecord> = Vec::new();
    let kernels = workloads
        .into_iter()
        .map(|workload| {
            let base = &workload.threads[0].0;
            let mut binaries = vec![base.clone()];
            for row in &ROWS {
                let t = Instant::now();
                binaries.push(compile_with(base, row.pass).program);
                compile += t.elapsed();
                compiles += 1;
            }
            let t = Instant::now();
            let init = &workload.threads[0].1;
            let reference_of = |bin: &Program, records: &mut Vec<ExecRecord>| {
                let mut emu = Emulator::new(bin, init.clone());
                match emu.run_into(workload.max_insts, records) {
                    ExitStatus::Halted => Ok(Reference {
                        steps: emu.steps(),
                        regs: emu.state.regs,
                    }),
                    status => Err(format!("SEQ emulator ended {status:?}")),
                }
            };
            let refs = binaries
                .iter()
                .map(|b| reference_of(b, &mut records))
                .collect();
            reference += t.elapsed();
            Kernel {
                workload,
                binaries,
                reference: refs,
            }
        })
        .collect();
    Setup {
        kernels,
        build_s,
        compile_ms: compile.as_secs_f64() * 1e3 / f64::from(compiles.max(1)),
        ref_s: reference.as_secs_f64(),
    }
}

/// One cell through `protean_bench::run_workload`, as the paper bins
/// run it. A cell that does not halt makes `run_workload` panic; that is
/// caught and reported as a failed operation.
fn run_cell(kernels: &[Kernel], core: &CoreConfig, c: &Cell) -> Result<RunResult, String> {
    let k = &kernels[c.kernel];
    catch_unwind(AssertUnwindSafe(|| {
        run_workload(&k.workload, core, c.defense, c.binary())
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".into())
    })
}

fn cell_label(kernels: &[Kernel], c: &Cell) -> String {
    format!(
        "{} {:?} {:?}",
        kernels[c.kernel].workload.name,
        c.defense,
        c.binary()
    )
}

/// Checks a cell's result against the SEQ reference of its binary.
fn check_against_reference(
    out: &mut Outcome,
    label: &str,
    reference: &Result<Reference, String>,
    committed: u64,
) {
    match reference {
        Err(e) => out.check(false, || format!("{label}: {e}")),
        Ok(r) => out.check(r.steps == committed, || {
            format!("{label}: committed {committed}, SEQ emulator {}", r.steps)
        }),
    }
}

/// Per-cell results and samples of one or more untraced passes.
struct Timed {
    results: Vec<Option<RunResult>>,
    /// One unit per cell, in canonical order.
    units: Vec<Unit>,
    wall_s: f64,
    cpu_s: f64,
}

/// Runs the matrix in `order` until `budget` is spent (whole passes,
/// at least two; one without a budget), checking every cell. With a
/// calibrator, bursts run between cells and after the last.
fn timed_passes(
    s: &Setup,
    core: &CoreConfig,
    cells: &[Cell],
    order: &[usize],
    budget: Option<Duration>,
    mut cal: Option<&mut Calibrator>,
    out: &mut Outcome,
) -> Timed {
    let mut t = Timed {
        results: vec![None; cells.len()],
        units: (0..cells.len()).map(|_| Unit::default()).collect(),
        wall_s: 0.0,
        cpu_s: 0.0,
    };
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut passes = 0;
    loop {
        let pass = Instant::now();
        for &i in order {
            let c = &cells[i];
            if let Some(cal) = cal.as_deref_mut() {
                cal.tick();
            }
            let (result, sample) = Sample::time(|| run_cell(&s.kernels, core, c));
            out.attempted += 1;
            let label = cell_label(&s.kernels, c);
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("{label}: {e}"));
                    continue;
                }
            };
            check_against_reference(
                out,
                &label,
                &s.kernels[c.kernel].reference[c.bin],
                r.committed,
            );
            let unit = &mut t.units[i];
            unit.committed = r.committed;
            unit.tests = 1;
            unit.samples.push(sample);
            match &t.results[i] {
                None => t.results[i] = Some(r),
                Some(first) => out.check(run_key(first) == run_key(&r), || {
                    format!("{label}: differs between passes")
                }),
            }
        }
        // At least two passes, so no cell's time rests on a single run.
        passes += 1;
        let pass_s = pass.elapsed();
        match budget {
            Some(b) if passes < 2 || start.elapsed() + pass_s <= b => {}
            _ => break,
        }
    }
    if let Some(cal) = cal {
        cal.burst();
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t.cpu_s = host::cpu_seconds() - cpu0;
    t
}

/// Every deterministic field of a cell's result, as digest text.
fn run_key(r: &RunResult) -> String {
    format!(
        "{} {} {} {} {} {} {} {:?}",
        r.cycles,
        r.committed,
        r.exec_blocked_cycles,
        r.wakeup_blocked_cycles,
        r.resolve_blocked_cycles,
        r.iq_hwm,
        r.wheel_hwm,
        r.mispred_rate.map(f64::to_bits),
    )
}

/// Digest over every cell's deterministic result, in canonical order.
fn digest(kernels: &[Kernel], cells: &[Cell], results: &[Option<RunResult>]) -> String {
    let mut h = Fnv::default();
    for (c, r) in cells.iter().zip(results) {
        h.field(&cell_label(kernels, c));
        h.field(&r.as_ref().map_or_else(|| "failed".into(), run_key));
    }
    h.hex()
}

fn roster_hash(kernels: &[Kernel], cells: &[Cell]) -> String {
    let mut h = Fnv::default();
    h.field("paper-matrix");
    h.field(&format!("{:?}", CoreConfig::p_core()));
    for c in cells {
        h.field(&cell_label(kernels, c));
    }
    h.hex()
}

/// Norm geomeans per column over the four rows, and the paper error.
fn sim_accuracy(cells: &[Cell], results: &[Option<RunResult>], out: &mut Outcome) {
    let unsafe_cycles = |kernel: usize| {
        cells
            .iter()
            .zip(results)
            .find(|(c, _)| c.kernel == kernel && c.row.is_none())
            .and_then(|(_, r)| r.as_ref())
            .map(|r| r.cycles as f64)
    };
    // norms[row][column] = per-kernel normalized runtimes.
    let mut norms = vec![[Vec::new(), Vec::new(), Vec::new()]; ROWS.len()];
    for (c, r) in cells.iter().zip(results) {
        let (Some(row), Some(r)) = (c.row, r) else {
            continue;
        };
        if let Some(base) = unsafe_cycles(c.kernel) {
            norms[row][c.column].push(r.cycles as f64 / base);
        }
    }
    let names = [
        "norm_baseline_geomean",
        "norm_protdelay_geomean",
        "norm_prottrack_geomean",
    ];
    for (column, name) in names.into_iter().enumerate() {
        let all: Vec<f64> = norms.iter().flat_map(|r| r[column].clone()).collect();
        out.workload_metrics.push((name, "ratio", geomean(&all)));
    }
    let errs: Vec<f64> = ROWS
        .iter()
        .zip(&norms)
        .flat_map(|(row, n)| row.paper.iter().zip(n))
        .filter_map(|(paper, measured)| Some((geomean(measured) / (*paper)?).ln().abs()))
        .collect();
    let err = (errs.iter().sum::<f64>() / errs.len() as f64).exp();
    out.workload_metrics.push(("paper_err", "ratio", err));
}

/// Runs `paper-matrix`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        workers: 1,
        ..Outcome::default()
    };
    let mut cal = Calibrator::new(1, CALIBRATE_EVERY);
    let mut timing = Timing::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        cal.burst();
        let (s, sample) = Sample::time(setup);
        timing.setup.push(sample);
        setups.push(s);
    }
    let build_s = median(&setups.iter().map(|s| s.build_s).collect::<Vec<_>>());
    let compile_ms = median(&setups.iter().map(|s| s.compile_ms).collect::<Vec<_>>());
    let ref_s = median(&setups.iter().map(|s| s.ref_s).collect::<Vec<_>>());
    let s = setups.pop().expect("at least one set-up");
    drop(setups);

    let core = CoreConfig::p_core();
    let cells = cells(s.kernels.len());
    let order = cell_order(cells.len(), args.seed);
    out.roster_hash = roster_hash(&s.kernels, &cells);

    let timed = if args.trace {
        timed_passes(&s, &core, &cells, &order, None, None, &mut out)
    } else {
        timed_passes(
            &s,
            &core,
            &cells,
            &order,
            Some(args.seconds),
            Some(&mut cal),
            &mut out,
        )
    };
    out.sim_digest = digest(&s.kernels, &cells, &timed.results);
    sim_accuracy(&cells, &timed.results, &mut out);

    if args.trace {
        traced_pass(&s, &core, &cells, &order, &timed, &mut out);
        out.set("workloads.build_s", build_s);
        out.set("arch.ref_s", ref_s);
        out.set("cc.compile_ms", compile_ms);
        out.set("jobs.cpu_util", ratio(timed.cpu_s, timed.wall_s));
        for (r, row) in ROWS.iter().enumerate() {
            let growth: Vec<f64> = s
                .kernels
                .iter()
                .map(|k| k.binaries[1 + r].len() as f64 / k.binaries[0].len() as f64)
                .collect();
            let name = per_layer_name(&format!("cc.static_growth.{}", row.key));
            out.set(name, geomean(&growth));
        }
        return out;
    }
    timing.units = timed.units;
    timing.report(&cal, &mut out);
    out
}

/// Replays the matrix once through the public pieces `run_workload` is
/// made of — `prepare`, `Core::new`, `Core::run` — timing each, and
/// checks final registers, committed count and cycles.
fn traced_pass(
    s: &Setup,
    core: &CoreConfig,
    cells: &[Cell],
    order: &[usize],
    untraced: &Timed,
    out: &mut Outcome,
) {
    let mut sums = SimSums::default();
    let mut core_new_s = 0.0;
    let start = Instant::now();
    for &i in order {
        let c = &cells[i];
        let k = &s.kernels[c.kernel];
        let (program, init) = &k.workload.threads[0];
        let label = cell_label(&s.kernels, c);
        let max_insts = k.workload.max_insts;

        let prepared = prepare(program, c.binary());
        let t = Instant::now();
        let sim = Core::new(&prepared, core.clone(), c.defense.make(), init);
        core_new_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let result = sim.run(max_insts, max_insts * 600);
        sums.add(c.defense_key(), t.elapsed().as_secs_f64(), &result.stats);

        out.check(result.exit == SimExit::Halted, || {
            format!("{label}: traced run ended {:?}", result.exit)
        });
        check_against_reference(out, &label, &k.reference[c.bin], result.stats.committed);
        if let Ok(r) = &k.reference[c.bin] {
            out.check(r.regs == result.final_regs, || {
                format!("{label}: final registers differ from the SEQ emulator")
            });
        }
        if let Some(u) = &untraced.results[i] {
            out.check(u.cycles == result.stats.cycles, || {
                format!(
                    "{label}: traced run took {} cycles, untraced {}",
                    result.stats.cycles, u.cycles
                )
            });
        }
    }
    let traced_s = start.elapsed().as_secs_f64();
    out.tracing_overhead_s = Some(traced_s - untraced.wall_s);
    sums.report(out);
    out.set("sim.core_new_ms", core_new_s * 1e3 / cells.len() as f64);
    out.set("sim.run_share", sums.run_s() / traced_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_the_paper_shape() {
        let c = cells(12);
        assert_eq!(c.len(), 156);
        assert_eq!(
            c.iter().filter(|c| c.defense == Defense::Unsafe).count(),
            12
        );
        assert_eq!(
            c.iter().filter(|c| c.defense == Defense::ProtTrack).count(),
            48
        );
    }

    #[test]
    fn cell_order_follows_the_seed() {
        assert_eq!(cell_order(156, 3), cell_order(156, 3));
        assert_ne!(cell_order(156, 3), cell_order(156, 4));
        let mut sorted = cell_order(156, 9);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..156).collect::<Vec<_>>());
    }
}
