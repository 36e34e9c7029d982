//! The metric registry and the result a workload hands back.
//!
//! `END_TO_END` and `PER_LAYER` (with `cli::Workload`) are the single
//! source of the names the command prints; `BENCHMARK.json` must list
//! exactly the same names and units (checked by the `names` test).

use crate::calib::{Calibrator, Sample};
use crate::stats::{median, percentile};
use protean_sim::json::Json;
use std::collections::BTreeMap;

/// A metric name and its unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
/// Each is measured on every workload; see `README.md` for what a
/// "call" and a "test" are on each.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("ok_rate", "ratio"),
    m("sim_kuops_per_s", "kuops/s"),
    m("tests_per_s", "1/s"),
    m("call_ms_p50", "ms"),
    m("call_ms_p90", "ms"),
    m("call_ns_per_uop_p50", "ns/uop"),
    m("call_ns_per_uop_p90", "ns/uop"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.build_s", "s"),
    m("arch.ref_s", "s"),
    m("cc.compile_ms", "ms"),
    m("cc.static_growth.arch", "ratio"),
    m("cc.static_growth.cts", "ratio"),
    m("cc.static_growth.ct", "ratio"),
    m("cc.static_growth.unr", "ratio"),
    m("sim.core_new_ms", "ms"),
    m("sim.run_ns_per_uop.unsafe", "ns/uop"),
    m("sim.run_ns_per_uop.stt", "ns/uop"),
    m("sim.run_ns_per_uop.spt", "ns/uop"),
    m("sim.run_ns_per_uop.sptsb", "ns/uop"),
    m("sim.run_ns_per_uop.protdelay", "ns/uop"),
    m("sim.run_ns_per_uop.prottrack", "ns/uop"),
    m("sim.run_ns_per_cycle.unsafe", "ns/cycle"),
    m("sim.run_ns_per_cycle.stt", "ns/cycle"),
    m("sim.run_ns_per_cycle.spt", "ns/cycle"),
    m("sim.run_ns_per_cycle.sptsb", "ns/cycle"),
    m("sim.run_ns_per_cycle.protdelay", "ns/cycle"),
    m("sim.run_ns_per_cycle.prottrack", "ns/cycle"),
    m("sim.run_share", "ratio"),
    m("sim.ipc.unsafe", "uop/cycle"),
    m("sim.ipc.stt", "uop/cycle"),
    m("sim.ipc.spt", "uop/cycle"),
    m("sim.ipc.sptsb", "uop/cycle"),
    m("sim.ipc.protdelay", "uop/cycle"),
    m("sim.ipc.prottrack", "uop/cycle"),
    m("sim.fetched_per_committed.unsafe", "ratio"),
    m("sim.fetched_per_committed.stt", "ratio"),
    m("sim.fetched_per_committed.spt", "ratio"),
    m("sim.fetched_per_committed.sptsb", "ratio"),
    m("sim.fetched_per_committed.protdelay", "ratio"),
    m("sim.fetched_per_committed.prottrack", "ratio"),
    m("sim.blocked_cycles_per_kuop.unsafe", "cycles/kuop"),
    m("sim.blocked_cycles_per_kuop.stt", "cycles/kuop"),
    m("sim.blocked_cycles_per_kuop.spt", "cycles/kuop"),
    m("sim.blocked_cycles_per_kuop.sptsb", "cycles/kuop"),
    m("sim.blocked_cycles_per_kuop.protdelay", "cycles/kuop"),
    m("sim.blocked_cycles_per_kuop.prottrack", "cycles/kuop"),
    m("sim.l1d_miss_rate", "ratio"),
    m("sim.mispredict_rate", "ratio"),
    m("sim.reset_us", "us"),
    m("amulet.generate_us", "us"),
    m("arch.lower_us", "us"),
    m("arch.seq_ns_per_step", "ns/step"),
    m("arch.seq_share", "ratio"),
    m("amulet.pair_admit_frac", "ratio"),
    m("jobs.cpu_util", "ratio"),
    m("amulet.call_ms", "ms"),
    m("amulet.triage_reruns", "count"),
    m("amulet.prefilter_hit_rate", "ratio"),
    m("amulet.dedup_ratio", "ratio"),
    m("amulet.coverage_keys", "count"),
];

/// Looks a metric up in `list` by name.
pub fn find(list: &[Metric], name: &str) -> Option<Metric> {
    list.iter().copied().find(|m| m.name == name)
}

/// The registered per-layer metric name equal to `name` (for names
/// built at run time).
///
/// # Panics
///
/// Panics if no per-layer metric has that name.
pub fn per_layer_name(name: &str) -> &'static str {
    find(PER_LAYER, name)
        .unwrap_or_else(|| panic!("unregistered metric {name}"))
        .name
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, or hardware runs of a campaign).
    pub attempted: u64,
    /// Operations that failed (see `README.md`).
    pub failed: u64,
    /// Output checks that failed; empty means the run is correct.
    pub errors: Vec<String>,
    /// Measured values keyed by metric name (end-to-end or per-layer,
    /// depending on the run's mode).
    pub values: BTreeMap<&'static str, f64>,
    /// The end-to-end time metrics in host time, before calibration.
    pub host_values: BTreeMap<&'static str, f64>,
    /// Median calibration scale (reference seconds per host second).
    pub calibration_scale: f64,
    /// Workload-specific end-to-end figures that have no counterpart on
    /// the other workloads, as `(name, unit, value)`; printed on their
    /// own line.
    pub workload_metrics: Vec<(&'static str, &'static str, f64)>,
    /// FNV-1a digest of every deterministic (simulated) output.
    pub sim_digest: String,
    /// Hash of what the workload runs, independent of the seed.
    pub roster_hash: String,
    /// Worker threads the workload ran on.
    pub workers: usize,
    /// Traced minus untraced end-to-end seconds (traced runs only).
    pub tracing_overhead_s: Option<f64>,
}

impl Outcome {
    /// Records an output check: a failed check becomes an error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Renders the final result line: `correct`, `attempted`, `failed`
    /// and every metric of `list` with its unit. A per-layer metric the
    /// workload does not exercise reads 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not measured, or a value was
    /// set under a name `list` does not hold: both are bugs in the
    /// workload code, and printing a partial result would hide them.
    pub fn result_line(&self, list: &[Metric], fill_missing: bool) -> String {
        for name in self.values.keys() {
            assert!(find(list, name).is_some(), "unregistered metric {name}");
        }
        let metrics = list.iter().map(|m| {
            let value = match self.values.get(m.name) {
                Some(v) => *v,
                None if fill_missing => 0.0,
                None => panic!("end-to-end metric {} was not measured", m.name),
            };
            (
                m.name,
                Json::obj([("value", Json::F64(value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

/// One unit of deterministic work (a matrix cell, a batch campaign, a
/// service chunk) run once per repetition.
#[derive(Debug, Default)]
pub struct Unit {
    /// Committed µops of one run of the unit.
    pub committed: u64,
    /// Hardware executions checked in one run of the unit.
    pub tests: u64,
    /// One sample per run of the unit.
    pub samples: Vec<Sample>,
}

impl Unit {
    /// The unit's time: the median of its runs, with each sample
    /// converted to seconds by `secs`.
    pub fn time(&self, secs: &impl Fn(&Sample) -> f64) -> f64 {
        median(&self.samples.iter().map(secs).collect::<Vec<_>>())
    }
}

/// The timed samples of an untraced run.
#[derive(Debug, Default)]
pub struct Timing {
    /// Set-up repetitions.
    pub setup: Vec<Sample>,
    /// Units of work.
    pub units: Vec<Unit>,
}

impl Timing {
    /// The end-to-end time metrics, with each sample converted to
    /// seconds by `secs`: the set-up median; µops and tests per second
    /// over the units' times; percentiles of the units' times.
    pub fn end_to_end(&self, secs: impl Fn(&Sample) -> f64) -> Vec<(&'static str, f64)> {
        let setup: Vec<f64> = self.setup.iter().map(&secs).collect();
        let timed: Vec<(&Unit, f64)> = self
            .units
            .iter()
            .filter(|u| !u.samples.is_empty())
            .map(|u| (u, u.time(&secs)))
            .collect();
        let total_s: f64 = timed.iter().map(|(_, t)| t).sum();
        let committed: u64 = timed.iter().map(|(u, _)| u.committed).sum();
        let tests: u64 = timed.iter().map(|(u, _)| u.tests).sum();
        let call_ms: Vec<f64> = timed.iter().map(|(_, t)| t * 1e3).collect();
        let ns_per_uop: Vec<f64> = timed
            .iter()
            .filter(|(u, _)| u.committed > 0)
            .map(|(u, t)| t * 1e9 / u.committed as f64)
            .collect();
        vec![
            ("setup_s", median(&setup)),
            ("sim_kuops_per_s", committed as f64 / total_s / 1e3),
            ("tests_per_s", tests as f64 / total_s),
            ("call_ms_p50", percentile(&call_ms, 50.0)),
            ("call_ms_p90", percentile(&call_ms, 90.0)),
            ("call_ns_per_uop_p50", percentile(&ns_per_uop, 50.0)),
            ("call_ns_per_uop_p90", percentile(&ns_per_uop, 90.0)),
        ]
    }

    /// Sets every end-to-end metric of an untraced run: the time metrics
    /// in reference seconds (host time in `host_values`), peak RSS, and
    /// the share of operations that did not fail.
    pub fn report(&self, cal: &Calibrator, out: &mut Outcome) {
        for (name, v) in self.end_to_end(|s| s.scaled(cal)) {
            out.set(name, v);
        }
        for (name, v) in self.end_to_end(|s| s.secs) {
            out.host_values.insert(name, v);
        }
        out.calibration_scale = cal.median_scale();
        out.set("peak_rss_mib", crate::host::peak_rss_mib());
        let failed = out.failed as f64 / out.attempted.max(1) as f64;
        out.set("ok_rate", 1.0 - failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }

    #[test]
    fn result_line_lists_every_metric_in_order() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for m in END_TO_END {
            out.set(m.name, 1.5);
        }
        let line = Json::parse(&out.result_line(END_TO_END, false)).unwrap();
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object missing");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn per_layer_fills_unexercised_layers_with_zero() {
        let mut out = Outcome::default();
        out.set("sim.reset_us", 2.0);
        let line = Json::parse(&out.result_line(PER_LAYER, true)).unwrap();
        let metrics = line.get("metrics").unwrap();
        let v = |n: &str| {
            metrics
                .get(n)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(v("sim.reset_us"), Some(2.0));
        assert_eq!(v("arch.ref_s"), Some(0.0));
    }

    #[test]
    fn end_to_end_times_use_each_units_median_run() {
        let at = std::time::Instant::now();
        let unit = |committed, tests, secs: &[f64]| Unit {
            committed,
            tests,
            samples: secs.iter().map(|&secs| Sample { at, secs }).collect(),
        };
        let timing = Timing {
            setup: vec![Sample { at, secs: 0.5 }, Sample { at, secs: 0.7 }],
            units: vec![
                unit(1000, 2, &[0.3, 0.1, 0.2]),
                unit(3000, 4, &[0.6]),
                unit(0, 0, &[]),
            ],
        };
        let m: BTreeMap<&str, f64> = timing.end_to_end(|s| s.secs).into_iter().collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(m["setup_s"], 0.6));
        // Units take 0.2 s and 0.6 s; the unit never run is left out.
        assert!(close(m["sim_kuops_per_s"], 4000.0 / 0.8 / 1e3));
        assert!(close(m["tests_per_s"], 6.0 / 0.8));
        assert!(close(m["call_ms_p50"], 400.0));
        assert!(close(m["call_ms_p90"], 560.0));
        assert!(close(m["call_ns_per_uop_p50"], 200_000.0));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn missing_end_to_end_metric_is_a_bug() {
        Outcome::default().result_line(END_TO_END, false);
    }
}
