//! Accounting for the `sim.*` per-layer metrics: host time and simulated
//! statistics of traced simulator runs, split by defense.

use crate::metrics::{per_layer_name, Outcome};
use protean_sim::Stats;

/// The defenses whose `sim` time and statistics are split out, as
/// metric-name suffixes.
pub const DEFENSE_KEYS: [&str; 6] = ["unsafe", "stt", "spt", "sptsb", "protdelay", "prottrack"];

/// Sums for one defense.
#[derive(Clone, Copy, Debug, Default)]
struct DefenseSums {
    run_s: f64,
    committed: u64,
    cycles: u64,
    fetched: u64,
    blocked: u64,
}

/// Sums over traced simulator runs.
#[derive(Clone, Debug, Default)]
pub struct SimSums {
    per_defense: [DefenseSums; DEFENSE_KEYS.len()],
    l1d_hits: u64,
    l1d_misses: u64,
    branches: u64,
    mispredicts: u64,
}

impl SimSums {
    /// Adds one run of defense `key` that took `run_s` host seconds.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not one of [`DEFENSE_KEYS`].
    pub fn add(&mut self, key: &str, run_s: f64, st: &Stats) {
        let i = DEFENSE_KEYS
            .iter()
            .position(|k| *k == key)
            .unwrap_or_else(|| panic!("unknown defense {key}"));
        let d = &mut self.per_defense[i];
        d.run_s += run_s;
        d.committed += st.committed;
        d.cycles += st.cycles;
        d.fetched += st.fetched;
        d.blocked += st.exec_blocked_cycles + st.wakeup_blocked_cycles + st.resolve_blocked_cycles;
        self.l1d_hits += st.l1d_hits;
        self.l1d_misses += st.l1d_misses;
        self.branches += st.branches;
        self.mispredicts += st.mispredicts;
    }

    /// Adds another set of sums.
    pub fn merge(&mut self, o: &SimSums) {
        for (d, e) in self.per_defense.iter_mut().zip(&o.per_defense) {
            d.run_s += e.run_s;
            d.committed += e.committed;
            d.cycles += e.cycles;
            d.fetched += e.fetched;
            d.blocked += e.blocked;
        }
        self.l1d_hits += o.l1d_hits;
        self.l1d_misses += o.l1d_misses;
        self.branches += o.branches;
        self.mispredicts += o.mispredicts;
    }

    /// Host seconds spent in simulator runs, all defenses.
    pub fn run_s(&self) -> f64 {
        self.per_defense.iter().map(|d| d.run_s).sum()
    }

    /// Sets every per-defense `sim.*` metric of the defenses that ran,
    /// plus `sim.l1d_miss_rate` and `sim.mispredict_rate`.
    pub fn report(&self, out: &mut Outcome) {
        for (key, d) in DEFENSE_KEYS.iter().zip(&self.per_defense) {
            if d.committed == 0 {
                continue;
            }
            let mut set =
                |prefix: &str, v: f64| out.set(per_layer_name(&format!("{prefix}.{key}")), v);
            let uops = d.committed as f64;
            set("sim.run_ns_per_uop", d.run_s * 1e9 / uops);
            set("sim.run_ns_per_cycle", d.run_s * 1e9 / d.cycles as f64);
            set("sim.ipc", uops / d.cycles as f64);
            set("sim.fetched_per_committed", d.fetched as f64 / uops);
            set("sim.blocked_cycles_per_kuop", d.blocked as f64 * 1e3 / uops);
        }
        let l1d = (self.l1d_hits + self.l1d_misses) as f64;
        out.set("sim.l1d_miss_rate", self.l1d_misses as f64 / l1d);
        out.set(
            "sim.mispredict_rate",
            self.mispredicts as f64 / self.branches as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_defense_has_its_metrics() {
        let mut sums = SimSums::default();
        let st = Stats {
            cycles: 200,
            committed: 100,
            fetched: 120,
            branches: 10,
            mispredicts: 1,
            l1d_hits: 9,
            l1d_misses: 1,
            ..Stats::default()
        };
        for key in DEFENSE_KEYS {
            sums.add(key, 1e-4, &st);
        }
        let mut out = Outcome::default();
        sums.report(&mut out);
        assert_eq!(out.values["sim.ipc.sptsb"], 0.5);
        assert_eq!(out.values["sim.fetched_per_committed.unsafe"], 1.2);
        assert!((out.values["sim.run_ns_per_uop.stt"] - 1000.0).abs() < 1e-9);
        assert!((out.values["sim.l1d_miss_rate"] - 0.1).abs() < 1e-12);
        assert!((out.values["sim.mispredict_rate"] - 0.1).abs() < 1e-12);
    }
}
