//! Command-line arguments:
//! `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.

use std::time::Duration;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Tab. IV SPEC2017 P-core matrix, serial.
    PaperMatrix,
    /// Batch fuzzing campaigns, every engine feature off.
    FuzzBatch,
    /// The campaign engine driven one chunk per call.
    FuzzService,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMatrix,
        Workload::FuzzBatch,
        Workload::FuzzService,
    ];

    /// The name the command takes and prints.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::FuzzBatch => "fuzz-batch",
            Workload::FuzzService => "fuzz-service",
        }
    }
}

/// Parsed arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed the workload's inputs derive from.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced run: print per-layer instead of end-to-end metrics.
    pub trace: bool,
}

/// Usage text for argument errors.
pub const USAGE: &str = "usage: perfbench --workload <paper-matrix|fuzz-batch|fuzz-service> \
                         --seed <n> --seconds <n> --trace <0|1>";

impl Args {
    /// Parses `args` (without the program name). Every flag is required.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(parse_u64(&flag, &value)?),
                "--seconds" => match parse_u64(&flag, &value)? {
                    0 => return Err("--seconds must be at least 1".into()),
                    s => seconds = Some(Duration::from_secs(s)),
                },
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload fuzz-batch --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::FuzzBatch);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload fuzz-batch --seed x --seconds 1 --trace 0").is_err());
        assert!(parse("--workload fuzz-batch --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload fuzz-batch --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload fuzz-batch --seed 1 --seconds 1").is_err());
        assert!(parse("--workload").is_err());
    }
}
