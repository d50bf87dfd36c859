//! The simulator's own benchmark: host time, tail and peak memory on four
//! workloads, plus a traced run that breaks a pass down by layer.
//!
//! ```text
//! benchmark [--seed S] [--seconds N] [--trace [0|1]]          every workload, one child process each
//! benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//! benchmark compare <runs-a> <runs-b>
//! ```
//!
//! A workload run prints its metrics by name and unit, then, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics, or with `--trace 1` the per-layer ones). Runs
//! are single-threaded; without `--workload` the workloads run one after
//! another in child processes, so each peak RSS is its own.
//! `GTN_BENCH_SMOKE=1` shrinks every workload to a seconds-scale run.
//! See `bench-baselines/benchmark/README.md`.

mod compare;
mod measure;
mod probes;
mod run;
mod workloads;

use run::Options;
use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::Workload;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Seed when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// `--seconds` when absent (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 0.5;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    opt: Options,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let smoke = gtn_bench::report::smoke();
    let mut out = Args {
        workload: None,
        opt: Options {
            seed: DEFAULT_SEED,
            seconds: if smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            },
            trace: false,
            smoke,
        },
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                out.opt.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                out.opt.seconds = s;
            }
            "--trace" => {
                out.opt.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// Run every workload in its own child process, one after another.
fn run_all(opt: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {} ==", w.name());
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &opt.seed.to_string()])
            .args(["--seconds", &opt.seconds.to_string()])
            .args(["--trace", if opt.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("cannot start {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("usage: benchmark compare <runs-a> <runs-b>");
            return ExitCode::from(2);
        };
        return match compare::compare(Path::new(a), Path::new(b)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match parsed.workload {
        None => run_all(&parsed.opt),
        Some(w) => {
            let report = run::run_workload(w, &parsed.opt);
            report.print_human();
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::compare::{self, Json};
    use super::run::{self, Options, Runner};
    use super::workloads::{Cell, Refs, Workload};
    use gtn_core::Strategy;

    fn smoke(trace: bool) -> Options {
        Options {
            seed: 7,
            seconds: 0.0,
            trace,
            smoke: true,
        }
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
    }

    #[test]
    fn smoke_prints_every_declared_metric_with_its_unit() {
        let bench = compare::benchmark_json().expect("BENCHMARK.json at the repository root");
        let (e2e, layers) = compare::declared(&bench);
        assert!(!e2e.is_empty() && !layers.is_empty());
        for d in e2e.iter().chain(&layers) {
            assert!(well_formed(&d.name), "{:?}", d.name);
        }
        let workloads: Vec<&str> = bench
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for w in Workload::ALL {
            for (trace, declared) in [(false, &e2e), (true, &layers)] {
                let report = run::run_workload(w, &smoke(trace));
                assert!(report.correct(), "{} trace={trace}: {report:?}", w.name());
                let line = Json::parse(&report.json_line()).expect("result line is JSON");
                let Some(Json::Obj(printed)) = line.get("metrics") else {
                    panic!("no metrics object");
                };
                let names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
                let want: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
                assert_eq!(names, want, "{} trace={trace}", w.name());
                for ((name, m), d) in printed.iter().zip(declared.iter()) {
                    assert!(well_formed(name));
                    assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit.as_str()));
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                }
            }
        }
    }

    #[test]
    fn cell_digests_repeat_across_passes_and_tracing() {
        for w in Workload::ALL {
            let cells = w.cells(3, true);
            let refs = Refs::build(&cells);
            let mut runner = Runner::new(&cells, &refs);
            runner.pass(false);
            let first = runner.digest();
            runner.pass(true);
            runner.pass(false);
            assert_eq!(runner.failed, 0, "{}", w.name());
            assert_eq!(runner.unstable, 0, "{}", w.name());
            assert_eq!(runner.digest(), first);
            // A fresh process-equivalent run reproduces the digest.
            let mut again = Runner::new(&cells, &refs);
            again.pass(false);
            assert_eq!(again.digest(), first, "{}", w.name());
        }
    }

    #[test]
    fn a_failing_cell_is_counted_not_propagated() {
        let good = Cell::Ring {
            nodes: 4,
            elems: 64,
            strategy: Strategy::GpuTn,
            seed: 1,
        };
        // Fewer elements than ring chunks: the workload asserts.
        let bad = Cell::Ring {
            nodes: 4,
            elems: 2,
            strategy: Strategy::GpuTn,
            seed: 1,
        };
        let cells = [good, bad];
        let refs = Refs::build(&cells);
        let mut runner = Runner::new(&cells, &refs);
        runner.pass(false);
        assert_eq!((runner.attempted, runner.failed), (2, 1));
        assert!(
            runner.hist.percentile(100.0) > 1e18,
            "ranked above every latency"
        );
    }
}
