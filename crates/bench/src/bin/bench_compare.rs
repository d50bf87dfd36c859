//! CI gate driver over [`gtn_bench::compare`].
//!
//! ```text
//! bench_compare manifest <dir>            # dir contents match MANIFEST.json
//! bench_compare golden <golden> <actual>  # reports bit-identical to goldens
//! bench_compare diff <golden> <actual>    # two files or two dirs, naming
//!                                         # the fields that drifted
//! bench_compare ceilings <file> <dir>     # traced benchmark runs at or
//!                                         # under their layer ceilings,
//!                                         # with their pinned counts
//! ```
//!
//! `golden` walks the *golden* dir's manifest (baseline coverage must not
//! shrink) and fails on a report the run lists without a golden; `diff`
//! walks the *actual* dir's manifest (compare exactly the subset that
//! ran — e.g. the double-run determinism gate). Both name the
//! differing leaf fields (`points[3].p99_ps: 1200 -> 1350`) when the
//! drifted report parses as bench JSON.
//!
//! Exits non-zero with the reason on stderr when a gate fails, so a bare
//! invocation is a usable CI step.

use gtn_bench::compare;
use std::path::Path;

const USAGE: &str = "usage: bench_compare manifest <dir>
       bench_compare golden <golden_dir> <actual_dir>
       bench_compare diff <golden_dir_or_file> <actual_dir_or_file>
       bench_compare ceilings <ceilings_file> <runs_dir>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| Path::new(&args[i]);
    let outcome = match (args.first().map(String::as_str), args.len()) {
        (Some("manifest"), 2) => compare::check_manifest(arg(1))
            .map(|names| format!("manifest ok: {} reports listed and present", names.len())),
        (Some("golden"), 3) => compare::diff_against_golden(arg(1), arg(2))
            .map(|n| format!("golden ok: {n} reports bit-identical to baselines")),
        (Some("diff"), 3) => compare::diff_paths(arg(1), arg(2)),
        (Some("ceilings"), 3) => compare::check_ceilings(arg(1), arg(2))
            .map(|n| format!("ceilings ok: {n} layer metrics within their ceilings and pins")),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(msg) => println!("{msg}"),
        Err(reason) => {
            eprintln!("bench_compare: {reason}");
            std::process::exit(1);
        }
    }
}
