//! # gtn-bench — figure/table regeneration harness
//!
//! Each bench target (run with `cargo bench -p gtn-bench --bench <name>`)
//! regenerates one table or figure of the paper and prints the series the
//! paper reports next to the paper's own numbers. See `EXPERIMENTS.md` at
//! the workspace root for the recorded paper-vs-measured comparison.
//!
//! | target | reproduces |
//! |---|---|
//! | `fig1_launch_latency` | Fig. 1 — launch latency vs. queued kernels |
//! | `fig8_latency_decomposition` | Fig. 8 — microbenchmark decomposition |
//! | `fig9_jacobi` | Fig. 9 — Jacobi speedup vs. grid size |
//! | `fig10_allreduce` | Fig. 10 — 8 MB Allreduce strong scaling |
//! | `fig11_deeplearning` | Fig. 11 — CNTK projection on 8 nodes |
//! | `table2_config` | Table 2 — simulation configuration |
//! | `table3_workloads` | Table 3 — workload characteristics |
//! | `abl_trigger_lookup` | §3.3 ablation — lookup under trigger storms |
//! | `abl_relaxed_sync` | §3.2 ablation — overlap of post and launch |
//! | `abl_granularity` | §4.2 ablation — messaging granularities |

pub mod compare;
pub mod report;
pub mod sweep;

/// Print a standard bench header.
pub fn header(title: &str, paper_ref: &str) {
    println!("\n=== {title} ===");
    println!("reproduces: {paper_ref}");
    println!("{}", "-".repeat(72));
    if report::smoke() {
        println!("(GTN_BENCH_SMOKE set: reduced sweep)");
    }
}
