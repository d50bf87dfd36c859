//! Deep-learning workload projection (Table 3, Fig. 11, §5.4.2).
//!
//! The paper ran six CNTK workloads on the Stampede supercomputer,
//! measured "the frequency, time, and data size of the various Allreduce
//! calls", and *projected* application-level speedup on 8 nodes by scaling
//! the measured blocked time with simulated collective times (synchronous
//! SGD ⇒ no overlap corrections).
//!
//! We follow the identical methodology. The Stampede traces are not
//! available, so each workload carries a **documented synthetic Allreduce
//! size distribution** (log-normal; medians inferred from the named
//! networks' parameter counts and reduction counts — see
//! [`Workload::catalog`]), while the `%Blocked` and `Reductions` columns
//! are the paper's own Table 3 values. The projection for strategy `X`
//! normalizes the HDN application time to 1:
//!
//! ```text
//! T_X  = (1 − b) + b · Σᵢ t_X(sᵢ) / Σᵢ t_HDN(sᵢ)
//! speedup_vs_CPU(X) = T_CPU / T_X
//! ```
//!
//! where `b` is the blocked fraction and the `t_X(s)` come from the ring
//! Allreduce simulation at 8 nodes via a log-log interpolated cost table.

use crate::allreduce::{self, AllreduceParams};
use gtn_core::Strategy;
use gtn_sim::hash::HashMap;
use gtn_sim::rng::SimRng;
use gtn_sim::time::SimDuration;

/// One Table 3 workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Paper name.
    pub name: &'static str,
    /// Paper domain column.
    pub domain: &'static str,
    /// Paper `%Blocked` column: fraction of time blocked on Allreduce.
    pub pct_blocked: f64,
    /// Paper `Reductions` column: total reduction calls.
    pub reductions: u64,
    /// Synthetic size model: median Allreduce payload in bytes.
    pub median_bytes: f64,
    /// Synthetic size model: log-space sigma.
    pub sigma: f64,
}

impl Workload {
    /// The six Table 3 workloads. `pct_blocked` and `reductions` are the
    /// paper's values; size medians are inferred: AlexNet ships large
    /// layer gradients in few calls; AN4's LSTM reduces medium buffers
    /// very frequently; CIFAR's small convnet and the MNIST models reduce
    /// small gradients at high rates; Large Synth is a wide synthetic
    /// network with mid-size gradients.
    pub fn catalog() -> Vec<Workload> {
        // (name, domain, %blocked, reductions, median KiB, sigma)
        const ROWS: [(&str, &str, f64, u64, f64, f64); 6] = [
            ("AlexNet", "Classification", 0.14, 4_672, 8192.0, 0.8),
            ("AN4 LSTM", "Speech", 0.50, 131_192, 256.0, 0.6),
            ("CIFAR", "Classification", 0.04, 939_820, 64.0, 0.5),
            ("Large Synth", "Synthetic", 0.28, 52_800, 2048.0, 0.7),
            ("MNIST Conv", "Text Recognition", 0.12, 900_000, 32.0, 0.5),
            (
                "MNIST Hidden",
                "Text Recognition",
                0.29,
                900_000,
                128.0,
                0.5,
            ),
        ];
        ROWS.iter()
            .map(
                |&(name, domain, pct_blocked, reductions, kib, sigma)| Workload {
                    name,
                    domain,
                    pct_blocked,
                    reductions,
                    median_bytes: kib * 1024.0,
                    sigma,
                },
            )
            .collect()
    }

    /// Draw `n` Allreduce payload sizes (bytes) from this workload's
    /// distribution, clamped to a sane range.
    pub fn sample_sizes(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SimRng::seeded(seed ^ self.reductions);
        (0..n)
            .map(|_| {
                let b = rng.lognormal(self.median_bytes, self.sigma);
                (b.clamp(4.0 * 1024.0, 64.0 * 1024.0 * 1024.0) as u64) & !3 // f32 aligned
            })
            .collect()
    }
}

/// Simulated Allreduce cost per (strategy, size), log-log interpolated
/// between grid points.
#[derive(Debug)]
pub struct CostTable {
    /// Node count the table was built for.
    pub nodes: u32,
    /// Grid sizes in bytes (ascending).
    sizes: Vec<u64>,
    /// times[strategy][size index] in ns.
    times: HashMap<Strategy, Vec<f64>>,
}

impl CostTable {
    /// Build a table by running the ring Allreduce simulation at each grid
    /// size for every strategy. `sizes` must be ascending; elements are
    /// `size/4` f32s.
    pub fn build(nodes: u32, sizes: &[u64], seed: u64) -> Self {
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "sizes ascending");
        assert!(!sizes.is_empty());
        let mut times = HashMap::default();
        for strategy in Strategy::all() {
            let mut row = Vec::with_capacity(sizes.len());
            for &s in sizes {
                let elems = (s / 4).max(nodes as u64);
                let r = allreduce::run(AllreduceParams::new(nodes, elems, strategy, seed));
                row.push(r.scenario.total.as_ns_f64());
            }
            times.insert(strategy, row);
        }
        CostTable {
            nodes,
            sizes: sizes.to_vec(),
            times,
        }
    }

    /// Interpolated Allreduce time for `bytes` under `strategy` (log-log
    /// linear; clamped extrapolation at the grid edges).
    pub fn time(&self, strategy: Strategy, bytes: u64) -> SimDuration {
        let row = &self.times[&strategy];
        let x = (bytes.max(4) as f64).ln();
        let xs: Vec<f64> = self.sizes.iter().map(|&s| (s as f64).ln()).collect();
        let y = if x <= xs[0] {
            row[0].ln()
        } else if x >= *xs.last().unwrap() {
            row.last().unwrap().ln()
        } else {
            let i = xs.partition_point(|&v| v <= x) - 1;
            let t = (x - xs[i]) / (xs[i + 1] - xs[i]);
            row[i].ln() * (1.0 - t) + row[i + 1].ln() * t
        };
        SimDuration::from_ns_f64(y.exp())
    }
}

/// Projected application speedups for one workload (normalized to CPU = 1,
/// as Fig. 11 plots).
#[derive(Debug, Clone)]
pub struct Projection {
    /// Workload name.
    pub name: &'static str,
    /// Blocked fraction used.
    pub pct_blocked: f64,
    /// speedup vs CPU per strategy.
    pub speedup: HashMap<Strategy, f64>,
}

impl Projection {
    /// Speedup of one strategy.
    pub fn of(&self, s: Strategy) -> f64 {
        self.speedup[&s]
    }
}

/// Project one workload with the paper's methodology over `n_samples`
/// drawn Allreduce sizes.
pub fn project(w: &Workload, table: &CostTable, n_samples: usize, seed: u64) -> Projection {
    let sizes = w.sample_sizes(n_samples, seed);
    let total = |s: Strategy| -> f64 {
        sizes
            .iter()
            .map(|&b| table.time(s, b).as_ns_f64())
            .sum::<f64>()
    };
    let hdn_total = total(Strategy::Hdn);
    let b = w.pct_blocked;
    // App time normalized to HDN = 1.
    let app_time = |s: Strategy| (1.0 - b) + b * total(s) / hdn_total;
    let cpu_time = app_time(Strategy::Cpu);
    let speedup = Strategy::all()
        .into_iter()
        .map(|s| (s, cpu_time / app_time(s)))
        .collect();
    Projection {
        name: w.name,
        pct_blocked: b,
        speedup,
    }
}

/// Fig. 11: project every Table 3 workload.
pub fn figure11(table: &CostTable, n_samples: usize, seed: u64) -> Vec<Projection> {
    Workload::catalog()
        .iter()
        .map(|w| project(w, table, n_samples, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table3() {
        let c = Workload::catalog();
        assert_eq!(c.len(), 6);
        let by_name: HashMap<&str, &Workload> = c.iter().map(|w| (w.name, w)).collect();
        assert_eq!(by_name["AN4 LSTM"].pct_blocked, 0.50);
        assert_eq!(by_name["AN4 LSTM"].reductions, 131_192);
        assert_eq!(by_name["CIFAR"].pct_blocked, 0.04);
        assert_eq!(by_name["CIFAR"].reductions, 939_820);
        assert_eq!(by_name["AlexNet"].reductions, 4_672);
        assert_eq!(by_name["Large Synth"].pct_blocked, 0.28);
        assert_eq!(by_name["MNIST Conv"].reductions, 900_000);
        assert_eq!(by_name["MNIST Hidden"].pct_blocked, 0.29);
    }

    #[test]
    fn sampled_sizes_are_aligned_and_seeded() {
        let w = &Workload::catalog()[1];
        let a = w.sample_sizes(50, 9);
        let b = w.sample_sizes(50, 9);
        assert_eq!(a, b, "deterministic");
        assert!(a.iter().all(|&s| s % 4 == 0));
        assert!(a.iter().all(|&s| s >= 4096));
    }

    /// A small cost table over a 4-node cluster (fast enough for unit
    /// tests; the bench builds the full 8-node table).
    fn small_table() -> CostTable {
        CostTable::build(4, &[16 << 10, 64 << 10, 256 << 10], 42)
    }

    #[test]
    fn cost_table_interpolates_monotonically() {
        let t = small_table();
        for s in Strategy::all() {
            let a = t.time(s, 16 << 10);
            let b = t.time(s, 40 << 10);
            let c = t.time(s, 256 << 10);
            assert!(a <= b && b <= c, "{s}: {a} {b} {c}");
            // Edge clamping.
            assert_eq!(t.time(s, 1), t.time(s, 16 << 10));
            assert_eq!(t.time(s, 1 << 30), t.time(s, 256 << 10));
        }
    }

    #[test]
    fn projection_shape_matches_fig11() {
        let t = small_table();
        let projections = figure11(&t, 40, 7);
        let by_name: HashMap<&str, &Projection> = projections.iter().map(|p| (p.name, p)).collect();

        for p in &projections {
            // CPU normalizes to exactly 1.
            assert!((p.of(Strategy::Cpu) - 1.0).abs() < 1e-12);
            // Ordering: GPU-TN >= GDS >= HDN (small-to-medium messages).
            assert!(
                p.of(Strategy::GpuTn) >= p.of(Strategy::Gds) - 1e-9,
                "{}",
                p.name
            );
            assert!(
                p.of(Strategy::Gds) >= p.of(Strategy::Hdn) - 1e-9,
                "{}",
                p.name
            );
        }

        // AN4 LSTM (50% blocked) gains far more from GPU-TN than CIFAR
        // (4% blocked) — the Fig. 11 spread.
        let an4_gain =
            by_name["AN4 LSTM"].of(Strategy::GpuTn) / by_name["AN4 LSTM"].of(Strategy::Hdn);
        let cifar_gain = by_name["CIFAR"].of(Strategy::GpuTn) / by_name["CIFAR"].of(Strategy::Hdn);
        assert!(
            an4_gain > cifar_gain,
            "AN4 {an4_gain} should out-gain CIFAR {cifar_gain}"
        );
        assert!(
            cifar_gain < 1.06,
            "CIFAR sees little improvement: {cifar_gain}"
        );
        assert!(an4_gain > 1.05, "AN4 sees real improvement: {an4_gain}");
    }
}
