//! One workload in this process: repeated set-up, timed passes over the
//! fixed cell list, and the report.

use crate::measure::{self, AllocStats, LogHist, Tracer};
use crate::probes;
use crate::workloads::{digest, Cell, CellOut, Counts, Refs, Shape, Workload};
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes every run makes, however short `--seconds` is: enough to compare
/// digests across passes and, traced, to alternate traced and untraced.
const MIN_PASSES: usize = 3;
/// Failure messages echoed to stderr per run.
const FAILURES_SHOWN: u64 = 5;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Measure passes until this many seconds have passed.
    pub seconds: f64,
    /// Alternate traced and untraced passes and report per-layer metrics.
    pub trace: bool,
    /// Smoke-size cells.
    pub smoke: bool,
}

/// One named metric value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Cells of one simulated shape within a pass (the layer probes replay
/// these).
#[derive(Debug, Clone, Copy)]
pub struct ShapeAgg {
    /// The shape.
    pub shape: Shape,
    /// Simulations of this shape.
    pub sims: u64,
    /// Events they processed.
    pub events: u64,
    /// Messages they sent.
    pub messages: u64,
}

/// What one pass measured. Times are host seconds; `scale` turns them
/// into reference seconds.
#[derive(Debug, Default)]
pub struct Pass {
    /// Reference seconds per host second, from the calibrations around
    /// the pass.
    pub scale: f64,
    /// Sum of the timed simulation calls, s.
    pub sim_s: f64,
    /// The whole pass, verification (and tracing) included, s.
    pub wall_s: f64,
    /// Verification, s.
    pub verify_s: f64,
    /// Per-layer counters.
    pub counts: Counts,
    /// Per-shape simulations.
    pub shapes: Vec<ShapeAgg>,
    /// Allocations (traced passes only).
    pub alloc: AllocStats,
}

/// Median over `passes` of `f`.
pub fn median_by(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    measure::median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// A finished run of one workload.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Cells run (timed passes only).
    pub attempted: u64,
    /// Cells that failed to complete or verify.
    pub failed: u64,
    /// Cells whose digest differed from the first pass's.
    pub unstable: u64,
    /// Passes made.
    pub passes: usize,
    /// Cells per pass.
    pub cells_per_pass: usize,
    /// Digest of every cell's simulated digest, in cell order.
    pub digest: u64,
    /// The metrics the JSON line carries.
    pub metrics: Vec<Metric>,
    /// Samples behind `cell_us_p50` / `cell_us_tail`.
    pub samples: u64,
    /// Simulation time of each untraced pass, host s.
    pub pass_s: Vec<f64>,
    /// Median host speed relative to the reference box (above 1: faster).
    pub host_speed: f64,
    /// `(span, spans, self s)` of a traced run.
    pub self_times: Vec<(&'static str, u64, f64)>,
}

impl Report {
    /// Every cell completed, verified, and repeated its digest.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.unstable == 0
    }

    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable summary.
    pub fn print_human(&self) {
        println!(
            "workload {}: {} passes x {} cells, digest {:016x}",
            self.workload.name(),
            self.passes,
            self.cells_per_pass,
            self.digest
        );
        for m in &self.metrics {
            let note = match m.name {
                "cell_us_p50" => format!("  (over {} cells)", self.samples),
                "cell_us_tail" => format!(
                    "  (p{} over {} cells)",
                    self.workload.tail_pct(),
                    self.samples
                ),
                _ => String::new(),
            };
            println!("  {:<28} {:>16.6} {}{note}", m.name, m.value, m.unit);
        }
        let passes: Vec<String> = self.pass_s.iter().map(|s| format!("{s:.4}")).collect();
        println!("  host pass times (s): {}", passes.join(" "));
        println!("  host speed vs reference: {:.3}", self.host_speed);
        println!("  {:<28} {:>16} count", "cells", self.attempted);
        println!("  {:<28} {:>16} count", "failed_cells", self.failed);
        if self.unstable > 0 {
            println!("  {:<28} {:>16} count", "unstable_digests", self.unstable);
        }
        if !self.self_times.is_empty() {
            println!("  self time per span:");
            for (name, n, s) in &self.self_times {
                println!("    {name:<24} {n:>9} spans {s:>12.6} s");
            }
        }
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panic".to_owned())
}

/// Run, verify and reduce one cell. A panic or structured failure comes
/// back as `Err`, never propagates. Returns `(simulation ns, verify ns,
/// outcome)`.
pub fn run_cell(
    cell: &Cell,
    refs: &Refs,
    tracer: &mut Tracer,
    id: u64,
) -> (u64, u64, Result<CellOut, String>) {
    tracer.begin("cell", id);
    tracer.begin("run", id);
    let t = Instant::now();
    let raw = panic::catch_unwind(AssertUnwindSafe(|| cell.simulate()));
    let sim_ns = t.elapsed().as_nanos() as u64;
    tracer.end();
    tracer.begin("verify", id);
    let t = Instant::now();
    let out = match raw {
        Ok(Ok(raw)) => panic::catch_unwind(AssertUnwindSafe(|| cell.check(raw, refs)))
            .unwrap_or_else(|p| Err(panic_text(&*p))),
        Ok(Err(failure)) => Err(failure.to_string()),
        Err(p) => Err(panic_text(&*p)),
    };
    let verify_ns = t.elapsed().as_nanos() as u64;
    tracer.end();
    tracer.end();
    (sim_ns, verify_ns, out)
}

/// Runs passes over one cell list, checking every cell's digest against
/// the first pass's.
pub struct Runner<'a> {
    cells: &'a [Cell],
    refs: &'a Refs,
    digests: Vec<Option<u64>>,
    /// This pass's cell times, host ns (`None`: failed), recorded once the
    /// pass's closing calibration is known.
    cell_ns: Vec<Option<u64>>,
    /// The last calibration, s: the previous pass's closing one.
    calib_s: Option<f64>,
    /// Untraced per-cell simulation times.
    pub hist: LogHist,
    /// Span recorder (on during traced passes).
    pub tracer: Tracer,
    /// Cells run.
    pub attempted: u64,
    /// Cells failed.
    pub failed: u64,
    /// Digest mismatches.
    pub unstable: u64,
    /// Passes made.
    pub passes: usize,
}

impl<'a> Runner<'a> {
    /// A runner over `cells`, verified against `refs`.
    pub fn new(cells: &'a [Cell], refs: &'a Refs) -> Runner<'a> {
        Runner {
            cells,
            refs,
            digests: vec![None; cells.len()],
            cell_ns: vec![None; cells.len()],
            calib_s: None,
            hist: LogHist::new(),
            tracer: Tracer::new(),
            attempted: 0,
            failed: 0,
            unstable: 0,
            passes: 0,
        }
    }

    /// One pass over every cell, scaled by the mean of the calibrations
    /// just before and just after it.
    pub fn pass(&mut self, traced: bool) -> Pass {
        let before = self.calib_s.unwrap_or_else(measure::calibrate);
        let mut p = Pass::default();
        self.tracer.on = traced;
        if traced {
            measure::alloc_counting_start();
        }
        let start = Instant::now();
        let first_id = (self.passes * self.cells.len()) as u64;
        self.tracer.begin("pass", first_id);
        for (i, cell) in self.cells.iter().enumerate() {
            let (sim_ns, verify_ns, out) =
                run_cell(cell, self.refs, &mut self.tracer, first_id + i as u64);
            self.attempted += 1;
            p.sim_s += sim_ns as f64 / 1e9;
            p.verify_s += verify_ns as f64 / 1e9;
            self.cell_ns[i] = out.is_ok().then_some(sim_ns);
            match out {
                Ok(out) => {
                    match self.digests[i] {
                        None => self.digests[i] = Some(out.digest),
                        Some(d) if d != out.digest => self.unstable += 1,
                        Some(_) => {}
                    }
                    p.counts.add(&out.counts);
                    for run in out.sims.iter().flatten() {
                        match p.shapes.iter_mut().find(|a| a.shape == run.shape) {
                            Some(a) => {
                                a.sims += 1;
                                a.events += run.events;
                                a.messages += run.messages;
                            }
                            None => p.shapes.push(ShapeAgg {
                                shape: run.shape,
                                sims: 1,
                                events: run.events,
                                messages: run.messages,
                            }),
                        }
                    }
                }
                Err(e) => {
                    self.failed += 1;
                    if self.failed <= FAILURES_SHOWN {
                        eprintln!("cell {i} ({cell:?}) failed: {e}");
                    }
                }
            }
        }
        self.tracer.end();
        p.wall_s = start.elapsed().as_secs_f64();
        if traced {
            p.alloc = measure::alloc_counting_stop();
        }
        self.tracer.on = false;
        let after = measure::calibrate();
        self.calib_s = Some(after);
        p.scale = 2.0 * measure::CALIB_REF_S / (before + after);
        if !traced {
            for ns in &self.cell_ns {
                match ns {
                    Some(ns) => self.hist.record((*ns as f64 * p.scale) as u64),
                    None => self.hist.record_failed(),
                }
            }
        }
        self.passes += 1;
        p
    }

    /// Digest over every cell's digest (unset cells count as zero).
    pub fn digest(&self) -> u64 {
        digest(self.digests.iter().map(|d| d.unwrap_or(0)))
    }
}

/// Set up, measure, and report one workload.
pub fn run_workload(w: Workload, opt: &Options) -> Report {
    // Set-up is what a fresh process pays before its first timed cell:
    // the cell list, the reference digests, and a warm-up pass over the
    // smoke-size cells. It is repeated so `setup_s` is a median, not one
    // cold sample.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // Two cell lists alive at once would inflate the peak RSS.
        drop(prepared.take());
        let scale = measure::host_scale();
        let t = Instant::now();
        let cells = w.cells(opt.seed, opt.smoke);
        let refs = Refs::build(&cells);
        let warm = w.cells(opt.seed, true);
        let warm_refs = Refs::build(&warm);
        for cell in &warm {
            let _ = run_cell(cell, &warm_refs, &mut Tracer::new(), 0);
        }
        setups.push(t.elapsed().as_secs_f64() * scale);
        prepared = Some((cells, refs));
    }
    let (cells, refs) = prepared.expect("at least one set-up");

    let mut runner = Runner::new(&cells, &refs);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while runner.passes < MIN_PASSES || start.elapsed().as_secs_f64() < opt.seconds {
        let tracing = opt.trace && runner.passes % 2 == 1;
        let p = runner.pass(tracing);
        if tracing {
            traced.push(p);
        } else {
            untraced.push(p);
        }
    }

    let metrics = if opt.trace {
        let m = probes::per_layer(&untraced, &traced, &mut runner.tracer, opt.smoke);
        gtn_bench::report::write_text("BENCH_benchmark.trace.json", &runner.tracer.chrome_json());
        m
    } else {
        let pct = |p: f64| runner.hist.percentile(p) / 1e3;
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("setup_s", measure::median(&setups), "s"),
            m("wall_s", median_by(&untraced, |p| p.sim_s * p.scale), "s"),
            m("cell_us_p50", pct(50.0), "us"),
            m("cell_us_tail", pct(w.tail_pct()), "us"),
            m("peak_rss_mb", measure::peak_rss_mb(), "MB"),
        ]
    };
    Report {
        workload: w,
        attempted: runner.attempted,
        failed: runner.failed,
        unstable: runner.unstable,
        passes: runner.passes,
        cells_per_pass: cells.len(),
        digest: runner.digest(),
        metrics,
        samples: runner.hist.count(),
        pass_s: untraced.iter().map(|p| p.sim_s).collect(),
        host_speed: median_by(&untraced, |p| p.scale),
        self_times: runner.tracer.self_times(),
    }
}
