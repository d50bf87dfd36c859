//! Wall-clock microbenchmarks of the simulator's hot paths: event calendar
//! throughput, NIC trigger matching, and fabric occupancy math. These are
//! implementation benchmarks, not figure reproductions — they guard the
//! simulator's own performance so the 32-node sweeps stay fast.
//!
//! Self-contained timing harness (median of `REPS` runs) instead of
//! criterion, so the bench builds in offline environments.
//!
//! Emits `BENCH_sim_engine_perf.json` (wall-clock medians and, for the
//! engine rows, events/sec). Unlike the figure reports this one is *not*
//! reproducible bit-for-bit — CI writes it to a separate directory and
//! only checks it against the recorded floor in `bench-baselines/`.

use gtn_bench::report::{self, obj, s, Json};
use gtn_fabric::{Fabric, FabricConfig};
use gtn_mem::{Addr, NodeId, RegionId};
use gtn_nic::lookup::LookupKind;
use gtn_nic::op::{NetOp, Tag};
use gtn_nic::trigger::TriggerList;
use gtn_sim::time::{SimDuration, SimTime};
use gtn_sim::Engine;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 15;

/// Median wall-clock of `REPS` runs of `f`, in nanoseconds.
fn median_ns<F: FnMut()>(mut f: F) -> u128 {
    // One warmup run to fault in code and allocator state.
    f();
    let mut samples: Vec<u128> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One bench row: wall-clock median plus, where the workload has a known
/// event count, simulator throughput.
struct Row {
    name: &'static str,
    median_ns: u128,
    events: Option<u64>,
}

impl Row {
    fn events_per_sec(&self) -> Option<u64> {
        self.events
            .map(|n| ((n as u128 * 1_000_000_000) / self.median_ns.max(1)) as u64)
    }
}

fn report(rows: &mut Vec<Row>, name: &'static str, events: Option<u64>, ns: u128) {
    match events.map(|n| (n as u128 * 1_000_000_000) / ns.max(1)) {
        Some(eps) => println!("{name:<44} {:>12.3} ms {:>14} ev/s", ns as f64 / 1e6, eps),
        None => println!("{name:<44} {:>12.3} ms", ns as f64 / 1e6),
    }
    rows.push(Row {
        name,
        median_ns: ns,
        events,
    });
}

fn bench_engine(rows: &mut Vec<Row>) {
    report(
        rows,
        "engine/schedule_pop_10k",
        Some(10_000),
        median_ns(|| {
            let mut eng = Engine::<u64>::new();
            for i in 0..10_000u64 {
                eng.schedule_at(SimTime::from_ns(i * 7 % 5_000), i);
            }
            let mut acc = 0u64;
            eng.run(|_, v| acc = acc.wrapping_add(v));
            black_box(acc);
        }),
    );
    report(
        rows,
        "engine/self_rescheduling_chain_10k",
        Some(10_001),
        median_ns(|| {
            let mut eng: Engine<u32> = Engine::new();
            eng.schedule_at(SimTime::ZERO, 10_000);
            eng.run(|e, n| {
                if n > 0 {
                    e.schedule_after(SimDuration::from_ns(1), n - 1);
                }
            });
            black_box(eng.events_processed());
        }),
    );
    // The Fig. 8 pingpong cell's shape: a fresh engine per cell, two
    // pending events, ~116 fired (2.3M events over the 20,000 cells of a
    // `pingpong_cells` pass in `benchmark/`). Construction and the first
    // few pushes weigh here as they do in a campaign of small runs.
    const CELLS: u64 = 1_000;
    const PER_CELL: u64 = 116;
    report(
        rows,
        "engine/fresh_engine_2_pending_1k_cells",
        Some(CELLS * PER_CELL),
        median_ns(|| {
            let mut fired = 0;
            for _ in 0..CELLS {
                let mut eng: Engine<u64> = Engine::new();
                eng.schedule_at(SimTime::ZERO, 0);
                eng.schedule_at(SimTime::from_ns(1), 1);
                let mut next = 2;
                eng.run(|e, v| {
                    if next < PER_CELL {
                        e.schedule_after(SimDuration::from_ns(1 + v % 3), next);
                        next += 1;
                    }
                });
                fired += eng.events_processed();
            }
            assert_eq!(fired, CELLS * PER_CELL);
        }),
    );
}

fn bench_trigger_list(rows: &mut Vec<Row>) {
    let put = NetOp::Put {
        src: Addr::base(NodeId(0), RegionId(0)),
        len: 64,
        target: NodeId(1),
        dst: Addr::base(NodeId(1), RegionId(0)),
        notify: None,
        completion: None,
    };
    for (kind, name) in [
        (LookupKind::LinearList, "trigger_list/linear_1k_fires"),
        (LookupKind::HashTable, "trigger_list/hash_1k_fires"),
    ] {
        report(
            rows,
            name,
            None,
            median_ns(|| {
                let mut l = TriggerList::new(kind);
                for t in 0..1_000 {
                    l.register(Tag(t), put.clone(), 1).unwrap();
                }
                for t in 0..1_000 {
                    black_box(l.trigger(Tag(t)).unwrap());
                }
                black_box(l.fired_total());
            }),
        );
    }
}

fn bench_fabric(rows: &mut Vec<Row>) {
    report(
        rows,
        "fabric/send_1k_msgs_8_nodes",
        None,
        median_ns(|| {
            let mut f = Fabric::new(8, FabricConfig::default());
            let mut t = SimTime::ZERO;
            for i in 0..1_000u32 {
                let m = f.send_message(t, NodeId(i % 8), NodeId((i + 3) % 8), 4096);
                t = t.max(m.last_arrival - SimDuration::from_ns(50));
            }
            black_box(f.messages_sent());
        }),
    );
}

fn main() {
    gtn_bench::header(
        "sim_engine — simulator hot-path microbenchmarks",
        "implementation guardrail (no paper figure)",
    );
    println!("median of {REPS} runs per row\n");
    let mut rows = Vec::new();
    bench_engine(&mut rows);
    bench_trigger_list(&mut rows);
    bench_fabric(&mut rows);

    let json = obj(vec![
        ("bench", s("sim_engine_perf")),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        let mut fields = vec![
                            ("name", s(r.name)),
                            ("median_ns", Json::U64(r.median_ns as u64)),
                        ];
                        if let Some(eps) = r.events_per_sec() {
                            fields.push(("events_per_sec", Json::U64(eps)));
                        }
                        obj(fields)
                    })
                    .collect(),
            ),
        ),
    ]);
    report::write("sim_engine_perf", &json);
}
