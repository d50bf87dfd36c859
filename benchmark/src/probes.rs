//! Per-layer metrics of a traced run, measured from outside.
//!
//! Counts come from each cell's `ClusterStats`. Host time per layer comes
//! from probes that call one crate's public API in the shape of the cells
//! the pass ran (same node counts, topology, event and message counts,
//! mean message size) and are timed on their own; a layer's share is its
//! probe time scaled to the pass, over the untraced pass time. Like the
//! end-to-end times, every time here is in reference seconds (see
//! [`crate::measure::calibrate`]). Spans inside the simulator are a later
//! step.

use crate::measure::{self, Tracer};
use crate::run::{median_by, Metric, Pass, ShapeAgg};
use gtn_core::Cluster;
use gtn_fabric::Fabric;
use gtn_host::HostProgram;
use gtn_mem::{Addr, MemPool, NodeId, RegionId};
use gtn_nic::{LookupKind, NetOp, Tag, TriggerList};
use gtn_sim::stats::DurationHistogram;
use gtn_sim::time::{SimDuration, SimTime};
use gtn_sim::Engine;
use std::hint::black_box;
use std::time::Instant;

/// Mean seconds per call of `f`, repeated until `budget` seconds passed.
fn per_call(budget: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed >= budget {
            return elapsed / calls as f64;
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Calendar cost per event: a fresh `Engine` with one in-flight event per
/// node, each re-arming a short pseudo-random delay ahead, run for one
/// cell's event count.
fn calendar_ns_per_event(nodes: u32, events: u64, budget: f64) -> f64 {
    if events == 0 {
        return 0.0;
    }
    let s = per_call(budget, || {
        let mut engine = Engine::<u32>::new();
        for n in 0..nodes {
            engine.schedule_at(SimTime::ZERO, n);
        }
        let mut left = events;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        engine.run(|engine, node| {
            left -= 1;
            if left == 0 {
                engine.stop();
                return;
            }
            let delay = SimDuration::from_ns(50 + xorshift(&mut x) % 2_000);
            engine.schedule_after(delay, black_box(node));
        });
        black_box(engine.events_processed());
    });
    s * 1e9 / events as f64
}

/// `DurationHistogram::record` cost, past the reservoir cap as serving
/// cells are.
fn hist_ns_per_record(records: u64, budget: f64) -> f64 {
    let s = per_call(budget, || {
        let mut h = DurationHistogram::default();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..records {
            h.record(SimDuration::from_ps(xorshift(&mut x) % 10_000_000));
        }
        black_box(h.count());
    });
    s * 1e9 / records as f64
}

/// `MemPool::write` + `read` (one payload copy in, one out) and
/// `zip_f32s` (one reduction) at `size` bytes: ns per KB.
fn mem_ns_per_kb(size: u64, budget: f64) -> (f64, f64) {
    let node = NodeId(0);
    let mut mem = MemPool::new(1);
    let a = Addr::base(node, mem.alloc(node, size, "probe.a"));
    let b = Addr::base(node, mem.alloc(node, size, "probe.b"));
    let payload = vec![0xA5u8; size as usize];
    let kb = size as f64 / 1024.0;
    let copy = per_call(budget, || {
        mem.write(a, &payload);
        black_box(mem.read(a, size));
    });
    let elems = (size / 4) as usize;
    let reduce = per_call(budget, || {
        mem.zip_f32s(a, b, elems, |x, y| x + y)
            .expect("probe regions hold the elements");
    });
    (copy * 1e9 / kb, reduce * 1e9 / kb)
}

/// `Fabric::new` for `shape`, s.
fn fabric_build_s(agg: &ShapeAgg, budget: f64) -> f64 {
    let config = agg.shape.config().fabric;
    per_call(budget, || {
        black_box(Fabric::new(agg.shape.nodes as usize, config.clone()));
    })
}

/// `send_message` replayed over `shape`'s topology: one simulation's
/// message count at `size` bytes between pseudo-random host pairs, ns per
/// message (fabric construction untimed).
fn fabric_send_ns_per_msg(agg: &ShapeAgg, size: u64, budget: f64) -> f64 {
    let n = u64::from(agg.shape.nodes);
    let msgs = agg.messages / agg.sims.max(1);
    if msgs == 0 || n < 2 {
        return 0.0;
    }
    let config = agg.shape.config().fabric;
    let (mut timed, mut sent) = (0.0, 0u64);
    let start = Instant::now();
    while sent == 0 || start.elapsed().as_secs_f64() < budget {
        let mut fabric = Fabric::new(n as usize, config.clone());
        let mut x = 0x1234_5678_9ABC_DEF1u64;
        let t = Instant::now();
        for i in 0..msgs {
            let r = xorshift(&mut x);
            let src = r % n;
            let dst = (src + 1 + (r >> 32) % (n - 1)) % n;
            let now = SimTime::from_ns(i * 100);
            black_box(fabric.send_message(now, NodeId(src as u32), NodeId(dst as u32), size));
        }
        timed += t.elapsed().as_secs_f64();
        sent += msgs;
    }
    timed * 1e9 / sent as f64
}

/// `TriggerList` register + trigger pair with `lookup`, eight entries
/// active at a time: ns per pair.
fn trigger_ns_per_op(lookup: LookupKind, budget: f64) -> f64 {
    const OPS: u64 = 4096;
    const WINDOW: u64 = 8;
    let op = NetOp::Put {
        src: Addr::base(NodeId(0), RegionId(0)),
        len: 64,
        target: NodeId(1),
        dst: Addr::base(NodeId(1), RegionId(0)),
        notify: None,
        completion: None,
    };
    let s = per_call(budget, || {
        let mut list = TriggerList::new(lookup);
        for i in 0..OPS + WINDOW {
            if i < OPS {
                list.register(Tag(i), op.clone(), 1)
                    .expect("window stays within the lookup's capacity");
            }
            if i >= WINDOW {
                black_box(list.trigger(Tag(i - WINDOW)).expect("armed tag"));
            }
        }
    });
    s * 1e9 / OPS as f64
}

/// An empty-program `Cluster` of `shape`: `(new, run, collect_stats)` s.
fn core_s(agg: &ShapeAgg, budget: f64) -> (f64, f64, f64) {
    let n = agg.shape.nodes;
    let (mut new, mut run, mut collect, mut reps) = (0.0, 0.0, 0.0, 0u32);
    let start = Instant::now();
    while reps == 0 || start.elapsed().as_secs_f64() < budget {
        let config = agg.shape.config();
        let mem = MemPool::new(n as usize);
        let programs = (0..n).map(|_| HostProgram::new()).collect();
        let t0 = Instant::now();
        let mut cluster = Cluster::new(config, mem, programs);
        let t1 = Instant::now();
        black_box(cluster.run());
        let t2 = Instant::now();
        black_box(cluster.collect_stats());
        let t3 = Instant::now();
        new += (t1 - t0).as_secs_f64();
        run += (t2 - t1).as_secs_f64();
        collect += (t3 - t2).as_secs_f64();
        reps += 1;
    }
    let r = f64::from(reps);
    (new / r, run / r, collect / r)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric of a traced run. `untraced` gives the pass
/// time every share is taken of; the counts come from the last traced
/// pass (they repeat exactly on every pass).
pub fn per_layer(
    untraced: &[Pass],
    traced: &[Pass],
    tracer: &mut Tracer,
    smoke: bool,
) -> Vec<Metric> {
    let p = traced.last().expect("a traced run makes a traced pass");
    let c = &p.counts;
    let pass_s = median_by(untraced, |p| p.sim_s * p.scale);
    let budget = if smoke { 0.002 } else { 0.2 };
    let msg_bytes = (c.bytes_tx / c.puts.max(1)).max(64);
    let sims: u64 = p.shapes.iter().map(|a| a.sims).sum();
    // Probe cost of one simulation of each shape, weighted by how many
    // the pass ran.
    let weighted = |f: &mut dyn FnMut(&ShapeAgg) -> f64| -> f64 {
        p.shapes.iter().map(|a| f(a) * a.sims as f64).sum::<f64>()
    };

    // Reference seconds per host second while the probes run.
    let k = measure::host_scale();
    tracer.on = true;
    tracer.begin("probes", u64::MAX);

    tracer.begin("probe.calendar", u64::MAX);
    let calendar_s = weighted(&mut |a| {
        let per_sim = a.events / a.sims;
        calendar_ns_per_event(a.shape.nodes, per_sim, budget) * per_sim as f64 * 1e-9 * k
    });
    tracer.end();
    tracer.begin("probe.histogram", u64::MAX);
    let hist_ns = hist_ns_per_record(if smoke { 10_000 } else { 1_000_000 }, budget) * k;
    tracer.end();
    tracer.begin("probe.mem", u64::MAX);
    let (copy_ns_kb, reduce_ns_kb) = mem_ns_per_kb(msg_bytes, budget);
    let (copy_ns_kb, reduce_ns_kb) = (copy_ns_kb * k, reduce_ns_kb * k);
    tracer.end();
    tracer.begin("probe.fabric_build", u64::MAX);
    let build_s = weighted(&mut |a| fabric_build_s(a, budget) * k);
    tracer.end();
    tracer.begin("probe.fabric_send", u64::MAX);
    let send_s = weighted(&mut |a| {
        fabric_send_ns_per_msg(a, msg_bytes, budget) * 1e-9 * (a.messages / a.sims) as f64 * k
    });
    tracer.end();
    tracer.begin("probe.trigger", u64::MAX);
    let trigger_ns = trigger_ns_per_op(p.shapes[0].shape.lookup, budget) * k;
    tracer.end();
    tracer.begin("probe.core", u64::MAX);
    let (mut new_s, mut run_s, mut collect_s) = (0.0, 0.0, 0.0);
    for a in &p.shapes {
        let (n, r, s) = core_s(a, budget);
        let w = a.sims as f64 * k;
        new_s += n * w;
        run_s += r * w;
        collect_s += s * w;
    }
    tracer.end();

    tracer.end();
    tracer.on = false;

    let copy_s = copy_ns_kb * 1e-9 * c.bytes_tx as f64 / 1024.0;
    let shares = [
        ratio(calendar_s, pass_s),
        ratio(copy_s, pass_s),
        ratio(send_s, pass_s),
        ratio(new_s + run_s + collect_s, pass_s),
    ];
    let per_sim_us = |s: f64| ratio(s, sims as f64) * 1e6;
    let untraced_wall = median_by(untraced, |p| p.wall_s * p.scale);
    let traced_wall = median_by(traced, |p| p.wall_s * p.scale);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("sim.events", c.events as f64, "count"),
        m("sim.events_per_s", ratio(c.events as f64, pass_s), "1/s"),
        m(
            "sim.calendar_ns_per_event",
            ratio(calendar_s * 1e9, c.events as f64),
            "ns",
        ),
        m("sim.calendar_share", shares[0], "share"),
        m("sim.hist_ns_per_record", hist_ns, "ns"),
        m("mem.copy_ns_per_kb", copy_ns_kb, "ns"),
        m("mem.reduce_ns_per_kb", reduce_ns_kb, "ns"),
        m("mem.copy_share", shares[1], "share"),
        m("fabric.messages", c.messages as f64, "count"),
        m("fabric.wire_bytes", c.wire_bytes as f64, "bytes"),
        m("fabric.max_link_bytes", c.max_link_bytes as f64, "bytes"),
        m("fabric.drops", c.drops as f64, "count"),
        m("fabric.build_ms", ratio(build_s, sims as f64) * 1e3, "ms"),
        m(
            "fabric.send_ns_per_msg",
            ratio(send_s * 1e9, c.messages as f64),
            "ns",
        ),
        m("fabric.send_share", shares[2], "share"),
        m("nic.puts", c.puts as f64, "count"),
        m("nic.bytes_tx", c.bytes_tx as f64, "bytes"),
        m("nic.retransmits", c.retransmits as f64, "count"),
        m(
            "nic.retransmit_ratio",
            ratio(c.retransmits as f64, c.puts as f64),
            "ratio",
        ),
        m("nic.trigger_fires", c.trigger_fires as f64, "count"),
        m("nic.trigger_spills", c.trigger_spills as f64, "count"),
        m("nic.trigger_ns_per_op", trigger_ns, "ns"),
        m("gpu.kernels", c.kernels as f64, "count"),
        m("gpu.trigger_stores", c.trigger_stores as f64, "count"),
        m("host.poll_hits", c.poll_hits as f64, "count"),
        m("host.poll_retries", c.poll_retries as f64, "count"),
        m(
            "host.poll_hit_ratio",
            ratio(c.poll_hits as f64, (c.poll_hits + c.poll_retries) as f64),
            "ratio",
        ),
        m("core.cluster_new_us", per_sim_us(new_s), "us"),
        m("core.run_empty_us", per_sim_us(run_s), "us"),
        m("core.collect_stats_us", per_sim_us(collect_s), "us"),
        m("core.setup_share", shares[3], "share"),
        m(
            "core.unattributed_share",
            1.0 - shares.iter().sum::<f64>(),
            "share",
        ),
        m("alloc.count", p.alloc.count as f64, "count"),
        m("alloc.bytes", p.alloc.bytes as f64, "bytes"),
        m(
            "alloc.per_event",
            ratio(p.alloc.count as f64, c.events as f64),
            "count/event",
        ),
        m(
            "alloc.live_peak_mb",
            p.alloc.live_peak as f64 / (1024.0 * 1024.0),
            "MB",
        ),
        m(
            "workloads.verify_s",
            median_by(untraced, |p| p.verify_s * p.scale),
            "s",
        ),
        m(
            "trace.overhead_pct",
            ratio(traced_wall - untraced_wall, untraced_wall) * 100.0,
            "%",
        ),
    ]
}
