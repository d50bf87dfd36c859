//! Bad input is a structured error, never a panic: every runner returns
//! `Ok` or a [`JobFailure`], through its module entry point and through
//! `Workload::run` alike.
//!
//! 1. **Collectives** — every `Collective` kind and strategy at 0–9 nodes
//!    and 0–64 elements, lossless, lossy, under NIC pressure or on an
//!    invalid topology: no panic, both paths reject exactly the params a
//!    collective cannot run, and a valid lossless run completes and
//!    verifies.
//! 2. **Jacobi** — node grids up to 3 × 3, local edges 0–4, 0–2 sweeps:
//!    the same contract.
//! 3. **Bad config values** — zero or NaN bandwidths, zero poll intervals
//!    and loss rates outside `[0, 1]` come back as `JobFailure::Invalid`
//!    from every entry point.
//! 4. **A lossy CPU ring** that may corrupt its result (ROADMAP item 1)
//!    comes back `Ok` or as a `Diverged` that names a rank.
//! 5. **Serving params** — zero tenants, load, horizon, servers or
//!    trigger partitions, a zero partition depth, or a `collective_pct`
//!    past 100 come back from `serving::try_run` as `JobFailure::Invalid`;
//!    small valid params run `Ok`.

use gtn_core::config::ClusterConfig;
use gtn_core::scenario::ConfigPatch;
use gtn_core::Strategy;
use gtn_fabric::Topology;
use gtn_workloads::allgather::{self, Allgather};
use gtn_workloads::allreduce::{self, Allreduce, AllreduceParams, HierAllreduce};
use gtn_workloads::collective::{self, Collective, CollectiveParams};
use gtn_workloads::harness::{
    JobFailure, ResourceLimits, ScenarioParams, ScenarioResult, Workload,
};
use gtn_workloads::jacobi::{self, Jacobi, JacobiParams};
use gtn_workloads::pingpong::{self, Flavor};
use gtn_workloads::serving::{self, ServingParams};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const KINDS: [Collective; 5] = [
    Collective::RingAllreduce,
    Collective::TreeAllreduce,
    Collective::HierAllreduce { group_size: 0 },
    Collective::RhdAllreduce,
    Collective::RingAllgather,
];

type Outcome = Result<ScenarioResult, JobFailure>;

/// Run `f`, turning a panic into an `Err` that says what panicked.
fn no_panic<T>(
    what: &str,
    f: impl FnOnce() -> Result<T, JobFailure>,
) -> Result<Result<T, JobFailure>, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{what} panicked: {msg}")
    })
}

fn is_invalid<T>(r: &Result<T, JobFailure>) -> bool {
    matches!(r, Err(JobFailure::Invalid(_)))
}

/// The scenario patch a case draws: lossless, 1% seeded loss, a 1-way
/// trigger CAM with a 2-entry CQ, or a fat-tree the config rejects.
fn patch_of(ix: u8, seed: u64) -> ConfigPatch {
    match ix % 4 {
        0 => ConfigPatch::NONE,
        1 => ConfigPatch::loss(seed, 0.01),
        2 => ConfigPatch::pressure(ResourceLimits::tiny(1, 2)),
        _ => ConfigPatch::NONE.with_topology(Topology::FatTree { k: 3 }),
    }
}

/// The workload (and its variant) that runs `kind`, if one does.
fn workload_of(kind: Collective) -> Option<(&'static dyn Workload, u32)> {
    match kind {
        Collective::RingAllreduce => Some((&Allreduce, 0)),
        Collective::TreeAllreduce => Some((&Allreduce, 1)),
        Collective::HierAllreduce { .. } => Some((&HierAllreduce, 2)),
        Collective::RingAllgather => Some((&Allgather, 0)),
        Collective::RhdAllreduce => None,
    }
}

/// Every entry point that runs `kind`: the executor itself, the
/// collective's own module entry point, and its `Workload::run`.
fn collective_outcomes(
    kind: Collective,
    cp: CollectiveParams,
    patch: ConfigPatch,
) -> Result<Vec<Outcome>, String> {
    let mutate = |c: &mut ClusterConfig| patch.apply(c);
    let mut out = vec![no_panic("collective::try_run_with_config", || {
        collective::try_run_with_config("proptest", kind, cp, mutate).map(|r| r.scenario)
    })?];
    match kind {
        Collective::RingAllreduce => {
            let ap = AllreduceParams::new(cp.nodes, cp.elems, cp.strategy, cp.seed);
            out.push(no_panic("allreduce::try_run_with_config", || {
                allreduce::try_run_with_config(ap, mutate).map(|r| r.scenario)
            })?);
        }
        Collective::RingAllgather => out.push(no_panic("allgather::try_run_with_config", || {
            allgather::try_run_with_config(cp, mutate).map(|r| r.scenario)
        })?),
        _ => {}
    }
    if let Some((w, variant)) = workload_of(kind) {
        let sp = ScenarioParams::new(cp.strategy)
            .nodes(cp.nodes)
            .size(cp.elems)
            .seed(cp.seed)
            .variant(variant)
            .patch(patch);
        out.push(no_panic(w.name(), || w.run(&sp))?);
    }
    Ok(out)
}

fn jacobi_outcomes(jp: JacobiParams, patch: ConfigPatch) -> Result<Vec<Outcome>, String> {
    let sp = ScenarioParams::new(jp.strategy)
        .grid(jp.rows, jp.cols)
        .size(jp.n_local as u64)
        .iters(jp.iters)
        .seed(jp.seed)
        .patch(patch);
    Ok(vec![
        no_panic("jacobi::try_run_with_config", || {
            jacobi::try_run_with_config(jp, |c| patch.apply(c)).map(|r| r.scenario)
        })?,
        no_panic("Jacobi.run", || Jacobi.run(&sp))?,
    ])
}

proptest! {
    // Small clusters and vectors: each case is a few millisecond-scale
    // runs even in a debug build.
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn collectives_return_ok_or_a_job_failure(
        cell in 0usize..20,
        nodes in 0u32..10,
        elems in 0u64..65,
        patch_ix in 0u8..4,
        seed in 0u64..1_000,
    ) {
        let kind = KINDS[cell / 4];
        let strategy = Strategy::all()[cell % 4];
        let cp = CollectiveParams { nodes, elems, strategy, seed };
        let outcomes = collective_outcomes(kind, cp, patch_of(patch_ix, seed))
            .map_err(TestCaseError::fail)?;
        let invalid = nodes < 2
            || (kind == Collective::RhdAllreduce && !nodes.is_power_of_two())
            || patch_ix == 3
            || elems < kind.schedules(nodes)[0].n_chunks as u64;
        for r in &outcomes {
            prop_assert_eq!(is_invalid(r), invalid, "{:?} {} {}x{}: {:?}",
                kind, strategy, nodes, elems, r.as_ref().err());
            if patch_ix == 0 && !invalid {
                prop_assert!(r.is_ok(), "{:?} {} {}x{}: {}",
                    kind, strategy, nodes, elems, r.as_ref().unwrap_err());
            }
        }
    }

    #[test]
    fn jacobi_returns_ok_or_a_job_failure(
        rows in 0u32..4,
        cols in 0u32..4,
        n_local in 0u32..5,
        iters in 0u32..3,
        mode in 0u8..16,
        seed in 0u64..1_000,
    ) {
        let (strategy, patch_ix) = (Strategy::all()[mode as usize % 4], mode / 4);
        let jp = JacobiParams::new(rows, cols, n_local, iters, strategy, seed);
        let outcomes = jacobi_outcomes(jp, patch_of(patch_ix, seed))
            .map_err(TestCaseError::fail)?;
        let invalid = rows * cols < 2 || n_local < 2 || iters == 0 || patch_ix == 3;
        for r in &outcomes {
            prop_assert_eq!(is_invalid(r), invalid, "{:?}: {:?}", jp, r.as_ref().err());
            if patch_ix == 0 && !invalid {
                prop_assert!(r.is_ok(), "{:?}: {}", jp, r.as_ref().unwrap_err());
            }
        }
    }
}

proptest! {
    // A valid case runs both calibration sims and a short trace.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serving_returns_ok_or_invalid(
        tenants in 0u32..6,
        servers in 0u32..4,
        load in 0u8..16,
        parts in 0u8..16,
        collective_pct in 0u32..110,
        strategy_ix in 0u8..4,
    ) {
        let offered_jps = [0, 100_000, 400_000, 2_000_000][load as usize % 4];
        let duration_ns = [0, 1, 50_000, 200_000][load as usize / 4];
        let partitions = u32::from(parts % 4);
        let depth = [None, Some(0), Some(2), Some(8)][parts as usize / 4];
        let mut p = ServingParams::new(Strategy::all()[strategy_ix as usize])
            .tenants(tenants)
            .offered(offered_jps)
            .duration_ns(duration_ns)
            .partitions(partitions, depth)
            .seed(u64::from(load) * 97 + u64::from(parts));
        p.servers = servers;
        p.collective_pct = collective_pct;
        let r = no_panic("serving::try_run", || serving::try_run(&p))
            .map_err(TestCaseError::fail)?;
        let invalid = tenants == 0
            || offered_jps == 0
            || duration_ns == 0
            || servers == 0
            || partitions == 0
            || depth == Some(0)
            || collective_pct > 100;
        prop_assert_eq!(is_invalid(&r), invalid, "{:?}: {:?}", p, r.as_ref().err());
        if !invalid {
            let report = r.map_err(|e| TestCaseError::fail(format!("{p:?}: {e}")))?;
            prop_assert!(report.conserved(), "{:?}", p);
        }
    }
}

#[test]
fn inputs_that_used_to_panic_are_invalid() {
    let ring = |nodes, elems| {
        collective_outcomes(
            Collective::RingAllreduce,
            CollectiveParams {
                nodes,
                elems,
                strategy: Strategy::GpuTn,
                seed: 1,
            },
            ConfigPatch::NONE,
        )
        .unwrap()
    };
    let mut cases = vec![
        ("a 1-node ring", ring(1, 64)),
        ("0 elements on 8 nodes", ring(8, 0)),
        ("3 elements on 8 nodes", ring(8, 3)),
    ];
    let two_host_tree = ConfigPatch::NONE.with_topology(Topology::FatTree { k: 2 });
    let cp = CollectiveParams {
        nodes: 8,
        elems: 64,
        strategy: Strategy::Cpu,
        seed: 1,
    };
    cases.push((
        "8 nodes on a 2-host fat-tree",
        collective_outcomes(Collective::RingAllreduce, cp, two_host_tree).unwrap(),
    ));
    let rhd = CollectiveParams {
        nodes: 6,
        elems: 64,
        strategy: Strategy::Hdn,
        seed: 1,
    };
    cases.push((
        "halving-doubling on 6 nodes",
        collective_outcomes(Collective::RhdAllreduce, rhd, ConfigPatch::NONE).unwrap(),
    ));
    for (what, jp) in [
        ("n_local = 0", JacobiParams::square4(0, 2, Strategy::Cpu, 1)),
        ("iters = 0", JacobiParams::square4(4, 0, Strategy::Cpu, 1)),
        (
            "a 1 x 1 grid",
            JacobiParams::new(1, 1, 4, 2, Strategy::Cpu, 1),
        ),
    ] {
        cases.push((what, jacobi_outcomes(jp, ConfigPatch::NONE).unwrap()));
    }
    for (what, outcomes) in cases {
        for r in outcomes {
            assert!(is_invalid(&r), "{what}: {:?}", r.err());
        }
    }
}

#[test]
fn bad_serving_params_are_invalid() {
    let ok = ServingParams::new(Strategy::GpuTn)
        .tenants(20)
        .duration_ns(100_000)
        .offered(200_000);
    let bad = [
        ("tenants = 0", ok.tenants(0)),
        ("offered_jps = 0", ok.offered(0)),
        ("duration_ns = 0", ok.duration_ns(0)),
        ("servers = 0", ServingParams { servers: 0, ..ok }),
        ("partitions = 0", ok.partitions(0, Some(4))),
        ("partition depth 0", ok.partitions(4, Some(0))),
        (
            "collective_pct = 101",
            ServingParams {
                collective_pct: 101,
                ..ok
            },
        ),
    ];
    for (what, p) in bad {
        let r = no_panic(what, || serving::try_run(&p)).unwrap();
        assert!(is_invalid(&r), "{what}: {:?}", r.err());
    }
    for p in [ok, ok.tenants(1), ok.partitions(1, None)] {
        let r = no_panic("valid serving params", || serving::try_run(&p)).unwrap();
        assert!(r.is_ok(), "{p:?}: {}", r.unwrap_err());
    }
}

#[test]
fn bad_config_values_are_invalid() {
    type Mutate = fn(&mut ClusterConfig);
    let bad: [(&str, Mutate); 6] = [
        ("host.memcpy_gbps = 0", |c| c.host.memcpy_gbps = 0.0),
        ("host.memcpy_gbps = NaN", |c| c.host.memcpy_gbps = f64::NAN),
        ("nic.dma_gbps = NaN", |c| c.nic.dma_gbps = f64::NAN),
        ("fabric.link_gbps = NaN", |c| c.fabric.link_gbps = f64::NAN),
        ("host.poll_interval_ns = 0", |c| c.host.poll_interval_ns = 0),
        ("gpu.poll_interval_ns = 0", |c| c.gpu.poll_interval_ns = 0),
    ];
    for (what, mutate) in bad {
        for strategy in Strategy::all() {
            let ap = AllreduceParams::new(4, 256, strategy, 1);
            let cp = CollectiveParams {
                nodes: 4,
                elems: 256,
                strategy,
                seed: 1,
            };
            let jp = JacobiParams::square4(4, 2, strategy, 1);
            let outcomes = [
                allreduce::try_run_with_config(ap, mutate).map(|r| r.scenario),
                collective::try_run_with_config("bad", Collective::RhdAllreduce, cp, mutate)
                    .map(|r| r.scenario),
                allgather::try_run_with_config(cp, mutate).map(|r| r.scenario),
                jacobi::try_run_with_config(jp, mutate).map(|r| r.scenario),
            ];
            for r in outcomes {
                assert!(is_invalid(&r), "{what} {strategy}: {:?}", r.err());
            }
        }
    }
    // Patches carry the bad values `ScenarioParams` can express: a
    // topology the config rejects, or a loss rate outside [0, 1].
    let bad_patches = [
        ConfigPatch::NONE.with_topology(Topology::FatTree { k: 3 }),
        ConfigPatch::loss(2, f64::NAN),
        ConfigPatch::loss(2, -0.5),
        ConfigPatch::loss(2, 1.5),
    ];
    for patch in bad_patches {
        for flavor in Flavor::taxonomy() {
            let r = pingpong::try_run_flavor(flavor, patch).map(|r| r.scenario);
            assert!(is_invalid(&r), "{} {patch:?}: {:?}", flavor.name(), r.err());
        }
        let sp = ScenarioParams::new(Strategy::Cpu)
            .nodes(4)
            .size(256)
            .patch(patch);
        let r = Allreduce.run(&sp);
        assert!(is_invalid(&r), "{patch:?}: {:?}", r.err());
    }
}

#[test]
fn lossy_cpu_ring_is_ok_or_a_divergence_that_names_a_rank() {
    // 8 nodes x 4 Ki elements at 1% loss, input seed = loss seed: the
    // seeds on which the CPU ring's eager slots can be overwritten.
    for seed in [2u64, 4] {
        let patch = ConfigPatch::loss(seed, 0.01);
        let entry = allreduce::try_run_with_config(
            AllreduceParams::new(8, 4 * 1024, Strategy::Cpu, seed),
            |c| patch.apply(c),
        )
        .map(|r| r.scenario);
        let sp = ScenarioParams::new(Strategy::Cpu)
            .nodes(8)
            .size(4 * 1024)
            .seed(seed)
            .patch(patch);
        for r in [entry, Allreduce.run(&sp)] {
            match r {
                Ok(_) => {}
                Err(JobFailure::Diverged(what)) => assert!(
                    what.contains("node ") || what.contains("rank "),
                    "seed {seed}: {what}"
                ),
                Err(other) => panic!("seed {seed}: {other}"),
            }
        }
    }
}
