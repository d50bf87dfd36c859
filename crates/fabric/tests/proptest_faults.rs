//! Property tests for the fault-injection plan: the disabled plan is
//! transparent, seeded plans are replayable, and the loss dial behaves at
//! its extremes.

use gtn_fabric::{Delivery, Fabric, FabricConfig, FaultConfig, FaultPlan};
use gtn_mem::NodeId;
use gtn_sim::time::SimTime;
use proptest::prelude::*;

/// Drive `plan` through a message schedule derived from `sizes`, every
/// route healthy (no crashed edge, no degrade drop).
fn judge_all(plan: &mut FaultPlan, sizes: &[u64]) -> Vec<Delivery> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &packets)| {
            plan.judge(
                SimTime::from_ns(i as u64 * 700),
                NodeId((i % 3) as u32),
                NodeId(((i + 1) % 3) as u32),
                packets.max(1),
                false,
                None,
            )
        })
        .collect()
}

proptest! {
    /// A disabled plan delivers everything, counts nothing, and the faulty
    /// fabric entry point gives byte-identical timing to the lossless one —
    /// the "faults off == seed model" guarantee, fuzzed over traffic.
    #[test]
    fn disabled_faults_are_fully_transparent(
        sizes in prop::collection::vec(1u64..100_000, 1..20),
    ) {
        let mut lossless = Fabric::new(3, FabricConfig::default());
        let mut gated = Fabric::new(3, FabricConfig::default());
        let mut inject = SimTime::ZERO;
        for (i, &bytes) in sizes.iter().enumerate() {
            let src = NodeId((i % 3) as u32);
            let dst = NodeId(((i + 1) % 3) as u32);
            let plain = lossless.send_message(inject, src, dst, bytes);
            let (faulty, verdict) = gated.send_message_faulty(inject, src, dst, bytes);
            prop_assert_eq!(verdict, Delivery::Delivered);
            prop_assert_eq!(plain.first_arrival, faulty.first_arrival);
            prop_assert_eq!(plain.last_arrival, faulty.last_arrival);
            prop_assert_eq!(plain.packets, faulty.packets);
            inject += gtn_sim::time::SimDuration::from_ns(1 + bytes % 997);
        }
        prop_assert_eq!(gated.fault_stats().counters().count(), 0);
    }

    /// The same seed replays the same verdict sequence, whatever the loss
    /// rate.
    #[test]
    fn seeded_plans_are_replayable(
        seed in 0u64..1_000_000,
        loss_milli in 0u64..1000,
        sizes in prop::collection::vec(1u64..32, 1..50),
    ) {
        let cfg = FaultConfig::loss(seed, loss_milli as f64 / 1000.0);
        let mut a = FaultPlan::new(cfg.clone());
        let mut b = FaultPlan::new(cfg);
        prop_assert_eq!(judge_all(&mut a, &sizes), judge_all(&mut b, &sizes));
    }

    /// Certain loss drops every message; zero loss drops none.
    #[test]
    fn loss_extremes(seed in 0u64..1_000_000, sizes in prop::collection::vec(1u64..8, 1..30)) {
        let mut dead = FaultPlan::new(FaultConfig::loss(seed, 1.0));
        prop_assert!(judge_all(&mut dead, &sizes).iter().all(|&d| d == Delivery::Dropped));
        let mut clean = FaultPlan::new(FaultConfig::loss(seed, 0.0));
        prop_assert!(judge_all(&mut clean, &sizes).iter().all(|&d| d == Delivery::Delivered));
    }
}
