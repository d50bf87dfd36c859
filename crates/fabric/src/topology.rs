//! Interconnect shapes.
//!
//! The paper evaluates a star (every node hangs off one switch). The
//! remaining shapes are topology-sensitivity extensions: a full mesh (no
//! switch at all), a k-ary fat-tree (the classic three-tier Clos), and a
//! dragonfly (all-to-all router groups joined by single global links). The
//! Allreduce *ring* in §5.4.1 is a logical communication pattern layered
//! over the physical topology, not a physical shape.
//!
//! A `Topology` value is pure configuration: the actual switch/link graph,
//! routing tables, and ECMP path selection live in [`crate::graph`].

use serde::{Deserialize, Serialize};

/// Physical interconnect shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// All nodes connect to a single central switch (paper's configuration).
    Star,
    /// Every pair of nodes has a direct link (no switch traversal).
    FullMesh,
    /// Three-tier k-ary fat-tree (Clos): `k` pods of `k/2` edge and `k/2`
    /// aggregation switches plus `(k/2)^2` core switches; hosts fill pods in
    /// order. `k` must be even; capacity is `k^3/4` hosts.
    FatTree {
        /// Switch radix; even, at least 2.
        k: u32,
    },
    /// Dragonfly: groups of `routers` all-to-all-connected routers, each
    /// router carrying `hosts` hosts and `globals` global links; every group
    /// pair is joined by exactly one global link, giving
    /// `routers * globals + 1` groups.
    Dragonfly {
        /// Routers per group (the `a` parameter).
        routers: u32,
        /// Hosts per router (the `p` parameter).
        hosts: u32,
        /// Global links per router (the `h` parameter).
        globals: u32,
    },
}

impl Topology {
    /// Maximum number of hosts the shape supports, or `None` when it scales
    /// to any count (star and full mesh grow links with the node count).
    pub fn capacity(&self) -> Option<u64> {
        match *self {
            Topology::Star | Topology::FullMesh => None,
            Topology::FatTree { k } => Some((k as u64).pow(3) / 4),
            Topology::Dragonfly {
                routers,
                hosts,
                globals,
            } => {
                let groups = routers as u64 * globals as u64 + 1;
                Some(groups * routers as u64 * hosts as u64)
            }
        }
    }

    /// Validate shape parameters (independent of node count; capacity
    /// against a concrete node count is checked by the cluster config and
    /// asserted by [`crate::Fabric::new`]).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Topology::Star | Topology::FullMesh => Ok(()),
            Topology::FatTree { k } => {
                if k < 2 || k % 2 != 0 {
                    Err(format!("fat-tree k must be even and >= 2, got {k}"))
                } else {
                    Ok(())
                }
            }
            Topology::Dragonfly {
                routers,
                hosts,
                globals,
            } => {
                if routers == 0 || hosts == 0 || globals == 0 {
                    Err(format!(
                        "dragonfly parameters must all be >= 1, got \
                         routers={routers} hosts={hosts} globals={globals}"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// The smallest even-`k` fat-tree with capacity for `n` hosts.
    pub fn fat_tree_for(n: usize) -> Topology {
        let mut k = 2u32;
        while ((k as u64).pow(3) / 4) < n as u64 {
            k += 2;
        }
        Topology::FatTree { k }
    }

    /// The smallest balanced dragonfly (`routers = 2*globals`,
    /// `hosts = globals`, the standard load-balanced sizing) with capacity
    /// for `n` hosts.
    pub fn dragonfly_for(n: usize) -> Topology {
        let mut h = 1u32;
        loop {
            let t = Topology::Dragonfly {
                routers: 2 * h,
                hosts: h,
                globals: h,
            };
            if t.capacity().unwrap() >= n as u64 {
                return t;
            }
            h += 1;
        }
    }

    /// Short machine-friendly label (bench report keys).
    pub fn label(&self) -> String {
        match *self {
            Topology::Star => "star".into(),
            Topology::FullMesh => "full_mesh".into(),
            Topology::FatTree { k } => format!("fat_tree_k{k}"),
            Topology::Dragonfly {
                routers,
                hosts,
                globals,
            } => format!("dragonfly_a{routers}_p{hosts}_h{globals}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities() {
        assert_eq!(Topology::Star.capacity(), None);
        assert_eq!(Topology::FullMesh.capacity(), None);
        assert_eq!(Topology::FatTree { k: 4 }.capacity(), Some(16));
        assert_eq!(Topology::FatTree { k: 8 }.capacity(), Some(128));
        // g = 4*2+1 = 9 groups x 4 routers x 2 hosts.
        assert_eq!(
            Topology::Dragonfly {
                routers: 4,
                hosts: 2,
                globals: 2
            }
            .capacity(),
            Some(72)
        );
    }

    #[test]
    fn pickers_cover_the_requested_count() {
        for n in [2usize, 16, 100, 128, 500, 512, 1024] {
            let ft = Topology::fat_tree_for(n);
            assert!(
                ft.capacity().unwrap() >= n as u64,
                "{ft:?} too small for {n}"
            );
            assert!(ft.validate().is_ok());
            let df = Topology::dragonfly_for(n);
            assert!(
                df.capacity().unwrap() >= n as u64,
                "{df:?} too small for {n}"
            );
            assert!(df.validate().is_ok());
        }
        assert_eq!(Topology::fat_tree_for(128), Topology::FatTree { k: 8 });
        assert_eq!(Topology::fat_tree_for(512), Topology::FatTree { k: 14 });
        assert_eq!(
            Topology::dragonfly_for(512),
            Topology::Dragonfly {
                routers: 8,
                hosts: 4,
                globals: 4
            }
        );
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Topology::FatTree { k: 3 }.validate().is_err());
        assert!(Topology::FatTree { k: 0 }.validate().is_err());
        assert!(Topology::FatTree { k: 4 }.validate().is_ok());
        assert!(Topology::Dragonfly {
            routers: 0,
            hosts: 1,
            globals: 1
        }
        .validate()
        .is_err());
        assert!(Topology::Star.validate().is_ok());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Topology::Star.label(), "star");
        assert_eq!(Topology::FatTree { k: 8 }.label(), "fat_tree_k8");
        assert_eq!(
            Topology::Dragonfly {
                routers: 8,
                hosts: 4,
                globals: 4
            }
            .label(),
            "dragonfly_a8_p4_h4"
        );
    }
}
