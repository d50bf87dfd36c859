//! # gpu-tn — facade crate
//!
//! Reproduction of *GPU Triggered Networking for Intra-Kernel
//! Communications* (LeBeane et al., SC'17). This crate re-exports the public
//! API of the workspace so examples and downstream users have a single
//! import surface:
//!
//! - [`sim`] — deterministic discrete-event engine
//! - [`mem`] — simulated coherent memory (GPU scoped memory model)
//! - [`fabric`] — 100 Gbps interconnect over star, full-mesh, fat-tree and
//!   dragonfly topologies
//! - [`nic`] — Portals-4-style RDMA NIC with the GPU-TN triggered-operation
//!   hardware extension (the paper's contribution, §3)
//! - [`gpu`] — GPU device model (front-end scheduler, CUs, kernel-op DSL)
//! - [`host`] — host CPU, two-sided messaging, libNBC-style collectives
//! - [`core`] — GPU-TN host/kernel APIs, cluster assembly, and the four
//!   networking strategies (CPU / HDN / GDS / GPU-TN, §5.1)
//! - [`workloads`] — the paper's evaluation workloads (Figs. 1, 8–11)
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map.

pub use gtn_core as core;
pub use gtn_fabric as fabric;
pub use gtn_gpu as gpu;
pub use gtn_host as host;
pub use gtn_mem as mem;
pub use gtn_nic as nic;
pub use gtn_sim as sim;
pub use gtn_workloads as workloads;
