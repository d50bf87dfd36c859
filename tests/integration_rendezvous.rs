//! End-to-end rendezvous-protocol test through the full cluster: a
//! message larger than the eager limit travels RTS → CTS → zero-copy
//! payload put, and the payload lands bit-exact in the receiver's user
//! buffer with no intermediate mailbox copy.

use gpu_tn::core::cluster::Cluster;
use gpu_tn::core::config::ClusterConfig;
use gpu_tn::host::mpi::MpiWorld;
use gpu_tn::host::{HostConfig, HostProgram};
use gpu_tn::mem::{Addr, MemPool, NodeId};
use gpu_tn::sim::time::SimTime;

const EAGER_LIMIT: u64 = 1024;

fn run_transfer(bytes: u64) -> (Vec<u8>, Vec<u8>, SimTime) {
    let config = ClusterConfig::table2(2);
    let mut mem = MemPool::new(2);
    let send_buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), bytes, "send"));
    let recv_buf = Addr::base(NodeId(1), mem.alloc(NodeId(1), bytes, "recv"));
    let payload: Vec<u8> = (0..bytes).map(|i| (i * 31 % 251) as u8).collect();
    mem.write(send_buf, &payload);

    let mut mpi = MpiWorld::new(&mut mem, EAGER_LIMIT, &[(0, 1, bytes)]);
    let mut p0 = HostProgram::new();
    p0.extend(mpi.send_ops(NodeId(0), NodeId(1), send_buf, bytes));
    let mut p1 = HostProgram::new();
    p1.extend(mpi.recv_ops(
        &HostConfig::default(),
        NodeId(0),
        NodeId(1),
        recv_buf,
        bytes,
    ));

    let mut cluster = Cluster::new(config, mem, vec![p0, p1]);
    let result = cluster.run();
    assert!(
        result.completed,
        "transfer of {bytes} B deadlocked: {result:?}"
    );
    let received = cluster.mem().read(recv_buf, bytes).to_vec();
    (payload, received, result.makespan)
}

#[test]
fn eager_path_below_threshold() {
    let (sent, received, t) = run_transfer(EAGER_LIMIT);
    assert_eq!(sent, received);
    assert!(t < SimTime::from_us(5), "{t}");
}

#[test]
fn rendezvous_path_above_threshold() {
    let (sent, received, _) = run_transfer(EAGER_LIMIT + 1);
    assert_eq!(sent, received, "rendezvous corrupted the payload");
    let (sent, received, _) = run_transfer(64 * 1024);
    assert_eq!(sent, received);
}

#[test]
fn rendezvous_costs_a_round_trip_but_skips_the_copy() {
    // At sizes just around the threshold, rendezvous pays RTS+CTS wire
    // time; at large sizes it wins by skipping the mailbox memcpy.
    let (_, _, t_eager_1k) = run_transfer(EAGER_LIMIT);
    let (_, _, t_rdv_1k) = run_transfer(EAGER_LIMIT + 4);
    assert!(
        t_rdv_1k > t_eager_1k,
        "tiny rendezvous should pay the handshake: {t_rdv_1k} vs {t_eager_1k}"
    );

    // Compare a large transfer against a world whose eager limit admits it
    // (i.e. forced eager at the same size): rendezvous must win on the
    // avoided copy.
    let bytes = 1 << 20;
    let (_, _, t_rdv) = run_transfer(bytes);
    let t_forced_eager = {
        let config = ClusterConfig::table2(2);
        let mut mem = MemPool::new(2);
        let send_buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), bytes, "send"));
        let recv_buf = Addr::base(NodeId(1), mem.alloc(NodeId(1), bytes, "recv"));
        mem.write(send_buf, &vec![9u8; bytes as usize]);
        let mut mpi = MpiWorld::new(&mut mem, bytes, &[(0, 1, bytes)]); // goes eager
        let mut p0 = HostProgram::new();
        p0.extend(mpi.send_ops(NodeId(0), NodeId(1), send_buf, bytes));
        let mut p1 = HostProgram::new();
        p1.extend(mpi.recv_ops(
            &HostConfig::default(),
            NodeId(0),
            NodeId(1),
            recv_buf,
            bytes,
        ));
        let mut cluster = Cluster::new(config, mem, vec![p0, p1]);
        cluster.run().expect_completed()
    };
    assert!(
        t_rdv < t_forced_eager,
        "1 MiB: rendezvous {t_rdv} should beat eager-with-copy {t_forced_eager}"
    );
}

#[test]
fn pipelined_rendezvous_messages_stay_ordered() {
    // Several large messages back to back on one channel: sequences and
    // CTS slots must not collide.
    let config = ClusterConfig::table2(2);
    let mut mem = MemPool::new(2);
    let n_msgs = 6u64;
    let bytes = 8 * 1024u64;
    let send_buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), bytes * n_msgs, "send"));
    let recv_buf = Addr::base(NodeId(1), mem.alloc(NodeId(1), bytes * n_msgs, "recv"));
    for i in 0..n_msgs {
        let fill = vec![(i + 1) as u8; bytes as usize];
        mem.write(send_buf.offset_by(i * bytes), &fill);
    }
    let mut mpi = MpiWorld::new(&mut mem, 1024, &vec![(0, 1, bytes); n_msgs as usize]);
    let mut p0 = HostProgram::new();
    let mut p1 = HostProgram::new();
    for i in 0..n_msgs {
        p0.extend(mpi.send_ops(NodeId(0), NodeId(1), send_buf.offset_by(i * bytes), bytes));
        p1.extend(mpi.recv_ops(
            &HostConfig::default(),
            NodeId(0),
            NodeId(1),
            recv_buf.offset_by(i * bytes),
            bytes,
        ));
    }
    let mut cluster = Cluster::new(config, mem, vec![p0, p1]);
    cluster.run().expect_completed();
    for i in 0..n_msgs {
        assert_eq!(
            cluster.mem().read(recv_buf.offset_by(i * bytes), bytes),
            &vec![(i + 1) as u8; bytes as usize][..],
            "message {i} corrupted"
        );
    }
}
