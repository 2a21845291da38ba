//! Partition, heal, crash, rejoin — and the application never notices.
//!
//! One seeded fault plan throws everything the network model has at a
//! 4-node LOTS cluster: per-message loss, duplication and reordering,
//! a scheduled minority partition that heals mid-run, and one node
//! crashing after a barrier and rejoining through the recovery
//! protocol. SOR and the object-churn program must finish with
//! checksums **byte-identical** to the fault-free run, and replaying
//! the same plan must reproduce the report fingerprint (every virtual
//! time, traffic and recovery counter) bit for bit.
//!
//! ```text
//! cargo run --release --example partition_rejoin
//! LOTS_SMOKE=1 cargo run --release --example partition_rejoin   # CI job
//! ```

use lots::apps::churn::{model_checksum, ChurnParams};
use lots::apps::runner::RunOutcome;
use lots::apps::sor::SorParams;
use lots::apps::{run_app, RunConfig, System};
use lots::sim::machine::p4_fedora;
use lots::sim::{CrashFault, FaultPlan, Partition, SimDuration, SimInstant};

const NODES: usize = 4;

/// Seeded loss + dup + reorder, one healing minority partition, one
/// crash-rejoin. The partition heals within the retry budget, so every
/// loss is recoverable and the plan only costs virtual time.
fn plan() -> FaultPlan {
    FaultPlan {
        seed: 1234,
        loss_permille: 15,
        dup_permille: 30,
        reorder_permille: 25,
        partitions: vec![Partition {
            start: SimInstant(2_000_000),
            end: SimInstant(8_000_000),
            islanders: vec![3],
        }],
        crash_node: Some(CrashFault {
            node: 1,
            at_barrier: 2,
            reboot: SimDuration::from_millis(25),
        }),
        ..FaultPlan::none()
    }
}

fn run_sor(faults: FaultPlan, params: SorParams) -> RunOutcome {
    let mut cfg = RunConfig::new(System::Lots, NODES, p4_fedora());
    cfg.dmm_bytes = 8 << 20;
    cfg.faults = faults;
    run_app(&cfg, params)
}

fn run_churn(faults: FaultPlan, params: ChurnParams) -> RunOutcome {
    let mut cfg = RunConfig::new(System::Lots, NODES, p4_fedora());
    cfg.dmm_bytes = 1 << 20;
    cfg.faults = faults;
    run_app(&cfg, params)
}

fn main() {
    let smoke = std::env::var("LOTS_SMOKE").is_ok_and(|v| v == "1");
    let sor_params = SorParams {
        n: if smoke { 64 } else { 128 },
        iters: if smoke { 4 } else { 16 },
    };
    let churn_params = if smoke {
        ChurnParams::smoke()
    } else {
        ChurnParams {
            phases: 48,
            ..ChurnParams::smoke()
        }
    };
    let churn_model = model_checksum(&churn_params, 0);

    let clean = run_sor(FaultPlan::none(), sor_params);
    let faulted = run_sor(plan(), sor_params);
    assert_eq!(
        clean.combined.checksum, faulted.combined.checksum,
        "SOR checksum must survive the fault plan"
    );
    assert_eq!(faulted.traffic.msgs_dropped(), 0, "no unrecovered losses");
    assert!(
        faulted.traffic.msgs_retransmitted() > 0,
        "the plan must exercise loss"
    );
    assert_eq!(faulted.stats.rejoin_rounds(), 1, "one crash, one rejoin");
    assert!(
        faulted.exec_time > clean.exec_time,
        "recovery must cost virtual time"
    );
    let replay = run_sor(plan(), sor_params);
    assert_eq!(
        (&faulted.per_node, &faulted.fingerprint),
        (&replay.per_node, &replay.fingerprint),
        "replay must be bit-for-bit"
    );
    println!(
        "SOR {}x{}x{}: clean {:.3} s, faulted {:.3} s, {} retransmits, \
         {} dups filtered, rejoin moved {} B — checksums identical, replay exact",
        sor_params.n,
        sor_params.n,
        sor_params.iters,
        clean.exec_time.as_secs_f64(),
        faulted.exec_time.as_secs_f64(),
        faulted.traffic.msgs_retransmitted(),
        faulted.traffic.dups_filtered(),
        faulted.stats.rejoin_bytes(),
    );

    let churned = run_churn(plan(), churn_params);
    for (node, r) in churned.per_node.iter().enumerate() {
        assert_eq!(
            r.checksum, churn_model,
            "churn node {node} checksum vs the sequential model"
        );
    }
    assert_eq!(churned.traffic.msgs_dropped(), 0, "no unrecovered losses");
    assert_eq!(churned.stats.rejoin_rounds(), 1, "one crash, one rejoin");
    println!(
        "churn {} phases: {:.3} s under faults, {} retransmits, checksum OK",
        churn_params.phases,
        churned.exec_time.as_secs_f64(),
        churned.traffic.msgs_retransmitted(),
    );
    println!("partition healed, node rejoined, replay byte-identical.");
}
