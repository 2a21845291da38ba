//! Seeded fault injection for deterministic cluster runs.
//!
//! Under the deterministic scheduler ([`crate::sched`]) every run is a
//! pure function of its inputs, which makes faults *replayable*: a
//! [`FaultPlan`] perturbs the simulation — per-message network jitter,
//! loss, duplication and reordering, scheduled partitions, per-node CPU
//! slowdown, a node panic or crash at a chosen barrier — and the same
//! plan reproduces the same perturbed run bit-for-bit. Every
//! per-message decision is a pure hash of `(plan seed, src, dst,
//! message sequence)`, so it does not even depend on scheduling order.
//!
//! Lost attempts are retried by one fixed discipline, the UDP
//! reliability layer of classic SDSM transports: the first retry waits
//! [`RTO_FLIGHTS`] times the message's flight time, each further one
//! twice the one before, and after [`MAX_RETRIES`] retries the message
//! is dropped (in practice only inside a partition that never heals).
//!
//! The invariant the test suite enforces: faults that only stretch
//! time (delays, slowdowns, retried loss) may change every clock and
//! traffic timing in the report, but never an application result —
//! Scope Consistency hides latency, not values. Node panics ride the
//! poisoning path: peers fail loudly at their next synchronization
//! instead of hanging.

use crate::clock::{SimDuration, SimInstant};

/// One injected node failure: the node panics on entering its
/// `at_barrier`-th barrier (1-based), exercising the poisoning path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicFault {
    /// Rank of the node to kill.
    pub node: usize,
    /// Which of the node's barrier entries triggers the panic
    /// (1 = its first barrier).
    pub at_barrier: u64,
}

/// One injected *recoverable* node failure: the node crashes right
/// after completing its `at_barrier`-th barrier (1-based), losing all
/// volatile state (mapped objects, cached remote copies, twins), then
/// rejoins. Peers' directory replicas plus the node's durable swap
/// store rebuild its state; the cluster continues with identical
/// results — unlike [`PanicFault`], which only poisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// Rank of the node to crash and rejoin.
    pub node: usize,
    /// Which of the node's barrier entries triggers the crash
    /// (1 = its first barrier); the crash lands after the barrier
    /// completes, so the interval it closed is globally consistent.
    pub at_barrier: u64,
    /// Modeled downtime: process restart + state-rebuild handshake.
    pub reboot: SimDuration,
}

/// A scheduled network partition in virtual time: from `start`
/// (inclusive) to `end` (exclusive), every link between an islander
/// and a non-islander is severed; links within either side stay up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Virtual time the partition starts.
    pub start: SimInstant,
    /// Virtual time the partition heals.
    pub end: SimInstant,
    /// The nodes cut off from the rest of the cluster.
    pub islanders: Vec<usize>,
}

impl Partition {
    /// Is the directed link `a → b` severed at virtual time `t`?
    pub fn severs(&self, t: SimInstant, a: usize, b: usize) -> bool {
        t >= self.start
            && t < self.end
            && (self.islanders.contains(&a) != self.islanders.contains(&b))
    }
}

/// The first retransmission timeout, in flight times of the message.
/// The model is *analytic*: the delivery time of a message under loss
/// is computed at send time as a pure function of the plan, so no real
/// timers run and the conservative-PDES lookahead (arrival ≥ send +
/// link latency) is preserved — retransmission only ever delays an
/// arrival.
pub const RTO_FLIGHTS: u64 = 2;

/// Retry budget. With exponential backoff, `k` retries span
/// `rto·(2^k − 1)` — 20 retries outlast any partition window a
/// simulated run schedules that heals.
pub const MAX_RETRIES: u32 = 20;

/// Outcome of the analytic retransmission model for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message (eventually) gets through.
    Deliver {
        /// Arrival of the successful attempt; never earlier than the
        /// fault-free arrival.
        arrival: SimInstant,
        /// Retransmissions it took (0 = first attempt succeeded).
        retransmits: u32,
    },
    /// Every attempt was lost: the retry budget ran out (in practice
    /// inside a partition that never heals).
    Dropped {
        /// Attempts made (≥ 1).
        attempts: u32,
    },
}

/// A seeded, fully deterministic perturbation of a cluster run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-message delay hash.
    pub seed: u64,
    /// Maximum extra in-flight delay per message (uniform in
    /// `[0, max]`); [`SimDuration::ZERO`] disables delay injection.
    pub max_msg_delay: SimDuration,
    /// Per-node CPU slowdown factors `(node, factor ≥ 1.0)`; nodes not
    /// listed run at full speed.
    pub cpu_slowdown: Vec<(usize, f64)>,
    /// Optional injected node panic.
    pub panic_node: Option<PanicFault>,
    /// Per-attempt message loss probability in permille (0–999).
    pub loss_permille: u16,
    /// Probability, in permille, that a message is duplicated in
    /// flight: a whole second copy reaches the receiver with the
    /// original's arrival.
    pub dup_permille: u16,
    /// Probability, in permille, that a message is reordered: held
    /// back by an extra seeded delay within the transport's window (a
    /// few link latencies) so it arrives after later sends.
    pub reorder_permille: u16,
    /// Scheduled partitions/heals in virtual time.
    pub partitions: Vec<Partition>,
    /// Optional crash + rejoin (recoverable, unlike `panic_node`).
    pub crash_node: Option<CrashFault>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A delay-only plan: every message gets a seeded jitter in
    /// `[0, max]`.
    pub fn delays(seed: u64, max: SimDuration) -> FaultPlan {
        FaultPlan {
            seed,
            max_msg_delay: max,
            ..FaultPlan::default()
        }
    }

    /// Does this plan perturb anything at all?
    pub fn is_active(&self) -> bool {
        self.max_msg_delay > SimDuration::ZERO
            || !self.cpu_slowdown.is_empty()
            || self.panic_node.is_some()
            || self.loss_permille > 0
            || self.dup_permille > 0
            || self.reorder_permille > 0
            || !self.partitions.is_empty()
            || self.crash_node.is_some()
    }

    /// Every node id the plan names: slowed, panicked, crashed or cut
    /// off. A node at or past the cluster size never fires, so the
    /// cluster checks these before a run starts.
    pub fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        let slowed = self.cpu_slowdown.iter().map(|&(node, _)| node);
        let islanders = self
            .partitions
            .iter()
            .flat_map(|p| p.islanders.iter().copied());
        slowed
            .chain(self.panic_node.map(|p| p.node))
            .chain(self.crash_node.map(|c| c.node))
            .chain(islanders)
    }

    /// Can this plan ever lose a message attempt (loss or partitions)?
    pub fn is_lossy(&self) -> bool {
        self.loss_permille > 0 || !self.partitions.is_empty()
    }

    /// The injected in-flight delay for the `seq`-th message a sender
    /// `src` addressed to `dst`. A pure hash — independent of
    /// scheduling, wall clock, and every other message.
    pub fn delay_for(&self, src: usize, dst: usize, seq: u64) -> SimDuration {
        if self.max_msg_delay == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let h = mix64(
            self.seed
                ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ seq.wrapping_mul(0x1656_67B1_9E37_79F9),
        );
        // Uniform in [0, max] via multiply-shift.
        SimDuration(((h as u128 * (self.max_msg_delay.0 as u128 + 1)) >> 64) as u64)
    }

    /// CPU slowdown factor of `node` (1.0 when unlisted).
    pub fn cpu_factor(&self, node: usize) -> f64 {
        self.cpu_slowdown
            .iter()
            .find(|&&(n, _)| n == node)
            .map(|&(_, f)| f)
            .unwrap_or(1.0)
    }

    /// If `node` is scheduled to panic, the (1-based) barrier entry at
    /// which it does.
    pub fn panic_barrier_for(&self, node: usize) -> Option<u64> {
        self.panic_node
            .filter(|p| p.node == node)
            .map(|p| p.at_barrier)
    }

    /// If `node` is scheduled to crash and rejoin, the (1-based)
    /// barrier entry after which it does.
    pub fn crash_for(&self, node: usize) -> Option<CrashFault> {
        self.crash_node.filter(|c| c.node == node)
    }

    /// Is the directed link `src → dst` severed by a scheduled
    /// partition at virtual time `t`?
    pub fn severed_at(&self, t: SimInstant, src: usize, dst: usize) -> bool {
        self.partitions.iter().any(|p| p.severs(t, src, dst))
    }

    /// Is the `attempt`-th transmission attempt (0 = the original) of
    /// message `(src, dst, seq)` lost to random loss? A pure hash, like
    /// [`FaultPlan::delay_for`].
    pub fn attempt_lost(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> bool {
        if self.loss_permille == 0 {
            return false;
        }
        let h = self.msg_hash(
            SALT_LOSS ^ u64::from(attempt).wrapping_mul(K_ATTEMPT),
            src,
            dst,
            seq,
        );
        h % 1000 < u64::from(self.loss_permille)
    }

    /// Is message `(src, dst, seq)` duplicated in flight? A pure hash,
    /// like [`FaultPlan::delay_for`].
    pub fn duplicates(&self, src: usize, dst: usize, seq: u64) -> bool {
        self.dup_permille > 0
            && self.msg_hash(SALT_DUP, src, dst, seq) % 1000 < u64::from(self.dup_permille)
    }

    /// The extra hold-back delay of a reordered message: zero for most
    /// messages, uniform in `[0, window]` for the selected fraction.
    pub fn reorder_delay_for(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        window: SimDuration,
    ) -> SimDuration {
        if self.reorder_permille == 0 {
            return SimDuration::ZERO;
        }
        let h = self.msg_hash(SALT_REORDER, src, dst, seq);
        if h % 1000 >= u64::from(self.reorder_permille) {
            return SimDuration::ZERO;
        }
        SimDuration(((mix64(h) as u128 * (window.0 as u128 + 1)) >> 64) as u64)
    }

    /// Analytic retransmission: when (and whether) message
    /// `(src, dst, seq)`, departing at `depart` with a modeled flight
    /// time of `flight`, actually reaches `dst` under this plan's loss
    /// and partitions.
    ///
    /// Attempt 0 departs at `depart`; attempt *i+1* departs one RTO
    /// (doubling per retry, up to [`MAX_RETRIES`]) after attempt *i*.
    /// An attempt is lost if
    /// the loss hash fires for it or the link is severed at its
    /// departure. The arrival of the successful attempt is its
    /// departure plus `flight`, so delivery is never earlier than the
    /// fault-free arrival — delays only add, preserving the PDES
    /// lookahead bound.
    pub fn delivery(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        depart: SimInstant,
        flight: SimDuration,
    ) -> Delivery {
        if !self.is_lossy() {
            return Delivery::Deliver {
                arrival: depart + flight,
                retransmits: 0,
            };
        }
        // Twice the flight time (≥ 2 ns — flight includes latency,
        // per-fragment overhead and ≥ 1 ns of wire time).
        let mut rto = SimDuration(flight.0.saturating_mul(RTO_FLIGHTS).max(RTO_FLIGHTS));
        let mut at = depart;
        let mut attempt = 0u32;
        loop {
            let lost = self.attempt_lost(src, dst, seq, attempt) || self.severed_at(at, src, dst);
            if !lost {
                return Delivery::Deliver {
                    arrival: at + flight,
                    retransmits: attempt,
                };
            }
            if attempt >= MAX_RETRIES {
                return Delivery::Dropped {
                    attempts: attempt + 1,
                };
            }
            at += rto;
            rto = SimDuration(rto.0.saturating_mul(2));
            attempt += 1;
        }
    }

    /// The shared per-message hash behind every seeded decision; each
    /// decision mixes in its own salt so loss, duplication and
    /// reordering draw independent streams.
    fn msg_hash(&self, salt: u64, src: usize, dst: usize, seq: u64) -> u64 {
        mix64(
            self.seed
                ^ salt
                ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ seq.wrapping_mul(0x1656_67B1_9E37_79F9),
        )
    }
}

const SALT_LOSS: u64 = 0xA24B_AED4_963E_E407;
const SALT_DUP: u64 = 0x9FB2_1C65_1E98_DF25;
const SALT_REORDER: u64 = 0xD6E8_FEB8_6659_FD93;
const K_ATTEMPT: u64 = 0x2545_F491_4F6C_DD1D;

/// SplitMix64 finalizer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_plan_names_every_node_it_faults() {
        let plan = FaultPlan {
            cpu_slowdown: vec![(4, 2.0)],
            panic_node: Some(PanicFault {
                node: 5,
                at_barrier: 1,
            }),
            crash_node: Some(CrashFault {
                node: 6,
                at_barrier: 1,
                reboot: SimDuration::ZERO,
            }),
            partitions: vec![Partition {
                start: SimInstant(0),
                end: SimInstant(1),
                islanders: vec![7, 8],
            }],
            ..FaultPlan::none()
        };
        assert_eq!(plan.nodes().collect::<Vec<_>>(), [4, 5, 6, 7, 8]);
        assert_eq!(FaultPlan::none().nodes().count(), 0);
    }

    #[test]
    fn inactive_by_default() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert_eq!(p.delay_for(0, 1, 7), SimDuration::ZERO);
        assert_eq!(p.cpu_factor(3), 1.0);
        assert_eq!(p.panic_barrier_for(0), None);
    }

    #[test]
    fn delays_are_pure_bounded_and_seed_sensitive() {
        let p = FaultPlan::delays(42, SimDuration::from_micros(100));
        let q = FaultPlan::delays(43, SimDuration::from_micros(100));
        let mut differs = false;
        for seq in 0..1000 {
            let d = p.delay_for(0, 1, seq);
            assert_eq!(d, p.delay_for(0, 1, seq), "pure function");
            assert!(d <= SimDuration::from_micros(100));
            differs |= d != q.delay_for(0, 1, seq);
        }
        assert!(differs, "different seeds give different jitter");
    }

    #[test]
    fn lossy_knobs_activate_plan() {
        let loss = FaultPlan {
            loss_permille: 10,
            ..FaultPlan::default()
        };
        assert!(loss.is_active() && loss.is_lossy());
        let dup = FaultPlan {
            dup_permille: 5,
            ..FaultPlan::default()
        };
        assert!(dup.is_active() && !dup.is_lossy());
        let part = FaultPlan {
            partitions: vec![Partition {
                start: SimInstant(0),
                end: SimInstant(100),
                islanders: vec![2],
            }],
            ..FaultPlan::default()
        };
        assert!(part.is_active() && part.is_lossy());
        let crash = FaultPlan {
            crash_node: Some(CrashFault {
                node: 1,
                at_barrier: 2,
                reboot: SimDuration::from_millis(50),
            }),
            ..FaultPlan::default()
        };
        assert!(crash.is_active());
        assert_eq!(crash.crash_for(1).unwrap().at_barrier, 2);
        assert_eq!(crash.crash_for(0), None);
    }

    #[test]
    fn partition_severs_only_across_the_cut_and_only_in_window() {
        let p = Partition {
            start: SimInstant(100),
            end: SimInstant(200),
            islanders: vec![0, 3],
        };
        // Across the cut, inside the window.
        assert!(p.severs(SimInstant(100), 0, 1));
        assert!(p.severs(SimInstant(199), 2, 3));
        // Within one side.
        assert!(!p.severs(SimInstant(150), 0, 3));
        assert!(!p.severs(SimInstant(150), 1, 2));
        // Outside the window (end is exclusive).
        assert!(!p.severs(SimInstant(99), 0, 1));
        assert!(!p.severs(SimInstant(200), 0, 1));
    }

    #[test]
    fn loss_hash_is_pure_and_attempt_sensitive() {
        let p = FaultPlan {
            seed: 11,
            loss_permille: 500,
            ..FaultPlan::default()
        };
        let mut attempt_differs = false;
        let mut lost = 0u32;
        for seq in 0..1000 {
            assert_eq!(
                p.attempt_lost(0, 1, seq, 0),
                p.attempt_lost(0, 1, seq, 0),
                "pure function"
            );
            lost += u32::from(p.attempt_lost(0, 1, seq, 0));
            attempt_differs |= p.attempt_lost(0, 1, seq, 0) != p.attempt_lost(0, 1, seq, 1);
        }
        // ~50% loss rate, generously bracketed.
        assert!((300..700).contains(&lost), "lost={lost}");
        assert!(attempt_differs, "retries must re-roll the loss hash");
    }

    #[test]
    fn delivery_retries_through_loss_and_counts_retransmits() {
        let p = FaultPlan {
            seed: 3,
            loss_permille: 700,
            ..FaultPlan::default()
        };
        let flight = SimDuration::from_micros(120);
        let mut retried = false;
        for seq in 0..200 {
            match p.delivery(0, 1, seq, SimInstant(1000), flight) {
                Delivery::Deliver {
                    arrival,
                    retransmits,
                } => {
                    assert!(arrival >= SimInstant(1000) + flight, "arrival only delays");
                    retried |= retransmits > 0;
                }
                Delivery::Dropped { .. } => panic!("70% loss must not exhaust 20 retries"),
            }
        }
        assert!(retried);
    }

    #[test]
    fn delivery_waits_out_a_healing_partition() {
        let p = FaultPlan {
            partitions: vec![Partition {
                start: SimInstant(0),
                end: SimInstant(1_000_000),
                islanders: vec![1],
            }],
            ..FaultPlan::default()
        };
        let flight = SimDuration::from_micros(100);
        match p.delivery(0, 1, 7, SimInstant(0), flight) {
            Delivery::Deliver {
                arrival,
                retransmits,
            } => {
                assert!(arrival >= SimInstant(1_000_000), "delivered before heal");
                assert!(retransmits > 0);
            }
            Delivery::Dropped { .. } => panic!("backoff must outlast a healing partition"),
        }
        // A link within the majority side is unaffected.
        assert_eq!(
            p.delivery(0, 2, 7, SimInstant(0), flight),
            Delivery::Deliver {
                arrival: SimInstant(0) + flight,
                retransmits: 0
            }
        );
    }

    #[test]
    fn unhealed_partition_exhausts_retries_into_a_drop() {
        let p = FaultPlan {
            partitions: vec![Partition {
                start: SimInstant(0),
                end: SimInstant(u64::MAX),
                islanders: vec![1],
            }],
            ..FaultPlan::default()
        };
        // The original attempt plus every retry of the budget.
        match p.delivery(0, 1, 0, SimInstant(0), SimDuration::from_micros(100)) {
            Delivery::Dropped { attempts } => assert_eq!(attempts, 21),
            d => panic!("expected drop, got {d:?}"),
        }
    }

    #[test]
    fn dup_and_reorder_hashes_are_pure_bounded_and_selective() {
        let p = FaultPlan {
            seed: 9,
            dup_permille: 250,
            reorder_permille: 250,
            ..FaultPlan::default()
        };
        let mut dups = 0;
        let mut reordered = 0;
        for seq in 0..1000 {
            let dup = p.duplicates(0, 1, seq);
            assert_eq!(p.duplicates(0, 1, seq), dup, "pure");
            dups += u64::from(dup);
            let d = p.reorder_delay_for(0, 1, seq, SimDuration::from_micros(50));
            assert_eq!(
                d,
                p.reorder_delay_for(0, 1, seq, SimDuration::from_micros(50))
            );
            assert!(d <= SimDuration::from_micros(50));
            reordered += u64::from(d > SimDuration::ZERO);
        }
        assert!((150..350).contains(&dups), "dups={dups}");
        assert!((100..350).contains(&reordered), "reordered={reordered}");
    }

    #[test]
    fn per_node_knobs() {
        let p = FaultPlan {
            cpu_slowdown: vec![(2, 1.5)],
            panic_node: Some(PanicFault {
                node: 1,
                at_barrier: 3,
            }),
            ..FaultPlan::default()
        };
        assert!(p.is_active());
        assert_eq!(p.cpu_factor(2), 1.5);
        assert_eq!(p.cpu_factor(0), 1.0);
        assert_eq!(p.panic_barrier_for(1), Some(3));
        assert_eq!(p.panic_barrier_for(2), None);
    }
}
