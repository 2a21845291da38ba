//! The micro section of a traced run: direct calls into each layer's
//! public functions, fed with the workload's payload shape, one span
//! per call site on a `micro` track. These are the host costs a
//! library change to one layer should move *first*; whether that
//! shows end to end is what `host_wall_s` is for.
//!
//! Every metric is the median of three passes (one in a smoke run) over
//! a fixed amount of work; no result depends on how long a pass took.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use lots_apps::sor::{sor, SorParams};
use lots_core::alloc::DmmAllocator;
use lots_core::swap::SwapImage;
use lots_core::{
    run_cluster, AnalyzeConfig, ClusterOptions, DsmApi, DsmSlice, LotsConfig, PersistConfig,
    WordDiff,
};
use lots_disk::{BackingStore, ModeledStore, RleImage};
use lots_net::{cluster, split, Buffered, Envelope, Reassembler, WireSize, FRAGMENT_HEADER_BYTES};
use lots_persist::record::decode_record;
use lots_persist::{crc32, BarrierInput, Extent, NodeJournal, ObjMeta, PersistStore, Record};
use lots_sim::machine::p4_fedora;
use lots_sim::{DiskQueue, Scheduler, SchedulerMode, SimClock, SimDuration, SimInstant, Topology};

use crate::cases::mix;
use crate::host::median;
use crate::trace::Recorder;
use crate::workloads::cocktail;

const MB: f64 = 1_048_576.0;

/// The bytes a workload pushes through the data paths, for the micro
/// section to feed the layers with: `paper_tables` alternates a
/// constant and an incompressible 128 KB row (Test 2 / mixed rows),
/// `hot_stripe` and `churn_durable` move SplitMix64 streams, and
/// `weak_scale` moves short smooth `f64` SOR rows.
pub fn payload(workload: &str, seed: u64) -> Vec<u8> {
    const LEN: usize = 256 << 10;
    let stream = |salt: u64| {
        (0..LEN / 8)
            .flat_map(move |i| mix(seed ^ salt ^ i as u64).to_le_bytes())
            .collect::<Vec<u8>>()
    };
    match workload {
        "paper_tables" => {
            let mut p: Vec<u8> = std::iter::repeat_n(7i32.to_le_bytes(), LEN / 8)
                .flatten()
                .collect();
            p.extend_from_slice(&stream(1)[..LEN / 2]);
            p
        }
        "weak_scale" => (0..LEN / 8)
            .flat_map(|i| (((i * 31) % 101) as f64 / 10.0).to_le_bytes())
            .collect(),
        _ => stream(2),
    }
}

/// Median of `passes` runs of `pass`.
fn med(passes: usize, mut pass: impl FnMut() -> f64) -> f64 {
    median(&(0..passes).map(|_| pass()).collect::<Vec<_>>())
}

/// Seconds `work` took.
fn secs(work: impl FnOnce()) -> f64 {
    let t = Instant::now();
    work();
    t.elapsed().as_secs_f64()
}

#[derive(Debug, Clone)]
struct Hdr;

impl WireSize for Hdr {
    fn wire_size(&self) -> usize {
        16
    }
}

/// 512 trivial tasks handing the turn round-robin through the
/// library-default engine: host µs per scheduler turn with nothing
/// else going on.
fn sched_handoff_us() -> f64 {
    const TASKS: usize = 512;
    const YIELDS: u64 = 8;
    let net = p4_fedora().net;
    let sched = Scheduler::new(
        SchedulerMode::default(),
        Topology::uniform().lookahead(&net, TASKS),
    );
    let handles: Vec<_> = (0..TASKS)
        .map(|i| {
            let clock = SimClock::new();
            clock.advance(SimDuration(i as u64));
            (
                sched.register(format!("t{i}"), clock.clone(), i, false),
                clock,
            )
        })
        .collect();
    let t = Instant::now();
    std::thread::scope(|s| {
        for (h, clock) in handles {
            s.spawn(move || {
                h.attach();
                for _ in 0..YIELDS {
                    h.yield_until(clock.advance(SimDuration::from_micros(200)));
                }
                h.finish();
            });
        }
        sched.launch();
    });
    t.elapsed().as_secs_f64() * 1e6 / sched.summary().turns as f64
}

fn diskq_op_ns() -> f64 {
    const OPS: u64 = 200_000;
    let mut q = DiskQueue::new(p4_fedora().disk);
    let sizes = [128u64 << 10; 8];
    let s = secs(|| {
        for i in 0..OPS {
            let now = SimInstant(i * 1000);
            black_box(q.write_batch(now, black_box(&sizes)));
            black_box(q.read(now, 128 << 10));
        }
    });
    s * 1e9 / OPS as f64
}

fn fault_delivery_ns(seed: u64) -> f64 {
    const OPS: u64 = 1_000_000;
    let plan = cocktail(seed, true);
    let flight = SimDuration::from_micros(120);
    let s = secs(|| {
        for seq in 0..OPS {
            black_box(plan.delivery(
                (seq % 4) as usize,
                ((seq + 1) % 4) as usize,
                seq,
                SimInstant(seq * 50),
                flight,
            ));
        }
    });
    s * 1e9 / OPS as f64
}

fn split_reassemble_mb_per_s(bulk: &Bytes) -> f64 {
    const MSGS: u64 = 48;
    let max = p4_fedora().net.max_datagram - FRAGMENT_HEADER_BYTES;
    let mut re = Reassembler::new();
    let s = secs(|| {
        for seq in 0..MSGS {
            let mut whole = None;
            for frag in split(seq, bulk, max) {
                whole = re.push(1, frag);
            }
            assert_eq!(whole.expect("last fragment completes").len(), bulk.len());
        }
    });
    MSGS as f64 * bulk.len() as f64 / MB / s
}

fn buffered_heap_ns_per_op(seed: u64) -> f64 {
    const N: u64 = 4096;
    const ROUNDS: u64 = 16;
    let s = secs(|| {
        for round in 0..ROUNDS {
            let mut heap = BinaryHeap::with_capacity(N as usize);
            for seq in 0..N {
                heap.push(Buffered::new(Envelope {
                    src: (seq % 16) as usize,
                    msg: Hdr,
                    payload: Bytes::new(),
                    sent_at: SimInstant(seq),
                    arrival: SimInstant(mix(seed ^ round ^ (seq << 8)) % 1_000_000),
                    wire_bytes: 44,
                    fragments: 1,
                    seq,
                }));
            }
            while let Some(b) = heap.pop() {
                black_box(b.arrival_ns());
            }
        }
    });
    s * 1e9 / (2 * N * ROUNDS) as f64
}

/// Seconds per `NetSender::send` → `NetReceiver::try_recv` round of
/// one `payload` between two endpoints.
fn send_recv_secs(payload: &Bytes, msgs: u64) -> f64 {
    let mut eps = cluster::<Hdr>(2, p4_fedora().net);
    let (tx, _) = eps.remove(1);
    let (_, mut rx) = eps.remove(0);
    let s = secs(|| {
        for i in 0..msgs {
            tx.send(0, Hdr, payload.clone(), SimInstant(i * 1000));
            let env = rx.try_recv().expect("a sent message is receivable");
            assert_eq!(env.payload.len(), payload.len());
        }
    });
    s / msgs as f64
}

fn store_put_get_us(row: &[u8]) -> f64 {
    const CYCLES: u64 = 256;
    let store = ModeledStore::new(p4_fedora().disk);
    let s = secs(|| {
        for _ in 0..CYCLES {
            store.put(1, row).expect("put");
            black_box(store.get(1).expect("get"));
            store.remove(1).expect("remove");
        }
    });
    s * 1e6 / CYCLES as f64
}

/// A journal that has seen `barriers` barriers of four 64 KB
/// home-owned objects, plus the host seconds its appends took.
fn journal_after(barriers: u64, cfg: PersistConfig, content: &[u8]) -> (NodeJournal, f64) {
    let mut j = NodeJournal::new(0, PersistStore::new(1), cfg);
    let live: Vec<ObjMeta> = (0..4)
        .map(|id| ObjMeta {
            id,
            home: 0,
            version: 0,
            bytes: 64 << 10,
            parent: None,
        })
        .collect();
    let mut spent = 0.0;
    for seq in 1..=barriers {
        let written_home = (0..4u32)
            .map(|id| {
                // Rewrite the first quarter of the object every
                // interval, so each barrier journals a real delta.
                let mut c = content[..64 << 10].to_vec();
                for (k, w) in c.chunks_exact_mut(8).take(2048).enumerate() {
                    let fresh = mix((seq << 24) ^ ((id as u64) << 16) ^ k as u64);
                    w.copy_from_slice(&fresh.to_le_bytes());
                }
                (id, c)
            })
            .collect();
        let extents = if j.checkpoint_due(seq) {
            (0..4)
                .map(|id| Extent {
                    id,
                    addr: id as u64 * (64 << 10),
                    bytes: 64 << 10,
                    mapped: true,
                })
                .collect()
        } else {
            Vec::new()
        };
        let input = BarrierInput {
            seq,
            clock_nanos: seq * 1_000_000,
            live: live.clone(),
            names: Vec::new(),
            written_home,
            extents,
        };
        spent += secs(|| {
            black_box(j.append_barrier(input));
        });
    }
    (j, spent)
}

fn record_codec_mb_per_s(content: &[u8]) -> f64 {
    const RECORDS: u64 = 256;
    let rec = Record::Diff {
        id: 1,
        seq: 1,
        delta: content[..64 << 10].to_vec(),
    };
    let mut buf = Vec::new();
    let s = secs(|| {
        for _ in 0..RECORDS {
            buf.clear();
            let len = rec.encode_into(&mut buf);
            let (back, used) = decode_record(&buf).expect("frame decodes");
            assert_eq!(used, len);
            black_box(back);
        }
    });
    RECORDS as f64 * (64 << 10) as f64 / MB / s
}

/// A twin/current pair over `content` with every sixteenth word
/// rewritten — the sparse update a barrier interval leaves behind.
fn diff_pair(content: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let twin = content.to_vec();
    let mut current = twin.clone();
    for w in current.chunks_exact_mut(4).step_by(16) {
        w[0] = w[0].wrapping_add(1);
    }
    (twin, current)
}

fn alloc_free_ns() -> f64 {
    const ROUNDS: u64 = 64;
    let s = secs(|| {
        for _ in 0..ROUNDS {
            let mut a = DmmAllocator::new(32 << 20, 1024, 64 << 10);
            let mut offs = Vec::with_capacity(300);
            for i in 0..100 {
                offs.push(a.alloc(64 + i).expect("small"));
                offs.push(a.alloc(4096 + i * 8).expect("medium"));
                offs.push(a.alloc((64 << 10) + i * 64).expect("large"));
            }
            for o in offs {
                a.free(o);
            }
        }
    });
    s * 1e9 / (300 * ROUNDS) as f64
}

/// Host ns per checked `read()` on the fast path: one node, resident
/// object, library-default engine.
fn access_check_host_ns() -> f64 {
    const READS: u64 = 1_000_000;
    let opts = ClusterOptions::new(1, LotsConfig::small(1 << 20), p4_fedora());
    let (results, _) = run_cluster(opts, |dsm| {
        let a = dsm.alloc::<i64>(1024);
        a.write(0, 1);
        let mut sink = 0i64;
        let s = secs(|| {
            for i in 0..READS {
                sink = sink.wrapping_add(a.read((i % 1024) as usize));
            }
        });
        black_box(sink);
        s * 1e9 / READS as f64
    });
    results[0]
}

/// Host cost of the opt-in race detector on SOR-on-LOTS, in permille
/// of the same run with analysis off.
fn race_host_overhead_permille(passes: usize) -> f64 {
    let run = |analyze: AnalyzeConfig| {
        let opts =
            ClusterOptions::new(4, LotsConfig::small(16 << 20), p4_fedora()).with_analyze(analyze);
        secs(|| {
            black_box(run_cluster(opts, |dsm| {
                sor(dsm, SorParams { n: 128, iters: 8 }).checksum
            }));
        })
    };
    let off = med(passes, || run(AnalyzeConfig::off()));
    let on = med(passes, || run(AnalyzeConfig::races()));
    (on - off) / off * 1000.0
}

/// Run the whole micro section for `workload`, recording one span per
/// measured call site into `rec`; returns the per-layer host metrics
/// (plus the one count, `disk.rle_ratio_permille`). Each is the median
/// of three passes — of one in a `quick` smoke run.
pub fn run(
    workload: &str,
    seed: u64,
    quick: bool,
    rec: &Recorder<'_>,
) -> BTreeMap<&'static str, f64> {
    let passes = if quick { 1 } else { 3 };
    let content = payload(workload, seed);
    let bulk: Bytes = content
        .iter()
        .copied()
        .cycle()
        .take(1 << 20)
        .collect::<Vec<u8>>()
        .into();
    let small: Bytes = content[..64].to_vec().into();
    let row = &content[..128 << 10];
    let mut m = BTreeMap::new();
    let mut put = |name: &'static str, span: &'static str, f: &mut dyn FnMut() -> f64| {
        let _s = rec.span(span);
        m.insert(name, f());
    };

    put("sim.sched_handoff_us", "sim.sched_handoff", &mut || {
        med(passes, sched_handoff_us)
    });
    put("sim.diskq_op_ns", "sim.diskq", &mut || {
        med(passes, diskq_op_ns)
    });
    put("sim.fault_delivery_ns", "sim.fault_delivery", &mut || {
        med(passes, || fault_delivery_ns(seed))
    });

    put(
        "net.split_reassemble_mb_per_s",
        "net.split_reassemble",
        &mut || med(passes, || split_reassemble_mb_per_s(&bulk)),
    );
    put(
        "net.buffered_heap_ns_per_op",
        "net.buffered_heap",
        &mut || med(passes, || buffered_heap_ns_per_op(seed)),
    );
    put("net.send_recv_us_small", "net.send_recv_small", &mut || {
        med(passes, || send_recv_secs(&small, 20_000) * 1e6)
    });
    put(
        "net.send_recv_mb_per_s_bulk",
        "net.send_recv_bulk",
        &mut || {
            med(passes, || {
                bulk.len() as f64 / MB / send_recv_secs(&bulk, 48)
            })
        },
    );

    let image = RleImage::encode(&content);
    put("disk.rle_encode_mb_per_s", "disk.rle_encode", &mut || {
        med(passes, || {
            let s = secs(|| {
                for _ in 0..64 {
                    black_box(RleImage::encode(black_box(&content)));
                }
            });
            64.0 * content.len() as f64 / MB / s
        })
    });
    put("disk.rle_decode_mb_per_s", "disk.rle_decode", &mut || {
        med(passes, || {
            let s = secs(|| {
                for _ in 0..64 {
                    black_box(black_box(&image).decode());
                }
            });
            64.0 * content.len() as f64 / MB / s
        })
    });
    put("disk.rle_ratio_permille", "disk.rle_ratio", &mut || {
        image.stored_len() as f64 * 1000.0 / image.logical_len() as f64
    });
    put("disk.store_put_get_us", "disk.store_put_get", &mut || {
        med(passes, || store_put_get_us(row))
    });

    put(
        "persist.append_barrier_us",
        "persist.append_barrier",
        &mut || {
            med(passes, || {
                let cfg = PersistConfig::every(4).without_compaction();
                journal_after(32, cfg, &content).1 * 1e6 / 32.0
            })
        },
    );
    put("persist.compact_ms", "persist.compact", &mut || {
        med(passes, || {
            let (mut j, _) = journal_after(12, PersistConfig::every(4), &content);
            let mut out = None;
            let s = secs(|| out = j.maybe_compact());
            assert!(out.is_some(), "twelve rewritten barriers leave garbage");
            s * 1e3
        })
    });
    put(
        "persist.record_codec_mb_per_s",
        "persist.record_codec",
        &mut || med(passes, || record_codec_mb_per_s(&content)),
    );
    put("persist.crc32_mb_per_s", "persist.crc32", &mut || {
        med(passes, || {
            let s = secs(|| {
                for _ in 0..64 {
                    black_box(crc32(black_box(&content)));
                }
            });
            64.0 * content.len() as f64 / MB / s
        })
    });

    let (twin, current) = diff_pair(&content);
    let diff = WordDiff::compute(&twin, &current);
    put(
        "core.diff_compute_mb_per_s",
        "core.diff_compute",
        &mut || {
            med(passes, || {
                let s = secs(|| {
                    for _ in 0..64 {
                        black_box(WordDiff::compute(black_box(&twin), black_box(&current)));
                    }
                });
                64.0 * content.len() as f64 / MB / s
            })
        },
    );
    put("core.diff_apply_mb_per_s", "core.diff_apply", &mut || {
        med(passes, || {
            let mut target = twin.clone();
            let s = secs(|| {
                for _ in 0..64 {
                    diff.apply(black_box(&mut target));
                }
            });
            assert_eq!(target, current);
            64.0 * content.len() as f64 / MB / s
        })
    });
    put("core.diff_codec_mb_per_s", "core.diff_codec", &mut || {
        med(passes, || {
            let s = secs(|| {
                for _ in 0..256 {
                    black_box(WordDiff::decode(&black_box(&diff).encode()));
                }
            });
            256.0 * diff.wire_size() as f64 / MB / s
        })
    });
    let swap_image = SwapImage::encode(&current, Some(&twin), true);
    put(
        "core.swap_image_encode_mb_per_s",
        "core.swap_image_encode",
        &mut || {
            med(passes, || {
                let s = secs(|| {
                    for _ in 0..32 {
                        black_box(SwapImage::encode(black_box(&current), Some(&twin), true));
                    }
                });
                32.0 * content.len() as f64 / MB / s
            })
        },
    );
    put(
        "core.swap_image_decode_mb_per_s",
        "core.swap_image_decode",
        &mut || {
            med(passes, || {
                let s = secs(|| {
                    for _ in 0..32 {
                        let (data, _) = SwapImage::decode(black_box(&swap_image), content.len())
                            .expect("decodes");
                        black_box(data);
                    }
                });
                32.0 * content.len() as f64 / MB / s
            })
        },
    );
    put("core.alloc_free_ns", "core.alloc_free", &mut || {
        med(passes, alloc_free_ns)
    });
    put(
        "core.access_check_host_ns",
        "core.access_check",
        &mut || med(passes, access_check_host_ns),
    );

    put(
        "analyze.race_host_overhead_permille",
        "analyze.race_detector",
        &mut || race_host_overhead_permille(passes),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;

    #[test]
    fn payloads_are_seeded_and_shaped() {
        for w in ["paper_tables", "hot_stripe", "churn_durable", "weak_scale"] {
            assert_eq!(payload(w, 1).len(), 256 << 10, "{w}");
            assert_eq!(payload(w, 1), payload(w, 1));
        }
        assert_ne!(payload("hot_stripe", 1), payload("hot_stripe", 2));
        // The word-granular RLE stores 8 bytes per distinct word: the
        // constant half collapses, the incompressible half doubles.
        let mixed = RleImage::encode(&payload("paper_tables", 3));
        let ratio = mixed.stored_len() * 1000 / mixed.logical_len();
        assert!((950..1050).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn the_micro_section_reports_every_metric_once() {
        let now = || 0u64;
        let sink = TraceSink::new();
        let rec = sink.recorder(&now);
        let m = run("paper_tables", 7, true, &rec);
        sink.submit("micro", 0, rec);
        let spans = &sink.take()[0].spans;
        assert_eq!(spans.len(), m.len());
        for (name, v) in &m {
            // The detector's cost is a difference of two noisy walls.
            let signed = *name == "analyze.race_host_overhead_permille";
            assert!(v.is_finite() && (signed || *v > 0.0), "{name} = {v}");
            assert!(
                crate::spec::PER_LAYER.iter().any(|p| p.name == *name),
                "{name} is not in the spec"
            );
        }
    }
}
