//! UDP fragmentation and reassembly, as host operations.
//!
//! The paper's transport cannot send datagrams above 64 KB, so large
//! messages (whole objects, big diff batches) are split and the receiver
//! must hold *all* fragments before it can rebuild and decode the
//! message — identified in §5 as a performance bottleneck and a memory
//! cost. The endpoints price that analytically (the link clock counts
//! the fragments into a message's wire bytes and arrival) and deliver
//! each message whole; this module is the host mechanism itself:
//! [`split`] chunks a payload into [`Fragment`]s and a [`Reassembler`]
//! rebuilds them, refusing to deliver anything until the last fragment
//! lands.
//!
//! It is free of copies wherever it can be: [`split`] slices the
//! payload buffer, and a message whose fragments are all slices of one
//! buffer is rejoined in place. Only fragments cut from different
//! buffers are copied together.

use std::collections::HashMap;

use bytes::{Bytes, BytesMut};

use crate::message::NodeId;

/// One UDP-sized piece of a logical message.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Sender-scoped id of the logical message being reassembled.
    pub msg_seq: u64,
    /// Index of this fragment within the message.
    pub index: u32,
    /// Total fragment count for the message.
    pub total: u32,
    /// This fragment's slice of the payload.
    pub data: Bytes,
}

/// Split `payload` into fragments of at most `max_payload` bytes each.
///
/// A zero-length payload still produces one (empty) fragment, mirroring
/// a header-only datagram.
pub fn split(msg_seq: u64, payload: &Bytes, max_payload: usize) -> Vec<Fragment> {
    assert!(max_payload > 0, "fragment capacity must be positive");
    if payload.is_empty() {
        return vec![Fragment {
            msg_seq,
            index: 0,
            total: 1,
            data: Bytes::new(),
        }];
    }
    let total = payload.len().div_ceil(max_payload) as u32;
    let mut out = Vec::with_capacity(total as usize);
    for (i, start) in (0..payload.len()).step_by(max_payload).enumerate() {
        let end = (start + max_payload).min(payload.len());
        out.push(Fragment {
            msg_seq,
            index: i as u32,
            total,
            data: payload.slice(start..end),
        });
    }
    out
}

/// Reassembly state for messages arriving from many peers.
///
/// Keyed by `(src, msg_seq)`. Fragments may arrive out of order and,
/// under duplication faults (or a retransmitting transport), more than
/// once; a repeated `(key, index)` is dropped by index without
/// double-counting bytes or touching the already-buffered chunk.
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: HashMap<(NodeId, u64), Partial>,
}

#[derive(Debug)]
struct Partial {
    total: u32,
    received: u32,
    chunks: Vec<Option<Bytes>>,
}

impl Reassembler {
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Feed one fragment; returns the full payload when the message
    /// completes, `None` while fragments are still outstanding. A
    /// malformed fragment — an index outside its total, or a total that
    /// disagrees with the fragments already buffered for its message —
    /// is dropped: `None`, and the buffered state is untouched.
    pub fn push(&mut self, src: NodeId, frag: Fragment) -> Option<Bytes> {
        let key = (src, frag.msg_seq);
        let clash = self
            .partial
            .get(&key)
            .is_some_and(|p| p.total != frag.total);
        if frag.index >= frag.total || clash {
            return None;
        }
        if frag.total == 1 {
            return Some(frag.data);
        }
        let entry = self.partial.entry(key).or_insert_with(|| Partial {
            total: frag.total,
            received: 0,
            chunks: vec![None; frag.total as usize],
        });
        let slot = &mut entry.chunks[frag.index as usize];
        if slot.is_some() {
            // Duplicate in flight: ignore it — the buffered chunk and
            // the received count both stay as they are.
            return None;
        }
        *slot = Some(frag.data);
        entry.received += 1;
        if entry.received < entry.total {
            return None;
        }
        let entry = self.partial.remove(&key).expect("entry just inserted");
        // Slots are in index order whatever order (and however often)
        // the fragments arrived, so slices of one buffer are adjacent.
        let mut chunks = entry
            .chunks
            .iter()
            .map(|c| c.as_ref().expect("all fragments received"));
        let first = chunks.next().expect("total >= 2").clone();
        if let Some(whole) = chunks.try_fold(first, |acc, c| acc.try_join(c)) {
            return Some(whole);
        }
        // Fragments from different buffers: copy them together.
        let mut buf = BytesMut::with_capacity(entry.chunks.iter().flatten().map(Bytes::len).sum());
        for chunk in entry.chunks.iter().flatten() {
            buf.extend_from_slice(chunk);
        }
        Some(buf.freeze())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Bytes {
        (0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>().into()
    }

    /// Messages awaiting fragments, and the bytes buffered for them.
    fn buffered(r: &Reassembler) -> (usize, usize) {
        let bytes = r.partial.values().flat_map(|p| p.chunks.iter().flatten());
        (r.partial.len(), bytes.map(Bytes::len).sum())
    }

    #[test]
    fn small_message_is_single_fragment() {
        let p = payload(100);
        let frags = split(1, &p, 64 * 1024);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].total, 1);
        assert_eq!(frags[0].data, p);
    }

    #[test]
    fn empty_payload_still_one_fragment() {
        let frags = split(7, &Bytes::new(), 1024);
        assert_eq!(frags.len(), 1);
        assert!(frags[0].data.is_empty());
    }

    #[test]
    fn split_covers_payload_exactly() {
        let p = payload(10_000);
        let frags = split(2, &p, 4096);
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].data.len(), 4096);
        assert_eq!(frags[1].data.len(), 4096);
        assert_eq!(frags[2].data.len(), 10_000 - 8192);
        let total: usize = frags.iter().map(|f| f.data.len()).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn reassembly_in_order() {
        let p = payload(9_000);
        let mut r = Reassembler::new();
        let frags = split(3, &p, 4096);
        let n = frags.len();
        for (i, f) in frags.into_iter().enumerate() {
            let out = r.push(0, f);
            if i + 1 < n {
                assert!(out.is_none());
                assert_eq!(buffered(&r).0, 1);
            } else {
                assert_eq!(out.unwrap(), p);
            }
        }
        assert_eq!(buffered(&r), (0, 0));
    }

    #[test]
    fn reassembly_out_of_order() {
        let p = payload(12_345);
        let mut r = Reassembler::new();
        let mut frags = split(9, &p, 1000);
        frags.reverse();
        let n = frags.len();
        let mut done = None;
        for (i, f) in frags.into_iter().enumerate() {
            let out = r.push(5, f);
            if i + 1 < n {
                assert!(out.is_none());
            } else {
                done = out;
            }
        }
        assert_eq!(done.unwrap(), p);
    }

    #[test]
    fn interleaved_messages_from_different_sources() {
        let pa = payload(5_000);
        let pb = payload(6_000);
        let fa = split(1, &pa, 2048);
        let fb = split(1, &pb, 2048);
        let mut r = Reassembler::new();
        // Interleave: a0 b0 a1 b1 a2 b2.
        let mut out_a = None;
        let mut out_b = None;
        for (a, b) in fa.into_iter().zip(fb) {
            out_a = r.push(10, a);
            out_b = r.push(11, b);
        }
        assert_eq!(out_a.unwrap(), pa);
        assert_eq!(out_b.unwrap(), pb);
        assert_eq!(buffered(&r), (0, 0));
    }

    #[test]
    fn pending_bytes_tracks_buffered_data() {
        let p = payload(8192);
        let frags = split(4, &p, 4096);
        let mut r = Reassembler::new();
        r.push(0, frags[0].clone());
        assert_eq!(buffered(&r), (1, 4096));
    }

    #[test]
    fn duplicate_fragment_is_ignored_without_double_counting() {
        let p = payload(8192);
        let frags = split(4, &p, 4096);
        let mut r = Reassembler::new();
        assert!(r.push(0, frags[0].clone()).is_none());
        // The duplicate must not complete the message or grow buffers.
        assert!(r.push(0, frags[0].clone()).is_none());
        assert_eq!(buffered(&r), (1, 4096));
        // The genuinely missing fragment still completes it correctly.
        assert_eq!(r.push(0, frags[1].clone()).unwrap(), p);
        assert_eq!(buffered(&r), (0, 0));
    }

    /// Feed `frags` from node 0 and return the one completed payload.
    fn reassemble(r: &mut Reassembler, frags: Vec<Fragment>) -> Bytes {
        let mut done = frags.into_iter().filter_map(|f| r.push(0, f));
        let out = done.next().expect("message completes");
        assert!(done.next().is_none(), "message completed twice");
        out
    }

    #[test]
    fn fragments_of_one_buffer_rejoin_without_a_copy() {
        let p = payload(10_000);
        let mut r = Reassembler::new();
        // In order.
        let out = reassemble(&mut r, split(1, &p, 1000));
        assert_eq!(out, p);
        assert_eq!(out.as_ptr(), p.as_ptr(), "rejoined in place");
        // Rotated.
        let mut frags = split(2, &p, 1000);
        frags.rotate_left(3);
        let out = reassemble(&mut r, frags);
        assert_eq!(out, p);
        assert_eq!(out.as_ptr(), p.as_ptr());
        // One fragment duplicated in flight, right behind the original.
        let mut frags = split(3, &p, 1000);
        frags.insert(5, frags[4].clone());
        let out = reassemble(&mut r, frags);
        assert_eq!(out, p);
        assert_eq!(out.as_ptr(), p.as_ptr());
        assert_eq!(buffered(&r), (0, 0));
    }

    #[test]
    fn fragments_of_different_buffers_fall_back_to_the_copy() {
        let p = payload(10_000);
        let other = Bytes::copy_from_slice(&p);
        let mut frags = split(4, &p, 1000);
        // Same bytes, but fragment 6 lives in another allocation.
        frags[6].data = other.slice(6000..7000);
        let mut r = Reassembler::new();
        for f in &frags[..9] {
            assert!(r.push(0, f.clone()).is_none());
        }
        assert_eq!(buffered(&r), (1, 9000));
        let out = r
            .push(0, frags[9].clone())
            .expect("last fragment completes");
        assert_eq!(out, p);
        assert_ne!(out.as_ptr(), p.as_ptr(), "copied into a fresh buffer");
        assert_eq!(buffered(&r), (0, 0));
    }

    proptest::proptest! {
        /// Arbitrary `(msg_seq, index, total, len)` sequences never
        /// panic; a fragment with `index >= total` or a total that
        /// disagrees with its message's buffered partial changes nothing.
        #[test]
        fn malformed_fragments_never_panic_and_change_nothing(
            frags in proptest::collection::vec((0u64..3, 0u32..6, 0u32..5, 0usize..40), 0..60),
        ) {
            let mut r = Reassembler::new();
            for (msg_seq, index, total, len) in frags {
                let frag = Fragment { msg_seq, index, total, data: payload(len) };
                let before = buffered(&r);
                let clash = r.partial.get(&(1, msg_seq)).is_some_and(|p| p.total != total);
                let out = r.push(1, frag);
                if index >= total || clash {
                    proptest::prop_assert!(out.is_none());
                    proptest::prop_assert_eq!(before, buffered(&r));
                }
            }
        }
    }

    #[test]
    fn duplicated_and_reordered_fragments_reassemble_intact() {
        // Fragments delivered in reverse order, every still-incomplete
        // fragment delivered twice, must rebuild the exact payload; a
        // duplicate leaves the buffered state as it was.
        let p = payload(10_000);
        let mut frags = split(11, &p, 1000);
        frags.reverse();
        let last = frags.pop().unwrap();
        let mut doubled: Vec<_> = frags.iter().flat_map(|f| [f.clone(), f.clone()]).collect();
        doubled.push(last);
        let mut r = Reassembler::new();
        let mut out = None;
        for pair in doubled.chunks(2) {
            let before = buffered(&r);
            for (i, f) in pair.iter().enumerate() {
                if let Some(done) = r.push(3, f.clone()) {
                    assert!(out.is_none(), "message completed twice");
                    out = Some(done);
                }
                if i == 1 {
                    assert_eq!(
                        buffered(&r).1,
                        before.1 + f.data.len(),
                        "duplicate buffered"
                    );
                }
            }
        }
        assert_eq!(out.unwrap(), p);
        assert_eq!(buffered(&r), (0, 0));
    }
}
