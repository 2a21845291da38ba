//! The swap subsystem: victim selection and compressed swap images.
//!
//! §3.3 of the paper fixes eviction at "LRU + pinning" and writes
//! verbatim images; §4.3's Table 1 then shows runs utterly dominated by
//! that disk traffic. This module makes both halves first-class:
//!
//! * `victim` — victim selection behind the dynamic memory mapper:
//!   LRU, or segmented LRU that evicts single-touch objects first,
//!   over the touch history each object's record keeps. The *pinning
//!   fence* is not part of it: the mapper never
//!   offers an object touched by the current statement as a
//!   candidate, so no selection can evict data out from under a live
//!   view guard, and both selections yield byte-identical application
//!   results.
//! * [`SwapImage`] — the on-disk encoding. Compressed images hold the
//!   data section run-length-encoded (reusing [`lots_disk::rle`]) and
//!   the interval twin as an RLE'd XOR-delta against the data: a
//!   partially-dirty object's twin differs from its data only in the
//!   words written this interval, so the twin section shrinks to a
//!   diff. A fresh object's all-zero twin is elided entirely (this is
//!   what keeps §4.3 at "more than 4 GB written" rather than double).
//!   Disk time and store capacity are charged for the encoded bytes,
//!   so compression shows up in the [`lots_sim::DiskModel`] accounting.

use std::borrow::Cow;

use lots_disk::rle::{CorruptImage, RleImage};

use crate::config::SwapPolicyKind;

// ----------------------------------------------------------------------
// Victim selection
// ----------------------------------------------------------------------

/// One evictable object offered to [`victim`]: mapped, unpinned,
/// listed in object-id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Candidate {
    /// Object id.
    pub(crate) obj: u32,
    /// Statement stamp of the object's last access (the LRU key).
    pub(crate) last_access: u64,
    /// Re-touched since it was mapped in (its record's `RETOUCHED`
    /// bit).
    pub(crate) hot: bool,
}

/// Victim selection for the dynamic memory mapper (§3.3): the least
/// recently used candidate, lowest id first among equal stamps.
///
/// Under [`SwapPolicyKind::SegLru`] the candidates re-touched since
/// map-in (the hot barrier-interval working set that statement pinning
/// protects only *within* one statement) form a protected segment:
/// single-touch streaming candidates leave first, each segment in LRU
/// order. [`SwapPolicyKind::Lru`] ignores the segment.
///
/// Selection depends only on the candidate list, never on host
/// properties: the deterministic scheduler gates byte-identical reports
/// across same-seed runs, swap traffic included. Panics if there are no
/// candidates.
pub(crate) fn victim(candidates: &[Candidate], policy: SwapPolicyKind) -> u32 {
    let seg_lru = policy == SwapPolicyKind::SegLru;
    candidates
        .iter()
        .min_by_key(|c| (seg_lru && c.hot, c.last_access, c.obj))
        .expect("a non-empty candidate list")
        .obj
}

// ----------------------------------------------------------------------
// Swap-image encoding
// ----------------------------------------------------------------------

const FLAG_TWIN: u8 = 1;
const FLAG_ZERO_TWIN: u8 = 2;
const FLAG_COMPRESSED: u8 = 4;

/// The twin section recovered from a decoded image.
pub enum ImageTwin<'a> {
    /// Object had no interval twin when swapped.
    None,
    /// Twin was the all-zero pre-image of a fresh object (elided).
    Zero,
    /// Reconstructed twin bytes (borrowed from the image when the
    /// section was stored verbatim).
    Bytes(Cow<'a, [u8]>),
}

/// Encoder/decoder for swap images (see the module docs for layout).
///
/// Wire format: `[flags u8][pad ×3]` followed by the data section and
/// (if present and non-zero) the twin section. Uncompressed sections
/// are verbatim; compressed sections are [`RleImage::to_bytes`]
/// streams, with the twin encoded as `twin XOR data`. A compressed
/// section is never longer than [`RleImage::stream_bound`] of its
/// length: incompressible data costs its own size plus 9 bytes.
pub struct SwapImage;

impl SwapImage {
    /// Encode `data` (and its interval twin, if any) into the bytes
    /// handed to the backing store.
    pub fn encode(data: &[u8], twin: Option<&[u8]>, compress: bool) -> Vec<u8> {
        let zero_twin = twin.map(|t| t.iter().all(|&b| b == 0)).unwrap_or(false);
        let stored_twin = if zero_twin { None } else { twin };
        let mut flags = twin.is_some() as u8 * FLAG_TWIN;
        if zero_twin {
            flags |= FLAG_ZERO_TWIN;
        }
        if compress {
            flags |= FLAG_COMPRESSED;
        }
        // Reserved once at the worst case, so no section reallocates.
        let section = |len| match compress {
            true => RleImage::stream_bound(len),
            false => len,
        };
        let capacity = 4 + section(data.len()) + stored_twin.map_or(0, |t| section(t.len()));
        let mut img = Vec::with_capacity(capacity);
        img.push(flags);
        img.extend_from_slice(&[0u8; 3]);
        if compress {
            RleImage::write_stream(&mut img, data, None);
            if let Some(t) = stored_twin {
                RleImage::write_stream(&mut img, t, Some(data));
            }
        } else {
            img.extend_from_slice(data);
            if let Some(t) = stored_twin {
                debug_assert_eq!(t.len(), data.len());
                img.extend_from_slice(t);
            }
        }
        img
    }

    /// Decode an image produced by [`SwapImage::encode`] back into the
    /// object's `size` data bytes and its twin section. Verbatim
    /// sections are returned borrowed (zero-copy); compressed sections
    /// decode into owned buffers, each in one pass and never past
    /// `size`, whatever length the stored runs declare.
    ///
    /// Stored bytes are an *input*, not an invariant: a truncated or
    /// garbage image (torn journal tail, corrupted store) returns a
    /// deterministic [`CorruptImage`] error instead of panicking or
    /// slicing out of bounds.
    pub fn decode(img: &[u8], size: usize) -> Result<(Cow<'_, [u8]>, ImageTwin<'_>), CorruptImage> {
        let corrupt = |at: usize| CorruptImage { at };
        let flags = *img.first().ok_or(corrupt(0))?;
        let body = img.get(4..).ok_or(corrupt(img.len()))?;
        let (data, twin_body): (Cow<'_, [u8]>, &[u8]) = if flags & FLAG_COMPRESSED != 0 {
            let mut data = Vec::with_capacity(size);
            let (used, len) = RleImage::xor_stream(body, &mut data, size)?;
            if len != size {
                return Err(corrupt(4));
            }
            (Cow::Owned(data), &body[used..])
        } else {
            let data = body.get(..size).ok_or(corrupt(img.len()))?;
            (Cow::Borrowed(data), &body[size..])
        };
        let twin = if flags & FLAG_TWIN == 0 {
            ImageTwin::None
        } else if flags & FLAG_ZERO_TWIN != 0 {
            ImageTwin::Zero
        } else if flags & FLAG_COMPRESSED != 0 {
            // The section holds `twin XOR data`: decode it over a copy
            // of the data and the copy is the twin.
            let mut twin = data.to_vec();
            let (_, len) = RleImage::xor_stream(twin_body, &mut twin, size)?;
            if len != size {
                return Err(corrupt(img.len() - twin_body.len()));
            }
            ImageTwin::Bytes(Cow::Owned(twin))
        } else {
            let t = twin_body.get(..size).ok_or(corrupt(img.len()))?;
            ImageTwin::Bytes(Cow::Borrowed(t))
        };
        Ok((data, twin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(obj: u32, last_access: u64, hot: bool) -> Candidate {
        Candidate {
            obj,
            last_access,
            hot,
        }
    }

    /// Drain `cands` through [`victim`] under `kind`, as `evict_some`
    /// does within one batch: each pick leaves the candidate list.
    fn victim_order(kind: SwapPolicyKind, cands: &[Candidate]) -> Vec<u32> {
        let mut left = cands.to_vec();
        let mut order = Vec::new();
        while !left.is_empty() {
            let v = victim(&left, kind);
            left.retain(|c| c.obj != v);
            order.push(v);
        }
        order
    }

    #[test]
    fn victims_leave_in_lru_order_and_seglru_takes_cold_ones_first() {
        // Stamps tie at 2 (objects 1, 2, 4); 1, 3 and 4 were
        // re-touched since map-in, 6 was never touched.
        let cands = [
            cand(0, 5, false),
            cand(1, 2, true),
            cand(2, 2, false),
            cand(3, 9, true),
            cand(4, 2, true),
            cand(5, 7, false),
            cand(6, 1, false),
        ];
        let table = [
            // `min (last_access, obj)`, whatever the touches.
            (SwapPolicyKind::Lru, vec![6, 1, 2, 4, 0, 5, 3]),
            // The cold candidates in that order, then the hot ones.
            (SwapPolicyKind::SegLru, vec![6, 2, 0, 5, 1, 4, 3]),
        ];
        for (kind, want) in table {
            assert_eq!(victim_order(kind, &cands), want, "{kind:?}");
        }
    }

    #[test]
    fn lru_picks_oldest_stamp_lowest_id() {
        let cands = [
            cand(0, 9, false),
            cand(1, 3, true),
            cand(2, 3, false),
            cand(3, 7, false),
        ];
        assert_eq!(victim(&cands, SwapPolicyKind::Lru), 1);
    }

    #[test]
    fn seglru_protects_retouched_objects() {
        let seg_lru = SwapPolicyKind::SegLru;
        // 0 is hot (re-touched since map-in); 1 and 2 were touched
        // once: streaming.
        let cands = [cand(0, 1, true), cand(1, 2, false), cand(2, 3, false)];
        assert_eq!(victim(&cands, seg_lru), 1, "oldest cold candidate");
        // Only hot candidates left → fall back to LRU among them.
        assert_eq!(victim(&[cand(0, 1, true), cand(2, 3, true)], seg_lru), 0);
        // Eviction resets the touch history: 0 is cold again.
        assert_eq!(victim(&[cand(0, 9, false), cand(2, 3, true)], seg_lru), 0);
    }

    /// The touch history is each object's record: an object re-touched
    /// since map-in outlives an older once-touched one under segmented
    /// LRU, and is cold again once it has been evicted.
    #[test]
    fn a_retouched_object_outlives_a_once_touched_one_until_it_is_evicted() {
        use crate::cluster::RangeAccess;
        use crate::config::LotsConfig;
        use crate::node::NodeState;
        use crate::object::ObjectId;
        use lots_sim::{NodeStats, SimClock};

        // The lower half of a 64 KB area holds two 12 KB objects.
        let mut cfg = LotsConfig::small(64 * 1024);
        cfg.swap.policy = SwapPolicyKind::SegLru;
        let m = lots_sim::machine::p4_fedora();
        let store = std::sync::Arc::new(lots_disk::ModeledStore::new(m.disk));
        let mut n = NodeState::new(0, 1, cfg, m.cpu, store, SimClock::new(), NodeStats::new());
        let [a, b, c] = [(); 3].map(|_| n.register_object(12 * 1024).unwrap());
        // One statement per access: every read is one touch.
        let read = |n: &mut NodeState, id: ObjectId| {
            let access = n.begin_access_range(id, &(0..4), false, 1).unwrap();
            assert_eq!(access, RangeAccess::Ready, "{id}");
        };
        let mapped = |n: &NodeState| [a, b, c].map(|id| n.ctl(id).offset().is_some());
        assert_eq!(mapped(&n), [true, true, false]);
        // `a` is hot but older than the once-touched `b`: `b` leaves.
        for id in [a, a, b, c] {
            read(&mut n, id);
        }
        assert_eq!(mapped(&n), [true, false, true]);
        // With `c` hot too, LRU among the hot evicts `a`, then the
        // once-touched `b` it made room for.
        for id in [c, b, a] {
            read(&mut n, id);
        }
        assert_eq!(mapped(&n), [true, false, true]);
        // `a` was touched once since its eviction: cold again, it goes
        // before the older but hot `c`.
        read(&mut n, b);
        assert_eq!(mapped(&n), [false, true, true]);
    }

    #[test]
    fn image_roundtrip_all_variants() {
        let data: Vec<u8> = (0..256u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut twin = data.clone();
        twin[40..48].copy_from_slice(&[0xAA; 8]); // partially dirty
        let zeros = vec![0u8; data.len()];
        for compress in [false, true] {
            for (tw, kind) in [
                (None, "none"),
                (Some(&twin), "bytes"),
                (Some(&zeros), "zero"),
            ] {
                let img = SwapImage::encode(&data, tw.map(|t| &t[..]), compress);
                let (d, t) = SwapImage::decode(&img, data.len()).expect("valid image");
                assert_eq!(&*d, &data[..], "data ({kind}, compress={compress})");
                match (tw, t) {
                    (None, ImageTwin::None) => {}
                    (Some(z), ImageTwin::Zero) => assert!(z.iter().all(|&b| b == 0)),
                    (Some(want), ImageTwin::Bytes(got)) => {
                        assert_eq!(&*got, &want[..], "twin ({kind}, compress={compress})")
                    }
                    _ => panic!("twin shape mismatch ({kind}, compress={compress})"),
                }
            }
        }
    }

    /// The compressed image as it was built before the in-place stream
    /// writer: every section encoded, serialised and copied in turn,
    /// the twin's XOR collected first.
    fn encode_by_copying(data: &[u8], twin: Option<&[u8]>) -> Vec<u8> {
        let zero_twin = twin.is_some_and(|t| t.iter().all(|&b| b == 0));
        let mut flags = FLAG_COMPRESSED;
        if twin.is_some() {
            flags |= FLAG_TWIN;
        }
        if zero_twin {
            flags |= FLAG_ZERO_TWIN;
        }
        let mut img = vec![flags, 0, 0, 0];
        img.extend_from_slice(&RleImage::encode(data).to_bytes());
        if let Some(t) = twin.filter(|_| !zero_twin) {
            let delta: Vec<u8> = t.iter().zip(data).map(|(a, b)| a ^ b).collect();
            img.extend_from_slice(&RleImage::encode(&delta).to_bytes());
        }
        img
    }

    proptest::proptest! {
        #[test]
        fn compressed_images_are_byte_identical_to_the_old_construction(
            words in proptest::collection::vec((0u32..3, 0u8..8), 0..200),
            tail in 0usize..4,
        ) {
            // Low-entropy words so runs form; one word in eight differs
            // between data and twin; odd lengths exercise the tail.
            let data: Vec<u8> = words.iter().flat_map(|w| w.0.to_le_bytes()).chain(vec![9; tail]).collect();
            let twin: Vec<u8> = words
                .iter()
                .flat_map(|&(w, roll)| if roll == 0 { !w } else { w }.to_le_bytes())
                .chain(vec![tail as u8; tail])
                .collect();
            let zeros = vec![0u8; data.len()];
            for tw in [None, Some(&twin[..]), Some(&zeros[..])] {
                proptest::prop_assert_eq!(SwapImage::encode(&data, tw, true), encode_by_copying(&data, tw));
            }
        }
    }

    #[test]
    fn compressed_partially_dirty_image_shrinks_to_a_diff() {
        // A repetitive 64 KB object with 16 dirty words: the compressed
        // image must be orders of magnitude below 2×64 KB.
        let data: Vec<u8> = std::iter::repeat_n(7u32.to_le_bytes(), 16 * 1024)
            .flatten()
            .collect();
        let mut twin = data.clone();
        for w in 0..16 {
            twin[w * 512..w * 512 + 4].copy_from_slice(&(w as u32).to_le_bytes());
        }
        let img = SwapImage::encode(&data, Some(&twin), true);
        assert!(img.len() < 1024, "compressed image is {} bytes", img.len());
        let raw = SwapImage::encode(&data, Some(&twin), false);
        assert_eq!(raw.len(), 4 + 2 * data.len());
    }

    #[test]
    fn incompressible_image_costs_its_own_size() {
        // 128 KB of SplitMix64 output: no two adjacent words are equal,
        // so the data section is one literal record.
        let mut state = 0x2004_0920u64;
        let data: Vec<u8> = (0..16 * 1024)
            .flat_map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)).to_le_bytes()
            })
            .collect();
        assert_eq!(data.len(), 128 << 10);
        let img = SwapImage::encode(&data, None, true);
        assert!(
            img.len() <= data.len() + 16,
            "compressed image is {} bytes",
            img.len()
        );
        assert!(
            img.capacity() < 2 * data.len(),
            "reserved once, never doubled"
        );
        let (back, _) = SwapImage::decode(&img, data.len()).expect("valid image");
        assert_eq!(&*back, &data[..]);
    }

    #[test]
    fn zero_twin_is_elided_in_both_formats() {
        let data = vec![5u8; 4096];
        let zeros = vec![0u8; 4096];
        let raw = SwapImage::encode(&data, Some(&zeros), false);
        assert_eq!(raw.len(), 4 + 4096);
        let comp = SwapImage::encode(&data, Some(&zeros), true);
        assert!(comp.len() < 32, "constant data + elided twin: {comp:?}");
    }

    #[test]
    fn truncated_images_error_at_every_record_boundary() {
        let data: Vec<u8> = (0..64u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut twin = data.clone();
        twin[8..16].copy_from_slice(&[0x5A; 8]);
        for compress in [false, true] {
            for tw in [None, Some(&twin)] {
                let img = SwapImage::encode(&data, tw.map(|t| &t[..]), compress);
                assert!(
                    SwapImage::decode(&img, data.len()).is_ok(),
                    "full image decodes (compress={compress})"
                );
                for cut in 0..img.len() {
                    assert!(
                        SwapImage::decode(&img[..cut], data.len()).is_err(),
                        "prefix of {cut}/{} bytes must error, not panic \
                         (compress={compress}, twin={})",
                        img.len(),
                        tw.is_some(),
                    );
                }
            }
        }
    }

    #[test]
    fn garbage_image_bytes_error_deterministically() {
        assert!(SwapImage::decode(&[], 16).is_err());
        assert!(SwapImage::decode(&[0xFF], 16).is_err());
        // Compressed flag set over random bytes: the RLE parser rejects.
        let garbage = [FLAG_COMPRESSED, 0, 0, 0, 9, 9, 9];
        assert!(SwapImage::decode(&garbage, 16).is_err());
        // Structurally valid RLE that decodes to the wrong length.
        let wrong = SwapImage::encode(&[1u8; 8], None, true);
        assert!(SwapImage::decode(&wrong, 16).is_err());
    }

    #[test]
    fn compressed_sections_never_decode_past_the_object() {
        // A data section of one repeat of 2³¹ − 1 words: 8 GB declared
        // for a 16-byte object.
        let mut img = vec![FLAG_COMPRESSED, 0, 0, 0, 1, 0, 0, 0];
        img.extend_from_slice(&0x7FFF_FFFFu32.to_le_bytes());
        img.extend_from_slice(&[7, 0, 0, 0, 0]);
        assert!(SwapImage::decode(&img, 16).is_err());
        // The twin section of an otherwise valid image: one literal
        // declaring 2³¹ − 1 words (`u32::MAX` has the literal bit set).
        let mut img = SwapImage::encode(&[1u8; 16], None, true);
        img[0] |= FLAG_TWIN;
        img.extend_from_slice(&[1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 7, 0, 0, 0, 0]);
        assert!(SwapImage::decode(&img, 16).is_err());
        // A twin section shorter than the object is as corrupt as ever.
        let mut img = SwapImage::encode(&[1u8; 16], None, true);
        img[0] |= FLAG_TWIN;
        RleImage::write_stream(&mut img, &[0u8; 8], None);
        assert!(SwapImage::decode(&img, 16).is_err());
    }
}
