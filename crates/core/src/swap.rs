//! The swap subsystem: pluggable eviction policies and compressed
//! swap images.
//!
//! §3.3 of the paper fixes eviction at "LRU + pinning" and writes
//! verbatim images; §4.3's Table 1 then shows runs utterly dominated by
//! that disk traffic. This module makes both halves first-class:
//!
//! * [`SwapPolicy`] — victim selection behind the dynamic memory
//!   mapper. The *pinning fence* is not part of the policy: the mapper
//!   never offers an object touched by the current statement as a
//!   candidate, so no policy can evict data out from under a live view
//!   guard. Selection among unpinned candidates is the policy's whole
//!   job, and every policy yields byte-identical application results.
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
use std::collections::HashMap;

use lots_disk::rle::{CorruptImage, RleImage};

use crate::config::SwapPolicyKind;

// ----------------------------------------------------------------------
// Victim selection
// ----------------------------------------------------------------------

/// One evictable object offered to a [`SwapPolicy`]: mapped, unpinned,
/// listed in object-id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Object id.
    pub obj: u32,
    /// Statement stamp of the object's last access (the LRU key).
    pub last_access: u64,
    /// Object size in bytes.
    pub size: usize,
}

/// A victim-selection policy for the dynamic memory mapper (§3.3).
///
/// Implementations must be deterministic: selection may depend only on
/// the candidate list and on state accumulated through the `on_*`
/// callbacks, never on hash-map iteration order or host properties —
/// the deterministic scheduler (PR 3) gates byte-identical reports
/// across same-seed runs, swap traffic included.
pub trait SwapPolicy: Send {
    /// An object was mapped in or touched by an access check.
    fn on_access(&mut self, obj: u32);

    /// An object left the DMM area (evicted or invalidated); forget
    /// any per-object policy state.
    fn on_remove(&mut self, obj: u32);

    /// Choose the next victim among `candidates` (never empty, id
    /// order). Returning `None` defers to LRU order.
    fn choose(&mut self, candidates: &[Candidate]) -> Option<u32>;
}

/// Build the policy implementation for a configured kind.
pub fn build_policy(kind: SwapPolicyKind) -> Box<dyn SwapPolicy> {
    match kind {
        SwapPolicyKind::Lru => Box::new(LruPolicy),
        SwapPolicyKind::Clock => Box::new(ClockPolicy::default()),
        SwapPolicyKind::SegLru => Box::new(SegLruPolicy::default()),
    }
}

/// Least-recently-used by statement stamp (ties broken by lowest id) —
/// exactly the seed's linear-scan behavior.
#[derive(Debug, Default)]
pub struct LruPolicy;

impl SwapPolicy for LruPolicy {
    fn on_access(&mut self, _obj: u32) {}
    fn on_remove(&mut self, _obj: u32) {}

    fn choose(&mut self, candidates: &[Candidate]) -> Option<u32> {
        candidates
            .iter()
            .min_by_key(|c| (c.last_access, c.obj))
            .map(|c| c.obj)
    }
}

/// CLOCK / second-chance: a hand sweeps the candidate ring; referenced
/// objects get their bit cleared and one more revolution of grace,
/// unreferenced ones are evicted.
#[derive(Debug, Default)]
pub struct ClockPolicy {
    hand: u32,
    referenced: HashMap<u32, bool>,
}

impl SwapPolicy for ClockPolicy {
    fn on_access(&mut self, obj: u32) {
        self.referenced.insert(obj, true);
    }

    fn on_remove(&mut self, obj: u32) {
        self.referenced.remove(&obj);
    }

    fn choose(&mut self, candidates: &[Candidate]) -> Option<u32> {
        // Start the sweep at the hand (candidates are in id order); two
        // passes guarantee a pick even if every bit was set.
        let start = candidates
            .iter()
            .position(|c| c.obj >= self.hand)
            .unwrap_or(0);
        for pass in 0..2 {
            for k in 0..candidates.len() {
                let c = &candidates[(start + k) % candidates.len()];
                let referenced = self.referenced.get(&c.obj).copied().unwrap_or(false);
                if referenced && pass == 0 {
                    self.referenced.insert(c.obj, false); // second chance
                } else if !referenced || pass == 1 {
                    self.hand = c.obj + 1;
                    return Some(c.obj);
                }
            }
        }
        unreachable!("two passes over a non-empty ring always pick");
    }
}

/// Pin-aware segmented LRU: candidates re-referenced since map-in (the
/// hot barrier-interval working set that statement pinning protects
/// only *within* one statement) form a protected segment; single-touch
/// streaming candidates are evicted first, each segment in LRU order.
#[derive(Debug, Default)]
pub struct SegLruPolicy {
    touches: HashMap<u32, u32>,
}

impl SwapPolicy for SegLruPolicy {
    fn on_access(&mut self, obj: u32) {
        let t = self.touches.entry(obj).or_insert(0);
        *t = t.saturating_add(1);
    }

    fn on_remove(&mut self, obj: u32) {
        self.touches.remove(&obj);
    }

    fn choose(&mut self, candidates: &[Candidate]) -> Option<u32> {
        let hot = |c: &&Candidate| self.touches.get(&c.obj).copied().unwrap_or(0) > 1;
        candidates
            .iter()
            .filter(|c| !hot(c))
            .min_by_key(|c| (c.last_access, c.obj))
            .or_else(|| candidates.iter().min_by_key(|c| (c.last_access, c.obj)))
            .map(|c| c.obj)
    }
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

    fn cand(obj: u32, last_access: u64) -> Candidate {
        Candidate {
            obj,
            last_access,
            size: 4096,
        }
    }

    #[test]
    fn lru_picks_oldest_stamp_lowest_id() {
        let mut p = LruPolicy;
        let cands = [cand(0, 9), cand(1, 3), cand(2, 3), cand(3, 7)];
        assert_eq!(p.choose(&cands), Some(1));
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut p = ClockPolicy::default();
        for obj in 0..3 {
            p.on_access(obj);
        }
        let cands = [cand(0, 1), cand(1, 2), cand(2, 3)];
        // All referenced: the sweep clears 0,1,2 and the second pass
        // evicts 0 (hand wrapped to the start).
        assert_eq!(p.choose(&cands), Some(0));
        p.on_remove(0);
        // 1 and 2 lost their bits in the sweep; hand sits past 0.
        assert_eq!(p.choose(&cands[1..]), Some(1));
        // Re-referencing 2 protects it for one revolution... but it is
        // the only candidate left, so the second pass takes it.
        p.on_remove(1);
        p.on_access(2);
        assert_eq!(p.choose(&cands[2..]), Some(2));
    }

    #[test]
    fn clock_prefers_unreferenced() {
        let mut p = ClockPolicy::default();
        p.on_access(0);
        p.on_access(2);
        let cands = [cand(0, 1), cand(1, 5), cand(2, 2)];
        // 0 is referenced (cleared, skipped); 1 is not → victim, even
        // though its LRU stamp is the newest.
        assert_eq!(p.choose(&cands), Some(1));
    }

    #[test]
    fn seglru_protects_retouched_objects() {
        let mut p = SegLruPolicy::default();
        p.on_access(0);
        p.on_access(0); // 0 is hot (re-referenced since map-in)
        p.on_access(1); // 1 was touched once: streaming
        p.on_access(2);
        let cands = [cand(0, 1), cand(1, 2), cand(2, 3)];
        assert_eq!(p.choose(&cands), Some(1), "oldest cold candidate");
        // Only hot candidates left → fall back to LRU among them.
        p.on_access(2);
        assert_eq!(p.choose(&[cand(0, 1), cand(2, 3)]), Some(0));
        // Eviction resets the touch count: 0 is cold again.
        p.on_remove(0);
        p.on_access(0);
        assert_eq!(p.choose(&[cand(0, 9), cand(2, 3)]), Some(0));
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

    #[test]
    fn build_policy_covers_all_kinds() {
        for kind in SwapPolicyKind::ALL {
            let mut p = build_policy(kind);
            p.on_access(3);
            assert_eq!(p.choose(&[cand(3, 1)]), Some(3), "{kind:?}");
        }
    }
}
