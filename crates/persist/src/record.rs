//! Journal record wire format.
//!
//! Every record is framed `[payload_len u32][crc u32][kind u8]`
//! `[payload…]`, all little-endian, with the CRC-32 (IEEE) computed
//! over the kind byte plus payload. Decoding is strict: a truncated
//! frame, a checksum mismatch, or trailing payload bytes all yield
//! `None` — a torn append therefore cuts the readable log exactly at
//! the last intact record, never mid-record.
//!
//! Object content never appears raw: interval diffs carry the XOR of
//! the new master against the previously journaled content, and both
//! diffs and compacted images are RLE-compressed with the same
//! word-granular code the swap store uses ([`lots_disk::RleImage`]):
//! `[records u32]`, then per record a repeat `[n][word]` or a literal
//! `[0x8000_0000 | n][n words]`, then `[tail_len u8][tail…]`. A
//! repetitive delta shrinks to a few repeats, and an object rewritten
//! with incompressible words journals at its own size plus 9 bytes.
//!
//! **Digests.** A seal's [`state_digest`] is the order-fixed FNV-1a
//! fold over the directory, the name table and `(id, length, content
//! digest)` per journaled master; a [`Shadow`] caches that content
//! digest beside the bytes and its only `&mut` accessor drops it, so a
//! seal hashes what the interval wrote and nothing else.
//!
//! **CRC at memory speed.** [`crc32`] is slice-by-16 (sixteen table
//! lookups fold sixteen bytes into the register), run as four
//! independent lanes so that the lookups of one step do not wait for
//! the previous step's register: each 1 KB block is four 256-byte
//! lanes, lane 0 continuing from the running register and lanes 1–3
//! starting from 0, and the block's register is
//! `S₃(c₀) ^ S₂(c₁) ^ S₁(c₂) ^ c₃`. `Sₘ` carries a register through
//! `m × 256` zero bytes; CRC is linear in the register, so each `Sₘ` is
//! four 256-entry tables, one per register byte, built at compile time.
//! Bytes past the last whole block take the single-register loop.
//!
//! **One check, one scan.** Every log byte is CRC-checked once and
//! scanned once per operation: `decode_view` is the only reader and
//! leaves payloads where they lie, `encode_rle_into` frames a diff in
//! the scan that computes it.
//!
//! **No format version.** A [`PersistStore`](crate::PersistStore) never
//! outlives its process, so a log is only read by the build that wrote
//! it and a sealed value's definition may change between builds. The
//! RLE stream changed that way too (literal records are newer than the
//! repeats), and needs no version for the same reason; its older form
//! still decodes, as a stream of repeats.

use std::collections::{BTreeMap, BTreeSet};

use lots_disk::RleImage;

/// Durable metadata for one live object (or page, under JIAJIA), as
/// recorded in [`Record::Alloc`] and checkpoint manifests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjMeta {
    /// Object id (page index under JIAJIA).
    pub id: u32,
    /// Home node at the time of the record.
    pub home: u32,
    /// Version as of the recording barrier (the barrier sequence at
    /// which the home last published). Carried for manifests' version
    /// vectors; excluded from state digests because each node's copy
    /// version evolves locally and is not derivable from the record
    /// stream alone.
    pub version: u64,
    /// Logical size in bytes.
    pub bytes: u64,
    /// `Some((parent_id, segment_index))` for a striped segment child.
    pub parent: Option<(u32, u32)>,
}

/// Durable name-table entry ([`Record::NameCommit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedMeta {
    /// The committed global name.
    pub name: String,
    /// Object id the name is bound to.
    pub id: u32,
    /// Element size of the named allocation.
    pub elem_size: u32,
    /// Element count of the named allocation.
    pub len: u64,
}

/// One DMM extent in a checkpoint manifest's extent map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extent {
    /// Object occupying the extent.
    pub id: u32,
    /// Arena offset (or swap key for on-disk objects).
    pub addr: u64,
    /// Extent length in bytes.
    pub bytes: u64,
    /// `true` if resident in the DMM arena, `false` if swapped out.
    pub mapped: bool,
}

/// Payload of a [`Record::Manifest`]: everything a cold restore needs
/// besides the log prefix the manifest pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestBody {
    /// Barrier sequence this manifest checkpoints.
    pub seq: u64,
    /// State digest at `seq`; must equal the matching seal's digest.
    pub digest: u64,
    /// Full replicated directory (id order).
    pub dir: Vec<ObjMeta>,
    /// Full name table (name order).
    pub names: Vec<NamedMeta>,
    /// This node's DMM extent map.
    pub extents: Vec<Extent>,
}

impl ManifestBody {
    /// Ids of the objects this manifest's directory homes at `node`,
    /// built once per manifest (a decoded `dir` need not be sorted).
    pub(crate) fn homed_at(&self, node: u32) -> BTreeSet<u32> {
        let mine = self.dir.iter().filter(|m| m.home == node);
        mine.map(|m| m.id).collect()
    }
}

/// One journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// An object entered the directory (also emitted on slot reuse,
    /// after the matching [`Record::Free`]).
    Alloc(ObjMeta),
    /// An object left the directory at a barrier.
    Free {
        /// The reclaimed object id.
        id: u32,
    },
    /// A global name was committed (new binding or rebinding).
    NameCommit(NamedMeta),
    /// A name was unbound.
    NameDrop {
        /// The dropped name.
        name: String,
    },
    /// An object's home moved.
    HomeMigrate {
        /// The migrating object.
        id: u32,
        /// Its new home node.
        home: u32,
    },
    /// One published interval diff for a home-owned object: the RLE
    /// byte stream of (new content XOR previously journaled content),
    /// framed as the module docs lay out and never longer than
    /// [`RleImage::stream_bound`] of the object's size. No format
    /// version marks it: a log never outlives the build that wrote it.
    Diff {
        /// The object written this interval.
        id: u32,
        /// Barrier sequence that published the diff.
        seq: u64,
        /// `RleImage::to_bytes` of the XOR delta.
        delta: Vec<u8>,
    },
    /// Barrier seal: closes the records of one barrier interval.
    Seal {
        /// Barrier sequence.
        seq: u64,
        /// The node's virtual clock (nanoseconds) at the barrier.
        clock: u64,
        /// Digest of the node's durable state at `seq` (see
        /// [`state_digest`]). Its definition is this build's: sealed
        /// values carry no format version because no log outlives the
        /// process that wrote it.
        digest: u64,
    },
    /// Checkpoint manifest (follows the seal of the same barrier).
    Manifest(Box<ManifestBody>),
    /// A compacted object image: consolidated content at barrier
    /// `upto_seq`, replacing every earlier diff of the object.
    Compacted {
        /// The consolidated object.
        id: u32,
        /// Barrier sequence the image is current at.
        upto_seq: u64,
        /// `RleImage::to_bytes` of the full content.
        image: Vec<u8>,
    },
    /// Marks that every diff at or below `upto_seq` has been squashed,
    /// even when the run left no consolidated images (no live
    /// home-owned masters at the horizon). Restore must not try to
    /// re-verify seals at or below the newest horizon.
    CompactionHorizon {
        /// Newest barrier the compactor squashed up to.
        upto_seq: u64,
    },
}

const KIND_ALLOC: u8 = 1;
const KIND_FREE: u8 = 2;
const KIND_NAME_COMMIT: u8 = 3;
const KIND_NAME_DROP: u8 = 4;
const KIND_HOME_MIGRATE: u8 = 5;
const KIND_DIFF: u8 = 6;
const KIND_SEAL: u8 = 7;
const KIND_MANIFEST: u8 = 8;
const KIND_COMPACTED: u8 = 9;
const KIND_COMPACTION_HORIZON: u8 = 10;

/// Slice-by-16 tables for the reflected IEEE polynomial: `[0]` is the
/// classic byte-at-a-time table, and `[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so sixteen input bytes fold in one step.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Bytes per lane: a block of `4 × LANE` bytes is checksummed as four
/// independent lanes. 256 and 512 measured alike on 4 KB to 8 MB
/// frames; 256 also speeds up frames of 1–2 KB.
const LANE: usize = 256;

/// Byte `k` of a register through one of these tables, XORed over the
/// four bytes, gives the register after a fixed number of zero bytes.
type Shift = [[u32; 256]; 4];

/// The register after `table`'s zero bytes, from `c`.
const fn shift(table: &Shift, c: u32) -> u32 {
    table[0][(c & 0xFF) as usize]
        ^ table[1][(c >> 8 & 0xFF) as usize]
        ^ table[2][(c >> 16 & 0xFF) as usize]
        ^ table[3][(c >> 24) as usize]
}

/// `[m - 1]` takes a register through `m × LANE` zero bytes: feeding
/// zeros is linear in the register, so each byte of it is one lookup.
/// The first is built a zero byte at a time from a register holding one
/// byte, each next one as the first applied to the one before.
const fn crc32_shift_tables() -> [Shift; 3] {
    let t = crc32_tables();
    let mut shifts = [[[0u32; 256]; 4]; 3];
    let mut m = 0;
    while m < 3 {
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                shifts[m][k][b] = if m == 0 {
                    let mut c = (b as u32) << (8 * k);
                    let mut n = 0;
                    while n < LANE {
                        c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                        n += 1;
                    }
                    c
                } else {
                    shift(&shifts[0], shifts[m - 1][k][b])
                };
                b += 1;
            }
            k += 1;
        }
        m += 1;
    }
    shifts
}

static CRC32_SHIFTS: [Shift; 3] = crc32_shift_tables();

/// Fold sixteen bytes into the register `c` (slice-by-16).
#[inline(always)]
fn crc32_step(c: u32, chunk: &[u8; 16]) -> u32 {
    let t = &CRC32_TABLES;
    // The running CRC folds into the first four bytes; byte `i` then
    // has `15 - i` bytes after it in the step.
    let head = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    let mut c = 0;
    for (i, b) in head.to_le_bytes().iter().chain(&chunk[4..]).enumerate() {
        c ^= t[15 - i][*b as usize];
    }
    c
}

/// CRC-32 (IEEE 802.3 polynomial) over `bytes`, four lanes at a time.
///
/// One slice-by-16 register is a single dependency chain, so each
/// `4 × LANE`-byte block runs four: lane 0 continues from the running
/// register, lanes 1–3 start from 0, and at the block's end they fold
/// as `S₃(c₀) ^ S₂(c₁) ^ S₁(c₂) ^ c₃`, `Sₘ` the shift through
/// `m × LANE` zero bytes (CRC is linear, so a lane started from 0 is
/// the part of the register its bytes contribute). Bytes past the last
/// whole block take the slice-by-16 loop, then one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let s = &CRC32_SHIFTS;
    let mut c = 0xFFFF_FFFFu32;
    let (blocks, rest) = bytes.as_chunks::<{ 4 * LANE }>();
    for block in blocks {
        let ([l0, l1, l2, l3], _) = block.as_chunks::<LANE>() else {
            unreachable!("a block is four lanes")
        };
        let lanes = l0.as_chunks::<16>().0.iter().zip(l1.as_chunks::<16>().0);
        let lanes = lanes.zip(l2.as_chunks::<16>().0.iter().zip(l3.as_chunks::<16>().0));
        let mut r = [c, 0, 0, 0];
        for ((a, b), (d, e)) in lanes {
            r = [
                crc32_step(r[0], a),
                crc32_step(r[1], b),
                crc32_step(r[2], d),
                crc32_step(r[3], e),
            ];
        }
        c = shift(&s[2], r[0]) ^ shift(&s[1], r[1]) ^ shift(&s[0], r[2]) ^ r[3];
    }
    let (chunks, tail) = rest.as_chunks::<16>();
    for chunk in chunks {
        c = crc32_step(c, chunk);
    }
    for &b in tail {
        c = CRC32_TABLES[0][(c as u8 ^ b) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a 64-bit streaming hash (state digests).
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold one little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Fold one little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// The digest of one object's bytes, eight per step: FNV-1a's
/// xor-multiply over little-endian `u64` words with a rotate between
/// steps (so a high bit reaches the low ones), the last word
/// zero-padded — [`state_digest`] folds the length beside it. Each
/// step is a bijection of the state and of the word, so changing any
/// one word always changes the result.
fn content_digest(bytes: &[u8]) -> u64 {
    let step = |h: u64, w: [u8; 8]| {
        (h.rotate_left(23) ^ u64::from_le_bytes(w)).wrapping_mul(0x100_0000_01b3)
    };
    let (words, tail) = bytes.as_chunks::<8>();
    let h = words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| step(h, *w));
    if tail.is_empty() {
        return h;
    }
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    step(h, last)
}

/// One object's journaled bytes together with the digest of them,
/// cached until the bytes are borrowed mutably: [`Shadow::bytes_mut`]
/// is the only way to change them and it drops the cache, so a stale
/// digest cannot be sealed.
#[derive(Debug, Clone, Default)]
pub struct Shadow {
    bytes: Vec<u8>,
    digest: Option<u64>,
}

impl Shadow {
    /// Adopt `bytes`; the digest is computed when first asked for.
    pub fn new(bytes: Vec<u8>) -> Shadow {
        Shadow {
            bytes,
            digest: None,
        }
    }

    /// The object's bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The object's bytes, to be written: forgets the cached digest.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        self.digest = None;
        &mut self.bytes
    }

    /// The content digest — cached, or computed now. Debug builds
    /// recompute a cached one and assert it still matches.
    pub fn digest(&mut self) -> u64 {
        debug_assert!(self.digest.is_none_or(|d| d == content_digest(&self.bytes)));
        *self
            .digest
            .get_or_insert_with(|| content_digest(&self.bytes))
    }
}

/// Digest of one node's durable state at barrier `seq`: directory
/// membership (id, home, size, striping parent — versions excluded,
/// see [`ObjMeta::version`]), the name table, and `(id, length,
/// content digest)` of every home-owned master this node has
/// journaled — an object nobody wrote since the last seal contributes
/// its cached [`Shadow::digest`], not its bytes. Sealed into every
/// [`Record::Seal`]; a restore fold recomputes it from the records
/// alone, so any divergence between journal and replay is caught at
/// the exact barrier it appears.
pub fn state_digest(
    seq: u64,
    dir: &BTreeMap<u32, ObjMeta>,
    names: &BTreeMap<String, NamedMeta>,
    shadows: &mut BTreeMap<u32, Shadow>,
) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(seq);
    h.write_u64(dir.len() as u64);
    for (id, m) in dir {
        h.write_u32(*id);
        h.write_u32(m.home);
        h.write_u64(m.bytes);
        match m.parent {
            Some((p, s)) => {
                h.write(&[1]);
                h.write_u32(p);
                h.write_u32(s);
            }
            None => h.write(&[0]),
        }
    }
    h.write_u64(names.len() as u64);
    for (name, nm) in names {
        h.write_u64(name.len() as u64);
        h.write(name.as_bytes());
        h.write_u32(nm.id);
        h.write_u32(nm.elem_size);
        h.write_u64(nm.len);
    }
    h.write_u64(shadows.len() as u64);
    for (id, shadow) in shadows {
        h.write_u32(*id);
        h.write_u64(shadow.bytes().len() as u64);
        h.write_u64(shadow.digest());
    }
    h.finish()
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_meta(out: &mut Vec<u8>, m: &ObjMeta) {
    put_u32(out, m.id);
    put_u32(out, m.home);
    put_u64(out, m.version);
    put_u64(out, m.bytes);
    match m.parent {
        Some((p, s)) => {
            out.push(1);
            put_u32(out, p);
            put_u32(out, s);
        }
        None => out.push(0),
    }
}

fn put_name(out: &mut Vec<u8>, nm: &NamedMeta) {
    put_u32(out, nm.name.len() as u32);
    out.extend_from_slice(nm.name.as_bytes());
    put_u32(out, nm.id);
    put_u32(out, nm.elem_size);
    put_u64(out, nm.len);
}

fn put_extent(out: &mut Vec<u8>, e: &Extent) {
    put_u32(out, e.id);
    put_u64(out, e.addr);
    put_u64(out, e.bytes);
    out.push(e.mapped as u8);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Frame one record where it lands: the header, `kind`, whatever
/// `payload` appends, then the payload length and the CRC patched in.
/// Returns the frame length.
fn frame(out: &mut Vec<u8>, kind: u8, payload: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    out.push(kind);
    payload(out);
    let payload_len = (out.len() - start - 9) as u32;
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out[start + 8..]);
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    out.len() - start
}

/// Bytes of a diff or image frame besides its RLE stream: the frame
/// header, the id, the sequence and the stream's length.
pub(crate) const RLE_FRAME: usize = 9 + 4 + 8 + 4;

/// Append to `out` the frame of `Record::Diff { id, seq, delta }` with
/// `delta` the RLE stream of `data XOR mask` (of `data` itself without
/// a mask) — or, with `compacted`, of `Record::Compacted { id,
/// upto_seq: seq, image }` — scanning `data` once and writing the
/// stream straight into the frame, with room for the longest such frame
/// reserved first. Returns the frame length.
pub(crate) fn encode_rle_into(
    out: &mut Vec<u8>,
    compacted: bool,
    id: u32,
    seq: u64,
    data: &[u8],
    mask: Option<&[u8]>,
) -> usize {
    let kind = if compacted { KIND_COMPACTED } else { KIND_DIFF };
    out.reserve(RLE_FRAME + RleImage::stream_bound(data.len()));
    frame(out, kind, |out| {
        put_u32(out, id);
        put_u64(out, seq);
        let len_at = out.len();
        put_u32(out, 0);
        RleImage::write_stream(out, data, mask);
        let len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    })
}

/// Strict little-endian payload reader.
struct Rd<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Rd<'a> {
        Rd { b, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.b.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn meta(&mut self) -> Option<ObjMeta> {
        let id = self.u32()?;
        let home = self.u32()?;
        let version = self.u64()?;
        let bytes = self.u64()?;
        let parent = match self.u8()? {
            0 => None,
            1 => Some((self.u32()?, self.u32()?)),
            _ => return None,
        };
        Some(ObjMeta {
            id,
            home,
            version,
            bytes,
            parent,
        })
    }

    fn name(&mut self) -> Option<NamedMeta> {
        let name = String::from_utf8(self.bytes()?.to_vec()).ok()?;
        Some(NamedMeta {
            name,
            id: self.u32()?,
            elem_size: self.u32()?,
            len: self.u64()?,
        })
    }

    fn extent(&mut self) -> Option<Extent> {
        Some(Extent {
            id: self.u32()?,
            addr: self.u64()?,
            bytes: self.u64()?,
            mapped: match self.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            },
        })
    }

    fn done(&self) -> bool {
        self.at == self.b.len()
    }
}

impl Record {
    fn kind(&self) -> u8 {
        match self {
            Record::Alloc(_) => KIND_ALLOC,
            Record::Free { .. } => KIND_FREE,
            Record::NameCommit(_) => KIND_NAME_COMMIT,
            Record::NameDrop { .. } => KIND_NAME_DROP,
            Record::HomeMigrate { .. } => KIND_HOME_MIGRATE,
            Record::Diff { .. } => KIND_DIFF,
            Record::Seal { .. } => KIND_SEAL,
            Record::Manifest(_) => KIND_MANIFEST,
            Record::Compacted { .. } => KIND_COMPACTED,
            Record::CompactionHorizon { .. } => KIND_COMPACTION_HORIZON,
        }
    }

    /// Append the framed record to `out`; returns the frame length in
    /// bytes (what the journal books on the disk device).
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        frame(out, self.kind(), |out| match self {
            Record::Alloc(m) => put_meta(out, m),
            Record::Free { id } => put_u32(out, *id),
            Record::NameCommit(nm) => put_name(out, nm),
            Record::NameDrop { name } => put_bytes(out, name.as_bytes()),
            Record::HomeMigrate { id, home } => {
                put_u32(out, *id);
                put_u32(out, *home);
            }
            Record::Diff { id, seq, delta } => {
                put_u32(out, *id);
                put_u64(out, *seq);
                put_bytes(out, delta);
            }
            Record::Seal { seq, clock, digest } => {
                put_u64(out, *seq);
                put_u64(out, *clock);
                put_u64(out, *digest);
            }
            Record::Manifest(b) => {
                put_u64(out, b.seq);
                put_u64(out, b.digest);
                put_u32(out, b.dir.len() as u32);
                for m in &b.dir {
                    put_meta(out, m);
                }
                put_u32(out, b.names.len() as u32);
                for nm in &b.names {
                    put_name(out, nm);
                }
                put_u32(out, b.extents.len() as u32);
                for e in &b.extents {
                    put_extent(out, e);
                }
            }
            Record::Compacted {
                id,
                upto_seq,
                image,
            } => {
                put_u32(out, *id);
                put_u64(out, *upto_seq);
                put_bytes(out, image);
            }
            Record::CompactionHorizon { upto_seq } => put_u64(out, *upto_seq),
        })
    }
}

/// A decoded record whose diff or image payload still lies in the
/// log: `rec`'s own `delta`/`image` is left empty and `payload`
/// borrows the bytes (empty for every other kind). What compaction
/// and restore fold, so that a payload is read in place, not copied.
pub(crate) struct View<'a> {
    pub rec: Record,
    pub payload: &'a [u8],
}

/// Decode the record at the head of `bytes`. Returns the record and
/// the frame length consumed, or `None` on a truncated frame, checksum
/// mismatch, or malformed payload — the caller treats that point as
/// the torn end of the log.
pub fn decode_record(bytes: &[u8]) -> Option<(Record, usize)> {
    let (View { mut rec, payload }, used) = decode_view(bytes)?;
    if let Record::Diff { delta: owned, .. } | Record::Compacted { image: owned, .. } = &mut rec {
        *owned = payload.to_vec();
    }
    Some((rec, used))
}

/// [`decode_record`] without the payload copy. This is the one place a
/// log byte is checksummed: every reader goes through it once.
pub(crate) fn decode_view(bytes: &[u8]) -> Option<(View<'_>, usize)> {
    let len = u32::from_le_bytes(*bytes.first_chunk::<4>()?) as usize;
    let crc = u32::from_le_bytes(bytes.get(4..8)?.try_into().ok()?);
    let end = 9usize.checked_add(len)?;
    let frame = bytes.get(8..end)?;
    if crc32(frame) != crc {
        return None;
    }
    let mut rd = Rd::new(&frame[1..]);
    let mut payload: &[u8] = &[];
    let rec = match frame[0] {
        KIND_ALLOC => Record::Alloc(rd.meta()?),
        KIND_FREE => Record::Free { id: rd.u32()? },
        KIND_NAME_COMMIT => Record::NameCommit(rd.name()?),
        KIND_NAME_DROP => Record::NameDrop {
            name: String::from_utf8(rd.bytes()?.to_vec()).ok()?,
        },
        KIND_HOME_MIGRATE => Record::HomeMigrate {
            id: rd.u32()?,
            home: rd.u32()?,
        },
        KIND_DIFF => {
            let (id, seq) = (rd.u32()?, rd.u64()?);
            payload = rd.bytes()?;
            let delta = Vec::new();
            Record::Diff { id, seq, delta }
        }
        KIND_SEAL => Record::Seal {
            seq: rd.u64()?,
            clock: rd.u64()?,
            digest: rd.u64()?,
        },
        KIND_MANIFEST => {
            let seq = rd.u64()?;
            let digest = rd.u64()?;
            let n_dir = rd.u32()? as usize;
            let mut dir = Vec::with_capacity(n_dir.min(4096));
            for _ in 0..n_dir {
                dir.push(rd.meta()?);
            }
            let n_names = rd.u32()? as usize;
            let mut names = Vec::with_capacity(n_names.min(4096));
            for _ in 0..n_names {
                names.push(rd.name()?);
            }
            let n_ext = rd.u32()? as usize;
            let mut extents = Vec::with_capacity(n_ext.min(4096));
            for _ in 0..n_ext {
                extents.push(rd.extent()?);
            }
            Record::Manifest(Box::new(ManifestBody {
                seq,
                digest,
                dir,
                names,
                extents,
            }))
        }
        KIND_COMPACTED => {
            let (id, upto_seq) = (rd.u32()?, rd.u64()?);
            payload = rd.bytes()?;
            let image = Vec::new();
            Record::Compacted {
                id,
                upto_seq,
                image,
            }
        }
        KIND_COMPACTION_HORIZON => Record::CompactionHorizon {
            upto_seq: rd.u64()?,
        },
        _ => return None,
    };
    if !rd.done() {
        return None;
    }
    Some((View { rec, payload }, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::Alloc(ObjMeta {
                id: 7,
                home: 2,
                version: 3,
                bytes: 256,
                parent: Some((5, 1)),
            }),
            Record::Free { id: 7 },
            Record::NameCommit(NamedMeta {
                name: "grid".into(),
                id: 9,
                elem_size: 8,
                len: 1024,
            }),
            Record::NameDrop {
                name: "grid".into(),
            },
            Record::HomeMigrate { id: 4, home: 3 },
            Record::Diff {
                id: 4,
                seq: 11,
                delta: vec![1, 2, 3, 4, 5],
            },
            Record::Seal {
                seq: 11,
                clock: 123_456_789,
                digest: 0xDEAD_BEEF,
            },
            Record::Manifest(Box::new(ManifestBody {
                seq: 11,
                digest: 0xDEAD_BEEF,
                dir: vec![ObjMeta {
                    id: 4,
                    home: 3,
                    version: 11,
                    bytes: 64,
                    parent: None,
                }],
                names: vec![NamedMeta {
                    name: "x".into(),
                    id: 4,
                    elem_size: 4,
                    len: 16,
                }],
                extents: vec![Extent {
                    id: 4,
                    addr: 4096,
                    bytes: 64,
                    mapped: true,
                }],
            })),
            Record::Compacted {
                id: 4,
                upto_seq: 11,
                image: vec![9; 17],
            },
            Record::CompactionHorizon { upto_seq: 11 },
        ]
    }

    #[test]
    fn every_kind_roundtrips_and_concatenates() {
        let recs = samples();
        let mut stream = Vec::new();
        let mut sizes = Vec::new();
        for r in &recs {
            sizes.push(r.encode_into(&mut stream));
        }
        let mut at = 0;
        for (r, sz) in recs.iter().zip(&sizes) {
            let (back, used) = decode_record(&stream[at..]).expect("valid record");
            assert_eq!(&back, r);
            assert_eq!(used, *sz);
            at += used;
        }
        assert_eq!(at, stream.len());
    }

    #[test]
    fn truncation_at_every_byte_is_detected() {
        let mut stream = Vec::new();
        for r in samples() {
            stream.clear();
            r.encode_into(&mut stream);
            for cut in 0..stream.len() {
                assert!(
                    decode_record(&stream[..cut]).is_none(),
                    "prefix {cut}/{} of {r:?} must not decode",
                    stream.len()
                );
            }
        }
    }

    #[test]
    fn bitflip_anywhere_is_detected() {
        let mut stream = Vec::new();
        Record::Seal {
            seq: 5,
            clock: 99,
            digest: 42,
        }
        .encode_into(&mut stream);
        for i in 0..stream.len() {
            let mut bad = stream.clone();
            bad[i] ^= 0x10;
            if let Some((rec, used)) = decode_record(&bad) {
                // A flip in the length field could in principle frame a
                // different-but-valid record; it must at least not
                // reproduce the original bytes.
                let mut re = Vec::new();
                rec.encode_into(&mut re);
                assert_ne!((re, used), (stream.clone(), stream.len()));
            }
        }
    }

    #[test]
    fn crc_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time table loop over a raw register.
    fn register_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    /// The byte-at-a-time table loop `crc32` used to be.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        register_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// Bytes of one four-lane block.
    const BLOCK: usize = 4 * LANE;

    #[test]
    fn crc_matches_the_bytewise_loop_at_every_short_length() {
        // Every length up to two whole blocks, then every tail of the
        // slice-by-16 and bytewise loops after them.
        let data: Vec<u8> = (0..2 * BLOCK as u32 + 17)
            .map(|i| (i * 37 + 11) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn each_shift_table_feeds_its_zero_bytes() {
        // Every byte value in every register byte, through `m` lanes of
        // zero bytes one byte at a time.
        let zeros = [0u8; 3 * LANE];
        for (m, table) in CRC32_SHIFTS.iter().enumerate() {
            for k in 0..4 {
                for b in 0..256u32 {
                    let c = b << (8 * k);
                    assert_eq!(
                        shift(table, c),
                        register_bytewise(c, &zeros[..(m + 1) * LANE]),
                        "{} lanes, register byte {k} = {b:#04x}",
                        m + 1
                    );
                }
            }
        }
    }

    proptest! {
        /// Any length up to three blocks and a tail, at any alignment.
        #[test]
        fn crc_matches_the_bytewise_loop(
            data in proptest::collection::vec(any::<u8>(), 3 * BLOCK + 64 + 64),
            start in 0usize..64,
            len in 0usize..=3 * BLOCK + 64,
        ) {
            let bytes = &data[start..start + len];
            prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    proptest! {
        /// Hostile log bytes: any record kind with one bit flipped, cut
        /// anywhere, or both; and bytes that were never a record.
        /// `decode_record` returns a value or `None` — this test fails
        /// by panicking (index, overflow, allocation) or not at all.
        #[test]
        fn decode_never_panics(
            which in 0usize..10,
            flip in any::<usize>(),
            cut in any::<usize>(),
            noise in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            let mut frame = Vec::new();
            samples()[which].encode_into(&mut frame);
            let whole = frame.len();
            frame[flip % whole] ^= 1 << (flip % 8);
            if let Some((rec, used)) = decode_record(&frame) {
                // The CRC covers kind and payload, not the length word.
                prop_assert!(flip % whole < 4 && used != whole, "{rec:?} survived a flip");
            }
            prop_assert!(decode_record(&frame[..cut % whole]).is_none());
            if let Some((_, used)) = decode_record(&noise) {
                prop_assert!(used <= noise.len());
            }
        }

        /// An RLE payload is opaque to the frame: a header of
        /// `u32::MAX` (a literal of 2³¹ − 1 words, none of them there)
        /// decodes as a record (the fold is what refuses it).
        #[test]
        fn absurd_run_counts_are_just_payload(word in any::<u32>(), compacted in any::<bool>()) {
            let mut rle = 1u32.to_le_bytes().to_vec();
            rle.extend_from_slice(&u32::MAX.to_le_bytes());
            rle.extend_from_slice(&word.to_le_bytes());
            rle.push(0);
            let rec = if compacted {
                Record::Compacted { id: 1, upto_seq: 2, image: rle }
            } else {
                Record::Diff { id: 1, seq: 2, delta: rle }
            };
            let mut frame = Vec::new();
            rec.encode_into(&mut frame);
            prop_assert_eq!(decode_record(&frame), Some((rec, frame.len())));
        }

        /// The in-place diff/image writer is byte-identical to building
        /// the payload first and framing a `Record` around it.
        #[test]
        fn rle_frames_written_in_place_match_the_record_encoding(
            data in proptest::collection::vec(0u8..3, 0..300),
            salt in any::<u8>(),
            compacted in any::<bool>(),
        ) {
            let mask: Vec<u8> = data.iter().enumerate().map(|(i, b)| if i % 5 < 3 { *b } else { b ^ salt }).collect();
            let mask = (!compacted).then_some(&mask[..]);
            let plain: Vec<u8> = match mask {
                Some(m) => data.iter().zip(m).map(|(a, b)| a ^ b).collect(),
                None => data.clone(),
            };
            let payload = RleImage::encode(&plain).to_bytes();
            let rec = if compacted {
                Record::Compacted { id: 9, upto_seq: 4, image: payload }
            } else {
                Record::Diff { id: 9, seq: 4, delta: payload }
            };
            let (mut want, mut got) = (vec![0xEE], vec![0xEE]);
            let want_len = rec.encode_into(&mut want);
            prop_assert_eq!(encode_rle_into(&mut got, compacted, 9, 4, &data, mask), want_len);
            prop_assert_eq!(got, want);
        }

        /// Flipping any one byte of any shadow changes the state
        /// digest, and a write through `bytes_mut` always drops the
        /// cache: cached ≡ recomputed from the bytes alone.
        #[test]
        fn any_byte_of_any_shadow_reaches_the_state_digest(
            objs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..70), 1..5),
            pick in any::<usize>(),
            at in any::<usize>(),
            bit in 0u32..8,
        ) {
            let (dir, names) = (BTreeMap::new(), BTreeMap::new());
            let mut shadows: BTreeMap<u32, Shadow> =
                objs.iter().enumerate().map(|(i, o)| (i as u32, Shadow::new(o.clone()))).collect();
            let base = state_digest(1, &dir, &names, &mut shadows);
            prop_assert_eq!(base, state_digest(1, &dir, &names, &mut shadows), "cached");
            let victim = shadows.get_mut(&((pick % objs.len()) as u32)).unwrap();
            let at = at % victim.bytes().len();
            victim.bytes_mut()[at] ^= 1 << bit;
            let flipped = state_digest(1, &dir, &names, &mut shadows);
            prop_assert_ne!(base, flipped);
            let mut scratch: BTreeMap<u32, Shadow> =
                shadows.iter().map(|(id, s)| (*id, Shadow::new(s.bytes().to_vec()))).collect();
            prop_assert_eq!(flipped, state_digest(1, &dir, &names, &mut scratch));
            // Flipping it back restores the digest through a fresh cache.
            shadows.get_mut(&((pick % objs.len()) as u32)).unwrap().bytes_mut()[at] ^= 1 << bit;
            prop_assert_eq!(base, state_digest(1, &dir, &names, &mut shadows));
        }
    }

    #[test]
    fn content_digest_sees_length_and_every_tail_byte() {
        // Zero padding of the last word must not hide trailing zeros
        // from the *state* digest, which folds the length beside it.
        let (dir, names) = (BTreeMap::new(), BTreeMap::new());
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..=17 {
            let mut shadows: BTreeMap<u32, Shadow> =
                [(1, Shadow::new(vec![0u8; len]))].into_iter().collect();
            assert!(
                seen.insert(state_digest(1, &dir, &names, &mut shadows)),
                "len {len}"
            );
        }
    }

    #[test]
    fn digest_depends_on_every_component() {
        let dir: BTreeMap<u32, ObjMeta> = [(
            1u32,
            ObjMeta {
                id: 1,
                home: 0,
                version: 1,
                bytes: 8,
                parent: None,
            },
        )]
        .into_iter()
        .collect();
        let names: BTreeMap<String, NamedMeta> = BTreeMap::new();
        let mut shadows: BTreeMap<u32, Shadow> =
            [(1u32, Shadow::new(vec![1, 2, 3]))].into_iter().collect();
        let base = state_digest(4, &dir, &names, &mut shadows);
        assert_ne!(base, state_digest(5, &dir, &names, &mut shadows));
        let mut dir2 = dir.clone();
        dir2.get_mut(&1).unwrap().home = 1;
        assert_ne!(base, state_digest(4, &dir2, &names, &mut shadows));
        let mut sh2 = shadows.clone();
        sh2.get_mut(&1).unwrap().bytes_mut()[0] = 9;
        assert_ne!(base, state_digest(4, &dir, &names, &mut sh2));
        // Versions are deliberately excluded.
        let mut dir3 = dir.clone();
        dir3.get_mut(&1).unwrap().version = 77;
        assert_eq!(base, state_digest(4, &dir3, &names, &mut shadows));
    }
}
