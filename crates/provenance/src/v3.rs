//! On-disk structures of the **v3** segment format: indexed file
//! footers, the spool-level `index.ars` manifest, generation-stamped
//! compaction file names, and the LZ-compressed record payload.
//!
//! # Layout
//!
//! A compacted generation file (`gen-{G}-{seq}.ars3`) is a run of
//! ordinary checksummed record frames — one per (superstep, predicate)
//! *extent* — followed by a CRC-protected footer:
//!
//! ```text
//! +------------------+------------------+-----+---------------------------------+
//! | extent: key A    | extent: key B    | ... | footer payload | crc | len |"ARS3"|
//! +------------------+------------------+-----+---------------------------------+
//! ```
//!
//! The footer records, per extent, the (superstep, predicate) key, the
//! byte range of its frames, and its tuple/record counts, so a resume
//! registers every extent **without reading a single frame** and layer
//! reads seek straight to the matching extent instead of scanning the
//! file. The trailer is parsed backwards from end-of-file: 4 magic
//! bytes, a `u32` payload length, a `u32` CRC over the payload. Any bit
//! flip — in the payload, the CRC, the length, or the magic — fails
//! validation. Footer, manifest and compressed-payload fields are all
//! read through [`crate::codec`]'s bounds-checked slice reader; a short
//! structure is a typed error, never an out-of-range index.
//!
//! The spool-level manifest (`index.ars`) names the live generation
//! files (with their footer entries mirrored for O(log n) lookup), the
//! legacy files the compaction superseded (deleted only after the
//! manifest rename lands — resume completes the deletion if a crash
//! interrupted it), and keys whose generation file was quarantined by a
//! scrub repair. The manifest is advisory in one direction only: a
//! generation file not listed in a valid manifest is an orphan of an
//! interrupted compaction and is removed at resume; the footers inside
//! listed files remain the authority for extents and are what a scrub
//! repair rebuilds a damaged manifest from.
//!
//! # Compressed records
//!
//! v3 introduces a third record frame, `"ARSZ"`/`"ZSRA"`, stacking an
//! LZ block (see the vendored `minilz` crate) *under* the existing
//! per-column encodings: the payload is a 1-byte inner version tag (1 =
//! row-major, 2 = columnar), a `u32` raw length, and the compressed
//! bytes of the inner payload. The frame CRC covers the compressed
//! form, so corruption is detected before any decompression; the raw
//! length is bounded by [`V3_MAX_RAW`] so a corrupt length can never
//! balloon allocation. Writers use the compressed frame only when it is
//! strictly smaller than the plain one.

use crate::codec::{take, take_array};
use ariadne_vc::checkpoint::crc32;

/// Magic closing a v3 indexed footer (the last 4 bytes of a generation
/// file).
pub const FOOTER_MAGIC: [u8; 4] = *b"ARS3";
/// Magic opening the spool manifest `index.ars`.
pub const MANIFEST_MAGIC: [u8; 4] = *b"ARSM";
/// Manifest format version byte.
pub const MANIFEST_VERSION: u8 = 1;
/// File name of the spool-level manifest.
pub const MANIFEST_NAME: &str = "index.ars";
/// Upper bound on the decompressed size of one v3 record payload: a
/// corrupt raw-length field is rejected before any allocation.
pub const V3_MAX_RAW: usize = 1 << 26;
/// Trailer size appended after the footer payload: crc + len + magic.
const FOOTER_TRAILER: usize = 4 + 4 + 4;

/// One (superstep, predicate) extent recorded in a generation file's
/// footer: where its record frames live and what they hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FooterEntry {
    /// The provenance layer (= superstep) of the extent.
    pub superstep: u32,
    /// The predicate whose tuples the extent holds.
    pub pred: String,
    /// Byte offset of the extent's first frame within the file.
    pub offset: u64,
    /// Byte length of the extent (whole frames only).
    pub len: u64,
    /// Tuples encoded across the extent's frames.
    pub tuples: u64,
    /// Record frames in the extent.
    pub records: u32,
}

/// One live generation file listed in the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenFileInfo {
    /// File name within the spool directory (`gen-{G}-{seq}.ars3`).
    pub name: String,
    /// Expected file size in bytes (footer included) — a cheap
    /// truncation tripwire checked at resume before trusting extents.
    pub size: u64,
    /// The file's footer entries, mirrored for metadata-only lookup.
    pub entries: Vec<FooterEntry>,
}

/// A (superstep, predicate) key whose compacted bytes were quarantined,
/// with the quarantine file name holding them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LostKey {
    /// The superstep of the lost layer extent.
    pub superstep: u32,
    /// The predicate of the lost extent.
    pub pred: String,
    /// File name under `quarantine/` holding the condemned bytes.
    pub quarantine: String,
}

/// The decoded spool manifest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic compaction generation; the next compaction writes
    /// `generation + 1`.
    pub generation: u64,
    /// Live generation files, in write order.
    pub live: Vec<GenFileInfo>,
    /// Legacy spool file names this generation superseded; deleted
    /// after the manifest rename (resume completes interrupted
    /// deletions).
    pub superseded: Vec<String>,
    /// Keys whose generation extents were quarantined by a scrub
    /// repair; strict reads of their layers must fail typed.
    pub lost: Vec<LostKey>,
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn read_str(input: &mut &[u8]) -> Result<String, String> {
    let len = u16::from_le_bytes(take_array(input)?) as usize;
    String::from_utf8(take(input, len)?.to_vec()).map_err(|_| "non-UTF-8 name".to_string())
}

fn put_entry(buf: &mut Vec<u8>, e: &FooterEntry) {
    buf.extend_from_slice(&e.superstep.to_le_bytes());
    put_str(buf, &e.pred);
    buf.extend_from_slice(&e.offset.to_le_bytes());
    buf.extend_from_slice(&e.len.to_le_bytes());
    buf.extend_from_slice(&e.tuples.to_le_bytes());
    buf.extend_from_slice(&e.records.to_le_bytes());
}

fn read_entry(input: &mut &[u8]) -> Result<FooterEntry, String> {
    Ok(FooterEntry {
        superstep: u32::from_le_bytes(take_array(input)?),
        pred: read_str(input)?,
        offset: u64::from_le_bytes(take_array(input)?),
        len: u64::from_le_bytes(take_array(input)?),
        tuples: u64::from_le_bytes(take_array(input)?),
        records: u32::from_le_bytes(take_array(input)?),
    })
}

/// Serialize `entries` into the footer block appended after a
/// generation file's record frames (payload, CRC, length, magic).
pub fn encode_footer(entries: &[FooterEntry]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        put_entry(&mut payload, e);
    }
    let mut out = payload.clone();
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&FOOTER_MAGIC);
    out
}

/// Parse the footer block from the tail of a generation file's bytes.
/// Returns the entries and the offset where record frames end (= where
/// the footer payload begins). Every byte of the trailer is load-
/// bearing: a flipped magic, length, CRC, or payload byte all fail.
pub fn parse_footer(data: &[u8]) -> Result<(Vec<FooterEntry>, usize), String> {
    let Some(body_len) = data.len().checked_sub(FOOTER_TRAILER) else {
        return Err(format!(
            "file too short for a v3 footer ({} bytes)",
            data.len()
        ));
    };
    let (body, mut trailer) = data.split_at(body_len);
    let stored_crc = u32::from_le_bytes(take_array(&mut trailer)?);
    let payload_len = u32::from_le_bytes(take_array(&mut trailer)?) as usize;
    if trailer != FOOTER_MAGIC {
        return Err("bad footer magic".into());
    }
    let Some(payload_start) = body_len.checked_sub(payload_len) else {
        return Err(format!(
            "footer payload length {payload_len} overruns the {}-byte file",
            data.len()
        ));
    };
    let payload = &body[payload_start..];
    let actual = crc32(payload);
    if stored_crc != actual {
        return Err(format!(
            "footer CRC mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
        ));
    }
    let input = &mut &*payload;
    let count = u32::from_le_bytes(take_array(input)?) as usize;
    if count > payload.len() {
        return Err(format!(
            "footer claims {count} entries in {payload_len} bytes"
        ));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(read_entry(input)?);
    }
    if !input.is_empty() {
        return Err("trailing bytes after footer entries".into());
    }
    // Entries must describe frame ranges inside the record region.
    let region_end = payload_start as u64;
    for e in &entries {
        let end = e.offset.checked_add(e.len);
        if end.is_none() || end.unwrap() > region_end {
            return Err(format!(
                "footer extent {}..{:?} overruns the {region_end}-byte record region",
                e.offset, end
            ));
        }
    }
    Ok((entries, payload_start))
}

/// Serialize a [`Manifest`] into the full `index.ars` file bytes
/// (magic, version, CRC, payload).
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&m.generation.to_le_bytes());
    payload.extend_from_slice(&(m.live.len() as u32).to_le_bytes());
    for f in &m.live {
        put_str(&mut payload, &f.name);
        payload.extend_from_slice(&f.size.to_le_bytes());
        payload.extend_from_slice(&(f.entries.len() as u32).to_le_bytes());
        for e in &f.entries {
            put_entry(&mut payload, e);
        }
    }
    payload.extend_from_slice(&(m.superseded.len() as u32).to_le_bytes());
    for s in &m.superseded {
        put_str(&mut payload, s);
    }
    payload.extend_from_slice(&(m.lost.len() as u32).to_le_bytes());
    for l in &m.lost {
        payload.extend_from_slice(&l.superstep.to_le_bytes());
        put_str(&mut payload, &l.pred);
        put_str(&mut payload, &l.quarantine);
    }
    let mut out = Vec::with_capacity(payload.len() + 9);
    out.extend_from_slice(&MANIFEST_MAGIC);
    out.push(MANIFEST_VERSION);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parse `index.ars` bytes back into a [`Manifest`]. Any bit flip in
/// the magic, version, CRC, or payload fails.
pub fn parse_manifest(data: &[u8]) -> Result<Manifest, String> {
    if data.len() < 9 {
        return Err(format!("manifest too short ({} bytes)", data.len()));
    }
    let mut payload = data;
    if take(&mut payload, 4)? != MANIFEST_MAGIC {
        return Err("bad manifest magic".into());
    }
    let [version] = take_array(&mut payload)?;
    if version != MANIFEST_VERSION {
        return Err(format!("unknown manifest version {version}"));
    }
    let stored_crc = u32::from_le_bytes(take_array(&mut payload)?);
    let actual = crc32(payload);
    if stored_crc != actual {
        return Err(format!(
            "manifest CRC mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
        ));
    }
    let input = &mut &*payload;
    let generation = u64::from_le_bytes(take_array(input)?);
    let live_count = u32::from_le_bytes(take_array(input)?) as usize;
    if live_count > payload.len() {
        return Err(format!("manifest claims {live_count} live files"));
    }
    let mut live = Vec::with_capacity(live_count);
    for _ in 0..live_count {
        let name = read_str(input)?;
        let size = u64::from_le_bytes(take_array(input)?);
        let entry_count = u32::from_le_bytes(take_array(input)?) as usize;
        if entry_count > payload.len() {
            return Err(format!("manifest claims {entry_count} entries"));
        }
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            entries.push(read_entry(input)?);
        }
        live.push(GenFileInfo {
            name,
            size,
            entries,
        });
    }
    let superseded_count = u32::from_le_bytes(take_array(input)?) as usize;
    if superseded_count > payload.len() {
        return Err(format!(
            "manifest claims {superseded_count} superseded files"
        ));
    }
    let mut superseded = Vec::with_capacity(superseded_count);
    for _ in 0..superseded_count {
        superseded.push(read_str(input)?);
    }
    let lost_count = u32::from_le_bytes(take_array(input)?) as usize;
    if lost_count > payload.len() {
        return Err(format!("manifest claims {lost_count} lost keys"));
    }
    let mut lost = Vec::with_capacity(lost_count);
    for _ in 0..lost_count {
        lost.push(LostKey {
            superstep: u32::from_le_bytes(take_array(input)?),
            pred: read_str(input)?,
            quarantine: read_str(input)?,
        });
    }
    if !input.is_empty() {
        return Err("trailing bytes after manifest payload".into());
    }
    Ok(Manifest {
        generation,
        live,
        superseded,
        lost,
    })
}

/// The spool file name of compaction generation `generation`, sequence
/// `seq`.
pub fn gen_file_name(generation: u64, seq: u32) -> String {
    format!("gen-{generation}-{seq}.ars3")
}

/// Parse a generation file name back into (generation, seq); `None` for
/// anything else (including `.tmp` leftovers).
pub fn parse_gen_name(name: &str) -> Option<(u64, u32)> {
    let stem = name.strip_prefix("gen-")?.strip_suffix(".ars3")?;
    let (generation, seq) = stem.split_once('-')?;
    Some((generation.parse().ok()?, seq.parse().ok()?))
}

/// Append a v3 compressed record payload wrapping `raw` (an inner v1 or
/// v2 record payload, tagged by `inner_version`) to `buf`, compressed
/// straight into it. Returns `false`, with `buf` as it was, when
/// compression does not strictly win — the caller then frames the raw
/// payload in its native v1/v2 frame instead.
pub fn append_compressed_payload(buf: &mut Vec<u8>, inner_version: u8, raw: &[u8]) -> bool {
    debug_assert!(inner_version == 1 || inner_version == 2);
    let start = buf.len();
    buf.push(inner_version);
    buf.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    minilz::compress_into(raw, buf);
    if buf.len() - start >= raw.len() {
        buf.truncate(start);
        return false;
    }
    true
}

/// Decode a v3 compressed record payload back into its inner version
/// tag and raw payload bytes. Bounded by [`V3_MAX_RAW`].
pub fn decode_compressed_payload(payload: &[u8]) -> Result<(u8, Vec<u8>), String> {
    let mut raw = Vec::new();
    let inner = decode_compressed_payload_into(payload, &mut raw)?;
    Ok((inner, raw))
}

/// [`decode_compressed_payload`] into `raw`, replacing its contents
/// (reserved to the header's raw length up front), so a reader reuses
/// one buffer record after record. Returns the inner version tag.
pub fn decode_compressed_payload_into(payload: &[u8], raw: &mut Vec<u8>) -> Result<u8, String> {
    if payload.len() < 5 {
        return Err(format!(
            "compressed payload too short ({} bytes)",
            payload.len()
        ));
    }
    let mut packed = payload;
    let [inner] = take_array(&mut packed)?;
    if inner != 1 && inner != 2 {
        return Err(format!("unknown inner record version {inner}"));
    }
    let raw_len = u32::from_le_bytes(take_array(&mut packed)?) as usize;
    if raw_len > V3_MAX_RAW {
        return Err(format!(
            "raw length {raw_len} exceeds the {V3_MAX_RAW} bound"
        ));
    }
    raw.clear();
    raw.reserve(raw_len);
    minilz::decompress_into(packed, raw_len, raw)
        .map_err(|e| format!("LZ decompression failed: {e}"))?;
    if raw.len() != raw_len {
        return Err(format!(
            "decompressed to {} bytes, header claimed {raw_len}",
            raw.len()
        ));
    }
    Ok(inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<FooterEntry> {
        vec![
            FooterEntry {
                superstep: 0,
                pred: "value".into(),
                offset: 0,
                len: 100,
                tuples: 12,
                records: 1,
            },
            FooterEntry {
                superstep: 3,
                pred: "msg".into(),
                offset: 100,
                len: 40,
                tuples: 4,
                records: 2,
            },
        ]
    }

    #[test]
    fn footer_roundtrip_and_bit_flip_detection() {
        let entries = sample_entries();
        let mut file = vec![0xAB; 140]; // stand-in record region
        file.extend_from_slice(&encode_footer(&entries));
        let (parsed, region_end) = parse_footer(&file).unwrap();
        assert_eq!(parsed, entries);
        assert_eq!(region_end, 140);

        let footer_start = 140;
        for i in footer_start..file.len() {
            for bit in 0..8 {
                let mut bad = file.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    parse_footer(&bad).is_err(),
                    "flip of bit {bit} at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn footer_rejects_overrunning_extents() {
        let entries = vec![FooterEntry {
            superstep: 0,
            pred: "p".into(),
            offset: 50,
            len: 100,
            tuples: 1,
            records: 1,
        }];
        let mut file = vec![0u8; 60];
        file.extend_from_slice(&encode_footer(&entries));
        assert!(parse_footer(&file).unwrap_err().contains("overruns"));
    }

    #[test]
    fn manifest_roundtrip_and_bit_flip_detection() {
        let m = Manifest {
            generation: 7,
            live: vec![GenFileInfo {
                name: gen_file_name(7, 0),
                size: 1234,
                entries: sample_entries(),
            }],
            superseded: vec!["seg-0-value.bin".into(), "seg-3-msg.seal".into()],
            lost: vec![LostKey {
                superstep: 9,
                pred: "value".into(),
                quarantine: "gen-5-0.ars3".into(),
            }],
        };
        let bytes = encode_manifest(&m);
        assert_eq!(parse_manifest(&bytes).unwrap(), m);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    parse_manifest(&bad).is_err(),
                    "flip of bit {bit} at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn gen_name_roundtrip() {
        assert_eq!(parse_gen_name(&gen_file_name(12, 3)), Some((12, 3)));
        assert_eq!(parse_gen_name("gen-1-0.ars3.tmp"), None);
        assert_eq!(parse_gen_name("seg-1-value.bin"), None);
        assert_eq!(parse_gen_name("index.ars"), None);
    }

    #[test]
    fn compressed_payload_roundtrip() {
        let raw = b"layer-layer-layer-layer-layer-layer-layer-layer-".repeat(8);
        let mut payload = b"prefix".to_vec();
        assert!(
            append_compressed_payload(&mut payload, 2, &raw),
            "repetitive input compresses"
        );
        let payload = payload.strip_prefix(b"prefix").unwrap();
        assert!(payload.len() < raw.len());
        assert_eq!(payload[..5], [2, 128, 1, 0, 0]);
        assert_eq!(payload[5..], minilz::compress(&raw));
        let (inner, back) = decode_compressed_payload(payload).unwrap();
        assert_eq!(inner, 2);
        assert_eq!(back, raw);
    }

    #[test]
    fn incompressible_payload_declines() {
        let mut state = 0x8765_4321u64;
        let raw: Vec<u8> = (0..256)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let mut buf = b"prefix".to_vec();
        assert!(!append_compressed_payload(&mut buf, 2, &raw));
        assert_eq!(
            buf, b"prefix",
            "a declined payload leaves the buffer as it was"
        );
    }

    #[test]
    fn compressed_payload_bounds_raw_length() {
        let mut payload = vec![2u8];
        payload.extend_from_slice(&(u32::MAX).to_le_bytes());
        payload.extend_from_slice(&[0x00, 0xFF]);
        assert!(decode_compressed_payload(&payload)
            .unwrap_err()
            .contains("bound"));
    }
}
