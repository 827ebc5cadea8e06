//! Opaque pagination cursors.
//!
//! A cursor pins everything that determines the result sequence it
//! points into: the compiled query's fingerprint, the effective layer
//! range, and the row offset. Because layered replay is bit-identical
//! at every thread count and the service flattens results in a fixed
//! order (predicate name ascending, then tuple order), an offset is a
//! stable address — the token handed to a client today resumes at the
//! same row tomorrow, on any worker, warm or cold cache.
//!
//! The wire form is hex over a fixed 36-byte layout:
//!
//! ```text
//! fingerprint (8 BE) | layer_lo (4 BE) | layer_hi (4 BE) | offset (8 BE) | epoch (8 BE) | fnv1a64 >> 32 (4 BE)
//! ```
//!
//! The trailing checksum makes truncation/corruption a typed 400, not a
//! silently wrong page; the embedded fingerprint makes a token minted
//! for one query a typed 400 against another ("foreign cursor"); the
//! embedded store mutation epoch makes a token minted before a graph
//! mutation a typed 410 afterwards ("stale cursor") — offsets address a
//! result sequence that no longer exists, so resuming one must fail
//! loudly, never return rows from the superseded epoch.

use std::fmt;

/// FNV-1a 64-bit, the crate's fingerprint/checksum hash. Stable across
/// processes and platforms (unlike `DefaultHasher`), so cursor tokens
/// and cache keys survive a daemon restart.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A decoded cursor: where in which result sequence to resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cursor {
    /// Fingerprint of the PQL source this token paginates.
    pub fingerprint: u64,
    /// Inclusive effective layer range the result was computed over.
    pub layer_lo: u32,
    /// See [`Cursor::layer_lo`].
    pub layer_hi: u32,
    /// Row offset into the flattened result sequence.
    pub offset: u64,
    /// The store's mutation epoch when the token was minted. A token
    /// from an earlier epoch is stale: the result sequence it addresses
    /// was superseded by a graph mutation.
    pub epoch: u64,
}

/// Why a cursor token failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CursorError {
    /// Not hex, or not the expected length.
    Malformed,
    /// Valid shape, failed checksum: truncated or corrupted in transit.
    Checksum,
}

impl fmt::Display for CursorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CursorError::Malformed => write!(f, "cursor is not a valid token"),
            CursorError::Checksum => write!(f, "cursor failed its checksum"),
        }
    }
}

impl std::error::Error for CursorError {}

const RAW_LEN: usize = 8 + 4 + 4 + 8 + 8;
const TOKEN_LEN: usize = (RAW_LEN + 4) * 2;

impl Cursor {
    /// Encode to the opaque hex token.
    pub fn encode(&self) -> String {
        let mut raw = Vec::with_capacity(RAW_LEN + 4);
        raw.extend_from_slice(&self.fingerprint.to_be_bytes());
        raw.extend_from_slice(&self.layer_lo.to_be_bytes());
        raw.extend_from_slice(&self.layer_hi.to_be_bytes());
        raw.extend_from_slice(&self.offset.to_be_bytes());
        raw.extend_from_slice(&self.epoch.to_be_bytes());
        let check = (fnv1a64(&raw) >> 32) as u32;
        raw.extend_from_slice(&check.to_be_bytes());
        let mut out = String::with_capacity(TOKEN_LEN);
        for b in raw {
            out.push_str(&format!("{b:02x}"));
        }
        out
    }

    /// Decode a token, verifying shape and checksum.
    pub fn decode(token: &str) -> Result<Cursor, CursorError> {
        if token.len() != TOKEN_LEN || !token.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(CursorError::Malformed);
        }
        let mut raw = [0u8; RAW_LEN + 4];
        for (i, chunk) in token.as_bytes().chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char)
                .to_digit(16)
                .ok_or(CursorError::Malformed)?;
            let lo = (chunk[1] as char)
                .to_digit(16)
                .ok_or(CursorError::Malformed)?;
            raw[i] = (hi * 16 + lo) as u8;
        }
        let check = u32::from_be_bytes(raw[RAW_LEN..].try_into().unwrap());
        if (fnv1a64(&raw[..RAW_LEN]) >> 32) as u32 != check {
            return Err(CursorError::Checksum);
        }
        Ok(Cursor {
            fingerprint: u64::from_be_bytes(raw[0..8].try_into().unwrap()),
            layer_lo: u32::from_be_bytes(raw[8..12].try_into().unwrap()),
            layer_hi: u32::from_be_bytes(raw[12..16].try_into().unwrap()),
            offset: u64::from_be_bytes(raw[16..24].try_into().unwrap()),
            epoch: u64::from_be_bytes(raw[24..32].try_into().unwrap()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_is_exact() {
        let c = Cursor {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            layer_lo: 3,
            layer_hi: 17,
            offset: 123_456,
            epoch: 42,
        };
        let token = c.encode();
        assert_eq!(token.len(), TOKEN_LEN);
        assert_eq!(Cursor::decode(&token), Ok(c));
    }

    #[test]
    fn corruption_and_truncation_are_typed() {
        let token = Cursor {
            fingerprint: 1,
            layer_lo: 0,
            layer_hi: 4,
            offset: 9,
            epoch: 0,
        }
        .encode();
        assert_eq!(Cursor::decode(&token[..10]), Err(CursorError::Malformed));
        assert_eq!(Cursor::decode("zz"), Err(CursorError::Malformed));
        let mut bad = token.into_bytes();
        // Flip one hex digit somewhere in the payload.
        bad[4] = if bad[4] == b'0' { b'1' } else { b'0' };
        let bad = String::from_utf8(bad).unwrap();
        assert_eq!(Cursor::decode(&bad), Err(CursorError::Checksum));
    }

    /// Run `property` on `cases` generators, case `k` seeded with
    /// `seed ^ k`; a failing case panics with its test name, index and
    /// seed.
    fn check(name: &str, seed: u64, cases: u64, property: impl Fn(&mut StdRng)) {
        for case in 0..cases {
            let seed = seed ^ case;
            let run = || property(&mut StdRng::seed_from_u64(seed));
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err() {
                panic!("{name} failed at case {case} (seed {seed:#x})");
            }
        }
    }

    /// Mostly uniform, sometimes an edge value.
    fn field(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..4u8) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.gen(),
        }
    }

    fn random_cursor(rng: &mut StdRng) -> Cursor {
        Cursor {
            fingerprint: field(rng),
            layer_lo: field(rng) as u32,
            layer_hi: field(rng) as u32,
            offset: field(rng),
            epoch: field(rng),
        }
    }

    /// Random cursors round-trip in either case; a truncation is
    /// malformed; one hex digit replaced by a digit of another value is
    /// a checksum failure, never another cursor.
    #[test]
    fn random_cursors_roundtrip_and_reject_damage() {
        check(
            "random_cursors_roundtrip_and_reject_damage",
            0xc0de_0001,
            500,
            |rng| {
                let c = random_cursor(rng);
                let token = c.encode();
                assert_eq!(Cursor::decode(&token), Ok(c));
                assert_eq!(Cursor::decode(&token.to_ascii_uppercase()), Ok(c));

                let cut = rng.gen_range(0..TOKEN_LEN);
                assert_eq!(Cursor::decode(&token[..cut]), Err(CursorError::Malformed));

                let mut bad = token.into_bytes();
                let at = rng.gen_range(0..TOKEN_LEN);
                let old = (bad[at] as char).to_digit(16).unwrap();
                let new = (old + rng.gen_range(1..16u32)) % 16;
                let digit = char::from_digit(new, 16).unwrap();
                bad[at] = if rng.gen() {
                    digit.to_ascii_uppercase()
                } else {
                    digit
                } as u8;
                let bad = String::from_utf8(bad).unwrap();
                assert_eq!(
                    Cursor::decode(&bad),
                    Err(CursorError::Checksum),
                    "digit {at} of {c:?}"
                );
            },
        );
    }

    /// Random strings — hex and not, ASCII and not, near the token
    /// length and not, and valid tokens with a few characters inserted,
    /// removed or swapped — never panic the decoder, and whatever it
    /// accepts re-encodes to the same token.
    #[test]
    fn random_strings_never_panic_the_decoder() {
        const PALETTE: [char; 10] = ['0', '7', 'a', 'F', 'g', ' ', '%', '\0', 'é', '€'];
        check(
            "random_strings_never_panic_the_decoder",
            0xc0de_0002,
            2000,
            |rng| {
                let mut chars: Vec<char> = match rng.gen_range(0..3u8) {
                    0 => random_cursor(rng).encode().chars().collect(),
                    kind => {
                        let len = match rng.gen() {
                            true => TOKEN_LEN - 2 + rng.gen_range(0..5usize),
                            false => rng.gen_range(0..2 * TOKEN_LEN),
                        };
                        let pick = if kind == 1 { 4 } else { PALETTE.len() };
                        (0..len).map(|_| PALETTE[rng.gen_range(0..pick)]).collect()
                    }
                };
                for _ in 0..rng.gen_range(0..4u8) {
                    let (at, other) = (
                        rng.gen_range(0..=chars.len()),
                        rng.gen_range(0..=chars.len()),
                    );
                    match rng.gen_range(0..3u8) {
                        0 => chars.insert(at, PALETTE[rng.gen_range(0..PALETTE.len())]),
                        1 if at < chars.len() => drop(chars.remove(at)),
                        _ if at.max(other) < chars.len() => chars.swap(at, other),
                        _ => {}
                    }
                }
                let s: String = chars.into_iter().collect();
                if let Ok(c) = Cursor::decode(&s) {
                    assert_eq!(c.encode(), s.to_ascii_lowercase());
                }
            },
        );
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned values: tokens must survive daemon restarts and
        // architecture changes.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"ariadne"), fnv1a64(b"ariadne"));
        assert_ne!(fnv1a64(b"ariadne"), fnv1a64(b"ariadnf"));
    }
}
