//! FNV-1a digests.
//!
//! [`Trace::fingerprint`](crate::Trace::fingerprint) introduced a 64-bit
//! FNV-1a digest to prove bit-identical traces across runs without
//! persisting them. The checkpoint subsystem needs the same machinery for
//! snapshot integrity footers and config fingerprints, so the hasher lives
//! here as a small incremental type plus a one-shot helper.
//!
//! FNV-1a is not cryptographic: it detects torn writes, truncation, and
//! accidental corruption, not adversarial tampering — exactly the failure
//! modes crash-safe files have to survive.
//!
//! # Folding zero bytes
//!
//! FNV-1a absorbs a byte as `h = (h ^ b) · PRIME`. For a zero byte the
//! xor is the identity, so the step is a bare multiply, and `k` zero
//! bytes in a row are one multiply by `PRIME^k`. [`Fnv64::write_u64`]
//! uses that: it runs the byte step only up to a word's highest nonzero
//! byte and folds the `k` zero high bytes above it into one multiply by
//! `PRIME^k`, read from a 9-entry table. The digest is exactly the byte
//! loop's for every word. Trace words are mostly zero high bytes — rank
//! and step are small, times stay below 2^40 ns and `injected` is
//! usually 0 — so [`Trace::fingerprint`](crate::Trace::fingerprint) runs
//! about 3 dependent multiplies per word instead of 8.

/// Incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    h: u64,
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64 { h: Self::OFFSET }
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb one word as its 8 little-endian bytes (the mixing step
    /// `Trace::fingerprint` has always used). The zero bytes above the
    /// highest nonzero one fold into a single multiply (module docs).
    pub fn write_u64(&mut self, v: u64) {
        let live = 8 - (v.leading_zeros() / 8) as usize;
        let (mut h, mut w) = (self.h, v);
        for _ in 0..live {
            h = (h ^ (w & 0xff)).wrapping_mul(Self::PRIME);
            w >>= 8;
        }
        self.h = h.wrapping_mul(PRIME_POW[8 - live]);
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

/// `PRIME^k` for `k` in `0..=8`: the multiply that absorbs `k` zero bytes.
const PRIME_POW: [u64; 9] = {
    let mut t = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        t[k] = t[k - 1].wrapping_mul(Fnv64::PRIME);
        k += 1;
    }
    t
};

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot FNV-1a digest of a byte slice.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Encode a single-line document with an FNV-1a integrity footer — the
/// two-line layout the checkpoint snapshots established:
///
/// ```text
/// <body>
/// {"<footer_key>":<fnv1a of the body bytes>}
/// ```
///
/// `body` must not contain a newline (the footer split point); the sweep
/// result cache and other crash-safe single-record files build on this.
pub fn encode_footered(body: &str, footer_key: &str) -> String {
    debug_assert!(!body.contains('\n'), "footered body must be one line");
    format!(
        "{body}\n{{\"{footer_key}\":{}}}\n",
        fnv1a_64(body.as_bytes())
    )
}

/// Split and verify a footered document, returning the body text.
///
/// Works on raw bytes so torn files that are not valid UTF-8 still fail
/// with a reason instead of panicking. Every failure mode — missing
/// footer, malformed footer, digest mismatch, non-UTF-8 body — returns a
/// human-readable reason; callers decide whether that means quarantine
/// (result cache) or a rejection diagnostic (snapshots).
pub fn decode_footered<'a>(bytes: &'a [u8], footer_key: &str) -> Result<&'a str, String> {
    let Some(split) = bytes.iter().position(|&b| b == b'\n') else {
        return Err("missing integrity footer (no newline): the write was torn".to_string());
    };
    let body_bytes = &bytes[..split];
    let footer = std::str::from_utf8(&bytes[split + 1..])
        .map_err(|e| format!("integrity footer is not UTF-8: {e}"))?;
    let footer = footer.trim_end();
    let want: u64 = footer
        .strip_prefix(&format!("{{\"{footer_key}\":"))
        .and_then(|rest| rest.strip_suffix('}'))
        .and_then(|digits| digits.parse().ok())
        .ok_or_else(|| format!("integrity footer lacks a {footer_key} field: '{footer}'"))?;
    let got = fnv1a_64(body_bytes);
    if got != want {
        return Err(format!(
            "integrity digest mismatch (expected {want:#018x}, found {got:#018x}): \
             the file is torn or corrupt"
        ));
    }
    std::str::from_utf8(body_bytes).map_err(|e| format!("body is not UTF-8: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));
        let mut w = Fnv64::new();
        w.write_u64(0x0102_0304_0506_0708);
        assert_eq!(w.finish(), fnv1a_64(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    /// The byte loop `write_u64` folds: eight xor-multiply steps.
    fn byte_loop(h: u64, v: u64) -> u64 {
        v.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(Fnv64::PRIME))
    }

    #[test]
    fn folded_write_u64_equals_the_byte_loop() {
        let check = |h: u64, v: u64| {
            let mut f = Fnv64 { h };
            f.write_u64(v);
            assert_eq!(f.finish(), byte_loop(h, v), "state {h:#x}, word {v:#x}");
        };
        let mut fixed = vec![0, 1, u64::MAX];
        for k in 1..8 {
            fixed.push((1u64 << (8 * k)) - 1);
            fixed.push(1u64 << (8 * k));
        }
        for &v in &fixed {
            check(Fnv64::OFFSET, v);
            check(0, v);
            check(u64::MAX, v);
        }
        simdes::check::for_all("fnv-fold-equals-byte-loop", 2000, |g| {
            let h = g.any_u64();
            // Mix full-width words with words of every byte length, so
            // every fold width is drawn often.
            let bytes = g.u32(0, 8);
            let v = match bytes {
                0 => 0,
                n => g.any_u64() >> (64 - 8 * n),
            };
            check(h, v);
            check(h, g.pick(&fixed));
        });
    }

    #[test]
    fn content_sensitive() {
        assert_ne!(fnv1a_64(b"snapshot-a"), fnv1a_64(b"snapshot-b"));
        assert_ne!(fnv1a_64(b"ab"), fnv1a_64(b"ba"));
    }

    #[test]
    fn footered_round_trip() {
        let doc = encode_footered("{\"a\":1}", "cache_digest");
        assert_eq!(doc.lines().count(), 2);
        assert_eq!(
            decode_footered(doc.as_bytes(), "cache_digest").expect("own encoding decodes"),
            "{\"a\":1}"
        );
    }

    #[test]
    fn footered_rejects_corruption() {
        let doc = encode_footered("{\"a\":1}", "k");
        // Bit-flip in the body: digest mismatch.
        let mut flipped = doc.clone().into_bytes();
        flipped[2] ^= 0x40;
        assert!(decode_footered(&flipped, "k")
            .expect_err("flip detected")
            .contains("digest mismatch"));
        // Truncation before the newline: no footer at all.
        assert!(decode_footered(&doc.as_bytes()[..5], "k")
            .expect_err("truncation detected")
            .contains("torn"));
        // Truncation inside the footer.
        assert!(decode_footered(&doc.as_bytes()[..doc.len() - 3], "k")
            .expect_err("torn footer detected")
            .contains("lacks a k field"));
        // Wrong footer key.
        assert!(decode_footered(doc.as_bytes(), "other").is_err());
        // Body torn mid-UTF-8-codepoint must error, not panic.
        let multi = encode_footered("{\"s\":\"€\"}", "k");
        let cut = multi.find('\n').expect("newline") - 1;
        let mut torn = multi.as_bytes()[..cut].to_vec();
        torn.extend_from_slice(&multi.as_bytes()[multi.find('\n').expect("newline")..]);
        assert!(decode_footered(&torn, "k").is_err());
    }
}
