//! Structural scanning: the XML structural index and branch-light
//! `memchr`-style searches.
//!
//! The build is offline and dependency-free, so the searches here use
//! no crate (`memchr`): the XML structural index is built by an SSE2
//! kernel on x86_64 and by a SWAR kernel on every other target, and
//! the `memchr`s are SWAR on every target.
//!
//! **SSE2 (x86_64).** [`positions_xml`] loads 16-byte vectors, runs
//! three folded byte compares on all 16 lanes at once, and
//! `_mm_movemask_epi8` packs them into a 16-bit mask of delimiter
//! positions; four such masks make one 64-bit mask per 64-byte step.
//! SSE2 is part of the x86_64 baseline, so there is no runtime
//! detection and no fallback: the kernel is `#[target_feature]` code
//! called from the module's one `unsafe` block.
//!
//! **SWAR ("SIMD within a register").** Everywhere else, and for
//! [`memchr`] / [`memchr2`], words of 8 bytes go through the classic
//! zero-byte trick:
//!
//! ```text
//! zeros(x) = (x - 0x0101…01) & !x & 0x8080…80
//! ```
//!
//! For a word `x`, `zeros(x)` has the high bit set in every lane whose
//! byte is zero — *exactly* for the lowest such lane, and possibly
//! (through borrow propagation) spuriously for higher lanes. The
//! `memchr`s only take the **first** match, so words are loaded
//! little-endian (`u64::from_le_bytes`) and `trailing_zeros() >> 3` is
//! the in-word byte index of the first match on every architecture;
//! the SWAR structural kernel, which takes every match, uses the exact
//! (carry-free) form.
//!
//! XOR-ing a word against a "splatted" needle byte turns
//! needle-positions into zero bytes, so the same trick finds arbitrary
//! bytes; OR-ing the masks of several needles gives multi-needle
//! search with one pass over the haystack.
//!
//! All three frontends (`fx_xml`, `fx_html`, `fx_json`) share this
//! module: the XML tokenizer walks the structural index
//! [`positions_xml`] builds and finds attribute and entity delimiters
//! with [`memchr`]; the HTML tokenizer finds `<` and `>` with
//! [`memchr`]; JSON string scanning uses [`memchr2`] for `"` vs `\`.

/// One repetition of `0x01` per byte lane.
const LO: u64 = 0x0101_0101_0101_0101;
/// One repetition of `0x80` per byte lane.
const HI: u64 = 0x8080_8080_8080_8080;

/// Splats `b` into every byte lane of a `u64`.
#[inline(always)]
const fn splat(b: u8) -> u64 {
    (b as u64) * LO
}

/// High-bit mask of the zero byte lanes of `x`. Exact for the lowest
/// zero lane; lanes above it may be spuriously set (borrow), which is
/// fine because callers only consume the lowest set bit.
#[inline(always)]
const fn zero_lanes(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

/// Loads 8 bytes little-endian starting at `i`. Caller guarantees
/// `i + 8 <= hay.len()`.
#[inline(always)]
fn load(hay: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(hay[i..i + 8].try_into().unwrap())
}

/// Byte offset (0..8) of the lowest set high-bit lane in `mask`.
/// Caller guarantees `mask != 0`.
#[inline(always)]
fn first_lane(mask: u64) -> usize {
    (mask.trailing_zeros() >> 3) as usize
}

/// Exact per-lane zero mask: the high bit of each byte lane is set iff
/// that lane is zero — *every* lane, not just the lowest (the
/// carry-free formulation, one op more than [`zero_lanes`]). Used when
/// all matches in a word are consumed, e.g. structural-index building.
#[cfg(any(not(target_arch = "x86_64"), test))]
#[inline(always)]
const fn zero_lanes_exact(x: u64) -> u64 {
    const SEVENF: u64 = !HI; // 0x7f per lane
    !(((x & SEVENF).wrapping_add(SEVENF)) | x | SEVENF)
}

/// Appends the index of every occurrence of the XML structural set
/// `< > " ' &` in `hay[from..]` to `out` (absolute indices into `hay`),
/// in order: one pass building a *structural index* the tokenizer then
/// walks, instead of re-scanning bytes per token. `hay` must be under
/// 4 GiB (indices are `u32`; the caller buffers at most one token).
/// `<` (0x3C) and `>` (0x3E) differ only in bit 1, and `&` (0x26) and
/// `'` (0x27) only in bit 0, so OR-ing that bit before the compare
/// tests each pair at once — three compares per byte instead of five.
///
/// On x86_64 the pass is an SSE2 kernel, 64 bytes a step; on every
/// other target it is the SWAR kernel, 16 bytes a step.
pub fn positions_xml(hay: &[u8], from: usize, out: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the kernel's one requirement is SSE2, which is part of
    // the x86_64 baseline: every x86_64 CPU has it.
    #[allow(unsafe_code)]
    unsafe {
        positions_xml_sse2(hay, from, out)
    }
    #[cfg(not(target_arch = "x86_64"))]
    positions_xml_swar(hay, from, out)
}

/// [`positions_xml`] with SSE2: each 16-byte vector is loaded as two
/// little-endian words, the three folded compares run on all 16 lanes
/// at once, and one `movemask` turns them into a 16-bit mask of
/// positions. Four vectors make one 64-bit mask a step, so the
/// position loop's exit branch, which mispredicts, is taken once per
/// 64 bytes rather than once per 16. The last, partial step is copied
/// into a zero-padded one; a zero byte matches none of the compares.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn positions_xml_sse2(hay: &[u8], from: usize, out: &mut Vec<u32>) {
    use std::arch::x86_64::{
        _mm_cmpeq_epi8, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8, _mm_set_epi64x,
    };
    #[target_feature(enable = "sse2")]
    #[inline]
    fn mask(v: &[u8]) -> u64 {
        let lo = u64::from_le_bytes(v[..8].try_into().unwrap());
        let hi = u64::from_le_bytes(v[8..16].try_into().unwrap());
        let v = _mm_set_epi64x(hi as i64, lo as i64);
        let angle = _mm_cmpeq_epi8(_mm_or_si128(v, _mm_set1_epi8(2)), _mm_set1_epi8(b'>' as i8));
        let amp_apos = _mm_cmpeq_epi8(
            _mm_or_si128(v, _mm_set1_epi8(1)),
            _mm_set1_epi8(b'\'' as i8),
        );
        let quot = _mm_cmpeq_epi8(v, _mm_set1_epi8(b'"' as i8));
        u64::from(_mm_movemask_epi8(_mm_or_si128(_mm_or_si128(angle, amp_apos), quot)) as u16)
    }
    #[inline(always)]
    fn push_all(out: &mut Vec<u32>, base: usize, mut m: u64) {
        while m != 0 {
            out.push(base as u32 + m.trailing_zeros());
            m &= m - 1;
        }
    }
    #[target_feature(enable = "sse2")]
    #[inline]
    fn step_mask(step: &[u8]) -> u64 {
        mask(&step[..16])
            | mask(&step[16..32]) << 16
            | mask(&step[32..48]) << 32
            | mask(&step[48..64]) << 48
    }
    let mut i = from;
    while i + 64 <= hay.len() {
        push_all(out, i, step_mask(&hay[i..i + 64]));
        i += 64;
    }
    if i < hay.len() {
        let mut padded = [0u8; 64];
        padded[..hay.len() - i].copy_from_slice(&hay[i..]);
        push_all(out, i, step_mask(&padded));
    }
}

/// [`positions_xml`] with SWAR: the three folded probes as zero-lane
/// tests on 8-byte words. The path on every target but x86_64, and
/// there the oracle the SSE2 kernel is tested against.
#[cfg(any(not(target_arch = "x86_64"), test))]
fn positions_xml_swar(hay: &[u8], from: usize, out: &mut Vec<u32>) {
    /// The folded three-probe structural mask of one word.
    #[inline(always)]
    fn xml_mask(w: u64) -> u64 {
        const BIT0: u64 = LO; // 0x01 per lane
        const BIT1: u64 = 0x0202_0202_0202_0202;
        zero_lanes_exact((w | BIT1) ^ splat(b'>'))
            | zero_lanes_exact((w | BIT0) ^ splat(b'\''))
            | zero_lanes_exact(w ^ splat(b'"'))
    }
    let mut i = from;
    // Two words per iteration: the probe chains of the pair are
    // independent, so they overlap in the pipeline, and the loop
    // overhead halves.
    while i + 16 <= hay.len() {
        let mut m0 = xml_mask(load(hay, i));
        let mut m1 = xml_mask(load(hay, i + 8));
        while m0 != 0 {
            out.push((i + first_lane(m0)) as u32);
            m0 &= m0 - 1;
        }
        while m1 != 0 {
            out.push((i + 8 + first_lane(m1)) as u32);
            m1 &= m1 - 1;
        }
        i += 16;
    }
    if i + 8 <= hay.len() {
        let mut m = xml_mask(load(hay, i));
        while m != 0 {
            out.push((i + first_lane(m)) as u32);
            m &= m - 1;
        }
        i += 8;
    }
    while i < hay.len() {
        if matches!(hay[i], b'<' | b'>' | b'"' | b'\'' | b'&') {
            out.push(i as u32);
        }
        i += 1;
    }
}

/// Index of the first occurrence of `n1` in `hay`, if any.
#[inline]
pub fn memchr(n1: u8, hay: &[u8]) -> Option<usize> {
    let s1 = splat(n1);
    let mut i = 0;
    while i + 8 <= hay.len() {
        let w = load(hay, i);
        let m = zero_lanes(w ^ s1);
        if m != 0 {
            return Some(i + first_lane(m));
        }
        i += 8;
    }
    hay[i..].iter().position(|&b| b == n1).map(|p| i + p)
}

/// Index of the first occurrence of `n1` or `n2` in `hay`, if any.
#[inline]
pub fn memchr2(n1: u8, n2: u8, hay: &[u8]) -> Option<usize> {
    let (s1, s2) = (splat(n1), splat(n2));
    let mut i = 0;
    while i + 8 <= hay.len() {
        let w = load(hay, i);
        let m = zero_lanes(w ^ s1) | zero_lanes(w ^ s2);
        if m != 0 {
            return Some(i + first_lane(m));
        }
        i += 8;
    }
    hay[i..]
        .iter()
        .position(|&b| b == n1 || b == n2)
        .map(|p| i + p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation for differential checks.
    fn naive(needles: &[u8], hay: &[u8]) -> Option<usize> {
        hay.iter().position(|b| needles.contains(b))
    }

    /// Appends the index of every occurrence of the five needle bytes in
    /// `hay[from..]` to `out`, five probes per word: the oracle
    /// [`positions_xml`] is tested against.
    fn positions5(hay: &[u8], from: usize, needles: [u8; 5], out: &mut Vec<u32>) {
        let [n1, n2, n3, n4, n5] = needles;
        let (s1, s2, s3, s4, s5) = (splat(n1), splat(n2), splat(n3), splat(n4), splat(n5));
        let mut i = from;
        while i + 8 <= hay.len() {
            let w = load(hay, i);
            let mut m = zero_lanes_exact(w ^ s1)
                | zero_lanes_exact(w ^ s2)
                | zero_lanes_exact(w ^ s3)
                | zero_lanes_exact(w ^ s4)
                | zero_lanes_exact(w ^ s5);
            while m != 0 {
                out.push((i + first_lane(m)) as u32);
                m &= m - 1;
            }
            i += 8;
        }
        while i < hay.len() {
            let b = hay[i];
            if b == n1 || b == n2 || b == n3 || b == n4 || b == n5 {
                out.push(i as u32);
            }
            i += 1;
        }
    }

    #[test]
    fn finds_first_match_at_every_offset() {
        // Place the needle at every index of haystacks long enough to
        // exercise both the word loop and the scalar tail.
        for len in 0..40 {
            for at in 0..len {
                let mut hay = vec![b'a'; len];
                hay[at] = b'<';
                assert_eq!(memchr(b'<', &hay), Some(at), "len={len} at={at}");
            }
            let hay = vec![b'a'; len];
            assert_eq!(memchr(b'<', &hay), None, "len={len} absent");
        }
    }

    #[test]
    fn multi_needle_variants_agree_with_naive() {
        // A pseudo-random (deterministic) haystack over a small
        // alphabet so matches land in both word and tail regions.
        let mut hay = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..512 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            hay.push(b"ab<>&\"'x"[(state % 8) as usize]);
        }
        for start in [0, 1, 7, 8, 9, 63, 64, 65, 500] {
            let h = &hay[start..];
            assert_eq!(memchr(b'<', h), naive(b"<", h));
            assert_eq!(memchr2(b'"', b'\'', h), naive(b"\"'", h));
        }
    }

    #[test]
    fn high_bytes_do_not_confuse_the_scan() {
        // Multi-byte UTF-8 sequences (all lanes >= 0x80) must neither
        // match nor mask a later needle.
        let hay = "héllo wörld • <tag>".as_bytes();
        assert_eq!(memchr(b'<', hay), naive(b"<", hay));
        assert_eq!(memchr(0xE2, hay), hay.iter().position(|&b| b == 0xE2));
        // 0x80/0xFF edge lanes.
        let edges = [0x00, 0x80, 0xFF, 0x7F, b'<', 0x80, 0x00];
        assert_eq!(memchr(b'<', &edges), Some(4));
        assert_eq!(memchr(0x00, &edges), Some(0));
        assert_eq!(memchr(0xFF, &edges), Some(2));
    }

    #[test]
    fn positions5_matches_naive_at_every_alignment() {
        let mut hay = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..300 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            hay.push(b"ab<>\"'&x\x80\xFF"[(state % 10) as usize]);
        }
        let needles = [b'<', b'>', b'"', b'\'', b'&'];
        for from in [0usize, 1, 7, 8, 9, 250, 295, 300] {
            let mut got = Vec::new();
            positions5(&hay, from, needles, &mut got);
            let want: Vec<u32> = (from..hay.len())
                .filter(|&i| needles.contains(&hay[i]))
                .map(|i| i as u32)
                .collect();
            assert_eq!(got, want, "from {from}");
        }
    }

    #[test]
    fn positions_xml_agrees_with_positions5() {
        let mut hay = Vec::new();
        let mut state = 0x0123_4567_89ab_cdef_u64;
        for _ in 0..300 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Alphabet biased toward the needles' bit-neighbors (0x3D,
            // 0x3F, 0x25, 0x24, 0x23) to catch folding mistakes.
            hay.push(b"<>\"'&=?%$#ab\x80\xFF"[(state % 14) as usize]);
        }
        for from in [0usize, 1, 7, 8, 9, 200, 295, 300] {
            let mut want = Vec::new();
            positions5(&hay, from, [b'<', b'>', b'"', b'\'', b'&'], &mut want);
            let mut got = Vec::new();
            positions_xml(&hay, from, &mut got);
            assert_eq!(got, want, "from {from}");
        }
    }

    #[test]
    fn kernels_agree_with_the_byte_oracle() {
        // Half the bytes are drawn from the delimiters and the bytes one
        // bit away from them, high bit included (a compare that ignored
        // bit 7 would take 0xBC for `<`); the rest from all 256 values.
        const NEAR: &[u8] = b"<>\"'&=?%$#\xbc\xbe\xa2\xa6\xa7";
        let mut state = 0x5851_f42d_4c95_7f2d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..=300 {
            let hay: Vec<u8> = (0..len)
                .map(|_| match next() {
                    r if r & 1 == 0 => NEAR[(r >> 8) as usize % NEAR.len()],
                    r => (r >> 8) as u8,
                })
                .collect();
            for from in 0..=70 {
                let want: Vec<u32> = (from..len)
                    .filter(|&i| matches!(hay[i], b'<' | b'>' | b'"' | b'\'' | b'&'))
                    .map(|i| i as u32)
                    .collect();
                // On x86_64 `positions_xml` is the SSE2 kernel.
                let mut kernel = Vec::new();
                positions_xml(&hay, from, &mut kernel);
                assert_eq!(kernel, want, "positions_xml, len {len} from {from}");
                let mut swar = Vec::new();
                positions_xml_swar(&hay, from, &mut swar);
                assert_eq!(swar, want, "SWAR kernel, len {len} from {from}");
            }
        }
    }

    #[test]
    fn empty_and_short_haystacks() {
        assert_eq!(memchr(b'<', b""), None);
        assert_eq!(memchr2(b'<', b'>', b""), None);
        assert_eq!(memchr(b'<', b"<"), Some(0));
    }
}
