//! A minimal self-describing binary codec.
//!
//! Everything is little-endian and length-prefixed; floating-point
//! values round-trip through their IEEE-754 bit patterns so encoding is
//! bit-exact. Word slices (`i64`/`u64`) can be written with a zero-run
//! encoding that collapses the untouched regions of a machine's memory
//! image — a 32 MiB image whose workload touches a few hundred KiB
//! encodes in roughly the touched size.

/// Errors produced while decoding a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the value was complete.
    Truncated,
    /// The stream decoded but violated an invariant (bad tag, absurd
    /// length, non-UTF-8 string, ...). The payload names the violation.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "byte stream truncated"),
            CodecError::Malformed(what) => write!(f, "malformed byte stream: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// 64-bit FNV-1a over a byte slice; the store's record checksum and the
/// content-address hash both use it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only binary writer. Obtain the encoded bytes with
/// [`Encoder::into_bytes`].
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact, NaN-safe).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a length-prefixed `u64` slice, verbatim.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Writes a length-prefixed `i64` slice with zero-run compression:
    /// the element count, then alternating (zero-run length, literal
    /// count, literal values) groups until the count is consumed.
    pub fn put_i64_slice_rle(&mut self, v: &[i64]) {
        // One page spanning the whole slice, which may hold anything.
        self.put_i64_slice_rle_paged(v, v.len().max(1), &[1]);
    }

    /// [`Encoder::put_i64_slice_rle`] over a slice split into pages of
    /// `page_words` words, where a page whose `live` entry is zero is
    /// known to hold only zeros: such pages join zero runs without being
    /// read, so the cost tracks the live pages. The bytes are exactly
    /// [`Encoder::put_i64_slice_rle`]'s whenever that holds.
    ///
    /// # Panics
    ///
    /// Panics if `page_words` is zero or `live` has fewer entries than
    /// `v` has pages.
    pub fn put_i64_slice_rle_paged(&mut self, v: &[i64], page_words: usize, live: &[u8]) {
        assert!(
            live.len() >= v.len().div_ceil(page_words),
            "page map shorter than the slice"
        );
        self.put_u64(v.len() as u64);
        // The pending group: its zero-run length and where its literal
        // run started, if it has begun.
        let mut zeros = 0;
        let mut lits_from = None;
        for (p, page) in v.chunks(page_words).enumerate() {
            let base = p * page_words;
            if live[p] == 0 {
                if let Some(from) = lits_from.take() {
                    self.put_rle_group(zeros, &v[from..base]);
                    zeros = 0;
                }
                zeros += page.len();
                continue;
            }
            let mut k = 0;
            while k < page.len() {
                let rest = &page[k..];
                match lits_from {
                    // Extend the zero run up to the next literal.
                    None => {
                        let run = rest.iter().take_while(|&&x| x == 0).count();
                        zeros += run;
                        k += run;
                        if k < page.len() {
                            lits_from = Some(base + k);
                        }
                    }
                    // Extend the literal run; a zero word closes the group.
                    Some(from) => {
                        k += rest.iter().take_while(|&&x| x != 0).count();
                        if k < page.len() {
                            self.put_rle_group(zeros, &v[from..base + k]);
                            zeros = 0;
                            lits_from = None;
                        }
                    }
                }
            }
        }
        match lits_from {
            Some(from) => self.put_rle_group(zeros, &v[from..]),
            None if zeros > 0 => self.put_rle_group(zeros, &[]),
            None => {}
        }
    }

    fn put_rle_group(&mut self, zeros: usize, lits: &[i64]) {
        self.put_u64(zeros as u64);
        self.put_u64(lits.len() as u64);
        for &x in lits {
            self.put_i64(x);
        }
    }
}

/// Sequential reader over an encoded byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte has been consumed — catches payloads
    /// with trailing garbage.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool out of range")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads the `u32` format version that opens a versioned payload,
    /// rejecting anything but `expected` as [`CodecError::Malformed`]
    /// with the message `what`.
    pub fn expect_version(&mut self, expected: u32, what: &'static str) -> Result<(), CodecError> {
        if self.get_u32()? == expected {
            Ok(())
        } else {
            Err(CodecError::Malformed(what))
        }
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` element count for a sequence whose elements take at
    /// least `elem_bytes` bytes each. A count that cannot fit in the bytes
    /// left is corruption, reported as [`CodecError::Truncated`] before it
    /// can drive a huge allocation.
    pub fn get_len(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_u64()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Malformed("length overflow"))?;
        if elem_bytes > 0 && n > self.remaining() / elem_bytes {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.get_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.get_bytes()?).map_err(|_| CodecError::Malformed("invalid UTF-8"))
    }

    /// Reads a length-prefixed `u64` slice written by
    /// [`Encoder::put_u64_slice`].
    pub fn get_u64_slice(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.get_len(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_u64()?);
        }
        Ok(v)
    }

    /// Reads a [`Encoder::put_u64_slice`] slice of tallies, rejecting one
    /// whose sum overflows a `u64` (no real tally's does) as
    /// [`CodecError::Malformed`], so callers may total it unchecked.
    pub fn get_counts(&mut self) -> Result<Vec<u64>, CodecError> {
        let counts = self.get_u64_slice()?;
        if counts
            .iter()
            .try_fold(0u64, |t, &c| t.checked_add(c))
            .is_none()
        {
            return Err(CodecError::Malformed("counts total overflow"));
        }
        Ok(counts)
    }

    /// Skips `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<(), CodecError> {
        self.take(n).map(|_| ())
    }

    /// Skips a length-prefixed slice of `elem_bytes`-wide elements (as
    /// written by [`Encoder::put_bytes`] or [`Encoder::put_u64_slice`]),
    /// returning its element count.
    pub fn skip_slice(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_len(elem_bytes)?;
        self.skip(n * elem_bytes)?;
        Ok(n)
    }

    /// Reads a length-prefixed byte slice into `dst`, whose length the
    /// declared length must equal.
    pub fn get_bytes_into(&mut self, dst: &mut [u8]) -> Result<(), CodecError> {
        self.expect_len(dst.len())?;
        dst.copy_from_slice(self.take(dst.len())?);
        Ok(())
    }

    /// Reads a length-prefixed `u64` slice written by
    /// [`Encoder::put_u64_slice`] into `dst`, whose length the declared
    /// length must equal.
    pub fn get_u64_slice_into(&mut self, dst: &mut [u64]) -> Result<(), CodecError> {
        self.expect_len(dst.len())?;
        for x in dst {
            *x = self.get_u64()?;
        }
        Ok(())
    }

    fn expect_len(&mut self, len: usize) -> Result<(), CodecError> {
        if self.get_u64()? == len as u64 {
            Ok(())
        } else {
            Err(CodecError::Malformed(
                "declared length differs from the target's",
            ))
        }
    }

    /// Walks a zero-run-compressed `i64` slice written by
    /// [`Encoder::put_i64_slice_rle`] without materialising it: checks
    /// that the runs exactly cover the declared length and that every
    /// literal is present, and returns the declared length. Costs one
    /// step per run, however long the slice.
    pub fn skip_i64_slice_rle(&mut self) -> Result<usize, CodecError> {
        let n = usize::try_from(self.get_u64()?)
            .map_err(|_| CodecError::Malformed("length overflow"))?;
        let mut at = 0;
        while at < n {
            let (zeros, lits) = self.get_rle_run(n - at)?;
            self.skip(lits * 8)?;
            at += zeros + lits;
        }
        Ok(n)
    }

    /// Reads a zero-run-compressed `i64` slice written by
    /// [`Encoder::put_i64_slice_rle`] straight into `dst`, whose length
    /// the declared length must equal: zero runs become `fill(0)`,
    /// literals are written in place. On error `dst` may be partly
    /// overwritten; callers that need all-or-nothing validate with
    /// [`Decoder::skip_i64_slice_rle`] first.
    pub fn get_i64_slice_rle_into(&mut self, dst: &mut [i64]) -> Result<(), CodecError> {
        // One page spanning the whole slice, which may hold anything.
        self.get_i64_slice_rle_into_paged(dst, dst.len().max(1), &mut [1])
    }

    /// [`Decoder::get_i64_slice_rle_into`] over a slice split into pages
    /// of `page_words` words, where a page whose `live` entry is zero is
    /// known to hold only zeros: zero runs are written only on pages that
    /// were live, so the cost tracks the live pages before and after.
    /// On success `live` marks exactly the pages that received a literal.
    /// Accepts and rejects exactly the bytes
    /// [`Decoder::get_i64_slice_rle_into`] does. On error `dst` may be
    /// partly overwritten, but `live` still covers it: no page holding a
    /// non-zero word is left clear.
    ///
    /// # Panics
    ///
    /// Panics if `page_words` is zero or `live` has fewer entries than
    /// `dst` has pages.
    pub fn get_i64_slice_rle_into_paged(
        &mut self,
        dst: &mut [i64],
        page_words: usize,
        live: &mut [u8],
    ) -> Result<(), CodecError> {
        assert!(
            live.len() >= dst.len().div_ceil(page_words),
            "page map shorter than the slice"
        );
        self.expect_len(dst.len())?;
        let mut walk = PageWalk {
            live,
            page: usize::MAX,
            was_live: false,
            got_literal: false,
        };
        let mut at = 0;
        while at < dst.len() {
            let (zeros, lits) = self.get_rle_run(dst.len() - at)?;
            if zeros > 0 {
                let end = at + zeros;
                for p in at / page_words..end.div_ceil(page_words) {
                    if walk.enter(p) {
                        let page_end = (p + 1) * page_words;
                        dst[at.max(p * page_words)..end.min(page_end)].fill(0);
                    }
                }
                at = end;
            }
            if lits > 0 {
                let bytes = self.take(lits * 8)?;
                for (x, b) in dst[at..at + lits].iter_mut().zip(bytes.chunks_exact(8)) {
                    *x = i64::from_le_bytes(b.try_into().unwrap());
                }
                let end = at + lits;
                for p in at / page_words..end.div_ceil(page_words) {
                    walk.enter(p);
                    walk.mark_literal();
                }
                at = end;
            }
        }
        walk.settle();
        Ok(())
    }

    /// One (zero-run, literal-count) group header of an RLE slice with
    /// `left` elements still to cover. Rejects empty groups (the encoder
    /// never writes one), groups overrunning the declared length, and
    /// literal counts the remaining bytes cannot hold.
    fn get_rle_run(&mut self, left: usize) -> Result<(usize, usize), CodecError> {
        let zeros = self.get_u64()?;
        let lits = self.get_u64()?;
        if zeros == 0 && lits == 0 {
            return Err(CodecError::Malformed("empty run"));
        }
        let fits = zeros <= left as u64 && lits <= left as u64 - zeros;
        if !fits || lits > (self.remaining() / 8) as u64 {
            return Err(CodecError::Malformed("run exceeds declared length"));
        }
        Ok((zeros as usize, lits as usize))
    }
}

/// A page map rewritten while [`Decoder::get_i64_slice_rle_into_paged`]
/// walks its slice front to back. Pages before the current one hold
/// their final entries; the current one keeps its old entry until it is
/// settled, or is set as soon as it receives a literal, so the map stays
/// valid however far the walk gets.
struct PageWalk<'m> {
    live: &'m mut [u8],
    /// The page being walked; `usize::MAX` before the first.
    page: usize,
    /// Whether the current page was live before decoding.
    was_live: bool,
    /// Whether the current page has received a literal.
    got_literal: bool,
}

impl PageWalk<'_> {
    /// Moves to page `p` (the current page or the next one), settling
    /// the page left behind. Returns whether `p` was live before
    /// decoding, i.e. whether its zero runs must be written.
    fn enter(&mut self, p: usize) -> bool {
        if p != self.page {
            self.settle();
            self.page = p;
            self.was_live = self.live[p] != 0;
            self.got_literal = false;
        }
        self.was_live
    }

    fn mark_literal(&mut self) {
        self.got_literal = true;
        self.live[self.page] = 1;
    }

    /// Gives the current page, now fully decoded, its final entry.
    fn settle(&mut self) {
        if let Some(entry) = self.live.get_mut(self.page) {
            *entry = u8::from(self.got_literal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(0xab);
        e.put_bool(true);
        e.put_bool(false);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX - 1);
        e.put_i64(-42);
        e.put_f64(f64::NAN);
        e.put_f64(-0.0);
        e.put_str("gzip");
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 0xab);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert_eq!(d.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(d.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.get_str().unwrap(), "gzip");
        assert_eq!(d.get_bytes().unwrap(), vec![1, 2, 3]);
        d.finish().unwrap();
    }

    /// Decodes one RLE slice the way checkpoint decoders do: walk, then
    /// fill a buffer of the walked length.
    fn read_rle(bytes: &[u8]) -> Result<Vec<i64>, CodecError> {
        let n = Decoder::new(bytes).skip_i64_slice_rle()?;
        let mut v = vec![7; n];
        let mut d = Decoder::new(bytes);
        d.get_i64_slice_rle_into(&mut v)?;
        d.finish()?;
        Ok(v)
    }

    #[test]
    fn rle_roundtrips_and_compresses_sparse_slices() {
        let cases: Vec<Vec<i64>> = vec![
            vec![],
            vec![0; 1000],
            vec![7; 9],
            vec![0, 0, 5, 0, -3, 0, 0, 0, 9],
            vec![1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 4],
        ];
        for v in &cases {
            let mut e = Encoder::new();
            e.put_i64_slice_rle(v);
            assert_eq!(&read_rle(&e.into_bytes()).unwrap(), v);
        }
        // A mostly-zero image encodes far below its raw size.
        let mut sparse = vec![0i64; 1 << 16];
        sparse[17] = 99;
        sparse[40_000] = -1;
        let mut e = Encoder::new();
        e.put_i64_slice_rle(&sparse);
        assert!(e.len() < 200, "sparse encoding is {} bytes", e.len());
    }

    #[test]
    fn rle_into_requires_the_declared_length() {
        let mut e = Encoder::new();
        e.put_i64_slice_rle(&[0, 4, 0]);
        let bytes = e.into_bytes();
        for len in [0, 2, 4] {
            assert_eq!(
                Decoder::new(&bytes).get_i64_slice_rle_into(&mut vec![0; len]),
                Err(CodecError::Malformed(
                    "declared length differs from the target's"
                ))
            );
        }
    }

    #[test]
    fn huge_declared_zero_runs_walk_without_allocating() {
        // A few bytes declaring a 2^40-word zero run: structurally valid,
        // so the walk accepts it in one step, and only a target of that
        // exact length could receive it.
        let mut e = Encoder::new();
        e.put_u64(1 << 40);
        e.put_u64(1 << 40);
        e.put_u64(0);
        let bytes = e.into_bytes();
        assert_eq!(Decoder::new(&bytes).skip_i64_slice_rle(), Ok(1 << 40));
        assert!(Decoder::new(&bytes)
            .get_i64_slice_rle_into(&mut [0; 16])
            .is_err());
    }

    /// splitmix64: a seeded stream for the paged-RLE cases below.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A sparse slice of `len` words in pages of `page` words, with a
    /// valid page map for it: about a third of the pages hold words, and
    /// some all-zero pages are marked live too.
    fn sparse_paged(rng: &mut u64, len: usize, page: usize) -> (Vec<i64>, Vec<u8>) {
        let mut v = vec![0i64; len];
        let mut live = vec![0u8; len.div_ceil(page)];
        for (p, entry) in live.iter_mut().enumerate() {
            match mix(rng) % 6 {
                0 | 1 => {
                    for x in &mut v[p * page..((p + 1) * page).min(len)] {
                        if mix(rng).is_multiple_of(2) {
                            *x = (mix(rng) % 7) as i64 - 3;
                        }
                    }
                    *entry = 1;
                }
                2 => *entry = 1,
                _ => {}
            }
        }
        (v, live)
    }

    /// True if every page whose entry is clear holds only zeros.
    fn map_covers(v: &[i64], page: usize, live: &[u8]) -> bool {
        v.chunks(page)
            .zip(live)
            .all(|(words, &l)| l != 0 || words.iter().all(|&x| x == 0))
    }

    #[test]
    fn paged_rle_matches_the_dense_codec_byte_for_byte() {
        let mut rng = 0x5eed;
        for case in 0..300 {
            let page = [1, 3, 8, 64][case % 4];
            let len = (mix(&mut rng) % 700) as usize;
            let (v, live) = sparse_paged(&mut rng, len, page);
            let (mut dense, mut paged) = (Encoder::new(), Encoder::new());
            dense.put_i64_slice_rle(&v);
            paged.put_i64_slice_rle_paged(&v, page, &live);
            let bytes = dense.into_bytes();
            assert_eq!(bytes, paged.into_bytes(), "case {case}");

            // Decode over a target with live pages of its own.
            let (mut dst, mut dst_live) = sparse_paged(&mut rng, len, page);
            let mut d = Decoder::new(&bytes);
            d.get_i64_slice_rle_into_paged(&mut dst, page, &mut dst_live)
                .unwrap();
            d.finish().unwrap();
            assert_eq!(dst, v, "case {case}");
            let holds_words: Vec<u8> = v
                .chunks(page)
                .map(|words| u8::from(words.iter().any(|&x| x != 0)))
                .collect();
            assert_eq!(dst_live, holds_words, "case {case}");
        }
    }

    #[test]
    fn paged_rle_rejects_what_the_dense_decoder_rejects() {
        let mut rng = 0xbad;
        for case in 0..40 {
            let page = [1, 4, 16][case % 3];
            let len = 1 + (mix(&mut rng) % 120) as usize;
            let (v, live) = sparse_paged(&mut rng, len, page);
            let mut e = Encoder::new();
            e.put_i64_slice_rle_paged(&v, page, &live);
            let valid = e.into_bytes();
            let mut variants: Vec<Vec<u8>> =
                (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
            for _ in 0..40 {
                let mut bytes = valid.clone();
                let at = (mix(&mut rng) % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << (mix(&mut rng) % 8);
                variants.push(bytes);
            }
            for bytes in &variants {
                let mut dense = vec![0; len];
                let dense_result = Decoder::new(bytes).get_i64_slice_rle_into(&mut dense);
                let (mut dst, mut dst_live) = sparse_paged(&mut rng, len, page);
                let paged_result =
                    Decoder::new(bytes).get_i64_slice_rle_into_paged(&mut dst, page, &mut dst_live);
                assert_eq!(paged_result, dense_result, "case {case}");
                assert!(map_covers(&dst, page, &dst_live), "case {case}");
            }
        }
    }

    #[test]
    fn u64_slice_roundtrip() {
        let v: Vec<u64> = vec![u64::MAX, 0, 1, 42];
        let mut e = Encoder::new();
        e.put_u64_slice(&v);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u64_slice().unwrap(), v);
    }

    #[test]
    fn truncated_streams_error_without_panicking() {
        let mut e = Encoder::new();
        e.put_str("hello");
        e.put_u64_slice(&[1, 2, 3]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            let r = d.get_str().and_then(|_| d.get_u64_slice());
            assert!(r.is_err(), "cut at {cut} still decoded");
        }
    }

    #[test]
    fn absurd_lengths_are_rejected_not_allocated() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX); // claims ~2^64 elements
        let bytes = e.into_bytes();
        assert_eq!(
            Decoder::new(&bytes).get_u64_slice(),
            Err(CodecError::Truncated)
        );
        assert!(Decoder::new(&bytes).get_bytes().is_err());
    }

    #[test]
    fn rle_run_past_declared_length_is_malformed() {
        let mut e = Encoder::new();
        e.put_u64(4); // 4 elements claimed
        e.put_u64(10); // ...but a 10-zero run
        e.put_u64(0);
        let bytes = e.into_bytes();
        assert_eq!(
            Decoder::new(&bytes).skip_i64_slice_rle(),
            Err(CodecError::Malformed("run exceeds declared length"))
        );
        assert_eq!(
            Decoder::new(&bytes).get_i64_slice_rle_into(&mut [0; 4]),
            Err(CodecError::Malformed("run exceeds declared length"))
        );
    }

    #[test]
    fn empty_rle_runs_are_malformed() {
        let mut e = Encoder::new();
        e.put_u64(4);
        e.put_u64(0);
        e.put_u64(0);
        assert_eq!(
            Decoder::new(&e.into_bytes()).skip_i64_slice_rle(),
            Err(CodecError::Malformed("empty run"))
        );
    }

    #[test]
    fn slices_read_into_buffers_of_the_declared_length() {
        let mut e = Encoder::new();
        e.put_u64_slice(&[5, 6]);
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.skip_slice(8), Ok(2));
        assert_eq!(d.skip_slice(1), Ok(3));
        d.finish().unwrap();
        let (mut words, mut raw) = ([0u64; 2], [0u8; 3]);
        let mut d = Decoder::new(&bytes);
        d.get_u64_slice_into(&mut words).unwrap();
        d.get_bytes_into(&mut raw).unwrap();
        d.finish().unwrap();
        assert_eq!((words, raw), ([5, 6], [1, 2, 3]));
        assert!(Decoder::new(&bytes)
            .get_u64_slice_into(&mut [0; 3])
            .is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
