//! The one bounds-checked decode cursor.
//!
//! Every byte that reaches the workspace from outside the process — a
//! tenant module on the daemon wire, a farm frame, a store file — is
//! read through a [`Cursor`], so the never-panic discipline lives in one
//! primitive instead of one copy per format. Three rules hold for every
//! read:
//!
//! * a failed read leaves the cursor where it was;
//! * offsets use checked arithmetic, so no length can wrap them;
//! * a length or count larger than the bytes left is
//!   [`CodecError::Truncated`], before anything is allocated for it.
//!
//! Integers are little-endian; a `u128` is its high `u64` half, then
//! its low half. The primitives are `#[inline]`: they are called across
//! crate boundaries, and the workspace builds without LTO.

/// Why bytes failed to decode. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input does not start with the format's magic.
    BadMagic,
    /// Input ended before the structure did, or a length field claimed
    /// more bytes than remain.
    Truncated,
    /// An enum tag byte outside the known range, with the site name.
    BadTag(&'static str, u8),
    /// A length-prefixed string was not UTF-8.
    BadString,
    /// Structure nests deeper than the decoder allows.
    TooDeep,
    /// This many bytes were left over after the structure was decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadTag(what, t) => write!(f, "bad {what} tag {t}"),
            CodecError::BadString => write!(f, "string is not UTF-8"),
            CodecError::TooDeep => write!(f, "nests deeper than the decoder allows"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A read position over borrowed bytes.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the head of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(CodecError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Consume the next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Consume one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Consume a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Consume a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Consume a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Consume a `u128` written as its high `u64` half, then its low.
    #[inline]
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        let mut c = *self;
        let hi = c.u64()?;
        let lo = c.u64()?;
        *self = c;
        Ok((u128::from(hi) << 64) | u128::from(lo))
    }

    /// Consume a `u32` length or count. It must not exceed the bytes
    /// left after it: every counted element takes at least one byte, so
    /// a forged count fails here instead of driving an allocation.
    #[inline]
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let mut c = *self;
        let n = c.u32()? as usize;
        if n > c.remaining() {
            return Err(CodecError::Truncated);
        }
        *self = c;
        Ok(n)
    }

    /// Consume a [`Cursor::count`]-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let mut c = *self;
        let n = c.count()?;
        let s = c.take(n)?;
        *self = c;
        Ok(s)
    }

    /// Consume a [`Cursor::count`]-prefixed UTF-8 string.
    #[inline]
    pub fn string(&mut self) -> Result<String, CodecError> {
        let mut c = *self;
        let s = std::str::from_utf8(c.bytes()?).map_err(|_| CodecError::BadString)?;
        *self = c;
        Ok(s.to_owned())
    }

    /// Consume a [`Cursor::count`]-prefixed sequence, decoding each
    /// element with `item`. Nothing is preallocated: the vector grows
    /// only as elements actually decode.
    #[inline]
    pub fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Cursor<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let mut c = *self;
        let n = c.count()?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(item(&mut c)?);
        }
        *self = c;
        Ok(out)
    }

    /// Require every byte to have been consumed.
    #[inline]
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_reads_leave_the_cursor_where_it_was() {
        // A length of 3 with two bytes behind it, then a bad UTF-8 string.
        let buf = [3, 0, 0, 0, b'a', b'b'];
        let mut r = Cursor::new(&buf);
        assert_eq!(r.count(), Err(CodecError::Truncated));
        assert_eq!(r.bytes(), Err(CodecError::Truncated));
        assert_eq!(r.string(), Err(CodecError::Truncated));
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        assert_eq!(r.pos(), 0);
        assert_eq!(r.u32(), Ok(3));
        assert_eq!(r.pos(), 4);
        assert_eq!(r.u32(), Err(CodecError::Truncated));
        assert_eq!(r.pos(), 4);

        let bad = [2, 0, 0, 0, 0xff, 0xfe];
        let mut r = Cursor::new(&bad);
        assert_eq!(r.string(), Err(CodecError::BadString));
        assert_eq!(r.pos(), 0);

        // A sequence whose second element fails rewinds the whole read.
        let seq = [2, 0, 0, 0, 7, 0];
        let mut r = Cursor::new(&seq);
        let got = r.seq(|r| match r.u8()? {
            7 => Ok(7),
            t => Err(CodecError::BadTag("elem", t)),
        });
        assert_eq!(got, Err(CodecError::BadTag("elem", 0)));
        assert_eq!(r.pos(), 0);
    }

    #[test]
    fn take_uses_checked_arithmetic() {
        let mut r = Cursor::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(r.take(usize::MAX), Err(CodecError::Truncated));
        assert_eq!(r.pos(), 1);
        assert_eq!(r.take(2), Ok(&[2u8, 3][..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn integers_are_little_endian_and_u128_is_high_half_first() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xBEEFu16.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&7u64.to_le_bytes()); // high half
        buf.extend_from_slice(&9u64.to_le_bytes()); // low half
        buf.push(0);
        let mut r = Cursor::new(&buf);
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u128(), Ok((7u128 << 64) | 9));
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes(1)));
    }
}
