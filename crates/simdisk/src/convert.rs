//! Checked narrowing conversions and fixed-width byte parsing for page
//! and offset arithmetic.
//!
//! The library crates deny clippy's `cast_possible_truncation` and
//! `unwrap_used`/`expect_used` (each `lib.rs`), which bans bare
//! truncating `as` casts and `try_into().unwrap()` in library code;
//! these helpers centralize the two patterns behind
//! names that state the intent. The checked casts panic with a clear
//! message when the value genuinely does not fit — which in page
//! arithmetic means a structural invariant is already broken, so there
//! is no meaningful recovery.

/// Checked narrowing casts for page/byte-offset arithmetic.
pub mod cast {
    /// `u64` byte count/offset to `usize`, checked. Infallible on the
    /// 64-bit targets this workspace supports.
    #[track_caller]
    #[inline]
    pub fn to_usize(v: u64) -> usize {
        match usize::try_from(v) {
            Ok(x) => x,
            Err(_) => panic!("byte offset {v} exceeds usize"),
        }
    }

    /// `u64` page number/count to `u32`, checked.
    #[track_caller]
    #[inline]
    pub fn to_u32(v: u64) -> u32 {
        match u32::try_from(v) {
            Ok(x) => x,
            Err(_) => panic!("page arithmetic value {v} exceeds u32"),
        }
    }

    /// `usize` length to `u32`, checked.
    #[track_caller]
    #[inline]
    pub fn usize_to_u32(v: usize) -> u32 {
        match u32::try_from(v) {
            Ok(x) => x,
            Err(_) => panic!("length {v} exceeds u32"),
        }
    }

    /// `usize` in-page offset to `u16`, checked (slotted-page layouts).
    #[track_caller]
    #[inline]
    pub fn usize_to_u16(v: usize) -> u16 {
        match u16::try_from(v) {
            Ok(x) => x,
            Err(_) => panic!("in-page offset {v} exceeds u16"),
        }
    }

    /// `u32` to `usize`, a widening conversion on every supported
    /// target; spelled as a function so page-indexing code carries no
    /// bare `as` cast.
    #[inline]
    pub fn u32_to_usize(v: u32) -> usize {
        match usize::try_from(v) {
            Ok(x) => x,
            Err(_) => panic!("u32 {v} exceeds usize on a sub-32-bit target"),
        }
    }
}

/// Panic-by-slice-index little-endian field readers. Unlike
/// `try_into().unwrap()` these carry no `unwrap` and index directly, so
/// an undersized slice fails with a plain bounds message.
pub mod bytes {
    /// Read a little-endian `u16` at the start of `b`.
    #[track_caller]
    #[inline]
    pub fn le_u16(b: &[u8]) -> u16 {
        // Panic-by-index is this module's documented contract.
        // loblint: allow(panic-path)
        u16::from_le_bytes([b[0], b[1]])
    }

    /// Read a little-endian `u32` at the start of `b`.
    #[track_caller]
    #[inline]
    pub fn le_u32(b: &[u8]) -> u32 {
        // loblint: allow(panic-path)
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Read a little-endian `u64` at the start of `b`.
    #[track_caller]
    #[inline]
    pub fn le_u64(b: &[u8]) -> u64 {
        // loblint: allow(panic-path)
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn casts_pass_in_range_values() {
        assert_eq!(cast::to_usize(4096), 4096usize);
        assert_eq!(cast::to_u32(123), 123u32);
        assert_eq!(cast::usize_to_u32(77), 77u32);
        assert_eq!(cast::usize_to_u16(4095), 4095u16);
        assert_eq!(cast::u32_to_usize(9), 9usize);
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn to_u32_panics_on_overflow() {
        cast::to_u32(u64::from(u32::MAX) + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds u16")]
    fn usize_to_u16_panics_on_overflow() {
        cast::usize_to_u16(1 << 16);
    }

    #[test]
    fn byte_readers_parse_little_endian() {
        let b = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0xFF];
        assert_eq!(bytes::le_u16(&b), 0x0201);
        assert_eq!(bytes::le_u32(&b), 0x0403_0201);
        assert_eq!(bytes::le_u64(&b), 0x0807_0605_0403_0201);
        assert_eq!(bytes::le_u16(&b[7..]), 0xFF08);
    }

    #[test]
    #[should_panic]
    fn byte_readers_panic_on_short_slice() {
        bytes::le_u32(&[1, 2]);
    }
}
