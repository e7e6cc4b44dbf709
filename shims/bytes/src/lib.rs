//! Offline vendored subset of the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small slice of the `bytes` API it actually uses:
//! [`Bytes`] (cheaply clonable immutable buffer), [`BytesMut`] (growable
//! buffer with a read cursor), and the [`Buf`]/[`BufMut`] cursor traits with
//! big-endian integer accessors. Semantics match the upstream crate for this
//! subset; anything not exercised by the workspace is intentionally absent.

#![warn(missing_docs)]
#![warn(clippy::missing_inline_in_public_items)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, immutable, contiguous slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    #[inline]
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Creates a `Bytes` from a static slice.
    ///
    /// Unlike upstream this copies once; callers only rely on the resulting
    /// value's contents, not on zero-copy behavior.
    #[inline]
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Copies `data` into a new `Bytes`.
    #[inline]
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        let arc: Arc<[u8]> = Arc::from(data);
        Bytes {
            start: 0,
            end: arc.len(),
            data: arc,
        }
    }

    /// Number of bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a new `Bytes` viewing the given subrange, sharing storage.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    #[inline]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(data: Vec<u8>) -> Bytes {
        let arc: Arc<[u8]> = Arc::from(data.into_boxed_slice());
        Bytes {
            start: 0,
            end: arc.len(),
            data: arc,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    #[inline]
    fn from(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }
}

impl From<BytesMut> for Bytes {
    #[inline]
    fn from(data: BytesMut) -> Bytes {
        data.freeze()
    }
}

impl fmt::Debug for Bytes {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    #[inline]
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Bytes {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Bytes {
    #[inline]
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    #[inline]
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer with a read cursor.
///
/// Writing ([`BufMut`]) appends at the tail; reading ([`Buf`]) consumes from
/// the head. [`BytesMut::freeze`] converts the unread remainder to [`Bytes`].
#[derive(Clone, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
    read: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    #[inline]
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Creates an empty buffer with `capacity` bytes pre-allocated.
    #[inline]
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(capacity),
            read: 0,
        }
    }

    /// Number of unread bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Whether all written bytes have been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ensures room for `additional` more bytes.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends `data`.
    #[inline]
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Grows or shrinks the readable region to `new_len`, filling with
    /// `value` when growing.
    #[inline]
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(self.read + new_len, value);
    }

    /// Discards all content.
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
        self.read = 0;
    }

    /// Splits off and returns the first `at` unread bytes.
    ///
    /// # Panics
    ///
    /// Panics when `at > self.len()`.
    #[inline]
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.buf[self.read..self.read + at].to_vec();
        self.read += at;
        self.compact();
        BytesMut { buf: head, read: 0 }
    }

    /// Converts the unread remainder into an immutable [`Bytes`].
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(if self.read == 0 {
            self.buf
        } else {
            self.buf[self.read..].to_vec()
        })
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.buf[self.read..]
    }

    /// Drops already-consumed head storage once it dominates the buffer.
    #[inline]
    fn compact(&mut self) {
        if self.read > 4096 && self.read * 2 >= self.buf.len() {
            self.buf.drain(..self.read);
            self.read = 0;
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for BytesMut {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut")
            .field("len", &self.len())
            .finish()
    }
}

impl PartialEq for BytesMut {
    #[inline]
    fn eq(&self, other: &BytesMut) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for BytesMut {}

/// Read access to a buffer of bytes, consumed front to back.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The unconsumed bytes (contiguous in this implementation).
    fn chunk(&self) -> &[u8];

    /// Consumes `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian `u16`.
    #[inline]
    fn get_u16(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        self.copy_to_slice(&mut raw);
        u16::from_be_bytes(raw)
    }

    /// Reads a big-endian `u32`.
    #[inline]
    fn get_u32(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_be_bytes(raw)
    }

    /// Reads a big-endian `u64`.
    #[inline]
    fn get_u64(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        u64::from_be_bytes(raw)
    }

    /// Copies `dst.len()` bytes into `dst`.
    ///
    /// # Panics
    ///
    /// Panics when fewer than `dst.len()` bytes remain.
    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }
}

impl Buf for BytesMut {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.read += cnt;
        self.compact();
    }
}

/// Write access to a growable byte buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, data: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, data: &[u8]) {
        self.extend_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_and_slice() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(..2);
        assert_eq!(&s2[..], &[2, 3]);
        assert_eq!(b.clone(), b);
    }

    #[test]
    fn bytes_mut_write_read_freeze() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(1);
        m.put_u16(0x0203);
        m.put_u32(0x04050607);
        m.put_u64(0x08090a0b0c0d0e0f);
        assert_eq!(m.len(), 15);
        assert_eq!(m.get_u8(), 1);
        assert_eq!(m.get_u16(), 0x0203);
        let frozen = m.freeze();
        assert_eq!(frozen.len(), 12);
        let mut view: &[u8] = &frozen;
        assert_eq!(view.get_u32(), 0x04050607);
        assert_eq!(view.get_u64(), 0x08090a0b0c0d0e0f);
        assert!(!view.has_remaining());
    }

    #[test]
    fn split_to_consumes_head() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"hello world");
        let head = m.split_to(5);
        assert_eq!(&head[..], b"hello");
        assert_eq!(&m[..], b" world");
    }

    #[test]
    fn slice_buf_advances() {
        let data = [1u8, 2, 3, 4];
        let mut view: &[u8] = &data;
        assert_eq!(view.remaining(), 4);
        assert_eq!(view.get_u16(), 0x0102);
        assert_eq!(view.remaining(), 2);
        view.advance(1);
        assert_eq!(view.get_u8(), 4);
    }
}
