//! Shared, immutable frame storage.
//!
//! A [`FrameBuf`] is a reference-counted byte buffer plus a sub-range.
//! Cloning is O(1) (a refcount bump) and [`FrameBuf::slice`] produces a
//! narrower view of the same allocation, so a frame's payload can be
//! handed to a protocol stack without copying the bytes. This mirrors
//! the real CAB, where the datalink hardware deposits a frame into
//! on-board memory once and every layer above works on offsets into
//! that single buffer.
//!
//! The simulator is single-threaded per [`crate::Frame`] owner, so the
//! backing store is an `Rc`, not an `Arc` — and an `Rc<Vec<u8>>` rather
//! than an `Rc<[u8]>`, because the former adopts the `Vec` a frame was
//! assembled in while the latter would copy it into a fresh allocation.

use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

/// A cheaply-cloneable view into reference-counted frame bytes.
#[derive(Clone)]
pub struct FrameBuf {
    data: Rc<Vec<u8>>,
    start: u32,
    end: u32,
}

impl FrameBuf {
    /// Take ownership of `bytes` as the backing allocation, covering
    /// the whole buffer. The bytes are adopted, not copied.
    pub fn new(bytes: Vec<u8>) -> FrameBuf {
        assert!(bytes.len() <= u32::MAX as usize, "frame buffer too large");
        let end = bytes.len() as u32;
        FrameBuf { data: Rc::new(bytes), start: 0, end }
    }

    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start as usize..self.end as usize]
    }

    /// A narrower view of the same allocation. `range` is relative to
    /// this view. Panics if the range is out of bounds, like slice
    /// indexing.
    pub fn slice(&self, range: Range<usize>) -> FrameBuf {
        assert!(range.start <= range.end && range.end <= self.len(), "slice out of bounds");
        FrameBuf {
            data: Rc::clone(&self.data),
            start: self.start + range.start as u32,
            end: self.start + range.end as u32,
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// How many [`FrameBuf`] views share this backing allocation. The
    /// zero-copy fan-out tests assert multicast replicas keep this > 1
    /// (shared storage) and copy-on-write corruption leaves siblings
    /// untouched.
    pub fn backing_refcount(&self) -> usize {
        Rc::strong_count(&self.data)
    }

    /// Do two views share one backing allocation?
    pub fn shares_backing(&self, other: &FrameBuf) -> bool {
        Rc::ptr_eq(&self.data, &other.data)
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(bytes: Vec<u8>) -> FrameBuf {
        FrameBuf::new(bytes)
    }
}

impl Deref for FrameBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &FrameBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FrameBuf {}

impl fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FrameBuf({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = FrameBuf::new(vec![1, 2, 3, 4, 5]);
        let b = a.clone();
        assert!(Rc::ptr_eq(&a.data, &b.data));
        assert_eq!(a, b);
    }

    #[test]
    fn new_adopts_the_vec_without_copying() {
        let bytes = vec![7u8; 4096];
        let built_at = bytes.as_ptr();
        let a = FrameBuf::new(bytes);
        assert_eq!(a.as_slice().as_ptr(), built_at, "the frame was copied after it was built");
    }

    #[test]
    fn slice_is_a_view() {
        let a = FrameBuf::new((0..10).collect());
        let s = a.slice(2..7);
        assert_eq!(s.as_slice(), &[2, 3, 4, 5, 6]);
        assert!(Rc::ptr_eq(&a.data, &s.data));
        // slicing a slice stays relative to the view
        let s2 = s.slice(1..3);
        assert_eq!(s2.as_slice(), &[3, 4]);
        assert_eq!(s2.len(), 2);
        let empty = s.slice(5..5);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_out_of_bounds_panics() {
        let a = FrameBuf::new(vec![0; 4]);
        let _ = a.slice(2..6);
    }

    #[test]
    fn deref_and_eq_compare_contents() {
        let a = FrameBuf::new(vec![9, 9, 7]);
        let b = FrameBuf::new(vec![1, 9, 9, 7]).slice(1..4);
        assert_eq!(a, b);
        assert_eq!(&a[..2], &[9, 9]);
    }
}
