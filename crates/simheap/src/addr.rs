//! Simulated addresses and address arithmetic.

use std::fmt;
use std::ops::{Add, Sub};

/// Size in bytes of one simulated page.
///
/// The paper's region library (§4.1) manages memory in 4 KB pages; we use the
/// same granularity for the whole simulated address space.
pub const PAGE_SIZE: u32 = 4096;

/// Size in bytes of one machine word.
///
/// The evaluation platform of the paper is a 32-bit UltraSparc-I, so a word —
/// and therefore a pointer — is four bytes.
pub const WORD: u32 = 4;

/// An address in the simulated 32-bit address space.
///
/// `Addr` is a plain byte offset. The null address is [`Addr::NULL`]
/// (offset 0); the first simulated page is never mapped, so dereferencing
/// null or any address within the guard page panics, mimicking a segfault.
///
/// # Example
///
/// ```
/// use simheap::{Addr, WORD};
/// let a = Addr::new(4096);
/// assert_eq!(a.offset(2 * WORD), Addr::new(4104));
/// assert_eq!(a.page_index(), 1);
/// assert!(Addr::NULL.is_null());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u32);

impl Addr {
    /// The null address.
    pub const NULL: Addr = Addr(0);

    /// Creates an address from a raw byte offset.
    #[inline]
    pub fn new(raw: u32) -> Addr {
        Addr(raw)
    }

    /// Returns the raw byte offset.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Returns `true` if this is the null address.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns the address `bytes` past `self`.
    ///
    /// # Panics
    ///
    /// Panics on 32-bit overflow (walking off the end of the simulated
    /// address space).
    #[inline]
    pub fn offset(self, bytes: u32) -> Addr {
        Addr(self.0.checked_add(bytes).expect("address overflow"))
    }

    /// Returns the address `bytes` before `self`.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative.
    #[inline]
    pub fn back(self, bytes: u32) -> Addr {
        Addr(self.0.checked_sub(bytes).expect("address underflow"))
    }

    /// The index of the page containing this address.
    #[inline]
    pub fn page_index(self) -> u32 {
        self.0 / PAGE_SIZE
    }

    /// The base address of the page with index `index` — the inverse of
    /// [`Addr::page_index`] for page-aligned addresses. Shard layout math
    /// (worker base pages, span boundaries) is phrased with this.
    ///
    /// # Panics
    ///
    /// Panics if the page lies beyond the 32-bit address space.
    pub fn from_page(index: u32) -> Addr {
        Addr(index.checked_mul(PAGE_SIZE).expect("page beyond the 32-bit address space"))
    }

    /// The byte offset of this address within its page.
    #[inline]
    pub fn page_offset(self) -> u32 {
        self.0 % PAGE_SIZE
    }

    /// The address of the start of the page containing this address.
    pub fn page_base(self) -> Addr {
        Addr(self.0 - self.0 % PAGE_SIZE)
    }

    /// Returns `true` if the address is aligned to `align` bytes
    /// (which must be a power of two).
    #[inline]
    pub fn is_aligned(self, align: u32) -> bool {
        debug_assert!(align.is_power_of_two());
        self.0 & (align - 1) == 0
    }

    /// Rounds the address up to the next multiple of `align`
    /// (a power of two).
    #[inline]
    pub fn align_up(self, align: u32) -> Addr {
        Addr(align_up(self.0, align))
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#010x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl Add<u32> for Addr {
    type Output = Addr;
    #[inline]
    fn add(self, rhs: u32) -> Addr {
        self.offset(rhs)
    }
}

impl Sub<u32> for Addr {
    type Output = Addr;
    #[inline]
    fn sub(self, rhs: u32) -> Addr {
        self.back(rhs)
    }
}

impl Sub<Addr> for Addr {
    type Output = u32;
    #[inline]
    fn sub(self, rhs: Addr) -> u32 {
        self.0.checked_sub(rhs.0).expect("address difference underflow")
    }
}

impl From<Addr> for u32 {
    fn from(a: Addr) -> u32 {
        a.0
    }
}

impl From<u32> for Addr {
    fn from(raw: u32) -> Addr {
        Addr(raw)
    }
}

/// Rounds `n` up to the next multiple of `align` (a power of two).
///
/// ```
/// use simheap::align_up;
/// assert_eq!(align_up(13, 8), 16);
/// assert_eq!(align_up(16, 8), 16);
/// assert_eq!(align_up(0, 8), 0);
/// ```
#[inline]
pub fn align_up(n: u32, align: u32) -> u32 {
    debug_assert!(align.is_power_of_two());
    n.checked_add(align - 1).expect("align_up overflow") & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_null() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr::new(4).is_null());
        assert_eq!(Addr::default(), Addr::NULL);
    }

    #[test]
    fn page_arithmetic() {
        let a = Addr::new(PAGE_SIZE * 3 + 17);
        assert_eq!(a.page_index(), 3);
        assert_eq!(a.page_offset(), 17);
        assert_eq!(a.page_base(), Addr::new(PAGE_SIZE * 3));
    }

    #[test]
    fn alignment() {
        assert!(Addr::new(8).is_aligned(8));
        assert!(!Addr::new(12).is_aligned(8));
        assert_eq!(Addr::new(13).align_up(8), Addr::new(16));
        assert_eq!(align_up(4095, 4096), 4096);
        assert_eq!(align_up(4096, 4096), 4096);
        assert_eq!(align_up(4097, 4096), 8192);
    }

    #[test]
    fn add_sub_operators() {
        let a = Addr::new(100);
        assert_eq!(a + 28, Addr::new(128));
        assert_eq!(a - 50, Addr::new(50));
        assert_eq!(Addr::new(128) - a, 28);
    }

    #[test]
    #[should_panic(expected = "address overflow")]
    fn offset_overflow_panics() {
        let _ = Addr::new(u32::MAX).offset(1);
    }

    #[test]
    #[should_panic(expected = "address underflow")]
    fn back_underflow_panics() {
        let _ = Addr::new(3).back(4);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Addr::new(0x1000)), "0x00001000");
        assert_eq!(format!("{:?}", Addr::new(0x1000)), "Addr(0x00001000)");
    }
}
