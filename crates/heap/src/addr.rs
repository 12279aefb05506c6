//! Virtual addresses and pool-relative locations.
//!
//! The paper divides the 48-bit virtual address space of a process into two
//! equal halves: addresses with bit 47 clear live on DRAM, addresses with
//! bit 47 set live on NVM (paper Fig. 2). Persistent pointers are *relative*:
//! a 31-bit pool id plus a 32-bit intra-pool offset.

use std::fmt;

/// Number of virtual-address bits modelled (x86-64 canonical lower half).
pub const VA_BITS: u32 = 48;

/// Bit that selects the NVM half of the virtual address space.
pub const NVM_REGION_BIT: u64 = 1 << 47;

/// Mask of all valid virtual-address bits.
pub const VA_MASK: u64 = (1 << VA_BITS) - 1;

/// Lowest usable DRAM address. Page zero is kept unmapped so that a null
/// pointer can never alias a valid object.
pub const DRAM_BASE: u64 = 0x1_0000;

/// Exclusive upper bound of the DRAM half.
pub const DRAM_END: u64 = NVM_REGION_BIT;

/// Lowest address of the NVM half.
pub const NVM_BASE: u64 = NVM_REGION_BIT;

/// Exclusive upper bound of the NVM half.
pub const NVM_END: u64 = 1 << VA_BITS;

/// A virtual address inside the simulated 48-bit address space.
///
/// `VirtAddr` is a plain transparent wrapper: it may point anywhere,
/// including unmapped memory. Mapping validity is checked by
/// [`crate::AddressSpace`] on access, mirroring a real MMU.
///
/// # Examples
///
/// ```
/// use utpr_heap::addr::{VirtAddr, NVM_BASE};
///
/// let a = VirtAddr::new(0x1000);
/// assert!(!a.is_nvm_region());
/// assert!(VirtAddr::new(NVM_BASE).is_nvm_region());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Creates a virtual address from a raw value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the value has bits above the 48-bit
    /// canonical range set.
    #[inline]
    pub fn new(raw: u64) -> Self {
        debug_assert!(raw <= VA_MASK, "address {raw:#x} exceeds 48-bit space");
        VirtAddr(raw)
    }

    /// The raw 64-bit value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// True when bit 47 is set, i.e. the address falls in the NVM half of
    /// the address space.
    #[inline]
    pub fn is_nvm_region(self) -> bool {
        self.0 & NVM_REGION_BIT != 0
    }

    /// Address advanced by `delta` bytes.
    #[inline]
    pub fn add(self, delta: u64) -> Self {
        VirtAddr(self.0.wrapping_add(delta) & VA_MASK)
    }

    /// Address moved back by `delta` bytes.
    #[inline]
    pub fn sub(self, delta: u64) -> Self {
        VirtAddr(self.0.wrapping_sub(delta) & VA_MASK)
    }

    /// Byte distance `self - other` (may be negative).
    #[inline]
    pub fn offset_from(self, other: VirtAddr) -> i64 {
        self.0.wrapping_sub(other.0) as i64
    }

    /// True for address zero (the conventional null).
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtAddr({:#x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr::new(raw)
    }
}

/// Identifier of a persistent memory object pool (PMOP).
///
/// Pool ids are system-wide unique and at most 31 bits wide so that they fit
/// the relative-pointer encoding (bit 63 flag + 31-bit id + 32-bit offset).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(u32);

/// Maximum representable pool id (31 bits).
pub const MAX_POOL_ID: u32 = (1 << 31) - 1;

impl PoolId {
    /// Creates a pool id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not fit in 31 bits.
    #[inline]
    pub fn new(id: u32) -> Self {
        assert!(id <= MAX_POOL_ID, "pool id {id} exceeds 31 bits");
        PoolId(id)
    }

    /// The raw id value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Crate-internal constructor for values already known to be valid ids
    /// (e.g. read back out of the translation caches, which only ever hold
    /// ids that went through [`PoolId::new`]): skips the range assert so
    /// the translation fast path carries no panic edge.
    #[inline(always)]
    pub(crate) const fn from_raw_trusted(id: u32) -> Self {
        debug_assert!(id <= MAX_POOL_ID);
        PoolId(id)
    }
}

impl fmt::Debug for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PoolId({})", self.0)
    }
}

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool#{}", self.0)
    }
}

/// A location inside a pool: the persistent, relocation-stable form of an
/// address (31-bit pool id + 32-bit offset).
///
/// # Examples
///
/// ```
/// use utpr_heap::addr::{PoolId, RelLoc};
///
/// let loc = RelLoc::new(PoolId::new(3), 0x40);
/// assert_eq!(loc.offset, 0x40);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RelLoc {
    /// Owning pool.
    pub pool: PoolId,
    /// Byte offset from the pool base.
    pub offset: u32,
}

impl RelLoc {
    /// Creates a pool-relative location.
    #[inline]
    pub fn new(pool: PoolId, offset: u32) -> Self {
        RelLoc { pool, offset }
    }

    /// Location advanced by `delta` bytes within the same pool.
    #[inline]
    pub fn add(self, delta: u32) -> Self {
        RelLoc { pool: self.pool, offset: self.offset.wrapping_add(delta) }
    }
}

impl fmt::Display for RelLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{:#x}", self.pool, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_split_follows_bit_47() {
        assert!(!VirtAddr::new(0).is_nvm_region());
        assert!(!VirtAddr::new(DRAM_END - 1).is_nvm_region());
        assert!(VirtAddr::new(NVM_BASE).is_nvm_region());
        assert!(VirtAddr::new(NVM_END - 1).is_nvm_region());
    }

    #[test]
    fn arithmetic_wraps_within_48_bits() {
        let a = VirtAddr::new(VA_MASK);
        assert_eq!(a.add(1).raw(), 0);
        let b = VirtAddr::new(0);
        assert_eq!(b.sub(1).raw(), VA_MASK);
    }

    #[test]
    fn offset_from_is_signed() {
        let a = VirtAddr::new(0x2000);
        let b = VirtAddr::new(0x1000);
        assert_eq!(a.offset_from(b), 0x1000);
        assert_eq!(b.offset_from(a), -0x1000);
    }

    #[test]
    #[should_panic(expected = "31 bits")]
    fn pool_id_rejects_wide_values() {
        let _ = PoolId::new(1 << 31);
    }

    #[test]
    fn rel_loc_add_wraps_offset() {
        let l = RelLoc::new(PoolId::new(1), u32::MAX);
        assert_eq!(l.add(1).offset, 0);
    }

    #[test]
    fn null_detection() {
        assert!(VirtAddr::new(0).is_null());
        assert!(!VirtAddr::new(8).is_null());
    }
}
