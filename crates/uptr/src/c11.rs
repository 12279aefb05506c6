//! The ISO C11 pointer-operation semantics under user-transparent persistent
//! references — an executable rendering of the paper's Fig. 4 table.
//!
//! Every operation the C11 standard permits on pointers is given a semantics
//! that is *observationally identical* to native pointers regardless of the
//! operand's storage format (virtual or relative). The dynamic format checks
//! resolve differences exactly where the table's filled boxes require a
//! conversion; everywhere else the raw value flows through unchanged.
//!
//! The engine is deliberately independent of the timing instrumentation in
//! [`crate::ExecEnv`]: it is the reference model that the soundness test
//! battery (the analogue of the paper's LLVM test-suite evaluation) checks,
//! and it is what the `utpr-cc` IR interpreter executes.

use crate::ptr::{PtrFormat, PtrSpace, UPtr};
use crate::stats::PtrStats;
use std::cmp::Ordering;
use utpr_heap::addr::VirtAddr;
use utpr_heap::{AddressSpace, HeapError};

/// Result alias for semantic operations (faults are heap errors: detached
/// pools, out-of-pool offsets, unmapped addresses).
pub type Result<T> = std::result::Result<T, HeapError>;

/// The executable Fig. 4 semantics, accumulating conversion counts.
///
/// # Examples
///
/// ```
/// use utpr_heap::AddressSpace;
/// use utpr_ptr::{C11Engine, UPtr};
///
/// let mut space = AddressSpace::new(1);
/// let pool = space.create_pool("p", 1 << 20)?;
/// let loc = space.pmalloc(pool, 64)?;
///
/// let rel = UPtr::from_rel(loc);
/// let mut eng = C11Engine::new(&space);
/// let va = eng.ra2va(rel)?;              // one rel→abs conversion
/// assert!(eng.eq(rel, va)?);             // same object, either format
/// assert!(eng.stats().rel_to_abs >= 2);
/// # Ok::<(), utpr_heap::HeapError>(())
/// ```
#[derive(Debug)]
pub struct C11Engine<'a> {
    space: &'a AddressSpace,
    stats: PtrStats,
}

impl<'a> C11Engine<'a> {
    /// Creates an engine over the given address space.
    pub fn new(space: &'a AddressSpace) -> Self {
        C11Engine { space, stats: PtrStats::new() }
    }

    /// Conversion counters accumulated so far.
    pub fn stats(&self) -> PtrStats {
        self.stats
    }

    // ---- conversions -------------------------------------------------------

    /// `ra2va`: rewrites a relative pointer into virtual format. Virtual
    /// and null pointers pass through unchanged.
    ///
    /// # Errors
    ///
    /// Faults when the pool is detached or the offset exceeds the pool.
    pub fn ra2va(&mut self, p: UPtr) -> Result<UPtr> {
        match p.as_rel() {
            Some(loc) => {
                let va = self.space.ra2va(loc)?;
                self.stats.rel_to_abs += 1;
                Ok(UPtr::from_va(va))
            }
            None => Ok(p),
        }
    }

    /// `va2ra`: rewrites a virtual pointer into the NVM half into relative
    /// format. Relative, null, and DRAM-half pointers pass through.
    ///
    /// # Errors
    ///
    /// Faults when the address lies in the NVM half but inside no attached
    /// pool.
    pub fn va2ra(&mut self, p: UPtr) -> Result<UPtr> {
        match p.as_va() {
            Some(va) if va.is_nvm_region() => {
                let loc = self.space.va2ra(va)?;
                self.stats.abs_to_rel += 1;
                Ok(UPtr::from_rel(loc))
            }
            _ => Ok(p),
        }
    }

    // ---- cast operators ----------------------------------------------------

    /// `(I)p` — cast pointer to integer. A relative pointer is first
    /// converted to its virtual address (Fig. 4: `$$ = ra2va(pxr.val)`), so
    /// integer round-trips behave exactly as with native pointers.
    ///
    /// # Errors
    ///
    /// Faults if a relative operand's pool is detached.
    pub fn to_int(&mut self, p: UPtr) -> Result<u64> {
        Ok(self.ra2va(p)?.raw())
    }

    /// `(T*)i` — cast integer to pointer: the raw value is adopted verbatim
    /// (Fig. 4: `$$ = i.val`).
    pub fn from_int(i: u64) -> UPtr {
        UPtr::from_raw(i)
    }

    // ---- unary / postfix operators ------------------------------------------

    /// `*p`, `p->f`, `p[i]` address resolution: the virtual address a
    /// dereference accesses.
    ///
    /// # Errors
    ///
    /// Faults on null and on relative pointers whose pool is detached.
    pub fn deref_target(&mut self, p: UPtr) -> Result<VirtAddr> {
        if p.is_null() {
            return Err(HeapError::Unmapped(VirtAddr::new(0)));
        }
        let v = self.ra2va(p)?;
        Ok(v.as_va().expect("ra2va yields virtual"))
    }

    /// `p[i]` with element size — the address of element `i`.
    ///
    /// # Errors
    ///
    /// Same as [`C11Engine::deref_target`].
    pub fn index_target(&mut self, p: UPtr, i: i64, elem_size: u64) -> Result<VirtAddr> {
        self.deref_target(p.offset(i * elem_size as i64))
    }

    /// `!p` / `if (p)` — truth value of a pointer.
    pub fn is_true(p: UPtr) -> bool {
        !p.is_null()
    }

    // ---- additive operators --------------------------------------------------

    /// `p + i` / `p - i` / `++p` (in bytes): format-preserving arithmetic
    /// (Fig. 4: `$$ = pxy.val op i`, the format tag survives).
    pub fn add(p: UPtr, bytes: i64) -> UPtr {
        p.offset(bytes)
    }

    /// `p - q` in bytes. Two relative pointers subtract their raw values
    /// directly (within one pool this is the offset distance); mixed-format
    /// operands normalize to virtual addresses first.
    ///
    /// # Errors
    ///
    /// Faults when a needed conversion hits a detached pool.
    pub fn diff(&mut self, a: UPtr, b: UPtr) -> Result<i64> {
        match (a.format(), b.format()) {
            (PtrFormat::Relative, PtrFormat::Relative) => {
                Ok(a.raw().wrapping_sub(b.raw()) as i64)
            }
            _ => {
                let av = self.ra2va(a)?.raw();
                let bv = self.ra2va(b)?.raw();
                Ok(av.wrapping_sub(bv) as i64)
            }
        }
    }

    // ---- relational and equality operators ------------------------------------

    /// `p == q` (and `!=` by negation). Operands are normalized to virtual
    /// addresses so a relative and a virtual pointer to the same object
    /// compare equal. Null compares by raw value without conversion.
    ///
    /// # Errors
    ///
    /// Faults when a needed conversion hits a detached pool.
    pub fn eq(&mut self, a: UPtr, b: UPtr) -> Result<bool> {
        if a.is_null() || b.is_null() {
            return Ok(a.raw() == b.raw());
        }
        let av = self.ra2va(a)?.raw();
        let bv = self.ra2va(b)?.raw();
        Ok(av == bv)
    }

    /// `<, >, <=, >=` — ordering over the virtual addresses.
    ///
    /// # Errors
    ///
    /// Faults when a needed conversion hits a detached pool.
    pub fn cmp(&mut self, a: UPtr, b: UPtr) -> Result<Ordering> {
        let av = self.ra2va(a)?.raw();
        let bv = self.ra2va(b)?.raw();
        Ok(av.cmp(&bv))
    }

    // ---- assignment (the storeP value transformation) --------------------------

    /// The value transformation of `pointerAssignment` (paper Fig. 3): the
    /// format in which `p` must be stored at a destination residing in
    /// `dest` space.
    ///
    /// - destination in NVM: persistent-half virtual addresses convert to
    ///   relative (`va2ra`) so they stay valid across relocation; relative
    ///   values pass through; DRAM virtual addresses are stored verbatim
    ///   (they cannot be made relocation-stable — such a pointer is only
    ///   meaningful within the current run, exactly as in C).
    /// - destination in DRAM: relative values convert to virtual (`ra2va`);
    ///   virtual values pass through.
    ///
    /// # Errors
    ///
    /// Faults when a needed conversion hits a detached pool or an address
    /// in no pool.
    pub fn assign_value(&mut self, dest: PtrSpace, p: UPtr) -> Result<UPtr> {
        if p.is_null() {
            return Ok(p);
        }
        match dest {
            PtrSpace::Nvm => match p.format() {
                PtrFormat::Relative => Ok(p),
                PtrFormat::Virtual => {
                    if p.space() == PtrSpace::Nvm {
                        self.va2ra(p)
                    } else {
                        Ok(p)
                    }
                }
            },
            PtrSpace::Dram => self.ra2va(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utpr_heap::{PoolId, RelLoc};

    fn setup() -> (AddressSpace, UPtr, UPtr) {
        let mut space = AddressSpace::new(17);
        let pool = space.create_pool("c11", 1 << 20).unwrap();
        let loc = space.pmalloc(pool, 128).unwrap();
        let rel = UPtr::from_rel(loc);
        let va = UPtr::from_va(space.ra2va(loc).unwrap());
        (space, rel, va)
    }

    #[test]
    fn cast_int_round_trip_matches_native() {
        let (space, rel, va) = setup();
        let mut eng = C11Engine::new(&space);
        // (I)pxr == (I)pxv for the same object.
        let ir = eng.to_int(rel).unwrap();
        let iv = eng.to_int(va).unwrap();
        assert_eq!(ir, iv);
        // (T*)(I)p dereferences the same object.
        let back = C11Engine::from_int(ir);
        assert_eq!(eng.deref_target(back).unwrap(), eng.deref_target(rel).unwrap());
    }

    #[test]
    fn deref_target_same_for_both_formats() {
        let (space, rel, va) = setup();
        let mut eng = C11Engine::new(&space);
        assert_eq!(eng.deref_target(rel).unwrap(), eng.deref_target(va).unwrap());
        assert_eq!(eng.stats().rel_to_abs, 1);
    }

    #[test]
    fn deref_null_faults() {
        let (space, _, _) = setup();
        let mut eng = C11Engine::new(&space);
        assert!(eng.deref_target(UPtr::NULL).is_err());
    }

    #[test]
    fn additive_ops_preserve_format_and_value() {
        let (space, rel, va) = setup();
        let mut eng = C11Engine::new(&space);
        for d in [0i64, 8, 24, -8] {
            let r2 = C11Engine::add(rel.offset(32), d);
            let v2 = C11Engine::add(va.offset(32), d);
            assert_eq!(r2.format(), PtrFormat::Relative);
            assert_eq!(v2.format(), PtrFormat::Virtual);
            assert_eq!(eng.deref_target(r2).unwrap(), eng.deref_target(v2).unwrap());
        }
    }

    #[test]
    fn diff_consistent_across_formats() {
        let (space, rel, va) = setup();
        let mut eng = C11Engine::new(&space);
        let r2 = rel.offset(40);
        let v2 = va.offset(40);
        assert_eq!(eng.diff(r2, rel).unwrap(), 40);
        assert_eq!(eng.diff(v2, va).unwrap(), 40);
        assert_eq!(eng.diff(r2, va).unwrap(), 40);
        assert_eq!(eng.diff(v2, rel).unwrap(), 40);
        assert_eq!(eng.diff(rel, r2).unwrap(), -40);
    }

    #[test]
    fn equality_across_formats() {
        let (space, rel, va) = setup();
        let mut eng = C11Engine::new(&space);
        assert!(eng.eq(rel, va).unwrap());
        assert!(eng.eq(va, rel).unwrap());
        assert!(!eng.eq(rel.offset(8), va).unwrap());
        assert!(!eng.eq(rel, UPtr::NULL).unwrap());
        assert!(eng.eq(UPtr::NULL, UPtr::NULL).unwrap());
    }

    #[test]
    fn relational_across_formats() {
        let (space, rel, va) = setup();
        let mut eng = C11Engine::new(&space);
        assert_eq!(eng.cmp(rel, va.offset(8)).unwrap(), Ordering::Less);
        assert_eq!(eng.cmp(rel.offset(8), va).unwrap(), Ordering::Greater);
        assert_eq!(eng.cmp(rel, va).unwrap(), Ordering::Equal);
    }

    #[test]
    fn assign_to_nvm_converts_nvm_va_to_rel() {
        let (space, rel, va) = setup();
        let mut eng = C11Engine::new(&space);
        let stored = eng.assign_value(PtrSpace::Nvm, va).unwrap();
        assert_eq!(stored, rel);
        assert_eq!(eng.stats().abs_to_rel, 1);
        // Relative stays relative with no conversion.
        let stored2 = eng.assign_value(PtrSpace::Nvm, rel).unwrap();
        assert_eq!(stored2, rel);
        assert_eq!(eng.stats().abs_to_rel, 1);
    }

    #[test]
    fn assign_to_dram_converts_rel_to_va() {
        let (space, rel, va) = setup();
        let mut eng = C11Engine::new(&space);
        let stored = eng.assign_value(PtrSpace::Dram, rel).unwrap();
        assert_eq!(stored, va);
        assert_eq!(eng.stats().rel_to_abs, 1);
        let stored2 = eng.assign_value(PtrSpace::Dram, va).unwrap();
        assert_eq!(stored2, va);
    }

    #[test]
    fn assign_dram_pointer_into_nvm_keeps_va() {
        let mut space = AddressSpace::new(3);
        let _pool = space.create_pool("p", 1 << 20).unwrap();
        let d = space.malloc(32).unwrap();
        let dp = UPtr::from_va(d);
        let mut eng = C11Engine::new(&space);
        let stored = eng.assign_value(PtrSpace::Nvm, dp).unwrap();
        assert_eq!(stored, dp);
        assert_eq!(eng.stats().conversions(), 0);
    }

    #[test]
    fn null_assignment_never_converts() {
        let (space, _, _) = setup();
        let mut eng = C11Engine::new(&space);
        assert_eq!(eng.assign_value(PtrSpace::Nvm, UPtr::NULL).unwrap(), UPtr::NULL);
        assert_eq!(eng.assign_value(PtrSpace::Dram, UPtr::NULL).unwrap(), UPtr::NULL);
        assert_eq!(eng.stats().conversions(), 0);
    }

    #[test]
    fn detached_pool_faults_conversions() {
        let (mut space, rel, _) = setup();
        let pool = rel.as_rel().unwrap().pool;
        space.detach(pool).unwrap();
        let mut eng = C11Engine::new(&space);
        assert!(matches!(eng.ra2va(rel), Err(HeapError::PoolDetached(_))));
        assert!(eng.to_int(rel).is_err());
        assert!(eng.eq(rel, rel).is_err()); // Fig. 10: checks fault, VN would not
    }

    #[test]
    fn bogus_pool_id_faults() {
        let (space, _, _) = setup();
        let mut eng = C11Engine::new(&space);
        let bogus = UPtr::from_rel(RelLoc::new(PoolId::new(12345), 0));
        assert!(eng.ra2va(bogus).is_err());
    }

    #[test]
    fn relocation_preserves_relative_semantics() {
        let (mut space, rel, _) = setup();
        let pool = rel.as_rel().unwrap().pool;
        let before = {
            let mut eng = C11Engine::new(&space);
            eng.deref_target(rel).unwrap()
        };
        space.detach(pool).unwrap();
        space.attach(pool).unwrap();
        let after = {
            let mut eng = C11Engine::new(&space);
            eng.deref_target(rel).unwrap()
        };
        // The virtual address moved, but the relative pointer still resolves
        // into the pool at the same offset.
        assert_ne!(before, after);
        assert_eq!(space.va2ra(before).unwrap_err(), HeapError::NotInAnyPool(before));
        assert_eq!(space.va2ra(after).unwrap(), rel.as_rel().unwrap());
    }
}
