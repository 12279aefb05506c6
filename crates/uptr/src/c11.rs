//! The ISO C11 pointer-operation semantics under user-transparent persistent
//! references — the paper's Fig. 4 table, written once.
//!
//! Every operation the C11 standard permits on pointers is given a semantics
//! that is *observationally identical* to native pointers regardless of the
//! operand's storage format (virtual or relative). The dynamic format checks
//! resolve differences exactly where the table's filled boxes require a
//! conversion; everywhere else the raw value flows through unchanged.
//!
//! The rules are free functions generic over one conversion hook,
//! [`Translate`]: the only place a rule turns a relative location into a
//! virtual address or back. Each executor supplies the hook, and the hook is
//! where it counts the conversion and narrates it, so every conversion's
//! events keep their place in the stream, error paths included:
//!
//! - [`Core`], over `&AddressSpace` + `&mut PtrStats`, is the bare
//!   semantics: it counts conversions and emits nothing;
//! - [`crate::ExecEnv`] emits its mode's POLB/VALB or software-conversion
//!   events; its SW checks, site cache and Explicit-mode object-id compare
//!   wrap the calls;
//! - the `utpr-cc` IR interpreter counts into its `InterpStats`, on the
//!   tree-walking and the decoded path alike.
//!
//! Integer-to-pointer casts (`UPtr::from_raw`), `p + i` ([`UPtr::offset`])
//! and truth tests (`!p.is_null()`) never convert, so they need no rule here.
//! The soundness battery (`tests/soundness_c11.rs`, the analogue of the
//! paper's LLVM test-suite evaluation) runs each property through all three
//! executors.

use crate::ptr::{PtrFormat, PtrKind, PtrSpace, UPtr};
use crate::stats::PtrStats;
use std::cmp::Ordering;
use utpr_heap::addr::VirtAddr;
use utpr_heap::{AddressSpace, HeapError, RelLoc};

/// Result alias for semantic operations (faults are heap errors: detached
/// pools, out-of-pool offsets, unmapped addresses).
pub type Result<T> = std::result::Result<T, HeapError>;

/// The conversion hook every rule calls: an executor's `ra2va` and `va2ra`,
/// with whatever counting and narration that executor attaches to them.
pub trait Translate {
    /// `ra2va`: the virtual address of a relative location.
    ///
    /// # Errors
    ///
    /// Faults when the pool is detached or the offset exceeds the pool.
    fn ra2va(&mut self, loc: RelLoc) -> Result<VirtAddr>;

    /// `va2ra`: the relative location of a persistent-half virtual address.
    ///
    /// # Errors
    ///
    /// Faults when the address lies inside no attached pool.
    fn va2ra(&mut self, va: VirtAddr) -> Result<RelLoc>;
}

/// The bare semantics: translation through the address space, with
/// conversion counts accumulated into `stats`.
///
/// # Examples
///
/// ```
/// use utpr_heap::AddressSpace;
/// use utpr_ptr::c11::{self, Core};
/// use utpr_ptr::{PtrStats, UPtr};
///
/// let mut space = AddressSpace::new(1);
/// let pool = space.create_pool("p", 1 << 20)?;
/// let rel = UPtr::from_rel(space.pmalloc(pool, 64)?);
///
/// let mut stats = PtrStats::new();
/// let mut core = Core { space: &space, stats: &mut stats };
/// let va = UPtr::from_va(c11::deref_target(&mut core, rel)?); // one rel→abs
/// assert!(c11::eq(&mut core, rel, va)?);                      // same object
/// assert_eq!(stats.rel_to_abs, 2);
/// # Ok::<(), utpr_heap::HeapError>(())
/// ```
#[derive(Debug)]
pub struct Core<'a> {
    /// The address space conversions read.
    pub space: &'a AddressSpace,
    /// Where conversions are counted.
    pub stats: &'a mut PtrStats,
}

impl Translate for Core<'_> {
    #[inline]
    fn ra2va(&mut self, loc: RelLoc) -> Result<VirtAddr> {
        let va = self.space.ra2va(loc)?;
        self.stats.rel_to_abs += 1;
        Ok(va)
    }

    #[inline]
    fn va2ra(&mut self, va: VirtAddr) -> Result<RelLoc> {
        let loc = self.space.va2ra(va)?;
        self.stats.abs_to_rel += 1;
        Ok(loc)
    }
}

/// `(I)p` — cast pointer to integer. A relative pointer is first converted
/// to its virtual address (Fig. 4: `$$ = ra2va(pxr.val)`), so integer
/// round-trips behave exactly as with native pointers; virtual and null
/// pointers pass through. The other rules normalize operands with it.
///
/// # Errors
///
/// Faults if a relative operand's pool is detached.
#[inline]
pub fn to_int<T: Translate>(t: &mut T, p: UPtr) -> Result<u64> {
    match p.kind() {
        PtrKind::Rel(loc) => Ok(t.ra2va(loc)?.raw()),
        _ => Ok(p.raw()),
    }
}

/// `*p`, `p->f`, `p[i]` address resolution: the virtual address a
/// dereference of `p` (already offset to the field or element) accesses.
///
/// # Errors
///
/// Faults on null and on relative pointers whose pool is detached.
#[inline]
pub fn deref_target<T: Translate>(t: &mut T, p: UPtr) -> Result<VirtAddr> {
    match p.kind() {
        PtrKind::Null => Err(HeapError::Unmapped(VirtAddr::new(0))),
        PtrKind::Va(va) => Ok(va),
        PtrKind::Rel(loc) => t.ra2va(loc),
    }
}

/// `p - q` in bytes. Two relative pointers subtract their raw values
/// directly (within one pool this is the offset distance); mixed-format
/// operands normalize to virtual addresses first.
///
/// # Errors
///
/// Faults when a needed conversion hits a detached pool.
#[inline]
pub fn diff<T: Translate>(t: &mut T, a: UPtr, b: UPtr) -> Result<i64> {
    if a.format() == PtrFormat::Relative && b.format() == PtrFormat::Relative {
        return Ok(a.raw().wrapping_sub(b.raw()) as i64);
    }
    let av = to_int(t, a)?;
    Ok(av.wrapping_sub(to_int(t, b)?) as i64)
}

/// `p == q` (and `!=` by negation). Operands are normalized to virtual
/// addresses so a relative and a virtual pointer to the same object compare
/// equal. Null compares by raw value without conversion.
///
/// # Errors
///
/// Faults when a needed conversion hits a detached pool.
#[inline]
pub fn eq<T: Translate>(t: &mut T, a: UPtr, b: UPtr) -> Result<bool> {
    if a.is_null() || b.is_null() {
        return Ok(a.raw() == b.raw());
    }
    let av = to_int(t, a)?;
    Ok(av == to_int(t, b)?)
}

/// `<, >, <=, >=` — ordering over the virtual addresses. Null orders by raw
/// value (below every object) without conversion, as in [`eq`].
///
/// # Errors
///
/// Faults when a needed conversion hits a detached pool.
#[inline]
pub fn cmp<T: Translate>(t: &mut T, a: UPtr, b: UPtr) -> Result<Ordering> {
    if a.is_null() || b.is_null() {
        return Ok(a.raw().cmp(&b.raw()));
    }
    let av = to_int(t, a)?;
    Ok(av.cmp(&to_int(t, b)?))
}

/// The value transformation of `pointerAssignment` (paper Fig. 3): the
/// format in which `p` must be stored at a destination residing in `dest`
/// space.
///
/// - destination in NVM: persistent-half virtual addresses convert to
///   relative (`va2ra`) so they stay valid across relocation; relative values
///   pass through; DRAM virtual addresses are stored verbatim (they cannot be
///   made relocation-stable — such a pointer is only meaningful within the
///   current run, exactly as in C).
/// - destination in DRAM (a heap word, or a local a loaded pointer is bound
///   to): relative values convert to virtual (`ra2va`); virtual values pass
///   through.
///
/// Null is stored as null with no conversion.
///
/// # Errors
///
/// Faults when a needed conversion hits a detached pool or an address in no
/// pool.
#[inline]
pub fn assign_value<T: Translate>(t: &mut T, dest: PtrSpace, p: UPtr) -> Result<UPtr> {
    match (dest, p.kind()) {
        (PtrSpace::Nvm, PtrKind::Va(va)) if va.is_nvm_region() => Ok(UPtr::from_rel(t.va2ra(va)?)),
        (PtrSpace::Dram, PtrKind::Rel(loc)) => Ok(UPtr::from_va(t.ra2va(loc)?)),
        _ => Ok(p),
    }
}

/// Where `free(p)` returns a block: the allocator of the space the pointer
/// designates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FreeTarget {
    /// `free(NULL)` is a no-op, as in C.
    Nothing,
    /// A persistent block, by pool location (`pfree`).
    Pool(RelLoc),
    /// A volatile block (`mfree`).
    Dram(VirtAddr),
}

impl FreeTarget {
    /// Returns the block to its allocator.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn free(self, space: &mut AddressSpace) -> Result<()> {
        match self {
            FreeTarget::Nothing => Ok(()),
            FreeTarget::Pool(loc) => space.pfree(loc),
            FreeTarget::Dram(va) => space.mfree(va),
        }
    }
}

/// The `free` rule: null frees nothing, an NVM virtual address converts
/// (`va2ra`) and frees in its pool, a DRAM address frees on the volatile
/// heap, and a relative pointer frees in its pool.
///
/// # Errors
///
/// Faults when an NVM virtual address lies in no attached pool.
#[inline]
pub fn free_target<T: Translate>(t: &mut T, p: UPtr) -> Result<FreeTarget> {
    Ok(match p.kind() {
        PtrKind::Null => FreeTarget::Nothing,
        PtrKind::Va(va) if va.is_nvm_region() => FreeTarget::Pool(t.va2ra(va)?),
        PtrKind::Va(va) => FreeTarget::Dram(va),
        PtrKind::Rel(loc) => FreeTarget::Pool(loc),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use utpr_heap::PoolId;

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
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        // (I)pxr == (I)pxv for the same object.
        let ir = to_int(&mut core, rel).unwrap();
        let iv = to_int(&mut core, va).unwrap();
        assert_eq!(ir, iv);
        // (T*)(I)p dereferences the same object.
        let back = UPtr::from_raw(ir);
        assert_eq!(
            deref_target(&mut core, back).unwrap(),
            deref_target(&mut core, rel).unwrap()
        );
    }

    #[test]
    fn deref_target_same_for_both_formats() {
        let (space, rel, va) = setup();
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        assert_eq!(
            deref_target(&mut core, rel).unwrap(),
            deref_target(&mut core, va).unwrap()
        );
        assert_eq!(stats.rel_to_abs, 1);
    }

    #[test]
    fn deref_null_faults() {
        let (space, _, _) = setup();
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        assert!(deref_target(&mut core, UPtr::NULL).is_err());
    }

    #[test]
    fn additive_ops_preserve_format_and_value() {
        let (space, rel, va) = setup();
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        for d in [0i64, 8, 24, -8] {
            let r2 = rel.offset(32).offset(d);
            let v2 = va.offset(32).offset(d);
            assert_eq!(r2.format(), PtrFormat::Relative);
            assert_eq!(v2.format(), PtrFormat::Virtual);
            assert_eq!(
                deref_target(&mut core, r2).unwrap(),
                deref_target(&mut core, v2).unwrap()
            );
        }
    }

    #[test]
    fn diff_consistent_across_formats() {
        let (space, rel, va) = setup();
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        let r2 = rel.offset(40);
        let v2 = va.offset(40);
        assert_eq!(diff(&mut core, r2, rel).unwrap(), 40);
        assert_eq!(diff(&mut core, v2, va).unwrap(), 40);
        assert_eq!(diff(&mut core, r2, va).unwrap(), 40);
        assert_eq!(diff(&mut core, v2, rel).unwrap(), 40);
        assert_eq!(diff(&mut core, rel, r2).unwrap(), -40);
    }

    #[test]
    fn equality_across_formats() {
        let (space, rel, va) = setup();
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        assert!(eq(&mut core, rel, va).unwrap());
        assert!(eq(&mut core, va, rel).unwrap());
        assert!(!eq(&mut core, rel.offset(8), va).unwrap());
        assert!(!eq(&mut core, rel, UPtr::NULL).unwrap());
        assert!(eq(&mut core, UPtr::NULL, UPtr::NULL).unwrap());
    }

    #[test]
    fn relational_across_formats() {
        let (space, rel, va) = setup();
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        assert_eq!(cmp(&mut core, rel, va.offset(8)).unwrap(), Ordering::Less);
        assert_eq!(
            cmp(&mut core, rel.offset(8), va).unwrap(),
            Ordering::Greater
        );
        assert_eq!(cmp(&mut core, rel, va).unwrap(), Ordering::Equal);
    }

    #[test]
    fn assign_to_nvm_converts_nvm_va_to_rel() {
        let (space, rel, va) = setup();
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        let stored = assign_value(&mut core, PtrSpace::Nvm, va).unwrap();
        assert_eq!(stored, rel);
        assert_eq!(core.stats.abs_to_rel, 1);
        // Relative stays relative with no conversion.
        let stored2 = assign_value(&mut core, PtrSpace::Nvm, rel).unwrap();
        assert_eq!(stored2, rel);
        assert_eq!(stats.abs_to_rel, 1);
    }

    #[test]
    fn assign_to_dram_converts_rel_to_va() {
        let (space, rel, va) = setup();
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        let stored = assign_value(&mut core, PtrSpace::Dram, rel).unwrap();
        assert_eq!(stored, va);
        assert_eq!(core.stats.rel_to_abs, 1);
        let stored2 = assign_value(&mut core, PtrSpace::Dram, va).unwrap();
        assert_eq!(stored2, va);
        assert_eq!(stats.rel_to_abs, 1);
    }

    #[test]
    fn assign_dram_pointer_into_nvm_keeps_va() {
        let mut space = AddressSpace::new(3);
        let _pool = space.create_pool("p", 1 << 20).unwrap();
        let d = space.malloc(32).unwrap();
        let dp = UPtr::from_va(d);
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        let stored = assign_value(&mut core, PtrSpace::Nvm, dp).unwrap();
        assert_eq!(stored, dp);
        assert_eq!(stats.conversions(), 0);
    }

    #[test]
    fn null_assignment_never_converts() {
        let (space, _, _) = setup();
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        assert_eq!(
            assign_value(&mut core, PtrSpace::Nvm, UPtr::NULL).unwrap(),
            UPtr::NULL
        );
        assert_eq!(
            assign_value(&mut core, PtrSpace::Dram, UPtr::NULL).unwrap(),
            UPtr::NULL
        );
        assert_eq!(stats.conversions(), 0);
    }

    #[test]
    fn detached_pool_faults_conversions() {
        let (mut space, rel, _) = setup();
        let pool = rel.as_rel().unwrap().pool;
        space.detach(pool).unwrap();
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        assert!(matches!(
            deref_target(&mut core, rel),
            Err(HeapError::PoolDetached(_))
        ));
        assert!(to_int(&mut core, rel).is_err());
        assert!(eq(&mut core, rel, rel).is_err()); // Fig. 10: checks fault, VN would not
        assert_eq!(stats.conversions(), 0);
    }

    #[test]
    fn bogus_pool_id_faults() {
        let (space, _, _) = setup();
        let mut stats = PtrStats::new();
        let mut core = Core {
            space: &space,
            stats: &mut stats,
        };
        let bogus = UPtr::from_rel(RelLoc::new(PoolId::new(12345), 0));
        assert!(deref_target(&mut core, bogus).is_err());
    }

    #[test]
    fn relocation_preserves_relative_semantics() {
        let (mut space, rel, _) = setup();
        let pool = rel.as_rel().unwrap().pool;
        let mut stats = PtrStats::new();
        let before = deref_target(
            &mut Core {
                space: &space,
                stats: &mut stats,
            },
            rel,
        )
        .unwrap();
        space.detach(pool).unwrap();
        space.attach(pool).unwrap();
        let after = deref_target(
            &mut Core {
                space: &space,
                stats: &mut stats,
            },
            rel,
        )
        .unwrap();
        // The virtual address moved, but the relative pointer still resolves
        // into the pool at the same offset.
        assert_ne!(before, after);
        assert_eq!(
            space.va2ra(before).unwrap_err(),
            HeapError::NotInAnyPool(before)
        );
        assert_eq!(space.va2ra(after).unwrap(), rel.as_rel().unwrap());
    }
}
