//! Error types for the simulated heap.

use crate::addr::{PoolId, VirtAddr};
use std::fmt;

/// Errors raised by the simulated memory system.
///
/// These correspond to the faults the paper's hardware raises (Table I lists
/// fault conditions for `load`/`storeD`/`storeP`) plus ordinary allocator
/// failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HeapError {
    /// Access touched a virtual address with no mapping behind it.
    Unmapped(VirtAddr),
    /// A pool id that was never created (or has been destroyed).
    NoSuchPool(PoolId),
    /// The pool exists in the persistent store but is not currently attached
    /// to the address space, so it has no base virtual address.
    PoolDetached(PoolId),
    /// The id names an adopted (or lapsed) shared pool: this space holds
    /// none of its pages, so it cannot destroy it.
    NotOwned(PoolId),
    /// A pool with this name already exists in the persistent store.
    PoolExists(String),
    /// No pool with this name exists in the persistent store.
    NoSuchPoolName(String),
    /// An intra-pool offset fell outside the pool.
    OffsetOutOfPool {
        /// Pool being accessed.
        pool: PoolId,
        /// Offending offset.
        offset: u64,
        /// Pool size in bytes.
        size: u64,
    },
    /// `va2ra` was asked to translate a virtual address that belongs to no
    /// attached pool.
    NotInAnyPool(VirtAddr),
    /// Allocation failed: the region cannot satisfy the request.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
    },
    /// `free` was given an address that is not an allocated block.
    BadFree(u64),
    /// A region was opened whose header is not a valid allocator header.
    CorruptRegion(&'static str),
    /// The integrity layer detected damaged media: a sealed page's CRC no
    /// longer matches its bytes ([`crate::integrity`]). The pool is
    /// quarantined; access it through the salvage path.
    MediaCorruption {
        /// Pool whose image is damaged.
        pool: PoolId,
        /// First page whose checksum failed.
        page: u64,
    },
    /// A pool's versioned header (magic, format version, size, header CRC)
    /// failed validation on open/attach.
    BadPoolHeader {
        /// Which header field was rejected.
        reason: &'static str,
    },
    /// Address-space exhaustion while attaching a pool.
    NoAddressSpace,
    /// Requested pool size is invalid (zero, too large, or unaligned).
    BadPoolSize(u64),
    /// A simulated crash fired at an armed fault-injection point
    /// ([`crate::faults`]): the durable write that would have happened next
    /// was suppressed and the "process" must stop. Carries the number of
    /// durable writes that landed before the crash — the crash-point index.
    CrashInjected {
        /// Durable writes completed before the crash.
        writes: u64,
    },
    /// The soundness criterion failed: the same workload computed different
    /// answers under different build variants (§VII-B). Raised by the
    /// benchmark harness instead of panicking so worker threads can report
    /// a divergence as data.
    ModeDivergence {
        /// Benchmark whose modes disagreed.
        benchmark: &'static str,
        /// Human-readable `mode=checksum` listing of the disagreement.
        details: String,
    },
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::Unmapped(a) => write!(f, "access to unmapped address {a}"),
            HeapError::NoSuchPool(p) => write!(f, "no such pool {p}"),
            HeapError::PoolDetached(p) => write!(f, "{p} is detached"),
            HeapError::NotOwned(p) => write!(f, "{p} is a shared pool this space does not own"),
            HeapError::PoolExists(n) => write!(f, "pool named {n:?} already exists"),
            HeapError::NoSuchPoolName(n) => write!(f, "no pool named {n:?}"),
            HeapError::OffsetOutOfPool { pool, offset, size } => {
                write!(f, "offset {offset:#x} outside {pool} of size {size:#x}")
            }
            HeapError::NotInAnyPool(a) => write!(f, "address {a} belongs to no pool"),
            HeapError::OutOfMemory { requested } => {
                write!(f, "out of memory allocating {requested} bytes")
            }
            HeapError::BadFree(off) => write!(f, "free of non-allocated offset {off:#x}"),
            HeapError::CorruptRegion(why) => write!(f, "corrupt allocator region: {why}"),
            HeapError::MediaCorruption { pool, page } => {
                write!(f, "media corruption in {pool}: page {page} fails its checksum")
            }
            HeapError::BadPoolHeader { reason } => write!(f, "bad pool header: {reason}"),
            HeapError::NoAddressSpace => write!(f, "virtual address space exhausted"),
            HeapError::BadPoolSize(s) => write!(f, "invalid pool size {s:#x}"),
            HeapError::CrashInjected { writes } => {
                write!(f, "injected crash after {writes} durable writes")
            }
            HeapError::ModeDivergence { benchmark, details } => {
                write!(f, "modes disagree on {benchmark}: {details}")
            }
        }
    }
}

impl std::error::Error for HeapError {}

/// Convenience alias used across the heap crate.
pub type Result<T> = std::result::Result<T, HeapError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let samples: Vec<HeapError> = vec![
            HeapError::Unmapped(VirtAddr::new(4)),
            HeapError::NoSuchPool(PoolId::new(7)),
            HeapError::PoolDetached(PoolId::new(1)),
            HeapError::PoolExists("x".into()),
            HeapError::NoSuchPoolName("y".into()),
            HeapError::OffsetOutOfPool { pool: PoolId::new(2), offset: 9, size: 8 },
            HeapError::NotInAnyPool(VirtAddr::new(8)),
            HeapError::OutOfMemory { requested: 64 },
            HeapError::BadFree(16),
            HeapError::CorruptRegion("bad magic"),
            HeapError::MediaCorruption { pool: PoolId::new(3), page: 5 },
            HeapError::BadPoolHeader { reason: "unsupported format version" },
            HeapError::NoAddressSpace,
            HeapError::BadPoolSize(0),
            HeapError::CrashInjected { writes: 12 },
            HeapError::ModeDivergence { benchmark: "RB", details: "hw=0x1, sw=0x2".into() },
        ];
        for e in samples {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
        }
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<HeapError>();
    }
}
