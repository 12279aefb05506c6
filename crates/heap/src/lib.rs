//! # utpr-heap — simulated NVM/DRAM memory substrate
//!
//! This crate models the memory system underneath *user-transparent
//! persistent references* (Ye et al., ISCA 2021): a 48-bit virtual address
//! space split into a DRAM half and an NVM half (bit 47), persistent memory
//! object pools that attach at OS-chosen (and changing) base addresses, and
//! allocators whose metadata lives inside the managed memory so that pools
//! are genuinely reopenable after a crash.
//!
//! The paper evaluates on real hardware plus the Sniper simulator; here the
//! whole memory system is simulated so that pool relocation, detach faults,
//! and crash restarts can be exercised deterministically in tests.
//!
//! ## Quick start
//!
//! ```
//! use utpr_heap::AddressSpace;
//!
//! let mut space = AddressSpace::new(42);
//! let pool = space.create_pool("accounts", 1 << 20)?;
//!
//! // Allocate persistently; the RelLoc stays valid across restarts.
//! let loc = space.pmalloc(pool, 64)?;
//! let va = space.ra2va(loc)?;
//! space.write_u64(va, 123)?;
//!
//! space.restart();               // crash: DRAM gone, pools survive
//! space.open_pool("accounts")?;  // re-attach (likely at a new base)
//! let va_after = space.ra2va(loc)?;
//! assert_eq!(space.read_u64(va_after)?, 123);
//! # Ok::<(), utpr_heap::HeapError>(())
//! ```

pub mod addr;
pub mod alloc;
pub mod error;
pub mod faults;
pub mod integrity;
pub mod lookaside;
mod media;
pub mod pagestore;
mod persist;
pub mod pool;
pub mod retain;
pub mod scrub;
pub mod shard;
pub mod space;
pub mod txn;

pub use addr::{PoolId, RelLoc, VirtAddr};
pub use alloc::{Region, SalvageBlock, SalvageReport, SalvageStats};
pub use error::{HeapError, Result};
pub use faults::{crash_and_recover, inject_bitflips, select_points, FaultPlan, GateVerdict, Recovery};
pub use integrity::{classify_pages, crc32, IntegrityMode, PageVerdict, PoolScrub, FORMAT_VERSION};
pub use retain::{decay_draw, PageWear, RetentionConfig, WearStats, WearTable, DECAY_SCALE};
pub use scrub::{ScrubConfig, ScrubStats, Scrubber};
pub use pagestore::PageStore;
pub use pool::{PoolImage, PoolStore};
pub use shard::{SharedPool, SlabId};
pub use lookaside::TransStats;
pub use txn::{UndoLog, MAX_LOG_SLOTS};
pub use space::{AddressSpace, Attachment, FlushModel};
