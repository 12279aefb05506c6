//! # utpr-ptr — user-transparent persistent references
//!
//! The core contribution of *"Supporting Legacy Libraries on Non-Volatile
//! Memory: A User-Transparent Approach"* (Ye et al., ISCA 2021), executable:
//! a single 64-bit pointer word that may hold either a conventional virtual
//! address or a relocation-stable relative address (pool id + offset), with
//! runtime checks that make every ISO C11 pointer operation behave
//! identically regardless of the format.
//!
//! The crate provides:
//!
//! - [`UPtr`] — the tagged pointer value (bit 63 selects the format,
//!   bit 47 of a virtual address selects the NVM half; paper Fig. 2);
//! - [`c11`] — the paper's Fig. 4 table as free functions over one
//!   conversion hook ([`c11::Translate`]); [`ExecEnv`] and the `utpr-cc` IR
//!   interpreter both execute them, each through its own hook, and the
//!   soundness test battery runs every property through all of them;
//! - [`ExecEnv`] — the instrumented environment on which the benchmarks run
//!   in the paper's four build variants ([`Mode`]), emitting the
//!   micro-architectural event stream ([`MemEvent`]) that `utpr-sim` prices;
//! - [`Site`]/[`Provenance`] — static pointer-operation sites and the
//!   compiler's per-site knowledge (validated against `utpr-cc`'s dataflow
//!   inference).
//!
//! ## Quick start
//!
//! ```
//! use utpr_heap::AddressSpace;
//! use utpr_ptr::{site, CountingSink, ExecEnv, Mode};
//!
//! let mut space = AddressSpace::new(1);
//! let pool = space.create_pool("list", 1 << 20)?;
//! let mut env = ExecEnv::builder(space)
//!     .mode(Mode::Hw)
//!     .pool(pool)
//!     .sink(CountingSink::new())
//!     .build();
//!
//! // Build a two-node persistent list exactly as legacy code would.
//! let head = env.alloc(site!("ex.head", AllocResult), 16)?;
//! let tail = env.alloc(site!("ex.tail", AllocResult), 16)?;
//! env.write_u64(site!("ex.val", StackLocal), head, 0, 1)?;
//! env.write_ptr(site!("ex.next", StackLocal), head, 8, tail)?;
//!
//! // The pointer stored in NVM is in relative (relocatable) format:
//! assert_ne!(env.peek_raw(head, 8)? & (1 << 63), 0);
//! # Ok::<(), utpr_heap::HeapError>(())
//! ```

pub mod c11;
pub mod env;
pub mod event;
pub mod ptr;
pub mod site;
pub mod stats;

pub use env::{branch_kind, CheckPolicy, ExecEnv, ExecEnvBuilder, Mode, Placement};
pub use event::{CountingSink, MemEvent, NullSink, TimingSink};
pub use ptr::{PtrFormat, PtrKind, PtrSpace, UPtr};
pub use site::{Provenance, Site, PC_DETERMINE_Y_HELPER, PC_PA_DETERMINE_X, PC_PA_DETERMINE_Y};
pub use stats::PtrStats;
