//! # utpr-sim — interval timing model of the paper's architecture support
//!
//! An interval-based processor model in the spirit of Sniper (the simulator
//! the paper evaluates on), configured per the paper's Table IV: three-level
//! cache hierarchy, two-level TLB, gshare branch predictor with an 8-cycle
//! misprediction penalty, DRAM at 120 cycles and NVM at 240, plus the
//! paper's new structures — the POLB (pool id → base address), the VALB
//! (address → pool id range TCAM), and the storeP functional unit.
//!
//! A [`Machine`] implements [`utpr_ptr::TimingSink`], so it can be plugged
//! directly into an `ExecEnv` and prices the event stream as the paper's
//! hardware would:
//!
//! ```
//! use utpr_heap::AddressSpace;
//! use utpr_ptr::{site, ExecEnv, Mode};
//! use utpr_sim::{Machine, SimConfig};
//!
//! let mut space = AddressSpace::new(3);
//! let pool = space.create_pool("p", 1 << 20)?;
//! let machine = Machine::new(SimConfig::table_iv());
//! let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).sink(machine).build();
//!
//! let node = env.alloc(site!("doc.alloc", AllocResult), 32)?;
//! env.write_u64(site!("doc.store", StackLocal), node, 0, 1)?;
//! assert!(env.sink().cycles() > 0.0);
//! # Ok::<(), utpr_heap::HeapError>(())
//! ```

pub mod branch;
pub mod cache;
pub mod config;
pub mod cost;
pub mod lookaside;
pub mod machine;
mod setassoc;
pub mod stats;
pub mod tlb;

pub use config::{CacheCfg, LookasideCfg, SimConfig, TlbCfg};
pub use lookaside::RangeEntry;
pub use machine::Machine;
pub use stats::SimStats;
