//! End-to-end crash recovery of a whole key-value store: load 1,000 pairs
//! into a persistent red-black tree, crash the process, re-open the pool in
//! a new "run" (different mapping address), and read everything back.
//!
//! Run with: `cargo run --release --example crash_recovery`

use utpr::kv::workload::generate;
use utpr::prelude::*;

/// Builds a persistent KV store, crashes, reopens it and re-reads every
/// loaded key; returns the record count before the crash and after.
fn crash_and_recover_demo(spec: &WorkloadSpec) -> utpr::Result<(u64, u64)> {
    let mut space = AddressSpace::new(0xBEEF);
    let pool = space.create_pool("bench", 256 << 20)?;
    let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let w = generate(spec);
    let mut store: KvStore<RbTree> = KvStore::create(&mut env)?;
    store.load(&mut env, &w)?;
    let before = store.len(&mut env)?;
    env.set_root(site!("example.save-root", StackLocal), store.index().descriptor())?;

    env.space_mut().restart();
    env.space_mut().open_pool("bench")?;
    let desc = env.root(site!("example.load-root", KnownReturn))?;
    let mut reopened: KvStore<RbTree> = KvStore::open(desc);
    let after = reopened.len(&mut env)?;
    for k in &w.load_keys {
        assert_eq!(reopened.get(&mut env, *k)?, Some(k ^ 0x5a5a_5a5a_5a5a_5a5a));
    }
    Ok((before, after))
}

fn main() -> utpr::Result<()> {
    let spec = WorkloadSpec { records: 1_000, operations: 0, read_fraction: 0.95, seed: 77 };
    println!("loading {} records into a persistent RB-tree KV store...", spec.records);
    let (before, after) = crash_and_recover_demo(&spec)?;
    println!("records before crash: {before}");
    println!("records after recovery: {after}");
    println!("every key re-read with its original value — recovery complete.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_recovery_demo() {
        let spec = WorkloadSpec { records: 300, operations: 1500, read_fraction: 0.95, seed: 4 };
        let (before, after) = crash_and_recover_demo(&spec).unwrap();
        assert_eq!(before, after);
    }
}
