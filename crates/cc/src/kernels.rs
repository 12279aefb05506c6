//! Representative pointer-chasing kernels in IR form.
//!
//! These are the code shapes the paper's benchmarks execute — list pushes
//! and walks, BST descent with child-link updates, hash-bucket chains,
//! pointer swaps — expressed in the mini-IR so the inference pass and the
//! interpreter can (a) validate soundness against native Rust execution and
//! (b) measure how many dynamic checks survive inference (the paper reports
//! ≈ 42 % surviving on its benchmarks).

use crate::ir::{CmpOp, FnBuilder, IntOp, Module, Operand, Operand::*};

/// Builds the full kernel module.
///
/// Node layouts (all fields 8 bytes):
/// - list node: `[value, next]`
/// - BST node: `[key, left, right]`
/// - hash node: `[key, value, next]`
pub fn module() -> Module {
    let mut m = Module::new();
    m.add(list_push());
    m.add(list_sum());
    m.add(bst_insert());
    m.add(bst_contains());
    m.add(hash_put());
    m.add(hash_get());
    m.add(swap());
    m.add(memfill());
    m.add(list_build_and_sum());
    m.add(bst_build_and_probe());
    m.add(hash_build_and_probe());
    debug_assert!(m.verify().is_ok());
    m
}

/// Names of the whole-program drivers — the paper-kernel entry points the
/// bench tier runs (and the natural interprocedural inference roots).
pub const DRIVERS: [&str; 3] =
    ["list_build_and_sum", "bst_build_and_probe", "hash_build_and_probe"];

/// `void list_push(void** slot, long value)` — prepend a node.
fn list_push() -> crate::ir::Function {
    let mut b = FnBuilder::new("list_push", 2);
    let slot = b.param(0);
    let value = b.param(1);
    let n = b.fresh();
    b.pmalloc(n, Imm(16));
    b.store(Reg(n), 0, Reg(value));
    let old = b.fresh();
    b.load_ptr(old, Reg(slot), 0);
    b.store_ptr(Reg(n), 8, Reg(old));
    b.store_ptr(Reg(slot), 0, Reg(n));
    b.ret(None);
    b.finish()
}

/// `long list_sum(void** slot)` — walk and accumulate.
fn list_sum() -> crate::ir::Function {
    let mut b = FnBuilder::new("list_sum", 1);
    let slot = b.param(0);
    let sum = b.fresh();
    let p = b.fresh();
    let loop_bb = b.new_block();
    let body = b.new_block();
    let done = b.new_block();

    b.const_int(sum, 0);
    b.load_ptr(p, Reg(slot), 0);
    b.br(loop_bb);

    b.switch_to(loop_bb);
    let c = b.fresh();
    b.cmp_ptr(c, CmpOp::Ne, Reg(p), Null);
    b.cond_br(Reg(c), body, done);

    b.switch_to(body);
    let v = b.fresh();
    b.load(v, Reg(p), 0);
    b.int_add(sum, Reg(sum), Reg(v));
    b.load_ptr(p, Reg(p), 8);
    b.br(loop_bb);

    b.switch_to(done);
    b.ret(Some(Reg(sum)));
    b.finish()
}

/// `void bst_insert(void** root_slot, long key)`.
fn bst_insert() -> crate::ir::Function {
    let mut b = FnBuilder::new("bst_insert", 2);
    let slot = b.param(0);
    let key = b.param(1);
    let n = b.fresh();
    let cur = b.fresh();

    let empty = b.new_block();
    let descend = b.new_block();
    let loop_bb = b.new_block();
    let left = b.new_block();
    let attach_left = b.new_block();
    let step_left = b.new_block();
    let right = b.new_block();
    let attach_right = b.new_block();
    let step_right = b.new_block();

    b.pmalloc(n, Imm(24));
    b.store(Reg(n), 0, Reg(key));
    b.store_ptr(Reg(n), 8, Null);
    b.store_ptr(Reg(n), 16, Null);
    let root = b.fresh();
    b.load_ptr(root, Reg(slot), 0);
    let c = b.fresh();
    b.cmp_ptr(c, CmpOp::Eq, Reg(root), Null);
    b.cond_br(Reg(c), empty, descend);

    b.switch_to(empty);
    b.store_ptr(Reg(slot), 0, Reg(n));
    b.ret(None);

    b.switch_to(descend);
    b.copy(cur, Reg(root));
    b.br(loop_bb);

    b.switch_to(loop_bb);
    let k = b.fresh();
    b.load(k, Reg(cur), 0);
    let goleft = b.fresh();
    b.cmp_int(goleft, CmpOp::Lt, Reg(key), Reg(k));
    b.cond_br(Reg(goleft), left, right);

    b.switch_to(left);
    let lc = b.fresh();
    b.load_ptr(lc, Reg(cur), 8);
    let cl = b.fresh();
    b.cmp_ptr(cl, CmpOp::Eq, Reg(lc), Null);
    b.cond_br(Reg(cl), attach_left, step_left);

    b.switch_to(attach_left);
    b.store_ptr(Reg(cur), 8, Reg(n));
    b.ret(None);

    b.switch_to(step_left);
    b.copy(cur, Reg(lc));
    b.br(loop_bb);

    b.switch_to(right);
    let rc = b.fresh();
    b.load_ptr(rc, Reg(cur), 16);
    let cr = b.fresh();
    b.cmp_ptr(cr, CmpOp::Eq, Reg(rc), Null);
    b.cond_br(Reg(cr), attach_right, step_right);

    b.switch_to(attach_right);
    b.store_ptr(Reg(cur), 16, Reg(n));
    b.ret(None);

    b.switch_to(step_right);
    b.copy(cur, Reg(rc));
    b.br(loop_bb);

    b.finish()
}

/// `long bst_contains(void** root_slot, long key)` → 0/1.
fn bst_contains() -> crate::ir::Function {
    let mut b = FnBuilder::new("bst_contains", 2);
    let slot = b.param(0);
    let key = b.param(1);
    let cur = b.fresh();

    let loop_bb = b.new_block();
    let check = b.new_block();
    let step = b.new_block();
    let goleft = b.new_block();
    let goright = b.new_block();
    let found = b.new_block();
    let missing = b.new_block();

    b.load_ptr(cur, Reg(slot), 0);
    b.br(loop_bb);

    b.switch_to(loop_bb);
    let c = b.fresh();
    b.cmp_ptr(c, CmpOp::Eq, Reg(cur), Null);
    b.cond_br(Reg(c), missing, check);

    b.switch_to(check);
    let k = b.fresh();
    b.load(k, Reg(cur), 0);
    let eq = b.fresh();
    b.cmp_int(eq, CmpOp::Eq, Reg(key), Reg(k));
    b.cond_br(Reg(eq), found, step);

    b.switch_to(step);
    let lt = b.fresh();
    b.cmp_int(lt, CmpOp::Lt, Reg(key), Reg(k));
    b.cond_br(Reg(lt), goleft, goright);

    b.switch_to(goleft);
    b.load_ptr(cur, Reg(cur), 8);
    b.br(loop_bb);

    b.switch_to(goright);
    b.load_ptr(cur, Reg(cur), 16);
    b.br(loop_bb);

    b.switch_to(found);
    b.ret(Some(Imm(1)));

    b.switch_to(missing);
    b.ret(Some(Imm(0)));
    b.finish()
}

/// `void hash_put(void* table, long mask, long key, long value)`.
fn hash_put() -> crate::ir::Function {
    let mut b = FnBuilder::new("hash_put", 4);
    let table = b.param(0);
    let mask = b.param(1);
    let key = b.param(2);
    let value = b.param(3);

    let idx = b.fresh();
    b.int_op(idx, IntOp::And, Reg(key), Reg(mask));
    let off = b.fresh();
    b.int_op(off, IntOp::Mul, Reg(idx), Imm(8));
    let slot = b.fresh();
    b.gep(slot, Reg(table), Reg(off));
    let n = b.fresh();
    b.pmalloc(n, Imm(24));
    b.store(Reg(n), 0, Reg(key));
    b.store(Reg(n), 8, Reg(value));
    let old = b.fresh();
    b.load_ptr(old, Reg(slot), 0);
    b.store_ptr(Reg(n), 16, Reg(old));
    b.store_ptr(Reg(slot), 0, Reg(n));
    b.ret(None);
    b.finish()
}

/// `long hash_get(void* table, long mask, long key)` → value or −1.
fn hash_get() -> crate::ir::Function {
    let mut b = FnBuilder::new("hash_get", 3);
    let table = b.param(0);
    let mask = b.param(1);
    let key = b.param(2);

    let loop_bb = b.new_block();
    let check = b.new_block();
    let step = b.new_block();
    let hit = b.new_block();
    let miss = b.new_block();

    let idx = b.fresh();
    b.int_op(idx, IntOp::And, Reg(key), Reg(mask));
    let off = b.fresh();
    b.int_op(off, IntOp::Mul, Reg(idx), Imm(8));
    let slot = b.fresh();
    b.gep(slot, Reg(table), Reg(off));
    let p = b.fresh();
    b.load_ptr(p, Reg(slot), 0);
    b.br(loop_bb);

    b.switch_to(loop_bb);
    let c = b.fresh();
    b.cmp_ptr(c, CmpOp::Eq, Reg(p), Null);
    b.cond_br(Reg(c), miss, check);

    b.switch_to(check);
    let k = b.fresh();
    b.load(k, Reg(p), 0);
    let eq = b.fresh();
    b.cmp_int(eq, CmpOp::Eq, Reg(key), Reg(k));
    b.cond_br(Reg(eq), hit, step);

    b.switch_to(step);
    b.load_ptr(p, Reg(p), 16);
    b.br(loop_bb);

    b.switch_to(hit);
    let v = b.fresh();
    b.load(v, Reg(p), 8);
    b.ret(Some(Reg(v)));

    b.switch_to(miss);
    b.ret(Some(Imm(-1)));
    b.finish()
}

/// `void swap(void** a, void** b)` — exchange two stored pointers.
fn swap() -> crate::ir::Function {
    let mut b = FnBuilder::new("swap", 2);
    let a = b.param(0);
    let c = b.param(1);
    let x = b.fresh();
    let y = b.fresh();
    b.load_ptr(x, Reg(a), 0);
    b.load_ptr(y, Reg(c), 0);
    b.store_ptr(Reg(a), 0, Reg(y));
    b.store_ptr(Reg(c), 0, Reg(x));
    b.ret(None);
    b.finish()
}

/// `void memfill(void* p, long words, long v)`.
fn memfill() -> crate::ir::Function {
    let mut b = FnBuilder::new("memfill", 3);
    let p = b.param(0);
    let words = b.param(1);
    let v = b.param(2);
    let i = b.fresh();

    let loop_bb = b.new_block();
    let body = b.new_block();
    let done = b.new_block();

    b.const_int(i, 0);
    b.br(loop_bb);

    b.switch_to(loop_bb);
    let c = b.fresh();
    b.cmp_int(c, CmpOp::Lt, Reg(i), Reg(words));
    b.cond_br(Reg(c), body, done);

    b.switch_to(body);
    let off = b.fresh();
    b.int_op(off, IntOp::Mul, Reg(i), Imm(8));
    let q = b.fresh();
    b.gep(q, Reg(p), Reg(off));
    b.store(Reg(q), 0, Reg(v));
    b.int_add(i, Reg(i), Imm(1));
    b.br(loop_bb);

    b.switch_to(done);
    b.ret(None);
    b.finish()
}

/// `long list_build_and_sum(long n)` — allocates a slot, pushes `1..=n`,
/// sums. Exercises calls and whole-program flow.
fn list_build_and_sum() -> crate::ir::Function {
    let mut b = FnBuilder::new("list_build_and_sum", 1);
    let n = b.param(0);
    let slot = b.fresh();
    let i = b.fresh();

    let loop_bb = b.new_block();
    let body = b.new_block();
    let done = b.new_block();

    b.pmalloc(slot, Imm(8));
    b.store_ptr(Reg(slot), 0, Null);
    b.const_int(i, 1);
    b.br(loop_bb);

    b.switch_to(loop_bb);
    let c = b.fresh();
    b.cmp_int(c, CmpOp::Le, Reg(i), Reg(n));
    b.cond_br(Reg(c), body, done);

    b.switch_to(body);
    b.call(None, "list_push", vec![Operand::Reg(slot), Operand::Reg(i)]);
    b.int_add(i, Reg(i), Imm(1));
    b.br(loop_bb);

    b.switch_to(done);
    let s = b.fresh();
    b.call(Some(s), "list_sum", vec![Operand::Reg(slot)]);
    b.ret(Some(Reg(s)));
    b.finish()
}

/// `long bst_build_and_probe(long n)` — allocates a root slot, inserts
/// `n` scrambled keys, then counts how many probe back positive. Exercises
/// whole-program flow into the BST kernels.
fn bst_build_and_probe() -> crate::ir::Function {
    let mut b = FnBuilder::new("bst_build_and_probe", 1);
    let n = b.param(0);
    let slot = b.fresh();
    let i = b.fresh();
    let acc = b.fresh();

    let loop_bb = b.new_block();
    let body = b.new_block();
    let probe_bb = b.new_block();
    let pcheck = b.new_block();
    let pbody = b.new_block();
    let done = b.new_block();

    b.pmalloc(slot, Imm(8));
    b.store_ptr(Reg(slot), 0, Null);
    b.const_int(i, 0);
    b.const_int(acc, 0);
    b.br(loop_bb);

    b.switch_to(loop_bb);
    let c = b.fresh();
    b.cmp_int(c, CmpOp::Lt, Reg(i), Reg(n));
    b.cond_br(Reg(c), body, probe_bb);

    b.switch_to(body);
    // Scrambled key stream with duplicates: (i * 37) & 63.
    let k = b.fresh();
    b.int_op(k, IntOp::Mul, Reg(i), Imm(37));
    b.int_op(k, IntOp::And, Reg(k), Imm(63));
    b.call(None, "bst_insert", vec![Operand::Reg(slot), Operand::Reg(k)]);
    b.int_add(i, Reg(i), Imm(1));
    b.br(loop_bb);

    b.switch_to(probe_bb);
    b.const_int(i, 0);
    b.br(pcheck);

    b.switch_to(pcheck);
    let c2 = b.fresh();
    b.cmp_int(c2, CmpOp::Lt, Reg(i), Reg(n));
    b.cond_br(Reg(c2), pbody, done);

    b.switch_to(pbody);
    let k2 = b.fresh();
    b.int_op(k2, IntOp::Mul, Reg(i), Imm(37));
    b.int_op(k2, IntOp::And, Reg(k2), Imm(63));
    let hit = b.fresh();
    b.call(Some(hit), "bst_contains", vec![Operand::Reg(slot), Operand::Reg(k2)]);
    b.int_add(acc, Reg(acc), Reg(hit));
    b.int_add(i, Reg(i), Imm(1));
    b.br(pcheck);

    b.switch_to(done);
    b.ret(Some(Reg(acc)));
    b.finish()
}

/// `long hash_build_and_probe(long n)` — allocates and zeroes an 8-slot
/// table, puts `n` keys, then sums the gets back. Exercises whole-program
/// flow into the hash kernels (and `memfill`).
fn hash_build_and_probe() -> crate::ir::Function {
    let mut b = FnBuilder::new("hash_build_and_probe", 1);
    let n = b.param(0);
    let table = b.fresh();
    let i = b.fresh();
    let acc = b.fresh();

    let put_bb = b.new_block();
    let put_body = b.new_block();
    let get_bb = b.new_block();
    let get_check = b.new_block();
    let get_body = b.new_block();
    let done = b.new_block();

    b.pmalloc(table, Imm(64));
    b.call(None, "memfill", vec![Operand::Reg(table), Operand::Imm(8), Operand::Imm(0)]);
    b.const_int(i, 0);
    b.const_int(acc, 0);
    b.br(put_bb);

    b.switch_to(put_bb);
    let c = b.fresh();
    b.cmp_int(c, CmpOp::Lt, Reg(i), Reg(n));
    b.cond_br(Reg(c), put_body, get_bb);

    b.switch_to(put_body);
    let v = b.fresh();
    b.int_op(v, IntOp::Mul, Reg(i), Imm(3));
    b.call(
        None,
        "hash_put",
        vec![Operand::Reg(table), Operand::Imm(7), Operand::Reg(i), Operand::Reg(v)],
    );
    b.int_add(i, Reg(i), Imm(1));
    b.br(put_bb);

    b.switch_to(get_bb);
    b.const_int(i, 0);
    b.br(get_check);

    b.switch_to(get_check);
    let c2 = b.fresh();
    b.cmp_int(c2, CmpOp::Lt, Reg(i), Reg(n));
    b.cond_br(Reg(c2), get_body, done);

    b.switch_to(get_body);
    let got = b.fresh();
    b.call(Some(got), "hash_get", vec![Operand::Reg(table), Operand::Imm(7), Operand::Reg(i)]);
    b.int_add(acc, Reg(acc), Reg(got));
    b.int_add(i, Reg(i), Imm(1));
    b.br(get_check);

    b.switch_to(done);
    b.ret(Some(Reg(acc)));
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_module;
    use crate::interp::{Interp, Val};
    use utpr_heap::{AddressSpace, PoolId};
    use utpr_ptr::UPtr;

    fn with_pool() -> (AddressSpace, PoolId) {
        let mut s = AddressSpace::new(41);
        let p = s.create_pool("kern", 4 << 20).unwrap();
        (s, p)
    }

    #[test]
    fn module_verifies() {
        module().verify().unwrap();
    }

    #[test]
    fn list_build_and_sum_is_gauss() {
        let m = module();
        let (mut s, pool) = with_pool();
        let mut i = Interp::new(&mut s, pool, &m);
        let out = i.run("list_build_and_sum", vec![Val::Int(100)]).unwrap();
        assert_eq!(out, Some(Val::Int(5050)));
    }

    #[test]
    fn bst_insert_and_contains() {
        let m = module();
        let (mut s, pool) = with_pool();
        let slot = s.pmalloc(pool, 8).unwrap();
        let slot_ptr = Val::Ptr(UPtr::from_rel(slot));
        let mut i = Interp::new(&mut s, pool, &m);
        for k in [50i64, 30, 80, 10, 40, 90, 85] {
            i.run("bst_insert", vec![slot_ptr, Val::Int(k)]).unwrap();
        }
        for k in [50i64, 30, 80, 10, 40, 90, 85] {
            assert_eq!(
                i.run("bst_contains", vec![slot_ptr, Val::Int(k)]).unwrap(),
                Some(Val::Int(1)),
                "missing {k}"
            );
        }
        for k in [0i64, 31, 79, 1000] {
            assert_eq!(
                i.run("bst_contains", vec![slot_ptr, Val::Int(k)]).unwrap(),
                Some(Val::Int(0)),
                "phantom {k}"
            );
        }
    }

    #[test]
    fn hash_put_get_round_trip() {
        let m = module();
        let (mut s, pool) = with_pool();
        // 8 bucket slots, zeroed.
        let table = s.pmalloc(pool, 64).unwrap();
        let tp = Val::Ptr(UPtr::from_rel(table));
        let mut i = Interp::new(&mut s, pool, &m);
        for k in 0..32i64 {
            i.run("hash_put", vec![tp, Val::Int(7), Val::Int(k), Val::Int(k * 3)]).unwrap();
        }
        for k in 0..32i64 {
            assert_eq!(
                i.run("hash_get", vec![tp, Val::Int(7), Val::Int(k)]).unwrap(),
                Some(Val::Int(k * 3))
            );
        }
        assert_eq!(
            i.run("hash_get", vec![tp, Val::Int(7), Val::Int(999)]).unwrap(),
            Some(Val::Int(-1))
        );
    }

    #[test]
    fn swap_exchanges_pointers() {
        let m = module();
        let (mut s, pool) = with_pool();
        let a = s.pmalloc(pool, 8).unwrap();
        let b = s.pmalloc(pool, 8).unwrap();
        let x = s.pmalloc(pool, 16).unwrap();
        let y = s.pmalloc(pool, 16).unwrap();
        // Seed slots with relative pointers (as a persistent program would).
        let va_a = s.ra2va(a).unwrap();
        let va_b = s.ra2va(b).unwrap();
        s.write_u64(va_a, UPtr::from_rel(x).raw()).unwrap();
        s.write_u64(va_b, UPtr::from_rel(y).raw()).unwrap();
        let mut i = Interp::new(&mut s, pool, &m);
        i.run(
            "swap",
            vec![Val::Ptr(UPtr::from_rel(a)), Val::Ptr(UPtr::from_rel(b))],
        )
        .unwrap();
        // Slots now point at each other's object, still in relative format.
        let ra = s.read_u64(s.ra2va(a).unwrap()).unwrap();
        let rb = s.read_u64(s.ra2va(b).unwrap()).unwrap();
        assert_eq!(UPtr::from_raw(ra).as_rel(), Some(y));
        assert_eq!(UPtr::from_raw(rb).as_rel(), Some(x));
    }

    #[test]
    fn memfill_writes_every_word() {
        let m = module();
        let (mut s, pool) = with_pool();
        let buf = s.pmalloc(pool, 256).unwrap();
        let mut i = Interp::new(&mut s, pool, &m);
        i.run(
            "memfill",
            vec![Val::Ptr(UPtr::from_rel(buf)), Val::Int(32), Val::Int(0x5a)],
        )
        .unwrap();
        let base = s.ra2va(buf).unwrap();
        for w in 0..32u64 {
            assert_eq!(s.read_u64(base.add(w * 8)).unwrap(), 0x5a);
        }
    }

    #[test]
    fn inference_leaves_roughly_the_papers_fraction_of_checks() {
        let m = module();
        let report = analyze_module(&m);
        let f = report.static_check_fraction();
        // The paper measures ≈ 42 % of dynamic checks remaining; the static
        // fraction on these kernels should land in the same region.
        assert!(f > 0.25 && f < 0.75, "static check fraction {f}");
    }

    #[test]
    fn dynamic_check_fraction_on_mixed_workload() {
        let m = module();
        let (mut s, pool) = with_pool();
        let mut i = Interp::new(&mut s, pool, &m);
        i.run("list_build_and_sum", vec![Val::Int(200)]).unwrap();
        let slot = {
            // Reuse the interpreter's pool for a BST too.
            drop(i);
            s.pmalloc(pool, 8).unwrap()
        };
        let mut i = Interp::new(&mut s, pool, &m);
        for k in 0..64i64 {
            i.run(
                "bst_insert",
                vec![Val::Ptr(UPtr::from_rel(slot)), Val::Int((k * 37) % 101)],
            )
            .unwrap();
        }
        let st = i.stats();
        let f = st.dynamic_check_fraction();
        assert!(st.max_checks > 0);
        assert!(f > 0.25 && f < 0.8, "dynamic check fraction {f}");
    }

    #[test]
    fn provenance_mapping_matches_inference() {
        use utpr_ptr::Provenance;
        let m = module();
        let report = analyze_module(&m);
        // list_push: store(n,0) with n = pmalloc result must be resolved
        // (AllocResult), load_ptr(slot) with slot = param must not (Param).
        let lp = &report.functions["list_push"];
        let mut alloc_deref_resolved = None;
        let mut param_deref_resolved = None;
        let f = &m.functions["list_push"];
        for (key, d) in &lp.decisions {
            match &f.blocks[key.block.0 as usize].insts[key.index] {
                crate::ir::Inst::Store { addr: Operand::Reg(r), .. } if r.0 >= 2 => {
                    alloc_deref_resolved = Some(d.resolved());
                }
                crate::ir::Inst::LoadPtr { addr: Operand::Reg(r), .. } if r.0 == 0 => {
                    param_deref_resolved = Some(d.resolved());
                }
                _ => {}
            }
        }
        assert_eq!(alloc_deref_resolved, Some(Provenance::AllocResult.is_statically_resolved()));
        assert_eq!(param_deref_resolved, Some(Provenance::Param.is_statically_resolved()));
    }
}
