//! Soundness battery for the Fig. 4 semantics — the analogue of the
//! paper's LLVM test-suite validation (§VII-B): every ISO C11 pointer
//! operation must behave identically whether the operand happens to be in
//! virtual or relative format, and pointers stored in NVM must always hold
//! correct relative addresses.
//!
//! Every check runs through every executor of the rules in `utpr_ptr::c11`.
//! A property runs each arm as its own seeded property run, so a failure
//! names its arm and prints that arm's `UTPR_QC_SEED` replay line:
//!
//! - `core`: the bare rules over [`c11::Core`];
//! - `env_volatile`, `env_explicit`, `env_sw`, `env_hw`: [`ExecEnv`]'s
//!   pointer operations — `ptr_eq`, `ptr_is_null`, `read_u64`/`write_u64`,
//!   `write_ptr` checked with `peek_raw`, and `free`. The volatile build runs
//!   only on DRAM operands and the explicit build only on persistent operands
//!   in relative format, the only pointers their programs hold. `ExecEnv`
//!   executes no pointer difference, relational compare or integer cast, so
//!   those checks skip it;
//! - `interp_ref`, `interp_decoded`: one-function IR programs run by
//!   `Interp::run` and `Interp::run_decoded`, with `Val::Ptr` arguments in
//!   either encoding.

use std::cmp::Ordering;
use std::panic::AssertUnwindSafe;
use utpr_cc::interp::{Interp, InterpError, InterpStats, Val};
use utpr_cc::ir::{CmpOp, FnBuilder, IntOp, Module, Operand};
use utpr_heap::{AddressSpace, HeapError, PoolId, RelLoc, VirtAddr};
use utpr_ptr::c11::{self, Core};
use utpr_ptr::{site, CountingSink, ExecEnv, Mode, PtrFormat, PtrSpace, PtrStats, UPtr};
use utpr_qc::prelude::*;

/// A test world: one pool with a handful of objects, plus DRAM objects.
struct World {
    space: AddressSpace,
    pool: PoolId,
    /// (base VA, size) of each persistent object.
    pobjs: Vec<(VirtAddr, u64)>,
    /// (base VA, size) of each volatile object.
    vobjs: Vec<(VirtAddr, u64)>,
}

fn build_world(seed: u64) -> World {
    let mut space = AddressSpace::new(seed);
    let pool = space.create_pool("c11", 1 << 20).unwrap();
    let mut pobjs = Vec::new();
    for i in 0..6u64 {
        let loc = space.pmalloc(pool, 64 + i * 16).unwrap();
        let va = space.ra2va(loc).unwrap();
        pobjs.push((va, 64 + i * 16));
    }
    let mut vobjs = Vec::new();
    for i in 0..4u64 {
        let va = space.malloc(64 + i * 16).unwrap();
        vobjs.push((va, 64 + i * 16));
    }
    World { space, pool, pobjs, vobjs }
}

/// A pointer into the world plus both of its possible encodings.
#[derive(Clone, Copy, Debug)]
struct TestPtr {
    va: VirtAddr,
    pers: bool,
    encodings: [UPtr; 2],
}

impl World {
    /// Builds the pointer (and its encodings) for object `idx` at `off`.
    fn ptr(&self, persistent: bool, idx: usize, off: u64) -> TestPtr {
        if persistent {
            let (base, size) = self.pobjs[idx % self.pobjs.len()];
            let va = base.add(off % size);
            let rel = self.space.va2ra(va).unwrap();
            TestPtr { va, pers: true, encodings: [UPtr::from_va(va), UPtr::from_rel(rel)] }
        } else {
            let (base, size) = self.vobjs[idx % self.vobjs.len()];
            let va = base.add(off % size);
            // Volatile pointers have a single encoding; duplicate it.
            TestPtr { va, pers: false, encodings: [UPtr::from_va(va), UPtr::from_va(va)] }
        }
    }
}

/// The executors the battery drives.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Arm {
    Core,
    Env(Mode),
    Interp { decoded: bool },
}

const ARMS: [Arm; 7] = [
    Arm::Core,
    Arm::Env(Mode::Volatile),
    Arm::Env(Mode::Explicit),
    Arm::Env(Mode::Sw),
    Arm::Env(Mode::Hw),
    Arm::Interp { decoded: false },
    Arm::Interp { decoded: true },
];

impl Arm {
    fn name(self) -> String {
        match self {
            Arm::Core => "core".into(),
            Arm::Env(mode) => format!("env_{}", mode.label()),
            Arm::Interp { decoded: false } => "interp_ref".into(),
            Arm::Interp { decoded: true } => "interp_decoded".into(),
        }
    }

    /// The encoding `enc` of `p` as this arm's programs hold it, or `None`
    /// when they cannot hold `p` at all: the volatile build has no pools,
    /// and the explicit build names persistent objects only by object id.
    fn pick(self, p: &TestPtr, enc: usize) -> Option<UPtr> {
        match self {
            Arm::Env(Mode::Volatile) if p.pers => None,
            Arm::Env(Mode::Explicit) if !p.pers => None,
            Arm::Env(Mode::Explicit) => Some(p.encodings[1]),
            _ => Some(p.encodings[enc]),
        }
    }

    /// Pointer difference, relational compare and integer casts: rules
    /// `ExecEnv` does not execute.
    fn has_arith(self) -> bool {
        !matches!(self, Arm::Env(_))
    }
}

/// Runs `check` once per arm and fails naming every arm that failed, so one
/// arm's failure never hides another's.
fn each_arm(name: &str, check: impl Fn(Arm)) {
    let failed: Vec<String> = ARMS
        .into_iter()
        .filter(|&arm| std::panic::catch_unwind(AssertUnwindSafe(|| check(arm))).is_err())
        .map(Arm::name)
        .collect();
    assert!(failed.is_empty(), "{name} failed through {failed:?}");
}

/// Runs `prop` through every arm, each as its own seeded property run whose
/// report carries its own `UTPR_QC_SEED` line.
fn every_arm<G: Gen>(
    name: &str,
    gen: impl Fn() -> G,
    prop: impl Fn(Arm, <G::Tree as SampleTree>::Value) -> Result<(), String>,
) {
    each_arm(name, |arm| {
        let label = format!("soundness_c11::{name}[{}]", arm.name());
        for_all(&label, Config::cases(256), gen(), |v| prop(arm, v));
    });
}

type Res<T> = Result<T, HeapError>;

/// One arm over its own world.
enum Exec {
    Core(AddressSpace, PtrStats),
    Env(Box<ExecEnv<CountingSink>>),
    Interp { space: AddressSpace, pool: PoolId, decoded: bool, stats: InterpStats },
}

impl Exec {
    fn new(arm: Arm, w: World) -> Exec {
        match arm {
            Arm::Core => Exec::Core(w.space, PtrStats::new()),
            Arm::Env(mode) => Exec::Env(Box::new(
                ExecEnv::builder(w.space).mode(mode).pool(w.pool).sink(CountingSink::new()).build(),
            )),
            Arm::Interp { decoded } => {
                let stats = InterpStats::default();
                Exec::Interp { space: w.space, pool: w.pool, decoded, stats }
            }
        }
    }

    fn space(&self) -> &AddressSpace {
        match self {
            Exec::Core(space, _) | Exec::Interp { space, .. } => space,
            Exec::Env(e) => e.space(),
        }
    }

    fn space_mut(&mut self) -> &mut AddressSpace {
        match self {
            Exec::Core(space, _) | Exec::Interp { space, .. } => space,
            Exec::Env(e) => e.space_mut(),
        }
    }

    /// `(rel→abs, abs→rel)` conversions counted so far.
    fn conversions(&self) -> (u64, u64) {
        match self {
            Exec::Core(_, s) => (s.rel_to_abs, s.abs_to_rel),
            Exec::Env(e) => (e.stats().rel_to_abs, e.stats().abs_to_rel),
            Exec::Interp { stats: s, .. } => (s.rel_to_abs, s.abs_to_rel),
        }
    }

    /// Runs `f(args)`, one IR function whose body `body` builds over the
    /// parameter operands and whose integer result it returns, through the
    /// arm's interpreter path.
    fn ir(
        &mut self,
        args: &[Val],
        body: impl FnOnce(&mut FnBuilder, &[Operand]) -> Operand,
    ) -> Res<i64> {
        let Exec::Interp { space, pool, decoded, stats } = self else { unreachable!() };
        let n = args.len() as u32;
        let mut b = FnBuilder::new("f", n);
        let params: Vec<Operand> = (0..n).map(|i| Operand::Reg(b.param(i))).collect();
        let r = body(&mut b, &params);
        b.ret(Some(r));
        let mut m = Module::new();
        m.add(b.finish());
        m.verify().unwrap();
        let mut interp = Interp::new(space, *pool, &m);
        let out = if *decoded {
            let dm = interp.decode();
            interp.run_decoded(&dm, "f", args.to_vec())
        } else {
            interp.run("f", args.to_vec())
        };
        stats.rel_to_abs += interp.stats().rel_to_abs;
        stats.abs_to_rel += interp.stats().abs_to_rel;
        match out {
            Ok(Some(Val::Int(v))) => Ok(v),
            Err(InterpError::Heap(e)) => Err(e),
            other => panic!("IR program returned {other:?}"),
        }
    }

    /// `p == q`; the IR arm also checks that `!=` disagrees with it.
    fn eq(&mut self, a: UPtr, b: UPtr) -> Res<bool> {
        match self {
            Exec::Core(space, stats) => c11::eq(&mut Core { space, stats }, a, b),
            Exec::Env(e) => e.ptr_eq(site!("soundness.eq", Param), a, b),
            Exec::Interp { .. } => {
                let r = self.ir(&[Val::Ptr(a), Val::Ptr(b)], |f, p| {
                    let (eq, ne, eq2, r) = (f.fresh(), f.fresh(), f.fresh(), f.fresh());
                    f.cmp_ptr(eq, CmpOp::Eq, p[0], p[1]);
                    f.cmp_ptr(ne, CmpOp::Ne, p[0], p[1]);
                    f.int_op(eq2, IntOp::Mul, Operand::Reg(eq), Operand::Imm(2));
                    f.int_op(r, IntOp::Or, Operand::Reg(eq2), Operand::Reg(ne));
                    Operand::Reg(r)
                })?;
                match r {
                    0b10 => Ok(true),
                    0b01 => Ok(false),
                    _ => panic!("== and != disagree: {r:#b}"),
                }
            }
        }
    }

    /// `<, <=, >, >=` as one ordering; the IR arm checks that the four
    /// operators agree with each other.
    fn cmp(&mut self, a: UPtr, b: UPtr) -> Res<Ordering> {
        match self {
            Exec::Core(space, stats) => c11::cmp(&mut Core { space, stats }, a, b),
            Exec::Env(_) => unreachable!("ExecEnv has no relational compare"),
            Exec::Interp { .. } => {
                let mask = self.ir(&[Val::Ptr(a), Val::Ptr(b)], |f, p| {
                    let mut acc = f.fresh();
                    f.const_int(acc, 0);
                    let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
                    for (bit, op) in ops.into_iter().enumerate() {
                        let (c, sh, next) = (f.fresh(), f.fresh(), f.fresh());
                        f.cmp_ptr(c, op, p[0], p[1]);
                        f.int_op(sh, IntOp::Mul, Operand::Reg(c), Operand::Imm(1 << bit));
                        f.int_op(next, IntOp::Or, Operand::Reg(acc), Operand::Reg(sh));
                        acc = next;
                    }
                    Operand::Reg(acc)
                })?;
                match mask {
                    0b0011 => Ok(Ordering::Less),
                    0b1010 => Ok(Ordering::Equal),
                    0b1100 => Ok(Ordering::Greater),
                    _ => panic!("relational operators disagree: {mask:#06b}"),
                }
            }
        }
    }

    /// `(I)p`.
    fn int_cast(&mut self, p: UPtr) -> Res<u64> {
        match self {
            Exec::Core(space, stats) => c11::to_int(&mut Core { space, stats }, p),
            Exec::Env(_) => unreachable!("ExecEnv has no integer cast"),
            Exec::Interp { .. } => {
                let v = self.ir(&[Val::Ptr(p)], |f, a| {
                    let r = f.fresh();
                    f.ptr_to_int(r, a[0]);
                    Operand::Reg(r)
                })?;
                Ok(v as u64)
            }
        }
    }

    /// `*(T*)i`: the word an integer cast back to a pointer designates.
    fn load_int_ptr(&mut self, i: u64) -> Res<u64> {
        match self {
            Exec::Interp { .. } => {
                let v = self.ir(&[Val::Int(i as i64)], |f, a| {
                    let (q, v) = (f.fresh(), f.fresh());
                    f.int_to_ptr(q, a[0]);
                    f.load(v, Operand::Reg(q), 0);
                    Operand::Reg(v)
                })?;
                Ok(v as u64)
            }
            _ => self.load(UPtr::from_raw(i)),
        }
    }

    /// `p - q` in bytes.
    fn diff(&mut self, a: UPtr, b: UPtr) -> Res<i64> {
        match self {
            Exec::Core(space, stats) => c11::diff(&mut Core { space, stats }, a, b),
            Exec::Env(_) => unreachable!("ExecEnv has no pointer difference"),
            Exec::Interp { .. } => self.ir(&[Val::Ptr(a), Val::Ptr(b)], |f, p| {
                let r = f.fresh();
                f.ptr_diff(r, p[0], p[1]);
                Operand::Reg(r)
            }),
        }
    }

    /// `*p` as a data word.
    fn load(&mut self, p: UPtr) -> Res<u64> {
        match self {
            Exec::Core(space, stats) => {
                let va = c11::deref_target(&mut Core { space, stats }, p)?;
                space.read_u64(va)
            }
            Exec::Env(e) => e.read_u64(site!("soundness.load", Param), p, 0),
            Exec::Interp { .. } => {
                let v = self.ir(&[Val::Ptr(p)], |f, a| {
                    let v = f.fresh();
                    f.load(v, a[0], 0);
                    Operand::Reg(v)
                })?;
                Ok(v as u64)
            }
        }
    }

    /// `*p = v` for a data word.
    fn store(&mut self, p: UPtr, v: u64) -> Res<()> {
        match self {
            Exec::Core(space, stats) => {
                let va = c11::deref_target(&mut Core { space, stats }, p)?;
                space.write_u64(va, v)
            }
            Exec::Env(e) => e.write_u64(site!("soundness.store", Param), p, 0, v),
            Exec::Interp { .. } => {
                self.ir(&[Val::Ptr(p), Val::Int(v as i64)], |f, a| {
                    f.store(a[0], 0, a[1]);
                    Operand::Imm(0)
                })?;
                Ok(())
            }
        }
    }

    /// `*dest = v` for a pointer value (`storeP`).
    fn store_ptr(&mut self, dest: UPtr, v: UPtr) -> Res<()> {
        match self {
            Exec::Core(space, stats) => {
                let mut core = Core { space, stats };
                let dva = c11::deref_target(&mut core, dest)?;
                let to = if dva.is_nvm_region() { PtrSpace::Nvm } else { PtrSpace::Dram };
                let stored = c11::assign_value(&mut core, to, v)?;
                space.write_u64(dva, stored.raw())
            }
            Exec::Env(e) => e.write_ptr(site!("soundness.store_ptr", Param), dest, 0, v),
            Exec::Interp { .. } => {
                self.ir(&[Val::Ptr(dest), Val::Ptr(v)], |f, a| {
                    f.store_ptr(a[0], 0, a[1]);
                    Operand::Imm(0)
                })?;
                Ok(())
            }
        }
    }

    /// The raw word stored at `va`, read without conversions.
    fn peek(&self, va: VirtAddr) -> u64 {
        match self {
            Exec::Env(e) => e.peek_raw(UPtr::from_va(va), 0).unwrap(),
            _ => self.space().read_u64_uncached(va).unwrap(),
        }
    }

    /// `p == NULL` / `!p`.
    fn is_null(&mut self, p: UPtr) -> bool {
        match self {
            Exec::Core(..) => p.is_null(),
            Exec::Env(e) => e.ptr_is_null(site!("soundness.is_null", Param), p),
            Exec::Interp { .. } => {
                let r = self.ir(&[Val::Ptr(p)], |f, a| {
                    let (set, null) = (f.new_block(), f.new_block());
                    f.cond_br(a[0], set, null);
                    f.switch_to(set);
                    f.ret(Some(Operand::Imm(0)));
                    f.switch_to(null);
                    Operand::Imm(1)
                });
                r.unwrap() == 1
            }
        }
    }

    /// `free(p)`.
    fn free(&mut self, p: UPtr) -> Res<()> {
        match self {
            Exec::Core(space, stats) => {
                c11::free_target(&mut Core { space, stats }, p)?.free(space)
            }
            Exec::Env(e) => e.free(site!("soundness.free", Param), p),
            Exec::Interp { .. } => {
                self.ir(&[Val::Ptr(p)], |f, a| {
                    f.free(a[0]);
                    Operand::Imm(0)
                })?;
                Ok(())
            }
        }
    }

    /// The location a stored pointer word designates (the oracle: plain
    /// address-space translation, uncounted).
    fn designated(&self, raw: u64) -> VirtAddr {
        match UPtr::from_raw(raw).as_rel() {
            Some(loc) => self.space().ra2va(loc).unwrap(),
            None => VirtAddr::new(raw),
        }
    }
}

fn is_rel(p: UPtr) -> u64 {
    u64::from(p.format() == PtrFormat::Relative)
}

/// Equality and relational operators agree with native addresses for every
/// encoding combination (Fig. 4 relational rows). Half the cases compare a
/// location with itself, so `==` across encodings is exercised as often as
/// `!=`.
#[test]
fn relational_ops_are_format_independent() {
    let gen = || {
        (
            (1u64..500, any::<bool>(), 0usize..8, 0u64..128),
            (any::<bool>(), any::<bool>(), 0usize..8, 0u64..128),
            (0usize..2, 0usize..2),
        )
    };
    every_arm("relational_ops_are_format_independent", gen, |arm, v| {
        let ((seed, p_pers, p_idx, p_off), (alias, q_pers, q_idx, q_off), (p_enc, q_enc)) = v;
        let w = build_world(seed);
        let p = w.ptr(p_pers, p_idx, p_off);
        let q = if alias { p } else { w.ptr(q_pers, q_idx, q_off) };
        let (Some(a), Some(b)) = (arm.pick(&p, p_enc), arm.pick(&q, q_enc)) else { return Ok(()) };
        let mut x = Exec::new(arm, w);
        prop_assert_eq!(x.eq(a, b).unwrap(), p.va == q.va);
        prop_assert_eq!(x.eq(b, a).unwrap(), p.va == q.va);
        if arm.has_arith() {
            prop_assert_eq!(x.cmp(a, b).unwrap(), p.va.raw().cmp(&q.va.raw()));
        }
        Ok(())
    });
}

/// `(I)p` casts and integer round-trips match native pointer values
/// (Fig. 4 cast rows); only a relative operand converts.
#[test]
fn int_casts_are_format_independent() {
    let gen = || (1u64..500, any::<bool>(), 0usize..8, 0u64..16, 0usize..2);
    every_arm("int_casts_are_format_independent", gen, |arm, (seed, pers, idx, word, enc)| {
        if !arm.has_arith() {
            return Ok(());
        }
        let w = build_world(seed);
        let p = w.ptr(pers, idx, word * 8);
        let a = p.encodings[enc];
        let mut x = Exec::new(arm, w);
        let i = x.int_cast(a).unwrap();
        prop_assert_eq!(i, p.va.raw());
        prop_assert_eq!(x.conversions(), (is_rel(a), 0));
        // (T*)(I)p dereferences the same location.
        x.space_mut().write_u64(p.va, 0xc0ffee).unwrap();
        prop_assert_eq!(x.load_int_ptr(i).unwrap(), 0xc0ffee);
        Ok(())
    });
}

/// Pointer differences match native subtraction in every encoding
/// combination within the same object (Fig. 4 additive rows).
#[test]
fn pointer_difference_is_format_independent() {
    let gen = || {
        (1u64..500, any::<bool>(), 0usize..8, (0u64..64, 0u64..64), (0usize..2, 0usize..2))
    };
    every_arm("pointer_difference_is_format_independent", gen, |arm, v| {
        let (seed, pers, idx, (off_a, off_b), (enc_a, enc_b)) = v;
        if !arm.has_arith() {
            return Ok(());
        }
        let w = build_world(seed);
        let (a, b) = (w.ptr(pers, idx, off_a), w.ptr(pers, idx, off_b));
        let native = a.va.raw() as i64 - b.va.raw() as i64;
        let mut x = Exec::new(arm, w);
        prop_assert_eq!(x.diff(a.encodings[enc_a], b.encodings[enc_b]).unwrap(), native);
        Ok(())
    });
}

/// `p + i` preserves the format and lands on the native address
/// (Fig. 4: `$$ = pxy.val op i`, format tag survives).
#[test]
fn additive_ops_preserve_format() {
    let gen = || (1u64..500, any::<bool>(), 0usize..8, 0u64..32, -16i64..48, 0usize..2);
    every_arm("additive_ops_preserve_format", gen, |arm, (seed, pers, idx, off, delta, enc)| {
        let w = build_world(seed);
        let p = w.ptr(pers, idx, off);
        let Some(a) = arm.pick(&p, enc) else { return Ok(()) };
        let moved = a.offset(delta);
        prop_assert_eq!(moved.format(), a.format());
        // Where the result is still inside the object, dereference agrees.
        let target = p.va.raw() as i64 + delta;
        if target >= p.va.raw() as i64 - off as i64 {
            let mut x = Exec::new(arm, w);
            x.space_mut().write_u64(VirtAddr::new(target as u64), 0x5eed).unwrap();
            prop_assert_eq!(x.load(moved).unwrap(), 0x5eed);
        }
        Ok(())
    });
}

/// Writes through one encoding are visible through the other, and only a
/// relative operand converts (Fig. 4 unary `*` row).
#[test]
fn loads_and_stores_agree_across_encodings() {
    let gen = || (1u64..500, any::<bool>(), 0usize..8, 0u64..7, any::<u64>(), 0usize..2);
    every_arm("loads_and_stores_agree_across_encodings", gen, |arm, v| {
        let (seed, pers, idx, word, value, enc) = v;
        let w = build_world(seed);
        let p = w.ptr(pers, idx, word * 8);
        let (Some(a), Some(b)) = (arm.pick(&p, enc), arm.pick(&p, 1 - enc)) else { return Ok(()) };
        let mut x = Exec::new(arm, w);
        x.store(a, value).unwrap();
        prop_assert_eq!(x.load(b).unwrap(), value);
        prop_assert_eq!(x.space().read_u64(p.va).unwrap(), value);
        prop_assert_eq!(x.conversions(), (is_rel(a) + is_rel(b), 0));
        Ok(())
    });
}

/// The storeP value transformation is idempotent and space-correct: NVM
/// destinations store relative or volatile-virtual values, DRAM
/// destinations always store virtual values (Fig. 3 / Table I), and the
/// only conversions are the destination's dereference and the one the
/// transformation needs.
#[test]
fn assignment_transformation_is_sound() {
    let gen = || {
        (
            (1u64..500, any::<bool>(), 0usize..8, 0u64..64, 0usize..2),
            (any::<bool>(), 0usize..8, 0usize..2),
        )
    };
    every_arm("assignment_transformation_is_sound", gen, |arm, v| {
        let ((seed, pers, idx, off, enc), (dest_nvm, dest_idx, dest_enc)) = v;
        let w = build_world(seed);
        let (p, dest) = (w.ptr(pers, idx, off), w.ptr(dest_nvm, dest_idx, 0));
        let (Some(val), Some(d)) = (arm.pick(&p, enc), arm.pick(&dest, dest_enc)) else {
            return Ok(());
        };
        let mut x = Exec::new(arm, w);
        x.store_ptr(d, val).unwrap();
        let stored = x.peek(dest.va);
        // The stored value still designates the same location.
        prop_assert_eq!(x.designated(stored), p.va);
        let format = UPtr::from_raw(stored).format();
        if dest_nvm && pers {
            prop_assert_eq!(format, PtrFormat::Relative, "persistent pointer in NVM is relative");
        } else {
            prop_assert_eq!(format, PtrFormat::Virtual);
        }
        let nvm_va = u64::from(val.format() == PtrFormat::Virtual && val.space() == PtrSpace::Nvm);
        let expect = if dest_nvm { (is_rel(d), nvm_va) } else { (is_rel(d) + is_rel(val), 0) };
        prop_assert_eq!(x.conversions(), expect);
        // Idempotent: re-assigning the stored value changes nothing.
        x.store_ptr(d, UPtr::from_raw(stored)).unwrap();
        prop_assert_eq!(x.peek(dest.va), stored);
        Ok(())
    });
}

/// Null behaves like C null in every operation, and assigning it never
/// converts.
#[test]
fn null_semantics() {
    let gen = || (1u64..100, any::<bool>(), 0usize..8, 0usize..2);
    every_arm("null_semantics", gen, |arm, (seed, pers, idx, enc)| {
        let w = build_world(seed);
        let p = w.ptr(pers, idx, 0);
        let Some(a) = arm.pick(&p, enc) else { return Ok(()) };
        let mut x = Exec::new(arm, w);
        prop_assert!(!x.eq(a, UPtr::NULL).unwrap());
        prop_assert!(x.eq(UPtr::NULL, UPtr::NULL).unwrap());
        prop_assert!(!x.is_null(a));
        prop_assert!(x.is_null(UPtr::NULL));
        prop_assert_eq!(x.load(UPtr::NULL), Err(HeapError::Unmapped(VirtAddr::new(0))));
        if arm.has_arith() {
            prop_assert_eq!(x.cmp(UPtr::NULL, a).unwrap(), Ordering::Less);
        }
        let before = x.conversions();
        x.store_ptr(a, UPtr::NULL).unwrap();
        prop_assert_eq!(x.peek(p.va), 0);
        prop_assert_eq!(x.conversions(), (before.0 + is_rel(a), before.1));
        Ok(())
    });
}

/// `free` returns the block named by either encoding to its allocator: a
/// second free through the other encoding is a double free, and only an NVM
/// virtual address converts.
#[test]
fn free_is_format_independent() {
    let gen = || (1u64..500, any::<bool>(), 0usize..8, 0usize..2);
    every_arm("free_is_format_independent", gen, |arm, (seed, pers, idx, enc)| {
        let w = build_world(seed);
        let p = w.ptr(pers, idx, 0);
        let (Some(a), Some(b)) = (arm.pick(&p, enc), arm.pick(&p, 1 - enc)) else { return Ok(()) };
        let mut x = Exec::new(arm, w);
        x.free(UPtr::NULL).unwrap();
        x.free(a).unwrap();
        let nvm_va = u64::from(pers && a.format() == PtrFormat::Virtual);
        prop_assert_eq!(x.conversions(), (0, nvm_va));
        prop_assert!(matches!(x.free(b), Err(HeapError::BadFree(_))));
        Ok(())
    });
}

/// Relocation: every persistent encoding keeps working after the pool moves;
/// cached virtual addresses do not. (Deterministic, not property-based.)
#[test]
fn relocation_preserves_relative_but_not_virtual() {
    each_arm("relocation_preserves_relative_but_not_virtual", |arm| {
        let w = build_world(77);
        let p = w.ptr(true, 2, 24);
        let pool = w.pool;
        let Some(rel) = arm.pick(&p, 1) else { return };
        let loc = rel.as_rel().unwrap();
        let mut x = Exec::new(arm, w);
        x.space_mut().write_u64(p.va, 0xfeed).unwrap();

        x.space_mut().detach(pool).unwrap();
        x.space_mut().attach(pool).unwrap();

        assert_eq!(x.load(rel).unwrap(), 0xfeed, "{}", arm.name());
        // The virtual address moved, and the old one no longer resolves into
        // the pool.
        let moved = x.space().ra2va(loc).unwrap();
        assert_ne!(moved, p.va, "{}", arm.name());
        assert_eq!(x.space().va2ra(p.va), Err(HeapError::NotInAnyPool(p.va)));
        assert_eq!(x.space().va2ra(moved).unwrap(), loc);
    });
}

/// Conversions of a relative pointer into a detached pool or a pool that
/// never existed fault with the address space's own error, in every rule
/// that converts. The explicit build compares object ids without
/// translating, so its `==` does not fault (Fig. 10: checks fault, VN would
/// not).
#[test]
fn conversion_faults_are_typed_in_every_executor() {
    each_arm("conversion_faults_are_typed_in_every_executor", |arm| {
        let w = build_world(5);
        let p = w.ptr(true, 1, 8);
        let pool = w.pool;
        let Some(rel) = arm.pick(&p, 1) else { return };
        let bogus = UPtr::from_rel(RelLoc::new(PoolId::new(12345), 0));
        let mut x = Exec::new(arm, w);
        let bogus_err = x.space().ra2va(bogus.as_rel().unwrap()).unwrap_err();
        assert_eq!(x.load(bogus), Err(bogus_err), "{}", arm.name());

        x.space_mut().detach(pool).unwrap();
        let detached = HeapError::PoolDetached(pool);
        assert_eq!(x.load(rel), Err(detached.clone()), "{}", arm.name());
        if arm != Arm::Env(Mode::Explicit) {
            assert_eq!(x.eq(rel, rel), Err(detached.clone()), "{}", arm.name());
        }
        if arm.has_arith() {
            assert_eq!(x.int_cast(rel), Err(detached), "{}", arm.name());
        }
        assert_eq!(x.conversions(), (0, 0), "{}: a fault counts nothing", arm.name());
    });
}

/// The full-table smoke test: every operation class of Fig. 4 exercised
/// once with mixed formats, checking against native expectations.
#[test]
fn fig4_operation_classes_smoke() {
    each_arm("fig4_operation_classes_smoke", |arm| {
        let w = build_world(123);
        let (p, q) = (w.ptr(true, 0, 16), w.ptr(true, 0, 40));
        let (pv, pr, qv) = (arm.pick(&p, 0), arm.pick(&p, 1), arm.pick(&q, 0));
        let (Some(pv), Some(pr), Some(qv)) = (pv, pr, qv) else { return };
        let dram_node = w.ptr(false, 1, 0);
        let mut x = Exec::new(arm, w);
        let name = arm.name();

        if arm.has_arith() {
            // casts
            assert_eq!(x.int_cast(pr).unwrap(), p.va.raw(), "{name}");
            // additive
            assert_eq!(x.diff(qv, pr).unwrap(), 24, "{name}");
            // relational
            assert_eq!(x.cmp(pr, qv).unwrap(), Ordering::Less, "{name}");
        }
        // unary * and indexing: p[3] with 8-byte elements
        x.space_mut().write_u64(p.va.add(24), 33).unwrap();
        assert_eq!(x.load(pr.offset(24)).unwrap(), 33, "{name}");
        // equality
        assert!(x.eq(pv, pr).unwrap(), "{name}");
        // logical
        assert!(!x.is_null(pr), "{name}");
        // assignment in both destination spaces, from both encodings
        for (slot, dest) in [(q, qv), (dram_node, dram_node.encodings[0])] {
            if arm.pick(&slot, 0).is_none() {
                continue;
            }
            for src in [pv, pr] {
                x.store_ptr(dest, src).unwrap();
                assert_eq!(x.designated(x.peek(slot.va)), p.va, "{name}");
            }
        }
    });
}
