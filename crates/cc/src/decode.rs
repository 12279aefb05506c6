//! Pre-decoded execution fast path: each [`Function`](crate::ir::Function) is flattened into a
//! single cache-friendly op array executed by a tight indexed-dispatch loop
//! (see `Interp::run_decoded`).
//!
//! What decoding resolves ahead of time, once per module instead of per
//! executed instruction:
//!
//! - **operands** become plain register slots: immediates and the null
//!   constant are interned into a per-function constant pool appended to
//!   the register file, so every operand fetch is one indexed load — no
//!   `Operand` re-interpretation per step;
//! - **block targets** become flat instruction indices — terminators are
//!   ordinary ops (`Jump`/`Branch`/`Ret`) and control flow is a `pc`
//!   assignment, not a block-table walk;
//! - **callees** become dense function indices — no name lookup per call;
//! - **check decisions** are baked into each op as a [`Charge`] — the
//!   per-site `BTreeMap` probe (and the per-invocation decisions clone) in
//!   the tree-walking reference path disappears entirely.
//!
//! The tree-walking interpreter remains the semantic oracle: decoding is
//! a pure representation change, and differential tests (plus the
//! `utpr-qc` property in `tests/decode_props.rs`) assert identical
//! results, errors, fuel, and stats on the same inputs.

use crate::analysis::{InferenceReport, SiteKey};
use crate::interp::Val;
use crate::ir::{BlockId, CmpOp, Inst, IntOp, Module, Operand, Term};
use std::collections::BTreeMap;
use utpr_ptr::UPtr;

/// The check decision baked into an op. `max_checks == 0` marks ops that
/// are not pointer-operation sites (the analysis never emits a decision
/// with zero `max_checks`), so charging is branchless arithmetic on two
/// bytes instead of a map probe.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Charge {
    /// Dynamic checks surviving inference at this site.
    pub checks: u8,
    /// Checks a no-inference compiler would execute here.
    pub max_checks: u8,
}

/// A decoded instruction. Mirrors [`Inst`]/[`Term`] with every operand
/// resolved to a register slot (immediates live in the constant pool) and
/// control-flow targets resolved to flat op indices.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OpKind {
    Malloc { dst: u32, size: u32 },
    Pmalloc { dst: u32, size: u32 },
    Free { ptr: u32 },
    Load { dst: u32, addr: u32, off: i64 },
    Store { addr: u32, off: i64, value: u32 },
    LoadPtr { dst: u32, addr: u32, off: i64 },
    StorePtr { addr: u32, off: i64, value: u32 },
    Gep { dst: u32, base: u32, off: u32 },
    IntOp { dst: u32, op: IntOp, lhs: u32, rhs: u32 },
    PtrToInt { dst: u32, src: u32 },
    IntToPtr { dst: u32, src: u32 },
    PtrDiff { dst: u32, lhs: u32, rhs: u32 },
    CmpPtr { dst: u32, op: CmpOp, lhs: u32, rhs: u32 },
    CmpInt { dst: u32, op: CmpOp, lhs: u32, rhs: u32 },
    Copy { dst: u32, src: u32 },
    Call { dst: Option<u32>, callee: u32, args_start: u32, args_len: u32 },
    Jump { target: u32 },
    Branch { cond: u32, then_pc: u32, else_pc: u32 },
    Ret { value: Option<u32> },
    // Superinstructions: adjacent pairs the decoder fuses into one
    // dispatch (classic interpreter quickening). Each fused arm replays
    // the per-instruction prologue (fuel, inst count, charge) between its
    // halves, so fuel accounting, stats, charges, register writes, and
    // error order are bit-identical with the unfused sequence.
    /// `gep g, base, off` immediately followed by `load dst, [g+loff]`.
    /// Both destination registers are still written, so later uses of the
    /// address register are unaffected. `charge2` is the load's charge.
    GepLoad { gdst: u32, base: u32, off: u32, ldst: u32, loff: i64, charge2: Charge },
    /// A block-final `intop` whose block ends in an unconditional branch.
    IntOpJump { dst: u32, op: IntOp, lhs: u32, rhs: u32, target: u32 },
    /// A block-final `cmp_int` feeding the block's own conditional branch
    /// (every counted loop's header). The compare result is still written.
    CmpBr { dst: u32, op: CmpOp, lhs: u32, rhs: u32, then_pc: u32, else_pc: u32 },
    /// Scaled-index addressing: `intop o, lhs, rhs` whose result is the
    /// offset of the immediately following `gep g, base, o`, feeding the
    /// immediately following `load dst, [g+loff]` — the `v = p[i*8]`
    /// shape of every array walk. All three destination registers are
    /// still written. `lcharge` is the load's charge; int ops and geps
    /// are never check sites (decode refuses to fuse otherwise).
    IntOpGepLoad {
        idst: u32,
        iop: IntOp,
        ilhs: u32,
        irhs: u32,
        gdst: u32,
        base: u32,
        ldst: u32,
        loff: i64,
        lcharge: Charge,
    },
    /// Block tail `intop; intop; br` in one dispatch (a loop latch that
    /// bumps two counters). Integer ops are never check sites.
    IntOp2Jump {
        a_dst: u32,
        a_op: IntOp,
        a_lhs: u32,
        a_rhs: u32,
        b_dst: u32,
        b_op: IntOp,
        b_lhs: u32,
        b_rhs: u32,
        target: u32,
    },
    /// Block tail `store; intop; br` in one dispatch (the array-walk
    /// latch: store the element, bump the counter, loop). The op's own
    /// charge is the store's; the int op is never a check site.
    StoreIntOpJump {
        addr: u32,
        off: i64,
        value: u32,
        dst: u32,
        op: IntOp,
        lhs: u32,
        rhs: u32,
        target: u32,
    },
    /// Two adjacent integer ops in one dispatch. Integer ops are never
    /// check sites, so no second charge is carried.
    IntOp2 {
        a_dst: u32,
        a_op: IntOp,
        a_lhs: u32,
        a_rhs: u32,
        b_dst: u32,
        b_op: IntOp,
        b_lhs: u32,
        b_rhs: u32,
    },
}

/// One flat-array slot: the decoded instruction and its baked-in charge.
/// The executor derives `InterpStats::insts` from the fuel identity
/// `insts = fuel_spent - terminators - callee_fuel`, so ops carry no
/// per-slot instruction flag.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Op {
    pub(crate) kind: OpKind,
    pub(crate) charge: Charge,
}

/// One decoded function: all blocks concatenated into `ops`, terminators
/// inline, call arguments pooled in `call_args` as register slots, and
/// the interned constants appended to the register file at frame entry.
#[derive(Clone, Debug)]
pub struct DecodedFn {
    pub(crate) name: String,
    pub(crate) params: u32,
    /// Total register-file size: the function's own registers plus one
    /// slot per interned constant.
    pub(crate) regs: u32,
    pub(crate) consts: Vec<Val>,
    pub(crate) ops: Vec<Op>,
    pub(crate) call_args: Vec<u32>,
}

impl DecodedFn {
    /// Flat op count (instructions + terminators).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Interns `ConstInt`/immediate/null operands into the constant pool.
struct ConstPool {
    base: u32,
    ints: BTreeMap<i64, u32>,
    null: Option<u32>,
    vals: Vec<Val>,
}

impl ConstPool {
    fn new(base: u32) -> Self {
        ConstPool { base, ints: BTreeMap::new(), null: None, vals: Vec::new() }
    }

    fn int(&mut self, v: i64) -> u32 {
        if let Some(&slot) = self.ints.get(&v) {
            return slot;
        }
        let slot = self.base + self.vals.len() as u32;
        self.vals.push(Val::Int(v));
        self.ints.insert(v, slot);
        slot
    }

    fn null(&mut self) -> u32 {
        if let Some(slot) = self.null {
            return slot;
        }
        let slot = self.base + self.vals.len() as u32;
        self.vals.push(Val::Ptr(UPtr::NULL));
        self.null = Some(slot);
        slot
    }

    fn slot(&mut self, op: Operand) -> u32 {
        match op {
            Operand::Reg(r) => r.0,
            Operand::Imm(i) => self.int(i),
            Operand::Null => self.null(),
        }
    }
}

/// A module decoded against one inference report.
///
/// Function indices follow the module's (sorted) function order — the same
/// order `Interp` uses for its per-function counters, so both execution
/// paths attribute checks identically.
#[derive(Clone, Debug)]
pub struct DecodedModule {
    pub(crate) fns: Vec<DecodedFn>,
    index: BTreeMap<String, u32>,
}

impl DecodedModule {
    /// Decodes `m` against `report`.
    ///
    /// The module must pass [`Module::verify`] (block targets, register
    /// ranges, callee existence/arity); decoding relies on those
    /// invariants. The report must be the one the executing `Interp`
    /// charges against, or differential stats will diverge.
    pub fn new(m: &Module, report: &InferenceReport) -> Self {
        let index: BTreeMap<String, u32> =
            m.functions.keys().enumerate().map(|(i, n)| (n.clone(), i as u32)).collect();
        let fns = m
            .functions
            .iter()
            .map(|(name, f)| {
                let decisions = &report.functions[name].decisions;
                let charge_at = |bi: usize, ii: usize| {
                    decisions
                        .get(&SiteKey { block: BlockId(bi as u32), index: ii })
                        .map(|d| Charge { checks: d.checks, max_checks: d.max_checks })
                        .unwrap_or_default()
                };
                let mut pool = ConstPool::new(f.regs);
                let mut ops = Vec::new();
                let mut call_args = Vec::new();
                // Single pass with branch targets emitted as *block ids*;
                // a fixup below maps them to flat indices once fusion has
                // settled each block's op count. Only block entries are
                // ever branch targets, so fusing within a block is safe.
                let mut block_entry = Vec::with_capacity(f.blocks.len());
                for (bi, block) in f.blocks.iter().enumerate() {
                    block_entry.push(ops.len() as u32);
                    let insts = block.insts.as_slice();
                    let mut ii = 0;
                    let mut term_fused = false;
                    while ii < insts.len() {
                        let charge = charge_at(bi, ii);
                        // Peephole: scaled-index addressing — an int op
                        // computing the offset of the next gep, whose
                        // result is the next load's address.
                        if let Inst::IntOp { dst: o, op, lhs, rhs } = &insts[ii] {
                            if let Some(Inst::Gep { dst: g, base, off: Operand::Reg(x) }) =
                                insts.get(ii + 1)
                            {
                                if let Some(Inst::Load {
                                    dst,
                                    addr: Operand::Reg(a),
                                    off: loff,
                                }) = insts.get(ii + 2)
                                {
                                    if x == o && a == g {
                                        ops.push(Op {
                                            kind: OpKind::IntOpGepLoad {
                                                idst: o.0,
                                                iop: *op,
                                                ilhs: pool.slot(*lhs),
                                                irhs: pool.slot(*rhs),
                                                gdst: g.0,
                                                base: pool.slot(*base),
                                                ldst: dst.0,
                                                loff: *loff,
                                                lcharge: charge_at(bi, ii + 2),
                                            },
                                            charge,
                                        });
                                        ii += 3;
                                        continue;
                                    }
                                }
                            }
                        }
                        // Peephole: gep feeding the immediately following
                        // load's address register.
                        if let Inst::Gep { dst: g, base, off } = &insts[ii] {
                            if let Some(Inst::Load { dst, addr: Operand::Reg(a), off: loff }) =
                                insts.get(ii + 1)
                            {
                                if a == g {
                                    ops.push(Op {
                                        kind: OpKind::GepLoad {
                                            gdst: g.0,
                                            base: pool.slot(*base),
                                            off: pool.slot(*off),
                                            ldst: dst.0,
                                            loff: *loff,
                                            charge2: charge_at(bi, ii + 1),
                                        },
                                        charge,
                                    });
                                    ii += 2;
                                    continue;
                                }
                            }
                        }
                        // Peephole: the last two instructions plus the
                        // terminator in one dispatch — checked before the
                        // generic pair fusions so the loop-latch shapes
                        // (`store; i += 1; br` and `i += k; j += 1; br`)
                        // keep their branch instead of degrading to a
                        // pair plus a bare Jump.
                        if ii + 2 == insts.len() {
                            let fused = match (&insts[ii], &insts[ii + 1], &block.term) {
                                (
                                    Inst::IntOp { dst: ad, op: aop, lhs: al, rhs: ar },
                                    Inst::IntOp { dst: bd, op: bop, lhs: bl, rhs: br2 },
                                    Term::Br(t),
                                ) => Some(OpKind::IntOp2Jump {
                                    a_dst: ad.0,
                                    a_op: *aop,
                                    a_lhs: pool.slot(*al),
                                    a_rhs: pool.slot(*ar),
                                    b_dst: bd.0,
                                    b_op: *bop,
                                    b_lhs: pool.slot(*bl),
                                    b_rhs: pool.slot(*br2),
                                    target: t.0,
                                }),
                                (
                                    Inst::Store { addr, off, value },
                                    Inst::IntOp { dst, op, lhs, rhs },
                                    Term::Br(t),
                                ) => Some(OpKind::StoreIntOpJump {
                                    addr: pool.slot(*addr),
                                    off: *off,
                                    value: pool.slot(*value),
                                    dst: dst.0,
                                    op: *op,
                                    lhs: pool.slot(*lhs),
                                    rhs: pool.slot(*rhs),
                                    target: t.0,
                                }),
                                _ => None,
                            };
                            if let Some(kind) = fused {
                                ops.push(Op { kind, charge });
                                ii += 2;
                                term_fused = true;
                                continue;
                            }
                        }
                        // Peephole: two adjacent integer ops in one
                        // dispatch. Greedy pairing never loses against the
                        // other fusions: any alternative grouping of the
                        // same window yields the same dispatch count.
                        if let Inst::IntOp { dst: ad, op: aop, lhs: al, rhs: ar } = &insts[ii] {
                            if let Some(Inst::IntOp { dst: bd, op: bop, lhs: bl, rhs: br }) =
                                insts.get(ii + 1)
                            {
                                ops.push(Op {
                                    kind: OpKind::IntOp2 {
                                        a_dst: ad.0,
                                        a_op: *aop,
                                        a_lhs: pool.slot(*al),
                                        a_rhs: pool.slot(*ar),
                                        b_dst: bd.0,
                                        b_op: *bop,
                                        b_lhs: pool.slot(*bl),
                                        b_rhs: pool.slot(*br),
                                    },
                                    charge,
                                });
                                ii += 2;
                                continue;
                            }
                        }
                        // Peephole: block-final instruction folded into the
                        // block's own terminator.
                        if ii + 1 == insts.len() {
                            let fused = match (&insts[ii], &block.term) {
                                (Inst::IntOp { dst, op, lhs, rhs }, Term::Br(t)) => {
                                    Some(OpKind::IntOpJump {
                                        dst: dst.0,
                                        op: *op,
                                        lhs: pool.slot(*lhs),
                                        rhs: pool.slot(*rhs),
                                        target: t.0,
                                    })
                                }
                                (
                                    Inst::CmpInt { dst, op, lhs, rhs },
                                    Term::CondBr { cond: Operand::Reg(c), then_bb, else_bb },
                                ) if c == dst => Some(OpKind::CmpBr {
                                    dst: dst.0,
                                    op: *op,
                                    lhs: pool.slot(*lhs),
                                    rhs: pool.slot(*rhs),
                                    then_pc: then_bb.0,
                                    else_pc: else_bb.0,
                                }),
                                _ => None,
                            };
                            if let Some(kind) = fused {
                                ops.push(Op { kind, charge });
                                ii += 1;
                                term_fused = true;
                                continue;
                            }
                        }
                        ops.push(Op {
                            kind: decode_inst(&insts[ii], &index, &mut pool, &mut call_args),
                            charge,
                        });
                        ii += 1;
                    }
                    if !term_fused {
                        let kind = match &block.term {
                            Term::Br(t) => OpKind::Jump { target: t.0 },
                            Term::CondBr { cond, then_bb, else_bb } => OpKind::Branch {
                                cond: pool.slot(*cond),
                                then_pc: then_bb.0,
                                else_pc: else_bb.0,
                            },
                            Term::Ret(v) => OpKind::Ret { value: v.map(|op| pool.slot(op)) },
                        };
                        ops.push(Op { kind, charge: Charge::default() });
                    }
                }
                // Charge conservation: the executor accounts `op.charge`
                // only on site-capable arms (and `charge2`/`lcharge` on
                // the gep+load fusions). Every other slot — including the
                // int-op/gep/cmp halves buried inside fusions — must be
                // chargeless. Holds because analysis only emits decisions
                // for load/store/pointer kinds.
                debug_assert!(ops.iter().all(|op| match op.kind {
                    OpKind::Load { .. }
                    | OpKind::LoadPtr { .. }
                    | OpKind::Store { .. }
                    | OpKind::StorePtr { .. }
                    | OpKind::PtrToInt { .. }
                    | OpKind::CmpPtr { .. }
                    | OpKind::PtrDiff { .. }
                    | OpKind::Free { .. }
                    | OpKind::StoreIntOpJump { .. } => true,
                    _ => op.charge == Charge::default(),
                }));
                // Fixup: block ids → flat op indices.
                for op in &mut ops {
                    match &mut op.kind {
                        OpKind::Jump { target }
                        | OpKind::IntOpJump { target, .. }
                        | OpKind::IntOp2Jump { target, .. }
                        | OpKind::StoreIntOpJump { target, .. } => {
                            *target = block_entry[*target as usize];
                        }
                        OpKind::Branch { then_pc, else_pc, .. }
                        | OpKind::CmpBr { then_pc, else_pc, .. } => {
                            *then_pc = block_entry[*then_pc as usize];
                            *else_pc = block_entry[*else_pc as usize];
                        }
                        _ => {}
                    }
                }
                DecodedFn {
                    name: name.clone(),
                    params: f.params,
                    regs: f.regs + pool.vals.len() as u32,
                    consts: pool.vals,
                    ops,
                    call_args,
                }
            })
            .collect();
        DecodedModule { fns, index }
    }

    /// Dense index of a function, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).map(|i| *i as usize)
    }

    /// Total flat ops across all functions (instructions + terminators).
    pub fn total_ops(&self) -> usize {
        self.fns.iter().map(DecodedFn::op_count).sum()
    }

    /// Number of decoded functions.
    pub fn fn_count(&self) -> usize {
        self.fns.len()
    }
}

fn decode_inst(
    inst: &Inst,
    index: &BTreeMap<String, u32>,
    pool: &mut ConstPool,
    call_args: &mut Vec<u32>,
) -> OpKind {
    match inst {
        // `dst = imm` decodes to a copy from the interned constant slot —
        // the dedicated ConstInt op disappears entirely.
        Inst::ConstInt { dst, value } => {
            OpKind::Copy { dst: dst.0, src: pool.int(*value) }
        }
        Inst::Malloc { dst, size } => OpKind::Malloc { dst: dst.0, size: pool.slot(*size) },
        Inst::Pmalloc { dst, size } => OpKind::Pmalloc { dst: dst.0, size: pool.slot(*size) },
        Inst::Free { ptr } => OpKind::Free { ptr: pool.slot(*ptr) },
        Inst::Load { dst, addr, off } => {
            OpKind::Load { dst: dst.0, addr: pool.slot(*addr), off: *off }
        }
        Inst::Store { addr, off, value } => {
            OpKind::Store { addr: pool.slot(*addr), off: *off, value: pool.slot(*value) }
        }
        Inst::LoadPtr { dst, addr, off } => {
            OpKind::LoadPtr { dst: dst.0, addr: pool.slot(*addr), off: *off }
        }
        Inst::StorePtr { addr, off, value } => {
            OpKind::StorePtr { addr: pool.slot(*addr), off: *off, value: pool.slot(*value) }
        }
        Inst::Gep { dst, base, off } => {
            OpKind::Gep { dst: dst.0, base: pool.slot(*base), off: pool.slot(*off) }
        }
        Inst::IntOp { dst, op, lhs, rhs } => {
            OpKind::IntOp { dst: dst.0, op: *op, lhs: pool.slot(*lhs), rhs: pool.slot(*rhs) }
        }
        Inst::PtrToInt { dst, src } => OpKind::PtrToInt { dst: dst.0, src: pool.slot(*src) },
        Inst::IntToPtr { dst, src } => OpKind::IntToPtr { dst: dst.0, src: pool.slot(*src) },
        Inst::PtrDiff { dst, lhs, rhs } => {
            OpKind::PtrDiff { dst: dst.0, lhs: pool.slot(*lhs), rhs: pool.slot(*rhs) }
        }
        Inst::CmpPtr { dst, op, lhs, rhs } => {
            OpKind::CmpPtr { dst: dst.0, op: *op, lhs: pool.slot(*lhs), rhs: pool.slot(*rhs) }
        }
        Inst::CmpInt { dst, op, lhs, rhs } => {
            OpKind::CmpInt { dst: dst.0, op: *op, lhs: pool.slot(*lhs), rhs: pool.slot(*rhs) }
        }
        Inst::Copy { dst, src } => OpKind::Copy { dst: dst.0, src: pool.slot(*src) },
        Inst::Call { dst, callee, args } => {
            let args_start = call_args.len() as u32;
            call_args.extend(args.iter().map(|a| pool.slot(*a)));
            OpKind::Call {
                dst: dst.map(|d| d.0),
                callee: *index.get(callee).expect("verified module: callee exists"),
                args_start,
                args_len: args.len() as u32,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_module;

    #[test]
    fn kernels_decode_flat_and_dense() {
        let m = crate::kernels::module();
        let report = analyze_module(&m);
        let d = DecodedModule::new(&m, &report);
        assert_eq!(d.fn_count(), m.functions.len());
        for (name, f) in &m.functions {
            let fi = d.index_of(name).unwrap();
            // Fusion only ever shrinks the op array, and never below one
            // op per block; the constant pool extends (never shrinks) the
            // register file.
            let unfused: usize = f.blocks.iter().map(|b| b.insts.len() + 1).sum();
            assert!(d.fns[fi].ops.len() <= unfused, "{name}");
            assert!(d.fns[fi].ops.len() >= f.blocks.len(), "{name}");
            assert_eq!(
                d.fns[fi].regs,
                f.regs + d.fns[fi].consts.len() as u32,
                "{name}"
            );
        }
        // Every site charge in the report appears exactly once in the ops
        // (fused ops carry the second instruction's charge in `charge2`).
        let report_sites: usize =
            report.functions.values().map(|f| f.decisions.len()).sum();
        let op_sites: usize = d
            .fns
            .iter()
            .flat_map(|f| f.ops.iter())
            .map(|o| {
                let extra = match o.kind {
                    OpKind::GepLoad { charge2, .. } => {
                        usize::from(charge2.max_checks != 0)
                    }
                    OpKind::IntOpGepLoad { lcharge, .. } => {
                        usize::from(lcharge.max_checks != 0)
                    }
                    _ => 0,
                };
                usize::from(o.charge.max_checks != 0) + extra
            })
            .sum();
        assert_eq!(report_sites, op_sites);
    }

    #[test]
    fn fusion_emits_superinstructions_for_loop_shapes() {
        use crate::ir::FnBuilder;
        // A counted loop whose body exercises every fusion shape: the
        // header fuses to CmpBr, scaled-index addressing to IntOpGepLoad,
        // a bare address+load pair to GepLoad, adjacent int ops to
        // IntOp2, and the block-final latch increment to IntOpJump.
        let mut b = FnBuilder::new("loop", 2);
        let (p, n) = (b.param(0), b.param(1));
        let (i, acc) = (b.fresh(), b.fresh());
        let check = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.const_int(i, 0);
        b.const_int(acc, 0);
        b.br(check);
        b.switch_to(check);
        let c = b.fresh();
        b.cmp_int(c, CmpOp::Lt, Operand::Reg(i), Operand::Reg(n));
        b.cond_br(Operand::Reg(c), body, done);
        b.switch_to(body);
        let off = b.fresh();
        b.int_op(off, IntOp::Mul, Operand::Reg(i), Operand::Imm(8));
        let q = b.fresh();
        b.gep(q, Operand::Reg(p), Operand::Reg(off));
        let v = b.fresh();
        b.load(v, Operand::Reg(q), 0);
        let q2 = b.fresh();
        b.gep(q2, Operand::Reg(p), Operand::Reg(i));
        let v2 = b.fresh();
        b.load(v2, Operand::Reg(q2), 0);
        b.int_add(acc, Operand::Reg(acc), Operand::Reg(v));
        b.int_add(acc, Operand::Reg(acc), Operand::Reg(v2));
        b.int_add(i, Operand::Reg(i), Operand::Imm(8));
        b.br(check);
        b.switch_to(done);
        b.ret(Some(Operand::Reg(acc)));
        let mut m = Module::new();
        m.add(b.finish());
        m.verify().unwrap();
        let d = DecodedModule::new(&m, &analyze_module(&m));
        let kinds: Vec<&'static str> = d.fns[0]
            .ops
            .iter()
            .map(|o| match o.kind {
                OpKind::GepLoad { .. } => "gepload",
                OpKind::IntOpGepLoad { .. } => "intopgepload",
                OpKind::IntOp2 { .. } => "intop2",
                OpKind::CmpBr { .. } => "cmpbr",
                OpKind::IntOpJump { .. } => "intopjump",
                _ => "other",
            })
            .collect();
        for want in ["gepload", "intopgepload", "intop2", "cmpbr", "intopjump"] {
            assert!(kinds.contains(&want), "missing {want}: {kinds:?}");
        }
    }

    #[test]
    fn constant_pool_interns_and_dedups() {
        use crate::ir::FnBuilder;
        let mut b = FnBuilder::new("c", 0);
        let r = b.fresh();
        b.const_int(r, 5);
        let s = b.fresh();
        b.int_op(s, IntOp::Add, Operand::Reg(r), Operand::Imm(5));
        b.int_op(s, IntOp::Add, Operand::Reg(s), Operand::Imm(5));
        b.int_op(s, IntOp::Add, Operand::Reg(s), Operand::Imm(9));
        b.ret(Some(Operand::Reg(s)));
        let mut m = Module::new();
        m.add(b.finish());
        m.verify().unwrap();
        let d = DecodedModule::new(&m, &analyze_module(&m));
        // 5 is interned once (shared by const_int and both immediates), 9
        // once: two constant slots on top of the two registers.
        assert_eq!(d.fns[0].consts, vec![Val::Int(5), Val::Int(9)]);
        assert_eq!(d.fns[0].regs, 4);
    }
}
