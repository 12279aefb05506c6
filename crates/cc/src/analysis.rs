//! Pointer-property dataflow inference — the paper's compiler-based method.
//!
//! A forward fixed-point analysis over each function's CFG propagates two
//! lattices per register: the pointer's storage *format* (virtual /
//! relative) and its target *space* (DRAM / NVM). Seeds come from the
//! definitions the paper cites (§V-B): `malloc` returns a DRAM virtual
//! address, `pmalloc` returns a relative address; parameters and values
//! loaded from memory start unknown — exactly the cases that force dynamic
//! checks to remain in library code.
//!
//! The output is a per-site [`Decision`]: how many dynamic checks the
//! generated code must execute at that instruction. The paper measures that
//! roughly 42 % of checks survive inference on its benchmarks; the kernel
//! suite in [`crate::kernels`] reproduces that magnitude.

use crate::ir::{BlockId, Function, Inst, Module, Operand};
use std::collections::{BTreeMap, VecDeque};

/// A three-point lattice over a small fact domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lat<T> {
    /// Unreached / uninitialized.
    Bottom,
    /// Exactly this fact on every path.
    Known(T),
    /// Conflicting or unknowable.
    Top,
}

impl<T: PartialEq + Copy> Lat<T> {
    /// Least upper bound.
    pub fn join(self, other: Self) -> Self {
        match (self, other) {
            (Lat::Bottom, x) | (x, Lat::Bottom) => x,
            (Lat::Known(a), Lat::Known(b)) if a == b => Lat::Known(a),
            _ => Lat::Top,
        }
    }

    /// True when the fact is statically known.
    pub fn is_known(self) -> bool {
        matches!(self, Lat::Known(_))
    }
}

/// Pointer storage format fact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FmtFact {
    /// Virtual-address format.
    Va,
    /// Relative format.
    Rel,
}

/// Pointer target space fact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpaceFact {
    /// Volatile memory.
    Dram,
    /// Persistent memory.
    Nvm,
}

/// Per-register abstract state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fact {
    /// Storage format lattice.
    pub format: Lat<FmtFact>,
    /// Target space lattice.
    pub space: Lat<SpaceFact>,
}

impl Fact {
    /// Bottom (unreached).
    pub const BOTTOM: Fact = Fact { format: Lat::Bottom, space: Lat::Bottom };
    /// Completely unknown.
    pub const TOP: Fact = Fact { format: Lat::Top, space: Lat::Top };

    /// Join of both components.
    pub fn join(self, other: Fact) -> Fact {
        Fact { format: self.format.join(other.format), space: self.space.join(other.space) }
    }
}

/// Identifies one instruction: (block, index within block).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteKey {
    /// Containing block.
    pub block: BlockId,
    /// Index within the block.
    pub index: usize,
}

/// What the generated code must do at a pointer-operation site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decision {
    /// Dynamic checks the code must execute here (0 = fully resolved).
    pub checks: u8,
    /// Total checks the operation would need with no inference at all.
    pub max_checks: u8,
}

impl Decision {
    /// True when inference removed every check.
    pub fn resolved(&self) -> bool {
        self.checks == 0
    }

    /// Checks inference removed at this site (`max_checks - checks`).
    pub fn elided(&self) -> u8 {
        self.max_checks - self.checks
    }
}

/// Analysis result for one function.
#[derive(Clone, Debug)]
pub struct FnAnalysis {
    /// Entry-state fact per register at each block (fixed point).
    pub block_in: Vec<Vec<Fact>>,
    /// Check decision per pointer-operation site.
    pub decisions: BTreeMap<SiteKey, Decision>,
}

impl FnAnalysis {
    /// Static sites that still need at least one check.
    pub fn checked_sites(&self) -> usize {
        self.decisions.values().filter(|d| !d.resolved()).count()
    }

    /// All pointer-operation sites.
    pub fn total_sites(&self) -> usize {
        self.decisions.len()
    }

    /// `(checks kept, checks a no-inference compiler would insert)` summed
    /// over this function's sites.
    pub fn check_counts(&self) -> (u64, u64) {
        let mut kept = 0u64;
        let mut max = 0u64;
        for d in self.decisions.values() {
            kept += u64::from(d.checks);
            max += u64::from(d.max_checks);
        }
        (kept, max)
    }

    /// Fraction of this function's *static* checks surviving inference.
    pub fn static_check_fraction(&self) -> f64 {
        let (kept, max) = self.check_counts();
        if max == 0 {
            0.0
        } else {
            kept as f64 / max as f64
        }
    }
}

/// Whole-module inference report.
#[derive(Clone, Debug, Default)]
pub struct InferenceReport {
    /// Per-function analyses.
    pub functions: BTreeMap<String, FnAnalysis>,
}

impl InferenceReport {
    /// Fraction of *static* checks that survive inference (checks kept /
    /// checks a no-inference compiler would insert).
    pub fn static_check_fraction(&self) -> f64 {
        let mut kept = 0u64;
        let mut max = 0u64;
        for f in self.functions.values() {
            for d in f.decisions.values() {
                kept += u64::from(d.checks);
                max += u64::from(d.max_checks);
            }
        }
        if max == 0 {
            0.0
        } else {
            kept as f64 / max as f64
        }
    }
}

fn operand_fact(state: &[Fact], op: Operand) -> Fact {
    match op {
        Operand::Reg(r) => state[r.0 as usize],
        // Integer immediates used as pointers are virtual by Fig. 4; null is
        // a known-virtual constant.
        Operand::Imm(_) | Operand::Null => {
            Fact { format: Lat::Known(FmtFact::Va), space: Lat::Known(SpaceFact::Dram) }
        }
    }
}

/// Interprocedural analysis options.
///
/// The default is the paper's intraprocedural inference (§V-B): parameters,
/// loaded pointers, and call results all start `Top`. With
/// `interprocedural` set, three extra fact sources are layered on (bottom-up
/// over the call graph, iterated to a module fixpoint):
///
/// - **parameter facts**: the join of argument facts over every in-module
///   call site (roots keep `Top` — they are callable from outside);
/// - **return facts**: the join of `Ret` operand facts per callee;
/// - **heap cells**: a field-insensitive points-to split into one abstract
///   NVM cell and one DRAM cell. `StorePtr` joins the *post-conversion*
///   stored representation into the cell(s) its address may target;
///   `LoadPtr` reads the cell(s) its address space fact selects instead of
///   collapsing to `Top`. Pointer and integer fields are type-separated
///   (the IR distinguishes `Load`/`LoadPtr`), and null stores are skipped
///   — null behaves identically under both formats, so it constrains
///   nothing.
#[derive(Clone, Debug, Default)]
pub struct InferOptions {
    /// Enable the interprocedural layer.
    pub interprocedural: bool,
    /// Functions assumed callable from outside the module with unknown
    /// arguments. `None` selects the call-graph sources; functions never
    /// called in-module are always treated as roots.
    pub roots: Option<Vec<String>>,
}

impl InferOptions {
    /// The paper's intraprocedural inference.
    pub fn intra() -> Self {
        InferOptions::default()
    }

    /// Interprocedural inference with call-graph sources as roots.
    pub fn inter() -> Self {
        InferOptions { interprocedural: true, roots: None }
    }

    /// Interprocedural inference with an explicit root set.
    pub fn inter_with_roots<S: Into<String>, I: IntoIterator<Item = S>>(roots: I) -> Self {
        InferOptions {
            interprocedural: true,
            roots: Some(roots.into_iter().map(Into::into).collect()),
        }
    }
}

/// Module-level interprocedural context: per-function summaries plus the
/// two type-separated abstract heap cells.
#[derive(Clone, Debug, PartialEq)]
struct ModCtx {
    /// Entry fact per parameter, per function.
    params: BTreeMap<String, Vec<Fact>>,
    /// Return-value fact per function (join over `Ret` operands).
    rets: BTreeMap<String, Fact>,
    /// Abstract cell for pointer fields resident in NVM.
    nvm_cell: Fact,
    /// Abstract cell for pointer fields resident in DRAM.
    dram_cell: Fact,
}

impl ModCtx {
    fn new(m: &Module, roots: &[&str]) -> ModCtx {
        let mut called: std::collections::BTreeSet<&str> = Default::default();
        for f in m.functions.values() {
            for block in &f.blocks {
                for inst in &block.insts {
                    if let Inst::Call { callee, .. } = inst {
                        called.insert(callee.as_str());
                    }
                }
            }
        }
        let mut params = BTreeMap::new();
        let mut rets = BTreeMap::new();
        for (name, f) in &m.functions {
            // Roots (and functions nothing in the module calls) face the
            // open world: their parameters stay unknown.
            let open = roots.contains(&name.as_str()) || !called.contains(name.as_str());
            let seed = if open { Fact::TOP } else { Fact::BOTTOM };
            params.insert(name.clone(), vec![seed; f.params as usize]);
            rets.insert(name.clone(), Fact::BOTTOM);
        }
        ModCtx { params, rets, nvm_cell: Fact::BOTTOM, dram_cell: Fact::BOTTOM }
    }

    /// Fact for a pointer loaded through an address with the given space
    /// fact: the matching cell, or the join of both when the target space
    /// is unknown.
    fn loaded_fact(&self, addr_space: Lat<SpaceFact>) -> Fact {
        match addr_space {
            Lat::Known(SpaceFact::Nvm) => self.nvm_cell,
            Lat::Known(SpaceFact::Dram) => self.dram_cell,
            Lat::Bottom | Lat::Top => self.nvm_cell.join(self.dram_cell),
        }
    }

    /// The representation `StorePtr` leaves in an NVM-resident field after
    /// the Fig. 4 assignment conversion: NVM-targeting values are stored
    /// relative, DRAM-targeting values stay virtual, and an
    /// already-relative value stays relative regardless of its space fact
    /// (relative pointers only ever target NVM).
    fn nvm_stored_repr(v: Fact) -> Fact {
        let format = match v.space {
            Lat::Known(SpaceFact::Nvm) => Lat::Known(FmtFact::Rel),
            Lat::Known(SpaceFact::Dram) => Lat::Known(FmtFact::Va),
            Lat::Bottom => Lat::Bottom,
            Lat::Top => {
                if v.format == Lat::Known(FmtFact::Rel) {
                    Lat::Known(FmtFact::Rel)
                } else {
                    Lat::Top
                }
            }
        };
        Fact { format, space: v.space }
    }

    /// Records one `StorePtr`'s contribution to the heap cells.
    fn absorb_store(&mut self, addr: Fact, value: Fact) {
        if value == Fact::BOTTOM {
            // Unreached stores constrain nothing.
            return;
        }
        let to_nvm = addr.space != Lat::Known(SpaceFact::Dram);
        let to_dram = addr.space != Lat::Known(SpaceFact::Nvm);
        if to_nvm {
            self.nvm_cell = self.nvm_cell.join(Self::nvm_stored_repr(value));
        }
        if to_dram {
            // DRAM-resident fields always hold virtual addresses (ra2va on
            // assignment); the target space is the value's.
            self.dram_cell = self
                .dram_cell
                .join(Fact { format: Lat::Known(FmtFact::Va), space: value.space });
        }
    }
}

/// Transfer function of one instruction over the register state. With a
/// module context, `Call` and `LoadPtr` results use the interprocedural
/// summaries instead of collapsing to `Top`.
fn transfer(state: &mut Vec<Fact>, inst: &Inst, ctx: Option<&ModCtx>) {
    let get = |state: &Vec<Fact>, op: Operand| operand_fact(state, op);
    match inst {
        Inst::ConstInt { dst, .. } => {
            state[dst.0 as usize] =
                Fact { format: Lat::Known(FmtFact::Va), space: Lat::Known(SpaceFact::Dram) };
        }
        Inst::Malloc { dst, .. } => {
            state[dst.0 as usize] =
                Fact { format: Lat::Known(FmtFact::Va), space: Lat::Known(SpaceFact::Dram) };
        }
        Inst::Pmalloc { dst, .. } => {
            state[dst.0 as usize] =
                Fact { format: Lat::Known(FmtFact::Rel), space: Lat::Known(SpaceFact::Nvm) };
        }
        Inst::Load { dst, .. } => {
            // Loaded integers: known non-pointer; treat as virtual/dram so
            // integer paths never demand checks.
            state[dst.0 as usize] =
                Fact { format: Lat::Known(FmtFact::Va), space: Lat::Known(SpaceFact::Dram) };
        }
        Inst::LoadPtr { dst, addr, .. } => {
            // Intraprocedurally a pointer loaded from memory has unknown
            // format and space — the central source of residual checks.
            // Interprocedurally it reads the abstract heap cell its address
            // targets, so reloaded pointers keep their alloc-site facts.
            state[dst.0 as usize] = match ctx {
                Some(c) => c.loaded_fact(get(state, *addr).space),
                None => Fact::TOP,
            };
        }
        Inst::Gep { dst, base, .. } => {
            // Pointer arithmetic preserves both facts (Fig. 4 additive row).
            state[dst.0 as usize] = get(state, *base);
        }
        Inst::IntOp { dst, .. } | Inst::CmpInt { dst, .. } | Inst::CmpPtr { dst, .. }
        | Inst::PtrDiff { dst, .. } => {
            state[dst.0 as usize] =
                Fact { format: Lat::Known(FmtFact::Va), space: Lat::Known(SpaceFact::Dram) };
        }
        Inst::PtrToInt { dst, .. } => {
            // (I)p yields the virtual address per Fig. 4.
            state[dst.0 as usize] =
                Fact { format: Lat::Known(FmtFact::Va), space: Lat::Top };
        }
        Inst::IntToPtr { dst, src } => {
            // Bits adopted verbatim: format follows the source if it was a
            // tracked pointer-derived integer; conservatively virtual with
            // unknown space (ints normally carry virtual addresses).
            let f = get(state, *src);
            state[dst.0 as usize] = Fact {
                format: if f.format.is_known() { f.format } else { Lat::Known(FmtFact::Va) },
                space: Lat::Top,
            };
        }
        Inst::Copy { dst, src } => {
            state[dst.0 as usize] = get(state, *src);
        }
        Inst::Call { dst, callee, .. } => {
            // Intraprocedural: unknown return. Interprocedural: the
            // callee's return summary.
            if let Some(d) = dst {
                state[d.0 as usize] = match ctx {
                    Some(c) => c.rets.get(callee).copied().unwrap_or(Fact::TOP),
                    None => Fact::TOP,
                };
            }
        }
        Inst::Free { .. } | Inst::Store { .. } | Inst::StorePtr { .. } => {}
    }
}

/// The checks an instruction needs given the incoming state.
fn decide(state: &[Fact], inst: &Inst) -> Option<Decision> {
    let f = |op: &Operand| operand_fact(state, *op);
    match inst {
        // Dereferences: one determineY on the address operand.
        Inst::Load { addr, .. } | Inst::LoadPtr { addr, .. } | Inst::Store { addr, .. } => {
            let needs = !f(addr).format.is_known();
            Some(Decision { checks: needs.into(), max_checks: 1 })
        }
        // Pointer store: determineY on the address, then determineX on the
        // resolved destination and determineY on the value (Fig. 3).
        Inst::StorePtr { addr, value, .. } => {
            let a = f(addr);
            let v = f(value);
            let mut checks = 0u8;
            if !a.format.is_known() {
                checks += 1;
            }
            if !a.space.is_known() {
                checks += 1;
            }
            if !v.format.is_known() {
                checks += 1;
            }
            Some(Decision { checks, max_checks: 3 })
        }
        // Casts and comparisons: determineY per pointer operand.
        Inst::PtrToInt { src, .. } => {
            Some(Decision { checks: (!f(src).format.is_known()).into(), max_checks: 1 })
        }
        Inst::CmpPtr { lhs, rhs, .. } | Inst::PtrDiff { lhs, rhs, .. } => {
            let c = u8::from(!f(lhs).format.is_known()) + u8::from(!f(rhs).format.is_known());
            Some(Decision { checks: c, max_checks: 2 })
        }
        Inst::Free { ptr } => {
            Some(Decision { checks: (!f(ptr).format.is_known()).into(), max_checks: 1 })
        }
        _ => None,
    }
}

/// Runs the intraprocedural inference on one function.
pub fn analyze_function(f: &Function) -> FnAnalysis {
    analyze_function_ctx(f, None)
}

fn analyze_function_ctx(f: &Function, ctx: Option<&ModCtx>) -> FnAnalysis {
    let nregs = f.regs as usize;
    let nblocks = f.blocks.len();
    let mut block_in: Vec<Vec<Fact>> = vec![vec![Fact::BOTTOM; nregs]; nblocks];
    // Parameters: unknown at entry (the library-migration problem), unless
    // the interprocedural context has a summary of every call site.
    for r in 0..f.params as usize {
        block_in[0][r] = match ctx {
            Some(c) => c.params[&f.name][r],
            None => Fact::TOP,
        };
    }
    let mut work: VecDeque<usize> = VecDeque::from(vec![0]);
    let mut queued = vec![false; nblocks];
    let mut visited = vec![false; nblocks];
    queued[0] = true;

    while let Some(b) = work.pop_front() {
        queued[b] = false;
        visited[b] = true;
        let mut state = block_in[b].clone();
        for inst in &f.blocks[b].insts {
            transfer(&mut state, inst, ctx);
        }
        for succ in f.blocks[b].term.successors() {
            let s = succ.0 as usize;
            let mut changed = false;
            for r in 0..nregs {
                let joined = block_in[s][r].join(state[r]);
                if joined != block_in[s][r] {
                    block_in[s][r] = joined;
                    changed = true;
                }
            }
            // Every block is processed at least once even if the join is a
            // no-op (all-Bottom propagation).
            if (changed || !visited[s]) && !queued[s] {
                queued[s] = true;
                work.push_back(s);
            }
        }
    }

    // Second pass: decisions at the fixed point.
    let mut decisions = BTreeMap::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        let mut state = block_in[bi].clone();
        for (ii, inst) in block.insts.iter().enumerate() {
            if let Some(d) = decide(&state, inst) {
                decisions.insert(SiteKey { block: BlockId(bi as u32), index: ii }, d);
            }
            transfer(&mut state, inst, ctx);
        }
    }
    FnAnalysis { block_in, decisions }
}

/// Replays one function at its fixed point and joins its outward effects —
/// call arguments, return facts, heap-cell stores — into `ctx`. Returns
/// whether anything grew.
fn absorb_effects(f: &Function, fa: &FnAnalysis, ctx: &mut ModCtx) -> bool {
    let read = ctx.clone();
    for (bi, block) in f.blocks.iter().enumerate() {
        let mut state = fa.block_in[bi].clone();
        for inst in &block.insts {
            match inst {
                Inst::Call { callee, args, .. } => {
                    if let Some(ps) = ctx.params.get_mut(callee.as_str()) {
                        for (i, a) in args.iter().enumerate() {
                            if let Some(p) = ps.get_mut(i) {
                                *p = p.join(operand_fact(&state, *a));
                            }
                        }
                    }
                }
                Inst::StorePtr { addr, value, .. } => {
                    // Null stores constrain nothing: null reads back as
                    // null, behaving identically under both formats.
                    if *value != Operand::Null {
                        ctx.absorb_store(operand_fact(&state, *addr), operand_fact(&state, *value));
                    }
                }
                _ => {}
            }
            transfer(&mut state, inst, Some(&read));
        }
        if let crate::ir::Term::Ret(Some(op)) = &block.term {
            let r = ctx.rets.get_mut(&f.name).expect("ret summary exists");
            *r = r.join(operand_fact(&state, *op));
        }
    }
    *ctx != read
}

/// Runs the intraprocedural inference on every function of a module.
pub fn analyze_module(m: &Module) -> InferenceReport {
    analyze_module_with(m, &InferOptions::intra())
}

/// Runs the inference on every function of a module with explicit options.
///
/// Interprocedural facts only ever *refine* the intraprocedural result
/// (each summary replaces a `Top` seed with something at or below `Top`,
/// and transfer/join are monotone), so per-site `checks` can only shrink
/// while `max_checks` is identical — the conservation property the
/// interpreter's counters rely on.
pub fn analyze_module_with(m: &Module, opts: &InferOptions) -> InferenceReport {
    let mut report = InferenceReport::default();
    if !opts.interprocedural {
        for (name, f) in &m.functions {
            report.functions.insert(name.clone(), analyze_function(f));
        }
        return report;
    }

    let roots: Vec<&str> = match &opts.roots {
        Some(r) => r.iter().map(String::as_str).collect(),
        None => crate::passes::call_graph_roots(m),
    };
    let order = crate::passes::bottom_up_order(m);
    let mut ctx = ModCtx::new(m, &roots);
    // Module fixpoint: every lattice chain has height ≤ 2 per component,
    // so this converges in a handful of rounds; the bound is a backstop.
    for _round in 0..64 {
        let mut changed = false;
        for name in &order {
            let f = &m.functions[*name];
            let fa = analyze_function_ctx(f, Some(&ctx));
            changed |= absorb_effects(f, &fa, &mut ctx);
        }
        if !changed {
            break;
        }
    }
    for (name, f) in &m.functions {
        report.functions.insert(name.clone(), analyze_function_ctx(f, Some(&ctx)));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CmpOp, FnBuilder, Operand::*};

    #[test]
    fn lattice_join_rules() {
        use Lat::*;
        assert_eq!(Bottom.join(Known(FmtFact::Va)), Known(FmtFact::Va));
        assert_eq!(Known(FmtFact::Va).join(Known(FmtFact::Va)), Known(FmtFact::Va));
        assert_eq!(Known(FmtFact::Va).join(Known(FmtFact::Rel)), Top);
        assert_eq!(Top::<FmtFact>.join(Bottom), Top);
    }

    #[test]
    fn malloc_result_needs_no_checks() {
        let mut b = FnBuilder::new("f", 0);
        let p = b.fresh();
        b.malloc(p, Imm(64));
        b.store(Reg(p), 0, Imm(1));
        let v = b.fresh();
        b.load(v, Reg(p), 0);
        b.ret(Some(Reg(v)));
        let a = analyze_function(&b.finish());
        assert_eq!(a.checked_sites(), 0);
        assert_eq!(a.total_sites(), 2);
    }

    #[test]
    fn pmalloc_result_needs_no_checks_either() {
        let mut b = FnBuilder::new("f", 0);
        let p = b.fresh();
        b.pmalloc(p, Imm(64));
        b.store(Reg(p), 0, Imm(1));
        b.ret(None);
        let a = analyze_function(&b.finish());
        assert_eq!(a.checked_sites(), 0, "known-relative deref is direct ra2va, no check");
    }

    #[test]
    fn param_deref_needs_check() {
        let mut b = FnBuilder::new("f", 1);
        let v = b.fresh();
        b.load(v, Reg(b.param(0)), 0);
        b.ret(Some(Reg(v)));
        let a = analyze_function(&b.finish());
        assert_eq!(a.checked_sites(), 1);
    }

    #[test]
    fn loaded_pointer_needs_check() {
        let mut b = FnBuilder::new("f", 0);
        let p = b.fresh();
        b.pmalloc(p, Imm(64));
        let q = b.fresh();
        b.load_ptr(q, Reg(p), 0); // deref of p: resolved
        let v = b.fresh();
        b.load(v, Reg(q), 0); // deref of q: loaded pointer, unknown
        b.ret(Some(Reg(v)));
        let a = analyze_function(&b.finish());
        assert_eq!(a.checked_sites(), 1);
        assert_eq!(a.total_sites(), 2);
    }

    #[test]
    fn gep_preserves_facts() {
        let mut b = FnBuilder::new("f", 0);
        let p = b.fresh();
        b.pmalloc(p, Imm(64));
        let q = b.fresh();
        b.gep(q, Reg(p), Imm(8));
        b.store(Reg(q), 0, Imm(1));
        b.ret(None);
        let a = analyze_function(&b.finish());
        assert_eq!(a.checked_sites(), 0);
    }

    #[test]
    fn join_of_conflicting_formats_forces_check() {
        // if (c) p = malloc() else p = pmalloc(); *p — format differs on the
        // two paths, so the merged deref keeps its check.
        let mut b = FnBuilder::new("f", 1);
        let p = b.fresh();
        let t = b.new_block();
        let e = b.new_block();
        let m = b.new_block();
        b.cond_br(Reg(b.param(0)), t, e);
        b.switch_to(t);
        b.malloc(p, Imm(32));
        b.br(m);
        b.switch_to(e);
        b.pmalloc(p, Imm(32));
        b.br(m);
        b.switch_to(m);
        b.store(Reg(p), 0, Imm(7));
        b.ret(None);
        let a = analyze_function(&b.finish());
        let merged_deref_checked = a
            .decisions
            .iter()
            .any(|(k, d)| k.block == BlockId(3) && !d.resolved());
        assert!(merged_deref_checked);
    }

    #[test]
    fn store_ptr_decision_counts_three_potential_checks() {
        let mut b = FnBuilder::new("f", 2);
        b.store_ptr(Reg(b.param(0)), 0, Reg(b.param(1)));
        b.ret(None);
        let a = analyze_function(&b.finish());
        let d = a.decisions.values().next().unwrap();
        assert_eq!(d.max_checks, 3);
        assert_eq!(d.checks, 3, "param address and value: all three unknown");
    }

    #[test]
    fn cmp_ptr_checks_each_unknown_side() {
        let mut b = FnBuilder::new("f", 1);
        let q = b.fresh();
        b.pmalloc(q, Imm(16));
        let c = b.fresh();
        b.cmp_ptr(c, CmpOp::Ne, Reg(b.param(0)), Reg(q));
        b.ret(Some(Reg(c)));
        let a = analyze_function(&b.finish());
        let d = a.decisions.values().next().unwrap();
        assert_eq!(d.checks, 1, "only the parameter side is unknown");
        assert_eq!(d.max_checks, 2);
    }

    #[test]
    fn interprocedural_param_facts_resolve_callee_derefs() {
        // driver() pmallocs and calls leaf(p); leaf derefs its parameter.
        // Intra: the deref is checked. Inter: the only call site passes a
        // known-relative pointer, so the check is elided.
        let mut m = crate::ir::Module::new();
        let mut leaf = FnBuilder::new("leaf", 1);
        let v = leaf.fresh();
        leaf.load(v, Reg(leaf.param(0)), 0);
        leaf.ret(Some(Reg(v)));
        m.add(leaf.finish());
        let mut drv = FnBuilder::new("driver", 0);
        let p = drv.fresh();
        drv.pmalloc(p, Imm(16));
        drv.store(Reg(p), 0, Imm(9));
        let r = drv.fresh();
        drv.call(Some(r), "leaf", vec![Reg(p)]);
        drv.ret(Some(Reg(r)));
        m.add(drv.finish());
        m.verify().unwrap();

        let intra = analyze_module(&m);
        let inter = analyze_module_with(&m, &InferOptions::inter());
        assert_eq!(intra.functions["leaf"].checked_sites(), 1);
        assert_eq!(inter.functions["leaf"].checked_sites(), 0, "call-site fact propagated");
        // Return summary: driver's call result is leaf's loaded int.
        assert_eq!(inter.functions["driver"].checked_sites(), 0);
    }

    #[test]
    fn interprocedural_heap_cell_resolves_reloaded_pointers() {
        // p = pmalloc; *p = pmalloc (rel into NVM); q = loadp p; *q.
        // Intra: the loaded pointer is Top. Inter: the NVM cell only ever
        // holds relative NVM pointers, so the reload keeps its facts.
        let mut b = FnBuilder::new("chase", 0);
        let p = b.fresh();
        let n = b.fresh();
        b.pmalloc(p, Imm(16));
        b.pmalloc(n, Imm(16));
        b.store_ptr(Reg(p), 0, Reg(n));
        let q = b.fresh();
        b.load_ptr(q, Reg(p), 0);
        let v = b.fresh();
        b.load(v, Reg(q), 0);
        b.ret(Some(Reg(v)));
        let mut m = crate::ir::Module::new();
        m.add(b.finish());
        let intra = analyze_module(&m);
        let inter = analyze_module_with(&m, &InferOptions::inter());
        assert_eq!(intra.functions["chase"].checked_sites(), 1, "reload deref checked");
        assert_eq!(inter.functions["chase"].checked_sites(), 0, "cell fact resolves reload");
    }

    #[test]
    fn interprocedural_mixed_stores_keep_cell_unknown() {
        // Both a DRAM va and an NVM rel flow into NVM-resident fields: the
        // cell joins to Top format and reloads stay checked.
        let mut b = FnBuilder::new("mix", 0);
        let p = b.fresh();
        b.pmalloc(p, Imm(32));
        let d = b.fresh();
        b.malloc(d, Imm(32));
        let n = b.fresh();
        b.pmalloc(n, Imm(32));
        b.store_ptr(Reg(p), 0, Reg(d));
        b.store_ptr(Reg(p), 8, Reg(n));
        let q = b.fresh();
        b.load_ptr(q, Reg(p), 0);
        let v = b.fresh();
        b.load(v, Reg(q), 0);
        b.ret(Some(Reg(v)));
        let mut m = crate::ir::Module::new();
        m.add(b.finish());
        let inter = analyze_module_with(&m, &InferOptions::inter());
        // The final deref of the reloaded pointer stays checked: the NVM
        // cell saw both a va (DRAM-target store stays va) and a rel.
        assert_eq!(inter.functions["mix"].checked_sites(), 1);
    }

    #[test]
    fn interprocedural_never_increases_checks() {
        let m = crate::kernels::module();
        let intra = analyze_module(&m);
        let inter = analyze_module_with(&m, &InferOptions::inter());
        for (name, fa) in &intra.functions {
            let fb = &inter.functions[name];
            assert_eq!(fa.decisions.len(), fb.decisions.len(), "{name}: site sets differ");
            for (k, da) in &fa.decisions {
                let db = &fb.decisions[k];
                assert_eq!(da.max_checks, db.max_checks, "{name}:{k:?}");
                assert!(db.checks <= da.checks, "{name}:{k:?}: inter added a check");
            }
        }
        assert!(
            inter.static_check_fraction() < intra.static_check_fraction(),
            "inter {} !< intra {}",
            inter.static_check_fraction(),
            intra.static_check_fraction()
        );
    }

    #[test]
    fn explicit_roots_keep_params_unknown() {
        // Same module as the param-facts test, but leaf is forced open.
        let mut m = crate::ir::Module::new();
        let mut leaf = FnBuilder::new("leaf", 1);
        let v = leaf.fresh();
        leaf.load(v, Reg(leaf.param(0)), 0);
        leaf.ret(Some(Reg(v)));
        m.add(leaf.finish());
        let mut drv = FnBuilder::new("driver", 0);
        let p = drv.fresh();
        drv.pmalloc(p, Imm(16));
        let r = drv.fresh();
        drv.call(Some(r), "leaf", vec![Reg(p)]);
        drv.ret(Some(Reg(r)));
        m.add(drv.finish());
        let inter =
            analyze_module_with(&m, &InferOptions::inter_with_roots(["driver", "leaf"]));
        assert_eq!(inter.functions["leaf"].checked_sites(), 1, "open-world leaf keeps checks");
    }

    #[test]
    fn report_fraction_over_module() {
        let mut m = crate::ir::Module::new();
        // One fully resolved function, one fully unresolved.
        let mut b1 = FnBuilder::new("res", 0);
        let p = b1.fresh();
        b1.malloc(p, Imm(8));
        b1.store(Reg(p), 0, Imm(1));
        b1.ret(None);
        m.add(b1.finish());
        let mut b2 = FnBuilder::new("unres", 1);
        let v = b2.fresh();
        b2.load(v, Reg(b2.param(0)), 0);
        b2.ret(Some(Reg(v)));
        m.add(b2.finish());
        let r = analyze_module(&m);
        let f = r.static_check_fraction();
        assert!((f - 0.5).abs() < 1e-12, "one of two checks kept: {f}");
    }
}
