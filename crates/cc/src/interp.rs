//! IR interpreter: executes a module against the simulated heap with the
//! Fig. 4 semantics, counting the dynamic checks the compiled SW version
//! would execute.
//!
//! Both execution paths run every pointer rule through `utpr_ptr::c11`;
//! the interpreter's [`Translate`] hook counts conversions into
//! [`InterpStats`].
//!
//! This is the functional reference for the compiler path: tests run the
//! same kernels natively (plain Rust) and through the interpreter and
//! compare results, the analogue of the paper's LLVM test-suite validation.

use crate::analysis::{analyze_module, analyze_module_with, InferOptions, InferenceReport, SiteKey};
use crate::decode::{DecodedFn, DecodedModule, OpKind};
use crate::ir::{BlockId, CmpOp, Function, Inst, IntOp, Module, Operand, Term};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use utpr_heap::{AddressSpace, HeapError, PoolId, RelLoc, VirtAddr};
use utpr_ptr::c11::{self, Translate};
use utpr_ptr::{PtrSpace, UPtr};

/// A runtime value: the IR is dynamically typed between integers and
/// pointers, like C through casts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Val {
    /// An integer.
    Int(i64),
    /// A pointer in either format.
    Ptr(UPtr),
}

impl Val {
    /// Truthiness for conditional branches.
    pub fn is_true(self) -> bool {
        match self {
            Val::Int(i) => i != 0,
            Val::Ptr(p) => !p.is_null(),
        }
    }
}

/// Interpreter failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InterpError {
    /// A heap/translation fault.
    Heap(HeapError),
    /// An operand had the wrong dynamic type.
    Type(&'static str),
    /// The fuel budget was exhausted (runaway loop or recursion).
    OutOfFuel,
    /// Unknown function.
    NoFunction(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Heap(e) => write!(f, "heap fault: {e}"),
            InterpError::Type(what) => write!(f, "type error: {what}"),
            InterpError::OutOfFuel => write!(f, "out of fuel"),
            InterpError::NoFunction(n) => write!(f, "no function named {n:?}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<HeapError> for InterpError {
    fn from(e: HeapError) -> Self {
        InterpError::Heap(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, InterpError>;

/// Execution counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct InterpStats {
    /// Instructions executed.
    pub insts: u64,
    /// Pointer-operation sites executed.
    pub executed_ptr_ops: u64,
    /// Dynamic checks executed (post-inference).
    pub executed_checks: u64,
    /// Dynamic checks a no-inference compiler would have executed.
    pub max_checks: u64,
    /// Relative→virtual conversions performed.
    pub rel_to_abs: u64,
    /// Virtual→relative conversions performed.
    pub abs_to_rel: u64,
}

impl InterpStats {
    /// Fraction of executed checks surviving inference — the paper reports
    /// ≈ 42 % on its benchmarks.
    pub fn dynamic_check_fraction(&self) -> f64 {
        if self.max_checks == 0 {
            0.0
        } else {
            self.executed_checks as f64 / self.max_checks as f64
        }
    }
}

/// Per-function dynamic check counters: charges accumulated at sites
/// lexically inside the function (callee charges are attributed to the
/// callee). Both execution paths maintain these identically.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FnChecks {
    /// Pointer-operation sites executed.
    pub ptr_ops: u64,
    /// Dynamic checks executed (post-inference).
    pub executed_checks: u64,
    /// Checks a no-inference compiler would have executed.
    pub max_checks: u64,
}

impl FnChecks {
    /// Fraction of this function's executed checks surviving inference.
    pub fn residual_fraction(&self) -> f64 {
        if self.max_checks == 0 {
            0.0
        } else {
            self.executed_checks as f64 / self.max_checks as f64
        }
    }

    #[inline]
    fn absorb(&mut self, other: FnChecks) {
        self.ptr_ops += other.ptr_ops;
        self.executed_checks += other.executed_checks;
        self.max_checks += other.max_checks;
    }
}

// Error constructors for the hot loops: keeping construction out of line
// lets the dispatch loop stay branch-dense on the common path.
#[cold]
#[inline(never)]
fn out_of_fuel() -> InterpError {
    InterpError::OutOfFuel
}

#[cold]
#[inline(never)]
fn void_call() -> InterpError {
    InterpError::Type("void call used as value")
}

/// The interpreter: owns nothing, runs against a borrowed heap.
///
/// # Examples
///
/// ```
/// use utpr_cc::ir::{FnBuilder, Module, Operand};
/// use utpr_cc::interp::{Interp, Val};
/// use utpr_heap::AddressSpace;
///
/// let mut b = FnBuilder::new("store42", 0);
/// let p = b.fresh();
/// b.pmalloc(p, Operand::Imm(16));
/// b.store(Operand::Reg(p), 0, Operand::Imm(42));
/// let v = b.fresh();
/// b.load(v, Operand::Reg(p), 0);
/// b.ret(Some(Operand::Reg(v)));
/// let mut m = Module::new();
/// m.add(b.finish());
///
/// let mut space = AddressSpace::new(5);
/// let pool = space.create_pool("p", 1 << 20)?;
/// let mut interp = Interp::new(&mut space, pool, &m);
/// assert_eq!(interp.run("store42", vec![])?, Some(Val::Int(42)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Interp<'a> {
    space: &'a mut AddressSpace,
    pool: PoolId,
    module: &'a Module,
    report: InferenceReport,
    stats: InterpStats,
    fuel: u64,
    /// Dense function index in module (sorted) order — shared with
    /// [`DecodedModule`] so both paths attribute per-function checks to
    /// the same slots.
    fn_index: BTreeMap<String, u32>,
    fn_checks: Vec<FnChecks>,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter with a default fuel budget of 10 million
    /// instructions; persistent allocations go to `pool`.
    pub fn new(space: &'a mut AddressSpace, pool: PoolId, module: &'a Module) -> Self {
        let report = analyze_module(module);
        let fn_index: BTreeMap<String, u32> =
            module.functions.keys().enumerate().map(|(i, n)| (n.clone(), i as u32)).collect();
        let fn_checks = vec![FnChecks::default(); fn_index.len()];
        Interp {
            space,
            pool,
            module,
            report,
            stats: InterpStats::default(),
            fuel: 10_000_000,
            fn_index,
            fn_checks,
        }
    }

    /// Overrides the fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Re-runs the inference with explicit options (e.g.
    /// [`InferOptions::inter`]) and charges checks against that report.
    pub fn with_inference(mut self, opts: &InferOptions) -> Self {
        self.report = analyze_module_with(self.module, opts);
        self
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> InterpStats {
        self.stats
    }

    /// Fuel remaining.
    pub fn fuel_left(&self) -> u64 {
        self.fuel
    }

    /// The inference report the interpreter charges checks against.
    pub fn report(&self) -> &InferenceReport {
        &self.report
    }

    /// Per-function dynamic check counters accumulated so far, keyed by
    /// function name.
    pub fn per_function_checks(&self) -> BTreeMap<&str, FnChecks> {
        self.fn_index
            .iter()
            .map(|(name, &i)| (name.as_str(), self.fn_checks[i as usize]))
            .collect()
    }

    /// Decodes the module against this interpreter's inference report, for
    /// [`Interp::run_decoded`].
    pub fn decode(&self) -> DecodedModule {
        DecodedModule::new(self.module, &self.report)
    }

    /// Runs a function with the given arguments.
    ///
    /// # Errors
    ///
    /// Returns faults, type errors, fuel exhaustion, or unknown-function
    /// errors.
    pub fn run(&mut self, name: &str, args: Vec<Val>) -> Result<Option<Val>> {
        let module = self.module;
        let f = module
            .functions
            .get(name)
            .ok_or_else(|| InterpError::NoFunction(name.to_string()))?;
        if args.len() as u32 != f.params {
            return Err(InterpError::Type("argument count mismatch"));
        }
        let fi = self.fn_index[name] as usize;
        let mut frame = FnChecks::default();
        let out = self.run_frame(f, name, args, &mut frame);
        self.fn_checks[fi].absorb(frame);
        out
    }

    fn run_frame(
        &mut self,
        f: &Function,
        name: &str,
        args: Vec<Val>,
        frame: &mut FnChecks,
    ) -> Result<Option<Val>> {
        let mut regs: Vec<Val> = vec![Val::Int(0); f.regs as usize];
        regs[..args.len()].copy_from_slice(&args);

        let decisions = self.report.functions[name].decisions.clone();
        let mut bb = BlockId(0);
        loop {
            let block = &f.blocks[bb.0 as usize];
            for (ii, inst) in block.insts.iter().enumerate() {
                if self.fuel == 0 {
                    return Err(out_of_fuel());
                }
                self.fuel -= 1;
                self.stats.insts += 1;
                if let Some(d) = decisions.get(&SiteKey { block: bb, index: ii }) {
                    self.stats.executed_ptr_ops += 1;
                    self.stats.executed_checks += u64::from(d.checks);
                    self.stats.max_checks += u64::from(d.max_checks);
                    frame.ptr_ops += 1;
                    frame.executed_checks += u64::from(d.checks);
                    frame.max_checks += u64::from(d.max_checks);
                }
                self.step(inst, &mut regs)?;
            }
            // Terminators also consume fuel so empty-block loops terminate.
            if self.fuel == 0 {
                return Err(out_of_fuel());
            }
            self.fuel -= 1;
            match &block.term {
                Term::Br(t) => bb = *t,
                Term::CondBr { cond, then_bb, else_bb } => {
                    let c = eval(&regs, *cond);
                    bb = if c.is_true() { *then_bb } else { *else_bb };
                }
                Term::Ret(v) => return Ok(v.map(|op| eval(&regs, op))),
            }
        }
    }

    /// Runs a function through the pre-decoded fast path.
    ///
    /// `dm` must have been decoded against this interpreter's inference
    /// report (see [`Interp::decode`]); results, errors, fuel, and stats
    /// are then identical to [`Interp::run`] on the same inputs.
    ///
    /// # Errors
    ///
    /// Returns faults, type errors, fuel exhaustion, or unknown-function
    /// errors — the same set, and the same values, as [`Interp::run`].
    pub fn run_decoded(
        &mut self,
        dm: &DecodedModule,
        name: &str,
        args: Vec<Val>,
    ) -> Result<Option<Val>> {
        let fi = dm
            .index_of(name)
            .ok_or_else(|| InterpError::NoFunction(name.to_string()))?;
        self.exec_decoded(dm, fi, args)
    }

    fn exec_decoded(&mut self, dm: &DecodedModule, fi: usize, args: Vec<Val>) -> Result<Option<Val>> {
        let df = &dm.fns[fi];
        if args.len() as u32 != df.params {
            return Err(InterpError::Type("argument count mismatch"));
        }
        let n = df.regs as usize;
        let mut frame = FnChecks::default();
        // Register frames live on the stack for typical functions: no
        // per-call allocation on the recursion hot path.
        let out = if n <= STACK_REGS {
            let mut regs = [Val::Int(0); STACK_REGS];
            init_frame(&mut regs[..n], df, &args);
            self.exec_ops(dm, df, &mut regs[..n], &mut frame)
        } else {
            let mut regs = vec![Val::Int(0); n];
            init_frame(&mut regs, df, &args);
            self.exec_ops(dm, df, &mut regs, &mut frame)
        };
        self.fn_checks[fi].absorb(frame);
        out
    }

    /// Resolves a memory operand by the reference path's rule
    /// ([`c11::deref_target`]), but keeps relative pointers in pool
    /// coordinates so the accessor can skip the VA→RA re-translation inside
    /// `AddressSpace::read_u64`/`write_u64`. The translation runs through
    /// the uncounted [`Probe`] for error parity; callers count `rel_to_abs`
    /// on the `Pool` arm — the probe succeeding on a relative pointer is
    /// exactly when the reference path counts it.
    #[inline]
    fn resolve_mem(&self, p: UPtr, off: i64) -> Result<Mem> {
        let q = p.offset(off);
        let va = c11::deref_target(&mut Probe(self.space), q)?;
        Ok(match q.as_rel() {
            Some(loc) => Mem::Pool(loc),
            None => Mem::Va(va),
        })
    }

    /// The tight indexed-dispatch loop: one flat op array, `pc` as the only
    /// control state, charges baked into each op, and fuel/counters held in
    /// locals that flush to `self` at every exit (including errors and
    /// around recursive calls), so the loop body touches no `&mut self`
    /// fields on ALU/branch ops.
    fn exec_ops(
        &mut self,
        dm: &DecodedModule,
        df: &DecodedFn,
        regs: &mut [Val],
        frame: &mut FnChecks,
    ) -> Result<Option<Val>> {
        let ops = df.ops.as_slice();
        let mut pc = 0usize;
        let mut fuel = self.fuel;
        let entry_fuel = fuel;
        // The executed-instruction count is *derived*, not tracked: every
        // fuel decrement is an instruction, a terminator, or callee work,
        // so `insts = fuel_spent - terms - callee_fuel` at exit. That
        // identity holds through errors (an op that errors has already
        // been charged its fuel, exactly like the reference path counts
        // it) and keeps the dispatch prologue down to the fuel gate.
        let mut terms = 0u64;
        let mut callee_fuel = 0u64;
        let mut ptr_ops = 0u64;
        let mut echecks = 0u64;
        let mut mchecks = 0u64;
        let mut r2a = 0u64;
        // Loop labels are hygienic across macro boundaries, so the exit
        // label is passed in explicitly.
        macro_rules! t {
            ($l:lifetime, $e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => break $l Err(e.into()),
                }
            };
        }
        // Charge accounting, invoked only from the arms whose instruction
        // kinds the analysis can mark as sites (see `decide`): ALU and
        // branch dispatches carry no charge traffic at all. Decode
        // asserts the complementary invariant — non-site kinds never hold
        // a charge.
        macro_rules! site {
            ($c:expr) => {
                let c = $c;
                if c.max_checks != 0 {
                    ptr_ops += 1;
                    echecks += u64::from(c.checks);
                    mchecks += u64::from(c.max_checks);
                }
            };
        }
        let out: Result<Option<Val>> = 'run: loop {
            // Fuel parity with the reference path: every op — instruction
            // or terminator — checks then decrements; an op that errors
            // has already been charged.
            if fuel == 0 {
                break 'run Err(out_of_fuel());
            }
            fuel -= 1;
            // By reference: the fused variants made `Op` wide enough that
            // copying it per dispatch is measurable; matching through the
            // reference only reads the fields each arm binds.
            //
            // SAFETY: `pc` is always a valid op index. It is only ever 0
            // (ops is non-empty: every function has an entry block and
            // every block emits at least a terminator), a branch target
            // (decode maps these through `block_entry`, all < ops.len()),
            // or `prev + 1` where `prev` was not a terminator — and every
            // block ends in a terminator op that jumps or returns, so
            // sequential flow cannot run off the end. `Module::verify`
            // guarantees the block targets decode starts from.
            debug_assert!(pc < ops.len());
            let op = unsafe { ops.get_unchecked(pc) };
            pc += 1;
            match op.kind {
                OpKind::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
                OpKind::IntOp { dst, op, lhs, rhs } => {
                    let a = t!('run, as_int(regs[lhs as usize]));
                    let b = t!('run, as_int(regs[rhs as usize]));
                    regs[dst as usize] = Val::Int(int_eval(op, a, b));
                }
                OpKind::IntOp2 { a_dst, a_op, a_lhs, a_rhs, b_dst, b_op, b_lhs, b_rhs } => {
                    let a = t!('run, as_int(regs[a_lhs as usize]));
                    let b = t!('run, as_int(regs[a_rhs as usize]));
                    regs[a_dst as usize] = Val::Int(int_eval(a_op, a, b));
                    // Second-op prologue: int ops are never check sites,
                    // so only the fuel gate replays.
                    if fuel == 0 {
                        break 'run Err(out_of_fuel());
                    }
                    fuel -= 1;
                    let a = t!('run, as_int(regs[b_lhs as usize]));
                    let b = t!('run, as_int(regs[b_rhs as usize]));
                    regs[b_dst as usize] = Val::Int(int_eval(b_op, a, b));
                }
                OpKind::CmpInt { dst, op, lhs, rhs } => {
                    let a = t!('run, as_int(regs[lhs as usize]));
                    let b = t!('run, as_int(regs[rhs as usize]));
                    regs[dst as usize] = Val::Int(i64::from(op.eval(a, b)));
                }
                OpKind::Jump { target } => {
                    terms += 1;
                    pc = target as usize;
                }
                OpKind::Branch { cond, then_pc, else_pc } => {
                    terms += 1;
                    pc = if regs[cond as usize].is_true() { then_pc } else { else_pc } as usize;
                }
                OpKind::Ret { value } => {
                    terms += 1;
                    break 'run Ok(value.map(|s| regs[s as usize]));
                }
                // Superinstructions: each half replays the per-op prologue
                // (fuel / charge), so accounting and error order are
                // identical to the unfused sequence; `terms` counts every
                // executed terminator half, after its fuel gate, so the
                // derived inst count stays exact on every exit path.
                OpKind::CmpBr { dst, op, lhs, rhs, then_pc, else_pc } => {
                    let a = t!('run, as_int(regs[lhs as usize]));
                    let b = t!('run, as_int(regs[rhs as usize]));
                    let r = op.eval(a, b);
                    regs[dst as usize] = Val::Int(i64::from(r));
                    // Terminator half: consumes fuel, counts nothing.
                    if fuel == 0 {
                        break 'run Err(out_of_fuel());
                    }
                    fuel -= 1;
                    terms += 1;
                    pc = if r { then_pc } else { else_pc } as usize;
                }
                OpKind::IntOpJump { dst, op, lhs, rhs, target } => {
                    let a = t!('run, as_int(regs[lhs as usize]));
                    let b = t!('run, as_int(regs[rhs as usize]));
                    regs[dst as usize] = Val::Int(int_eval(op, a, b));
                    if fuel == 0 {
                        break 'run Err(out_of_fuel());
                    }
                    fuel -= 1;
                    terms += 1;
                    pc = target as usize;
                }
                OpKind::IntOp2Jump { a_dst, a_op, a_lhs, a_rhs, b_dst, b_op, b_lhs, b_rhs, target } => {
                    let a = t!('run, as_int(regs[a_lhs as usize]));
                    let b = t!('run, as_int(regs[a_rhs as usize]));
                    regs[a_dst as usize] = Val::Int(int_eval(a_op, a, b));
                    // Second-op prologue: fuel gate only.
                    if fuel == 0 {
                        break 'run Err(out_of_fuel());
                    }
                    fuel -= 1;
                    let a = t!('run, as_int(regs[b_lhs as usize]));
                    let b = t!('run, as_int(regs[b_rhs as usize]));
                    regs[b_dst as usize] = Val::Int(int_eval(b_op, a, b));
                    // Terminator half: consumes fuel, counts nothing.
                    if fuel == 0 {
                        break 'run Err(out_of_fuel());
                    }
                    fuel -= 1;
                    terms += 1;
                    pc = target as usize;
                }
                OpKind::StoreIntOpJump { addr, off, value, dst, op: iop, lhs, rhs, target } => {
                    site!(op.charge);
                    let p = t!('run, as_ptr(regs[addr as usize]));
                    let v = t!('run, as_int(regs[value as usize]));
                    match t!('run, self.resolve_mem(p, off)) {
                        Mem::Pool(loc) => {
                            r2a += 1;
                            t!('run, self.space.pool_write_u64(loc.pool, loc.offset.into(), v as u64))
                        }
                        Mem::Va(va) => t!('run, self.space.write_u64(va, v as u64)),
                    }
                    // Int-op prologue: fuel gate only.
                    if fuel == 0 {
                        break 'run Err(out_of_fuel());
                    }
                    fuel -= 1;
                    let a = t!('run, as_int(regs[lhs as usize]));
                    let b = t!('run, as_int(regs[rhs as usize]));
                    regs[dst as usize] = Val::Int(int_eval(iop, a, b));
                    // Terminator half: consumes fuel, counts nothing.
                    if fuel == 0 {
                        break 'run Err(out_of_fuel());
                    }
                    fuel -= 1;
                    terms += 1;
                    pc = target as usize;
                }
                OpKind::IntOpGepLoad { idst, iop, ilhs, irhs, gdst, base, ldst, loff, lcharge } => {
                    let a = t!('run, as_int(regs[ilhs as usize]));
                    let b = t!('run, as_int(regs[irhs as usize]));
                    let r = int_eval(iop, a, b);
                    regs[idst as usize] = Val::Int(r);
                    // Gep half: fuel gate only (geps are never check
                    // sites; decode refuses to fuse otherwise). The gep's
                    // offset operand is the int op's destination register,
                    // so `r` is its value by construction; the base is
                    // re-read from the register file so aliasing with
                    // `idst` errors exactly like the unfused sequence.
                    if fuel == 0 {
                        break 'run Err(out_of_fuel());
                    }
                    fuel -= 1;
                    let p = t!('run, as_ptr(regs[base as usize]));
                    let q = p.offset(r);
                    regs[gdst as usize] = Val::Ptr(q);
                    // Load half: fuel gate plus the load's charge.
                    if fuel == 0 {
                        break 'run Err(out_of_fuel());
                    }
                    fuel -= 1;
                    site!(lcharge);
                    let v = match t!('run, self.resolve_mem(q, loff)) {
                        Mem::Pool(loc) => {
                            r2a += 1;
                            t!('run, self.space.pool_read_u64(loc.pool, loc.offset.into()))
                        }
                        Mem::Va(va) => t!('run, self.space.read_u64(va)),
                    };
                    regs[ldst as usize] = Val::Int(v as i64);
                }
                OpKind::GepLoad { gdst, base, off, ldst, loff, charge2 } => {
                    let p = t!('run, as_ptr(regs[base as usize]));
                    let d = t!('run, as_int(regs[off as usize]));
                    let q = p.offset(d);
                    regs[gdst as usize] = Val::Ptr(q);
                    // Load half: fuel gate plus the load's charge.
                    if fuel == 0 {
                        break 'run Err(out_of_fuel());
                    }
                    fuel -= 1;
                    site!(charge2);
                    let v = match t!('run, self.resolve_mem(q, loff)) {
                        Mem::Pool(loc) => {
                            r2a += 1;
                            t!('run, self.space.pool_read_u64(loc.pool, loc.offset.into()))
                        }
                        Mem::Va(va) => t!('run, self.space.read_u64(va)),
                    };
                    regs[ldst as usize] = Val::Int(v as i64);
                }
                OpKind::Load { dst, addr, off } => {
                    site!(op.charge);
                    let p = t!('run, as_ptr(regs[addr as usize]));
                    let v = match t!('run, self.resolve_mem(p, off)) {
                        Mem::Pool(loc) => {
                            r2a += 1;
                            t!('run, self.space.pool_read_u64(loc.pool, loc.offset.into()))
                        }
                        Mem::Va(va) => t!('run, self.space.read_u64(va)),
                    };
                    regs[dst as usize] = Val::Int(v as i64);
                }
                OpKind::Store { addr, off, value } => {
                    site!(op.charge);
                    let p = t!('run, as_ptr(regs[addr as usize]));
                    let v = t!('run, as_int(regs[value as usize]));
                    match t!('run, self.resolve_mem(p, off)) {
                        Mem::Pool(loc) => {
                            r2a += 1;
                            t!('run, self.space.pool_write_u64(loc.pool, loc.offset.into(), v as u64))
                        }
                        Mem::Va(va) => t!('run, self.space.write_u64(va, v as u64)),
                    }
                }
                OpKind::LoadPtr { dst, addr, off } => {
                    site!(op.charge);
                    let p = t!('run, as_ptr(regs[addr as usize]));
                    let raw = match t!('run, self.resolve_mem(p, off)) {
                        Mem::Pool(loc) => {
                            r2a += 1;
                            t!('run, self.space.pool_read_u64(loc.pool, loc.offset.into()))
                        }
                        Mem::Va(va) => t!('run, self.space.read_u64(va)),
                    };
                    regs[dst as usize] = Val::Ptr(UPtr::from_raw(raw));
                }
                OpKind::StorePtr { addr, off, value } => {
                    site!(op.charge);
                    let p = t!('run, as_ptr(regs[addr as usize]));
                    let v = t!('run, as_ptr(regs[value as usize]));
                    match t!('run, self.resolve_mem(p, off)) {
                        Mem::Pool(loc) => {
                            r2a += 1;
                            // Pool VAs are always in the NVM region, so the
                            // destination space is known statically.
                            let stored = t!('run, c11::assign_value(self, PtrSpace::Nvm, v));
                            t!('run, self.space.pool_write_u64(
                                loc.pool,
                                loc.offset.into(),
                                stored.raw()
                            ))
                        }
                        Mem::Va(va) => {
                            let dest =
                                if va.is_nvm_region() { PtrSpace::Nvm } else { PtrSpace::Dram };
                            let stored = t!('run, c11::assign_value(self, dest, v));
                            t!('run, self.space.write_u64(va, stored.raw()))
                        }
                    }
                }
                OpKind::Gep { dst, base, off } => {
                    let p = t!('run, as_ptr(regs[base as usize]));
                    let d = t!('run, as_int(regs[off as usize]));
                    regs[dst as usize] = Val::Ptr(p.offset(d));
                }
                OpKind::Malloc { dst, size } => {
                    let n = t!('run, as_int(regs[size as usize]));
                    let va = t!('run, self.space.malloc(n as u64));
                    regs[dst as usize] = Val::Ptr(UPtr::from_va(va));
                }
                OpKind::Pmalloc { dst, size } => {
                    let n = t!('run, as_int(regs[size as usize]));
                    let loc = t!('run, self.space.pmalloc(self.pool, n as u64));
                    regs[dst as usize] = Val::Ptr(UPtr::from_rel(loc));
                }
                OpKind::Free { ptr } => {
                    site!(op.charge);
                    let p = t!('run, as_ptr(regs[ptr as usize]));
                    t!('run, self.free(p));
                }
                OpKind::PtrToInt { dst, src } => {
                    site!(op.charge);
                    let p = t!('run, as_ptr(regs[src as usize]));
                    regs[dst as usize] = Val::Int(t!('run, c11::to_int(self, p)) as i64);
                }
                OpKind::IntToPtr { dst, src } => {
                    let i = t!('run, as_int(regs[src as usize]));
                    regs[dst as usize] = Val::Ptr(UPtr::from_raw(i as u64));
                }
                OpKind::PtrDiff { dst, lhs, rhs } => {
                    site!(op.charge);
                    let a = t!('run, as_ptr(regs[lhs as usize]));
                    let b = t!('run, as_ptr(regs[rhs as usize]));
                    regs[dst as usize] = Val::Int(t!('run, c11::diff(self, a, b)));
                }
                OpKind::CmpPtr { dst, op: cop, lhs, rhs } => {
                    site!(op.charge);
                    let a = t!('run, as_ptr(regs[lhs as usize]));
                    let b = t!('run, as_ptr(regs[rhs as usize]));
                    regs[dst as usize] = Val::Int(i64::from(t!('run, self.cmp_ptr(cop, a, b))));
                }
                OpKind::Call { dst, callee, args_start, args_len } => {
                    let srcs =
                        &df.call_args[args_start as usize..(args_start + args_len) as usize];
                    let vals: Vec<Val> = srcs.iter().map(|&s| regs[s as usize]).collect();
                    // The callee runs against `self.fuel`: flush, recurse,
                    // reload. Stats locals are pure deltas, so they merge
                    // correctly at exit without flushing here; the fuel
                    // the callee consumed is excluded from this frame's
                    // derived inst count.
                    self.fuel = fuel;
                    let r = self.exec_decoded(dm, callee as usize, vals);
                    callee_fuel += fuel - self.fuel;
                    fuel = self.fuel;
                    let r = t!('run, r);
                    if let Some(d) = dst {
                        regs[d as usize] = t!('run, r.ok_or_else(void_call));
                    }
                }
            }
        };
        self.fuel = fuel;
        // Fuel decrements not spent on terminators or inside callees were
        // instructions of this frame.
        self.stats.insts += (entry_fuel - fuel) - terms - callee_fuel;
        self.stats.executed_ptr_ops += ptr_ops;
        self.stats.executed_checks += echecks;
        self.stats.max_checks += mchecks;
        self.stats.rel_to_abs += r2a;
        frame.ptr_ops += ptr_ops;
        frame.executed_checks += echecks;
        frame.max_checks += mchecks;
        out
    }

    // Pointer-op entry points shared by both paths: `inline` (not
    // `always`) — they fold into the dispatch arms without bloating the
    // match into icache misses.

    /// `lhs op rhs` over pointers: [`c11::eq`] for `==`/`!=`, [`c11::cmp`]
    /// for the relational operators (`a op b` holds iff `cmp(a, b) op
    /// Equal` does).
    #[inline]
    fn cmp_ptr(&mut self, op: CmpOp, a: UPtr, b: UPtr) -> Result<bool> {
        Ok(match op {
            CmpOp::Eq => c11::eq(self, a, b)?,
            CmpOp::Ne => !c11::eq(self, a, b)?,
            _ => op.eval(c11::cmp(self, a, b)?, Ordering::Equal),
        })
    }

    /// `free(p)` by [`c11::free_target`].
    #[inline]
    fn free(&mut self, p: UPtr) -> Result<()> {
        Ok(c11::free_target(self, p)?.free(self.space)?)
    }

    fn step(&mut self, inst: &Inst, regs: &mut [Val]) -> Result<()> {
        match inst {
            Inst::ConstInt { dst, value } => regs[dst.0 as usize] = Val::Int(*value),
            Inst::Malloc { dst, size } => {
                let n = as_int(eval(regs, *size))?;
                let va = self.space.malloc(n as u64)?;
                regs[dst.0 as usize] = Val::Ptr(UPtr::from_va(va));
            }
            Inst::Pmalloc { dst, size } => {
                let n = as_int(eval(regs, *size))?;
                let loc = self.space.pmalloc(self.pool, n as u64)?;
                // pmalloc returns a relative address by definition (§V-B).
                regs[dst.0 as usize] = Val::Ptr(UPtr::from_rel(loc));
            }
            Inst::Free { ptr } => self.free(as_ptr(eval(regs, *ptr))?)?,
            Inst::Load { dst, addr, off } => {
                let p = as_ptr(eval(regs, *addr))?;
                let va = c11::deref_target(self, p.offset(*off))?;
                regs[dst.0 as usize] = Val::Int(self.space.read_u64(va)? as i64);
            }
            Inst::Store { addr, off, value } => {
                let p = as_ptr(eval(regs, *addr))?;
                let v = as_int(eval(regs, *value))?;
                let va = c11::deref_target(self, p.offset(*off))?;
                self.space.write_u64(va, v as u64)?;
            }
            Inst::LoadPtr { dst, addr, off } => {
                let p = as_ptr(eval(regs, *addr))?;
                let va = c11::deref_target(self, p.offset(*off))?;
                regs[dst.0 as usize] = Val::Ptr(UPtr::from_raw(self.space.read_u64(va)?));
            }
            Inst::StorePtr { addr, off, value } => {
                let p = as_ptr(eval(regs, *addr))?;
                let v = as_ptr(eval(regs, *value))?;
                let dva = c11::deref_target(self, p.offset(*off))?;
                let dest = if dva.is_nvm_region() { PtrSpace::Nvm } else { PtrSpace::Dram };
                let stored = c11::assign_value(self, dest, v)?;
                self.space.write_u64(dva, stored.raw())?;
            }
            Inst::Gep { dst, base, off } => {
                let p = as_ptr(eval(regs, *base))?;
                let d = as_int(eval(regs, *off))?;
                regs[dst.0 as usize] = Val::Ptr(p.offset(d));
            }
            Inst::IntOp { dst, op, lhs, rhs } => {
                let a = as_int(eval(regs, *lhs))?;
                let b = as_int(eval(regs, *rhs))?;
                let r = match op {
                    IntOp::Add => a.wrapping_add(b),
                    IntOp::Sub => a.wrapping_sub(b),
                    IntOp::Mul => a.wrapping_mul(b),
                    IntOp::And => a & b,
                    IntOp::Or => a | b,
                    IntOp::Xor => a ^ b,
                };
                regs[dst.0 as usize] = Val::Int(r);
            }
            Inst::PtrToInt { dst, src } => {
                let p = as_ptr(eval(regs, *src))?;
                regs[dst.0 as usize] = Val::Int(c11::to_int(self, p)? as i64);
            }
            Inst::IntToPtr { dst, src } => {
                let i = as_int(eval(regs, *src))?;
                regs[dst.0 as usize] = Val::Ptr(UPtr::from_raw(i as u64));
            }
            Inst::PtrDiff { dst, lhs, rhs } => {
                let a = as_ptr(eval(regs, *lhs))?;
                let b = as_ptr(eval(regs, *rhs))?;
                regs[dst.0 as usize] = Val::Int(c11::diff(self, a, b)?);
            }
            Inst::CmpPtr { dst, op, lhs, rhs } => {
                let a = as_ptr(eval(regs, *lhs))?;
                let b = as_ptr(eval(regs, *rhs))?;
                regs[dst.0 as usize] = Val::Int(i64::from(self.cmp_ptr(*op, a, b)?));
            }
            Inst::CmpInt { dst, op, lhs, rhs } => {
                let a = as_int(eval(regs, *lhs))?;
                let b = as_int(eval(regs, *rhs))?;
                regs[dst.0 as usize] = Val::Int(i64::from(op.eval(a, b)));
            }
            Inst::Copy { dst, src } => regs[dst.0 as usize] = eval(regs, *src),
            Inst::Call { dst, callee, args } => {
                let vals: Vec<Val> = args.iter().map(|a| eval(regs, *a)).collect();
                let r = self.run(callee, vals)?;
                if let Some(d) = dst {
                    regs[d.0 as usize] = r.ok_or(InterpError::Type("void call used as value"))?;
                }
            }
        }
        Ok(())
    }
}

// Operand fetch is the single hottest helper in both dispatch loops;
// `inline(always)` keeps it a register move / bounds-checked load instead
// of a call (measured numbers in DESIGN.md §11).
#[inline(always)]
fn eval(regs: &[Val], op: Operand) -> Val {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(i) => Val::Int(i),
        Operand::Null => Val::Ptr(UPtr::NULL),
    }
}

/// The interpreter's conversion hook: every [`c11`] rule either path runs
/// converts through here and is counted into [`InterpStats`].
impl Translate for Interp<'_> {
    #[inline]
    fn ra2va(&mut self, loc: RelLoc) -> c11::Result<VirtAddr> {
        let va = self.space.ra2va(loc)?;
        self.stats.rel_to_abs += 1;
        Ok(va)
    }

    #[inline]
    fn va2ra(&mut self, va: VirtAddr) -> c11::Result<RelLoc> {
        let loc = self.space.va2ra(va)?;
        self.stats.abs_to_rel += 1;
        Ok(loc)
    }
}

/// The decoded path's error-parity probe: the conversions the reference
/// path would make, uncounted (the decoded loop counts memory-operand
/// `rel_to_abs` in a local).
struct Probe<'s>(&'s AddressSpace);

impl Translate for Probe<'_> {
    #[inline]
    fn ra2va(&mut self, loc: RelLoc) -> c11::Result<VirtAddr> {
        self.0.ra2va(loc)
    }

    #[inline]
    fn va2ra(&mut self, va: VirtAddr) -> c11::Result<RelLoc> {
        self.0.va2ra(va)
    }
}

/// A resolved memory target for the decoded path: either pool coordinates
/// (relative pointer, validated) or a plain virtual address.
enum Mem {
    Pool(RelLoc),
    Va(VirtAddr),
}

/// Register-frame size threshold below which frames live on the stack.
const STACK_REGS: usize = 64;

/// Populates a fresh register frame: arguments at the front, the interned
/// constant pool at the tail (decode reserves the last `consts.len()`
/// slots for it).
#[inline]
fn init_frame(regs: &mut [Val], df: &DecodedFn, args: &[Val]) {
    regs[..args.len()].copy_from_slice(args);
    let base = regs.len() - df.consts.len();
    regs[base..].copy_from_slice(&df.consts);
}

#[inline(always)]
fn int_eval(op: IntOp, a: i64, b: i64) -> i64 {
    match op {
        IntOp::Add => a.wrapping_add(b),
        IntOp::Sub => a.wrapping_sub(b),
        IntOp::Mul => a.wrapping_mul(b),
        IntOp::And => a & b,
        IntOp::Or => a | b,
        IntOp::Xor => a ^ b,
    }
}

#[inline(always)]
fn as_int(v: Val) -> Result<i64> {
    match v {
        Val::Int(i) => Ok(i),
        Val::Ptr(_) => Err(InterpError::Type("expected integer, found pointer")),
    }
}

#[inline(always)]
fn as_ptr(v: Val) -> Result<UPtr> {
    match v {
        Val::Ptr(p) => Ok(p),
        // C permits integer constants (e.g. 0) in pointer positions.
        Val::Int(0) => Ok(UPtr::NULL),
        Val::Int(_) => Err(InterpError::Type("expected pointer, found integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CmpOp, FnBuilder, Module, Operand::*};

    fn with_pool() -> (AddressSpace, PoolId) {
        let mut s = AddressSpace::new(31);
        let p = s.create_pool("interp", 1 << 20).unwrap();
        (s, p)
    }

    #[test]
    fn persistent_linked_pair_round_trips() {
        // a = pmalloc; b = pmalloc; a->next = b; b->val = 7; return a->next->val
        let mut b = FnBuilder::new("pair", 0);
        let ra = b.fresh();
        let rb = b.fresh();
        b.pmalloc(ra, Imm(32));
        b.pmalloc(rb, Imm(32));
        b.store_ptr(Reg(ra), 8, Reg(rb));
        b.store(Reg(rb), 0, Imm(7));
        let rn = b.fresh();
        b.load_ptr(rn, Reg(ra), 8);
        let rv = b.fresh();
        b.load(rv, Reg(rn), 0);
        b.ret(Some(Reg(rv)));
        let mut m = Module::new();
        m.add(b.finish());
        m.verify().unwrap();

        let (mut s, pool) = with_pool();
        let mut i = Interp::new(&mut s, pool, &m);
        assert_eq!(i.run("pair", vec![]).unwrap(), Some(Val::Int(7)));
        // The stored pointer was already relative (pmalloc result), so no
        // abs→rel conversion was needed; the two dereferences of relative
        // pointers each converted rel→abs.
        assert_eq!(i.stats().abs_to_rel, 0);
        assert!(i.stats().rel_to_abs >= 2);
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let mut b = FnBuilder::new("spin", 0);
        let body = b.new_block();
        b.br(body);
        b.switch_to(body);
        b.br(body);
        let mut m = Module::new();
        m.add(b.finish());
        let (mut s, pool) = with_pool();
        let mut i = Interp::new(&mut s, pool, &m).with_fuel(100);
        assert_eq!(i.run("spin", vec![]), Err(InterpError::OutOfFuel));
    }

    #[test]
    fn type_errors_detected() {
        let mut b = FnBuilder::new("bad", 0);
        let r = b.fresh();
        b.const_int(r, 5);
        let v = b.fresh();
        b.load(v, Reg(r), 0); // deref an integer
        b.ret(None);
        let mut m = Module::new();
        m.add(b.finish());
        let (mut s, pool) = with_pool();
        let mut i = Interp::new(&mut s, pool, &m);
        assert!(matches!(i.run("bad", vec![]), Err(InterpError::Type(_))));
    }

    #[test]
    fn calls_pass_values_and_return() {
        let mut callee = FnBuilder::new("add1", 1);
        let r = callee.fresh();
        callee.int_add(r, Reg(callee.param(0)), Imm(1));
        callee.ret(Some(Reg(r)));
        let mut caller = FnBuilder::new("main", 0);
        let r = caller.fresh();
        caller.call(Some(r), "add1", vec![Imm(41)]);
        caller.ret(Some(Reg(r)));
        let mut m = Module::new();
        m.add(callee.finish());
        m.add(caller.finish());
        m.verify().unwrap();
        let (mut s, pool) = with_pool();
        let mut i = Interp::new(&mut s, pool, &m);
        assert_eq!(i.run("main", vec![]).unwrap(), Some(Val::Int(42)));
    }

    #[test]
    fn check_counting_matches_analysis() {
        // Deref a parameter 3 times in a loop of 1: checks = 3 executions.
        let mut b = FnBuilder::new("f", 1);
        let v = b.fresh();
        b.load(v, Reg(b.param(0)), 0);
        b.load(v, Reg(b.param(0)), 8);
        b.load(v, Reg(b.param(0)), 16);
        b.ret(Some(Reg(v)));
        let mut m = Module::new();
        m.add(b.finish());
        let (mut s, pool) = with_pool();
        let loc = s.pmalloc(pool, 64).unwrap();
        let mut i = Interp::new(&mut s, pool, &m);
        i.run("f", vec![Val::Ptr(UPtr::from_rel(loc))]).unwrap();
        let st = i.stats();
        assert_eq!(st.executed_ptr_ops, 3);
        assert_eq!(st.executed_checks, 3);
        assert_eq!(st.max_checks, 3);
        assert_eq!(st.rel_to_abs, 3, "each deref converts the relative param");
    }

    /// Runs `name(args)` through the reference and the decoded path on
    /// twin spaces and asserts full observable equality: result/error,
    /// fuel, stats, per-function attribution.
    fn assert_differential(
        m: &Module,
        opts: &crate::analysis::InferOptions,
        fuel: u64,
        name: &str,
        args: Vec<Val>,
    ) -> Result<Option<Val>> {
        let (mut s1, p1) = with_pool();
        let (mut s2, p2) = with_pool();
        let mut a = Interp::new(&mut s1, p1, m).with_inference(opts).with_fuel(fuel);
        let mut b = Interp::new(&mut s2, p2, m).with_inference(opts).with_fuel(fuel);
        let dm = b.decode();
        let ra = a.run(name, args.clone());
        let rb = b.run_decoded(&dm, name, args);
        assert_eq!(ra, rb, "{name}: results differ");
        assert_eq!(a.stats(), b.stats(), "{name}: stats differ");
        assert_eq!(a.fuel_left(), b.fuel_left(), "{name}: fuel differs");
        assert_eq!(
            a.per_function_checks(),
            b.per_function_checks(),
            "{name}: per-function attribution differs"
        );
        rb
    }

    #[test]
    fn decoded_path_matches_reference_on_kernels() {
        use crate::analysis::InferOptions;
        let m = crate::kernels::module();
        for opts in [InferOptions::intra(), InferOptions::inter()] {
            let out =
                assert_differential(&m, &opts, 1 << 20, "list_build_and_sum", vec![Val::Int(50)]);
            assert_eq!(out.unwrap(), Some(Val::Int(50 * 51 / 2)));
        }
    }

    #[test]
    fn decoded_path_matches_reference_on_fuel_exhaustion() {
        use crate::analysis::InferOptions;
        let mut b = FnBuilder::new("spin", 0);
        let body = b.new_block();
        b.br(body);
        b.switch_to(body);
        b.br(body);
        let mut m = Module::new();
        m.add(b.finish());
        let out = assert_differential(&m, &InferOptions::intra(), 77, "spin", vec![]);
        assert_eq!(out, Err(InterpError::OutOfFuel));
    }

    #[test]
    fn decoded_path_matches_reference_on_type_error() {
        use crate::analysis::InferOptions;
        let mut b = FnBuilder::new("bad", 0);
        let r = b.fresh();
        b.const_int(r, 5);
        let v = b.fresh();
        b.load(v, Reg(r), 0);
        b.ret(None);
        let mut m = Module::new();
        m.add(b.finish());
        let out = assert_differential(&m, &InferOptions::intra(), 1000, "bad", vec![]);
        assert!(matches!(out, Err(InterpError::Type(_))));
    }

    #[test]
    fn decoded_path_reports_unknown_function_like_reference() {
        let m = crate::kernels::module();
        let (mut s, pool) = with_pool();
        let mut i = Interp::new(&mut s, pool, &m);
        let dm = i.decode();
        assert_eq!(
            i.run_decoded(&dm, "nope", vec![]),
            Err(InterpError::NoFunction("nope".into()))
        );
        assert_eq!(i.run("nope", vec![]), Err(InterpError::NoFunction("nope".into())));
    }

    #[test]
    fn per_function_checks_attribute_to_the_site_owner() {
        // Driver calls list_push in a loop: the push's residual checks must
        // land on list_push, not on the driver.
        let m = crate::kernels::module();
        let (mut s, pool) = with_pool();
        let mut i = Interp::new(&mut s, pool, &m);
        i.run("list_build_and_sum", vec![Val::Int(10)]).unwrap();
        let per = i.per_function_checks();
        assert!(per["list_push"].max_checks > 0);
        assert!(per["list_sum"].max_checks > 0);
        let total: u64 = per.values().map(|c| c.max_checks).sum();
        assert_eq!(total, i.stats().max_checks, "attribution conserves totals");
    }

    #[test]
    fn cmp_across_formats_and_null() {
        let mut b = FnBuilder::new("f", 1);
        let q = b.fresh();
        // q = (T*)(intptr_t)p — round-trip through an integer.
        let i1 = b.fresh();
        b.ptr_to_int(i1, Reg(b.param(0)));
        b.int_to_ptr(q, Reg(i1));
        let c1 = b.fresh();
        b.cmp_ptr(c1, CmpOp::Eq, Reg(b.param(0)), Reg(q));
        let c2 = b.fresh();
        b.cmp_ptr(c2, CmpOp::Ne, Reg(b.param(0)), Null);
        let r = b.fresh();
        b.int_op(r, crate::ir::IntOp::And, Reg(c1), Reg(c2));
        b.ret(Some(Reg(r)));
        let mut m = Module::new();
        m.add(b.finish());
        let (mut s, pool) = with_pool();
        let loc = s.pmalloc(pool, 32).unwrap();
        let mut i = Interp::new(&mut s, pool, &m);
        let out = i.run("f", vec![Val::Ptr(UPtr::from_rel(loc))]).unwrap();
        assert_eq!(out, Some(Val::Int(1)), "rel == int-round-tripped va, and != null");
    }
}
