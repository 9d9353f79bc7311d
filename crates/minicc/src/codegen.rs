//! Lowering from the mini-C AST to `binrep` machine code.
//!
//! One lowering function, many strategies: the [`EffectConfig`] decides
//! register allocation, if-conversion (branch-free `cmov`/`setcc`/`sbb`
//! forms, Figure 2 of the paper), switch lowering (jump table vs. binary
//! search vs. linear chain, §3.1.3), `loop`-instruction counted loops,
//! loop/SLP vectorization (Figure 3(c)), builtin expansion (Figure 3(d)),
//! and a set of *style bits* driven by the long tail of filler flags.
//!
//! Register conventions (the "ABI" of the mini ISA):
//! * arguments in `ecx, edx, esi, edi`; result in `eax`;
//! * `ebx`, `r12`–`r15` are callee-saved (used for promoted locals);
//! * `edx` doubles as the fixed spill scratch inside expressions;
//! * `ecx` is reserved for call arguments and the `loop` counter, so
//!   counted-loop bodies are restricted to call-free statements.

use crate::ast::{BinOp, Expr, FuncDef, LValue, Module, Stmt};
use crate::flags::EffectConfig;
use binrep::{
    Arch, Binary, Block, BlockId, Cond, FuncId, Function, Gpr, Insn, MemRef, Opcode, Operand,
    Terminator, Xmm,
};
use std::collections::BTreeMap;

/// Lower a module under the given effect configuration.
///
/// # Panics
///
/// Panics on malformed input (use [`Module::validate`] first) or on
/// functions with more than 4 parameters.
pub fn lower_module(module: &Module, eff: &EffectConfig, arch: Arch) -> Binary {
    let mut bin = Binary::new(module.name.clone(), arch);
    let mut func_ids = BTreeMap::new();
    for (i, f) in module.funcs.iter().enumerate() {
        func_ids.insert(f.name.clone(), FuncId(i as u32));
    }
    // Globals first: their addresses are compile-time constants.
    let mut globals = BTreeMap::new();
    for g in &module.globals {
        let addr = binrep::DATA_BASE + (bin.data.len() as i64) * 4;
        bin.data.extend_from_slice(&g.words);
        globals.insert(g.name.clone(), (addr, g.words.len()));
    }
    let mut strings: BTreeMap<String, i64> = BTreeMap::new();
    for f in &module.funcs {
        let id = func_ids[&f.name];
        let lowered = FnCx::lower(f, eff, arch, &func_ids, &globals, &mut strings, &mut bin);
        let mut lowered = lowered;
        lowered.id = id;
        bin.functions.push(lowered);
    }
    if let Some(&main) = func_ids.get("main") {
        bin.entry = main;
    }
    bin
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Slot(i32),
    Reg(Gpr),
}

struct FnCx<'a> {
    f: &'a FuncDef,
    eff: &'a EffectConfig,
    arch: Arch,
    func_ids: &'a BTreeMap<String, FuncId>,
    globals: &'a BTreeMap<String, (i64, usize)>,
    strings: &'a mut BTreeMap<String, i64>,
    bin: &'a mut Binary,
    cfg: binrep::Cfg,
    cur: BlockId,
    locs: BTreeMap<String, Loc>,
    arrays: BTreeMap<String, i32>, // local arrays: base slot offset
    pool: Vec<Gpr>,
    saved: Vec<Gpr>,
    frame: i32,
    epilogue: BlockId,
}

const ARG_REGS: [Gpr; 4] = [Gpr::Ecx, Gpr::Edx, Gpr::Esi, Gpr::Edi];

impl<'a> FnCx<'a> {
    #[allow(clippy::too_many_arguments)]
    fn lower(
        f: &'a FuncDef,
        eff: &'a EffectConfig,
        arch: Arch,
        func_ids: &'a BTreeMap<String, FuncId>,
        globals: &'a BTreeMap<String, (i64, usize)>,
        strings: &'a mut BTreeMap<String, i64>,
        bin: &'a mut Binary,
    ) -> Function {
        assert!(f.params.len() <= 4, "{}: too many params", f.name);
        let mut cfg = binrep::Cfg::new();
        let epilogue = cfg.fresh_id();
        cfg.push(Block::new(epilogue, Vec::new(), Terminator::Ret));
        let mut cx = FnCx {
            f,
            eff,
            arch,
            func_ids,
            globals,
            strings,
            bin,
            cfg,
            cur: BlockId(0),
            locs: BTreeMap::new(),
            arrays: BTreeMap::new(),
            pool: Vec::new(),
            saved: Vec::new(),
            frame: 0,
            epilogue,
        };
        cx.assign_locations();
        cx.emit_prologue();
        let body = f.body.clone();
        cx.lower_body(&body);
        // Fall off the end: return 0.
        cx.push(Insn::op2(Opcode::Mov, Gpr::Eax, 0i64));
        cx.set_term(Terminator::Jmp(epilogue));
        cx.emit_epilogue();
        let mut out = Function::new(FuncId(0), f.name.clone(), f.params.len());
        out.is_library = f.is_library;
        out.cfg = cx.cfg;
        out.cfg.remove_unreachable();
        out
    }

    fn is_leaf(&self) -> bool {
        !self.f.body.iter().any(Stmt::contains_call)
    }

    fn assign_locations(&mut self) {
        let leaf_params = self.eff.regalloc && self.is_leaf() && self.f.params.len() <= 2;
        // Slot and frame arithmetic wraps (as release builds always did):
        // `validate` bounds a function's frame, but inlining can grow a
        // caller's past that bound, and a debug build must not panic on it.
        let mut next_slot: i32 = -4;
        let alloc_slot = |words: usize, next: &mut i32| -> i32 {
            *next = next.wrapping_sub((words as i32).wrapping_sub(1).wrapping_mul(4));
            let s = *next;
            *next = next.wrapping_sub(4);
            s
        };
        // Params.
        for (i, p) in self.f.params.iter().enumerate() {
            if leaf_params {
                // Parked in esi/edi by the prologue.
                self.locs
                    .insert(p.clone(), Loc::Reg([Gpr::Esi, Gpr::Edi][i]));
            } else {
                let s = alloc_slot(1, &mut next_slot);
                self.locs.insert(p.clone(), Loc::Slot(s));
            }
        }
        // Promoted-register pool for locals.
        let mut promote: Vec<Gpr> = vec![Gpr::Ebx];
        if self.arch == Arch::X8664 {
            promote.extend([Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15]);
        }
        let mut promote = promote.into_iter();
        let locals: Vec<_> = if self.eff.style(8) {
            self.f.locals.iter().rev().collect()
        } else {
            self.f.locals.iter().collect()
        };
        for l in locals {
            match l.array {
                Some(n) => {
                    let s = alloc_slot(n.max(1), &mut next_slot);
                    self.arrays.insert(l.name.clone(), s);
                }
                None => {
                    if self.eff.regalloc {
                        if let Some(r) = promote.next() {
                            self.locs.insert(l.name.clone(), Loc::Reg(r));
                            self.saved.push(r);
                            continue;
                        }
                    }
                    let s = alloc_slot(1, &mut next_slot);
                    self.locs.insert(l.name.clone(), Loc::Slot(s));
                }
            }
        }
        self.frame = next_slot
            .wrapping_neg()
            .wrapping_sub(4)
            .wrapping_add(self.saved.len() as i32 * 4);
        // Expression register pool.
        let mut pool = vec![Gpr::Eax];
        if self.eff.regalloc {
            if !leaf_params {
                pool.push(Gpr::Esi);
                pool.push(Gpr::Edi);
            }
            if self.arch == Arch::X8664 {
                pool.extend([Gpr::R8, Gpr::R9, Gpr::R10, Gpr::R11]);
            }
        }
        if self.eff.style(3) && pool.len() > 1 {
            pool[1..].reverse();
        }
        self.pool = pool;
    }

    // ------------------------------------------------------------ emission

    fn push(&mut self, i: Insn) {
        self.cfg.block_mut(self.cur).insns.push(i);
    }

    fn set_term(&mut self, t: Terminator) {
        self.cfg.block_mut(self.cur).term = t;
    }

    fn new_block(&mut self) -> BlockId {
        let id = self.cfg.fresh_id();
        self.cfg.push(Block::new(id, Vec::new(), Terminator::Ret));
        id
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    fn emit_prologue(&mut self) {
        self.push(Insn::op1(Opcode::Push, Gpr::Ebp));
        self.push(Insn::op2(Opcode::Mov, Gpr::Ebp, Gpr::Esp));
        if self.eff.style(10) {
            self.push(Insn::op2(Opcode::And, Gpr::Esp, -16i64));
        }
        if self.frame > 0 {
            self.push(Insn::op2(Opcode::Sub, Gpr::Esp, self.frame as i64));
        }
        // Save callee-saved promoted registers into the top of the frame.
        let saved = self.saved.clone();
        let order: Vec<Gpr> = if self.eff.style(7) {
            saved.iter().rev().copied().collect()
        } else {
            saved.clone()
        };
        for r in &order {
            let off = self.saved_slot(*r);
            self.push(Insn::op2(Opcode::Mov, MemRef::base_disp(Gpr::Ebp, off), *r));
        }
        // Zero promoted locals (defined start state).
        for r in &saved {
            self.push(Insn::op2(Opcode::Xor, *r, *r));
        }
        // Spill or park params.
        let params: Vec<(String, Loc)> = self
            .f
            .params
            .iter()
            .map(|p| (p.clone(), self.locs[p]))
            .collect();
        for (i, (_, loc)) in params.iter().enumerate() {
            match loc {
                Loc::Slot(s) => self.push(Insn::op2(
                    Opcode::Mov,
                    MemRef::base_disp(Gpr::Ebp, *s),
                    ARG_REGS[i],
                )),
                Loc::Reg(r) => {
                    if *r != ARG_REGS[i] {
                        self.push(Insn::op2(Opcode::Mov, *r, ARG_REGS[i]));
                    }
                }
            }
        }
    }

    fn saved_slot(&self, r: Gpr) -> i32 {
        let idx = self.saved.iter().position(|&x| x == r).unwrap();
        (self.saved.len() as i32 * 4)
            .wrapping_sub(self.frame)
            .wrapping_sub(4 * (idx as i32 + 1))
    }

    fn emit_epilogue(&mut self) {
        self.switch_to(self.epilogue);
        for r in self.saved.clone() {
            let off = self.saved_slot(r);
            self.push(Insn::op2(Opcode::Mov, r, MemRef::base_disp(Gpr::Ebp, off)));
        }
        if self.eff.style(11) {
            self.push(Insn::op2(
                Opcode::Lea,
                Gpr::Esp,
                MemRef::base_disp(Gpr::Ebp, 0),
            ));
        } else {
            self.push(Insn::op2(Opcode::Mov, Gpr::Esp, Gpr::Ebp));
        }
        self.push(Insn::op1(Opcode::Pop, Gpr::Ebp));
        if self.eff.style(13) {
            self.push(Insn::op0(Opcode::Nop));
        }
        self.set_term(Terminator::Ret);
    }

    // ------------------------------------------------------- expressions

    fn pool_reg(&self, depth: usize) -> Gpr {
        self.pool[depth.min(self.pool.len() - 1)]
    }

    fn home_operand(&self, var: &str) -> Operand {
        match self.locs.get(var) {
            Some(Loc::Reg(r)) => Operand::Reg(*r),
            Some(Loc::Slot(s)) => Operand::Mem(MemRef::base_disp(Gpr::Ebp, *s)),
            None => panic!("{}: unknown variable {}", self.f.name, var),
        }
    }

    fn global_addr(&self, name: &str) -> i64 {
        self.globals
            .get(name)
            .unwrap_or_else(|| panic!("{}: unknown global {}", self.f.name, name))
            .0
    }

    fn array_elem_const(&self, name: &str, k: u32) -> MemRef {
        // A constant index is source input: wrap the 32-bit displacement
        // (what a release build emits) instead of overflowing.
        let disp = (k as i32).wrapping_mul(4);
        if let Some(&base) = self.arrays.get(name) {
            MemRef::base_disp(Gpr::Ebp, base.wrapping_add(disp))
        } else {
            let addr = self.global_addr(name);
            MemRef::abs((addr as i32).wrapping_add(disp))
        }
    }

    /// Leaf operands that can feed an ALU op directly.
    fn leaf_operand(&self, e: &Expr) -> Option<Operand> {
        match e {
            Expr::Const(v) if !self.eff.style(6) => Some(Operand::Imm(*v as i64)),
            Expr::Var(v) => match self.locs.get(v) {
                Some(Loc::Reg(r)) if self.eff.regalloc => Some(Operand::Reg(*r)),
                Some(Loc::Slot(s)) if self.eff.cse => {
                    Some(Operand::Mem(MemRef::base_disp(Gpr::Ebp, *s)))
                }
                _ => None,
            },
            Expr::Global(g) if self.eff.cse => {
                Some(Operand::Mem(MemRef::abs(self.global_addr(g) as i32)))
            }
            _ => None,
        }
    }

    fn cmp_cond(op: BinOp) -> Cond {
        match op {
            BinOp::Eq => Cond::E,
            BinOp::Ne => Cond::Ne,
            BinOp::Lt => Cond::B,
            BinOp::Le => Cond::Be,
            BinOp::Gt => Cond::A,
            BinOp::Ge => Cond::Ae,
            _ => unreachable!("not a comparison"),
        }
    }

    fn alu_op(op: BinOp) -> Opcode {
        match op {
            BinOp::Add => Opcode::Add,
            BinOp::Sub => Opcode::Sub,
            BinOp::Mul => Opcode::Imul,
            BinOp::Div => Opcode::Udiv,
            BinOp::Rem => Opcode::Urem,
            BinOp::And => Opcode::And,
            BinOp::Or => Opcode::Or,
            BinOp::Xor => Opcode::Xor,
            BinOp::Shl => Opcode::Shl,
            BinOp::Shr => Opcode::Shr,
            _ => unreachable!("not an ALU op"),
        }
    }

    /// Evaluate `e` into the pool register for `depth`; returns it.
    ///
    /// Callers never exceed the pool: deeper right-hand sides go through
    /// [`FnCx::eval_rhs`], which spills via the stack and the fixed `edx`
    /// scratch.
    fn eval(&mut self, e: &Expr, depth: usize) -> Gpr {
        debug_assert!(depth == 0 || depth < self.pool.len());
        let r = self.pool_reg(depth);
        self.eval_into(e, r, depth);
        r
    }

    /// Evaluate a right-hand side while `r` (holding the left value at
    /// `depth`) stays live. Returns the operand to feed the ALU op.
    fn eval_rhs(&mut self, b: &Expr, r: Gpr, depth: usize) -> Operand {
        if let Some(leaf) = self.leaf_operand(b) {
            return leaf;
        }
        if depth + 1 < self.pool.len() {
            return Operand::Reg(self.eval(b, depth + 1));
        }
        // Spill path: save the left value, evaluate into the same register,
        // park the result in edx, restore the left value.
        self.push(Insn::op1(Opcode::Push, r));
        self.eval_into(b, r, depth);
        self.push(Insn::op2(Opcode::Mov, Gpr::Edx, r));
        self.push(Insn::op1(Opcode::Pop, r));
        Operand::Reg(Gpr::Edx)
    }

    fn eval_into(&mut self, e: &Expr, r: Gpr, depth: usize) {
        match e {
            Expr::Const(0) if self.eff.style(1) => {
                self.push(Insn::op2(Opcode::Xor, r, r));
            }
            Expr::Const(v) => self.push(Insn::op2(Opcode::Mov, r, *v as i64)),
            Expr::Var(v) => {
                let home = self.home_operand(v);
                self.push(Insn::op2(Opcode::Mov, r, home));
            }
            Expr::Global(g) => {
                let addr = self.global_addr(g);
                self.push(Insn::op2(Opcode::Mov, r, MemRef::abs(addr as i32)));
            }
            Expr::Str(s) => {
                let addr = self.intern_string(s);
                self.push(Insn::op2(Opcode::Mov, r, addr));
            }
            Expr::AddrOf(name) => {
                if let Some(&base) = self.arrays.get(name) {
                    self.push(Insn::op2(Opcode::Lea, r, MemRef::base_disp(Gpr::Ebp, base)));
                } else {
                    let addr = self.global_addr(name);
                    self.push(Insn::op2(Opcode::Mov, r, addr));
                }
            }
            Expr::Index(name, idx) => {
                // Evaluate the index into this depth's register, then load.
                let mem = if let Expr::Const(k) = &**idx {
                    self.array_elem_const(name, *k)
                } else {
                    let ri = self.eval(idx, depth);
                    debug_assert_eq!(ri, r);
                    if let Some(&base) = self.arrays.get(name) {
                        MemRef::indexed(Some(Gpr::Ebp), ri, 4, base)
                    } else {
                        MemRef::indexed(None, ri, 4, self.global_addr(name) as i32)
                    }
                };
                self.push(Insn::op2(Opcode::Mov, r, mem));
            }
            Expr::Not(a) => {
                self.eval_into(a, r, depth);
                self.push(Insn::op1(Opcode::Not, r));
            }
            Expr::Neg(a) => {
                self.eval_into(a, r, depth);
                self.push(Insn::op1(Opcode::Neg, r));
            }
            Expr::Bin(op, a, b) => {
                let (a, b) =
                    if self.eff.style(2) && op.is_commutative() && a.is_pure() && b.is_pure() {
                        (b, a)
                    } else {
                        (a, b)
                    };
                self.eval_into(a, r, depth);
                let rhs = self.eval_rhs(b, r, depth);
                if op.is_cmp() {
                    self.push(Insn::op2(Opcode::Cmp, r, rhs));
                    self.push(Insn::op1(Opcode::Set(Self::cmp_cond(*op)), r));
                } else {
                    self.push(Insn::op2(Self::alu_op(*op), r, rhs));
                }
            }
            Expr::Call(..) | Expr::CallImport(..) => {
                panic!(
                    "{}: call in expression position survived to codegen",
                    self.f.name
                )
            }
        }
    }

    fn intern_string(&mut self, s: &str) -> i64 {
        if self.eff.merge_constants {
            if let Some(&addr) = self.strings.get(s) {
                return addr;
            }
        }
        let addr = self.bin.add_string(s);
        self.strings.insert(s.to_string(), addr);
        addr
    }

    // ------------------------------------------------------------- calls

    fn lower_call(&mut self, callee: &str, args: &[Expr], is_import: bool) {
        assert!(args.len() <= 4, "{}: too many call args", self.f.name);
        for a in args {
            let r = self.eval(a, 0);
            self.push(Insn::op1(Opcode::Push, r));
        }
        for i in (0..args.len()).rev() {
            self.push(Insn::op1(Opcode::Pop, ARG_REGS[i]));
        }
        if self.eff.style(4) {
            self.push(Insn::op0(Opcode::Nop));
        }
        if is_import {
            let id = self.bin.import_by_name(callee);
            self.push(Insn::call_import(id));
        } else {
            let id = self.func_ids[callee];
            self.push(Insn::call(id));
        }
    }

    // -------------------------------------------------------- statements

    fn lower_body(&mut self, body: &[Stmt]) {
        let mut i = 0;
        while i < body.len() {
            // SLP vectorization: consume runs of 4 adjacent stores.
            if self.eff.vectorize_slp {
                if let Some(consumed) = self.try_slp(&body[i..]) {
                    i += consumed;
                    continue;
                }
            }
            self.lower_stmt(&body[i]);
            i += 1;
        }
    }

    fn store_to(&mut self, lv: &LValue, r: Gpr) {
        match lv {
            LValue::Var(v) => {
                let home = self.home_operand(v);
                self.push(Insn::op2(Opcode::Mov, home, r));
            }
            LValue::Global(g) => {
                let addr = self.global_addr(g);
                self.push(Insn::op2(Opcode::Mov, MemRef::abs(addr as i32), r));
            }
            LValue::Index(name, idx) => {
                if let Expr::Const(k) = idx {
                    let mem = self.array_elem_const(name, *k);
                    self.push(Insn::op2(Opcode::Mov, mem, r));
                } else {
                    // Value in r; index via edx.
                    self.push(Insn::op1(Opcode::Push, r));
                    let ri = self.eval(idx, 0);
                    self.push(Insn::op2(Opcode::Mov, Gpr::Edx, ri));
                    let r2 = self.pool_reg(0);
                    self.push(Insn::op1(Opcode::Pop, r2));
                    let mem = if let Some(&base) = self.arrays.get(name) {
                        MemRef::indexed(Some(Gpr::Ebp), Gpr::Edx, 4, base)
                    } else {
                        MemRef::indexed(None, Gpr::Edx, 4, self.global_addr(name) as i32)
                    };
                    self.push(Insn::op2(Opcode::Mov, mem, r2));
                }
            }
        }
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(lv, Expr::Call(name, args)) => {
                self.lower_call(name, args, false);
                self.store_to(lv, Gpr::Eax);
            }
            Stmt::Assign(lv, Expr::CallImport(name, args)) => {
                if self.try_builtin(Some(lv), name, args) {
                    return;
                }
                self.lower_call(name, args, true);
                self.store_to(lv, Gpr::Eax);
            }
            Stmt::Assign(lv, e) => {
                let r = self.eval(e, 0);
                self.store_to(lv, r);
            }
            Stmt::ExprStmt(Expr::Call(name, args)) => self.lower_call(name, args, false),
            Stmt::ExprStmt(Expr::CallImport(name, args)) => {
                if self.try_builtin(None, name, args) {
                    return;
                }
                self.lower_call(name, args, true);
            }
            Stmt::ExprStmt(e) => {
                // Pure expression for effect: still evaluate (realistic O0).
                let _ = self.eval(e, 0);
            }
            Stmt::Return(e) => {
                match e {
                    Expr::Call(name, args) => self.lower_call(name, args, false),
                    Expr::CallImport(name, args) => {
                        if !self.try_builtin(None, name, args) {
                            self.lower_call(name, args, true);
                        }
                    }
                    other => {
                        let r = self.eval(other, 0);
                        if r != Gpr::Eax {
                            self.push(Insn::op2(Opcode::Mov, Gpr::Eax, r));
                        }
                    }
                }
                let epi = self.epilogue;
                self.set_term(Terminator::Jmp(epi));
                let dead = self.new_block();
                self.switch_to(dead);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => self.lower_if(cond, then_body, else_body),
            Stmt::While { cond, body } => self.lower_while(cond, body),
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => self.lower_for(var, start, end, *step, body),
            Stmt::Switch {
                scrutinee,
                cases,
                default,
            } => self.lower_switch(scrutinee, cases, default),
        }
    }

    /// Emit FLAGS for `cond` and return the branch condition to take when
    /// `cond` is true.
    fn lower_cond_flags(&mut self, cond: &Expr) -> Cond {
        if let Expr::Bin(op, a, b) = cond {
            if op.is_cmp() {
                let r = self.eval(a, 0);
                let rhs = self.eval_rhs(b, r, 0);
                self.push(Insn::op2(Opcode::Cmp, r, rhs));
                return Self::cmp_cond(*op);
            }
        }
        let r = self.eval(cond, 0);
        if self.eff.style(0) {
            self.push(Insn::op2(Opcode::Cmp, r, 0i64));
        } else {
            self.push(Insn::op2(Opcode::Test, r, r));
        }
        Cond::Ne
    }

    fn lower_if(&mut self, cond: &Expr, then_body: &[Stmt], else_body: &[Stmt]) {
        // Branch-free if-conversion (Figure 2 patterns).
        if self.eff.if_convert && self.try_if_convert(cond, then_body, else_body) {
            return;
        }
        let then_bb = self.new_block();
        let else_bb = self.new_block();
        let join = self.new_block();
        let c = self.lower_cond_flags(cond);
        self.set_term(Terminator::Branch {
            cond: c,
            then_bb,
            else_bb,
        });
        self.switch_to(then_bb);
        self.lower_body(then_body);
        self.set_term(Terminator::Jmp(join));
        self.switch_to(else_bb);
        self.lower_body(else_body);
        self.set_term(Terminator::Jmp(join));
        self.switch_to(join);
    }

    fn try_if_convert(&mut self, cond: &Expr, then_body: &[Stmt], else_body: &[Stmt]) -> bool {
        // Shape: if (a cmp b) { v = e1 } else { v = e2 }, all pure.
        let (op, ca, cb) = match cond {
            Expr::Bin(op, a, b) if op.is_cmp() && a.is_pure() && b.is_pure() => (*op, a, b),
            _ => return false,
        };
        let (lv, e1) = match then_body {
            [Stmt::Assign(lv, e)] if e.is_pure() => (lv, e),
            _ => return false,
        };
        let (lv2, e2) = match else_body {
            [Stmt::Assign(lv2, e)] if e.is_pure() => (lv2, Some(e)),
            [] => (lv, None),
            _ => return false,
        };
        let v = match (lv, lv2) {
            (LValue::Var(v), LValue::Var(v2)) if v == v2 => v.clone(),
            _ => return false,
        };
        let cc = Self::cmp_cond(op);
        // setcc/sbb special case: constants 1/0 with if-conversion2.
        if self.eff.if_convert2 {
            if let (Expr::Const(1), Some(Expr::Const(0))) = (e1, e2) {
                let r = self.eval(ca, 0);
                let rhs = self.eval_rhs(cb, r, 0);
                self.push(Insn::op2(Opcode::Cmp, r, rhs));
                match cc {
                    Cond::B => {
                        // sbb r,r → -CF; neg → CF.
                        self.push(Insn::op2(Opcode::Sbb, r, r));
                        self.push(Insn::op1(Opcode::Neg, r));
                    }
                    Cond::Ae => {
                        self.push(Insn::op2(Opcode::Sbb, r, r));
                        self.push(Insn::op1(Opcode::Inc, r));
                    }
                    _ => {
                        self.push(Insn::op1(Opcode::Set(cc), r));
                    }
                }
                self.store_to(&LValue::Var(v), r);
                return true;
            }
        }
        // General cmov template. The else/then values are both computed
        // (they are pure), then a conditional move selects.
        // Stack discipline: else-val pushed, then-val pushed, cmp, pops.
        let e2 = e2.cloned().unwrap_or(Expr::Var(v.clone()));
        let r = self.eval(&e2, 0);
        self.push(Insn::op1(Opcode::Push, r));
        let r1 = self.eval(e1, 0);
        self.push(Insn::op1(Opcode::Push, r1));
        let rc = self.eval(ca, 0);
        let rhs = self.eval_rhs(cb, rc, 0);
        self.push(Insn::op2(Opcode::Cmp, rc, rhs));
        // Pops do not touch FLAGS.
        self.push(Insn::op1(Opcode::Pop, Gpr::Edx)); // then-value
        let r0 = self.pool_reg(0);
        self.push(Insn::op1(Opcode::Pop, r0)); // else-value
        self.push(Insn::op2(Opcode::Cmov(cc), r0, Gpr::Edx));
        self.store_to(&LValue::Var(v), r0);
        true
    }

    fn lower_while(&mut self, cond: &Expr, body: &[Stmt]) {
        if self.eff.style(12) {
            // Rotated: if (cond) { do body while (cond) }
            let body_bb = self.new_block();
            let exit = self.new_block();
            let c = self.lower_cond_flags(cond);
            self.set_term(Terminator::Branch {
                cond: c,
                then_bb: body_bb,
                else_bb: exit,
            });
            self.switch_to(body_bb);
            self.lower_body(body);
            let c2 = self.lower_cond_flags(cond);
            self.set_term(Terminator::Branch {
                cond: c2,
                then_bb: body_bb,
                else_bb: exit,
            });
            self.switch_to(exit);
        } else {
            let head = self.new_block();
            let body_bb = self.new_block();
            let exit = self.new_block();
            self.set_term(Terminator::Jmp(head));
            self.switch_to(head);
            if self.eff.align_loops > 0 {
                for _ in 0..(self.eff.align_loops / 2) {
                    self.push(Insn::op0(Opcode::Nop));
                }
            }
            let c = self.lower_cond_flags(cond);
            self.set_term(Terminator::Branch {
                cond: c,
                then_bb: body_bb,
                else_bb: exit,
            });
            self.switch_to(body_bb);
            self.lower_body(body);
            self.set_term(Terminator::Jmp(head));
            self.switch_to(exit);
        }
    }

    fn lower_for(&mut self, var: &str, start: &Expr, end: &Expr, step: u32, body: &[Stmt]) {
        // Vectorizable?
        if self.eff.vectorize_loops && step == 1 && self.try_vectorize(var, start, end, body) {
            return;
        }
        // Counted loop via the `loop` instruction (-fbranch-count-reg)?
        if self.eff.branch_count_reg {
            if let (Expr::Const(s0), Expr::Const(e0)) = (start, end) {
                if e0 > s0 {
                    let n = (e0 - s0).div_ceil(step);
                    let mut reads = std::collections::BTreeSet::new();
                    for s in body {
                        let mut w = std::collections::BTreeSet::new();
                        s.vars_written(&mut w);
                        reads.extend(w);
                    }
                    let body_mentions_var = {
                        let mut mentioned = false;
                        for s in body {
                            let mut r = std::collections::BTreeSet::new();
                            collect_stmt_reads(s, &mut r);
                            if r.contains(var) {
                                mentioned = true;
                            }
                        }
                        mentioned || reads.contains(var)
                    };
                    let has_control = body.iter().any(|s| {
                        s.contains_call()
                            || s.contains_return()
                            || matches!(
                                s,
                                Stmt::For { .. } | Stmt::While { .. } | Stmt::Switch { .. }
                            )
                    });
                    if !body_mentions_var && !has_control && n >= 1 {
                        let body_bb = self.new_block();
                        let exit = self.new_block();
                        self.push(Insn::op2(Opcode::Mov, Gpr::Ecx, n as i64));
                        self.set_term(Terminator::Jmp(body_bb));
                        self.switch_to(body_bb);
                        self.lower_body(body);
                        self.set_term(Terminator::LoopBack {
                            body: body_bb,
                            exit,
                        });
                        self.switch_to(exit);
                        // The loop var's final value, for later readers.
                        let fin = s0.wrapping_add(n.wrapping_mul(step));
                        let r = self.eval(&Expr::Const(fin), 0);
                        self.store_to(&LValue::Var(var.to_string()), r);
                        return;
                    }
                }
            }
        }
        // var = start; while (var < end) { body; var += step }
        let r = self.eval(start, 0);
        self.store_to(&LValue::Var(var.to_string()), r);
        let incr = Stmt::Assign(
            LValue::Var(var.to_string()),
            Expr::bin(BinOp::Add, Expr::Var(var.to_string()), Expr::Const(step)),
        );
        let cond = Expr::bin(BinOp::Lt, Expr::Var(var.to_string()), end.clone());
        let mut full = body.to_vec();
        full.push(incr);
        // Reuse the while lowering (incl. rotation style).
        self.lower_while_no_init(&cond, &full, var, step);
    }

    fn lower_while_no_init(&mut self, cond: &Expr, body: &[Stmt], var: &str, step: u32) {
        // Identical to lower_while, but the increment can use lea/inc per
        // style bits; we detect the trailing increment we just appended.
        let use_lea = self.eff.style(5);
        let use_inc = self.eff.style(9) && step == 1;
        if !(use_lea || use_inc) {
            self.lower_while(cond, body);
            return;
        }
        let (body_stmts, _incr) = body.split_at(body.len() - 1);
        let emit_incr = |cx: &mut FnCx<'_>| {
            let home = cx.home_operand(var);
            match home {
                Operand::Reg(r) if use_lea => {
                    cx.push(Insn::op2(Opcode::Lea, r, MemRef::base_disp(r, step as i32)));
                }
                Operand::Reg(r) if use_inc => {
                    cx.push(Insn::op1(Opcode::Inc, r));
                }
                Operand::Mem(m) if use_inc => {
                    cx.push(Insn::op1(Opcode::Inc, m));
                }
                _ => {
                    let r = cx.eval(
                        &Expr::bin(BinOp::Add, Expr::Var(var.to_string()), Expr::Const(step)),
                        0,
                    );
                    cx.store_to(&LValue::Var(var.to_string()), r);
                }
            }
        };
        let head = self.new_block();
        let body_bb = self.new_block();
        let exit = self.new_block();
        self.set_term(Terminator::Jmp(head));
        self.switch_to(head);
        let c = self.lower_cond_flags(cond);
        self.set_term(Terminator::Branch {
            cond: c,
            then_bb: body_bb,
            else_bb: exit,
        });
        self.switch_to(body_bb);
        self.lower_body(body_stmts);
        emit_incr(self);
        self.set_term(Terminator::Jmp(head));
        self.switch_to(exit);
    }

    fn lower_switch(&mut self, scrutinee: &Expr, cases: &[(u32, Vec<Stmt>)], default: &[Stmt]) {
        let exit = self.new_block();
        let default_bb = self.new_block();
        let case_bbs: Vec<BlockId> = cases.iter().map(|_| self.new_block()).collect();
        let r = self.eval(scrutinee, 0);

        let min = cases.iter().map(|(v, _)| *v).min().unwrap_or(0);
        let max = cases.iter().map(|(v, _)| *v).max().unwrap_or(0);
        let span = (max - min) as usize + 1;
        let dense = !cases.is_empty() && span <= 3 * cases.len() && span <= 64;

        if self.eff.jump_tables && dense && cases.len() >= 3 {
            // Bounds check + jump table (§3.1.3, the O(1) lowering).
            if min > 0 {
                self.push(Insn::op2(Opcode::Sub, r, min as i64));
            }
            self.push(Insn::op2(Opcode::Cmp, r, span as i64));
            let table_bb = self.new_block();
            self.set_term(Terminator::Branch {
                cond: Cond::Ae,
                then_bb: default_bb,
                else_bb: table_bb,
            });
            self.switch_to(table_bb);
            let mut targets = vec![default_bb; span];
            for ((v, _), bb) in cases.iter().zip(&case_bbs) {
                targets[(*v - min) as usize] = *bb;
            }
            self.set_term(Terminator::JumpTable { index: r, targets });
        } else if self.eff.regalloc && cases.len() >= 4 {
            // Binary search over sorted case values (§3.1.3: GCC and LLVM
            // fall back to this for sparse switches).
            let mut sorted: Vec<(u32, BlockId)> = cases
                .iter()
                .zip(&case_bbs)
                .map(|((v, _), bb)| (*v, *bb))
                .collect();
            sorted.sort_by_key(|(v, _)| *v);
            self.emit_bsearch(r, &sorted, default_bb);
        } else {
            // Linear compare chain.
            let mut next = self.cur;
            for ((v, _), bb) in cases.iter().zip(&case_bbs) {
                self.switch_to(next);
                self.push(Insn::op2(Opcode::Cmp, r, *v as i64));
                next = self.new_block();
                self.set_term(Terminator::Branch {
                    cond: Cond::E,
                    then_bb: *bb,
                    else_bb: next,
                });
            }
            self.switch_to(next);
            self.set_term(Terminator::Jmp(default_bb));
        }

        for ((_, body), bb) in cases.iter().zip(&case_bbs) {
            self.switch_to(*bb);
            self.lower_body(body);
            self.set_term(Terminator::Jmp(exit));
        }
        self.switch_to(default_bb);
        self.lower_body(default);
        self.set_term(Terminator::Jmp(exit));
        self.switch_to(exit);
    }

    fn emit_bsearch(&mut self, r: Gpr, sorted: &[(u32, BlockId)], default_bb: BlockId) {
        if sorted.len() <= 2 {
            for (v, bb) in sorted {
                self.push(Insn::op2(Opcode::Cmp, r, *v as i64));
                let next = self.new_block();
                self.set_term(Terminator::Branch {
                    cond: Cond::E,
                    then_bb: *bb,
                    else_bb: next,
                });
                self.switch_to(next);
            }
            self.set_term(Terminator::Jmp(default_bb));
            return;
        }
        let mid = sorted.len() / 2;
        let (pivot, pivot_bb) = sorted[mid];
        self.push(Insn::op2(Opcode::Cmp, r, pivot as i64));
        let eq_bb = pivot_bb;
        let lo_bb = self.new_block();
        let probe = self.new_block();
        self.set_term(Terminator::Branch {
            cond: Cond::E,
            then_bb: eq_bb,
            else_bb: probe,
        });
        self.switch_to(probe);
        let hi_bb = self.new_block();
        self.push(Insn::op2(Opcode::Cmp, r, pivot as i64));
        self.set_term(Terminator::Branch {
            cond: Cond::B,
            then_bb: lo_bb,
            else_bb: hi_bb,
        });
        self.switch_to(lo_bb);
        self.emit_bsearch(r, &sorted[..mid], default_bb);
        self.switch_to(hi_bb);
        self.emit_bsearch(r, &sorted[mid + 1..], default_bb);
    }

    // ------------------------------------------------------ vectorization

    /// Try to vectorize `for (var = start; var < end; var++) body`.
    /// Handles element-wise maps and additive reductions.
    fn try_vectorize(&mut self, var: &str, start: &Expr, end: &Expr, body: &[Stmt]) -> bool {
        let end_leaf = matches!(end, Expr::Const(_) | Expr::Var(_));
        if !end_leaf || !matches!(start, Expr::Const(_) | Expr::Var(_)) {
            return false;
        }
        enum Plan {
            Map {
                dst: String,
                a: String,
                b: String,
                op: Opcode,
            },
            Reduce {
                acc: String,
                a: String,
            },
        }
        let plan = match body {
            [Stmt::Assign(LValue::Index(dst, di), e)] => match e {
                Expr::Bin(op, l, rgt)
                    if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
                        && matches!(di, Expr::Var(v) if v == var) =>
                {
                    match (&**l, &**rgt) {
                        (Expr::Index(a, ia), Expr::Index(b, ib))
                            if matches!(&**ia, Expr::Var(v) if v == var)
                                && matches!(&**ib, Expr::Var(v) if v == var) =>
                        {
                            let vop = match op {
                                BinOp::Add => Opcode::Vadd,
                                BinOp::Sub => Opcode::Vsub,
                                _ => Opcode::Vmul,
                            };
                            Plan::Map {
                                dst: dst.clone(),
                                a: a.clone(),
                                b: b.clone(),
                                op: vop,
                            }
                        }
                        _ => return false,
                    }
                }
                _ => return false,
            },
            [Stmt::Assign(LValue::Var(acc), Expr::Bin(BinOp::Add, l, rgt))] => {
                match (&**l, &**rgt) {
                    (Expr::Var(a0), Expr::Index(arr, i))
                        if a0 == acc && matches!(&**i, Expr::Var(v) if v == var) =>
                    {
                        Plan::Reduce {
                            acc: acc.clone(),
                            a: arr.clone(),
                        }
                    }
                    _ => return false,
                }
            }
            _ => return false,
        };
        // Arrays must be known.
        let known = |n: &str| self.arrays.contains_key(n) || self.globals.contains_key(n);
        let arrays_ok = match &plan {
            Plan::Map { dst, a, b, .. } => known(dst) && known(a) && known(b),
            Plan::Reduce { a, .. } => known(a),
        };
        if !arrays_ok {
            return false;
        }

        // var = start
        let r = self.eval(start, 0);
        self.store_to(&LValue::Var(var.to_string()), r);

        let vhead = self.new_block();
        let vbody = self.new_block();
        let shead = self.new_block(); // scalar remainder entry
        if let Plan::Reduce { .. } = plan {
            // Zero the vector accumulator.
            self.push(Insn::op2(Opcode::Vsub, Xmm(7), Xmm(7)));
        }
        self.set_term(Terminator::Jmp(vhead));

        // vhead: if (var + 4 <= end) goto vbody else shead
        self.switch_to(vhead);
        let r = self.eval(&Expr::Var(var.to_string()), 0);
        self.push(Insn::op2(Opcode::Add, r, 4i64));
        // `end` is Const or Var (checked above) — address it directly.
        let end_op = match end {
            Expr::Const(c) => Operand::Imm(*c as i64),
            Expr::Var(v) => self.home_operand(v),
            _ => unreachable!(),
        };
        self.push(Insn::op2(Opcode::Cmp, r, end_op));
        self.set_term(Terminator::Branch {
            cond: Cond::Be,
            then_bb: vbody,
            else_bb: shead,
        });

        // vbody
        self.switch_to(vbody);
        self.push(Insn::op2(Opcode::Mov, Gpr::Edx, self.home_operand(var)));
        let elem_mem = |cx: &FnCx<'_>, name: &str| -> MemRef {
            if let Some(&base) = cx.arrays.get(name) {
                MemRef::indexed(Some(Gpr::Ebp), Gpr::Edx, 4, base)
            } else {
                MemRef::indexed(None, Gpr::Edx, 4, cx.global_addr(name) as i32)
            }
        };
        match &plan {
            Plan::Map { dst, a, b, op } => {
                let ma = elem_mem(self, a);
                let mb = elem_mem(self, b);
                let md = elem_mem(self, dst);
                self.push(Insn::op2(Opcode::Vload, Xmm(0), ma));
                self.push(Insn::op2(Opcode::Vload, Xmm(1), mb));
                self.push(Insn::op2(*op, Xmm(0), Xmm(1)));
                self.push(Insn::op2(Opcode::Vstore, md, Xmm(0)));
            }
            Plan::Reduce { a, .. } => {
                let ma = elem_mem(self, a);
                self.push(Insn::op2(Opcode::Vload, Xmm(6), ma));
                self.push(Insn::op2(Opcode::Vadd, Xmm(7), Xmm(6)));
            }
        }
        // var += 4
        let r = self.eval(
            &Expr::bin(BinOp::Add, Expr::Var(var.to_string()), Expr::Const(4)),
            0,
        );
        self.store_to(&LValue::Var(var.to_string()), r);
        self.set_term(Terminator::Jmp(vhead));

        // Scalar remainder (plus reduction merge).
        self.switch_to(shead);
        if let Plan::Reduce { acc, .. } = &plan {
            let r0 = self.pool_reg(0);
            self.push(Insn::op2(Opcode::Vhsum, r0, Operand::Vec(Xmm(7))));
            self.push(Insn::op2(Opcode::Mov, Gpr::Edx, r0));
            let r = self.eval(&Expr::Var(acc.clone()), 0);
            self.push(Insn::op2(Opcode::Add, r, Gpr::Edx));
            self.store_to(&LValue::Var(acc.clone()), r);
        }
        let cond = Expr::bin(BinOp::Lt, Expr::Var(var.to_string()), end.clone());
        let mut full = body.to_vec();
        full.push(Stmt::Assign(
            LValue::Var(var.to_string()),
            Expr::bin(BinOp::Add, Expr::Var(var.to_string()), Expr::Const(1)),
        ));
        self.lower_while(&cond, &full);
        true
    }

    /// SLP vectorization on straight-line code: four adjacent stores to
    /// consecutive constant indices become one vector store. Two shapes:
    ///
    /// 1. `arr[k..k+4] = const` — the constants are packed into the data
    ///    section and loaded with a single vector load;
    /// 2. `c[k+j] = a[k+j] op b[k+j]` (`j = 0..4`) — the shape a fully
    ///    unrolled element-wise loop takes after constant propagation.
    ///
    /// Returns the number of statements consumed.
    fn try_slp(&mut self, stmts: &[Stmt]) -> Option<usize> {
        if stmts.len() < 4 {
            return None;
        }
        let known =
            |cx: &FnCx<'_>, n: &str| cx.arrays.contains_key(n) || cx.globals.contains_key(n);
        // Pattern 1: arr[k..k+4] = consts.
        'consts: {
            let mut consts = Vec::new();
            let mut arr0: Option<(&str, u32)> = None;
            for (j, s) in stmts.iter().take(4).enumerate() {
                match s {
                    Stmt::Assign(LValue::Index(arr, Expr::Const(k)), Expr::Const(v)) => {
                        match arr0 {
                            None => arr0 = Some((arr, *k)),
                            Some((a0, k0)) => {
                                if a0 != arr || *k != k0 + j as u32 {
                                    break 'consts;
                                }
                            }
                        }
                        consts.push(*v);
                    }
                    _ => break 'consts,
                }
            }
            let Some((arr, k0)) = arr0 else { break 'consts };
            if !known(self, arr) {
                break 'consts;
            }
            let arr = arr.to_string();
            // Intern the 4-constant pack in the data section.
            let dedup = self.eff.merge_all_constants;
            let base = self.bin.add_data_word(consts[0], dedup);
            for &c in &consts[1..] {
                self.bin.add_data_word(c, false);
            }
            let pack_mem = MemRef::abs(base as i32);
            let dst = self.array_elem_const(&arr, k0);
            self.push(Insn::op2(Opcode::Vload, Xmm(0), pack_mem));
            self.push(Insn::op2(Opcode::Vstore, dst, Xmm(0)));
            return Some(4);
        }
        // Pattern 2: c[k+j] = a[k+j] op b[k+j].
        let mut shape: Option<(&str, &str, &str, BinOp, u32)> = None;
        for (j, s) in stmts.iter().take(4).enumerate() {
            let (c, k, op, a, ia, b, ib) = match s {
                Stmt::Assign(LValue::Index(c, Expr::Const(k)), Expr::Bin(op, l, r)) => {
                    match (&**l, &**r) {
                        (Expr::Index(a, ia), Expr::Index(b, ib)) => (c, *k, *op, a, ia, b, ib),
                        _ => return None,
                    }
                }
                _ => return None,
            };
            if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
                return None;
            }
            let (ka, kb) = match (&**ia, &**ib) {
                (Expr::Const(ka), Expr::Const(kb)) => (*ka, *kb),
                _ => return None,
            };
            match &shape {
                None => {
                    if ka != k || kb != k {
                        return None;
                    }
                    shape = Some((c, a, b, op, k));
                }
                Some((c0, a0, b0, op0, k0)) => {
                    let expect = k0 + j as u32;
                    if c != *c0
                        || a != *a0
                        || b != *b0
                        || op != *op0
                        || k != expect
                        || ka != expect
                        || kb != expect
                    {
                        return None;
                    }
                }
            }
        }
        let (c, a, b, op, k0) = shape?;
        if !known(self, c) || !known(self, a) || !known(self, b) {
            return None;
        }
        // Overlap safety: same-index element-wise ops are safe even when
        // arrays alias, because loads happen before the store per group —
        // but only if c is not read as a or b in the *same* group after
        // being written. Distinct arrays avoid the question entirely.
        if c == a || c == b {
            return None;
        }
        let (c, a, b) = (c.to_string(), a.to_string(), b.to_string());
        let vop = match op {
            BinOp::Add => Opcode::Vadd,
            BinOp::Sub => Opcode::Vsub,
            _ => Opcode::Vmul,
        };
        let ma = self.array_elem_const(&a, k0);
        let mb = self.array_elem_const(&b, k0);
        let mc = self.array_elem_const(&c, k0);
        self.push(Insn::op2(Opcode::Vload, Xmm(0), ma));
        self.push(Insn::op2(Opcode::Vload, Xmm(1), mb));
        self.push(Insn::op2(vop, Xmm(0), Xmm(1)));
        self.push(Insn::op2(Opcode::Vstore, mc, Xmm(0)));
        Some(4)
    }

    // --------------------------------------------------------- builtins

    /// Builtin expansion (`-fbuiltin`): `strcpy(dst, "lit")` becomes a run
    /// of immediate-to-memory stores (Figure 3(d)); `strlen("lit")` folds
    /// to a constant.
    fn try_builtin(&mut self, result: Option<&LValue>, name: &str, args: &[Expr]) -> bool {
        if !self.eff.builtin_expand {
            return false;
        }
        match (name, args) {
            ("strcpy", [dst, Expr::Str(s)]) if dst.is_pure() => {
                let addr = self.intern_string(s);
                // Words of the interned string, terminator included.
                let mut bytes: Vec<u8> = s.bytes().collect();
                bytes.push(0);
                while !bytes.len().is_multiple_of(4) {
                    bytes.push(0);
                }
                let r = self.eval(dst, 0);
                let _ = addr;
                for (w, chunk) in bytes.chunks(4).enumerate() {
                    let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                    self.push(Insn::op2(
                        Opcode::Mov,
                        MemRef::base_disp(r, (w * 4) as i32),
                        word as i64,
                    ));
                }
                if let Some(lv) = result {
                    self.store_to(lv, r);
                }
                true
            }
            ("strlen", [Expr::Str(s)]) => {
                if let Some(lv) = result {
                    let r = self.eval(&Expr::Const(s.len() as u32), 0);
                    self.store_to(lv, r);
                }
                true
            }
            _ => false,
        }
    }
}

fn collect_stmt_reads(s: &Stmt, out: &mut std::collections::BTreeSet<String>) {
    match s {
        Stmt::Assign(lv, e) => {
            e.vars_read(out);
            if let LValue::Index(_, i) = lv {
                i.vars_read(out);
            }
            if let LValue::Var(v) = lv {
                out.insert(v.clone());
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            cond.vars_read(out);
            for s in then_body.iter().chain(else_body) {
                collect_stmt_reads(s, out);
            }
        }
        Stmt::While { cond, body } => {
            cond.vars_read(out);
            for s in body {
                collect_stmt_reads(s, out);
            }
        }
        Stmt::For {
            var,
            start,
            end,
            body,
            ..
        } => {
            out.insert(var.clone());
            start.vars_read(out);
            end.vars_read(out);
            for s in body {
                collect_stmt_reads(s, out);
            }
        }
        Stmt::Switch {
            scrutinee,
            cases,
            default,
        } => {
            scrutinee.vars_read(out);
            for s in cases.iter().flat_map(|(_, b)| b).chain(default) {
                collect_stmt_reads(s, out);
            }
        }
        Stmt::Return(e) | Stmt::ExprStmt(e) => e.vars_read(out),
    }
}
