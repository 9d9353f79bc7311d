//! The mini-C source IR.
//!
//! A deliberately small C-like language — unsigned 32-bit scalars, word
//! arrays, functions, `if`/`while`/`for`/`switch` — rich enough to trigger
//! every optimization the paper discusses (loops to unroll and vectorize,
//! switches to lower as jump tables or binary search, small functions to
//! inline, early-exit functions to partially inline, string builtins).
//!
//! Structural conventions relied on by the optimizer:
//! * calls appear only in statement position (`x = f(..)`, `f(..)`,
//!   `return f(..)`), which the [`crate::ast::Module::validate`] check
//!   enforces — this keeps AST inlining a pure splice;
//! * a function is *inlinable* when `return` appears only as its final
//!   statement (see [`FuncDef::is_single_exit`]).

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Binary operators. Comparisons yield 0/1 and are unsigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (division by zero yields 0 by language definition).
    Div,
    /// Unsigned remainder (modulo zero yields the dividend).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (count masked to 31).
    Shl,
    /// Logical right shift (count masked to 31).
    Shr,
    /// Equality (0/1).
    Eq,
    /// Inequality (0/1).
    Ne,
    /// Unsigned less-than (0/1).
    Lt,
    /// Unsigned less-or-equal (0/1).
    Le,
    /// Unsigned greater-than (0/1).
    Gt,
    /// Unsigned greater-or-equal (0/1).
    Ge,
}

impl BinOp {
    /// Whether this is a comparison producing 0/1.
    pub fn is_cmp(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether the operator is commutative.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
        )
    }

    /// Evaluate on concrete values (the language's constant semantics).
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => a.checked_div(b).unwrap_or(0),
            BinOp::Rem => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.checked_shl(b & 31).unwrap_or(0),
            BinOp::Shr => a.checked_shr(b & 31).unwrap_or(0),
            BinOp::Eq => (a == b) as u32,
            BinOp::Ne => (a != b) as u32,
            BinOp::Lt => (a < b) as u32,
            BinOp::Le => (a <= b) as u32,
            BinOp::Gt => (a > b) as u32,
            BinOp::Ge => (a >= b) as u32,
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Expr {
    /// Constant.
    Const(u32),
    /// Scalar variable (parameter or local).
    Var(String),
    /// Global scalar (word 0 of a global).
    Global(String),
    /// Array element: `name[index]`. `name` is a local array or global.
    Index(String, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Bitwise not.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Call to a program function (statement position only).
    Call(String, Vec<Expr>),
    /// Call to an imported library function (statement position only).
    CallImport(String, Vec<Expr>),
    /// Address of an interned string constant.
    Str(String),
    /// Address of a named local array or global.
    AddrOf(String),
}

impl Expr {
    /// Convenience: binary op from two exprs.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Convenience: `var op const`.
    pub fn vc(op: BinOp, var: &str, c: u32) -> Expr {
        Expr::bin(op, Expr::Var(var.into()), Expr::Const(c))
    }

    /// Whether the expression is free of calls (safe to duplicate /
    /// speculate — loads are always safe in this language).
    pub fn is_pure(&self) -> bool {
        match self {
            Expr::Call(..) | Expr::CallImport(..) => false,
            Expr::Const(_) | Expr::Var(_) | Expr::Global(_) | Expr::Str(_) | Expr::AddrOf(_) => {
                true
            }
            Expr::Index(_, i) => i.is_pure(),
            Expr::Bin(_, a, b) => a.is_pure() && b.is_pure(),
            Expr::Not(a) | Expr::Neg(a) => a.is_pure(),
        }
    }

    /// Collect variable names read by this expression into `out`.
    pub fn vars_read(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Var(v) => {
                out.insert(v.clone());
            }
            Expr::Index(_, i) => i.vars_read(out),
            Expr::Bin(_, a, b) => {
                a.vars_read(out);
                b.vars_read(out);
            }
            Expr::Not(a) | Expr::Neg(a) => a.vars_read(out),
            Expr::Call(_, args) | Expr::CallImport(_, args) => {
                for a in args {
                    a.vars_read(out);
                }
            }
            _ => {}
        }
    }

    /// Substitute every read of variable `name` with `replacement`.
    pub fn subst_var(&self, name: &str, replacement: &Expr) -> Expr {
        match self {
            Expr::Var(v) if v == name => replacement.clone(),
            Expr::Index(arr, i) => {
                Expr::Index(arr.clone(), Box::new(i.subst_var(name, replacement)))
            }
            Expr::Bin(op, a, b) => Expr::bin(
                *op,
                a.subst_var(name, replacement),
                b.subst_var(name, replacement),
            ),
            Expr::Not(a) => Expr::Not(Box::new(a.subst_var(name, replacement))),
            Expr::Neg(a) => Expr::Neg(Box::new(a.subst_var(name, replacement))),
            Expr::Call(f, args) => Expr::Call(
                f.clone(),
                args.iter()
                    .map(|a| a.subst_var(name, replacement))
                    .collect(),
            ),
            Expr::CallImport(f, args) => Expr::CallImport(
                f.clone(),
                args.iter()
                    .map(|a| a.subst_var(name, replacement))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// Rename every variable through `f` (inliner's fresh-name mapping).
    pub fn rename_vars(&self, f: &impl Fn(&str) -> String) -> Expr {
        match self {
            Expr::Var(v) => Expr::Var(f(v)),
            Expr::Index(arr, i) => Expr::Index(f(arr), Box::new(i.rename_vars(f))),
            Expr::AddrOf(a) => Expr::AddrOf(f(a)),
            Expr::Bin(op, a, b) => Expr::bin(*op, a.rename_vars(f), b.rename_vars(f)),
            Expr::Not(a) => Expr::Not(Box::new(a.rename_vars(f))),
            Expr::Neg(a) => Expr::Neg(Box::new(a.rename_vars(f))),
            Expr::Call(name, args) => Expr::Call(
                name.clone(),
                args.iter().map(|a| a.rename_vars(f)).collect(),
            ),
            Expr::CallImport(name, args) => Expr::CallImport(
                name.clone(),
                args.iter().map(|a| a.rename_vars(f)).collect(),
            ),
            other => other.clone(),
        }
    }

    /// Node count (used by inlining thresholds).
    pub fn size(&self) -> usize {
        match self {
            Expr::Index(_, i) => 1 + i.size(),
            Expr::Bin(_, a, b) => 1 + a.size() + b.size(),
            Expr::Not(a) | Expr::Neg(a) => 1 + a.size(),
            Expr::Call(_, args) | Expr::CallImport(_, args) => {
                2 + args.iter().map(Expr::size).sum::<usize>()
            }
            _ => 1,
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LValue {
    /// Scalar variable.
    Var(String),
    /// Global scalar.
    Global(String),
    /// Array element.
    Index(String, Expr),
}

impl LValue {
    /// Variable written (for `Var`), if any.
    pub fn written_var(&self) -> Option<&str> {
        match self {
            LValue::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stmt {
    /// `lv = expr;`
    Assign(LValue, Expr),
    /// `if (cond) { .. } else { .. }` — cond is "non-zero is true".
    If {
        /// Condition expression.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (may be empty).
        else_body: Vec<Stmt>,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (var = start; var < end; var += step) { .. }`
    For {
        /// Induction variable (a declared local scalar).
        var: String,
        /// Initial value.
        start: Expr,
        /// Exclusive upper bound.
        end: Expr,
        /// Constant positive step.
        step: u32,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `switch (scrutinee) { case k: ..; default: .. }` — no fallthrough.
    Switch {
        /// Value switched on.
        scrutinee: Expr,
        /// `(case value, body)` pairs, distinct values.
        cases: Vec<(u32, Vec<Stmt>)>,
        /// Default body.
        default: Vec<Stmt>,
    },
    /// `return expr;`
    Return(Expr),
    /// Expression for effect (calls only).
    ExprStmt(Expr),
}

impl Stmt {
    /// Node count (used by inlining/unrolling thresholds).
    pub fn size(&self) -> usize {
        match self {
            Stmt::Assign(_, e) => 1 + e.size(),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => 1 + cond.size() + body_size(then_body) + body_size(else_body),
            Stmt::While { cond, body } => 1 + cond.size() + body_size(body),
            Stmt::For {
                start, end, body, ..
            } => 2 + start.size() + end.size() + body_size(body),
            Stmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                1 + scrutinee.size()
                    + cases.iter().map(|(_, b)| body_size(b)).sum::<usize>()
                    + body_size(default)
            }
            Stmt::Return(e) | Stmt::ExprStmt(e) => 1 + e.size(),
        }
    }

    /// Variables assigned anywhere in this statement (including loop vars).
    pub fn vars_written(&self, out: &mut BTreeSet<String>) {
        match self {
            Stmt::Assign(lv, _) => {
                if let Some(v) = lv.written_var() {
                    out.insert(v.to_string());
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.vars_written(out);
                }
            }
            Stmt::While { body, .. } => {
                for s in body {
                    s.vars_written(out);
                }
            }
            Stmt::For { var, body, .. } => {
                out.insert(var.clone());
                for s in body {
                    s.vars_written(out);
                }
            }
            Stmt::Switch { cases, default, .. } => {
                for s in cases.iter().flat_map(|(_, b)| b).chain(default) {
                    s.vars_written(out);
                }
            }
            Stmt::Return(_) | Stmt::ExprStmt(_) => {}
        }
    }

    /// Whether a `return` occurs anywhere inside.
    pub fn contains_return(&self) -> bool {
        match self {
            Stmt::Return(_) => true,
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body.iter().chain(else_body).any(Stmt::contains_return),
            Stmt::While { body, .. } | Stmt::For { body, .. } => {
                body.iter().any(Stmt::contains_return)
            }
            Stmt::Switch { cases, default, .. } => cases
                .iter()
                .flat_map(|(_, b)| b)
                .chain(default)
                .any(Stmt::contains_return),
            _ => false,
        }
    }

    /// Whether a call occurs anywhere inside.
    pub fn contains_call(&self) -> bool {
        fn expr_has_call(e: &Expr) -> bool {
            match e {
                Expr::Call(..) | Expr::CallImport(..) => true,
                Expr::Index(_, i) => expr_has_call(i),
                Expr::Bin(_, a, b) => expr_has_call(a) || expr_has_call(b),
                Expr::Not(a) | Expr::Neg(a) => expr_has_call(a),
                _ => false,
            }
        }
        match self {
            Stmt::Assign(LValue::Index(_, i), e) => expr_has_call(i) || expr_has_call(e),
            Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::ExprStmt(e) => expr_has_call(e),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => expr_has_call(cond) || then_body.iter().chain(else_body).any(Stmt::contains_call),
            Stmt::While { cond, body } => {
                expr_has_call(cond) || body.iter().any(Stmt::contains_call)
            }
            Stmt::For {
                start, end, body, ..
            } => expr_has_call(start) || expr_has_call(end) || body.iter().any(Stmt::contains_call),
            Stmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                expr_has_call(scrutinee)
                    || cases
                        .iter()
                        .flat_map(|(_, b)| b)
                        .chain(default)
                        .any(Stmt::contains_call)
            }
        }
    }
}

/// Total node count of a statement list.
pub fn body_size(body: &[Stmt]) -> usize {
    body.iter().map(Stmt::size).sum()
}

/// A local variable declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Local {
    /// Name (unique within the function, distinct from params).
    pub name: String,
    /// `Some(n)` for an `u32[n]` array, `None` for a scalar.
    pub array: Option<usize>,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Parameter names (all scalar; at most 4).
    pub params: Vec<String>,
    /// Local declarations.
    pub locals: Vec<Local>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Whether this models a statically linked library function.
    pub is_library: bool,
}

impl FuncDef {
    /// A function with the given signature and body.
    pub fn new(name: impl Into<String>, params: Vec<String>, body: Vec<Stmt>) -> FuncDef {
        FuncDef {
            name: name.into(),
            params,
            locals: Vec::new(),
            body,
            is_library: false,
        }
    }

    /// Declare a scalar local.
    pub fn local(&mut self, name: impl Into<String>) -> &mut Self {
        self.locals.push(Local {
            name: name.into(),
            array: None,
        });
        self
    }

    /// Declare an array local of `n` words.
    pub fn local_array(&mut self, name: impl Into<String>, n: usize) -> &mut Self {
        self.locals.push(Local {
            name: name.into(),
            array: Some(n),
        });
        self
    }

    /// Body size in AST nodes.
    pub fn size(&self) -> usize {
        body_size(&self.body)
    }

    /// Whether `return` only appears as the final top-level statement
    /// (the shape the AST inliner can splice).
    pub fn is_single_exit(&self) -> bool {
        let interior_returns = self
            .body
            .iter()
            .take(self.body.len().saturating_sub(1))
            .any(Stmt::contains_return);
        if interior_returns {
            return false;
        }
        match self.body.last() {
            Some(Stmt::Return(_)) => true,
            Some(last) => !last.contains_return(),
            None => true,
        }
    }
}

/// A global: `name` bound to a vector of initialized words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Global {
    /// Name.
    pub name: String,
    /// Initial contents (length ≥ 1; scalars have length 1).
    pub words: Vec<u32>,
}

/// The most stack words [`Module::validate`] lets one function declare:
/// params, scalar locals and array words together. Far above any program
/// in the corpus (whose arrays are at most 16 words), and far below the
/// 2^29 words where codegen's `i32` frame offsets wrap.
pub const MAX_FRAME_WORDS: usize = 1 << 20;

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Module {
    /// Module (program) name, e.g. `"462.libquantum"`.
    pub name: String,
    /// Functions; the one named `main` is the entry point.
    pub funcs: Vec<FuncDef>,
    /// Globals.
    pub globals: Vec<Global>,
}

impl Module {
    /// An empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            funcs: Vec::new(),
            globals: Vec::new(),
        }
    }

    /// Look up a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Total AST size.
    pub fn size(&self) -> usize {
        self.funcs.iter().map(FuncDef::size).sum()
    }

    /// Structural validation: unique names, calls resolve, calls only in
    /// statement position, switch cases distinct, nonzero loop steps, at
    /// most four params and at most [`MAX_FRAME_WORDS`] stack words per
    /// function, and every name a body reads, writes, indexes, loops over
    /// or takes the address of resolves the way codegen resolves it — so a
    /// module that validates lowers without panicking.
    pub fn validate(&self) -> Result<(), String> {
        let mut names = BTreeSet::new();
        for f in &self.funcs {
            if !names.insert(&f.name) {
                return Err(format!("duplicate function {}", f.name));
            }
        }
        let globals: BTreeSet<&str> = self.globals.iter().map(|g| g.name.as_str()).collect();
        for f in &self.funcs {
            let mut scope = Scope {
                f,
                scalars: f.params.iter().map(String::as_str).collect(),
                arrays: BTreeSet::new(),
                globals: &globals,
            };
            for l in &f.locals {
                let name = l.name.as_str();
                if scope.scalars.contains(name) || scope.arrays.contains(name) {
                    return Err(format!("{}: duplicate variable {}", f.name, l.name));
                }
                match l.array {
                    None => scope.scalars.insert(name),
                    Some(_) => scope.arrays.insert(name),
                };
            }
            if f.params.len() > 4 {
                return Err(format!("{}: more than 4 params", f.name));
            }
            let words = f
                .locals
                .iter()
                .map(|l| l.array.map_or(1, |n| n.max(1)))
                .fold(f.params.len(), usize::saturating_add);
            if words > MAX_FRAME_WORDS {
                return Err(format!(
                    "{}: frame of {words} words exceeds {MAX_FRAME_WORDS}",
                    f.name
                ));
            }
            self.validate_body(&scope, &f.body)?;
        }
        Ok(())
    }

    fn validate_body(&self, cx: &Scope<'_>, body: &[Stmt]) -> Result<(), String> {
        for s in body {
            self.validate_stmt(cx, s)?;
        }
        Ok(())
    }

    fn validate_stmt(&self, cx: &Scope<'_>, s: &Stmt) -> Result<(), String> {
        let f = cx.f;
        let check_top = |e: &Expr| -> Result<(), String> {
            cx.expr(e)?;
            // Calls allowed at top level of the expression only.
            let check_nested = |e: &Expr| {
                if e.is_pure() {
                    Ok(())
                } else {
                    Err(format!("{}: nested call in expression", f.name))
                }
            };
            match e {
                Expr::Call(name, args) => {
                    if self.func(name).is_none() {
                        return Err(format!("{}: call to unknown {}", f.name, name));
                    }
                    args.iter().try_for_each(check_nested)
                }
                Expr::CallImport(_, args) => args.iter().try_for_each(check_nested),
                other => check_nested(other),
            }
        };
        let check_pure = |e: &Expr| {
            cx.expr(e)?;
            check_nested_pure(f, e)
        };
        match s {
            Stmt::Assign(lv, e) => {
                match lv {
                    LValue::Var(v) => cx.scalar(v)?,
                    LValue::Global(g) => cx.global(g)?,
                    LValue::Index(a, i) => {
                        cx.array(a)?;
                        check_pure(i)?;
                    }
                }
                check_top(e)
            }
            Stmt::Return(e) | Stmt::ExprStmt(e) => check_top(e),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                check_pure(cond)?;
                self.validate_body(cx, then_body)?;
                self.validate_body(cx, else_body)
            }
            Stmt::While { cond, body } => {
                check_pure(cond)?;
                self.validate_body(cx, body)
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                if !cx.scalars.contains(var.as_str()) {
                    return Err(format!("{}: undeclared loop var {}", f.name, var));
                }
                if *step == 0 {
                    return Err(format!("{}: zero loop step", f.name));
                }
                check_pure(start)?;
                check_pure(end)?;
                self.validate_body(cx, body)
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                check_pure(scrutinee)?;
                let mut seen = BTreeSet::new();
                for (v, b) in cases {
                    if !seen.insert(v) {
                        return Err(format!("{}: duplicate case {}", f.name, v));
                    }
                    self.validate_body(cx, b)?;
                }
                self.validate_body(cx, default)
            }
        }
    }
}

/// The names one function's body may use, split the way codegen looks
/// them up: a scalar is a param or a scalar local; an array is an array
/// local, else a global.
struct Scope<'m> {
    f: &'m FuncDef,
    /// Params and scalar locals.
    scalars: BTreeSet<&'m str>,
    /// Array locals.
    arrays: BTreeSet<&'m str>,
    /// The module's globals.
    globals: &'m BTreeSet<&'m str>,
}

impl Scope<'_> {
    fn scalar(&self, v: &str) -> Result<(), String> {
        self.resolve(self.scalars.contains(v), "variable", v)
    }

    fn global(&self, g: &str) -> Result<(), String> {
        self.resolve(self.globals.contains(g), "global", g)
    }

    fn array(&self, a: &str) -> Result<(), String> {
        self.resolve(
            self.arrays.contains(a) || self.globals.contains(a),
            "array",
            a,
        )
    }

    fn resolve(&self, found: bool, what: &str, name: &str) -> Result<(), String> {
        if found {
            Ok(())
        } else {
            Err(format!("{}: unknown {what} {name}", self.f.name))
        }
    }

    /// Resolve every name `e` reads, indexes or takes the address of.
    fn expr(&self, e: &Expr) -> Result<(), String> {
        match e {
            Expr::Const(_) | Expr::Str(_) => Ok(()),
            Expr::Var(v) => self.scalar(v),
            Expr::Global(g) => self.global(g),
            Expr::AddrOf(a) => self.array(a),
            Expr::Index(a, i) => {
                self.array(a)?;
                self.expr(i)
            }
            Expr::Bin(_, a, b) => {
                self.expr(a)?;
                self.expr(b)
            }
            Expr::Not(a) | Expr::Neg(a) => self.expr(a),
            Expr::Call(_, args) | Expr::CallImport(_, args) => {
                args.iter().try_for_each(|a| self.expr(a))
            }
        }
    }
}

fn check_nested_pure(f: &FuncDef, e: &Expr) -> Result<(), String> {
    if e.is_pure() {
        Ok(())
    } else {
        Err(format!("{}: call in non-statement position", f.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_func() -> FuncDef {
        let mut f = FuncDef::new(
            "f",
            vec!["x".into()],
            vec![
                Stmt::Assign(LValue::Var("y".into()), Expr::vc(BinOp::Add, "x", 1)),
                Stmt::Return(Expr::Var("y".into())),
            ],
        );
        f.local("y");
        f
    }

    #[test]
    fn validate_accepts_wellformed() {
        let mut m = Module::new("t");
        m.funcs.push(sample_func());
        m.validate().unwrap();
    }

    #[test]
    fn validate_rejects_nested_call() {
        let mut m = Module::new("t");
        let mut f = sample_func();
        f.body[0] = Stmt::Assign(
            LValue::Var("y".into()),
            Expr::bin(BinOp::Add, Expr::Call("f".into(), vec![]), Expr::Const(1)),
        );
        m.funcs.push(f);
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_unknown_callee() {
        let mut m = Module::new("t");
        let mut f = sample_func();
        f.body[0] = Stmt::ExprStmt(Expr::Call("missing".into(), vec![]));
        m.funcs.push(f);
        assert!(m.validate().is_err());
    }

    #[test]
    fn single_exit_detection() {
        assert!(sample_func().is_single_exit());
        let f2 = FuncDef::new(
            "g",
            vec!["x".into()],
            vec![
                Stmt::If {
                    cond: Expr::Var("x".into()),
                    then_body: vec![Stmt::Return(Expr::Const(1))],
                    else_body: vec![],
                },
                Stmt::Return(Expr::Const(0)),
            ],
        );
        assert!(!f2.is_single_exit());
    }

    #[test]
    fn subst_and_rename() {
        let e = Expr::vc(BinOp::Mul, "i", 3);
        let s = e.subst_var("i", &Expr::Const(7));
        assert_eq!(s, Expr::bin(BinOp::Mul, Expr::Const(7), Expr::Const(3)));
        let r = e.rename_vars(&|v: &str| format!("inl_{v}"));
        assert_eq!(r, Expr::vc(BinOp::Mul, "inl_i", 3));
    }

    #[test]
    fn vars_written_includes_loop_var() {
        let s = Stmt::For {
            var: "i".into(),
            start: Expr::Const(0),
            end: Expr::Const(10),
            step: 1,
            body: vec![Stmt::Assign(LValue::Var("acc".into()), Expr::Const(0))],
        };
        let mut w = BTreeSet::new();
        s.vars_written(&mut w);
        assert!(w.contains("i") && w.contains("acc"));
    }

    #[test]
    fn binop_eval_edge_cases() {
        assert_eq!(BinOp::Div.eval(10, 0), 0);
        assert_eq!(BinOp::Rem.eval(10, 0), 10);
        assert_eq!(BinOp::Add.eval(u32::MAX, 1), 0);
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(BinOp::Shl.eval(1, 33), 2); // masked to 1
    }
}
