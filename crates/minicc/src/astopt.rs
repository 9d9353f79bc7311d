//! AST-level optimization passes: constant folding, inlining (full and
//! partial), loop unrolling/peeling/unswitching, loop-invariant code
//! motion, and loop distribution.
//!
//! Every pass is a semantics-preserving `Module → Module` transformation;
//! the integration tests validate them by differential execution against
//! `-O0` on the emulator.

use crate::ast::{BinOp, Expr, FuncDef, LValue, Local, Module, Stmt};
use crate::flags::EffectConfig;
use std::collections::BTreeSet;

/// Run all enabled AST passes, in the fixed pipeline order the compiler
/// uses: fold → inline → unswitch → peel → distribute → unroll → licm →
/// fold again (inlining and unrolling expose new folding opportunities).
///
/// The module is cloned once; every pass then rewrites that copy in
/// place.
pub fn optimize(module: &Module, cfg: &EffectConfig) -> Module {
    let mut m = module.clone();
    if cfg.const_fold {
        fold_module(&mut m);
    }
    if cfg.inline_threshold > 0 || cfg.partial_inline {
        inline_module(&mut m, cfg.inline_threshold, cfg.partial_inline);
    }
    if cfg.unswitch {
        map_bodies(&mut m, unswitch_body);
    }
    if cfg.peel {
        map_bodies(&mut m, peel_body);
    }
    if cfg.loop_distribute {
        map_bodies(&mut m, distribute_body);
    }
    if cfg.unroll_factor > 1 {
        let factor = cfg.unroll_factor;
        let jam = cfg.unroll_and_jam;
        map_bodies(&mut m, |body| unroll_body(body, factor, jam));
    }
    if cfg.licm {
        map_bodies(&mut m, licm_body);
    }
    if cfg.const_fold {
        // Straight-line constant propagation turns unrolled loop bodies
        // (`i = 0; c[i] = ...; i = 1; ...`) into constant-indexed stores,
        // which the SLP vectorizer and jump-threading can then consume.
        map_bodies(&mut m, propagate_consts);
        if cfg.cse {
            map_bodies(&mut m, eliminate_dead_assigns);
        }
        fold_module(&mut m);
    }
    m
}

/// Forward-propagate `v = const` facts through straight-line statement
/// runs. Conservative: any control-flow statement clears the environment
/// (after having constants substituted into nested bodies' *reads* is NOT
/// attempted — only plain statements are rewritten).
fn propagate_consts(body: Vec<Stmt>) -> Vec<Stmt> {
    let mut env: std::collections::BTreeMap<String, u32> = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    let subst_env = |e: &Expr, env: &std::collections::BTreeMap<String, u32>| {
        let mut cur = e.clone();
        for (v, c) in env {
            cur = cur.subst_var(v, &Expr::Const(*c));
        }
        fold_expr(&cur)
    };
    for s in body {
        match s {
            Stmt::Assign(lv, e) => {
                let e2 = subst_env(&e, &env);
                let lv2 = match lv {
                    LValue::Index(a, i) => LValue::Index(a, subst_env(&i, &env)),
                    other => other,
                };
                if let LValue::Var(v) = &lv2 {
                    match &e2 {
                        Expr::Const(c) => {
                            env.insert(v.clone(), *c);
                        }
                        _ => {
                            env.remove(v);
                        }
                    }
                }
                out.push(Stmt::Assign(lv2, e2));
            }
            Stmt::Return(e) => {
                out.push(Stmt::Return(subst_env(&e, &env)));
                env.clear();
            }
            Stmt::ExprStmt(e) => {
                out.push(Stmt::ExprStmt(subst_env(&e, &env)));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = subst_env(&cond, &env);
                out.push(Stmt::If {
                    cond,
                    then_body: propagate_consts(then_body),
                    else_body: propagate_consts(else_body),
                });
                env.clear();
            }
            Stmt::While { cond, body } => {
                out.push(Stmt::While {
                    cond,
                    body: propagate_consts(body),
                });
                env.clear();
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let start = subst_env(&start, &env);
                out.push(Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body: propagate_consts(body),
                });
                env.clear();
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                let scrutinee = subst_env(&scrutinee, &env);
                out.push(Stmt::Switch {
                    scrutinee,
                    cases: cases
                        .into_iter()
                        .map(|(v, b)| (v, propagate_consts(b)))
                        .collect(),
                    default: propagate_consts(default),
                });
                env.clear();
            }
        }
    }
    out
}

/// Remove `v = const` assignments that are overwritten before any read
/// within the same straight-line run (exposed by constant propagation).
fn eliminate_dead_assigns(body: Vec<Stmt>) -> Vec<Stmt> {
    let mut out: Vec<Stmt> = Vec::new();
    for s in body {
        let s = match s {
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => Stmt::If {
                cond,
                then_body: eliminate_dead_assigns(then_body),
                else_body: eliminate_dead_assigns(else_body),
            },
            Stmt::While { cond, body } => Stmt::While {
                cond,
                body: eliminate_dead_assigns(body),
            },
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => Stmt::For {
                var,
                start,
                end,
                step,
                body: eliminate_dead_assigns(body),
            },
            Stmt::Switch {
                scrutinee,
                cases,
                default,
            } => Stmt::Switch {
                scrutinee,
                cases: cases
                    .into_iter()
                    .map(|(v, b)| (v, eliminate_dead_assigns(b)))
                    .collect(),
                default: eliminate_dead_assigns(default),
            },
            other => other,
        };
        // If this statement overwrites `v`, and the most recent write to
        // `v` in the current run was a constant assign with no intervening
        // statement reading `v`, drop the earlier one.
        if let Stmt::Assign(LValue::Var(v), _) = &s {
            let mut kill: Option<usize> = None;
            for (i, prev) in out.iter().enumerate().rev() {
                match prev {
                    Stmt::Assign(LValue::Var(pv), Expr::Const(_)) if pv == v => {
                        kill = Some(i);
                        break;
                    }
                    Stmt::Assign(lv, e) => {
                        let mut reads = BTreeSet::new();
                        e.vars_read(&mut reads);
                        if let LValue::Index(_, idx) = lv {
                            idx.vars_read(&mut reads);
                        }
                        if reads.contains(v) || lv.written_var() == Some(v) {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            if let Some(i) = kill {
                out.remove(i);
            }
        }
        out.push(s);
    }
    out
}

fn map_bodies(m: &mut Module, mut f: impl FnMut(Vec<Stmt>) -> Vec<Stmt>) {
    for func in &mut m.funcs {
        func.body = f(std::mem::take(&mut func.body));
    }
}

// ---------------------------------------------------------------- folding

fn fold_module(m: &mut Module) {
    for f in &mut m.funcs {
        f.body = f.body.iter().map(fold_stmt).collect();
    }
}

/// Fold constants in an expression (pure simplifications only).
pub fn fold_expr(e: &Expr) -> Expr {
    match e {
        Expr::Bin(op, a, b) => {
            let a = fold_expr(a);
            let b = fold_expr(b);
            if let (Expr::Const(x), Expr::Const(y)) = (&a, &b) {
                return Expr::Const(op.eval(*x, *y));
            }
            // Identity simplifications (all valid for wrapping u32).
            match (op, &a, &b) {
                (BinOp::Add, x, Expr::Const(0)) | (BinOp::Sub, x, Expr::Const(0)) => {
                    return x.clone()
                }
                (BinOp::Add, Expr::Const(0), x) => return x.clone(),
                (BinOp::Mul, x, Expr::Const(1)) | (BinOp::Div, x, Expr::Const(1)) => {
                    return x.clone()
                }
                (BinOp::Mul, Expr::Const(1), x) => return x.clone(),
                (BinOp::Mul, _, Expr::Const(0)) if a.is_pure() => return Expr::Const(0),
                (BinOp::Mul, Expr::Const(0), _) if b.is_pure() => return Expr::Const(0),
                (BinOp::Or, x, Expr::Const(0)) | (BinOp::Xor, x, Expr::Const(0)) => {
                    return x.clone()
                }
                (BinOp::And, _, Expr::Const(0)) if a.is_pure() => return Expr::Const(0),
                (BinOp::Shl, x, Expr::Const(0)) | (BinOp::Shr, x, Expr::Const(0)) => {
                    return x.clone()
                }
                _ => {}
            }
            Expr::bin(*op, a, b)
        }
        Expr::Not(a) => {
            let a = fold_expr(a);
            if let Expr::Const(x) = a {
                Expr::Const(!x)
            } else {
                Expr::Not(Box::new(a))
            }
        }
        Expr::Neg(a) => {
            let a = fold_expr(a);
            if let Expr::Const(x) = a {
                Expr::Const(x.wrapping_neg())
            } else {
                Expr::Neg(Box::new(a))
            }
        }
        Expr::Index(arr, i) => Expr::Index(arr.clone(), Box::new(fold_expr(i))),
        Expr::Call(f, args) => Expr::Call(f.clone(), args.iter().map(fold_expr).collect()),
        Expr::CallImport(f, args) => {
            Expr::CallImport(f.clone(), args.iter().map(fold_expr).collect())
        }
        other => other.clone(),
    }
}

fn fold_body(body: &[Stmt]) -> Vec<Stmt> {
    body.iter().map(fold_stmt).collect()
}

fn fold_stmt(s: &Stmt) -> Stmt {
    match s {
        Stmt::Assign(lv, e) => {
            let lv = match lv {
                LValue::Index(a, i) => LValue::Index(a.clone(), fold_expr(i)),
                other => other.clone(),
            };
            Stmt::Assign(lv, fold_expr(e))
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let cond = fold_expr(cond);
            if let Expr::Const(c) = cond {
                // Dead-branch elimination; wrap in a trivial If-free shape
                // by returning the surviving branch as a no-cond If.
                let survivor = if c != 0 { then_body } else { else_body };
                return Stmt::If {
                    cond: Expr::Const(1),
                    then_body: fold_body(survivor),
                    else_body: Vec::new(),
                };
            }
            Stmt::If {
                cond,
                then_body: fold_body(then_body),
                else_body: fold_body(else_body),
            }
        }
        Stmt::While { cond, body } => Stmt::While {
            cond: fold_expr(cond),
            body: fold_body(body),
        },
        Stmt::For {
            var,
            start,
            end,
            step,
            body,
        } => Stmt::For {
            var: var.clone(),
            start: fold_expr(start),
            end: fold_expr(end),
            step: *step,
            body: fold_body(body),
        },
        Stmt::Switch {
            scrutinee,
            cases,
            default,
        } => Stmt::Switch {
            scrutinee: fold_expr(scrutinee),
            cases: cases.iter().map(|(v, b)| (*v, fold_body(b))).collect(),
            default: fold_body(default),
        },
        Stmt::Return(e) => Stmt::Return(fold_expr(e)),
        Stmt::ExprStmt(e) => Stmt::ExprStmt(fold_expr(e)),
    }
}

// --------------------------------------------------------------- inlining

/// Whether `f` can be spliced at a call site: single-exit shape, no
/// recursion (checked by caller), and array locals are fine (they get
/// fresh names).
fn inlinable(f: &FuncDef, threshold: usize) -> bool {
    f.is_single_exit() && f.size() <= threshold && !calls_self(f)
}

fn calls_self(f: &FuncDef) -> bool {
    fn expr_calls(e: &Expr, name: &str) -> bool {
        match e {
            Expr::Call(n, _) => n == name,
            _ => false,
        }
    }
    fn stmt_calls(s: &Stmt, name: &str) -> bool {
        match s {
            Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::ExprStmt(e) => expr_calls(e, name),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body
                .iter()
                .chain(else_body)
                .any(|s| stmt_calls(s, name)),
            Stmt::While { body, .. } | Stmt::For { body, .. } => {
                body.iter().any(|s| stmt_calls(s, name))
            }
            Stmt::Switch { cases, default, .. } => cases
                .iter()
                .flat_map(|(_, b)| b)
                .chain(default)
                .any(|s| stmt_calls(s, name)),
        }
    }
    f.body.iter().any(|s| stmt_calls(s, &f.name))
}

struct Inliner<'a> {
    module: &'a Module,
    threshold: usize,
    partial: bool,
    counter: usize,
}

impl<'a> Inliner<'a> {
    /// Inline a call, producing replacement statements. `result` receives
    /// the return value (None to discard).
    fn splice(
        &mut self,
        callee: &FuncDef,
        args: &[Expr],
        result: Option<&LValue>,
        new_locals: &mut Vec<Local>,
    ) -> Vec<Stmt> {
        self.counter += 1;
        let tag = format!("__inl{}_{}", self.counter, callee.name);
        let rename = |v: &str| format!("{tag}_{v}");
        let mut out = Vec::new();
        // Fresh locals for params and declared locals.
        for (p, a) in callee.params.iter().zip(args) {
            new_locals.push(Local {
                name: rename(p),
                array: None,
            });
            out.push(Stmt::Assign(LValue::Var(rename(p)), a.clone()));
        }
        for l in &callee.locals {
            new_locals.push(Local {
                name: rename(&l.name),
                array: l.array,
            });
        }
        let renamer = |v: &str| {
            if callee.params.iter().any(|p| p == v) || callee.locals.iter().any(|l| l.name == v) {
                rename(v)
            } else {
                v.to_string()
            }
        };
        let body_len = callee.body.len();
        for (i, s) in callee.body.iter().enumerate() {
            let renamed = rename_stmt(s, &renamer);
            if i + 1 == body_len {
                if let Stmt::Return(e) = renamed {
                    if let Some(lv) = result {
                        out.push(Stmt::Assign(lv.clone(), e));
                    } else if !e.is_pure() {
                        out.push(Stmt::ExprStmt(e));
                    }
                    continue;
                }
            }
            out.push(renamed);
        }
        // Void-shaped callee with a result expected: result = 0.
        if let Some(result) = result {
            if !matches!(callee.body.last(), Some(Stmt::Return(_))) {
                out.push(Stmt::Assign(result.clone(), Expr::Const(0)));
            }
        }
        out
    }

    /// Partial inline: callee starts with `if (c) return e;` — splice the
    /// early exit, keep the call on the slow path (paper §4's
    /// `-fpartial-inlining`).
    fn splice_partial(
        &mut self,
        callee: &FuncDef,
        args: &[Expr],
        result: Option<&LValue>,
        new_locals: &mut Vec<Local>,
    ) -> Option<Vec<Stmt>> {
        let (cond, early) = match callee.body.first() {
            Some(Stmt::If {
                cond,
                then_body,
                else_body,
            }) if else_body.is_empty() && then_body.len() == 1 => match &then_body[0] {
                Stmt::Return(e) if e.is_pure() && cond.is_pure() => (cond, e),
                _ => return None,
            },
            _ => return None,
        };
        // Substitute params directly; only safe when all args are pure and
        // each param appears freely (they do: cond/early are pure exprs).
        if !args.iter().all(Expr::is_pure) || args.len() != callee.params.len() {
            return None;
        }
        let subst = |e: &Expr| {
            let mut out = e.clone();
            for (p, a) in callee.params.iter().zip(args) {
                out = out.subst_var(p, a);
            }
            out
        };
        self.counter += 1;
        let _ = new_locals;
        let call = Expr::Call(callee.name.clone(), args.to_vec());
        let slow: Vec<Stmt> = match result {
            Some(lv) => vec![Stmt::Assign(lv.clone(), call)],
            None => vec![Stmt::ExprStmt(call)],
        };
        let fast: Vec<Stmt> = match result {
            Some(lv) => vec![Stmt::Assign(lv.clone(), subst(early))],
            None => vec![],
        };
        Some(vec![Stmt::If {
            cond: subst(cond),
            then_body: fast,
            else_body: slow,
        }])
    }

    fn rewrite_body(&mut self, body: &[Stmt], new_locals: &mut Vec<Local>) -> Vec<Stmt> {
        let mut out = Vec::new();
        for s in body {
            match s {
                Stmt::Assign(lv, Expr::Call(name, args)) => {
                    out.extend(self.rewrite_call(name, args, Some(lv), new_locals));
                }
                Stmt::ExprStmt(Expr::Call(name, args)) => {
                    out.extend(self.rewrite_call(name, args, None, new_locals));
                }
                Stmt::Return(Expr::Call(name, args)) => {
                    // return f(..) → tmp = f(..); return tmp (then maybe
                    // inlined). The temp keeps the single-exit shape.
                    let tmp = {
                        self.counter += 1;
                        format!("__ret{}", self.counter)
                    };
                    new_locals.push(Local {
                        name: tmp.clone(),
                        array: None,
                    });
                    out.extend(self.rewrite_call(
                        name,
                        args,
                        Some(&LValue::Var(tmp.clone())),
                        new_locals,
                    ));
                    out.push(Stmt::Return(Expr::Var(tmp)));
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => out.push(Stmt::If {
                    cond: cond.clone(),
                    then_body: self.rewrite_body(then_body, new_locals),
                    else_body: self.rewrite_body(else_body, new_locals),
                }),
                Stmt::While { cond, body } => out.push(Stmt::While {
                    cond: cond.clone(),
                    body: self.rewrite_body(body, new_locals),
                }),
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => out.push(Stmt::For {
                    var: var.clone(),
                    start: start.clone(),
                    end: end.clone(),
                    step: *step,
                    body: self.rewrite_body(body, new_locals),
                }),
                Stmt::Switch {
                    scrutinee,
                    cases,
                    default,
                } => out.push(Stmt::Switch {
                    scrutinee: scrutinee.clone(),
                    cases: cases
                        .iter()
                        .map(|(v, b)| (*v, self.rewrite_body(b, new_locals)))
                        .collect(),
                    default: self.rewrite_body(default, new_locals),
                }),
                other => out.push(other.clone()),
            }
        }
        out
    }

    fn rewrite_call(
        &mut self,
        name: &str,
        args: &[Expr],
        result: Option<&LValue>,
        new_locals: &mut Vec<Local>,
    ) -> Vec<Stmt> {
        let Some(callee) = self.module.func(name) else {
            return fallback_call(name, args, result);
        };
        if self.threshold > 0 && inlinable(callee, self.threshold) && args.iter().all(Expr::is_pure)
        {
            return self.splice(callee, args, result, new_locals);
        }
        if self.partial {
            if let Some(stmts) = self.splice_partial(callee, args, result, new_locals) {
                return stmts;
            }
        }
        fallback_call(name, args, result)
    }
}

fn fallback_call(name: &str, args: &[Expr], result: Option<&LValue>) -> Vec<Stmt> {
    let call = Expr::Call(name.to_string(), args.to_vec());
    match result {
        Some(lv) => vec![Stmt::Assign(lv.clone(), call)],
        None => vec![Stmt::ExprStmt(call)],
    }
}

fn rename_stmt(s: &Stmt, f: &impl Fn(&str) -> String) -> Stmt {
    match s {
        Stmt::Assign(lv, e) => {
            let lv = match lv {
                LValue::Var(v) => LValue::Var(f(v)),
                LValue::Global(g) => LValue::Global(g.clone()),
                LValue::Index(a, i) => LValue::Index(f(a), i.rename_vars(f)),
            };
            Stmt::Assign(lv, e.rename_vars(f))
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: cond.rename_vars(f),
            then_body: then_body.iter().map(|s| rename_stmt(s, f)).collect(),
            else_body: else_body.iter().map(|s| rename_stmt(s, f)).collect(),
        },
        Stmt::While { cond, body } => Stmt::While {
            cond: cond.rename_vars(f),
            body: body.iter().map(|s| rename_stmt(s, f)).collect(),
        },
        Stmt::For {
            var,
            start,
            end,
            step,
            body,
        } => Stmt::For {
            var: f(var),
            start: start.rename_vars(f),
            end: end.rename_vars(f),
            step: *step,
            body: body.iter().map(|s| rename_stmt(s, f)).collect(),
        },
        Stmt::Switch {
            scrutinee,
            cases,
            default,
        } => Stmt::Switch {
            scrutinee: scrutinee.rename_vars(f),
            cases: cases
                .iter()
                .map(|(v, b)| (*v, b.iter().map(|s| rename_stmt(s, f)).collect()))
                .collect(),
            default: default.iter().map(|s| rename_stmt(s, f)).collect(),
        },
        Stmt::Return(e) => Stmt::Return(e.rename_vars(f)),
        Stmt::ExprStmt(e) => Stmt::ExprStmt(e.rename_vars(f)),
    }
}

/// Inline calls in every function. Each new body is built from the
/// unmodified module (callees are spliced as they were before this
/// pass), and all of them are swapped in at the end.
fn inline_module(m: &mut Module, threshold: usize, partial: bool) {
    let src: &Module = m;
    let rewritten: Vec<(Vec<Stmt>, Vec<Local>)> = src
        .funcs
        .iter()
        .map(|f| {
            let mut inliner = Inliner {
                module: src,
                threshold,
                partial,
                counter: 0,
            };
            let mut new_locals = Vec::new();
            let body = inliner.rewrite_body(&f.body, &mut new_locals);
            (body, new_locals)
        })
        .collect();
    for (f, (body, new_locals)) in m.funcs.iter_mut().zip(rewritten) {
        f.body = body;
        f.locals.extend(new_locals);
    }
}

// ------------------------------------------------------------- loop opts

fn loop_trip_count(start: &Expr, end: &Expr, step: u32) -> Option<u32> {
    if let (Expr::Const(s), Expr::Const(e)) = (start, end) {
        if e <= s {
            return Some(0);
        }
        Some((e - s).div_ceil(step))
    } else {
        None
    }
}

fn body_writes(body: &[Stmt]) -> BTreeSet<String> {
    let mut w = BTreeSet::new();
    for s in body {
        s.vars_written(&mut w);
    }
    w
}

fn expr_reads(e: &Expr) -> BTreeSet<String> {
    let mut r = BTreeSet::new();
    e.vars_read(&mut r);
    r
}

/// Unroll `For` loops. Constant trip counts ≤ `factor * 4` unroll fully;
/// otherwise the loop body is replicated `factor` times with a scalar
/// remainder loop. Loops whose body writes the induction variable or
/// returns are left alone.
fn unroll_body(body: Vec<Stmt>, factor: usize, jam: bool) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in body {
        match s {
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                // Recurse first (inner loops; `jam` also unrolls outers).
                let inner = unroll_body(body, factor, jam);
                let writes = body_writes(&inner);
                let safe = !writes.contains(&var) && !inner.iter().any(Stmt::contains_return);
                let is_outer = inner
                    .iter()
                    .any(|s| matches!(s, Stmt::For { .. } | Stmt::While { .. }));
                let unroll_this = safe && (!is_outer || jam);
                if !unroll_this {
                    out.push(Stmt::For {
                        var,
                        start,
                        end,
                        step,
                        body: inner,
                    });
                    continue;
                }
                match loop_trip_count(&start, &end, step) {
                    Some(n) if n as usize <= factor * 4 => {
                        // Full unroll.
                        let s0 = match start {
                            Expr::Const(v) => v,
                            _ => unreachable!(),
                        };
                        for k in 0..n {
                            out.push(Stmt::Assign(
                                LValue::Var(var.clone()),
                                Expr::Const(s0 + k * step),
                            ));
                            out.extend(inner.iter().cloned());
                        }
                        // Loop var's final value must match the rolled loop.
                        out.push(Stmt::Assign(
                            LValue::Var(var.clone()),
                            Expr::Const(s0.wrapping_add(n.wrapping_mul(step))),
                        ));
                    }
                    _ => {
                        // Partial unroll with remainder: requires pure
                        // bounds not written by the body.
                        let bound_reads: BTreeSet<String> = expr_reads(&start)
                            .union(&expr_reads(&end))
                            .cloned()
                            .collect();
                        if !start.is_pure()
                            || !end.is_pure()
                            || bound_reads.intersection(&writes).next().is_some()
                        {
                            out.push(Stmt::For {
                                var,
                                start,
                                end,
                                step,
                                body: inner,
                            });
                            continue;
                        }
                        // var = start;
                        // while (var + step*factor <= end)  [as var <= end - step*factor, guarded end >= step*factor]
                        //   { body; var+=step; ... ×factor }
                        // for (; var < end; var += step) body
                        let chunk = step * factor as u32;
                        out.push(Stmt::Assign(LValue::Var(var.clone()), start.clone()));
                        let mut unrolled = Vec::new();
                        for _ in 0..factor {
                            unrolled.extend(inner.iter().cloned());
                            unrolled.push(Stmt::Assign(
                                LValue::Var(var.clone()),
                                Expr::bin(BinOp::Add, Expr::Var(var.clone()), Expr::Const(step)),
                            ));
                        }
                        // Guard: end >= chunk && var <= end - chunk.
                        let cond = Expr::bin(
                            BinOp::And,
                            Expr::bin(BinOp::Ge, end.clone(), Expr::Const(chunk)),
                            Expr::bin(
                                BinOp::Le,
                                Expr::Var(var.clone()),
                                Expr::bin(BinOp::Sub, end.clone(), Expr::Const(chunk)),
                            ),
                        );
                        out.push(Stmt::While {
                            cond,
                            body: unrolled,
                        });
                        // Remainder.
                        out.push(Stmt::While {
                            cond: Expr::bin(BinOp::Lt, Expr::Var(var.clone()), end.clone()),
                            body: {
                                let mut b = inner.clone();
                                b.push(Stmt::Assign(
                                    LValue::Var(var.clone()),
                                    Expr::bin(
                                        BinOp::Add,
                                        Expr::Var(var.clone()),
                                        Expr::Const(step),
                                    ),
                                ));
                                b
                            },
                        });
                    }
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => out.push(Stmt::If {
                cond,
                then_body: unroll_body(then_body, factor, jam),
                else_body: unroll_body(else_body, factor, jam),
            }),
            Stmt::While { cond, body } => out.push(Stmt::While {
                cond,
                body: unroll_body(body, factor, jam),
            }),
            Stmt::Switch {
                scrutinee,
                cases,
                default,
            } => out.push(Stmt::Switch {
                scrutinee,
                cases: cases
                    .into_iter()
                    .map(|(v, b)| (v, unroll_body(b, factor, jam)))
                    .collect(),
                default: unroll_body(default, factor, jam),
            }),
            other => out.push(other),
        }
    }
    out
}

/// Peel the first iteration of `For` loops with pure bounds
/// (`-fpeel-loops`).
fn peel_body(body: Vec<Stmt>) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in body {
        match s {
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let inner = peel_body(body);
                let writes = body_writes(&inner);
                let bound_reads: BTreeSet<String> = expr_reads(&start)
                    .union(&expr_reads(&end))
                    .cloned()
                    .collect();
                let safe = start.is_pure()
                    && end.is_pure()
                    && !writes.contains(&var)
                    && !inner.iter().any(Stmt::contains_return)
                    && bound_reads.intersection(&writes).next().is_none();
                if !safe {
                    out.push(Stmt::For {
                        var,
                        start,
                        end,
                        step,
                        body: inner,
                    });
                    continue;
                }
                // if (start < end) { var = start; body; }
                // for (var = start+step; var < end; var += step) body
                out.push(Stmt::If {
                    cond: Expr::bin(BinOp::Lt, start.clone(), end.clone()),
                    then_body: {
                        let mut b = vec![Stmt::Assign(LValue::Var(var.clone()), start.clone())];
                        b.extend(inner.iter().cloned());
                        b
                    },
                    else_body: vec![],
                });
                out.push(Stmt::For {
                    var: var.clone(),
                    start: Expr::bin(BinOp::Add, start, Expr::Const(step)),
                    end,
                    step,
                    body: inner,
                });
            }
            other => out.push(other),
        }
    }
    out
}

/// Unswitch loops over loop-invariant `If` conditions
/// (`-funswitch-loops`).
fn unswitch_body(body: Vec<Stmt>) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in body {
        match s {
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let inner = unswitch_body(body);
                let writes = {
                    let mut w = body_writes(&inner);
                    w.insert(var.clone());
                    w
                };
                // Find a top-level invariant If.
                let pos = inner.iter().position(|s| match s {
                    Stmt::If { cond, .. } => {
                        cond.is_pure() && expr_reads(cond).intersection(&writes).next().is_none()
                    }
                    _ => false,
                });
                match pos {
                    Some(i) => {
                        let (cond, then_b, else_b) = match &inner[i] {
                            Stmt::If {
                                cond,
                                then_body,
                                else_body,
                            } => (cond.clone(), then_body.clone(), else_body.clone()),
                            _ => unreachable!(),
                        };
                        let mk_loop = |branch: Vec<Stmt>| {
                            let mut b = inner.clone();
                            b.splice(i..=i, branch);
                            Stmt::For {
                                var: var.clone(),
                                start: start.clone(),
                                end: end.clone(),
                                step,
                                body: b,
                            }
                        };
                        out.push(Stmt::If {
                            cond,
                            then_body: vec![mk_loop(then_b)],
                            else_body: vec![mk_loop(else_b)],
                        });
                    }
                    None => out.push(Stmt::For {
                        var,
                        start,
                        end,
                        step,
                        body: inner,
                    }),
                }
            }
            other => out.push(other),
        }
    }
    out
}

/// Hoist invariant scalar assignments out of constant-bound loops with at
/// least one iteration (`-fmove-loop-invariants`).
fn licm_body(body: Vec<Stmt>) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in body {
        match s {
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let mut inner = licm_body(body);
                if loop_trip_count(&start, &end, step).unwrap_or(0) >= 1 {
                    // Hoist a *leading prefix* of invariant scalar assigns.
                    // Leading position guarantees nothing in an iteration
                    // reads the variable before the (re-)assignment, so
                    // executing it once before the loop is equivalent when
                    // the loop runs at least once.
                    let writes = {
                        let mut w = body_writes(&inner);
                        w.insert(var.clone());
                        w
                    };
                    let mut split = 0usize;
                    for s in &inner {
                        match s {
                            Stmt::Assign(LValue::Var(v), e)
                                if expr_only_vars(e)
                                    && expr_reads(e).intersection(&writes).next().is_none()
                                    && write_count(&inner, v) == 1 =>
                            {
                                split += 1;
                            }
                            _ => break,
                        }
                    }
                    let rest = inner.split_off(split);
                    out.extend(inner);
                    out.push(Stmt::For {
                        var,
                        start,
                        end,
                        step,
                        body: rest,
                    });
                } else {
                    out.push(Stmt::For {
                        var,
                        start,
                        end,
                        step,
                        body: inner,
                    });
                }
            }
            other => out.push(other),
        }
    }
    out
}

fn expr_only_vars(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) => true,
        Expr::Bin(_, a, b) => expr_only_vars(a) && expr_only_vars(b),
        Expr::Not(a) | Expr::Neg(a) => expr_only_vars(a),
        _ => false,
    }
}

fn write_count(body: &[Stmt], v: &str) -> usize {
    fn in_stmt(s: &Stmt, v: &str) -> usize {
        match s {
            Stmt::Assign(LValue::Var(x), _) => (x == v) as usize,
            Stmt::Assign(_, _) | Stmt::Return(_) | Stmt::ExprStmt(_) => 0,
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body
                .iter()
                .chain(else_body)
                .map(|s| in_stmt(s, v))
                .sum(),
            Stmt::While { body, .. } => body.iter().map(|s| in_stmt(s, v)).sum(),
            Stmt::For { var, body, .. } => {
                (var == v) as usize + body.iter().map(|s| in_stmt(s, v)).sum::<usize>()
            }
            Stmt::Switch { cases, default, .. } => cases
                .iter()
                .flat_map(|(_, b)| b)
                .chain(default)
                .map(|s| in_stmt(s, v))
                .sum(),
        }
    }
    body.iter().map(|s| in_stmt(s, v)).sum()
}

/// Split loops whose body is two independent elementwise statements into
/// two loops (`-ftree-loop-distribute-patterns`).
fn distribute_body(body: Vec<Stmt>) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in body {
        match s {
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let inner = distribute_body(body);
                // Shape: exactly two pure element-wise stores to *distinct*
                // arrays, neither reading the other's array (no cross-
                // iteration dependence between the split loops).
                let splittable = inner.len() == 2
                    && start.is_pure()
                    && end.is_pure()
                    && matches!(
                        (&inner[0], &inner[1]),
                        (
                            Stmt::Assign(LValue::Index(_, _), _),
                            Stmt::Assign(LValue::Index(_, _), _)
                        )
                    )
                    && {
                        let (a0, e0, a1, e1) = match (&inner[0], &inner[1]) {
                            (
                                Stmt::Assign(LValue::Index(a0, i0), e0),
                                Stmt::Assign(LValue::Index(a1, i1), e1),
                            ) => {
                                if !i0.is_pure() || !i1.is_pure() || !e0.is_pure() || !e1.is_pure()
                                {
                                    (a0, None, a1, None)
                                } else {
                                    (a0, Some(e0), a1, Some(e1))
                                }
                            }
                            _ => unreachable!(),
                        };
                        match (e0, e1) {
                            (Some(e0), Some(e1)) => {
                                a0 != a1
                                    && !arr_reads(e1).contains(a0)
                                    && !arr_reads(e0).contains(a1)
                            }
                            _ => false,
                        }
                    };
                if splittable {
                    for stmt in inner {
                        out.push(Stmt::For {
                            var: var.clone(),
                            start: start.clone(),
                            end: end.clone(),
                            step,
                            body: vec![stmt],
                        });
                    }
                } else {
                    out.push(Stmt::For {
                        var,
                        start,
                        end,
                        step,
                        body: inner,
                    });
                }
            }
            other => out.push(other),
        }
    }
    out
}

fn arr_reads(e: &Expr) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    fn walk(e: &Expr, out: &mut BTreeSet<String>) {
        match e {
            Expr::Index(a, i) => {
                out.insert(a.clone());
                walk(i, out);
            }
            Expr::Bin(_, a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Expr::Not(a) | Expr::Neg(a) => walk(a, out),
            Expr::Call(_, args) | Expr::CallImport(_, args) => {
                args.iter().for_each(|a| walk(a, out))
            }
            _ => {}
        }
    }
    walk(e, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_arithmetic() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::Const(6), Expr::Const(7)),
            Expr::Const(0),
        );
        assert_eq!(fold_expr(&e), Expr::Const(42));
        let id = Expr::bin(BinOp::Mul, Expr::Var("x".into()), Expr::Const(1));
        assert_eq!(fold_expr(&id), Expr::Var("x".into()));
    }

    #[test]
    fn full_unroll_replicates_body() {
        let body = vec![Stmt::For {
            var: "i".into(),
            start: Expr::Const(0),
            end: Expr::Const(3),
            step: 1,
            body: vec![Stmt::Assign(
                LValue::Index("a".into(), Expr::Var("i".into())),
                Expr::Var("i".into()),
            )],
        }];
        let u = unroll_body(body, 4, false);
        // 3 iterations × (set var + body) + final var assignment.
        assert_eq!(u.len(), 7);
        assert!(matches!(u[0], Stmt::Assign(LValue::Var(_), Expr::Const(0))));
    }

    #[test]
    fn partial_unroll_produces_guard_and_remainder() {
        let body = vec![Stmt::For {
            var: "i".into(),
            start: Expr::Const(0),
            end: Expr::Var("n".into()),
            step: 1,
            body: vec![Stmt::Assign(
                LValue::Index("a".into(), Expr::Var("i".into())),
                Expr::Const(1),
            )],
        }];
        let u = unroll_body(body, 4, false);
        assert_eq!(u.len(), 3); // init, unrolled while, remainder while
        assert!(matches!(u[1], Stmt::While { .. }));
        assert!(matches!(u[2], Stmt::While { .. }));
    }

    #[test]
    fn unswitch_hoists_invariant_if() {
        let body = vec![Stmt::For {
            var: "i".into(),
            start: Expr::Const(0),
            end: Expr::Const(10),
            step: 1,
            body: vec![Stmt::If {
                cond: Expr::Var("flag".into()),
                then_body: vec![Stmt::Assign(
                    LValue::Index("a".into(), Expr::Var("i".into())),
                    Expr::Const(1),
                )],
                else_body: vec![Stmt::Assign(
                    LValue::Index("a".into(), Expr::Var("i".into())),
                    Expr::Const(2),
                )],
            }],
        }];
        let u = unswitch_body(body);
        assert_eq!(u.len(), 1);
        match &u[0] {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assert!(matches!(then_body[0], Stmt::For { .. }));
                assert!(matches!(else_body[0], Stmt::For { .. }));
            }
            other => panic!("expected If, got {other:?}"),
        }
    }

    #[test]
    fn peel_produces_guard_plus_loop() {
        let body = vec![Stmt::For {
            var: "i".into(),
            start: Expr::Const(0),
            end: Expr::Var("n".into()),
            step: 1,
            body: vec![Stmt::Assign(
                LValue::Index("a".into(), Expr::Var("i".into())),
                Expr::Const(1),
            )],
        }];
        let p = peel_body(body);
        assert_eq!(p.len(), 2);
        assert!(matches!(p[0], Stmt::If { .. }));
        assert!(matches!(p[1], Stmt::For { .. }));
    }

    #[test]
    fn distribute_splits_independent_stores() {
        let body = vec![Stmt::For {
            var: "i".into(),
            start: Expr::Const(0),
            end: Expr::Const(8),
            step: 1,
            body: vec![
                Stmt::Assign(
                    LValue::Index("a".into(), Expr::Var("i".into())),
                    Expr::Var("i".into()),
                ),
                Stmt::Assign(
                    LValue::Index("b".into(), Expr::Var("i".into())),
                    Expr::Const(0),
                ),
            ],
        }];
        let d = distribute_body(body);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn inline_splices_small_callee() {
        let mut m = Module::new("t");
        m.funcs.push(FuncDef::new(
            "double",
            vec!["x".into()],
            vec![Stmt::Return(Expr::vc(BinOp::Mul, "x", 2))],
        ));
        let mut main = FuncDef::new(
            "main",
            vec![],
            vec![
                Stmt::Assign(
                    LValue::Var("y".into()),
                    Expr::Call("double".into(), vec![Expr::Const(21)]),
                ),
                Stmt::Return(Expr::Var("y".into())),
            ],
        );
        main.local("y");
        m.funcs.push(main);
        m.validate().unwrap();
        let mut inlined = m;
        inline_module(&mut inlined, 48, false);
        let main2 = inlined.func("main").unwrap();
        // No call should remain.
        assert!(!main2.body.iter().any(Stmt::contains_call));
        inlined.validate().unwrap();
    }

    #[test]
    fn partial_inline_splits_early_exit() {
        let mut m = Module::new("t");
        m.funcs.push(FuncDef::new(
            "clamped",
            vec!["x".into()],
            vec![
                Stmt::If {
                    cond: Expr::vc(BinOp::Gt, "x", 100),
                    then_body: vec![Stmt::Return(Expr::Const(100))],
                    else_body: vec![],
                },
                Stmt::Assign(LValue::Var("x".into()), Expr::vc(BinOp::Mul, "x", 3)),
                Stmt::Return(Expr::Var("x".into())),
            ],
        ));
        let mut main = FuncDef::new(
            "main",
            vec!["a".into()],
            vec![
                Stmt::Assign(
                    LValue::Var("r".into()),
                    Expr::Call("clamped".into(), vec![Expr::Var("a".into())]),
                ),
                Stmt::Return(Expr::Var("r".into())),
            ],
        );
        main.local("r");
        m.funcs.push(main);
        m.validate().unwrap();
        // Threshold 0 disables full inlining; partial must kick in.
        let mut inlined = m;
        inline_module(&mut inlined, 0, true);
        let main2 = inlined.func("main").unwrap();
        assert!(matches!(main2.body[0], Stmt::If { .. }));
        inlined.validate().unwrap();
    }

    #[test]
    fn recursive_functions_are_not_inlined() {
        let mut m = Module::new("t");
        m.funcs.push(FuncDef::new(
            "rec",
            vec!["x".into()],
            vec![Stmt::Return(Expr::Call(
                "rec".into(),
                vec![Expr::Var("x".into())],
            ))],
        ));
        let mut inlined = m;
        inline_module(&mut inlined, 1000, false);
        // Still contains the self-call (as tmp = rec(x); return tmp).
        assert!(inlined
            .func("rec")
            .unwrap()
            .body
            .iter()
            .any(Stmt::contains_call));
    }

    #[test]
    fn licm_hoists_invariant_assign() {
        let body = vec![Stmt::For {
            var: "i".into(),
            start: Expr::Const(0),
            end: Expr::Const(10),
            step: 1,
            body: vec![
                Stmt::Assign(LValue::Var("k".into()), Expr::vc(BinOp::Mul, "n", 4)),
                Stmt::Assign(
                    LValue::Index("a".into(), Expr::Var("i".into())),
                    Expr::Var("k".into()),
                ),
            ],
        }];
        let h = licm_body(body);
        assert_eq!(h.len(), 2);
        assert!(matches!(h[0], Stmt::Assign(LValue::Var(_), _)));
    }
}
