//! # minicc — a miniature optimizing compiler for the BinTuner study
//!
//! This crate is the stand-in for GCC 10.2 and LLVM 11.0: a compiler for a
//! small C-like language ([`ast`]) targeting the `binrep` mini-ISA, with
//! two *compiler profiles* exposing >100 named optimization flags each
//! ([`flags`]), genuinely implemented optimization passes at the AST level
//! ([`astopt`]), lowering strategies ([`codegen`]) and machine level
//! ([`mir_opt`]), and documented flag constraints checked by the `satz`
//! solver — everything BinTuner's iterative compilation needs to explore.
//!
//! ## Example
//!
//! ```
//! use minicc::{Compiler, CompilerKind, OptLevel};
//! use minicc::ast::{BinOp, Expr, FuncDef, LValue, Module, Stmt};
//!
//! let mut m = Module::new("demo");
//! m.funcs.push(FuncDef::new(
//!     "main",
//!     vec![],
//!     vec![Stmt::Return(Expr::bin(BinOp::Mul, Expr::Const(6), Expr::Const(7)))],
//! ));
//! m.validate().unwrap();
//!
//! let cc = Compiler::new(CompilerKind::Gcc);
//! let o0 = cc.compile_preset(&m, OptLevel::O0, binrep::Arch::X86).unwrap();
//! let o3 = cc.compile_preset(&m, OptLevel::O3, binrep::Arch::X86).unwrap();
//! assert_ne!(binrep::encode_binary(&o0), binrep::encode_binary(&o3));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod astopt;
pub mod codec;
pub mod codegen;
pub mod features;
pub mod flags;
pub mod hash;
pub mod magic;
pub mod mir_opt;
pub mod stage;

pub use features::ModuleFeatures;
pub use flags::{CompilerKind, CompilerProfile, Effect, EffectConfig, FlagDef, OptLevel};
pub use hash::{fnv1a32, StableHasher};
pub use stage::{AstStageKey, LowerStageKey, MirStageKey, StageKeys};

use ast::Module;
use binrep::{Arch, Binary};

/// Errors from [`Compiler::compile`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The flag vector violates documented flag constraints — the
    /// "compilation error" case BinTuner's constraint verification exists
    /// to prevent (paper §4.1).
    InvalidFlags(Vec<satz::Violation>),
    /// The module failed validation.
    BadModule(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::InvalidFlags(v) => {
                write!(f, "conflicting optimization flags ({} violations)", v.len())
            }
            CompileError::BadModule(e) => write!(f, "invalid module: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Measured wall-clock seconds per pipeline stage for one compile
/// (returned by [`Compiler::compile_timed`]; consumed by the telemetry
/// plane's per-stage histograms and trace spans).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageWalls {
    /// Constraint check + module validation + effect resolution.
    pub check_seconds: f64,
    /// Stage 1: AST optimization.
    pub ast_seconds: f64,
    /// Stage 2: lowering to machine code.
    pub lower_seconds: f64,
    /// Stage 3: machine-level optimization.
    pub mir_seconds: f64,
}

/// A compiler instance for one profile (GCC or LLVM model).
#[derive(Debug, Clone)]
pub struct Compiler {
    profile: CompilerProfile,
}

impl Compiler {
    /// Build a compiler for the given family.
    pub fn new(kind: CompilerKind) -> Compiler {
        Compiler {
            profile: CompilerProfile::new(kind),
        }
    }

    /// The flag profile (vocabulary, presets, constraints).
    pub fn profile(&self) -> &CompilerProfile {
        &self.profile
    }

    /// Compile a module under an explicit flag vector.
    ///
    /// Equivalent to [`Compiler::check`] followed by the three pipeline
    /// stages ([`Compiler::stage_ast`] → [`Compiler::stage_lower`] →
    /// [`Compiler::stage_mir`]) — it *is* that sequence, so a staged
    /// caller that caches intermediate artifacts produces byte-identical
    /// binaries by construction (pinned corpus-wide by
    /// `tests/staged_vs_monolithic.rs`).
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidFlags`] when the flag vector violates the
    /// profile's constraints; [`CompileError::BadModule`] when the module
    /// is structurally invalid.
    pub fn compile(&self, m: &Module, flags: &[bool], arch: Arch) -> Result<Binary, CompileError> {
        let eff = self.check(m, flags)?;
        let optimized = self.stage_ast(m, &eff);
        let lowered = self.stage_lower(&optimized, &eff, arch);
        Ok(self.stage_mir(lowered, &eff))
    }

    /// The shared front half of a compile: constraint-check the flag
    /// vector, validate the module, and resolve the [`EffectConfig`].
    ///
    /// Callers that drive the stages themselves (the fitness engine's
    /// artifact cache) run this once per candidate — or skip it entirely
    /// for a module they already validated and a vector they already
    /// checked — instead of paying the full re-validation inside every
    /// [`Compiler::compile`].
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile`].
    pub fn check(&self, m: &Module, flags: &[bool]) -> Result<EffectConfig, CompileError> {
        let violations = self.profile.constraints().check(flags);
        if !violations.is_empty() {
            return Err(CompileError::InvalidFlags(violations));
        }
        m.validate().map_err(CompileError::BadModule)?;
        Ok(EffectConfig::from_flags(&self.profile, flags))
    }

    /// Pipeline stage 1: AST optimization.
    ///
    /// The output is a pure function of `(module, AstStageKey)` — only
    /// the fields in [`stage::AstStageKey`] are read (the projection
    /// invariant the staged-vs-monolithic differential suite pins), so
    /// two configs with equal AST stage keys may share one result.
    /// Expects a validated module ([`Compiler::check`]).
    pub fn stage_ast(&self, m: &Module, eff: &EffectConfig) -> Module {
        astopt::optimize(m, eff)
    }

    /// Pipeline stage 2: lower the optimized AST to machine code,
    /// *without* machine-level optimization.
    ///
    /// The output is a pure function of
    /// `(stage-1 artifact, LowerStageKey, arch)`; cache it under the
    /// `(AstStageKey, LowerStageKey)` digest pair.
    pub fn stage_lower(&self, optimized: &Module, eff: &EffectConfig, arch: Arch) -> Binary {
        codegen::lower_module(optimized, eff, arch)
    }

    /// Pipeline stage 3: machine-level optimization — the cheap tail of
    /// the pipeline, a pure function of `(stage-2 artifact, MirStageKey)`.
    /// Consumes the lowered binary (cached callers clone their artifact).
    pub fn stage_mir(&self, mut lowered: Binary, eff: &EffectConfig) -> Binary {
        mir_opt::optimize(&mut lowered, eff);
        debug_assert_eq!(lowered.validate(), Ok(()));
        lowered
    }

    /// Compile a module under an explicit flag vector, measuring each
    /// pipeline stage (`check → ast → lower → mir`) on the monotonic
    /// clock — the telemetry plane's per-stage timing hook.
    ///
    /// Runs the *same* stage sequence as [`Compiler::compile`], so the
    /// binary is byte-identical to an untimed compile by construction
    /// (pinned by `timed_compile_is_byte_identical`); only the clock
    /// readings are extra. Untraced callers keep using
    /// [`Compiler::compile`] and never pay for them.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile`].
    pub fn compile_timed(
        &self,
        m: &Module,
        flags: &[bool],
        arch: Arch,
    ) -> Result<(Binary, StageWalls), CompileError> {
        let t0 = std::time::Instant::now();
        let eff = self.check(m, flags)?;
        let t1 = std::time::Instant::now();
        let optimized = self.stage_ast(m, &eff);
        let t2 = std::time::Instant::now();
        let lowered = self.stage_lower(&optimized, &eff, arch);
        let t3 = std::time::Instant::now();
        let binary = self.stage_mir(lowered, &eff);
        let walls = StageWalls {
            check_seconds: (t1 - t0).as_secs_f64(),
            ast_seconds: (t2 - t1).as_secs_f64(),
            lower_seconds: (t3 - t2).as_secs_f64(),
            mir_seconds: t3.elapsed().as_secs_f64(),
        };
        Ok((binary, walls))
    }

    /// Compile with a default `-Ox` preset.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile`].
    pub fn compile_preset(
        &self,
        m: &Module,
        level: OptLevel,
        arch: Arch,
    ) -> Result<Binary, CompileError> {
        self.compile(m, &self.profile.preset(level), arch)
    }

    /// Model of one compilation's wall-clock cost in seconds, used to
    /// report Table 1's "hours" column at paper scale. Proportional to
    /// module size ([`Module::size`], which walks the whole AST, so
    /// callers charging many genomes size the module once) with a
    /// per-enabled-flag pass cost — large programs with heavy flag sets
    /// (the paper's 623.xalancbmk_s case) dominate.
    pub fn simulated_compile_seconds(&self, module_size: usize, flags: &[bool]) -> f64 {
        let enabled = flags.iter().filter(|&&b| b).count();
        let size = module_size as f64;
        0.05 + size * (6.0e-4 + 2.0e-5 * enabled as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ast::{BinOp, Expr, FuncDef, Global, LValue, Stmt};
    use emu::Machine;

    /// A module exercising every optimization surface: loops (counted,
    /// while, nested, vectorizable, reduction), dense & sparse switches,
    /// early-exit and small helpers, division by constants, strings,
    /// recursion, and branch-free-convertible ifs.
    fn kitchen_sink() -> Module {
        let mut m = Module::new("kitchen_sink");
        m.globals.push(Global {
            name: "gv".into(),
            words: vec![11],
        });
        m.globals.push(Global {
            name: "table".into(),
            words: (0..16).map(|i| i * 3 + 1).collect(),
        });

        // Small single-exit helper (inline candidate).
        m.funcs.push(FuncDef::new(
            "mix",
            vec!["a".into(), "b".into()],
            vec![Stmt::Return(Expr::bin(
                BinOp::Xor,
                Expr::bin(BinOp::Mul, Expr::Var("a".into()), Expr::Const(2654435761)),
                Expr::vc(BinOp::Shr, "b", 13),
            ))],
        ));

        // Early-exit function (partial-inline candidate).
        m.funcs.push(FuncDef::new(
            "clamp100",
            vec!["x".into()],
            vec![
                Stmt::If {
                    cond: Expr::vc(BinOp::Gt, "x", 100),
                    then_body: vec![Stmt::Return(Expr::Const(100))],
                    else_body: vec![],
                },
                Stmt::Return(Expr::bin(
                    BinOp::Add,
                    Expr::Var("x".into()),
                    Expr::Global("gv".into()),
                )),
            ],
        ));

        // Recursive function (must never be inlined).
        m.funcs.push(FuncDef::new("fib", vec!["n".into()], {
            let mut f = vec![
                Stmt::If {
                    cond: Expr::vc(BinOp::Lt, "n", 2),
                    then_body: vec![Stmt::Return(Expr::Var("n".into()))],
                    else_body: vec![],
                },
                Stmt::Assign(
                    LValue::Var("a".into()),
                    Expr::Call("fib".into(), vec![Expr::vc(BinOp::Sub, "n", 1)]),
                ),
                Stmt::Assign(
                    LValue::Var("b".into()),
                    Expr::Call("fib".into(), vec![Expr::vc(BinOp::Sub, "n", 2)]),
                ),
                Stmt::Return(Expr::bin(
                    BinOp::Add,
                    Expr::Var("a".into()),
                    Expr::Var("b".into()),
                )),
            ];
            f.rotate_left(0);
            f
        }));
        m.funcs.last_mut().unwrap().local("a");
        m.funcs.last_mut().unwrap().local("b");

        // Vector workload: c[i] = a[i]*b[i]; s = Σ c[i]; plus division.
        let mut vecf = FuncDef::new("dotish", vec!["n".into()], vec![]);
        vecf.local_array("a", 16)
            .local_array("b", 16)
            .local_array("c", 16)
            .local("i")
            .local("s");
        vecf.body = vec![
            Stmt::For {
                var: "i".into(),
                start: Expr::Const(0),
                end: Expr::Var("n".into()),
                step: 1,
                body: vec![
                    Stmt::Assign(
                        LValue::Index("a".into(), Expr::Var("i".into())),
                        Expr::bin(BinOp::Add, Expr::Var("i".into()), Expr::Const(3)),
                    ),
                    Stmt::Assign(
                        LValue::Index("b".into(), Expr::Var("i".into())),
                        Expr::bin(BinOp::Mul, Expr::Var("i".into()), Expr::Const(5)),
                    ),
                ],
            },
            Stmt::For {
                var: "i".into(),
                start: Expr::Const(0),
                end: Expr::Var("n".into()),
                step: 1,
                body: vec![Stmt::Assign(
                    LValue::Index("c".into(), Expr::Var("i".into())),
                    Expr::bin(
                        BinOp::Mul,
                        Expr::Index("a".into(), Box::new(Expr::Var("i".into()))),
                        Expr::Index("b".into(), Box::new(Expr::Var("i".into()))),
                    ),
                )],
            },
            Stmt::Assign(LValue::Var("s".into()), Expr::Const(0)),
            Stmt::For {
                var: "i".into(),
                start: Expr::Const(0),
                end: Expr::Var("n".into()),
                step: 1,
                body: vec![Stmt::Assign(
                    LValue::Var("s".into()),
                    Expr::bin(
                        BinOp::Add,
                        Expr::Var("s".into()),
                        Expr::Index("c".into(), Box::new(Expr::Var("i".into()))),
                    ),
                )],
            },
            Stmt::Return(Expr::bin(
                BinOp::Add,
                Expr::vc(BinOp::Div, "s", 255),
                Expr::vc(BinOp::Rem, "s", 16),
            )),
        ];
        m.funcs.push(vecf);

        // Switch-heavy function: one dense, one sparse.
        let mut sw = FuncDef::new("dispatch", vec!["op".into()], vec![]);
        sw.local("r");
        sw.body = vec![
            Stmt::Switch {
                scrutinee: Expr::Var("op".into()),
                cases: (0..6)
                    .map(|k| {
                        (
                            k,
                            vec![Stmt::Assign(
                                LValue::Var("r".into()),
                                Expr::Const(k * 7 + 1),
                            )],
                        )
                    })
                    .collect(),
                default: vec![Stmt::Assign(LValue::Var("r".into()), Expr::Const(999))],
            },
            Stmt::Switch {
                scrutinee: Expr::Var("op".into()),
                cases: vec![
                    (
                        2,
                        vec![Stmt::Assign(
                            LValue::Var("r".into()),
                            Expr::vc(BinOp::Add, "r", 10),
                        )],
                    ),
                    (
                        40,
                        vec![Stmt::Assign(
                            LValue::Var("r".into()),
                            Expr::vc(BinOp::Add, "r", 20),
                        )],
                    ),
                    (
                        1000,
                        vec![Stmt::Assign(
                            LValue::Var("r".into()),
                            Expr::vc(BinOp::Add, "r", 30),
                        )],
                    ),
                    (
                        77777,
                        vec![Stmt::Assign(
                            LValue::Var("r".into()),
                            Expr::vc(BinOp::Add, "r", 40),
                        )],
                    ),
                    (
                        5,
                        vec![Stmt::Assign(
                            LValue::Var("r".into()),
                            Expr::vc(BinOp::Add, "r", 50),
                        )],
                    ),
                ],
                default: vec![],
            },
            Stmt::Return(Expr::Var("r".into())),
        ];
        m.funcs.push(sw);

        // Trampoline in tail-call shape; `dispatch` is too big to inline,
        // so `-foptimize-sibling-calls` turns this into a tail jump.
        m.funcs.push(FuncDef::new(
            "route",
            vec!["x".into()],
            vec![Stmt::Return(Expr::Call(
                "dispatch".into(),
                vec![Expr::Var("x".into())],
            ))],
        ));

        // Counted loop + branch-free if + unswitchable loop + strings.
        let mut mainf = FuncDef::new("main", vec!["seed".into(), "mode".into()], vec![]);
        mainf
            .local("acc")
            .local("i")
            .local("t")
            .local("flag")
            .local_array("buf", 8);
        mainf.body = vec![
            Stmt::Assign(LValue::Var("acc".into()), Expr::Var("seed".into())),
            // Counted loop with var-free body (loop-insn candidate).
            Stmt::For {
                var: "i".into(),
                start: Expr::Const(0),
                end: Expr::Const(9),
                step: 1,
                body: vec![Stmt::Assign(
                    LValue::Var("acc".into()),
                    Expr::bin(
                        BinOp::Add,
                        Expr::bin(BinOp::Mul, Expr::Var("acc".into()), Expr::Const(33)),
                        Expr::Const(17),
                    ),
                )],
            },
            // Branch-free candidate: if (acc >= 1000) t = 1 else t = 0.
            Stmt::If {
                cond: Expr::vc(BinOp::Ge, "acc", 1000),
                then_body: vec![Stmt::Assign(LValue::Var("t".into()), Expr::Const(1))],
                else_body: vec![Stmt::Assign(LValue::Var("t".into()), Expr::Const(0))],
            },
            // cmov candidate.
            Stmt::If {
                cond: Expr::vc(BinOp::Lt, "acc", 500),
                then_body: vec![Stmt::Assign(
                    LValue::Var("flag".into()),
                    Expr::vc(BinOp::Add, "acc", 7),
                )],
                else_body: vec![Stmt::Assign(
                    LValue::Var("flag".into()),
                    Expr::vc(BinOp::Shr, "acc", 3),
                )],
            },
            // Unswitch candidate: invariant `mode` condition inside a loop.
            Stmt::For {
                var: "i".into(),
                start: Expr::Const(0),
                end: Expr::Const(12),
                step: 1,
                body: vec![Stmt::If {
                    cond: Expr::vc(BinOp::Eq, "mode", 1),
                    then_body: vec![Stmt::Assign(
                        LValue::Var("acc".into()),
                        Expr::bin(
                            BinOp::Add,
                            Expr::Var("acc".into()),
                            Expr::Index("table".into(), Box::new(Expr::Var("i".into()))),
                        ),
                    )],
                    else_body: vec![Stmt::Assign(
                        LValue::Var("acc".into()),
                        Expr::bin(BinOp::Xor, Expr::Var("acc".into()), Expr::Var("i".into())),
                    )],
                }],
            },
            // Builtin expansion: strcpy of a literal into a local buffer.
            Stmt::ExprStmt(Expr::CallImport(
                "strcpy".into(),
                vec![Expr::AddrOf("buf".into()), Expr::Str("Hello World!".into())],
            )),
            Stmt::Assign(
                LValue::Var("t".into()),
                Expr::bin(
                    BinOp::Add,
                    Expr::Var("t".into()),
                    Expr::Index("buf".into(), Box::new(Expr::Const(1))),
                ),
            ),
            // Calls into every helper.
            Stmt::Assign(
                LValue::Var("acc".into()),
                Expr::Call(
                    "mix".into(),
                    vec![Expr::Var("acc".into()), Expr::Var("t".into())],
                ),
            ),
            Stmt::Assign(
                LValue::Var("t".into()),
                Expr::Call("clamp100".into(), vec![Expr::vc(BinOp::Rem, "acc", 300)]),
            ),
            Stmt::Assign(
                LValue::Var("i".into()),
                Expr::Call("fib".into(), vec![Expr::Const(10)]),
            ),
            Stmt::Assign(
                LValue::Var("flag".into()),
                Expr::Call("dotish".into(), vec![Expr::Const(13)]),
            ),
            Stmt::Assign(
                LValue::Var("mode".into()),
                Expr::Call("route".into(), vec![Expr::vc(BinOp::Rem, "acc", 8)]),
            ),
            // Tail-call shape: return mix(..) as the last statement.
            Stmt::Return(Expr::Call(
                "mix".into(),
                vec![
                    Expr::bin(
                        BinOp::Add,
                        Expr::bin(
                            BinOp::Add,
                            Expr::Var("t".into()),
                            Expr::bin(BinOp::Add, Expr::Var("i".into()), Expr::Var("flag".into())),
                        ),
                        Expr::Var("mode".into()),
                    ),
                    Expr::Var("acc".into()),
                ],
            )),
        ];
        m.funcs.push(mainf);
        m.validate().unwrap();
        m
    }

    fn observe(bin: &Binary, args: &[u32]) -> (u32, Vec<u32>) {
        let r = Machine::new(bin)
            .run(args, &[5, 9, 1], 3_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", bin.name));
        (r.ret, r.output)
    }

    #[test]
    fn presets_preserve_semantics_gcc() {
        let m = kitchen_sink();
        let cc = Compiler::new(CompilerKind::Gcc);
        let base = cc.compile_preset(&m, OptLevel::O0, Arch::X86).unwrap();
        let want: Vec<(u32, Vec<u32>)> = [[3u32, 1], [1234, 0], [0, 1], [99999, 2]]
            .iter()
            .map(|a| observe(&base, a))
            .collect();
        for level in OptLevel::ALL {
            let bin = cc.compile_preset(&m, level, Arch::X86).unwrap();
            bin.validate().unwrap();
            for (args, expect) in [[3u32, 1], [1234, 0], [0, 1], [99999, 2]].iter().zip(&want) {
                assert_eq!(&observe(&bin, args), expect, "{level} args {args:?}");
            }
        }
    }

    #[test]
    fn timed_compile_is_byte_identical() {
        // The telemetry hook must change *nothing* but the clock
        // readings: same binary bytes as the untimed path, every preset,
        // and the same typed error on invalid inputs.
        let m = kitchen_sink();
        for kind in [CompilerKind::Gcc, CompilerKind::Llvm] {
            let cc = Compiler::new(kind);
            for level in OptLevel::ALL {
                let flags = cc.profile().preset(level);
                let plain = cc.compile(&m, &flags, Arch::X86).unwrap();
                let (timed, walls) = cc.compile_timed(&m, &flags, Arch::X86).unwrap();
                assert_eq!(timed, plain, "{kind:?} {level}");
                assert!(walls.check_seconds >= 0.0);
                assert!(walls.ast_seconds >= 0.0);
                assert!(walls.lower_seconds >= 0.0);
                assert!(walls.mir_seconds >= 0.0);
            }
            // Invalid flag vectors fail the same way.
            let n = cc.profile().n_flags();
            let all_on = vec![true; n];
            if cc.check(&m, &all_on).is_err() {
                assert!(matches!(
                    cc.compile_timed(&m, &all_on, Arch::X86),
                    Err(CompileError::InvalidFlags(_))
                ));
            }
        }
    }

    #[test]
    fn presets_preserve_semantics_llvm_all_arches() {
        let m = kitchen_sink();
        let cc = Compiler::new(CompilerKind::Llvm);
        for arch in Arch::ALL {
            let base = cc.compile_preset(&m, OptLevel::O0, arch).unwrap();
            let want = observe(&base, &[42, 1]);
            for level in [OptLevel::O2, OptLevel::O3, OptLevel::Os] {
                let bin = cc.compile_preset(&m, level, arch).unwrap();
                assert_eq!(observe(&bin, &[42, 1]), want, "{level} {arch}");
            }
        }
    }

    #[test]
    fn random_valid_flag_vectors_preserve_semantics() {
        use rand::prelude::*;
        let m = kitchen_sink();
        for kind in [CompilerKind::Gcc, CompilerKind::Llvm] {
            let cc = Compiler::new(kind);
            let n = cc.profile().n_flags();
            let mut rng = StdRng::seed_from_u64(0xb1a5);
            let base = cc.compile_preset(&m, OptLevel::O0, Arch::X86).unwrap();
            let want = observe(&base, &[7, 1]);
            for trial in 0..24 {
                let raw: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
                let flags = cc.profile().constraints().repair(&raw, trial as u64);
                let bin = cc.compile(&m, &flags, Arch::X86).unwrap();
                assert_eq!(observe(&bin, &[7, 1]), want, "{kind} trial {trial}");
            }
        }
    }

    #[test]
    fn invalid_flags_are_rejected() {
        let m = kitchen_sink();
        let cc = Compiler::new(CompilerKind::Gcc);
        let mut flags = vec![false; cc.profile().n_flags()];
        // -fpartial-inlining without -finline-functions.
        flags[cc.profile().flag_index("-fpartial-inlining").unwrap()] = true;
        match cc.compile(&m, &flags, Arch::X86) {
            Err(CompileError::InvalidFlags(v)) => assert_eq!(v.len(), 1),
            other => panic!("expected InvalidFlags, got {other:?}"),
        }
    }

    #[test]
    fn unresolved_names_are_bad_modules_not_codegen_panics() {
        // `main(a)` declares scalar `x` and array `buf`; the module has
        // global `g`. Each statement names something codegen cannot find.
        let at0 = || Expr::Const(0);
        let cases = [
            ("read", Stmt::Return(Expr::Var("ghost".into()))),
            ("write", Stmt::Assign(LValue::Var("ghost".into()), at0())),
            ("global read", Stmt::Return(Expr::Global("ghost".into()))),
            (
                "global write",
                Stmt::Assign(LValue::Global("ghost".into()), at0()),
            ),
            (
                "index",
                Stmt::Return(Expr::Index("ghost".into(), Box::new(at0()))),
            ),
            (
                "indexed write",
                Stmt::Assign(LValue::Index("ghost".into(), at0()), at0()),
            ),
            (
                "loop",
                Stmt::For {
                    var: "ghost".into(),
                    start: at0(),
                    end: Expr::Const(4),
                    step: 1,
                    body: vec![],
                },
            ),
            ("address", Stmt::Return(Expr::AddrOf("ghost".into()))),
            ("array as scalar", Stmt::Return(Expr::Var("buf".into()))),
            (
                "scalar as array",
                Stmt::Return(Expr::Index("x".into(), Box::new(at0()))),
            ),
            (
                "array as loop var",
                Stmt::For {
                    var: "buf".into(),
                    start: at0(),
                    end: Expr::Const(4),
                    step: 1,
                    body: vec![],
                },
            ),
            (
                "nested in a loop body",
                Stmt::While {
                    cond: Expr::Var("a".into()),
                    body: vec![Stmt::Assign(
                        LValue::Index("buf".into(), Expr::Var("ghost".into())),
                        at0(),
                    )],
                },
            ),
        ];
        let cc = Compiler::new(CompilerKind::Gcc);
        let module = |stmt: Stmt| {
            let mut f = FuncDef::new("main", vec!["a".into()], vec![stmt]);
            f.local("x").local_array("buf", 4);
            let mut m = Module::new("names");
            m.funcs.push(f);
            m.globals.push(Global {
                name: "g".into(),
                words: vec![7, 8],
            });
            m
        };
        for (what, stmt) in cases {
            match cc.compile_preset(&module(stmt), OptLevel::O0, Arch::X86) {
                Err(CompileError::BadModule(e)) => assert!(e.starts_with("main: "), "{what}: {e}"),
                other => panic!("{what}: expected BadModule, got {other:?}"),
            }
        }
        // Arrays resolve to an array local, else to a global.
        for stmt in [
            Stmt::Return(Expr::Index("g".into(), Box::new(Expr::Var("x".into())))),
            Stmt::Assign(LValue::Index("buf".into(), at0()), Expr::AddrOf("g".into())),
            Stmt::Return(Expr::AddrOf("buf".into())),
        ] {
            cc.compile_preset(&module(stmt), OptLevel::O0, Arch::X86)
                .expect("resolvable names compile");
        }
    }

    #[test]
    fn oversized_frames_and_param_lists_are_bad_modules_not_codegen_panics() {
        let cc = Compiler::new(CompilerKind::Gcc);
        let module = |params: usize, arrays: &[usize]| {
            let params = (0..params).map(|i| format!("p{i}")).collect();
            let mut f = FuncDef::new("main", params, vec![Stmt::Return(Expr::Const(0))]);
            for (i, &n) in arrays.iter().enumerate() {
                f.local_array(format!("buf{i}"), n);
            }
            let mut m = Module::new("frames");
            m.funcs.push(f);
            m
        };
        let huge = module(0, &[300_000_000, 300_000_000]);
        let over_cap = module(4, &[ast::MAX_FRAME_WORDS - 4, 1]);
        for (what, m) in [
            ("two 300M-word arrays", &huge),
            ("one word past the cap", &over_cap),
            ("five params", &module(5, &[])),
        ] {
            match cc.compile_preset(m, OptLevel::O0, Arch::X86) {
                Err(CompileError::BadModule(e)) => assert!(e.starts_with("main: "), "{what}: {e}"),
                other => panic!("{what}: expected BadModule, got {other:?}"),
            }
        }
        cc.compile_preset(
            &module(4, &[ast::MAX_FRAME_WORDS - 4]),
            OptLevel::O0,
            Arch::X86,
        )
        .expect("a frame at the cap compiles");
        // Inlining can grow a caller's frame past the cap after
        // validation: lowering such a frame wraps its offsets, never
        // panics.
        let eff = cc
            .check(&module(0, &[]), &cc.profile().preset(OptLevel::O0))
            .unwrap();
        cc.stage_lower(&huge, &eff, Arch::X86);
    }

    #[test]
    fn optimization_changes_code_structure() {
        let m = kitchen_sink();
        let cc = Compiler::new(CompilerKind::Gcc);
        let o0 = cc.compile_preset(&m, OptLevel::O0, Arch::X86).unwrap();
        let o3 = cc.compile_preset(&m, OptLevel::O3, Arch::X86).unwrap();
        // O3 must look substantially different: fewer or equal functions
        // post-inlining is not modelled (all kept), but instruction count,
        // block structure and bytes must shift.
        assert_ne!(o0.insn_count(), o3.insn_count());
        let c0 = binrep::encode_binary(&o0);
        let c3 = binrep::encode_binary(&o3);
        assert_ne!(c0, c3);
        // The NCD fitness signal: O3 is further from O0 than O1 is (§4.2).
        let o1 = cc.compile_preset(&m, OptLevel::O1, Arch::X86).unwrap();
        let c1 = binrep::encode_binary(&o1);
        let d01 = lzc::ncd(&c0, &c1);
        let d03 = lzc::ncd(&c0, &c3);
        assert!(d03 > d01, "ncd(O0,O1)={d01} ncd(O0,O3)={d03}");
    }

    #[test]
    fn jump_tables_flag_produces_tables() {
        let m = kitchen_sink();
        let cc = Compiler::new(CompilerKind::Gcc);
        let with = cc.compile_preset(&m, OptLevel::O2, Arch::X86).unwrap();
        let has_table = |b: &Binary| {
            b.functions.iter().any(|f| {
                f.cfg
                    .blocks
                    .iter()
                    .any(|b| matches!(b.term, binrep::Terminator::JumpTable { .. }))
            })
        };
        assert!(has_table(&with));
        let without = cc.compile_preset(&m, OptLevel::O0, Arch::X86).unwrap();
        assert!(!has_table(&without));
    }

    #[test]
    fn vectorize_flag_produces_vector_ops() {
        let m = kitchen_sink();
        let cc = Compiler::new(CompilerKind::Gcc);
        let o3 = cc.compile_preset(&m, OptLevel::O3, Arch::X86).unwrap();
        let hist = binrep::opcode_histogram(&o3);
        assert!(
            hist.contains_key("paddd") || hist.contains_key("pmulld"),
            "{hist:?}"
        );
        let o1 = cc.compile_preset(&m, OptLevel::O1, Arch::X86).unwrap();
        let hist1 = binrep::opcode_histogram(&o1);
        assert!(!hist1.contains_key("pmulld"));
    }

    #[test]
    fn tail_call_flag_hides_call_edges() {
        let m = kitchen_sink();
        let cc = Compiler::new(CompilerKind::Gcc);
        let o2 = cc.compile_preset(&m, OptLevel::O2, Arch::X86).unwrap();
        let tail_calls = o2
            .functions
            .iter()
            .flat_map(|f| f.cfg.blocks.iter())
            .filter(|b| matches!(b.term, binrep::Terminator::TailCall(_)))
            .count();
        assert!(tail_calls > 0, "expected tail calls at O2");
        // The static call graph at O2 misses edges O0 sees.
        let o0 = cc.compile_preset(&m, OptLevel::O0, Arch::X86).unwrap();
        let edges = |b: &Binary| -> usize { b.call_graph().values().map(Vec::len).sum() };
        assert!(edges(&o2) < edges(&o0));
    }

    #[test]
    fn presets_differ_pairwise_in_bytes() {
        let m = kitchen_sink();
        for kind in [CompilerKind::Gcc, CompilerKind::Llvm] {
            let cc = Compiler::new(kind);
            let encoded: Vec<Vec<u8>> = OptLevel::ALL
                .iter()
                .map(|&l| binrep::encode_binary(&cc.compile_preset(&m, l, Arch::X86).unwrap()))
                .collect();
            for i in 0..encoded.len() {
                for j in i + 1..encoded.len() {
                    assert_ne!(
                        encoded[i],
                        encoded[j],
                        "{kind}: {} == {}",
                        OptLevel::ALL[i],
                        OptLevel::ALL[j]
                    );
                }
            }
        }
    }

    #[test]
    fn compile_time_model_scales() {
        let m = kitchen_sink();
        let cc = Compiler::new(CompilerKind::Gcc);
        let o0 = cc.simulated_compile_seconds(m.size(), &cc.profile().preset(OptLevel::O0));
        let o3 = cc.simulated_compile_seconds(m.size(), &cc.profile().preset(OptLevel::O3));
        assert!(o3 > o0);
    }
}
