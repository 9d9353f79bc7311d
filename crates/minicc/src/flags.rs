//! Optimization flags, compiler profiles, presets, and constraints.
//!
//! Two compiler profiles are modelled — `GCC 10.2` and `LLVM 11.0` — each
//! exposing its own flag vocabulary (names taken from the real compilers,
//! with the paper's Figure 7 flags all present). A flag either drives one of
//! the ~25 genuinely implemented optimization [`Effect`]s or is a *filler*
//! flag that perturbs deterministic codegen style bits (the long tail of
//! real-world flags whose individual potency is small, cf. "94 other
//! flags" / "125 other flags" in Figure 7).
//!
//! The `-Ox` presets enable fewer than half of the available options,
//! mirroring the paper's observation (§1) that `-O3` covers <48% of GCC's
//! option space — the gap BinTuner exploits.

use satz::{Constraint, ConstraintSet};
use serde::{Deserialize, Serialize};

/// Which compiler family a profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompilerKind {
    /// GCC 10.2 model.
    Gcc,
    /// LLVM 11.0 model.
    Llvm,
}

impl CompilerKind {
    /// Display name with modelled version.
    pub fn name(self) -> &'static str {
        match self {
            CompilerKind::Gcc => "GCC 10.2",
            CompilerKind::Llvm => "LLVM 11.0",
        }
    }

    /// Stable one-byte tag used in persistent cache keys. Unlike the
    /// discriminant of `as u8`, this is part of the on-disk format: the
    /// assignments below must never be reordered or reused.
    #[inline]
    pub fn stable_id(self) -> u8 {
        match self {
            CompilerKind::Gcc => 0,
            CompilerKind::Llvm => 1,
        }
    }

    /// Inverse of [`CompilerKind::stable_id`]; `None` for an unassigned
    /// tag.
    pub fn from_stable_id(id: u8) -> Option<CompilerKind> {
        [CompilerKind::Gcc, CompilerKind::Llvm]
            .into_iter()
            .find(|k| k.stable_id() == id)
    }
}

impl std::fmt::Display for CompilerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Default optimization levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// No optimization.
    O0,
    /// Basic optimization.
    O1,
    /// Standard optimization.
    O2,
    /// Aggressive optimization.
    O3,
    /// Optimize for size.
    Os,
}

impl OptLevel {
    /// All levels.
    pub const ALL: [OptLevel; 5] = [
        OptLevel::O0,
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::Os,
    ];

    /// Display name, e.g. `"-O2"`.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
            OptLevel::O3 => "-O3",
            OptLevel::Os => "-Os",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The implemented optimization behaviours a flag can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effect {
    /// Register allocation: promote stack slots/params to registers.
    RegAlloc,
    /// AST constant folding.
    ConstFold,
    /// Local common-subexpression elimination (value numbering).
    Cse,
    /// Inline small single-exit functions.
    InlineSmall,
    /// Inline all eligible single-exit functions up to a larger threshold.
    InlineFunctions,
    /// Partial inlining of early-exit functions.
    PartialInline,
    /// Tail-call optimization: `call; ret` → jump.
    TailCalls,
    /// Loop unrolling.
    Unroll,
    /// Loop peeling.
    Peel,
    /// Loop unswitching.
    Unswitch,
    /// Unroll-and-jam (outer-loop unrolling).
    UnrollAndJam,
    /// Loop vectorization (element-wise loops → SIMD).
    VectorizeLoops,
    /// SLP vectorization (straight-line adjacent stores → SIMD).
    VectorizeSlp,
    /// Both vectorizers (alias flag).
    VectorizeBoth,
    /// Dense switch lowering via jump tables.
    JumpTables,
    /// If-conversion to branch-free `cmov`/`setcc` forms.
    IfConvert,
    /// Aggressive branch-free forms (`sbb` tricks) on top of if-conversion.
    IfConvert2,
    /// Counted loops via the `loop` instruction.
    BranchCountReg,
    /// Peephole substitutions.
    Peephole,
    /// Strength reduction (division/multiplication magic).
    StrengthReduce,
    /// Basic-block layout reordering.
    ReorderBlocks,
    /// Hot/cold block partitioning (stronger reordering).
    ReorderBlocksPartition,
    /// Function layout reordering.
    ReorderFunctions,
    /// Loop header alignment padding.
    AlignLoops,
    /// Function alignment padding.
    AlignFunctions,
    /// Constant pool deduplication.
    MergeConstants,
    /// Aggressive constant pool deduplication.
    MergeAllConstants,
    /// Branch-target merging / jump threading (block merging).
    MergeBlocks,
    /// Expand library builtins (`strcpy` of constants) inline.
    BuiltinExpand,
    /// Loop-invariant code motion.
    Licm,
    /// Loop distribution of recognizable patterns.
    LoopDistribute,
    /// Codegen style perturbation with the given bit index (filler flags).
    Style(u8),
}

/// One named flag of a compiler profile.
#[derive(Debug, Clone, Copy)]
pub struct FlagDef {
    /// Command-line name, e.g. `"-funroll-loops"`.
    pub name: &'static str,
    /// Behaviour the flag drives.
    pub effect: Effect,
}

macro_rules! flags {
    ($(($name:literal, $effect:expr)),* $(,)?) => {
        vec![$(FlagDef { name: $name, effect: $effect }),*]
    };
}

fn gcc_flag_defs() -> Vec<FlagDef> {
    use Effect::*;
    let mut v = flags![
        // ---- implemented effects ----
        ("-fomit-frame-pointer", RegAlloc),
        ("-ftree-ccp", ConstFold),
        ("-fgcse", Cse),
        ("-finline-small-functions", InlineSmall),
        ("-finline-functions", InlineFunctions),
        ("-fpartial-inlining", PartialInline),
        ("-foptimize-sibling-calls", TailCalls),
        ("-funroll-loops", Unroll),
        ("-fpeel-loops", Peel),
        ("-funswitch-loops", Unswitch),
        ("-floop-unroll-and-jam", UnrollAndJam),
        ("-ftree-loop-vectorize", VectorizeLoops),
        ("-ftree-slp-vectorize", VectorizeSlp),
        ("-ftree-vectorize", VectorizeBoth),
        ("-fjump-tables", JumpTables),
        ("-fif-conversion", IfConvert),
        ("-fif-conversion2", IfConvert2),
        ("-fbranch-count-reg", BranchCountReg),
        ("-fpeephole2", Peephole),
        ("-fexpensive-optimizations", StrengthReduce),
        ("-freorder-blocks", ReorderBlocks),
        ("-freorder-blocks-and-partition", ReorderBlocksPartition),
        ("-freorder-functions", ReorderFunctions),
        ("-falign-loops", AlignLoops),
        ("-falign-functions", AlignFunctions),
        ("-fmerge-constants", MergeConstants),
        ("-fmerge-all-constants", MergeAllConstants),
        ("-fcrossjumping", MergeBlocks),
        ("-fbuiltin", BuiltinExpand),
        ("-fmove-loop-invariants", Licm),
        ("-ftree-loop-distribute-patterns", LoopDistribute),
    ];
    // ---- filler flags: real GCC names, style-bit effects ----
    const FILLER: &[&str] = &[
        "-fauto-inc-dec",
        "-fbranch-probabilities",
        "-fcaller-saves",
        "-fcode-hoisting",
        "-fcombine-stack-adjustments",
        "-fcompare-elim",
        "-fcprop-registers",
        "-fdce",
        "-fdefer-pop",
        "-fdevirtualize",
        "-fdse",
        "-fforward-propagate",
        "-fgcse-after-reload",
        "-fgcse-las",
        "-fgcse-lm",
        "-fgcse-sm",
        "-fhoist-adjacent-loads",
        "-findirect-inlining",
        "-fipa-bit-cp",
        "-fipa-cp",
        "-fipa-cp-clone",
        "-fipa-icf",
        "-fipa-modref",
        "-fipa-profile",
        "-fipa-pta",
        "-fipa-pure-const",
        "-fipa-ra",
        "-fipa-reference",
        "-fipa-sra",
        "-fira-hoist-pressure",
        "-fisolate-erroneous-paths-dereference",
        "-fivopts",
        "-flive-range-shrinkage",
        "-floop-interchange",
        "-floop-nest-optimize",
        "-flra-remat",
        "-fmodulo-sched",
        "-foptimize-strlen",
        "-fpredictive-commoning",
        "-fprefetch-loop-arrays",
        "-free",
        "-frename-registers",
        "-freschedule-modulo-scheduled-loops",
        "-fsched-critical-path-heuristic",
        "-fsched-dep-count-heuristic",
        "-fsched-interblock",
        "-fsched-pressure",
        "-fsched-spec",
        "-fschedule-insns",
        "-fschedule-insns2",
        "-fsection-anchors",
        "-fsel-sched-pipelining",
        "-fselective-scheduling",
        "-fshrink-wrap",
        "-fsplit-loops",
        "-fsplit-paths",
        "-fsplit-wide-types",
        "-fssa-phiopt",
        "-fstdarg-opt",
        "-fstore-merging",
        "-fstrict-aliasing",
        "-fthread-jumps",
        "-ftree-bit-ccp",
        "-ftree-builtin-call-dce",
        "-ftree-copy-prop",
        "-ftree-dce",
        "-ftree-dominator-opts",
        "-ftree-dse",
        "-ftree-fre",
        "-ftree-loop-im",
        "-ftree-loop-ivcanon",
        "-ftree-partial-pre",
        "-ftree-pre",
        "-ftree-pta",
        "-ftree-sink",
        "-ftree-slsr",
        "-ftree-sra",
        "-ftree-switch-conversion",
        "-ftree-tail-merge",
        "-ftree-ter",
        "-ftree-vrp",
        "-funroll-all-loops",
        "-fvect-cost-model",
        "-fversion-loops-for-strides",
        "-fweb",
        "-fwrapv",
        "-fdelete-null-pointer-checks",
        "-fdevirtualize-speculatively",
        "-fhoist-pressure",
        "-fif-conversion-weak",
        "-fipa-stack-alignment",
        "-fira-algorithm-priority",
        "-fira-region-all",
        "-fjump-tables-density",
        "-flimit-function-alignment",
        "-floop-block",
        "-floop-strip-mine",
        "-fmath-errno-opt",
        "-fmin-function-alignment",
        "-fpack-struct-opt",
        "-fpeephole",
        "-fplt-opt",
        "-fsched-group-heuristic",
        "-fsched-last-insn-heuristic",
        "-fsched-rank-heuristic",
        "-fshort-enums-opt",
        "-fsplit-ivs-in-unroller",
        "-fvariable-expansion-in-unroller",
    ];
    for (i, name) in FILLER.iter().enumerate() {
        v.push(FlagDef {
            name,
            effect: Style((i % 24) as u8),
        });
    }
    v
}

fn llvm_flag_defs() -> Vec<FlagDef> {
    use Effect::*;
    let mut v = flags![
        // ---- implemented effects (names per paper Figure 7 / clang) ----
        ("-fomit-frame-pointer", RegAlloc),
        ("-mllvm:sccp", ConstFold),
        ("-mllvm:early-cse", Cse),
        ("-finline-hint-functions", InlineSmall),
        ("-finline-functions", InlineFunctions),
        ("-mllvm:partial-inliner", PartialInline),
        ("-foptimize-sibling-calls", TailCalls),
        ("-fno-escaping-block-tail-calls", TailCalls),
        ("-funroll-loops", Unroll),
        ("-mllvm:loop-peel", Peel),
        ("-mllvm:loop-unswitch", Unswitch),
        ("-mllvm:unroll-and-jam", UnrollAndJam),
        ("-fvectorize", VectorizeLoops),
        ("-fslp-vectorize", VectorizeSlp),
        ("-ftree-vectorize", VectorizeBoth),
        ("-fjump-tables", JumpTables),
        ("-mllvm:simplifycfg-hoist", IfConvert),
        ("-mllvm:select-opt", IfConvert2),
        ("-mllvm:hardware-loops", BranchCountReg),
        ("-mllvm:machine-combiner", Peephole),
        ("-mllvm:slsr", StrengthReduce),
        ("-mllvm:block-placement", ReorderBlocks),
        ("-mllvm:hot-cold-split", ReorderBlocksPartition),
        ("-mllvm:func-layout", ReorderFunctions),
        ("-malign-loops", AlignLoops),
        ("-malign-functions", AlignFunctions),
        ("-fmerge-constants", MergeConstants),
        ("-fmerge-all-constants", MergeAllConstants),
        ("-mllvm:simplifycfg", MergeBlocks),
        ("-fbuiltin", BuiltinExpand),
        ("-mllvm:licm", Licm),
        ("-mllvm:loop-idiom", LoopDistribute),
    ];
    const FILLER: &[&str] = &[
        "-mlong-calls",
        "-mstackrealign",
        "-fwrapv",
        "-freg-struct-return",
        "-fpcc-struct-return",
        "-faddrsig",
        "-fstrict-vtable-pointers",
        "-fstrict-return",
        "-fforce-emit-vtables",
        "-mllvm:adce",
        "-mllvm:bdce",
        "-mllvm:dse",
        "-mllvm:gvn",
        "-mllvm:indvars",
        "-mllvm:instcombine",
        "-mllvm:jump-threading",
        "-mllvm:lcssa",
        "-mllvm:loop-deletion",
        "-mllvm:loop-reduce",
        "-mllvm:loop-rotate",
        "-mllvm:loop-simplify",
        "-mllvm:memcpyopt",
        "-mllvm:mldst-motion",
        "-mllvm:reassociate",
        "-mllvm:sink",
        "-mllvm:sroa",
        "-mllvm:tailcallelim",
        "-mllvm:aggressive-instcombine",
        "-mllvm:alignment-from-assumptions",
        "-mllvm:argpromotion",
        "-mllvm:attributor",
        "-mllvm:barrier",
        "-mllvm:break-crit-edges",
        "-mllvm:called-value-propagation",
        "-mllvm:callsite-splitting",
        "-mllvm:constmerge",
        "-mllvm:correlated-propagation",
        "-mllvm:deadargelim",
        "-mllvm:div-rem-pairs",
        "-mllvm:elim-avail-extern",
        "-mllvm:flattencfg",
        "-mllvm:float2int",
        "-mllvm:globaldce",
        "-mllvm:globalopt",
        "-mllvm:globalsplit",
        "-mllvm:guard-widening",
        "-mllvm:indirectbr-expand",
        "-mllvm:infer-address-spaces",
        "-mllvm:inferattrs",
        "-mllvm:inject-tli-mappings",
        "-mllvm:instnamer",
        "-mllvm:instsimplify",
        "-mllvm:irce",
        "-mllvm:lower-constant-intrinsics",
        "-mllvm:lower-expect",
        "-mllvm:lower-guard-intrinsic",
        "-mllvm:lower-matrix-intrinsics",
        "-mllvm:lower-widenable-condition",
        "-mllvm:loweratomic",
        "-mllvm:lowerinvoke",
        "-mllvm:lowerswitch",
        "-mllvm:mem2reg",
        "-mllvm:mergefunc",
        "-mllvm:mergeicmps",
        "-mllvm:mergereturn",
        "-mllvm:nary-reassociate",
        "-mllvm:newgvn",
        "-mllvm:pgo-memop-opt",
        "-mllvm:post-inline-ee-instrument",
        "-mllvm:reg2mem",
        "-mllvm:rpo-functionattrs",
        "-mllvm:scalarizer",
        "-mllvm:separate-const-offset-from-gep",
        "-mllvm:speculative-execution",
        "-mllvm:strip-dead-prototypes",
        "-mllvm:structurizecfg",
        "-mllvm:tbaa",
        "-mllvm:vector-combine",
    ];
    for (i, name) in FILLER.iter().enumerate() {
        v.push(FlagDef {
            name,
            effect: Style(((i + 7) % 24) as u8),
        });
    }
    v
}

/// A compiler profile: its flag vocabulary, constraints, and presets.
#[derive(Debug, Clone)]
pub struct CompilerProfile {
    kind: CompilerKind,
    flags: Vec<FlagDef>,
    constraints: ConstraintSet,
}

impl CompilerProfile {
    /// Build the profile for a compiler family.
    pub fn new(kind: CompilerKind) -> CompilerProfile {
        let flags = match kind {
            CompilerKind::Gcc => gcc_flag_defs(),
            CompilerKind::Llvm => llvm_flag_defs(),
        };
        let mut p = CompilerProfile {
            kind,
            flags,
            constraints: ConstraintSet::new(0),
        };
        p.constraints = p.build_constraints();
        p
    }

    fn build_constraints(&self) -> ConstraintSet {
        let mut cs = ConstraintSet::new(self.flags.len());
        let idx = |name: &str| self.flag_index(name);
        let mut req = |a: &str, b: &str| {
            if let (Some(a), Some(b)) = (idx(a), idx(b)) {
                cs.add(Constraint::Requires(a, b));
            }
        };
        match self.kind {
            CompilerKind::Gcc => {
                req("-fpartial-inlining", "-finline-functions");
                req("-floop-unroll-and-jam", "-funroll-loops");
                req("-funroll-all-loops", "-funroll-loops");
                req("-freorder-blocks-and-partition", "-freorder-blocks");
                req("-fmerge-all-constants", "-fmerge-constants");
                req("-fif-conversion2", "-fif-conversion");
                req("-fgcse-after-reload", "-fgcse");
                req("-fgcse-las", "-fgcse");
                req("-fgcse-lm", "-fgcse");
                req("-fgcse-sm", "-fgcse");
                req("-ftree-loop-distribute-patterns", "-ftree-loop-im");
                req("-fipa-cp-clone", "-fipa-cp");
                req("-fsel-sched-pipelining", "-fselective-scheduling");
                req("-fsched-interblock", "-fschedule-insns");
                req("-fsched-pressure", "-fschedule-insns");
                req("-fsched-spec", "-fschedule-insns");
                req("-fsplit-ivs-in-unroller", "-funroll-loops");
                req("-fvariable-expansion-in-unroller", "-funroll-loops");
                // Adverse interactions documented for GCC 10:
                let confl = |a: &str, b: &str, cs: &mut ConstraintSet| {
                    if let (Some(a), Some(b)) = (self.flag_index(a), self.flag_index(b)) {
                        cs.add(Constraint::Conflicts(a, b));
                    }
                };
                confl("-fselective-scheduling", "-fschedule-insns2", &mut cs);
                confl(
                    "-freorder-blocks-and-partition",
                    "-ftree-tail-merge",
                    &mut cs,
                );
                confl("-flive-range-shrinkage", "-fira-region-all", &mut cs);
            }
            CompilerKind::Llvm => {
                req("-mllvm:partial-inliner", "-finline-functions");
                req("-mllvm:unroll-and-jam", "-funroll-loops");
                req("-fmerge-all-constants", "-fmerge-constants");
                req("-mllvm:select-opt", "-mllvm:simplifycfg-hoist");
                req("-mllvm:hot-cold-split", "-mllvm:block-placement");
                req("-mllvm:gvn", "-mllvm:early-cse");
                req("-mllvm:newgvn", "-mllvm:gvn");
                req("-mllvm:loop-unswitch", "-mllvm:loop-simplify");
                req("-mllvm:loop-peel", "-mllvm:loop-simplify");
                req("-mllvm:unroll-and-jam", "-mllvm:loop-simplify");
                let confl = |a: &str, b: &str, cs: &mut ConstraintSet| {
                    if let (Some(a), Some(b)) = (self.flag_index(a), self.flag_index(b)) {
                        cs.add(Constraint::Conflicts(a, b));
                    }
                };
                confl("-mllvm:reg2mem", "-mllvm:mem2reg", &mut cs);
                confl("-mllvm:lowerswitch", "-fjump-tables", &mut cs);
                confl("-mllvm:structurizecfg", "-mllvm:flattencfg", &mut cs);
                // struct-return conventions are mutually exclusive.
                if let (Some(a), Some(b)) = (
                    self.flag_index("-freg-struct-return"),
                    self.flag_index("-fpcc-struct-return"),
                ) {
                    cs.add(Constraint::AtMostOne(vec![a, b]));
                }
            }
        }
        cs
    }

    /// Compiler family.
    pub fn kind(&self) -> CompilerKind {
        self.kind
    }

    /// All flags, in index order.
    pub fn flags(&self) -> &[FlagDef] {
        &self.flags
    }

    /// Number of flags.
    pub fn n_flags(&self) -> usize {
        self.flags.len()
    }

    /// Index of a flag by name.
    pub fn flag_index(&self, name: &str) -> Option<usize> {
        self.flags.iter().position(|f| f.name == name)
    }

    /// The flag constraint set.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// The flag vector for a default `-Ox` preset.
    pub fn preset(&self, level: OptLevel) -> Vec<bool> {
        let mut v = vec![false; self.flags.len()];
        let mut on = |name: &str| {
            if let Some(i) = self.flag_index(name) {
                v[i] = true;
            }
        };
        let o1: &[&str] = match self.kind {
            CompilerKind::Gcc => &[
                "-fomit-frame-pointer",
                "-ftree-ccp",
                "-fdce",
                "-fdefer-pop",
                "-ftree-dce",
                "-ftree-copy-prop",
                "-ftree-ter",
                "-fcombine-stack-adjustments",
                "-fcompare-elim",
                "-fcprop-registers",
                "-fforward-propagate",
                "-fmerge-constants",
                "-fmove-loop-invariants",
                "-fif-conversion",
                "-fbranch-count-reg",
                "-ftree-fre",
                "-ftree-sink",
                "-ftree-bit-ccp",
                "-fbuiltin",
            ],
            CompilerKind::Llvm => &[
                "-fomit-frame-pointer",
                "-mllvm:sccp",
                "-mllvm:early-cse",
                "-mllvm:instcombine",
                "-mllvm:mem2reg",
                "-mllvm:sroa",
                "-mllvm:simplifycfg",
                "-mllvm:loop-simplify",
                "-mllvm:licm",
                "-fmerge-constants",
                "-fbuiltin",
                "-mllvm:lower-expect",
            ],
        };
        let o2: &[&str] = match self.kind {
            CompilerKind::Gcc => &[
                "-finline-small-functions",
                "-foptimize-sibling-calls",
                "-fgcse",
                "-fjump-tables",
                "-fif-conversion2",
                "-fpeephole2",
                "-fexpensive-optimizations",
                "-freorder-blocks",
                "-freorder-functions",
                "-fcrossjumping",
                "-falign-loops",
                "-falign-functions",
                "-fthread-jumps",
                "-ftree-pre",
                "-ftree-vrp",
                "-fipa-cp",
                "-fipa-icf",
                "-fdevirtualize",
                "-fhoist-adjacent-loads",
                "-fstore-merging",
                "-ftree-switch-conversion",
                "-ftree-tail-merge",
                "-fcode-hoisting",
                "-fschedule-insns2",
                "-fshrink-wrap",
                "-fstrict-aliasing",
            ],
            CompilerKind::Llvm => &[
                "-finline-hint-functions",
                "-foptimize-sibling-calls",
                "-fjump-tables",
                "-mllvm:simplifycfg-hoist",
                "-mllvm:machine-combiner",
                "-mllvm:slsr",
                "-mllvm:block-placement",
                "-malign-loops",
                "-malign-functions",
                "-mllvm:gvn",
                "-mllvm:jump-threading",
                "-mllvm:correlated-propagation",
                "-mllvm:dse",
                "-mllvm:adce",
                "-mllvm:memcpyopt",
                "-mllvm:reassociate",
                "-mllvm:loop-rotate",
                "-mllvm:loop-idiom",
                "-mllvm:loop-deletion",
                "-mllvm:tailcallelim",
                "-mllvm:select-opt",
            ],
        };
        let o3: &[&str] = match self.kind {
            CompilerKind::Gcc => &[
                "-finline-functions",
                "-fpartial-inlining",
                "-funswitch-loops",
                "-fpeel-loops",
                "-ftree-vectorize",
                "-ftree-loop-vectorize",
                "-ftree-slp-vectorize",
                "-fgcse-after-reload",
                "-fipa-cp-clone",
                "-fsplit-paths",
                "-fsplit-loops",
                "-ftree-partial-pre",
                "-ftree-loop-im",
                "-ftree-loop-distribute-patterns",
                "-fpredictive-commoning",
                "-fvect-cost-model",
            ],
            CompilerKind::Llvm => &[
                "-finline-functions",
                "-fvectorize",
                "-fslp-vectorize",
                "-ftree-vectorize",
                "-mllvm:loop-unswitch",
                "-mllvm:loop-peel",
                "-mllvm:aggressive-instcombine",
                "-mllvm:callsite-splitting",
                "-mllvm:argpromotion",
                "-mllvm:newgvn",
            ],
        };
        // -Os: O2 without alignment/size-increasing options, plus
        // size-oriented choices.
        let os_extra: &[&str] = match self.kind {
            CompilerKind::Gcc => &["-fmerge-all-constants", "-fbranch-count-reg"],
            CompilerKind::Llvm => &[
                "-fmerge-all-constants",
                "-mllvm:hardware-loops",
                "-mllvm:mergefunc",
            ],
        };
        let os_removed: &[&str] = &[
            "-falign-loops",
            "-falign-functions",
            "-malign-loops",
            "-malign-functions",
            "-fjump-tables",
            "-freorder-functions",
        ];
        match level {
            OptLevel::O0 => {}
            OptLevel::O1 => o1.iter().for_each(|f| on(f)),
            OptLevel::O2 => {
                o1.iter().for_each(|f| on(f));
                o2.iter().for_each(|f| on(f));
            }
            OptLevel::O3 => {
                o1.iter().for_each(|f| on(f));
                o2.iter().for_each(|f| on(f));
                o3.iter().for_each(|f| on(f));
            }
            OptLevel::Os => {
                o1.iter().for_each(|f| on(f));
                o2.iter().for_each(|f| on(f));
                os_extra.iter().for_each(|f| on(f));
                for name in os_removed {
                    if let Some(i) = self.flag_index(name) {
                        v[i] = false;
                    }
                }
            }
        }
        debug_assert!(
            self.constraints.is_valid(&v),
            "preset {level} violates constraints"
        );
        v
    }

    /// Names of the flags enabled in a vector.
    pub fn enabled_names(&self, flags: &[bool]) -> Vec<&'static str> {
        self.flags
            .iter()
            .zip(flags)
            .filter(|(_, &on)| on)
            .map(|(f, _)| f.name)
            .collect()
    }

    /// Jaccard index between two flag vectors (|A∩B| / |A∪B|), the metric
    /// Figure 7 reports between `-O3` and BinTuner's output.
    pub fn jaccard(&self, a: &[bool], b: &[bool]) -> f64 {
        let inter = a.iter().zip(b).filter(|(&x, &y)| x && y).count();
        let union = a.iter().zip(b).filter(|(&x, &y)| x || y).count();
        if union == 0 {
            return 1.0;
        }
        inter as f64 / union as f64
    }
}

/// Resolved optimization configuration consumed by codegen and passes.
///
/// `Eq + Hash` so it can key memoization: the emitted binary is a pure
/// function of `(module, effect config, arch)`, which the fitness engine
/// exploits to avoid recompiling semantically equivalent flag vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct EffectConfig {
    /// See [`Effect::RegAlloc`].
    pub regalloc: bool,
    /// See [`Effect::ConstFold`].
    pub const_fold: bool,
    /// See [`Effect::Cse`].
    pub cse: bool,
    /// Inlining threshold in AST nodes (0 = no inlining).
    pub inline_threshold: usize,
    /// See [`Effect::PartialInline`].
    pub partial_inline: bool,
    /// See [`Effect::TailCalls`].
    pub tail_calls: bool,
    /// Unroll factor (1 = off).
    pub unroll_factor: usize,
    /// See [`Effect::Peel`].
    pub peel: bool,
    /// See [`Effect::Unswitch`].
    pub unswitch: bool,
    /// See [`Effect::UnrollAndJam`].
    pub unroll_and_jam: bool,
    /// See [`Effect::VectorizeLoops`].
    pub vectorize_loops: bool,
    /// See [`Effect::VectorizeSlp`].
    pub vectorize_slp: bool,
    /// See [`Effect::JumpTables`].
    pub jump_tables: bool,
    /// See [`Effect::IfConvert`].
    pub if_convert: bool,
    /// See [`Effect::IfConvert2`].
    pub if_convert2: bool,
    /// See [`Effect::BranchCountReg`].
    pub branch_count_reg: bool,
    /// See [`Effect::Peephole`].
    pub peephole: bool,
    /// See [`Effect::StrengthReduce`].
    pub strength_reduce: bool,
    /// See [`Effect::ReorderBlocks`].
    pub reorder_blocks: bool,
    /// See [`Effect::ReorderBlocksPartition`].
    pub reorder_partition: bool,
    /// See [`Effect::ReorderFunctions`].
    pub reorder_functions: bool,
    /// Loop alignment padding bytes (0 = off).
    pub align_loops: u8,
    /// Function alignment padding bytes (0 = off).
    pub align_functions: u8,
    /// See [`Effect::MergeConstants`].
    pub merge_constants: bool,
    /// See [`Effect::MergeAllConstants`].
    pub merge_all_constants: bool,
    /// See [`Effect::MergeBlocks`].
    pub merge_blocks: bool,
    /// See [`Effect::BuiltinExpand`].
    pub builtin_expand: bool,
    /// See [`Effect::Licm`].
    pub licm: bool,
    /// See [`Effect::LoopDistribute`].
    pub loop_distribute: bool,
    /// Style perturbation bits from filler flags.
    pub style_bits: u64,
}

impl EffectConfig {
    /// Resolve a flag vector against a profile.
    ///
    /// # Panics
    ///
    /// Panics if `flags.len()` doesn't match the profile.
    pub fn from_flags(profile: &CompilerProfile, flags: &[bool]) -> EffectConfig {
        assert_eq!(flags.len(), profile.n_flags());
        let mut c = EffectConfig {
            unroll_factor: 1,
            ..Default::default()
        };
        for (def, &on) in profile.flags().iter().zip(flags) {
            if !on {
                continue;
            }
            match def.effect {
                Effect::RegAlloc => c.regalloc = true,
                Effect::ConstFold => c.const_fold = true,
                Effect::Cse => c.cse = true,
                Effect::InlineSmall => c.inline_threshold = c.inline_threshold.max(12),
                Effect::InlineFunctions => c.inline_threshold = c.inline_threshold.max(48),
                Effect::PartialInline => c.partial_inline = true,
                Effect::TailCalls => c.tail_calls = true,
                Effect::Unroll => c.unroll_factor = c.unroll_factor.max(4),
                Effect::Peel => c.peel = true,
                Effect::Unswitch => c.unswitch = true,
                Effect::UnrollAndJam => c.unroll_and_jam = true,
                Effect::VectorizeLoops => c.vectorize_loops = true,
                Effect::VectorizeSlp => c.vectorize_slp = true,
                Effect::VectorizeBoth => {
                    c.vectorize_loops = true;
                    c.vectorize_slp = true;
                }
                Effect::JumpTables => c.jump_tables = true,
                Effect::IfConvert => c.if_convert = true,
                Effect::IfConvert2 => c.if_convert2 = true,
                Effect::BranchCountReg => c.branch_count_reg = true,
                Effect::Peephole => c.peephole = true,
                Effect::StrengthReduce => c.strength_reduce = true,
                Effect::ReorderBlocks => c.reorder_blocks = true,
                Effect::ReorderBlocksPartition => c.reorder_partition = true,
                Effect::ReorderFunctions => c.reorder_functions = true,
                Effect::AlignLoops => c.align_loops = 8,
                Effect::AlignFunctions => c.align_functions = 16,
                Effect::MergeConstants => c.merge_constants = true,
                Effect::MergeAllConstants => {
                    c.merge_constants = true;
                    c.merge_all_constants = true;
                }
                Effect::MergeBlocks => c.merge_blocks = true,
                Effect::BuiltinExpand => c.builtin_expand = true,
                Effect::Licm => c.licm = true,
                Effect::LoopDistribute => c.loop_distribute = true,
                Effect::Style(bit) => c.style_bits |= 1 << (bit % 24),
            }
        }
        c
    }

    /// Whether a style bit is set (filler-flag perturbations).
    pub fn style(&self, bit: u8) -> bool {
        self.style_bits & (1 << (bit % 24)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_ids_are_pinned_and_invert() {
        assert_eq!(CompilerKind::Gcc.stable_id(), 0);
        assert_eq!(CompilerKind::Llvm.stable_id(), 1);
        for kind in [CompilerKind::Gcc, CompilerKind::Llvm] {
            assert_eq!(CompilerKind::from_stable_id(kind.stable_id()), Some(kind));
        }
        assert_eq!(CompilerKind::from_stable_id(7), None);
    }

    #[test]
    fn profiles_have_paper_scale_flag_counts() {
        let gcc = CompilerProfile::new(CompilerKind::Gcc);
        let llvm = CompilerProfile::new(CompilerKind::Llvm);
        assert!(gcc.n_flags() >= 130, "{}", gcc.n_flags());
        assert!(llvm.n_flags() >= 100, "{}", llvm.n_flags());
    }

    #[test]
    fn flag_names_are_unique() {
        for kind in [CompilerKind::Gcc, CompilerKind::Llvm] {
            let p = CompilerProfile::new(kind);
            let mut names: Vec<_> = p.flags().iter().map(|f| f.name).collect();
            names.sort();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "{kind}");
        }
    }

    #[test]
    fn presets_are_valid_and_monotone() {
        for kind in [CompilerKind::Gcc, CompilerKind::Llvm] {
            let p = CompilerProfile::new(kind);
            let count = |l: OptLevel| p.preset(l).iter().filter(|&&b| b).count();
            assert_eq!(count(OptLevel::O0), 0);
            assert!(count(OptLevel::O1) < count(OptLevel::O2));
            assert!(count(OptLevel::O2) < count(OptLevel::O3));
            for l in OptLevel::ALL {
                assert!(p.constraints().is_valid(&p.preset(l)), "{kind} {l}");
            }
        }
    }

    #[test]
    fn o3_enables_less_than_half_of_all_options() {
        // Paper §1: "-O3 only accounts for less than 48% of all available
        // options" — the gap BinTuner explores.
        for kind in [CompilerKind::Gcc, CompilerKind::Llvm] {
            let p = CompilerProfile::new(kind);
            let o3 = p.preset(OptLevel::O3).iter().filter(|&&b| b).count();
            assert!(
                (o3 as f64) < 0.48 * p.n_flags() as f64,
                "{kind}: {o3}/{}",
                p.n_flags()
            );
        }
    }

    #[test]
    fn effect_resolution() {
        let p = CompilerProfile::new(CompilerKind::Gcc);
        let mut flags = vec![false; p.n_flags()];
        flags[p.flag_index("-funroll-loops").unwrap()] = true;
        flags[p.flag_index("-ftree-vectorize").unwrap()] = true;
        flags[p.flag_index("-finline-functions").unwrap()] = true;
        let c = EffectConfig::from_flags(&p, &flags);
        assert_eq!(c.unroll_factor, 4);
        assert!(c.vectorize_loops && c.vectorize_slp);
        assert_eq!(c.inline_threshold, 48);
        assert!(!c.jump_tables);
    }

    #[test]
    fn jaccard_index() {
        let p = CompilerProfile::new(CompilerKind::Gcc);
        let o3 = p.preset(OptLevel::O3);
        assert!((p.jaccard(&o3, &o3) - 1.0).abs() < 1e-12);
        let o1 = p.preset(OptLevel::O1);
        let j = p.jaccard(&o3, &o1);
        assert!(j > 0.0 && j < 1.0);
    }

    #[test]
    fn os_differs_from_o2_and_o3() {
        for kind in [CompilerKind::Gcc, CompilerKind::Llvm] {
            let p = CompilerProfile::new(kind);
            let os = p.preset(OptLevel::Os);
            assert_ne!(os, p.preset(OptLevel::O2), "{kind}");
            assert_ne!(os, p.preset(OptLevel::O3), "{kind}");
        }
    }
}
