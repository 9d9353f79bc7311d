//! The staged pipeline's byte-identity contract, pinned corpus-wide.
//!
//! `Compiler::compile` is now the composition of three explicit stages
//! (`stage_ast` → `stage_lower` → `stage_mir`), and the fitness engine
//! caches the stage-1/stage-2 artifacts under their
//! [`minicc::StageKeys`] projections. That is only sound if two
//! invariants hold for every flag vector:
//!
//! 1. **Staged == monolithic**: driving the stages by hand produces the
//!    byte-identical `Binary` that `Compiler::compile` produces.
//! 2. **Projection completeness**: a stage's output depends *only* on
//!    the fields in its stage key — so reusing an artifact compiled
//!    under a different `EffectConfig` with an equal stage digest (a
//!    *warm* artifact cache) still yields byte-identical output.
//!
//! Invariant 2 is the one a routing mistake in `StageKeys::project`
//! would break (e.g. a field read by `mir_opt` but projected only into
//! the AST key): the exhaustive destructuring guarantees every field is
//! routed *somewhere*, and this suite is what proves it is routed to
//! every stage that actually reads it. Run over the full corpus, both
//! compiler profiles, every preset, and seeded random repaired flag
//! vectors, with the warm path reusing artifacts across vectors exactly
//! the way the engine's tier-0 cache does.
//!
//! Both invariants are differentials, so a change that moves the staged
//! and the monolithic output together would pass them. Each corpus sweep
//! therefore also folds every binary it compiles (and, for the GCC
//! presets, each preset's NCD against the module's `-O0` binary) into one
//! digest per compiler profile, checked against a committed value.

use binrep::Arch;
use minicc::{Compiler, CompilerKind, EffectConfig, OptLevel, StableHasher, StageKeys};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::Arc;

/// A test double of the engine's tier-0 artifact cache: memoized
/// stage-1/stage-2 artifacts keyed exactly as the engine keys them.
#[derive(Default)]
struct ArtifactMemo {
    ast: HashMap<u128, Arc<minicc::ast::Module>>,
    lower: HashMap<(u128, u128), Arc<binrep::Binary>>,
    /// Times a stage-1 or stage-2 artifact was actually served from the
    /// memo — the warm leg of the differential only proves the
    /// key-projection invariant when this ends up > 0.
    hits: usize,
}

impl ArtifactMemo {
    /// Compile staged, serving stage-1/stage-2 artifacts from the memo
    /// when a previous vector (possibly with a *different* effect
    /// config) already produced them.
    fn compile_warm(
        &mut self,
        cc: &Compiler,
        m: &minicc::ast::Module,
        eff: &EffectConfig,
        arch: Arch,
    ) -> binrep::Binary {
        let keys = StageKeys::project(eff);
        let ad = keys.ast.stable_digest();
        let ld = keys.lower.stable_digest();
        let lowered = match self.lower.get(&(ad, ld)) {
            Some(b) => {
                self.hits += 1;
                b.clone()
            }
            None => {
                let ast = match self.ast.get(&ad) {
                    Some(a) => {
                        self.hits += 1;
                        a.clone()
                    }
                    None => {
                        let a = Arc::new(cc.stage_ast(m, eff));
                        self.ast.insert(ad, a.clone());
                        a
                    }
                };
                let b = Arc::new(cc.stage_lower(&ast, eff, arch));
                self.lower.insert((ad, ld), b.clone());
                b
            }
        };
        cc.stage_mir((*lowered).clone(), eff)
    }
}

/// Compile staged with no reuse at all (cold artifact cache).
fn compile_staged_cold(
    cc: &Compiler,
    m: &minicc::ast::Module,
    eff: &EffectConfig,
    arch: Arch,
) -> binrep::Binary {
    let optimized = cc.stage_ast(m, eff);
    // The engine treats a stored AST artifact that fails `validate` as a
    // miss, so no artifact the compiler produces may fail it.
    if let Err(e) = optimized.validate() {
        panic!("a stage-1 artifact of {} fails validation: {e}", m.name);
    }
    let lowered = cc.stage_lower(&optimized, eff, arch);
    cc.stage_mir(lowered, eff)
}

/// Compile `flags` monolithically, staged cold and staged warm, assert
/// the three binaries are byte-identical, and return their encoding.
fn assert_all_paths_agree(
    cc: &Compiler,
    bench: &corpus::Benchmark,
    flags: &[bool],
    arch: Arch,
    memo: &mut ArtifactMemo,
    label: &str,
) -> Vec<u8> {
    let mono = cc
        .compile(&bench.module, flags, arch)
        .unwrap_or_else(|e| panic!("{label}: monolithic compile failed: {e}"));
    let eff = EffectConfig::from_flags(cc.profile(), flags);
    let cold = compile_staged_cold(cc, &bench.module, &eff, arch);
    let warm = memo.compile_warm(cc, &bench.module, &eff, arch);
    let mono_bytes = binrep::encode_binary(&mono);
    assert_eq!(
        mono_bytes,
        binrep::encode_binary(&cold),
        "{label}: staged (cold) diverged from monolithic"
    );
    assert_eq!(
        mono_bytes,
        binrep::encode_binary(&warm),
        "{label}: staged (warm artifact cache) diverged from monolithic"
    );
    mono_bytes
}

/// Check one sweep's per-profile digests against the committed values,
/// printing the computed ones on a mismatch.
fn assert_digests(sweep: &str, got: &[(CompilerKind, u64)], want: &[(CompilerKind, u64)]) {
    assert_eq!(
        got,
        want,
        "{sweep}: binary digests moved; computed {:#018x?}",
        got.iter().map(|(_, d)| *d).collect::<Vec<_>>()
    );
}

/// Digest of every preset binary of the corpus sweep, per profile; the
/// GCC digest also folds each preset's NCD against `-O0`.
const PRESET_DIGESTS: [(CompilerKind, u64); 2] = [
    (CompilerKind::Gcc, 0x988f_d7fc_f33a_24b5),
    (CompilerKind::Llvm, 0xfd8e_5343_bf9f_19ea),
];

#[test]
fn presets_are_byte_identical_staged_and_monolithic_across_corpus() {
    let mut digests = Vec::new();
    for kind in [CompilerKind::Gcc, CompilerKind::Llvm] {
        let cc = Compiler::new(kind);
        let mut digest = StableHasher::new();
        for bench in corpus::all_benign() {
            if corpus::excluded_for(kind).contains(&bench.name) {
                continue;
            }
            // One memo per (module, kind): presets share artifacts
            // heavily (O2/O3/Os agree on many early-stage fields).
            let mut memo = ArtifactMemo::default();
            let mut o0 = None;
            for level in OptLevel::ALL {
                let flags = cc.profile().preset(level);
                let bytes = assert_all_paths_agree(
                    &cc,
                    &bench,
                    &flags,
                    Arch::X86,
                    &mut memo,
                    &format!("{kind} {} {level}", bench.name),
                );
                digest.write_usize(bytes.len());
                digest.write(&bytes);
                if kind == CompilerKind::Gcc {
                    let baseline = o0.get_or_insert_with(|| lzc::NcdBaseline::new(bytes.clone()));
                    digest.write_u64(baseline.score(&bytes).to_bits());
                }
            }
            // The warm leg must have exercised real reuse (e.g. -Os
            // shares -O2's AST stage key), or invariant 2 went
            // untested for this module.
            assert!(
                memo.hits > 0,
                "{kind} {}: warm memo never served an artifact",
                bench.name
            );
        }
        digests.push((kind, digest.finish()));
    }
    assert_digests("presets", &digests, &PRESET_DIGESTS);
}

/// Digest of every binary of the random-vector sweep, per profile.
const RANDOM_DIGESTS: [(CompilerKind, u64); 2] = [
    (CompilerKind::Gcc, 0x1926_4945_5926_9bbc),
    (CompilerKind::Llvm, 0xbad0_2734_0846_6cfc),
];

#[test]
fn random_flag_vectors_are_byte_identical_staged_and_monolithic() {
    // ~200 seeded random repaired vectors, spread across the whole
    // corpus and both profiles, each compiled monolithically, staged
    // cold, and staged against a warm artifact memo shared across all
    // of a module's vectors — the sharing pattern that catches a field
    // projected into too few stage keys.
    const TRIALS_PER_MODULE: usize = 9;
    let mut total = 0usize;
    let mut total_hits = 0usize;
    let mut digests = Vec::new();
    for kind in [CompilerKind::Gcc, CompilerKind::Llvm] {
        let cc = Compiler::new(kind);
        let n = cc.profile().n_flags();
        let mut digest = StableHasher::new();
        for bench in corpus::all_benign() {
            if corpus::excluded_for(kind).contains(&bench.name) {
                continue;
            }
            let mut memo = ArtifactMemo::default();
            let mut rng = StdRng::seed_from_u64(0x57A6_ED00 ^ bench.content_hash());
            for trial in 0..TRIALS_PER_MODULE {
                let raw: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
                let flags = cc.profile().constraints().repair(&raw, trial as u64);
                let bytes = assert_all_paths_agree(
                    &cc,
                    &bench,
                    &flags,
                    Arch::X86,
                    &mut memo,
                    &format!("{kind} {} trial {trial}", bench.name),
                );
                digest.write_usize(bytes.len());
                digest.write(&bytes);
                total += 1;
            }
            total_hits += memo.hits;
        }
        digests.push((kind, digest.finish()));
    }
    assert_digests("random vectors", &digests, &RANDOM_DIGESTS);
    assert!(total >= 200, "only {total} random vectors exercised");
    // Random vectors collide on stage keys far less often than presets,
    // but across ~40 (module, profile) memos the warm leg must have
    // served artifacts somewhere — otherwise every "warm" compile was
    // secretly cold and invariant 2 went untested here.
    assert!(
        total_hits > 0,
        "warm memos never served an artifact across the whole sweep"
    );
}

#[test]
fn staged_matches_monolithic_on_every_arch() {
    // Lowering takes the arch; make sure the staged split did not bake
    // in an X86 assumption.
    let bench = corpus::by_name("429.mcf").unwrap();
    let cc = Compiler::new(CompilerKind::Gcc);
    for arch in Arch::ALL {
        let mut memo = ArtifactMemo::default();
        for level in [OptLevel::O2, OptLevel::O3] {
            let flags = cc.profile().preset(level);
            assert_all_paths_agree(
                &cc,
                &bench,
                &flags,
                arch,
                &mut memo,
                &format!("{arch} {level}"),
            );
        }
    }
}
