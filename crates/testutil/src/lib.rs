//! # testutil — shared test scaffolding
//!
//! The integration suites (root `tests/*.rs`, `crates/bintuner/tests/*`)
//! all need the same few fixtures: a unique scratch path for a persistent
//! store, a deterministically small [`TunerConfig`], a tiny hand-built
//! module, a tune on a farm launched for it ([`tune_on_farm`]), and an
//! "run it on the emulator and collect output" helper.
//! Before this crate each suite carried its own copy; they drifted (and
//! will drift again) unless the scaffolding lives in one place.
//!
//! Everything here is deterministic: presets pin every seed, and the
//! module builders are pure functions of their arguments. Nothing reads
//! clocks or unseeded RNG — the suites assert reproducibility, so the
//! scaffolding must never be the source of noise.

#![warn(missing_docs)]

use bintuner::service::ServiceHandle;
use bintuner::{
    FarmTelemetry, FaultKind, FaultPlan, ServiceConfig, ServiceSummary, StoreLock, TuneError,
    TuneResult, Tuner, TunerConfig,
};
use genetic::{GaParams, Termination};
use minicc::ast::{BinOp, Expr, FuncDef, LValue, Module, Stmt};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A unique scratch path for a persistent-store test, removed on drop
/// (and pre-removed at creation, so a crashed previous run cannot leak
/// state into this one). No `tempfile` crate exists in the container;
/// this is the shared stand-in.
///
/// Cleanup removes the shard *directory* the path materializes as, any
/// plain file a test planted there, and the `.lock` sibling a crashed
/// run can leave behind.
#[derive(Debug)]
pub struct ScratchStore {
    path: PathBuf,
}

/// Remove every on-disk trace of a store at `path`: the shard
/// directory, a plain file planted there, and the `.lock` sibling.
/// Missing pieces are fine.
pub fn remove_store(path: &Path) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_dir_all(path);
    let _ = fs::remove_file(StoreLock::lock_path(path));
}

/// Every regular file under the store directory `dir` — manifest, shard
/// logs, artifact log, and the binary blobs under `binaries/` — as
/// paths relative to `dir`, sorted. Lock files are skipped: a snapshot
/// must never inherit a live lock, and a crash has nothing to tear in
/// one.
pub fn store_files(dir: &Path) -> Vec<String> {
    fn walk(dir: &Path, rel: &Path, out: &mut Vec<String>) {
        for entry in fs::read_dir(dir.join(rel)).expect("read store dir") {
            let rel = rel.join(entry.expect("store dir entry").file_name());
            let name = rel.to_string_lossy().into_owned();
            if dir.join(&rel).is_dir() {
                walk(dir, &rel, out);
            } else if !name.ends_with(".lock") {
                out.push(name);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, Path::new(""), &mut files);
    files.sort();
    files
}

/// Every store file ([`store_files`]) with its bytes, inode and
/// modification time (seconds, nanoseconds): two equal snapshots mean
/// nothing under the store was written in between, not even an
/// identical rewrite.
pub fn store_snapshot(dir: &Path) -> Vec<(String, Vec<u8>, u64, i64, i64)> {
    use std::os::unix::fs::MetadataExt;
    store_files(dir)
        .into_iter()
        .map(|f| {
            let meta = fs::metadata(dir.join(&f)).expect("stat store file");
            let bytes = fs::read(dir.join(&f)).expect("read store file");
            (f, bytes, meta.ino(), meta.mtime(), meta.mtime_nsec())
        })
        .collect()
}

/// Copy the store directory at `src` to `dst`: every file
/// [`store_files`] lists.
pub fn copy_store(src: &Path, dst: &Path) {
    remove_store(dst);
    assert!(src.is_dir(), "no store directory at {}", src.display());
    fs::create_dir_all(dst).expect("create snapshot dir");
    for file in store_files(src) {
        let to = dst.join(&file);
        fs::create_dir_all(to.parent().expect("inside the snapshot")).expect("create snapshot dir");
        fs::copy(src.join(&file), to).expect("copy store file");
    }
}

impl ScratchStore {
    /// A scratch path unique to this process and `name`.
    pub fn new(name: &str) -> ScratchStore {
        let path = std::env::temp_dir().join(format!(
            "bintuner_test_{}_{}.btfs",
            std::process::id(),
            name
        ));
        remove_store(&path);
        ScratchStore { path }
    }

    /// A scratch store initialized as a byte-for-byte snapshot of the
    /// store directory at `src`. Replaces whatever was at this scratch
    /// path.
    pub fn snapshot_of(name: &str, src: &Path) -> ScratchStore {
        let s = ScratchStore::new(name);
        copy_store(src, &s.path);
        s
    }

    /// The scratch path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The scratch path, owned (for `TunerConfig::cache_path`).
    pub fn path_buf(&self) -> PathBuf {
        self.path.clone()
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        remove_store(&self.path);
    }
}

/// Fault injection over a store directory: clone the store into crash
/// states a real power-cut or SIGKILL could produce — a file torn at an
/// arbitrary byte boundary, a stale compaction temp file, a missing
/// manifest — without touching the original.
///
/// Every method yields a fresh [`ScratchStore`] holding the damaged
/// clone, so the torture suites can load it and assert the store
/// recovers (valid prefix kept, no panic) while the pristine source
/// stays reusable.
#[derive(Debug)]
pub struct CrashFs {
    src: PathBuf,
}

impl CrashFs {
    /// Wrap the (v4 directory) store at `src`. Panics if nothing is
    /// there — a torture test pointed at a missing store is a test bug.
    pub fn new(src: &Path) -> CrashFs {
        assert!(src.exists(), "no store at {}", src.display());
        CrashFs {
            src: src.to_path_buf(),
        }
    }

    /// The store's files ([`store_files`]: relative paths, blobs under
    /// `binaries/` included, lock files excluded) — the tear points a
    /// crash could hit.
    pub fn files(&self) -> Vec<String> {
        store_files(&self.src)
    }

    /// Size in bytes of `file` inside the store.
    pub fn len_of(&self, file: &str) -> u64 {
        fs::metadata(self.src.join(file))
            .expect("stat store file")
            .len()
    }

    /// A clone of the store with `file` truncated to `len` bytes — the
    /// state a crash mid-append leaves behind.
    pub fn torn_at(&self, name: &str, file: &str, len: u64) -> ScratchStore {
        let s = ScratchStore::snapshot_of(name, &self.src);
        let target = s.path().join(file);
        let data = fs::read(&target).expect("read file to tear");
        let keep = (len as usize).min(data.len());
        fs::write(&target, &data[..keep]).expect("write torn file");
        s
    }

    /// A clone with `bytes` written to `file` inside the store dir —
    /// for planting stale compaction temps (`shard-00.log.tmp`), garbage
    /// manifests, or any other debris a crash can strand.
    pub fn with_file(&self, name: &str, file: &str, bytes: &[u8]) -> ScratchStore {
        let s = ScratchStore::snapshot_of(name, &self.src);
        fs::write(s.path().join(file), bytes).expect("plant file");
        s
    }

    /// A clone with `file` deleted — crash after unlink, before the
    /// replacement rename landed.
    pub fn without_file(&self, name: &str, file: &str) -> ScratchStore {
        let s = ScratchStore::snapshot_of(name, &self.src);
        fs::remove_file(s.path().join(file)).expect("remove file");
        s
    }

    /// A clone with a *directory* squatting where `file` should be, so
    /// every open-for-append on that path fails (`EISDIR`) — the
    /// deterministic, portable stand-in for a full disk: the
    /// deliberately-unwritable shard log an ENOSPC degrade test needs.
    pub fn with_dir(&self, name: &str, file: &str) -> ScratchStore {
        let s = ScratchStore::snapshot_of(name, &self.src);
        let target = s.path().join(file);
        let _ = fs::remove_file(&target);
        fs::create_dir_all(&target).expect("plant dir");
        s
    }
}

/// A scripted chaos scenario: a named constructor layer over the farm's
/// [`FaultPlan`]/[`FaultKind`] plumbing, so the chaos differential
/// suites read as intent ("hang client 1 after 2 shards") instead of
/// struct-literal soup. Every plan is deterministic — same scenario,
/// same trigger, every run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    /// Short scenario name, used in assertion messages.
    pub name: &'static str,
    /// The farm-level fault to inject via `ServiceConfig::fault` /
    /// `DaemonConfig::farm_fault_once`.
    pub fault: FaultPlan,
}

impl ChaosPlan {
    /// Client `client` drops its connection after `shards` shards.
    pub fn crash_at(client: usize, shards: usize) -> ChaosPlan {
        ChaosPlan {
            name: "crash",
            fault: FaultPlan {
                client,
                after_shards: shards,
                kind: FaultKind::Crash,
            },
        }
    }

    /// Client `client` wedges (silent, connection open) after `shards`
    /// shards — only heartbeats/deadlines can recover it.
    pub fn hang_at(client: usize, shards: usize) -> ChaosPlan {
        ChaosPlan {
            name: "hang",
            fault: FaultPlan {
                client,
                after_shards: shards,
                kind: FaultKind::Hang,
            },
        }
    }

    /// Client `client` delays every Result frame by `ms` milliseconds
    /// after `shards` shards — a straggler, slow but alive.
    pub fn slow_frame(client: usize, shards: usize, ms: u64) -> ChaosPlan {
        ChaosPlan {
            name: "slow-frame",
            fault: FaultPlan {
                client,
                after_shards: shards,
                kind: FaultKind::SlowFrame(ms),
            },
        }
    }

    /// Client `client` silently drops one Result frame after `shards`
    /// shards, then behaves — a lost message the deadline re-dispatches.
    pub fn drop_frame(client: usize, shards: usize) -> ChaosPlan {
        ChaosPlan {
            name: "drop-frame",
            fault: FaultPlan {
                client,
                after_shards: shards,
                kind: FaultKind::DropFrame,
            },
        }
    }
}

/// The small deterministic tuner preset used across the bintuner suites:
/// population 10, `max_evals` evaluations with a half-budget minimum and
/// a third-budget plateau window, 2 workers. Fully seeded — two runs of
/// the same preset are bit-identical.
pub fn small_tuner(max_evals: usize) -> TunerConfig {
    TunerConfig {
        termination: Termination {
            max_evaluations: max_evals,
            min_evaluations: max_evals / 2,
            plateau_window: max_evals / 3,
            ..Default::default()
        },
        ga: GaParams {
            population: 10,
            ..Default::default()
        },
        workers: 2,
        ..Default::default()
    }
}

/// [`small_tuner`] wired to a scratch store: the shape every
/// persistent-cache suite builds by hand. `None` gives the same preset
/// with persistence off — the cold-reference arm of a differential.
pub fn cached_tuner(max_evals: usize, store: Option<&ScratchStore>) -> TunerConfig {
    TunerConfig {
        cache_path: store.map(ScratchStore::path_buf),
        ..small_tuner(max_evals)
    }
}

/// The root integration-suite preset: default population, two-thirds
/// minimum budget (the shape the paper-claim tests were written against).
pub fn pipeline_tuner(max_evals: usize) -> TunerConfig {
    TunerConfig {
        termination: Termination {
            max_evaluations: max_evals,
            min_evaluations: max_evals * 2 / 3,
            plateau_window: max_evals / 3,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// One tune on a farm launched for it ([`tune_on_farm`]).
#[derive(Debug)]
pub struct FarmTune {
    /// The tune's result.
    pub result: TuneResult,
    /// What the farm did, from [`ServiceHandle::finish`].
    pub summary: ServiceSummary,
    /// The farm's registry (`bintuner_farm_*`); `None` when the tuner
    /// config's telemetry was off.
    pub registry: Option<Arc<btel::Registry>>,
    /// The farm's spans: its dispatches, with the worker spans stitched
    /// in over the wire. Empty when telemetry was off.
    pub spans: Vec<btel::SpanRecord>,
}

/// Tune `module` on a farm of shape `farm`: launch it for the module
/// (with a [`FarmTelemetry`] when `config.telemetry` is on), tune through
/// [`Tuner::tune_with_executor`], and finish the farm.
///
/// # Errors
///
/// A farm that fails to launch is [`TuneError::Service`]; otherwise
/// whatever the tune returns (the farm is torn down either way).
pub fn tune_on_farm(
    config: TunerConfig,
    farm: &ServiceConfig,
    module: &Module,
) -> Result<FarmTune, TuneError> {
    let tel = config.telemetry.is_on().then(|| FarmTelemetry {
        registry: Arc::new(btel::Registry::new()),
        tracer: btel::Tracer::enabled(4096),
    });
    let handle = ServiceHandle::launch_with(
        farm,
        config.compiler,
        module,
        config.arch,
        config.artifact_cache,
        tel.clone(),
    )
    .map_err(|e| TuneError::Service(Arc::new(e)))?;
    let result = Tuner::new(config).tune_with_executor(module, &handle)?;
    let (summary, _) = handle.finish();
    Ok(FarmTune {
        result,
        summary,
        registry: tel.as_ref().map(|t| Arc::clone(&t.registry)),
        spans: tel.map_or_else(Vec::new, |t| t.tracer.drain()),
    })
}

/// Run a binary on the emulator and collect its output (panicking with
/// the binary's name on failure — the shape every differential suite
/// wants).
pub fn observe(bin: &binrep::Binary, inputs: &[u32]) -> Vec<u32> {
    emu::Machine::new(bin)
        .run(&[], inputs, 20_000_000)
        .unwrap_or_else(|e| panic!("{} failed: {e}", bin.name))
        .output
}

/// A tiny loop-heavy module: `main(a)` runs `loops` counted loops over an
/// accumulator and returns it. Deterministic in its arguments; distinct
/// `name`s give distinct [`Module::content_hash`]es with identical shape
/// features — handy for store-key and transfer tests.
pub fn tiny_loop_module(name: &str, loops: usize) -> Module {
    let mut m = Module::new(name);
    let body: Vec<Stmt> =
        std::iter::once(Stmt::Assign(LValue::Var("x".into()), Expr::Var("a".into())))
            .chain((0..loops).map(|i| Stmt::For {
                var: "i".into(),
                start: Expr::Const(0),
                end: Expr::Const(8 + i as u32),
                step: 1,
                body: vec![Stmt::Assign(
                    LValue::Var("x".into()),
                    Expr::bin(
                        BinOp::Add,
                        Expr::Var("x".into()),
                        Expr::bin(BinOp::Mul, Expr::Var("i".into()), Expr::Const(3)),
                    ),
                )],
            }))
            .chain(std::iter::once(Stmt::Return(Expr::Var("x".into()))))
            .collect();
    let mut f = FuncDef::new("main", vec!["a".into()], body);
    f.local("x");
    f.local("i");
    m.funcs.push(f);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_store_cleans_up_after_itself() {
        let path = {
            let s = ScratchStore::new("selftest");
            fs::write(s.path(), b"x").unwrap();
            assert!(s.path().exists());
            s.path_buf()
        };
        assert!(!path.exists(), "drop removed the scratch file");

        // Directory form (v4 shard layout) plus lock droppings.
        let path = {
            let s = ScratchStore::new("selftest_dir");
            fs::create_dir_all(s.path()).unwrap();
            fs::write(s.path().join("manifest"), b"m").unwrap();
            fs::write(StoreLock::lock_path(s.path()), b"0").unwrap();
            s.path_buf()
        };
        assert!(!path.exists(), "drop removed the scratch dir");
        assert!(!StoreLock::lock_path(&path).exists(), "drop swept the lock");
    }

    #[test]
    fn copy_store_copies_the_directory_and_skips_locks() {
        let dir = ScratchStore::new("copy_src");
        fs::create_dir_all(dir.path()).unwrap();
        fs::write(dir.path().join("manifest"), b"m").unwrap();
        fs::write(dir.path().join("shard-00.log"), b"s0").unwrap();
        fs::write(dir.path().join("shard-00.log.lock"), b"9").unwrap();
        fs::create_dir_all(dir.path().join("binaries")).unwrap();
        fs::write(dir.path().join("binaries").join("00ab"), b"blob").unwrap();
        let snap = ScratchStore::snapshot_of("copy_dst", dir.path());
        assert_eq!(fs::read(snap.path().join("shard-00.log")).unwrap(), b"s0");
        assert!(!snap.path().join("shard-00.log.lock").exists());
        assert_eq!(
            fs::read(snap.path().join("binaries").join("00ab")).unwrap(),
            b"blob"
        );
        assert_eq!(
            store_files(snap.path()),
            vec![
                "binaries/00ab".to_string(),
                "manifest".into(),
                "shard-00.log".into()
            ]
        );
    }

    #[test]
    fn crash_fs_tears_plants_and_removes_without_touching_the_source() {
        let dir = ScratchStore::new("crash_src");
        fs::create_dir_all(dir.path()).unwrap();
        fs::write(dir.path().join("shard-00.log"), b"abcdef").unwrap();
        let cfs = CrashFs::new(dir.path());
        assert_eq!(cfs.files(), vec!["shard-00.log".to_string()]);
        assert_eq!(cfs.len_of("shard-00.log"), 6);
        fs::create_dir_all(dir.path().join("binaries")).unwrap();
        fs::write(dir.path().join("binaries").join("00ab"), b"blob").unwrap();
        assert_eq!(cfs.files(), vec!["binaries/00ab", "shard-00.log"]);
        let torn = cfs.torn_at("crash_torn_blob", "binaries/00ab", 2);
        assert_eq!(fs::read(torn.path().join("binaries/00ab")).unwrap(), b"bl");
        fs::remove_dir_all(dir.path().join("binaries")).unwrap();

        let torn = cfs.torn_at("crash_torn", "shard-00.log", 3);
        assert_eq!(fs::read(torn.path().join("shard-00.log")).unwrap(), b"abc");
        let planted = cfs.with_file("crash_plant", "shard-00.log.tmp", b"zz");
        assert!(planted.path().join("shard-00.log.tmp").exists());
        let gone = cfs.without_file("crash_gone", "shard-00.log");
        assert!(!gone.path().join("shard-00.log").exists());
        let squat = cfs.with_dir("crash_squat", "shard-00.log");
        assert!(squat.path().join("shard-00.log").is_dir());
        assert!(
            fs::OpenOptions::new()
                .append(true)
                .open(squat.path().join("shard-00.log"))
                .is_err(),
            "appending to the squatted path must fail"
        );
        // Source untouched throughout.
        assert_eq!(
            fs::read(dir.path().join("shard-00.log")).unwrap(),
            b"abcdef"
        );
    }

    #[test]
    fn presets_are_deterministic_and_small() {
        let a = small_tuner(60);
        let b = small_tuner(60);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.ga.population, 10);
        assert_eq!(a.termination.max_evaluations, 60);
        assert_eq!(pipeline_tuner(90).termination.min_evaluations, 60);
    }

    #[test]
    fn tiny_module_compiles_validates_and_hashes_by_name() {
        let m = tiny_loop_module("t1", 3);
        m.validate().unwrap();
        let other = tiny_loop_module("t2", 3);
        assert_ne!(m.content_hash(), other.content_hash());
        assert_eq!(m.features(), other.features());
        let cc = minicc::Compiler::new(minicc::CompilerKind::Gcc);
        let bin = cc
            .compile_preset(&m, minicc::OptLevel::O2, binrep::Arch::X86)
            .unwrap();
        let _ = observe(&bin, &[5, 0]); // must execute cleanly
        assert!(bin.insn_count() > 0);
    }
}
