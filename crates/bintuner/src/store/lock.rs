//! Advisory file locks for store mutation, between processes and
//! between threads of one process.
//!
//! One [`StoreLock`] guards one file: the v4 store takes one per shard
//! log (so compacting shard 3 never blocks a writer appending to shard
//! 7), the artifact log takes its own, and creating the store directory
//! or rewriting its manifest takes a whole-store lock on the store path
//! itself.

use std::collections::BTreeSet;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Advisory lock on a store file: a `<path>.lock` sibling created with
/// `O_EXCL` and holding the owner's pid. Released on drop; a lock whose
/// owner pid is no longer alive (crashed run) is reclaimed.
///
/// The pid cannot tell apart the threads of one process (the daemon's
/// runners share one store), so an acquire first claims its path in a
/// process-wide set of held lock paths and keeps the claim until the
/// lock drops. No two threads of one process work on one lock file at once,
/// and a file stamped with our own pid on an unclaimed path is debris
/// (a stamp that lost a race with another process): stale.
///
/// Advisory means cooperative: only the store's save/compaction paths
/// honor it, which is enough because saving is the store's only file
/// mutation.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    /// Path of the lock file guarding `store_path`.
    pub fn lock_path(store_path: &Path) -> PathBuf {
        let mut p = store_path.as_os_str().to_owned();
        p.push(".lock");
        PathBuf::from(p)
    }

    /// Try to take the lock. `Ok(None)` means another live process, or
    /// another thread of this one, holds it (the caller should degrade,
    /// not block). A stale lock — owner pid dead, or this process's own
    /// pid on a path no thread of it holds — is reclaimed once.
    ///
    /// Reclamation claims by **rename**, the one atomic
    /// take-whatever-is-there primitive std offers: the observed-stale
    /// lock is renamed to a claimant-unique sibling, so exactly one
    /// racing reclaimer wins and the holder re-check runs on a file the
    /// claimant owns exclusively — unlike the old check-then-unlink
    /// pair, there is no window where a racer's *fresh* lock can be
    /// deleted after the check passed. If the claimed file no longer
    /// matches the stale observation (a racer reclaimed and re-locked
    /// between our read and our rename), the claim is undone by
    /// renaming it straight back and the acquire degrades to
    /// `Ok(None)`. The second guard is unchanged: after creating our
    /// own lock we re-read it to confirm we still own it. What remains
    /// is not a two-syscall window of ours but a compound race — a
    /// racer's complete reclaim cycle inside our single read-to-rename
    /// gap *and* a third acquirer's complete create-stamp-verify cycle
    /// inside our single claim-to-restore gap — and a loss costs what
    /// the pre-lock code always risked: a torn append the
    /// corruption-tolerant loader truncates (pinned by
    /// `save_after_torn_append_truncates_and_appends_cleanly`).
    ///
    /// # Errors
    ///
    /// Unexpected I/O failures creating the lock file (permissions, a
    /// vanished parent directory).
    pub fn acquire(store_path: &Path) -> io::Result<Option<StoreLock>> {
        Self::acquire_with(store_path, &pid_alive, &|f, pid| f.write_all(pid))
    }

    /// Implementation seam behind [`StoreLock::acquire`]: the pid
    /// liveness probe and the pid write are injectable so the unit tests
    /// can exercise the non-Linux "never steal" policy, the
    /// failed-write cleanup path and the stamp window on any host.
    fn acquire_with(
        store_path: &Path,
        alive: &dyn Fn(u32) -> bool,
        write_pid: &dyn Fn(&mut fs::File, &[u8]) -> io::Result<()>,
    ) -> io::Result<Option<StoreLock>> {
        let path = StoreLock::lock_path(store_path);
        // Another thread of this process holds, or is acquiring, this
        // lock: degrade exactly as for a live holder elsewhere.
        if !held_paths().insert(path.clone()) {
            return Ok(None);
        }
        let got = Self::acquire_file(path.clone(), alive, write_pid);
        if !matches!(got, Ok(Some(_))) {
            held_paths().remove(&path);
        }
        got
    }

    /// The file half of an acquire, run while this thread holds `path`
    /// in [`held_paths`].
    fn acquire_file(
        path: PathBuf,
        alive: &dyn Fn(u32) -> bool,
        write_pid: &dyn Fn(&mut fs::File, &[u8]) -> io::Result<()>,
    ) -> io::Result<Option<StoreLock>> {
        let my_pid = std::process::id().to_string();
        let read_holder = |path: &Path| fs::read_to_string(path).ok();
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    if let Err(e) = write_pid(&mut f, my_pid.as_bytes()) {
                        // A lock file we created but could not stamp
                        // (disk full) must not wedge every future save:
                        // remove it and surface the failure.
                        drop(f);
                        let _ = fs::remove_file(&path);
                        return Err(e);
                    }
                    drop(f);
                    // Ownership verification: a racing stale-reclaimer
                    // may have unlinked and replaced our fresh lock.
                    if read_holder(&path).as_deref().map(str::trim) == Some(my_pid.as_str()) {
                        return Ok(Some(StoreLock { path }));
                    }
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let first = read_holder(&path);
                    let stale = match first.as_deref().map(str::trim).map(str::parse::<u32>) {
                        // Our own pid, on a path no thread of ours
                        // holds: debris, not a holder.
                        Some(Ok(pid)) => pid == std::process::id() || !alive(pid),
                        // Empty content: a torn acquire (killed between
                        // create and pid write) — no live owner can be
                        // identified, reclaim it. A racing acquirer in
                        // another process whose file is momentarily
                        // empty is protected by its own ownership
                        // verification above; one in this process never
                        // gets here (it holds the path in the set).
                        Some(Err(_)) if first.as_deref().is_some_and(|s| s.trim().is_empty()) => {
                            true
                        }
                        // Garbled non-empty owner: written by something
                        // else entirely — leave it alone.
                        _ => false,
                    };
                    if !stale || attempt == 1 {
                        return Ok(None);
                    }
                    // Atomic claim: rename the observed-stale lock to a
                    // name only this claimant uses. Of N racing
                    // reclaimers exactly one rename succeeds (the rest
                    // see the source vanish), and the winner holds the
                    // claimed file exclusively — no racer mutates a
                    // path nobody else knows.
                    let claim = claim_path(&path);
                    if fs::rename(&path, &claim).is_err() {
                        // Lost the claim race (or the holder released
                        // on its own): fall through to the second
                        // `create_new` attempt, which decides cleanly.
                        continue;
                    }
                    // Race-free holder re-check, *after* the claim.
                    if read_holder(&claim).as_deref().map(str::trim)
                        == first.as_deref().map(str::trim)
                    {
                        // Still the stale lock we observed: a dead pid
                        // writes nothing, so nobody owns it. (The empty
                        // torn-acquire case is also safe: a mid-acquire
                        // racer stamping its pid writes through its fd
                        // into *this* renamed file, and its own
                        // ownership verification then fails against the
                        // lock path.)
                        let _ = fs::remove_file(&claim);
                    } else {
                        // The lock changed between observation and
                        // claim — we grabbed a racer's fresh lock. Put
                        // it back atomically and degrade; the racer
                        // keeps (or correctly re-verifies) its claim.
                        let _ = fs::rename(&claim, &path);
                        return Ok(None);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        // Release only a lock file we still own — never a fresh lock a
        // racing reclaimer put in its place. The file goes before the
        // in-process claim, so no thread of ours can find it stamped
        // with our pid but unclaimed while we still hold it.
        let owned = fs::read_to_string(&self.path)
            .ok()
            .is_some_and(|s| s.trim() == std::process::id().to_string());
        if owned {
            let _ = fs::remove_file(&self.path);
        }
        held_paths().remove(&self.path);
    }
}

/// The lock paths this process holds or is acquiring (see
/// [`StoreLock`]). A thread panicking while it holds the guard leaves
/// the set itself consistent, so a poisoned lock is simply taken over.
fn held_paths() -> MutexGuard<'static, BTreeSet<PathBuf>> {
    static HELD: Mutex<BTreeSet<PathBuf>> = Mutex::new(BTreeSet::new());
    HELD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Claimant-unique sibling of `lock_path` for a rename-based stale
/// reclaim: the pid disambiguates processes, and no two threads of one
/// process reclaim one lock at once (see [`held_paths`]). Claim files
/// are transient — removed (valid claim) or renamed back (lost race) on
/// every path out of the reclaim.
fn claim_path(lock_path: &Path) -> PathBuf {
    let mut p = lock_path.as_os_str().to_owned();
    p.push(format!(".claim.{}", std::process::id()));
    PathBuf::from(p)
}

/// Whether a process with this pid exists.
fn pid_alive(pid: u32) -> bool {
    pid_alive_impl(pid, cfg!(target_os = "linux"))
}

/// The liveness decision, with the platform capability as an explicit
/// input so the non-Linux policy is unit-testable on Linux. Without a
/// portable probe (`can_probe == false`) every holder is treated as
/// alive — locks are then only released by their owner's drop. That is
/// the conservative "never steal" arm: a wedged stale lock costs a
/// skipped save, a wrongly stolen live lock costs interleaved writes.
fn pid_alive_impl(pid: u32, can_probe: bool) -> bool {
    if !can_probe {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "bintuner_lock_{}_{}.btfs",
            std::process::id(),
            name
        ));
        let _ = fs::remove_file(&p);
        let _ = fs::remove_file(StoreLock::lock_path(&p));
        p
    }

    /// A pid no live process has (pid_max is far below u32::MAX).
    const DEAD_PID: u32 = u32::MAX - 1;

    #[test]
    fn non_linux_policy_never_steals_a_dead_pid_lock() {
        // The decision itself: without a probe, even a provably dead
        // holder reads as alive.
        assert!(pid_alive_impl(DEAD_PID, false));
        #[cfg(target_os = "linux")]
        assert!(!pid_alive_impl(DEAD_PID, true));

        // End to end through acquire: a dead-pid lock that the Linux
        // path would reclaim is left alone under the never-steal policy.
        let path = scratch("never_steal");
        fs::write(StoreLock::lock_path(&path), DEAD_PID.to_string()).unwrap();
        let no_probe = |pid: u32| pid_alive_impl(pid, false);
        let got = StoreLock::acquire_with(&path, &no_probe, &|f, pid| f.write_all(pid)).unwrap();
        assert!(got.is_none(), "never-steal policy stole a lock");
        assert!(StoreLock::lock_path(&path).exists(), "lock file removed");

        // The same situation with the probe available is reclaimed —
        // pinning that the two arms genuinely differ.
        #[cfg(target_os = "linux")]
        {
            let probe = |pid: u32| pid_alive_impl(pid, true);
            let got = StoreLock::acquire_with(&path, &probe, &|f, pid| f.write_all(pid)).unwrap();
            assert!(got.is_some(), "dead-pid lock not reclaimed on Linux");
        }
        let _ = fs::remove_file(StoreLock::lock_path(&path));
    }

    #[test]
    fn swapped_lock_is_restored_not_stolen() {
        // The compound race the rename claim defends against: between
        // our staleness observation and our claim, a racer completes a
        // full reclaim and re-locks. The alive probe runs exactly in
        // that gap, so a probe with a side effect simulates the racer
        // deterministically: it swaps the stale lock for a fresh
        // live-pid lock. The claim must then be undone by the
        // rename-back — the racer keeps its lock, we degrade to None,
        // and no claim debris survives.
        let path = scratch("swapped");
        let lock_file = StoreLock::lock_path(&path);
        fs::write(&lock_file, DEAD_PID.to_string()).unwrap();
        let racer_pid = std::process::id().to_string();
        let swapping_probe = {
            let lock_file = lock_file.clone();
            let racer_pid = racer_pid.clone();
            move |_pid: u32| {
                fs::write(&lock_file, &racer_pid).unwrap();
                false // the observed holder is dead — proceed to reclaim
            }
        };
        let got =
            StoreLock::acquire_with(&path, &swapping_probe, &|f, pid| f.write_all(pid)).unwrap();
        assert!(got.is_none(), "stole a lock that changed after observation");
        assert_eq!(
            fs::read_to_string(&lock_file).unwrap(),
            racer_pid,
            "the racer's fresh lock must survive at the lock path"
        );
        let dir = path.parent().unwrap_or(Path::new("."));
        for entry in fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().contains(".claim."),
                "claim debris left behind: {name:?}"
            );
        }
        let _ = fs::remove_file(&lock_file);
    }

    #[test]
    fn stale_reclaim_admits_exactly_one_winner_under_contention() {
        // The atomicity invariant of the rename claim: any number of
        // threads hammering acquire on a path that keeps regrowing
        // stale locks never observe two simultaneous holders. (Planting
        // uses `create_new`, so a *held* lock is never overwritten —
        // every planted file really is an orphan.)
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let path = scratch("contention");
        let lock_file = StoreLock::lock_path(&path);
        fs::write(&lock_file, DEAD_PID.to_string()).unwrap();
        let holders = Arc::new(AtomicUsize::new(0));
        let acquired = Arc::new(AtomicUsize::new(0));
        let dead_probe = |pid: u32| pid != DEAD_PID && pid_alive(pid);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let path = path.clone();
                let lock_file = lock_file.clone();
                let holders = Arc::clone(&holders);
                let acquired = Arc::clone(&acquired);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if let Some(lock) =
                            StoreLock::acquire_with(&path, &dead_probe, &|f, pid| f.write_all(pid))
                                .unwrap()
                        {
                            let now = holders.fetch_add(1, Ordering::SeqCst);
                            assert_eq!(now, 0, "two live holders of one store lock");
                            acquired.fetch_add(1, Ordering::SeqCst);
                            std::hint::spin_loop();
                            holders.fetch_sub(1, Ordering::SeqCst);
                            drop(lock);
                        } else if let Ok(mut f) = fs::OpenOptions::new()
                            .write(true)
                            .create_new(true)
                            .open(&lock_file)
                        {
                            // Replant a stale lock so reclaim keeps
                            // being exercised, not just first-create.
                            let _ = f.write_all(DEAD_PID.to_string().as_bytes());
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(
            acquired.load(Ordering::SeqCst) > 0,
            "contention test never acquired — vacuous"
        );
        let _ = fs::remove_file(&lock_file);
    }

    #[test]
    fn a_second_acquire_in_the_stamp_window_does_not_also_hold_the_lock() {
        // Another thread of this process acquiring between our create
        // and our pid stamp sees an empty lock file. By file content
        // alone that is a torn acquire to reclaim — and both threads,
        // stamping the same pid, would then verify as holders. The
        // write hook runs the second acquire exactly in that window.
        use std::cell::RefCell;
        let path = scratch("stamp_window");
        let inner: RefCell<Option<Option<StoreLock>>> = RefCell::new(None);
        let racing_write = |f: &mut fs::File, pid: &[u8]| {
            *inner.borrow_mut() = Some(StoreLock::acquire(&path).unwrap());
            f.write_all(pid)
        };
        let outer = StoreLock::acquire_with(&path, &pid_alive, &racing_write).unwrap();
        let inner = inner.into_inner().expect("the write hook ran");
        assert!(
            !(outer.is_some() && inner.is_some()),
            "two holders of one lock"
        );
        assert!(outer.is_some(), "the first acquirer keeps its lock");
        drop(outer);
        assert!(!StoreLock::lock_path(&path).exists(), "lock released");
        // The released lock is free again for the next acquirer.
        assert!(StoreLock::acquire(&path).unwrap().is_some());
    }

    #[test]
    fn own_pid_debris_is_reclaimed() {
        // A lock file stamped with this process's pid that no thread of
        // this process holds (a stamp that lost a race and landed after
        // the claim was undone) must not block every later save of the
        // shard: it is stale.
        let path = scratch("own_pid_debris");
        let lock_file = StoreLock::lock_path(&path);
        fs::write(&lock_file, std::process::id().to_string()).unwrap();
        let lock = StoreLock::acquire(&path).unwrap();
        assert!(lock.is_some(), "own-pid debris blocked the acquire");
        // While that lock is held, the same pid on disk is a live holder.
        assert!(StoreLock::acquire(&path).unwrap().is_none());
        drop(lock);
        assert!(!lock_file.exists());
    }

    #[test]
    fn failed_pid_write_removes_the_lock_file_and_surfaces_the_error() {
        let path = scratch("failed_write");
        let fail = |_f: &mut fs::File, _pid: &[u8]| -> io::Result<()> {
            Err(io::Error::other("disk full"))
        };
        let err = StoreLock::acquire_with(&path, &pid_alive, &fail).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        // Regression: the half-created lock must not wedge future saves.
        assert!(
            !StoreLock::lock_path(&path).exists(),
            "orphaned lock file left behind"
        );
        // And the next acquire (healthy writer) succeeds outright.
        let lock = StoreLock::acquire(&path).unwrap();
        assert!(lock.is_some());
        drop(lock);
        assert!(!StoreLock::lock_path(&path).exists());
    }
}
