//! Periodic atomic-write flusher for live metrics.
//!
//! A [`Flusher`] snapshots the [global](crate::global) registry on a
//! fixed interval and rewrites a JSONL metrics file atomically (write
//! to a process-unique temporary, fsync, then rename), so external
//! observers — a watching shell, a CI poller, a `reap serve` metrics
//! client — always read a complete, schema-valid document while a long
//! campaign is still running.
//!
//! Shutdown semantics: [`Flusher::finish`] stops the background thread
//! and performs exactly one final flush on the caller's thread,
//! propagating the error; merely dropping the flusher does the same
//! best-effort (errors swallowed, for early-return paths). The final
//! write happens once either way — callers must not write the file
//! again themselves.

use crate::export::write_jsonl;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A temporary older than this is a leftover from a killed writer, not
/// a concurrent one — flushes are subsecond.
const STALE_TMP_AGE: Duration = Duration::from_secs(60);

/// Writes a snapshot of the global registry to `path` atomically: the
/// document lands in a process-unique `{path}.{pid}.{seq}.tmp` first,
/// is fsynced, and is renamed into place — so readers never observe a
/// torn file, a crash mid-write never corrupts the target, and two
/// processes flushing the same path never rename each other's partial
/// temporaries (the old fixed `.tmp` suffix did exactly that).
///
/// Leftover temporaries from a previous killed writer are swept on the
/// way: those left untouched for a minute.
pub fn write_metrics_atomic(path: &Path) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    remove_stale_tmps(path, STALE_TMP_AGE);
    let tmp = {
        let mut p = path.as_os_str().to_owned();
        p.push(format!(
            ".{}.{}.tmp",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        PathBuf::from(p)
    };
    let mut buf = Vec::new();
    write_jsonl(&crate::global().snapshot(), &mut buf)?;
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&buf)?;
        // A rename is only atomic for data that reached the disk; a
        // crash between rename and writeback would otherwise replace a
        // good document with an empty or partial one.
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Removes temporaries of `path` left behind by a killed writer: any
/// sibling named `{file_name}.….tmp` (including the legacy fixed
/// `{file_name}.tmp`) whose modification time is at least `older_than`
/// ago. Best-effort — sweep failures never fail a flush.
fn remove_stale_tmps(path: &Path, older_than: Duration) {
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return;
    };
    let prefix = {
        let mut p = name.to_owned();
        p.push(".");
        p
    };
    let Ok(entries) = std::fs::read_dir(if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    }) else {
        return;
    };
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let Some(text) = file_name.to_str() else {
            continue;
        };
        let Some(prefix_str) = prefix.to_str() else {
            continue;
        };
        if !text.starts_with(prefix_str) || !text.ends_with(".tmp") {
            continue;
        }
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| std::time::SystemTime::now().duration_since(mtime).ok())
            .is_some_and(|age| age >= older_than);
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

struct Shared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// Background thread that keeps a metrics file current; see the module
/// docs. Constructed by [`Flusher::start`]; end it with
/// [`Flusher::finish`] (or drop it for the best-effort equivalent).
pub struct Flusher {
    shared: Arc<Shared>,
    path: PathBuf,
    handle: Option<JoinHandle<()>>,
}

impl Flusher {
    /// Spawns the flusher thread writing the global registry's snapshot
    /// to `path` every `interval`. Interval flush errors (e.g. the
    /// directory vanished) are swallowed: live metrics are best-effort
    /// and must never kill a campaign.
    pub fn start(path: PathBuf, interval: Duration) -> Self {
        let shared = Arc::new(Shared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_path = path.clone();
        let handle = std::thread::Builder::new()
            .name("obs-flush".to_owned())
            .spawn(move || {
                let mut stopped = thread_shared.stop.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    // Check before parking, not just after: a stop
                    // issued between spawn and the first wait has
                    // already had its notify, and re-checking only
                    // post-wait would sleep out the whole interval.
                    if *stopped {
                        return;
                    }
                    let (guard, timeout) = thread_shared
                        .wake
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(|e| e.into_inner());
                    stopped = guard;
                    if *stopped {
                        // The final flush belongs to the stopping thread
                        // (finish/drop), where its error can surface —
                        // writing here too was a double final write.
                        return;
                    }
                    if timeout.timed_out() {
                        let _ = write_metrics_atomic(&thread_path);
                    }
                }
            })
            .expect("spawn obs-flush thread");
        Self {
            shared,
            path,
            handle: Some(handle),
        }
    }

    /// Stops the background thread; idempotent.
    fn stop(&mut self) -> bool {
        let Some(handle) = self.handle.take() else {
            return false;
        };
        *self.shared.stop.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.shared.wake.notify_all();
        let _ = handle.join();
        true
    }

    /// Stops the thread and performs the one final flush, so the file
    /// is current even when the interval never elapsed.
    ///
    /// # Errors
    ///
    /// Propagates the final write's failure — unlike an interval flush,
    /// a lost *final* write means the run's results silently vanished.
    pub fn finish(mut self) -> io::Result<()> {
        self.stop();
        write_metrics_atomic(&self.path)
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        if self.stop() {
            let _ = write_metrics_atomic(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::check_jsonl;

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicUsize;
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "reap-obs-flush-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn flusher_keeps_a_valid_snapshot_file_current() {
        let dir = scratch("live");
        let path = dir.join("live.jsonl");

        crate::set_enabled(true);
        crate::counter("flush.test").add(7);
        {
            let _flusher = Flusher::start(path.clone(), Duration::from_millis(10));
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    if text.contains("flush.test") {
                        break;
                    }
                }
                assert!(std::time::Instant::now() < deadline, "flusher never wrote");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // The mid-run file is a complete, valid document.
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = check_jsonl(&text).unwrap();
        assert!(summary.counters >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_flushes_once_and_drop_after_finish_does_not_rewrite() {
        let dir = scratch("finish");
        let path = dir.join("final.jsonl");
        crate::set_enabled(true);
        crate::counter("flush.finish.test").add(1);

        // A long interval that never elapses: only finish() writes.
        let flusher = Flusher::start(path.clone(), Duration::from_secs(3600));
        flusher.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("flush.finish.test"), "{text}");
        check_jsonl(&text).unwrap();

        // No temporary survives a clean finish.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: `stop()` could race the thread's first park. The
    /// flag was only examined *after* `wait_timeout`, so a `finish()`
    /// issued before the thread first waited had already spent its
    /// notification and left the thread sleeping out the entire
    /// interval (an hour, in the test above) before the join returned.
    /// Spawning and finishing in a tight loop gives the window many
    /// chances to reopen; with the pre-park check the join can never
    /// outlive a write.
    #[test]
    fn finish_never_sleeps_out_the_interval() {
        let dir = scratch("race");
        crate::set_enabled(true);
        let start = std::time::Instant::now();
        for i in 0..64 {
            let flusher =
                Flusher::start(dir.join(format!("r{i}.jsonl")), Duration::from_secs(3600));
            flusher.finish().unwrap();
        }
        assert!(
            start.elapsed() < Duration::from_secs(600),
            "finish() slept against a parked flusher"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A writer killed mid-flush leaves a torn temporary behind. The
    /// next flush must neither rename it into place nor trip over it —
    /// the target stays a valid document and the leftover is swept once
    /// stale. `reap_fault::chop_tail` plays the kill.
    #[test]
    fn killed_mid_flush_leftovers_never_corrupt_the_target() {
        let dir = scratch("killed");
        let path = dir.join("metrics.jsonl");
        crate::set_enabled(true);
        crate::counter("flush.kill.test").add(3);

        // A completed flush, then a simulated kill mid-write: copy the
        // good document into a writer temporary and chop its tail, as a
        // partial write would have left it.
        write_metrics_atomic(&path).unwrap();
        let torn = dir.join("metrics.jsonl.99999.0.tmp");
        std::fs::copy(&path, &torn).unwrap();
        reap_fault::chop_tail(&torn, 17).unwrap();
        let legacy = dir.join("metrics.jsonl.tmp");
        std::fs::copy(&path, &legacy).unwrap();
        reap_fault::truncate_file(&legacy, 5).unwrap();

        // The next flush ignores the leftovers and lands atomically.
        write_metrics_atomic(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        check_jsonl(&text).expect("target must stay valid");
        assert!(torn.exists(), "a fresh tmp is not stale yet");

        // Once stale, the sweep reclaims both naming schemes.
        remove_stale_tmps(&path, Duration::ZERO);
        assert!(!torn.exists(), "stale unique tmp must be swept");
        assert!(!legacy.exists(), "stale legacy tmp must be swept");
        assert!(path.exists(), "the target itself is never swept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The pinned collision: with a fixed `.tmp` name, two concurrent
    /// writers interleaved into one temporary and renamed a torn file
    /// into place. Unique names keep every observable state valid.
    #[test]
    fn concurrent_flushes_of_one_path_never_tear_the_target() {
        let dir = scratch("race");
        let path = dir.join("shared.jsonl");
        crate::set_enabled(true);
        crate::counter("flush.race.test").add(1);

        let threads: Vec<_> = (0..4)
            .map(|_| {
                let path = path.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        write_metrics_atomic(&path).unwrap();
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while threads.iter().any(|t| !t.is_finished()) {
            if let Ok(text) = std::fs::read_to_string(&path) {
                check_jsonl(&text).expect("every observed state must be valid");
            }
            assert!(std::time::Instant::now() < deadline, "writers hung");
        }
        for t in threads {
            t.join().unwrap();
        }
        check_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
