//! Single-writer JSONL files: campaign checkpoints and the `minnetd` job
//! journal.
//!
//! Both append one flushed line per event. That is torn-tail safe against
//! a SIGKILL of *one* process, but two live processes appending to the
//! same file interleave partial lines and corrupt everything after the
//! first collision. [`open_locked`] makes the single-writer assumption
//! enforced: the file itself carries an exclusive advisory lock
//! ([`File::try_lock`]) for as long as its owner keeps it open, and a
//! second opener — another process, or a second open in the same one —
//! is refused before it reads, truncates or writes a byte.
//!
//! The operating system drops the lock when the holder's descriptor
//! closes, however the holder died, so there is no lock file, no stale
//! owner to detect and nothing to clean up. The lock is advisory
//! (nothing stops a rogue `cat >>`), which is the right strength here:
//! the threat model is a misconfigured second daemon or a concurrent
//! CLI resume pointed at the same checkpoint, not an adversary.

use std::fs::{File, TryLockError};
use std::io::Read;
use std::path::Path;

/// Open `path` for reading and appending — creating it if absent, never
/// truncating it — take its exclusive lock, and only then read it whole.
/// The returned file holds the lock until it is dropped; its content is
/// returned beside it.
///
/// # Errors
///
/// `<path> is locked by another live process …` when a writer holds it;
/// otherwise the I/O failure opening, locking or reading it, naming the
/// path.
pub fn open_locked(path: &Path) -> Result<(File, String), String> {
    let shown = path.display();
    let mut file = File::options()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| format!("opening {shown}: {e}"))?;
    match file.try_lock() {
        Ok(()) => {}
        Err(TryLockError::WouldBlock) => {
            return Err(format!(
                "{shown} is locked by another live process; a second writer would \
                 interleave appends — stop the other process or point this one at a \
                 different file"
            ))
        }
        Err(TryLockError::Error(e)) => return Err(format!("locking {shown}: {e}")),
    }
    let mut content = String::new();
    file.read_to_string(&mut content).map_err(|e| format!("reading {shown}: {e}"))?;
    Ok((file, content))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("minnet_lock_{}_{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn second_open_is_refused_until_the_first_is_dropped() {
        let path = temp("double");
        std::fs::write(&path, "held\n").unwrap();
        let (first, content) = open_locked(&path).unwrap();
        assert_eq!(content, "held\n");
        let err = open_locked(&path).unwrap_err();
        assert!(err.contains("is locked by another live process"), "{err}");
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"held\n", "the refused open touched the file");
        drop(first);
        let (again, _) = open_locked(&path).unwrap();
        drop(again);
        assert!(!path.with_extension("jsonl.lock").exists(), "no sibling lock file");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_missing_file_is_created_empty() {
        let path = temp("fresh");
        let _ = std::fs::remove_file(&path);
        let (_file, content) = open_locked(&path).unwrap();
        assert!(content.is_empty() && path.exists());
        std::fs::remove_file(&path).unwrap();
    }
}
