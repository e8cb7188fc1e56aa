//! Result files (`--csv`, `--json`, the figure CSVs): opened before the
//! work, replaced in place after it.
//!
//! [`OutputFile::open`] creates the file or opens the one already there
//! **without truncating it**, so a path that cannot be written is an
//! error before the first point is simulated, and a file from an earlier
//! run keeps its content until the new bytes exist.
//! [`OutputFile::replace`] then writes from offset 0 and cuts off
//! whatever a longer predecessor left behind. The bytes on disk are
//! those of `std::fs::write`; what differs is the price: truncating a
//! file that has data and closing it makes ext4 (`auto_da_alloc`) flush
//! the replacement at `close`, which a fresh process pays in full —
//! DESIGN.md "What a process costs" has the numbers. Like truncation
//! this is not atomic: a reader racing the write can see a mix, and a
//! crash mid-write leaves one.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A result file that is open for writing and still holds whatever it
/// held before.
#[derive(Debug)]
pub struct OutputFile {
    file: File,
    path: PathBuf,
}

impl OutputFile {
    /// Open `path` for writing, creating it if absent and leaving its
    /// content alone if present.
    ///
    /// # Errors
    ///
    /// `opening <path>: <why>` — a missing directory, a directory in the
    /// file's place, no permission.
    pub fn open(path: impl AsRef<Path>) -> Result<OutputFile, String> {
        let path = path.as_ref().to_path_buf();
        let file = File::options()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        Ok(OutputFile { file, path })
    }

    /// Make `bytes` the file's whole content. Only a regular file is
    /// ever cut to length: `/dev/stdout`, `/dev/null` and pipes have no
    /// length to set.
    ///
    /// # Errors
    ///
    /// `writing <path>: <why>`.
    pub fn replace(mut self, bytes: &[u8]) -> Result<(), String> {
        let written = bytes.len() as u64;
        self.file
            .write_all(bytes)
            .and_then(|()| self.file.metadata())
            .and_then(|meta| {
                if meta.is_file() && meta.len() > written {
                    self.file.set_len(written)
                } else {
                    Ok(())
                }
            })
            .map_err(|e| format!("writing {}: {e}", self.path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh path under the temp directory; removed on drop.
    struct Temp(PathBuf);
    impl Temp {
        fn new(tag: &str) -> Temp {
            let name = format!("minnet_output_{}_{tag}", std::process::id());
            let path = std::env::temp_dir().join(name);
            let _ = std::fs::remove_file(&path);
            Temp(path)
        }
    }
    impl Drop for Temp {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn replace(path: &Path, bytes: &[u8]) {
        OutputFile::open(path).unwrap().replace(bytes).unwrap();
    }

    #[test]
    fn creates_a_missing_file() {
        let t = Temp::new("create");
        replace(&t.0, b"offered,accepted\n");
        assert_eq!(std::fs::read(&t.0).unwrap(), b"offered,accepted\n");
    }

    #[test]
    fn shorter_over_longer_leaves_no_stale_tail() {
        let t = Temp::new("shorter");
        std::fs::write(&t.0, vec![b'x'; 10_000]).unwrap();
        replace(&t.0, b"short\n");
        assert_eq!(std::fs::read(&t.0).unwrap(), b"short\n");
    }

    #[test]
    fn longer_over_shorter_and_same_length() {
        let t = Temp::new("longer");
        std::fs::write(&t.0, b"ab").unwrap();
        replace(&t.0, b"a longer line\n");
        assert_eq!(std::fs::read(&t.0).unwrap(), b"a longer line\n");
        replace(&t.0, b"A LONGER LINE\n");
        assert_eq!(std::fs::read(&t.0).unwrap(), b"A LONGER LINE\n");
    }

    #[test]
    fn old_content_survives_until_replace() {
        let t = Temp::new("keeps");
        std::fs::write(&t.0, b"last run\n").unwrap();
        let out = OutputFile::open(&t.0).unwrap();
        assert_eq!(std::fs::read(&t.0).unwrap(), b"last run\n");
        out.replace(b"this run\n").unwrap();
        assert_eq!(std::fs::read(&t.0).unwrap(), b"this run\n");
    }

    #[test]
    fn unopenable_paths_fail_at_open() {
        let missing = std::env::temp_dir().join("minnet_output_no_such_dir/x.csv");
        let err = OutputFile::open(&missing).unwrap_err();
        assert!(err.starts_with("opening "), "{err}");
        assert!(err.contains("x.csv"), "{err}");
        let err = OutputFile::open(std::env::temp_dir()).unwrap_err();
        assert!(err.starts_with("opening "), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn a_device_is_written_and_not_cut() {
        replace(Path::new("/dev/null"), b"nowhere\n");
    }
}
