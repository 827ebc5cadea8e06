//! Pluggable segment read backends: how spilled record bytes get from
//! a spool file into the decoder.
//!
//! [`ReadBackend::Buffered`] (the default) opens the file, seeks to the
//! extent, and reads it into an owned buffer — portable, Miri-friendly,
//! and what CI runs. [`ReadBackend::Mmap`] maps the file read-only and
//! hands the decoder a slice **borrowed from the page cache**: no copy
//! into userspace buffers, and bytes of an extent that the column mask
//! skips are never faulted in at all. The mapping is private and
//! read-only; it is created per read and unmapped when the returned
//! [`SegmentSlice`] drops, so compaction deleting a superseded file
//! cannot invalidate a live read (the inode stays alive until the map
//! drops). Only **atomic** files (sealed segments and compacted
//! generation files) are ever mapped — unsealed `seg-*.bin` tails can
//! be salvage-truncated concurrently, which would shrink a live
//! mapping, so they always go through the buffered path.
//!
//! The mmap path is a small hand-declared `extern "C"` binding (this
//! workspace builds offline, without the `libc` crate); on non-Unix
//! targets the enum variant exists but silently degrades to the
//! buffered implementation.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Deref;
use std::path::Path;

/// Cached global-registry handles for read-backend accounting. Which
/// backend serves an extent depends on configuration and file state
/// (only atomic files ever map), and how many extents are pulled depends
/// on replay chunking — so all three are flagged non-deterministic. The
/// *decoded* record/tuple counters over in `store.rs` stay deterministic
/// regardless of backend; `tests/backend_invariance.rs` pins that.
mod obs_handles {
    use ariadne_obs::static_counter;

    static_counter!(
        extent_reads,
        "store_extent_reads_total",
        "segment extent reads served by any backend",
        false
    );
    static_counter!(
        mmap_bytes,
        "store_mmap_bytes_total",
        "extent bytes served borrowed from read-only file mappings",
        false
    );
    static_counter!(
        buffered_bytes,
        "store_buffered_bytes_total",
        "extent bytes served by seek+read into owned buffers",
        false
    );
}

/// Which implementation [`crate::ProvStore`] layer reads use to pull
/// extent bytes from spool files.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ReadBackend {
    /// Seek + read into an owned buffer (the default; portable and
    /// Miri-safe).
    #[default]
    Buffered,
    /// Map the file read-only and decode borrowed from the page cache.
    /// Applied to atomic (sealed/compacted) files only; unsealed tails
    /// and non-Unix targets fall back to [`ReadBackend::Buffered`].
    Mmap,
}

/// Bytes of one segment extent, either owned or borrowed from a
/// read-only file mapping. Derefs to `[u8]`.
pub struct SegmentSlice {
    inner: SliceInner,
}

impl std::fmt::Debug for SegmentSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.inner {
            SliceInner::Owned(_) => "owned",
            #[cfg(unix)]
            SliceInner::Mapped { .. } => "mapped",
        };
        write!(f, "SegmentSlice({kind}, {} bytes)", self.len())
    }
}

enum SliceInner {
    Owned(Vec<u8>),
    #[cfg(unix)]
    Mapped {
        map: mapped::Mmap,
        offset: usize,
        len: usize,
    },
}

impl Deref for SegmentSlice {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.inner {
            SliceInner::Owned(v) => v,
            #[cfg(unix)]
            SliceInner::Mapped { map, offset, len } => &map.as_slice()[*offset..*offset + *len],
        }
    }
}

impl SegmentSlice {
    /// Wrap an already-owned buffer (in-memory segment bytes).
    pub fn owned(bytes: Vec<u8>) -> Self {
        SegmentSlice {
            inner: SliceInner::Owned(bytes),
        }
    }
}

/// Read `len` bytes at `offset` of `path` through `backend`. `atomic`
/// marks files written via temp-file + rename (sealed segments,
/// generation files): only those are eligible for mapping — an
/// unsealed tail can be truncated under a live map.
pub fn read_extent(
    backend: ReadBackend,
    path: &Path,
    offset: u64,
    len: usize,
    atomic: bool,
) -> std::io::Result<SegmentSlice> {
    obs_handles::extent_reads().inc();
    #[cfg(unix)]
    if backend == ReadBackend::Mmap && atomic && len > 0 {
        let map = mapped::Mmap::of_file(path)?;
        let end = offset as usize + len;
        if end > map.as_slice().len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "extent {offset}+{len} overruns the {}-byte file",
                    map.as_slice().len()
                ),
            ));
        }
        obs_handles::mmap_bytes().add(len as u64);
        ariadne_obs::trace::event(
            ariadne_obs::trace::Level::Trace,
            "store::read",
            "extent_mmap",
            &[("offset", offset.into()), ("len", len.into())],
        );
        return Ok(SegmentSlice {
            inner: SliceInner::Mapped {
                map,
                offset: offset as usize,
                len,
            },
        });
    }
    let _ = (backend, atomic);
    let mut file = File::open(path)?;
    if offset > 0 {
        file.seek(SeekFrom::Start(offset))?;
    }
    let mut buf = vec![0u8; len];
    file.read_exact(&mut buf)?;
    obs_handles::buffered_bytes().add(len as u64);
    ariadne_obs::trace::event(
        ariadne_obs::trace::Level::Trace,
        "store::read",
        "extent_buffered",
        &[("offset", offset.into()), ("len", len.into())],
    );
    Ok(SegmentSlice::owned(buf))
}

#[cfg(unix)]
mod mapped {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// A whole-file read-only private mapping, unmapped on drop.
    pub struct Mmap {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // The mapping is read-only and private; sharing immutable bytes
    // across threads is safe.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        pub fn of_file(path: &Path) -> std::io::Result<Mmap> {
            let file = File::open(path)?;
            let len = file.metadata()?.len() as usize;
            if len == 0 {
                return Ok(Mmap {
                    ptr: std::ptr::null_mut(),
                    len: 0,
                });
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len > 0 {
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "ariadne-reader-{tag}-{}",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn buffered_reads_extents() {
        let path = temp_file("buf", b"0123456789");
        let slice = read_extent(ReadBackend::Buffered, &path, 3, 4, true).unwrap();
        assert_eq!(&*slice, b"3456");
        let whole = read_extent(ReadBackend::Buffered, &path, 0, 10, false).unwrap();
        assert_eq!(&*whole, b"0123456789");
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn mmap_reads_extents_and_matches_buffered() {
        let data: Vec<u8> = (0..4096u32).flat_map(|x| x.to_le_bytes()).collect();
        let path = temp_file("map", &data);
        let mapped = read_extent(ReadBackend::Mmap, &path, 128, 1000, true).unwrap();
        let buffered = read_extent(ReadBackend::Buffered, &path, 128, 1000, true).unwrap();
        assert_eq!(&*mapped, &*buffered);
        // Non-atomic files never map (they may be truncated live).
        let tail = read_extent(ReadBackend::Mmap, &path, 0, 8, false).unwrap();
        assert!(matches!(tail.inner, SliceInner::Owned(_)));
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn mmap_overrun_is_typed() {
        let path = temp_file("overrun", b"short");
        let err = read_extent(ReadBackend::Mmap, &path, 2, 100, true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn mmap_zero_length_file() {
        let path = temp_file("empty", b"");
        let slice = read_extent(ReadBackend::Mmap, &path, 0, 0, true).unwrap();
        assert!(slice.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
