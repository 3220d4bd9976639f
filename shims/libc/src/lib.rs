#![warn(missing_docs)]
// C-style identifiers, matching the crates.io `libc` names exactly so the
// two crates are drop-in interchangeable.
#![allow(
    non_camel_case_types,
    non_upper_case_globals,
    clippy::upper_case_acronyms
)]

//! Offline stand-in for the crates.io `libc` crate.
//!
//! The build environment is offline, so — like the `rayon`/`proptest`/
//! `criterion` shims next door — this crate declares, by hand, exactly the
//! slice of the C library the workspace needs: the virtual-memory calls
//! behind the memory-mapped graph store (`parcc_graph::mmap`). Nothing
//! links against anything new; `std` already pulls in the system libc, and
//! these are plain `extern "C"` declarations resolved from it. Swap for
//! the crates.io `libc` when network is available.
//!
//! Only the POSIX surface used by the store is exposed: `mmap`/`munmap`,
//! the paging advice calls (`madvise`, `posix_fadvise`), the residency
//! probe (`mincore`), and `sysconf(_SC_PAGESIZE)`. Constants carry the
//! Linux values (the primary target); the handful that differ on other
//! unixes are `cfg`-split below.

/// Opaque C `void`.
pub type c_void = core::ffi::c_void;
/// C `int`.
pub type c_int = i32;
/// C `size_t`.
pub type size_t = usize;
/// C `off_t` (LP64).
pub type off_t = i64;
/// C `long`.
pub type c_long = i64;

/// `PROT_READ`: pages may be read.
pub const PROT_READ: c_int = 1;
/// `MAP_SHARED`: share the mapping with the page cache (read-only here).
pub const MAP_SHARED: c_int = 1;
/// `MAP_PRIVATE`: copy-on-write mapping.
pub const MAP_PRIVATE: c_int = 2;
/// `mmap` failure sentinel (`(void *) -1`).
pub const MAP_FAILED: *mut c_void = -1isize as *mut c_void;

/// `MADV_SEQUENTIAL`: expect sequential page references.
pub const MADV_SEQUENTIAL: c_int = 2;
/// `MADV_DONTNEED`: the range is not needed; drop resident pages.
pub const MADV_DONTNEED: c_int = 4;

/// `POSIX_FADV_DONTNEED` (Linux): drop cached file pages for the range.
pub const POSIX_FADV_DONTNEED: c_int = 4;

/// `sysconf` name for the VM page size.
#[cfg(target_os = "linux")]
pub const _SC_PAGESIZE: c_int = 30;
/// `sysconf` name for the VM page size (BSD/macOS value).
#[cfg(not(target_os = "linux"))]
pub const _SC_PAGESIZE: c_int = 29;

#[cfg(unix)]
extern "C" {
    /// POSIX `mmap(2)`.
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;

    /// POSIX `munmap(2)`.
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;

    /// POSIX `madvise(2)`.
    pub fn madvise(addr: *mut c_void, len: size_t, advice: c_int) -> c_int;

    /// `mincore(2)`: one status byte per page, bit 0 = resident.
    pub fn mincore(addr: *mut c_void, len: size_t, vec: *mut u8) -> c_int;

    /// POSIX `sysconf(3)`.
    pub fn sysconf(name: c_int) -> c_long;
}

#[cfg(target_os = "linux")]
extern "C" {
    /// `posix_fadvise(2)` — Linux-only here (absent on macOS).
    pub fn posix_fadvise(fd: c_int, offset: off_t, len: off_t, advice: c_int) -> c_int;
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn page_size_is_a_sane_power_of_two() {
        // SAFETY: sysconf is always safe to call with a valid name.
        let page = unsafe { sysconf(_SC_PAGESIZE) };
        assert!(page >= 4096, "page size {page}");
        assert!(
            page.count_ones() == 1,
            "page size {page} not a power of two"
        );
    }

    #[test]
    fn mmap_roundtrip_anonymous_file() {
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        let path = std::env::temp_dir().join(format!("libc-shim-{}.bin", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(&[7u8; 4096]).unwrap();
        f.sync_all().unwrap();
        let f = std::fs::File::open(&path).unwrap();
        // SAFETY: mapping a freshly written 4096-byte file read-only; fd is
        // valid for the duration of the call.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                4096,
                PROT_READ,
                MAP_SHARED,
                f.as_raw_fd(),
                0,
            )
        };
        assert_ne!(p, MAP_FAILED);
        // SAFETY: p maps 4096 readable bytes we just wrote.
        let first = unsafe { *(p as *const u8) };
        assert_eq!(first, 7);
        // SAFETY: p was returned by mmap with this exact length.
        unsafe {
            assert_eq!(madvise(p, 4096, MADV_SEQUENTIAL), 0);
            assert_eq!(munmap(p, 4096), 0);
        }
        let _ = std::fs::remove_file(&path);
    }
}
