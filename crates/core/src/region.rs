//! Raw virtual-memory reservations: thin, audited wrappers over
//! `mmap`/`mprotect`/`munmap` used by every bounds-checking strategy.

use crate::stats;
use std::io;
use std::ptr::NonNull;

/// Host page size (4096 on the Linux/x86-64 targets this crate supports).
pub fn host_page_size() -> usize {
    // SAFETY: sysconf is always safe to call.
    let v = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
    if v <= 0 {
        4096
    } else {
        v as usize
    }
}

/// Memory protection for [`Reservation::protect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// No access: reads and writes fault.
    None,
    /// Read-only.
    Read,
    /// Read-write.
    ReadWrite,
}

impl Protection {
    fn flags(self) -> libc::c_int {
        match self {
            Protection::None => libc::PROT_NONE,
            Protection::Read => libc::PROT_READ,
            Protection::ReadWrite => libc::PROT_READ | libc::PROT_WRITE,
        }
    }
}

/// An owned anonymous virtual-memory reservation.
///
/// Dropping the reservation unmaps it. The mapping is `MAP_NORESERVE`, so
/// multi-gigabyte reservations cost only VMA bookkeeping until touched —
/// exactly the 8 GiB-per-instance trick the paper describes (§2.3).
#[derive(Debug)]
pub struct Reservation {
    base: NonNull<u8>,
    len: usize,
}

// SAFETY: the reservation is plain memory; synchronization of access is the
// responsibility of LinearMemory, which hands out raw pointers explicitly.
unsafe impl Send for Reservation {}
unsafe impl Sync for Reservation {}

impl Reservation {
    /// Reserve `len` bytes of anonymous memory with the given initial
    /// protection.
    ///
    /// # Errors
    /// Returns the underlying OS error if `mmap` fails (e.g. out of
    /// address space).
    pub fn new(len: usize, prot: Protection) -> io::Result<Reservation> {
        assert!(len > 0, "cannot reserve 0 bytes");
        if let Some(e) = lb_chaos::inject("core.mmap.reserve") {
            return Err(e);
        }
        // SAFETY: anonymous private mapping with no address hint.
        let p = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                prot.flags(),
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE,
                -1,
                0,
            )
        };
        if p == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        stats::count_mmap();
        Ok(Reservation {
            base: NonNull::new(p as *mut u8).expect("mmap returned non-null"),
            len,
        })
    }

    /// Base address of the reservation.
    pub fn base(&self) -> NonNull<u8> {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the reservation is empty (never true; reservations are
    /// non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside this reservation.
    pub fn contains(&self, addr: usize) -> bool {
        let b = self.base.as_ptr() as usize;
        addr >= b && addr < b + self.len
    }

    /// Change protection of `[offset, offset + len)`; both must be
    /// host-page aligned.
    ///
    /// This is the syscall whose process-wide VMA locking the paper blames
    /// for poor multithreaded scaling of the *mprotect* strategy.
    ///
    /// # Errors
    /// Returns the OS error if `mprotect` fails.
    ///
    /// # Panics
    /// Panics if the range is out of the reservation or misaligned.
    pub fn protect(&self, offset: usize, len: usize, prot: Protection) -> io::Result<()> {
        let ps = host_page_size();
        assert_eq!(offset % ps, 0, "offset must be page aligned");
        assert_eq!(len % ps, 0, "length must be page aligned");
        assert!(
            offset.checked_add(len).is_some_and(|e| e <= self.len),
            "protect range out of reservation"
        );
        if len == 0 {
            return Ok(());
        }
        // SAFETY: range checked above; base+offset is within our mapping.
        let rc = unsafe {
            libc::mprotect(
                self.base.as_ptr().add(offset) as *mut libc::c_void,
                len,
                prot.flags(),
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        stats::count_mprotect();
        Ok(())
    }

    /// Release physical pages in `[offset, offset + len)` back to the OS
    /// (MADV_DONTNEED) while keeping the mapping. Used when an instance's
    /// memory is recycled.
    ///
    /// # Errors
    /// Returns the OS error if `madvise` fails.
    pub fn discard(&self, offset: usize, len: usize) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        if let Some(e) = lb_chaos::inject("core.madvise.discard") {
            return Err(e);
        }
        assert!(
            offset.checked_add(len).is_some_and(|e| e <= self.len),
            "discard range out of reservation"
        );
        // SAFETY: range checked above.
        let rc = unsafe {
            libc::madvise(
                self.base.as_ptr().add(offset) as *mut libc::c_void,
                len,
                libc::MADV_DONTNEED,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        // SAFETY: we own this mapping.
        unsafe {
            libc::munmap(self.base.as_ptr() as *mut libc::c_void, self.len);
        }
        stats::count_munmap();
    }
}

/// Round `n` up to a multiple of the host page size.
pub fn round_up_to_page(n: usize) -> usize {
    let ps = host_page_size();
    (n + ps - 1) & !(ps - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_write_read() {
        let _serial = crate::test_lock();
        let r = Reservation::new(1 << 20, Protection::ReadWrite).unwrap();
        // SAFETY: mapped read-write.
        unsafe {
            *r.base().as_ptr() = 42;
            *r.base().as_ptr().add((1 << 20) - 1) = 7;
            assert_eq!(*r.base().as_ptr(), 42);
        }
        assert!(r.contains(r.base().as_ptr() as usize));
        assert!(!r.contains(r.base().as_ptr() as usize + (1 << 20)));
    }

    #[test]
    fn protect_enables_pages() {
        let _serial = crate::test_lock();
        let ps = host_page_size();
        let r = Reservation::new(16 * ps, Protection::None).unwrap();
        r.protect(0, 4 * ps, Protection::ReadWrite).unwrap();
        // SAFETY: first 4 pages now RW.
        unsafe {
            *r.base().as_ptr().add(4 * ps - 1) = 9;
        }
    }

    #[test]
    fn big_reservation_is_cheap() {
        let _serial = crate::test_lock();
        // An 8 GiB NORESERVE mapping must succeed without touching memory.
        let r = Reservation::new(8 << 30, Protection::None).unwrap();
        assert_eq!(r.len(), 8 << 30);
        assert!(!r.is_empty());
    }

    #[test]
    fn discard_zeroes_pages() {
        let _serial = crate::test_lock();
        let ps = host_page_size();
        let r = Reservation::new(4 * ps, Protection::ReadWrite).unwrap();
        // SAFETY: mapped RW.
        unsafe {
            *r.base().as_ptr() = 1;
            r.discard(0, ps).unwrap();
            assert_eq!(*r.base().as_ptr(), 0, "MADV_DONTNEED must zero anon pages");
        }
    }

    #[test]
    fn round_up() {
        let ps = host_page_size();
        assert_eq!(round_up_to_page(0), 0);
        assert_eq!(round_up_to_page(1), ps);
        assert_eq!(round_up_to_page(ps), ps);
        assert_eq!(round_up_to_page(ps + 1), 2 * ps);
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn protect_rejects_misaligned() {
        let r = Reservation::new(1 << 16, Protection::None).unwrap();
        let _ = r.protect(1, 4096, Protection::ReadWrite);
    }
}
