//! Where task threads run: on the CPU their launcher is on.
//!
//! The engine never lets two task threads run at once, so a second CPU
//! cannot speed a run up — it can only turn every hand-off into a wake
//! of a thread on an *idle* CPU (an IPI and a halt-exit) instead of a
//! local context switch. The kernel cannot guess that; the engine
//! knows it. [`narrow_to_current_cpu`] therefore narrows the calling
//! thread's affinity mask to the one CPU it is on; threads spawned
//! while the guard lives inherit that mask and never migrate, and the
//! guard's drop gives the caller its own mask back.
//!
//! This is the crate's only `unsafe` code: three libc calls on Linux.
//! Any error — and any other target — yields a guard that does
//! nothing, so the run proceeds unpinned, exactly as before.

/// Restores the calling thread's affinity mask on drop (see
/// [`narrow_to_current_cpu`]). Drop it on the thread that made it.
pub(crate) struct Narrowed {
    saved: Option<imp::Mask>,
}

/// Narrow the calling thread's affinity to the CPU it is running on,
/// until the returned guard drops.
pub(crate) fn narrow_to_current_cpu() -> Narrowed {
    Narrowed {
        saved: imp::narrow(),
    }
}

impl Drop for Narrowed {
    fn drop(&mut self) {
        if let Some(mask) = self.saved.take() {
            imp::restore(&mask);
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use std::ffi::c_int;

    /// A fixed 1024-bit `cpu_set_t`, glibc's own size. A machine with
    /// more CPUs makes `sched_getaffinity` fail, which leaves the run
    /// unpinned.
    const WORDS: usize = 1024 / u64::BITS as usize;
    pub(super) type Mask = [u64; WORDS];

    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }

    /// `sched_setaffinity` on the calling thread (pid 0).
    fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` points to `size_of::<Mask>()` readable bytes
        // for the duration of the call, which only reads them.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    /// Narrow the calling thread to its current CPU; the mask to
    /// restore, or `None` if nothing was changed.
    pub(super) fn narrow() -> Option<Mask> {
        // SAFETY: no arguments and no preconditions; returns the CPU
        // number or -1.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        let mut saved: Mask = [0; WORDS];
        // SAFETY: `saved` is `size_of::<Mask>()` writable bytes, the
        // size passed; the kernel writes at most that many.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), saved.as_mut_ptr()) };
        let (word, bit) = (cpu / u64::BITS as usize, cpu % u64::BITS as usize);
        if got != 0 || word >= WORDS {
            return None;
        }
        let mut one: Mask = [0; WORDS];
        one[word] = 1 << bit;
        // Already confined to this CPU: nothing to narrow or restore.
        (saved != one && set(&one)).then_some(saved)
    }

    pub(super) fn restore(mask: &Mask) {
        // An error here cannot be acted on (this runs in `Drop`); the
        // thread then stays on the one CPU its children share.
        let _ = set(mask);
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub(super) type Mask = ();

    pub(super) fn narrow() -> Option<Mask> {
        None
    }

    pub(super) fn restore(_: &Mask) {}
}
