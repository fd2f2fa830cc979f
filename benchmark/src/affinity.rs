//! CPU affinity of the calling thread, which std does not expose.
//!
//! A thread's mask is inherited by the threads and processes it
//! starts afterwards, so pinning the thread that spawns the server and
//! the load thread puts all of them on one CPU.

use std::io;

/// Mask words: room for 1 024 CPUs, the kernel's usual `CONFIG_NR_CPUS`.
const WORDS: usize = 16;

type Mask = [u64; WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get() -> io::Result<Mask> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    if rc == 0 {
        Ok(mask)
    } else {
        Err(io::Error::last_os_error())
    }
}

fn set(mask: &Mask) -> io::Result<()> {
    // SAFETY: as in `get`; the kernel only reads the buffer.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The highest-numbered CPU in `mask`.
fn last_cpu(mask: &Mask) -> Option<usize> {
    let word = mask.iter().rposition(|&w| w != 0)?;
    Some(word * 64 + 63 - mask[word].leading_zeros() as usize)
}

/// The calling thread confined to one CPU; dropping it gives the
/// thread its former mask back.
#[derive(Debug)]
pub struct OneCpu {
    former: Mask,
    pub cpu: usize,
}

impl OneCpu {
    /// Confines the calling thread to the last CPU it may run on (the
    /// first one usually also serves the machine's interrupts).
    pub fn pin() -> io::Result<OneCpu> {
        let former = get()?;
        let cpu = last_cpu(&former).ok_or_else(|| io::Error::other("empty affinity mask"))?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one)?;
        Ok(OneCpu { former, cpu })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        let _ = set(&self.former);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_reads_the_highest_set_bit() {
        let mut m = [0u64; WORDS];
        assert_eq!(last_cpu(&m), None);
        m[0] = 0b1011;
        assert_eq!(last_cpu(&m), Some(3));
        m[2] = 1;
        assert_eq!(last_cpu(&m), Some(128));
    }

    #[test]
    fn pin_confines_the_thread_and_drop_restores_it() {
        let before = get().unwrap();
        let pinned = OneCpu::pin().unwrap();
        let now = get().unwrap();
        assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(last_cpu(&now), Some(pinned.cpu));
        // What a thread started now would inherit.
        let child = std::thread::spawn(get).join().unwrap().unwrap();
        assert_eq!(child, now);
        drop(pinned);
        assert_eq!(get().unwrap(), before);
    }
}
