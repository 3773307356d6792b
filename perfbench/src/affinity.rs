//! Pins the benchmark — and every process it spawns — to one CPU.
//!
//! On a virtual machine an idle vCPU halts, and waking it goes through
//! the host's scheduler.  A closed loop wakes the other side at least
//! twice per flush, and a flush that fans out over several vCPUs waits
//! for the slowest of them, so with the work spread over vCPUs the
//! numbers follow the host's load rather than the program.  On one CPU
//! the side that blocks hands the CPU straight to the side it woke, and a
//! spawned `cr-serve` sees one CPU too, so it solves each flush serially.

use std::io;

/// CPUs the mask holds: glibc's `cpu_set_t` size.
const MASK_WORDS: usize = 16;

type Mask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut Mask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const Mask) -> i32;
}

fn get() -> io::Result<Mask> {
    let mut mask: Mask = [0; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), &mut mask) };
    if rc == 0 {
        Ok(mask)
    } else {
        Err(io::Error::last_os_error())
    }
}

fn set(mask: &Mask) -> io::Result<()> {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Pins the calling thread to the highest-numbered CPU it may run on
/// (CPU 0 usually takes more of the machine's interrupts) and returns
/// that CPU.  Threads and processes it starts afterwards inherit the pin.
pub fn pin_last_cpu() -> io::Result<usize> {
    let allowed = get()?;
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("no CPU in the affinity mask"))?;
    let mut one: Mask = [0; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    set(&one)?;
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_exactly_the_last_allowed_cpu() {
        // Affinity is per thread: a thread of its own keeps the pin away
        // from the other tests.
        std::thread::spawn(|| {
            let before = get().expect("read the mask");
            let cpu = pin_last_cpu().expect("pin");
            let now = get().expect("read the mask");
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(now[cpu / 64] >> (cpu % 64) & 1, 1);
            assert_eq!(before[cpu / 64] >> (cpu % 64) & 1, 1);
            assert!((cpu + 1..MASK_WORDS * 64).all(|c| before[c / 64] >> (c % 64) & 1 == 0));
        })
        .join()
        .expect("pin thread");
    }
}
