//! Pinning a run to one CPU.
//!
//! The server's reactor, its pool workers and the load clients hand every
//! request from thread to thread. Left to the scheduler on the 2-vCPU
//! reference host, where each hand-off lands — same CPU, or the other one
//! through an inter-processor interrupt the hypervisor has to deliver —
//! settles into a pattern that lasts seconds and differs from run to run:
//! `dashboard_reads` moved between 550 and 800 GETs/s from second to second
//! of one run, and ran 10 % slower whenever anything else in the VM wanted
//! a CPU. On one CPU every hand-off is a local context switch: the same
//! load reads 505 ± 12 GETs/s per second, with or without a busy neighbour
//! process, which the scheduler moves to the CPU left free. So a run
//! measures the program on one CPU, and no longer the placement of its
//! threads on two.

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the affinity mask: room for 1024 CPUs, as glibc's `cpu_set_t`.
const WORDS: usize = 16;

/// Restricts the calling thread, and every thread and process it starts
/// from now on, to the highest-numbered CPU it may run on (CPU 0 takes most
/// of the interrupts). Returns that CPU, or `None` where the kernel refuses;
/// the run goes on unpinned then and its stamp says so.
pub fn to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: the mask is a live, writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = highest_cpu(&allowed)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the mask is a live buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// The highest CPU set in an affinity mask.
fn highest_cpu(mask: &[u64]) -> Option<usize> {
    let word = mask.iter().rposition(|w| *w != 0)?;
    Some(word * 64 + 63 - mask[word].leading_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_cpu_of_a_mask() {
        assert_eq!(highest_cpu(&[0b11, 0]), Some(1));
        assert_eq!(highest_cpu(&[0b0101, 0]), Some(2));
        assert_eq!(highest_cpu(&[1, 1 << 3]), Some(67));
        assert_eq!(highest_cpu(&[0, 0]), None);
    }
}
