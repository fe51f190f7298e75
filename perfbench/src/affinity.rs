//! CPU pinning for the timed phases. Pinning a single-threaded phase
//! keeps it from migrating between the CPUs of a shared host, and
//! pinning the serving clients apart from the shard workers keeps a
//! spinning client off its worker's CPU. Every function degrades to
//! "not pinned".

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 CPU bits.
    pub type Mask = [u64; 16];

    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const Mask) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut Mask) -> i32;
    }
}

/// CPUs the calling thread may run on, ascending; empty if unknown.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: sys::Mask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<sys::Mask>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts thread `tid` (0 = the calling thread) to `cpus`. Threads
/// it spawns afterwards inherit the set. Returns whether it took.
#[cfg(target_os = "linux")]
pub fn set(tid: i32, cpus: &[usize]) -> bool {
    let mut mask: sys::Mask = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    if mask.iter().all(|&w| w == 0) {
        return false;
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed; the
    // call only reads it.
    unsafe { sys::sched_setaffinity(tid, std::mem::size_of::<sys::Mask>(), &mask) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn set(_tid: i32, _cpus: &[usize]) -> bool {
    false
}

/// Ids of this process's threads, ascending.
pub fn thread_ids() -> Vec<i32> {
    let mut ids: Vec<i32> = std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_a_thread_restricts_it_and_its_children() {
        let all = allowed_cpus();
        if all.is_empty() {
            return;
        }
        let first = all[0];
        std::thread::spawn(move || {
            assert!(set(0, &[first]));
            assert_eq!(allowed_cpus(), vec![first]);
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, vec![first], "spawned threads inherit the set");
        })
        .join()
        .unwrap();
        assert!(!set(0, &[]), "an empty set is refused");
        assert!(!thread_ids().is_empty());
    }
}
