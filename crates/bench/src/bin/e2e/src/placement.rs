//! Where threads run: clients on one CPU, the deployment on another.
//!
//! On the two-vCPU sizing box a wake-up that crosses CPUs costs a VM exit,
//! and the scheduler's choice of which client shares a core with which
//! server worker is metastable: left alone, the same binary and seed ran
//! `replicated_civ` at 4 000 or at 8 400 operations a second, sometimes
//! switching mid-run. A principal is never on its issuer's core, so the
//! benchmark fixes the honest placement: every request crosses from the
//! clients' CPU to the deployment's and back. Exactly one CPU each, however
//! many the box has, so the shape is the same everywhere and the scheduler
//! has no placement left to choose.

use std::sync::OnceLock;

/// Words of a CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    // From the C library `std` already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, lowest first; empty when the
/// kernel will not say.
#[cfg(target_os = "linux")]
fn affinity() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live array and `cpusetsize` its size in bytes;
    // pid 0 names the calling thread. The call only writes the mask.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0 };
    if !ok {
        return Vec::new();
    }
    (0..64 * MASK_WORDS)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread (and threads it spawns later) to `cpu`.
#[cfg(target_os = "linux")]
fn pin_current_thread(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array and `cpusetsize` is its
    // size in bytes; pid 0 names the calling thread. The call only reads
    // the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn affinity() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_cpu: usize) {}

/// The CPUs the process was allowed when it first asked: read once, before
/// any pinning narrows the mask.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(affinity)
}

/// `(clients' CPU, deployment's CPU)`: the first and the last allowed CPU.
/// `None` with fewer than two: nothing is pinned.
fn sides() -> Option<(usize, usize)> {
    match allowed_cpus() {
        [first, .., last] => Some((*first, *last)),
        _ => None,
    }
}

/// How many CPUs the process may run on (`nproc`).
pub fn cpus() -> usize {
    allowed_cpus().len().max(1)
}

/// Call before building the deployment: its server, ticker and worker
/// threads inherit the mask. A no-op on a single CPU.
pub fn deployment_side() {
    if let Some((_, deployment)) = sides() {
        pin_current_thread(deployment);
    }
}

/// Call before connecting clients: the client threads inherit the mask.
pub fn client_side() {
    if let Some((clients, _)) = sides() {
        pin_current_thread(clients);
    }
}

/// The placement in words, for the provenance header.
pub fn describe() -> String {
    match sides() {
        Some((clients, deployment)) => {
            format!("clients on cpu {clients}, deployment on cpu {deployment}")
        }
        None => "one cpu, unpinned".into(),
    }
}
