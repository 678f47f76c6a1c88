//! CPU affinity of the benchmark's threads.
//!
//! Measured passes run on one CPU. On a small virtual machine a closed
//! loop whose client and server threads wake each other across CPUs sees
//! its latency tail move by 2x from run to run; on one CPU it repeats
//! within a few percent. The traced run's default-lane pass lifts the pin
//! again. Threads inherit their creator's affinity, and threads that
//! outlive a change (the HTTP service thread) call [`follow`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Words of a `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

type Mask = [u64; WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The mask every benchmark thread should run under, and its version.
static WANTED: Mutex<Option<Mask>> = Mutex::new(None);
static VERSION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SEEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn get() -> Option<Mask> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set(mask: &Mask) {
    // SAFETY: `mask` is a readable buffer of the size passed.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr());
    }
}

/// The lowest CPU of `mask` alone.
fn first_cpu(mask: &Mask) -> Option<Mask> {
    let word = mask.iter().position(|&w| w != 0)?;
    let mut one = [0u64; WORDS];
    one[word] = 1 << mask[word].trailing_zeros();
    Some(one)
}

fn publish(mask: Mask) {
    *WANTED.lock().unwrap_or_else(|e| e.into_inner()) = Some(mask);
    VERSION.fetch_add(1, Ordering::Release);
    follow();
}

/// The CPU set the process started with; pass it to [`restore`].
pub fn original() -> Option<[u64; WORDS]> {
    get()
}

/// Pins the calling thread, and every thread that follows, to the lowest
/// CPU it may run on.
pub fn pin() {
    if let Some(one) = get().as_ref().and_then(first_cpu) {
        publish(one);
    }
}

/// Returns the calling thread, and every thread that follows, to `mask`.
pub fn restore(mask: Option<[u64; WORDS]>) {
    if let Some(mask) = mask {
        publish(mask);
    }
}

/// Applies the wanted mask to the calling thread if it changed since this
/// thread last looked.
pub fn follow() {
    let version = VERSION.load(Ordering::Acquire);
    if SEEN.with(|seen| seen.replace(version)) == version {
        return;
    }
    if let Some(mask) = *WANTED.lock().unwrap_or_else(|e| e.into_inner()) {
        set(&mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cpu_keeps_one_bit() {
        let mut mask = [0u64; WORDS];
        mask[1] = 0b1100;
        let one = first_cpu(&mask).unwrap();
        assert_eq!(one[1], 0b0100);
        assert_eq!(one.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert!(first_cpu(&[0u64; WORDS]).is_none());
    }
}
