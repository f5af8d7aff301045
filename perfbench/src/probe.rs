//! Machine ceilings, runtime probes and small statistics helpers.

use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Median of a sample set (mean of the two middle values when even).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile, `q` in `[0, 1]`. NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 × 2 longs)
    // followed by 14 longs, of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a writable buffer with the size and alignment of
    // the C `struct rusage` on this target, which `getrusage` fills.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.0[4] as f64 / 1024.0
}

/// Fix glibc malloc's mmap and trim thresholds at their largest useful
/// values, before the sections allocate. By default glibc moves both as
/// chunks are freed, and whether a process then keeps the simulators'
/// large buffers or unmaps and re-faults them on every run (~15 000 page
/// faults, +40% on one `ServeBenchmark::run`) differs from process to
/// process even at one seed. Fixed, every process settles in the state
/// glibc's adaptation aims at: freed memory is reused, and the page
/// faults happen in warm-up. Returns whether both were set.
pub fn steady_allocator() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets allocator parameters; it is called
        // before the program starts any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

/// STREAM triad `a = b + s·c` over arrays far larger than the last-level
/// cache, split over `threads` scoped threads. Returns the median GB/s
/// over `reps` sweeps, counting 12 bytes per element (two reads, one
/// write).
pub fn triad_gbps(threads: usize, elems: usize, reps: usize) -> f64 {
    let b = vec![1.0f32; elems];
    let c = vec![2.0f32; elems];
    let mut a = vec![0.0f32; elems];
    let chunk = elems.div_ceil(threads);
    let mut rates = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let s = black_box(3.0f32);
        let t = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, &b), &c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + s * c;
                    }
                });
            }
        });
        let dt = secs(t);
        black_box(&mut a);
        // The first sweep faults the pages in; it is not a measurement.
        if rep > 0 {
            rates.push(12.0 * elems as f64 / dt / 1e9);
        }
    }
    median(&rates)
}

/// Cost of one empty parallel call of the `rayon` shim over `nproc`
/// items, µs (median of `reps`).
pub fn rayon_dispatch_us(reps: usize) -> f64 {
    let n = nproc();
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        (0..n).into_par_iter().for_each(|i| {
            black_box(i);
        });
        us.push(secs(t) * 1e6);
    }
    median(&us)
}
