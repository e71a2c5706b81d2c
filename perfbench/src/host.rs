//! Host fingerprint, the memory-copy ceiling and the process's peak RSS.

use std::time::Instant;

use er_tensor::SimdBackend;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One line naming the CPU, its cores, the SIMD rung the kernels dispatch
/// to and the compiler that built the benchmark.
pub fn fingerprint() -> String {
    format!(
        "host: cpu=\"{}\" cores={} simd={:?} rustc=\"{}\"",
        cpu_model(),
        cores(),
        SimdBackend::detect(),
        env!("PERFBENCH_RUSTC")
    )
}

// `Timespec` and the clock id below are 64-bit Linux's.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU time through 64-bit Linux's clock_gettime");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has run, every thread summed, in seconds.
///
/// On a shared VM this excludes the time the process waited for a core
/// and the time the hypervisor gave its core to another guest (steal),
/// both of which a wall clock charges to whatever runs at that moment.
/// Cache and memory contention from neighbours still count.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through a pointer to a live local.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// STREAM-style copy bandwidth in GB/s (bytes read plus bytes written),
/// best of `trials`, over two arrays of `mib` MiB each. With arrays well
/// past the last-level cache this is the host's practical memory ceiling,
/// the figure `model.gather_gbps` reads against.
pub fn copy_gbps(mib: usize, trials: usize) -> f64 {
    let n = mib * (1 << 20) / 8;
    let src: Vec<u64> = (0..n as u64).collect();
    let mut dst = vec![0u64; n];
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let t = Instant::now();
        for (d, s) in dst.iter_mut().zip(&src) {
            *d = *s;
        }
        std::hint::black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert_eq!(dst[n - 1], src[n - 1], "copy loop must copy");
    (2 * n * 8) as f64 / best / 1e9
}
