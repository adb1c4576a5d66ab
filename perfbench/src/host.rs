//! The host-speed reference and the facts that identify the host.
//!
//! Raw wall time on a shared virtual machine drifts in phases lasting
//! seconds. A small reference kernel, timed on the measuring thread
//! between ops, follows those phases; every end-to-end timing is divided
//! by the run's median kernel time (see [`crate::stats::Normaliser`]).
//! The kernel is benchmark code only: it calls nothing in the
//! repository's crates and never allocates after construction, so the
//! program's heap cannot speed it up or slow it down. It has to be
//! branchy and touch memory — a pure-ALU loop does not follow the
//! phases — so it is an open-addressing hash probe plus a float min-heap
//! whose working set (about 210 KiB) fits in L2.

use crate::splitmix;
use std::hint::black_box;
use std::time::Instant;

const TABLE_BITS: u32 = 14;
const TABLE_SLOTS: usize = 1 << TABLE_BITS;
const HEAP_CAP: usize = 1 << 11;
const KERNEL_OPS: u32 = 2_800;
/// Keys are drawn from a space a third larger than the op count, so
/// about a quarter of the probes hit an existing key.
const KEY_SPACE: u64 = KERNEL_OPS as u64 * 4 / 3;

/// The reference kernel: fixed work, allocated once.
pub struct RefKernel {
    keys: Box<[u64]>,
    vals: Box<[u32]>,
    heap: Box<[f64]>,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel {
            keys: vec![0; TABLE_SLOTS].into_boxed_slice(),
            vals: vec![0; TABLE_SLOTS].into_boxed_slice(),
            heap: vec![0.0; HEAP_CAP + 1].into_boxed_slice(),
        }
    }
}

impl RefKernel {
    /// One pass of identical work; the checksum keeps it from being
    /// optimised away.
    pub fn run(&mut self) -> u64 {
        self.keys.fill(0);
        let mut len = 0usize;
        let mut x: u64 = 0x5EED_CAFE;
        let mut acc = 0u64;
        for i in 0..KERNEL_OPS {
            x = splitmix(x);
            let key = x % KEY_SPACE + 1; // 0 marks an empty slot
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - TABLE_BITS)) as usize;
            loop {
                let k = self.keys[slot];
                if k == key {
                    self.vals[slot] += 1;
                    acc = acc.wrapping_add(self.vals[slot] as u64);
                    break;
                }
                if k == 0 {
                    self.keys[slot] = key;
                    self.vals[slot] = i;
                    break;
                }
                slot = (slot + 1) & (TABLE_SLOTS - 1);
            }
            let v = (x >> 11) as f64 / (1u64 << 53) as f64;
            heap_push(&mut self.heap, &mut len, v);
            if len > HEAP_CAP / 2 {
                acc ^= heap_pop(&mut self.heap, &mut len).to_bits();
            }
        }
        acc
    }
}

fn heap_push(heap: &mut [f64], len: &mut usize, v: f64) {
    let mut i = *len;
    *len += 1;
    heap[i] = v;
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[parent] <= heap[i] {
            break;
        }
        heap.swap(parent, i);
        i = parent;
    }
}

fn heap_pop(heap: &mut [f64], len: &mut usize) -> f64 {
    let top = heap[0];
    *len -= 1;
    heap[0] = heap[*len];
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut min = i;
        if l < *len && heap[l] < heap[min] {
            min = l;
        }
        if r < *len && heap[r] < heap[min] {
            min = r;
        }
        if min == i {
            return top;
        }
        heap.swap(i, min);
        i = min;
    }
}

/// Reference-kernel samples of one run.
#[derive(Default)]
pub struct HostRef {
    kernel: RefKernel,
    samples_ms: Vec<f64>,
}

impl HostRef {
    /// Warm the kernel, then time one call (ms) and keep the sample.
    pub fn sample(&mut self) {
        black_box(self.kernel.run());
        let t = Instant::now();
        black_box(self.kernel.run());
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}

/// What a reader needs to tell a slow host from a slow program.
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub l3_kib: Option<u64>,
}

impl HostFacts {
    pub fn probe() -> HostFacts {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            l3_kib: l3_kib(),
        }
    }

    pub fn l3_label(&self) -> String {
        match self.l3_kib {
            Some(kib) if kib >= 1024 && kib % 1024 == 0 => format!("{} MiB", kib / 1024),
            Some(kib) => format!("{kib} KiB"),
            None => "unknown".into(),
        }
    }
}

/// The `model name` line of `/proc/cpuinfo`.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// L3 size of CPU 0, KiB, from the level-3 entry of its sysfs caches.
fn l3_kib() -> Option<u64> {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8).find_map(|i| {
        let index = dir.join(format!("index{i}"));
        let level = std::fs::read_to_string(index.join("level")).ok()?;
        let size = std::fs::read_to_string(index.join("size")).ok()?;
        (level.trim() == "3").then(|| parse_kib(&size)).flatten()
    })
}

/// `"307200K"` → 307200, `"300M"` → 307200.
fn parse_kib(size: &str) -> Option<u64> {
    let size = size.trim();
    match size.strip_suffix('K') {
        Some(kib) => kib.parse().ok(),
        None => Some(size.strip_suffix('M')?.parse::<u64>().ok()? * 1024),
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it spawns afterwards, to the
/// CPU it is running on, so the reference kernel and the work it
/// normalises share one CPU. Returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's CPU.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16]; // a 1024-bit cpu_set_t
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte cpu_set_t and the
    // size passed is exactly its size; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_is_fixed() {
        let mut k = RefKernel::default();
        let a = k.run();
        assert_eq!(a, k.run(), "each call repeats the same work");
    }

    #[test]
    fn cache_sizes_parse_as_kib() {
        assert_eq!(parse_kib("307200K\n"), Some(307_200));
        assert_eq!(parse_kib("300M"), Some(307_200));
        assert_eq!(parse_kib("big"), None);
    }

    #[test]
    fn heap_pops_in_order() {
        let mut heap = vec![0.0; 8];
        let mut len = 0;
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            heap_push(&mut heap, &mut len, v);
        }
        let popped: Vec<f64> = (0..5).map(|_| heap_pop(&mut heap, &mut len)).collect();
        assert_eq!(popped, [1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}
