//! Per-node resource contention model.
//!
//! A node runs a set of tasks; each declares a [`TaskDemand`] — the
//! resources it would consume if running at full speed. Each tick the node
//! computes, for every task, a *rate scale* in `(0, 1]`: the fraction of its
//! nominal processing rate it actually achieves given contention. The model
//! combines:
//!
//! * **CPU time-slicing**: demands are served proportionally from the core
//!   pool; once the number of runnable threads exceeds the core count, an
//!   additional context-switch/scheduling overhead shrinks the effective
//!   pool superlinearly (the dominant cause of the paper's thrashing knee).
//! * **Memory oversubscription**: when resident working sets exceed node
//!   memory, a paging penalty `(mem/demand)^k` multiplies CPU efficiency —
//!   the classical thrashing of Denning that the paper cites.
//! * **Shared disk**: read+write bandwidth is shared, with a seek penalty
//!   as the number of concurrent streams grows (sequential scans degrade to
//!   semi-random access).
//!
//! Total node throughput as a function of task count therefore rises
//! (linear region), flattens (a resource saturates) and then falls
//! (overheads dominate) — the Fig. 1 curve, with the knee position set by
//! the per-task demand profile (map-heavy jobs have lighter tasks and thus a
//! later knee than reduce-heavy ones).

use serde::{Deserialize, Serialize};

/// Static capacities of one simulated machine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Physical cores available to tasks.
    pub cores: f64,
    /// Memory available to tasks (MB); OS/daemon reservation already
    /// subtracted.
    pub mem_mb: f64,
    /// Aggregate local-disk bandwidth shared by all streams (MB/s).
    pub disk_bw: f64,
    /// NIC bandwidth, each direction (MB/s). Consumed by the fabric model,
    /// carried here so one spec describes the whole machine.
    pub nic_bw: f64,
    /// Context-switch overhead coefficient (dimensionless; larger ⇒ the
    /// throughput curve falls faster beyond the knee).
    pub cs_coeff: f64,
    /// Exponent of the paging penalty once memory is oversubscribed.
    pub paging_exp: f64,
    /// Disk seek penalty coefficient per extra concurrent stream.
    pub seek_coeff: f64,
    /// Number of concurrent disk streams served at full sequential speed
    /// before the seek penalty starts.
    pub seek_free_streams: f64,
}

impl NodeSpec {
    /// The worker-node configuration of the paper's testbed: 4× quad-core
    /// 2.53 GHz (16 cores), 32 GB DDR3 (we reserve 4 GB for OS + DataNode +
    /// TaskTracker daemons), commodity local disks, 1 GbE.
    pub fn paper_worker() -> NodeSpec {
        NodeSpec {
            cores: 16.0,
            mem_mb: 28.0 * 1024.0,
            disk_bw: 220.0,
            nic_bw: 125.0,
            cs_coeff: 0.55,
            paging_exp: 2.0,
            seek_coeff: 0.06,
            seek_free_streams: 4.0,
        }
    }
}

/// Resources one task consumes when running at full speed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskDemand {
    /// Cores' worth of CPU at full speed.
    pub cpu_cores: f64,
    /// Runnable threads contributed to the scheduler (JVM worker + service
    /// threads; shuffle fetchers for reduces).
    pub threads: u32,
    /// Resident working set (MB).
    pub mem_mb: f64,
    /// Disk read bandwidth at full speed (MB/s).
    pub disk_read: f64,
    /// Disk write bandwidth at full speed (MB/s).
    pub disk_write: f64,
}

impl TaskDemand {
    /// A demand that consumes nothing (placeholder for barrier-blocked
    /// tasks that occupy a slot without computing).
    pub const IDLE: TaskDemand = TaskDemand {
        cpu_cores: 0.05,
        threads: 1,
        mem_mb: 200.0,
        disk_read: 0.0,
        disk_write: 0.0,
    };
}

/// CPU efficiency from thread-count overheads: 1.0 up to the core count,
/// then `1 / (1 + c·x^1.5)` where `x` is the relative oversubscription.
pub fn cpu_efficiency(spec: &NodeSpec, total_threads: f64) -> f64 {
    if total_threads <= spec.cores {
        1.0
    } else {
        let x = (total_threads - spec.cores) / spec.cores;
        1.0 / (1.0 + spec.cs_coeff * x.powf(1.5))
    }
}

/// Memory efficiency: 1.0 while resident sets fit, else a sharp paging
/// penalty `(capacity / demand)^k`.
pub fn memory_efficiency(spec: &NodeSpec, total_mem: f64) -> f64 {
    if total_mem <= spec.mem_mb {
        1.0
    } else {
        (spec.mem_mb / total_mem).powf(spec.paging_exp)
    }
}

/// Disk efficiency: sequential speed up to `seek_free_streams` concurrent
/// streams, then degrading with seek overhead.
pub fn disk_efficiency(spec: &NodeSpec, streams: f64) -> f64 {
    if streams <= spec.seek_free_streams {
        1.0
    } else {
        1.0 / (1.0 + spec.seek_coeff * (streams - spec.seek_free_streams))
    }
}

/// The contention one node's task set is under this tick: a CPU scale and
/// a disk scale shared by every task on the node. [`NodeScales::task`]
/// turns them into one task's rate scale, so a caller walking its own
/// task list needs no per-node output vector.
#[derive(Debug, Clone, Copy)]
pub struct NodeScales {
    cpu: f64,
    disk: f64,
}

/// No contention: the shares [`NodeScales::of`] gives a node with no
/// demands.
impl Default for NodeScales {
    fn default() -> Self {
        NodeScales {
            cpu: 1.0,
            disk: 1.0,
        }
    }
}

impl NodeScales {
    /// Size the node's CPU and disk shares for `demands`, the tasks it
    /// runs this tick. No demands means no contention: both scales are 1.
    pub fn of(spec: &NodeSpec, demands: &[TaskDemand]) -> NodeScales {
        let total_threads: f64 = demands.iter().map(|d| f64::from(d.threads)).sum();
        let total_mem: f64 = demands.iter().map(|d| d.mem_mb).sum();
        let total_cpu: f64 = demands.iter().map(|d| d.cpu_cores).sum();
        let total_disk: f64 = demands.iter().map(|d| d.disk_read + d.disk_write).sum();
        let disk_streams = demands
            .iter()
            .filter(|d| d.disk_read + d.disk_write > 0.0)
            .count() as f64;

        let cpu_capacity =
            spec.cores * cpu_efficiency(spec, total_threads) * memory_efficiency(spec, total_mem);
        let cpu = if total_cpu <= cpu_capacity || total_cpu == 0.0 {
            1.0
        } else {
            cpu_capacity / total_cpu
        };

        let disk_capacity = spec.disk_bw * disk_efficiency(spec, disk_streams);
        let disk = if total_disk <= disk_capacity || total_disk == 0.0 {
            1.0
        } else {
            disk_capacity / total_disk
        };
        NodeScales { cpu, disk }
    }

    /// The achieved rate scale, in `(0, 1]`, of a task with demand `d`:
    /// the tighter of the shares it draws on.
    pub fn task(&self, d: &TaskDemand) -> f64 {
        let mut s = 1.0_f64;
        if d.cpu_cores > 0.0 {
            s = s.min(self.cpu);
        }
        if d.disk_read + d.disk_write > 0.0 {
            s = s.min(self.disk);
        }
        s.max(1e-6) // never fully stall: forward progress guarantee
    }
}

/// Compute the achieved rate scale for every task on a node this tick.
///
/// Returns one scale in `(0, 1]` per entry of `demands`; an empty input
/// yields an empty output. Scales are *uniform across tasks with identical
/// demands* (proportional sharing), and the sum of granted CPU never
/// exceeds the (efficiency-adjusted) capacity.
pub fn allocate_node(spec: &NodeSpec, demands: &[TaskDemand]) -> Vec<f64> {
    let scales = NodeScales::of(spec, demands);
    demands.iter().map(|d| scales.task(d)).collect()
}

/// Aggregate throughput (sum of per-task scales × a nominal per-task rate of
/// 1.0) for `n` identical tasks — the quantity plotted in Fig. 1.
pub fn total_throughput(spec: &NodeSpec, demand: TaskDemand, n: usize) -> f64 {
    let demands = vec![demand; n];
    allocate_node(spec, &demands).iter().sum()
}

/// Locate the thrashing knee: the concurrency that maximises
/// [`total_throughput`] over `1..=max_n`.
pub fn thrashing_point(spec: &NodeSpec, demand: TaskDemand, max_n: usize) -> usize {
    let mut best = (1usize, f64::MIN);
    for n in 1..=max_n.max(1) {
        let t = total_throughput(spec, demand, n);
        if t > best.1 {
            best = (n, t);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light_task() -> TaskDemand {
        // map-heavy style: CPU-light, few threads, small footprint
        TaskDemand {
            cpu_cores: 2.0,
            threads: 2,
            mem_mb: 1200.0,
            disk_read: 25.0,
            disk_write: 2.0,
        }
    }

    fn heavy_task() -> TaskDemand {
        // reduce-heavy style: CPU/mem hungry (large sort buffers)
        TaskDemand {
            cpu_cores: 5.0,
            threads: 4,
            mem_mb: 3600.0,
            disk_read: 25.0,
            disk_write: 25.0,
        }
    }

    #[test]
    fn empty_demands_empty_scales() {
        let spec = NodeSpec::paper_worker();
        assert!(allocate_node(&spec, &[]).is_empty());
    }

    #[test]
    fn single_task_runs_at_full_speed() {
        let spec = NodeSpec::paper_worker();
        let s = allocate_node(&spec, &[light_task()]);
        assert_eq!(s, vec![1.0]);
    }

    #[test]
    fn scales_within_unit_interval() {
        let spec = NodeSpec::paper_worker();
        for n in 1..40 {
            for s in allocate_node(&spec, &vec![heavy_task(); n]) {
                assert!(s > 0.0 && s <= 1.0, "scale {s} out of range at n={n}");
            }
        }
    }

    #[test]
    fn identical_tasks_get_identical_scales() {
        let spec = NodeSpec::paper_worker();
        let scales = allocate_node(&spec, &vec![heavy_task(); 9]);
        for w in scales.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn cpu_grant_never_exceeds_capacity() {
        let spec = NodeSpec::paper_worker();
        for n in 1..40 {
            let demands = vec![heavy_task(); n];
            let scales = allocate_node(&spec, &demands);
            let granted: f64 = scales
                .iter()
                .zip(&demands)
                .map(|(s, d)| s * d.cpu_cores)
                .sum();
            assert!(
                granted <= spec.cores + 1e-9,
                "granted {granted} cores at n={n}"
            );
        }
    }

    #[test]
    fn throughput_rises_then_falls() {
        let spec = NodeSpec::paper_worker();
        let knee = thrashing_point(&spec, heavy_task(), 16);
        assert!(
            (2..=8).contains(&knee),
            "heavy-task knee at {knee}, expected a small slot count"
        );
        // strictly past the knee throughput must have declined
        let at_knee = total_throughput(&spec, heavy_task(), knee);
        let past = total_throughput(&spec, heavy_task(), knee + 6);
        assert!(past < at_knee, "throughput must fall past the knee");
        // and before the knee it rises
        if knee > 1 {
            let before = total_throughput(&spec, heavy_task(), knee - 1);
            assert!(before < at_knee + 1e-9);
        }
    }

    #[test]
    fn light_tasks_thrash_later_than_heavy() {
        let spec = NodeSpec::paper_worker();
        let light = thrashing_point(&spec, light_task(), 16);
        let heavy = thrashing_point(&spec, heavy_task(), 16);
        assert!(
            light > heavy,
            "map-heavy profile (light tasks) must have later knee: light={light} heavy={heavy}"
        );
    }

    #[test]
    fn paging_penalty_is_sharp() {
        let spec = NodeSpec::paper_worker();
        assert_eq!(memory_efficiency(&spec, spec.mem_mb), 1.0);
        let e = memory_efficiency(&spec, spec.mem_mb * 2.0);
        assert!((e - 0.25).abs() < 1e-12, "2x oversubscription -> 1/4");
    }

    #[test]
    fn cpu_efficiency_monotone_nonincreasing() {
        let spec = NodeSpec::paper_worker();
        let mut prev = f64::INFINITY;
        for t in 0..200 {
            let e = cpu_efficiency(&spec, t as f64);
            assert!(e <= prev + 1e-15);
            assert!(e > 0.0 && e <= 1.0);
            prev = e;
        }
    }

    #[test]
    fn disk_efficiency_behaviour() {
        let spec = NodeSpec::paper_worker();
        assert_eq!(disk_efficiency(&spec, 1.0), 1.0);
        assert_eq!(disk_efficiency(&spec, spec.seek_free_streams), 1.0);
        assert!(disk_efficiency(&spec, 20.0) < 1.0);
    }

    #[test]
    fn pure_cpu_task_unaffected_by_disk_saturation() {
        let spec = NodeSpec::paper_worker();
        let cpu_only = TaskDemand {
            cpu_cores: 1.0,
            threads: 1,
            mem_mb: 100.0,
            disk_read: 0.0,
            disk_write: 0.0,
        };
        let disk_hog = TaskDemand {
            cpu_cores: 0.5,
            threads: 1,
            mem_mb: 100.0,
            disk_read: 500.0,
            disk_write: 0.0,
        };
        let scales = allocate_node(&spec, &[cpu_only, disk_hog]);
        assert_eq!(scales[0], 1.0, "cpu-only task should not pay disk scale");
        assert!(scales[1] < 1.0, "disk hog exceeds disk bandwidth");
    }

    #[test]
    fn idle_demand_consumes_almost_nothing() {
        let spec = NodeSpec::paper_worker();
        let mut demands = vec![light_task(); 6];
        let base: f64 = allocate_node(&spec, &demands).iter().sum();
        demands.push(TaskDemand::IDLE);
        let with_idle: f64 = allocate_node(&spec, &demands)[..6].iter().sum();
        assert!((base - with_idle).abs() / base < 0.05);
    }

    proptest::proptest! {
        /// Scales are always in (0,1], identical demands get identical
        /// scales, and granted CPU/disk never exceed capacity — for
        /// arbitrary demand mixes.
        #[test]
        fn prop_allocation_feasible(
            demands in proptest::collection::vec(
                (0.1f64..8.0, 1u32..8, 100.0f64..6000.0, 0.0f64..60.0, 0.0f64..60.0),
                1..40,
            )
        ) {
            let spec = NodeSpec::paper_worker();
            let ds: Vec<TaskDemand> = demands
                .iter()
                .map(|&(cpu, threads, mem, dr, dw)| TaskDemand {
                    cpu_cores: cpu,
                    threads,
                    mem_mb: mem,
                    disk_read: dr,
                    disk_write: dw,
                })
                .collect();
            let scales = allocate_node(&spec, &ds);
            proptest::prop_assert_eq!(scales.len(), ds.len());
            let mut cpu_granted = 0.0;
            let mut disk_granted = 0.0;
            for (s, d) in scales.iter().zip(&ds) {
                proptest::prop_assert!(*s > 0.0 && *s <= 1.0);
                cpu_granted += s * d.cpu_cores;
                disk_granted += s * (d.disk_read + d.disk_write);
            }
            proptest::prop_assert!(cpu_granted <= spec.cores + 1e-6);
            proptest::prop_assert!(disk_granted <= spec.disk_bw + 1e-6);
        }

        /// Adding one more identical task never increases any existing
        /// task's scale (contention is monotone).
        #[test]
        fn prop_more_tasks_never_help(
            cpu in 0.5f64..6.0, threads in 1u32..6, mem in 500.0f64..4000.0,
            n in 1usize..20,
        ) {
            let spec = NodeSpec::paper_worker();
            let d = TaskDemand {
                cpu_cores: cpu,
                threads,
                mem_mb: mem,
                disk_read: 15.0,
                disk_write: 5.0,
            };
            let before = allocate_node(&spec, &vec![d; n])[0];
            let after = allocate_node(&spec, &vec![d; n + 1])[0];
            proptest::prop_assert!(after <= before + 1e-12);
        }
    }

    #[test]
    fn forward_progress_floor() {
        let spec = NodeSpec::paper_worker();
        // ludicrous oversubscription still yields positive scales
        let scales = allocate_node(&spec, &vec![heavy_task(); 500]);
        assert!(scales.iter().all(|s| *s >= 1e-6));
    }
}
