//! CPU/NUMA topology discovery and worker pinning.
//!
//! The runtime reads the machine shape from sysfs
//! (`/sys/devices/system/node/node*/cpulist`, falling back to
//! `/sys/devices/system/cpu/online`) and pins workers with
//! `sched_setaffinity(2)` — shard replicas land on one node each, so a
//! shard's model, tables and flow cache stay in node-local memory.
//!
//! Everything degrades gracefully: a box without NUMA sysfs entries (or a
//! non-Linux host) reports a single node, and a single-CPU machine — the CI
//! box this repository measures on — produces no pin assignments at all, so
//! the runtime runs exactly like the unpinned harness. Pinning failures are
//! reported, never fatal.

/// One NUMA node and the CPUs it owns.
#[derive(Clone, Debug)]
pub struct NumaNode {
    /// Node id (the `nodeN` suffix in sysfs).
    pub id: usize,
    /// CPU ids on this node, ascending.
    pub cpus: Vec<usize>,
}

/// The machine shape the runtime schedules over.
#[derive(Clone, Debug)]
pub struct Topology {
    nodes: Vec<NumaNode>,
}

impl Topology {
    /// Discovers the topology from sysfs. Fallback chain: per-node
    /// `cpulist` files → the flat online-CPU list as one node → a
    /// single node sized by `std::thread::available_parallelism`.
    pub fn discover() -> Self {
        Self::from_sysfs("/sys/devices/system")
    }

    /// [`Topology::discover`] against an alternate sysfs root (tests).
    fn from_sysfs(root: &str) -> Self {
        let mut nodes = Vec::new();
        if let Ok(entries) = std::fs::read_dir(format!("{root}/node")) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let Some(id) = name.strip_prefix("node").and_then(|s| s.parse::<usize>().ok())
                else {
                    continue;
                };
                if let Ok(list) = std::fs::read_to_string(entry.path().join("cpulist")) {
                    let cpus = parse_cpulist(&list);
                    if !cpus.is_empty() {
                        nodes.push(NumaNode { id, cpus });
                    }
                }
            }
        }
        nodes.sort_by_key(|n| n.id);
        if nodes.is_empty() {
            let cpus = std::fs::read_to_string(format!("{root}/cpu/online"))
                .map(|s| parse_cpulist(&s))
                .unwrap_or_default();
            return if cpus.is_empty() {
                Self::single_node(available())
            } else {
                Self { nodes: vec![NumaNode { id: 0, cpus }] }
            };
        }
        Self { nodes }
    }

    /// A synthetic one-node topology with CPUs `0..cpus` (fallback, tests).
    fn single_node(cpus: usize) -> Self {
        Self { nodes: vec![NumaNode { id: 0, cpus: (0..cpus.max(1)).collect() }] }
    }

    /// The NUMA nodes, ascending by id.
    pub fn nodes(&self) -> &[NumaNode] {
        &self.nodes
    }

    /// Total CPUs across all nodes.
    pub fn num_cpus(&self) -> usize {
        self.nodes.iter().map(|n| n.cpus.len()).sum()
    }

    /// Assigns a CPU to every worker of a `shards` × `workers_per_shard`
    /// grid: shard `s` maps to node `s % nodes` (replicas spread across
    /// sockets first — the point of sharding) and its workers take that
    /// node's CPUs round-robin.
    ///
    /// Returns one row per shard. On a machine with a single CPU the grid
    /// is empty — pinning everything onto one core would only serialise
    /// the pipeline behind the dispatcher, so the runtime degrades to
    /// unpinned scheduling instead (the single-core-CI fallback).
    pub fn assign(&self, shards: usize, workers_per_shard: usize) -> Vec<Vec<usize>> {
        if self.num_cpus() <= 1 {
            return Vec::new();
        }
        let mut next = vec![0usize; self.nodes.len()];
        (0..shards)
            .map(|s| {
                let node = &self.nodes[s % self.nodes.len()];
                let cursor = &mut next[s % self.nodes.len()];
                (0..workers_per_shard)
                    .map(|_| {
                        let cpu = node.cpus[*cursor % node.cpus.len()];
                        *cursor += 1;
                        cpu
                    })
                    .collect()
            })
            .collect()
    }
}

fn available() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Parses a sysfs cpulist (`"0-3,8,10-11"`) into CPU ids. Malformed pieces
/// are skipped — sysfs is trusted but a fallback must never panic.
fn parse_cpulist(s: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in s.trim().split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
                    if lo <= hi && hi - lo < 4096 {
                        cpus.extend(lo..=hi);
                    }
                }
            }
            None => {
                if let Ok(v) = part.parse::<usize>() {
                    cpus.push(v);
                }
            }
        }
    }
    cpus.sort_unstable();
    cpus.dedup();
    cpus
}

/// Pins the calling thread to one CPU. Returns whether the kernel accepted
/// the mask; `false` on failure or on non-Linux hosts (callers treat a
/// failed pin as "run unpinned", never as an error).
pub fn pin_current_thread(cpu: usize) -> bool {
    pin_impl(cpu)
}

#[cfg(target_os = "linux")]
fn pin_impl(cpu: usize) -> bool {
    // Raw sched_setaffinity(2): every Linux Rust binary already links libc,
    // and binding the one symbol directly keeps the workspace free of new
    // dependencies. Mask sized for 1024 CPUs, like glibc's cpu_set_t.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] |= 1u64 << (cpu % 64);
    // SAFETY: pid 0 targets the calling thread; `mask` outlives the call and
    // `cpusetsize` is exactly its byte length, so the kernel reads only the
    // 128 bytes we own. The syscall has no other memory effects.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_impl(_cpu: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpulist_parses_ranges_and_singles() {
        assert_eq!(parse_cpulist("0-3,8,10-11\n"), vec![0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(parse_cpulist("5"), vec![5]);
        assert_eq!(parse_cpulist(""), Vec::<usize>::new());
        // Malformed pieces are skipped, not fatal.
        assert_eq!(parse_cpulist("x,2-1,3"), vec![3]);
    }

    #[test]
    fn discover_never_returns_empty() {
        let topo = Topology::discover();
        assert!(!topo.nodes().is_empty());
        assert!(topo.num_cpus() >= 1);
    }

    #[test]
    fn synthetic_sysfs_round_trips() {
        let root = std::env::temp_dir().join(format!("nm-topo-{}", std::process::id()));
        std::fs::create_dir_all(root.join("node/node0")).unwrap();
        std::fs::create_dir_all(root.join("node/node1")).unwrap();
        std::fs::write(root.join("node/node0/cpulist"), "0-3\n").unwrap();
        std::fs::write(root.join("node/node1/cpulist"), "4-7\n").unwrap();
        let topo = Topology::from_sysfs(root.to_str().unwrap());
        assert_eq!(topo.nodes().len(), 2);
        assert_eq!(topo.num_cpus(), 8);
        // Shards spread across nodes first; workers round-robin the node.
        let grid = topo.assign(2, 2);
        assert_eq!(grid, vec![vec![0, 1], vec![4, 5]]);
        let grid = topo.assign(4, 1);
        assert_eq!(grid, vec![vec![0], vec![4], vec![1], vec![5]]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn single_cpu_degrades_to_unpinned() {
        let topo = Topology::single_node(1);
        assert!(topo.assign(2, 2).is_empty(), "1-CPU boxes must not pin");
    }

    #[test]
    fn pinning_reports_instead_of_failing() {
        // Whatever this box supports, the call must return (not crash) and
        // pinning to an absurd CPU id must report failure.
        let _ = pin_current_thread(0);
        assert!(!pin_current_thread(100_000));
    }
}
