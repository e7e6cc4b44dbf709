//! CPU time per thread and peak memory, read from `/proc/self`.
//!
//! The cost metrics divide the CPU time of the threads under test by the
//! work completed. Threads are told apart by their `comm`: the load
//! generator names its threads [`GEN_PREFIX`]`-N`, the endpoint under test
//! names its own (`ofchannel-contr`, `tokio-worker-N`, `tokio-reactor`).
//!
//! A thread's time comes from its CPU-time clock (`clock_gettime`, exact
//! to the nanosecond at the moment of the call), and from `stat`'s
//! `utime + stime` should the kernel refuse the clock. `/proc` alone is too
//! coarse. `stat` is sampled at the 100 Hz tick, and a thread that wakes on
//! a timer, works for a few milliseconds and sleeps again can fall between
//! the samples: the control loop's 7 ms defence ticks, 50 a second, read
//! as 50 ms/s of CPU in `stat` and as 330 ms/s on the clock and in
//! wall-clock spans. `schedstat` counts nanoseconds but, for a thread that
//! keeps running, only moves at the scheduler's tick: read in a loop it
//! advances in steps of 4 ms, a quarter of a 15 ms measurement.

use std::fs;

/// Name prefix of every load-generator thread.
pub const GEN_PREFIX: &str = "fg-gen";

/// Kernel clock ticks per second for `utime`/`stime` (USER_HZ). Linux
/// fixes this at 100 on every architecture the repository builds for.
pub const TICKS_PER_S: f64 = 100.0;

/// One thread's cumulative CPU time.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCpu {
    /// Thread id.
    pub tid: u32,
    /// Thread name (at most 15 bytes, as the kernel keeps it).
    pub comm: String,
    /// User + system time, seconds.
    pub cpu_s: f64,
}

/// Parses one `/proc/<pid>/task/<tid>/stat` line into `(comm, cpu seconds)`.
/// `comm` may itself contain spaces and parentheses, so the fields are
/// counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<(String, f64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_owned();
    // After ") ": state is field 3, utime field 14, stime field 15.
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((comm, (utime + stime) as f64 / TICKS_PER_S))
}

/// `struct timespec` of the 64-bit Linux targets the repository builds for.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID`: the calling thread's CPU-time clock.
const OWN_THREAD_CLOCK: i32 = 3;

/// The CPU-time clock of thread `tid` of this process, as
/// `pthread_getcpuclockid` derives it: the complement of the id above three
/// bits that say "scheduler clock of one thread".
fn thread_clock(tid: u32) -> i32 {
    (!(tid as i32) << 3) | 6
}

/// Seconds on `clock`; `None` when the kernel refuses it (the thread ended).
fn clock_s(clock: i32) -> Option<f64> {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable timespec for the length of the call.
    let ok = unsafe { clock_gettime(clock, &mut time) } == 0;
    ok.then(|| time.tv_sec as f64 + time.tv_nsec as f64 / 1e9)
}

/// Name and CPU seconds of thread `tid`, whose `/proc` directory is `dir`.
fn task_cpu(dir: &std::path::Path, tid: u32) -> Option<(String, f64)> {
    let (comm, ticks_s) = parse_stat(&fs::read_to_string(dir.join("stat")).ok()?)?;
    Some((comm, clock_s(thread_clock(tid)).unwrap_or(ticks_s)))
}

/// CPU time of every live thread of this process.
pub fn thread_cpu() -> Vec<ThreadCpu> {
    let mut threads = Vec::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return threads;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread may exit between the listing and the read.
        if let Some((comm, cpu_s)) = task_cpu(&entry.path(), tid) {
            threads.push(ThreadCpu { tid, comm, cpu_s });
        }
    }
    threads
}

/// A later reading of the threads in `snapshot`, without going through
/// `/proc` again: cheap enough to take many times a second beside the
/// system under test. A thread that has ended keeps its last reading.
pub fn reread(snapshot: &[ThreadCpu]) -> Vec<ThreadCpu> {
    snapshot
        .iter()
        .map(|t| ThreadCpu {
            cpu_s: clock_s(thread_clock(t.tid)).unwrap_or(t.cpu_s),
            ..t.clone()
        })
        .collect()
}

/// CPU seconds the system under test spent between two [`thread_cpu`]
/// snapshots. Generator threads are left out here: they live for one
/// phase and report their own time through [`thread_self_cpu_s`] before
/// they end (an ended thread is gone from `/proc/self/task`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuSplit {
    /// Every thread the generator did not create, the main thread (which
    /// only waits during a phase) excepted: the system under test.
    pub under_test: f64,
    /// Of `under_test`: the endpoint's control-loop thread.
    pub control_loop: f64,
    /// Of `under_test`: the runtime's worker threads.
    pub worker: f64,
    /// Of `under_test`: the runtime's reactor thread.
    pub reactor: f64,
}

/// Attributes the CPU consumed between `before` and `after`. Threads that
/// appear only in `after` started inside the interval and count in full;
/// threads that ended inside it are lost (phases keep every thread alive).
pub fn split(before: &[ThreadCpu], after: &[ThreadCpu]) -> CpuSplit {
    let main_tid = std::process::id();
    let mut out = CpuSplit::default();
    for t in after {
        let was = before
            .iter()
            .find(|b| b.tid == t.tid)
            .map_or(0.0, |b| b.cpu_s);
        let used = (t.cpu_s - was).max(0.0);
        if !t.comm.starts_with(GEN_PREFIX) && t.tid != main_tid {
            out.under_test += used;
            if t.comm.starts_with("ofchannel-contr") {
                out.control_loop += used;
            } else if t.comm.starts_with("tokio-worker") {
                out.worker += used;
            } else if t.comm.starts_with("tokio-reactor") {
                out.reactor += used;
            }
        }
    }
    out
}

/// Which CPUs the system under test and the load generator run on.
///
/// With the scheduler free to place five threads on two CPUs, identical
/// runs of the small-state workload settled into different steady states
/// (64 k to 95 k packet_in/s). Keeping the generator off the CPUs of the
/// system under test removes that: the last CPU is the generator's, the
/// others belong to the system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuPlan {
    /// Affinity mask of the threads under test.
    pub under_test: u64,
    /// Affinity mask of the generator threads.
    pub generator: u64,
}

impl CpuPlan {
    /// The plan for a machine with `nproc` CPUs numbered from 0; `None`
    /// with a single CPU (nothing to separate) or more than 64.
    pub fn for_cpus(nproc: usize) -> Option<CpuPlan> {
        if !(2..=64).contains(&nproc) {
            return None;
        }
        let generator = 1u64 << (nproc - 1);
        Some(CpuPlan {
            under_test: generator - 1,
            generator,
        })
    }

    /// The plan for this machine.
    pub fn detect() -> Option<CpuPlan> {
        CpuPlan::for_cpus(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
    }
}

/// Restricts the calling thread, and every thread it creates from now on,
/// to the CPUs set in `mask`. Returns whether the kernel accepted it; a
/// refusal (a container with a narrower cpuset) leaves placement to the
/// scheduler, which costs steadiness, not correctness.
pub fn pin_self(mask: u64) -> bool {
    // SAFETY: `mask` outlives the call and the size passed is its own, so
    // the kernel reads eight valid bytes; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// CPU seconds the calling thread has used since it started.
pub fn thread_self_cpu_s() -> f64 {
    clock_s(OWN_THREAD_CLOCK).unwrap_or(0.0)
}

/// Parses the `VmHWM` line of `/proc/<pid>/status` into megabytes.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process, megabytes.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    extern "C" {
        fn gettid() -> i32;
    }

    const CANNED: &str = "4242 (tokio-worker-0) S 1 4242 4242 0 -1 4194368 120 0 0 0 \
                          731 269 0 0 20 0 5 0 8812345 123456789 2345 18446744073709551615 \
                          1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn parses_utime_and_stime() {
        let (comm, cpu) = parse_stat(CANNED).expect("canned line parses");
        assert_eq!(comm, "tokio-worker-0");
        assert!(
            (cpu - 10.0).abs() < 1e-9,
            "731 + 269 ticks = 10 s, got {cpu}"
        );
    }

    #[test]
    fn thread_clocks() {
        // The clock derived from a thread id is that thread's own clock.
        while thread_self_cpu_s() < 0.02 {
            std::hint::black_box(0u64);
        }
        let before = thread_self_cpu_s();
        let threads = thread_cpu();
        let after = thread_self_cpu_s();
        // SAFETY: gettid takes no arguments and cannot fail.
        let own = unsafe { gettid() } as u32;
        let me = threads.iter().find(|t| t.tid == own).expect("listed");
        assert!(before >= 0.02 && before <= me.cpu_s && me.cpu_s <= after);
        // A later reading is no earlier; an ended thread keeps its value.
        let gone = ThreadCpu {
            tid: 0x3fff_fff0,
            comm: "gone".into(),
            cpu_s: 1.5,
        };
        let again = reread(&[me.clone(), gone.clone()]);
        assert!(again[0].cpu_s >= me.cpu_s);
        assert_eq!(again[1], gone);
    }

    #[test]
    fn comm_with_spaces_and_parens() {
        let line = CANNED.replace("(tokio-worker-0)", "(a b) c)");
        let (comm, cpu) = parse_stat(&line).expect("parses");
        assert_eq!(comm, "a b) c");
        assert!((cpu - 10.0).abs() < 1e-9);
        assert!(parse_stat("garbage").is_none());
        assert!(parse_stat("1 (x) S 1 2").is_none());
    }

    #[test]
    fn split_attributes_by_comm() {
        let t = |tid, comm: &str, cpu_s| ThreadCpu {
            tid,
            comm: comm.to_owned(),
            cpu_s,
        };
        let main = std::process::id();
        let before = vec![
            t(main, "fgbench", 1.0),
            t(900_001, "ofchannel-contr", 2.0),
            t(900_002, "fg-gen-0", 0.5),
        ];
        let after = vec![
            t(main, "fgbench", 1.5),
            t(900_001, "ofchannel-contr", 5.0),
            t(900_002, "fg-gen-0", 2.5),
            t(900_003, "tokio-worker-0", 1.0),
            t(900_004, "tokio-reactor", 0.25),
        ];
        let s = split(&before, &after);
        assert_eq!(s.control_loop, 3.0);
        assert_eq!(s.worker, 1.0);
        assert_eq!(s.reactor, 0.25);
        assert_eq!(s.under_test, 4.25, "main and generator threads excluded");
    }

    #[test]
    fn cpu_plan_keeps_the_generator_off_the_cpus_under_test() {
        assert_eq!(CpuPlan::for_cpus(1), None);
        assert_eq!(
            CpuPlan::for_cpus(2),
            Some(CpuPlan {
                under_test: 0b01,
                generator: 0b10
            })
        );
        let four = CpuPlan::for_cpus(4).expect("four CPUs");
        assert_eq!((four.under_test, four.generator), (0b0111, 0b1000));
        assert_eq!(four.under_test & four.generator, 0);
    }

    #[test]
    fn vm_hwm() {
        let status = "Name:\tfgbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert!(peak_rss_mb() > 0.0);
        assert!(!thread_cpu().is_empty());
    }
}
