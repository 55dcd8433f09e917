//! CPU affinity for the timed phases, and idle-priority spinners.
//!
//! On a small shared box the same closed loop runs in two regimes: threads
//! packed on one CPU (wake-ups are context switches) or spread over two
//! (every wake-up is an inter-processor interrupt to an idle CPU, roughly
//! doubling a reactor round trip and adding tens of percent to a
//! system-call-heavy scan). Which regime a process lands in depends on what
//! the scheduler saw during set-up, so unpinned runs of one commit differ by
//! up to 1.5x. The benchmark therefore builds its fixtures on every CPU and
//! then [`pin`]s the threads of a timed phase: threads inherit the mask of
//! the thread that spawns them.
//!
//! The second source of run-to-run noise is the host. Every blocking wait in
//! the serving stack (the reactor's back-off sleep, a channel receive, a
//! socket read) lets the virtual CPU halt, and how long the host takes to
//! schedule a halted vCPU back in varies with its other tenants: the same
//! binary's reactor round trip read 230 us in one half hour and 300 us in the
//! next. While [`Idlers`] live, one thread per CPU spins at `SCHED_IDLE`
//! priority — it runs only when nothing else wants the CPU and is preempted
//! the moment anything does, but the vCPU never halts, and a timer or socket
//! wake-up is an interrupt on a running CPU instead of a trip through the
//! host. Only `read_remote`, which is made of such waits, uses them: a
//! spinning hyper-thread sibling costs a compute-bound thread 25-40 %.

#[cfg(target_os = "linux")]
mod imp {
    /// Words of the CPU mask (1024 CPUs, the kernel's default `CPU_SETSIZE`).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }

    /// Linux's `SCHED_IDLE`: runs only when no other class wants the CPU.
    const SCHED_IDLE: i32 = 5;

    /// Drop the calling thread to `SCHED_IDLE`. `false` if the kernel
    /// refuses, in which case the caller must not spin.
    pub fn become_idle_class() -> bool {
        // `struct sched_param` is one int; SCHED_IDLE requires priority 0.
        let param = [0i32];
        // SAFETY: `param` is a live `sched_param`-sized buffer the call only
        // reads; pid 0 names the calling thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, param.as_ptr()) == 0 }
    }

    /// The CPUs this process may run on, as captured at start-up.
    #[derive(Debug, Clone, Copy)]
    pub struct Allowed([u64; WORDS]);

    impl Allowed {
        /// Read the calling thread's mask (`None` if the kernel refuses).
        #[must_use]
        pub fn current() -> Option<Self> {
            let mut mask = [0u64; WORDS];
            // SAFETY: `mask` is a live, writable buffer of exactly the size
            // passed; pid 0 names the calling thread.
            let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
            (rc == 0).then_some(Self(mask))
        }

        /// How many CPUs the mask allows.
        #[must_use]
        pub fn cpus(&self) -> u32 {
            self.0.iter().map(|w| w.count_ones()).sum()
        }

        fn apply(mask: &[u64; WORDS]) -> bool {
            // SAFETY: `mask` is a live buffer of exactly the size passed;
            // pid 0 names the calling thread.
            unsafe { sched_setaffinity(0, size_of_val(mask), mask.as_ptr()) == 0 }
        }

        /// Let the calling thread (and threads it spawns from now on) run on
        /// every allowed CPU again.
        pub fn spread(&self) -> bool {
            Self::apply(&self.0)
        }

        /// Confine the calling thread (and threads it spawns from now on) to
        /// the `nth` allowed CPU, counting from the lowest and wrapping.
        pub fn pin(&self, nth: usize) -> bool {
            let count = self.cpus().max(1) as usize;
            self.singles()
                .nth(nth % count)
                .is_some_and(|one| one.spread())
        }

        /// One single-CPU mask per allowed CPU, lowest first.
        pub fn singles(&self) -> impl Iterator<Item = Allowed> + '_ {
            (0..WORDS * 64).filter_map(|cpu| {
                let (word, bit) = (cpu / 64, 1u64 << (cpu % 64));
                (self.0[word] & bit != 0).then(|| {
                    let mut one = [0u64; WORDS];
                    one[word] = bit;
                    Allowed(one)
                })
            })
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    /// Affinity is a Linux facility; elsewhere the phases run unpinned.
    #[derive(Debug, Clone, Copy)]
    pub struct Allowed;

    impl Allowed {
        #[must_use]
        pub fn current() -> Option<Self> {
            None
        }
        #[must_use]
        pub fn cpus(&self) -> u32 {
            0
        }
        pub fn spread(&self) -> bool {
            false
        }
        pub fn pin(&self, _nth: usize) -> bool {
            false
        }
        pub fn singles(&self) -> impl Iterator<Item = Allowed> + '_ {
            std::iter::empty()
        }
    }

    pub fn become_idle_class() -> bool {
        false
    }
}

pub use imp::Allowed;

/// Confine the calling thread to the `nth` CPU (wrapping, so `pin(1)` on a
/// one-CPU host is `pin(0)`). Best effort: a kernel that refuses leaves the
/// run unpinned and noisier, not wrong.
pub fn pin(nth: usize) {
    if let Some(allowed) = allowed() {
        allowed.pin(nth);
    }
}

/// Undo [`pin`].
pub fn spread() {
    if let Some(allowed) = allowed() {
        allowed.spread();
    }
}

/// The mask the process started with (captured once, before any pinning).
fn allowed() -> Option<Allowed> {
    static START: std::sync::OnceLock<Option<Allowed>> = std::sync::OnceLock::new();
    *START.get_or_init(Allowed::current)
}

/// CPUs the process started with. `available_parallelism` reads the calling
/// thread's current mask, so after [`pin`] it answers 1; this does not.
/// Call once before the first [`pin`] to capture the start-up mask.
pub fn start_cpus() -> usize {
    allowed().map_or_else(
        || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        |a| (a.cpus() as usize).max(1),
    )
}

/// One idle-priority spinner per CPU, alive until dropped.
#[derive(Debug)]
pub struct Idlers {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Idlers {
    /// Start the spinners. A CPU whose thread cannot be pinned or demoted
    /// to `SCHED_IDLE` simply gets none: a spinner at normal priority would
    /// compete with the program instead of keeping its CPU warm.
    #[must_use]
    pub fn start() -> Self {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let threads = allowed()
            .iter()
            .flat_map(Allowed::singles)
            .map(|cpu| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    if cpu.spread() && imp::become_idle_class() {
                        // Relaxed: the flag publishes nothing but itself.
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for Idlers {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pin_confines_to_one_cpu_and_spread_restores() {
        // On its own thread, so the test harness's other threads keep theirs.
        std::thread::spawn(|| {
            let before = Allowed::current().expect("affinity readable");
            assert!(before.pin(0));
            let packed = Allowed::current().expect("affinity readable");
            assert_eq!(packed.cpus(), 1);
            // A child inherits the packed mask.
            let inherited = std::thread::spawn(|| Allowed::current().expect("affinity readable"))
                .join()
                .unwrap();
            assert_eq!(format!("{packed:?}"), format!("{inherited:?}"));
            assert!(before.spread());
            let after = Allowed::current().expect("affinity readable");
            assert_eq!(before.cpus(), after.cpus());
        })
        .join()
        .unwrap();
    }
}
