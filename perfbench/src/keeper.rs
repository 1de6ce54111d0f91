//! Idle-priority spinners that keep every CPU of the host VM busy.
//!
//! On a virtual machine, a vCPU with nothing to run halts, and waking it
//! again goes through the host's scheduler. On a shared host that wakeup
//! shows up as steal time and adds milliseconds of jitter to every
//! sleep/wake hand-off between the client, the event loop and the shard
//! workers. One `SCHED_IDLE` spinner per CPU keeps the vCPUs running, so
//! wakeups stay inside the guest. A spinner yields every 200 pause
//! instructions: a pure spin let some woken threads wait for the next
//! scheduler tick (4 ms). When both are runnable, the guest scheduler
//! gives an idle-policy task a weight of 3 against 1024.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Running spinners; dropping stops and joins them.
pub struct Keeper {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<bool>>,
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Linux `SCHED_IDLE`.
const SCHED_IDLE: i32 = 5;

/// Move the calling thread to `SCHED_IDLE`; `false` if refused.
fn demote_self() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread, and `param` is a live,
    // properly laid out `struct sched_param` for the duration of the
    // call; the kernel only reads it.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

impl Keeper {
    /// One spinner per available CPU.
    pub fn start() -> Keeper {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !demote_self() {
                        // Never compete with the measured threads at
                        // normal priority.
                        return false;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..200 {
                            std::hint::spin_loop();
                        }
                        std::thread::yield_now();
                    }
                    true
                })
            })
            .collect();
        Keeper { stop, threads }
    }

    /// Stop and join; `true` if every spinner ran at idle priority.
    pub fn stop(mut self) -> bool {
        self.halt()
    }

    fn halt(&mut self) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        self.threads
            .drain(..)
            .map(|t| t.join().unwrap_or(false))
            .fold(true, |a, b| a & b)
    }
}

impl Drop for Keeper {
    fn drop(&mut self) {
        self.halt();
    }
}
