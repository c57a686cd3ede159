//! Voluntary context switches per closed-loop call, counted rather than
//! timed. Two `StoreClient`s calling in a closed loop on one CPU once fell
//! into a convoy: an applier answered a parked caller while its `applying`
//! flag was still up, the woken caller preempted it, found the flag up on
//! its next slot, left the slot to the applier and parked again, so every
//! call cost a context-switch pair. Wall-clock gates saw that only as
//! noise; the kernel's count of a thread's voluntary switches
//! (`voluntary_ctxt_switches` in `/proc/thread-self/status`) sees it as a
//! number that grows with the calls.
//!
//! The test runs only where the convoy forms, on one CPU:
//! `taskset -c 0 cargo test --release -p mc-store`, which `scripts/ci.sh`
//! runs five times. With a second CPU a caller may park legitimately while
//! its peer applies, so there is nothing to judge and the test returns at
//! once.

use std::sync::Barrier;

use mc_runtime::CounterKey;
use mc_store::{KvCommand, KvResponse, KvStore, ReplicatedStore};

/// Calls per client. A convoy starts when a tick preempts an applier
/// inside its apply, so a run needs enough ticks to meet one: at this
/// length the convoy formed in 11 of 11 runs, at 12 500 calls in 2 of 6.
const CALLS: u64 = 100_000;

/// Most voluntary switches the two clients may take together per 1 000
/// calls on one CPU. Over 200 000 calls, without the convoy they took
/// 10–23 in a release build and 141–159 in a debug build; in the convoy,
/// 3 975–17 027 in a release build (2-vCPU x86-64 host, pinned to one
/// CPU).
const MAX_SWITCHES_PER_1000_CALLS: u64 = 4;

/// This thread's voluntary context switches so far, or `None` where the
/// kernel does not report them.
fn voluntary_switches() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|count| count.trim().parse().ok())
}

#[test]
fn two_closed_loop_clients_do_not_convoy() {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    if cpus != 1 {
        eprintln!("{cpus} CPU(s): the convoy forms on one; run under `taskset -c 0` to judge");
        return;
    }
    if voluntary_switches().is_none() {
        eprintln!("no voluntary_ctxt_switches in /proc/thread-self/status: nothing to count");
        return;
    }
    let mut store = ReplicatedStore::<KvStore>::builder().build();
    let start = Barrier::new(2);
    let switches: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    let mut client = store.client();
                    start.wait();
                    let before = voluntary_switches().expect("read above");
                    for value in 0..CALLS {
                        let put = KvCommand::Put {
                            key: client.id(),
                            value,
                        };
                        let answer = client.call(put);
                        assert!(matches!(answer, Ok(KvResponse::Stored(_))), "{answer:?}");
                    }
                    voluntary_switches().expect("read above") - before
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let applied = store.telemetry().count(CounterKey::CommandsApplied);
    assert_eq!(applied, 2 * CALLS);
    store.shutdown();
    let total: u64 = switches.iter().sum();
    eprintln!(
        "{total} voluntary switches ({switches:?}) over {} calls on one CPU",
        2 * CALLS
    );
    let bound = 2 * CALLS / 1_000 * MAX_SWITCHES_PER_1000_CALLS;
    assert!(
        total <= bound,
        "{total} voluntary switches ({switches:?}) over {} closed-loop calls on one CPU; \
         at most {bound} expected: the callers are convoying",
        2 * CALLS
    );
}
