//! The layer ladder. A store call hides everything beneath it, so the
//! traced run replays the stream the store generated — `slots × 2`
//! proposals, and the same command script — at each boundary in turn:
//! service hand-off, engine submit, consensus decide, register op, log
//! learn, bare state-machine apply. Each layer's self time is then its cost
//! minus its child's. The host probes stamp the environment: every number
//! above rides on how fast this box spins and wakes a thread.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

use mc_runtime::{AtomicRegister, Consensus, ConsensusEngine, ConsensusService, ReplicatedLog};
use mc_store::{KvStore, StateMachine};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::catalog::Workload;
use crate::child::{Beacon, ChildSpec, Trial};
use crate::script;

/// Batch codes the store's sequencers propose: slab capacity + the no-op.
const STORE_CODES: u64 = 1025;

/// Both sequencers' submissions for a slot must return one decision, and
/// it must be one of the two proposals. Returns 1 for a violation.
fn invalid(proposals: [u64; 2], decisions: [u64; 2]) -> u64 {
    u64::from(decisions[0] != decisions[1] || !proposals.contains(&decisions[0]))
}

fn ns_per(start: Instant, count: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / count.max(1) as f64
}

/// A fixed arithmetic loop: how fast the pinned core runs straight-line
/// code right now (frequency scaling, a noisy neighbour).
fn spin_ms(iterations: u64) -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Mean round trip of a two-thread condvar ping-pong, in microseconds: the
/// cost of one blocking hand-off there and back. A store call makes about
/// five hand-offs, so this bounds its latency from below.
fn wake_round_trip_us(round_trips: usize, beacon: &Beacon) -> f64 {
    let ball = Mutex::new(false);
    let turn = Condvar::new();
    // Hands the ball over once it is on `mine`'s side.
    let hit = |mine: bool| {
        let guard = ball.lock().expect("ping-pong mutex");
        let mut guard = turn
            .wait_while(guard, |side| *side != mine)
            .expect("ping-pong mutex");
        *guard = !mine;
        turn.notify_one();
    };
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| (0..round_trips).for_each(|_| hit(true)));
        for i in 0..round_trips {
            hit(false);
            if i % 256 == 0 {
                beacon.add(256);
            }
        }
    });
    start.elapsed().as_secs_f64() * 1e6 / round_trips as f64
}

pub fn host_free(beacon: &Beacon) -> Trial {
    beacon.ready();
    let mut trial = Trial::default();
    trial.layer("host.wake_rt_free_us", wake_round_trip_us(20_000, beacon));
    trial
}

pub fn ladder(spec: &ChildSpec, beacon: &Beacon) -> Trial {
    let mut trial = Trial::default();
    let scale = spec.scale.max(1) as u64;
    let slots = spec.slots.max(64);
    let stream = script::slot_script(spec.seed, slots, STORE_CODES);
    let mut failed = 0u64;
    beacon.ready();

    // Not scaled: the stamp must read the same at every benchmark size.
    trial.layer("host.spin_ms", spin_ms(16_000_000));
    beacon.add(1);
    trial.layer(
        "host.wake_rt_us",
        wake_round_trip_us((20_000 / scale as usize).max(500), beacon),
    );

    {
        // Through `black_box`: a register nothing else can reach is one
        // the compiler may demote to a plain variable.
        let register = AtomicRegister::new();
        let register = std::hint::black_box(&register);
        let pairs = (8_000_000 / scale) as usize;
        let start = Instant::now();
        for i in 0..pairs as u64 {
            register.write(i);
            std::hint::black_box(register.read());
        }
        trial.layer("register.op_ns", ns_per(start, pairs));
        beacon.add(1);
    }

    {
        let mut consensus = Consensus::builder().n(2).values(STORE_CODES).build();
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let start = Instant::now();
        for (i, &proposals) in stream.iter().enumerate() {
            let first = consensus.decide_as(0, proposals[0], &mut rng);
            let second = consensus.decide_as(1, proposals[1], &mut rng);
            consensus.reset();
            failed += invalid(proposals, [first, second]);
            if i % 1024 == 0 {
                beacon.add(1024);
            }
        }
        trial.layer("consensus.decide_ns", ns_per(start, 2 * slots));
    }

    {
        let engine = ConsensusEngine::builder()
            .n(2)
            .values(STORE_CODES)
            .participants(2)
            .build();
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let start = Instant::now();
        for (slot, &proposals) in stream.iter().enumerate() {
            let first = engine.submit(slot as u64, proposals[0], &mut rng);
            let second = engine.submit(slot as u64, proposals[1], &mut rng);
            failed += invalid(proposals, [first, second]);
            if slot % 1024 == 0 {
                beacon.add(1024);
            }
        }
        trial.layer("engine.submit_ns", ns_per(start, 2 * slots));
    }

    {
        let log = ReplicatedLog::new(2, STORE_CODES);
        let start = Instant::now();
        for (slot, proposals) in stream.iter().enumerate() {
            log.learn_decided(slot, proposals[0]);
            if log.get(slot) != Some(proposals[0]) {
                failed += 1;
            }
            log.compact_below(slot + 1);
        }
        trial.layer("log.learn_ns", ns_per(start, slots));
        beacon.add(1);
    }

    {
        let mut service = ConsensusService::builder()
            .n(2)
            .values(STORE_CODES)
            .participants(2)
            .seed(spec.seed)
            .build();
        // Depth 1: each proposal is submitted and waited for before the
        // next, as a sequencer does.
        let round_trip = |slot: usize, proposal: u64| {
            service
                .submit(slot as u64, proposal)
                .and_then(|handle| handle.wait())
        };
        let start = Instant::now();
        for (slot, &proposals) in stream.iter().enumerate() {
            match (
                round_trip(slot, proposals[0]),
                round_trip(slot, proposals[1]),
            ) {
                (Ok(first), Ok(second)) => failed += invalid(proposals, [first, second]),
                _ => failed += 1,
            }
            beacon.add(2);
        }
        trial.layer("service.roundtrip_ns", ns_per(start, 2 * slots));
        service.shutdown();
    }

    {
        let calls = (Workload::StoreClosedB1.lane_size() / spec.scale.max(1)).max(1);
        let commands: Vec<_> = (0..2)
            .flat_map(|c| script::closed_script(spec.seed, c, calls))
            .collect();
        let mut kv = KvStore::new();
        let start = Instant::now();
        for command in &commands {
            std::hint::black_box(kv.apply(command));
        }
        trial.layer("kv.apply_ns", ns_per(start, commands.len()));
        beacon.add(1);
    }

    trial.ops = (6 * slots) as u64;
    trial.attempted = trial.ops;
    trial.failed = failed;
    if failed > 0 {
        trial.violation = Some(format!("{failed} replayed slots decided invalidly"));
    }
    trial
}
