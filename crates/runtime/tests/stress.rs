//! Thread-runtime stress tests: many threads, many instances, scoped
//! spawning (no Arc juggling).

use mc_runtime::{Consensus, Election, TestAndSet, TypedConsensus};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::thread;

#[test]
fn sixteen_thread_consensus_storm() {
    let threads = 16;
    for instance in 0..40u64 {
        let consensus = Consensus::builder().n(threads).values(32).build();
        let decisions = thread::scope(|s| {
            let handles: Vec<_> = (0..threads as u64)
                .map(|t| {
                    let c = &consensus;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(instance * 1000 + t);
                        c.decide((t * 5 + instance) % 32, &mut rng)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .collect::<Vec<u64>>()
        });
        let first = decisions[0];
        assert!(
            decisions.iter().all(|&d| d == first),
            "instance {instance}: {decisions:?}"
        );
        assert!(
            (0..threads as u64).any(|t| (t * 5 + instance) % 32 == first),
            "instance {instance}: decided non-proposal {first}"
        );
    }
}

#[test]
fn conciliator_under_heavy_contention_is_always_valid() {
    // Without the fast path every decide starts in C₁, the impatient
    // conciliator, so twelve threads race its register at once; whatever
    // it hands on, each decision is some thread's proposal.
    let threads = 12;
    for instance in 0..100u64 {
        let consensus = Consensus::builder()
            .n(threads)
            .values(threads as u64)
            .fast_path(false)
            .build();
        let results = thread::scope(|s| {
            let handles: Vec<_> = (0..threads as u64)
                .map(|t| {
                    let c = &consensus;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(instance * 31 + t);
                        c.decide(t, &mut rng)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<u64>>()
        });
        for v in results {
            assert!(v < threads as u64);
        }
    }
}

#[test]
fn election_storm_has_single_leader_every_time() {
    let threads = 10;
    for instance in 0..60u64 {
        let election = Election::new(threads);
        let winners = thread::scope(|s| {
            (0..threads as u64)
                .map(|me| {
                    let e = &election;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(instance * 7 + me);
                        e.elect(me, &mut rng)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<u64>>()
        });
        let leader = winners[0];
        assert!(winners.iter().all(|&w| w == leader));
        assert!(leader < threads as u64);
    }
}

#[test]
fn tas_storm_has_exactly_one_winner_every_time() {
    let threads = 8;
    for instance in 0..60u64 {
        let tas = TestAndSet::new(threads);
        let wins = thread::scope(|s| {
            (0..threads as u64)
                .map(|me| {
                    let t = &tas;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(instance * 11 + me);
                        t.try_set(me, &mut rng)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<bool>>()
        });
        assert_eq!(
            wins.iter().filter(|&&w| w).count(),
            1,
            "instance {instance}"
        );
    }
}

#[test]
fn typed_consensus_storm_over_u16() {
    let threads = 6;
    for instance in 0..40u64 {
        let consensus = TypedConsensus::<u16>::new(threads);
        let decisions = thread::scope(|s| {
            (0..threads as u64)
                .map(|t| {
                    let c = &consensus;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(instance * 3 + t);
                        c.decide((t * 1000 + instance) as u16, &mut rng)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<u16>>()
        });
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }
}
