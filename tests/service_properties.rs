//! Properties of the pipelined batching service (`mc-runtime::service`):
//! the service's decisions must be observationally identical to the
//! engine's direct submit path, the configured [`BackpressurePolicy`]
//! must do exactly what it advertises under deterministic saturation
//! (workers paused, rings filling), and [`RetryPolicy`]'s seeded-jitter
//! backoff schedule must be reproducible, monotone, and capped.

use std::sync::Arc;
use std::time::Duration;

use modular_consensus::lab::{check_service_conformance, Protocol};
use modular_consensus::runtime::{
    BackpressurePolicy, ConsensusService, CounterKey, EngineError, RetryPolicy,
};
use proptest::prelude::*;

#[test]
fn service_decisions_match_direct_submit_across_seeds() {
    for seed in 0..20 {
        let proposals: Vec<(u64, u64)> = (0..48u64).map(|i| (i % 9, (i * 13 + seed) % 7)).collect();
        let decisions = check_service_conformance(Protocol::Multivalued(7), &proposals, seed)
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        // participants = 1 makes every decision deterministic: the solo
        // submitter's proposal is the only valid outcome on either leg.
        for (ix, &(_, proposal)) in proposals.iter().enumerate() {
            assert_eq!(decisions[ix], proposal, "seed {seed} proposal {ix}");
        }
    }
}

#[test]
fn binary_service_conforms_even_when_instance_ids_collide() {
    let proposals: Vec<(u64, u64)> = (0..40u64).map(|i| (i % 4, (i / 4) % 2)).collect();
    let decisions = check_service_conformance(Protocol::Binary, &proposals, 3)
        .unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(decisions.len(), proposals.len());
}

#[test]
fn shed_fires_at_exactly_max_queue_depth() {
    let bound = 5usize;
    let service = ConsensusService::builder()
        .n(1)
        .values(64)
        .participants(1)
        .workers(1)
        .backpressure(BackpressurePolicy::Shed {
            max_queue_depth: bound,
        })
        .build();
    // Saturate deterministically: with draining paused, admission alone
    // decides each proposal's fate.
    service.pause();
    let mut handles = Vec::new();
    for i in 0..bound as u64 {
        handles.push(
            service
                .submit(i, i)
                .unwrap_or_else(|e| panic!("proposal {i} below the bound must be admitted: {e}")),
        );
    }
    // Proposal `bound` is the first over the line, and every subsequent one
    // sheds too while the queue stays full.
    for i in bound as u64..bound as u64 + 3 {
        match service.submit(i, i) {
            Err(EngineError::Shed { max_queue_depth }) => assert_eq!(max_queue_depth, bound),
            other => panic!("proposal {i} should shed, got {other:?}"),
        }
    }
    assert_eq!(service.telemetry().count(CounterKey::ProposalsShed), 3);
    // Once the workers drain, the admitted proposals all decide.
    service.resume();
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.wait(), Ok(i as u64));
    }
}

#[test]
fn block_policy_never_loses_a_proposal() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: u64 = 100;
    // A ring far smaller than the offered load: Block must absorb the
    // overload by stalling producers, never by dropping.
    let service = Arc::new(
        ConsensusService::builder()
            .n(1)
            .values(PER_PRODUCER)
            .participants(1)
            .workers(1)
            .ring_capacity(8)
            .backpressure(BackpressurePolicy::Block)
            .build(),
    );
    let threads: Vec<_> = (0..PRODUCERS as u64)
        .map(|p| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                (0..PER_PRODUCER)
                    .map(|i| {
                        let handle = service
                            .submit(p * PER_PRODUCER + i, i)
                            .expect("Block admits every proposal");
                        handle.wait().expect("every proposal decides")
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    for thread in threads {
        let decisions = thread.join().unwrap();
        assert_eq!(decisions, (0..PER_PRODUCER).collect::<Vec<u64>>());
    }
    let telemetry = service.telemetry();
    assert_eq!(
        telemetry.count(CounterKey::ProposalsEnqueued),
        PRODUCERS as u64 * PER_PRODUCER
    );
    assert_eq!(telemetry.count(CounterKey::ProposalsRejected), 0);
    assert_eq!(telemetry.count(CounterKey::ProposalsShed), 0);
}

#[test]
fn handle_times_out_while_paused_then_decides_after_resume() {
    let service = ConsensusService::builder()
        .n(1)
        .values(8)
        .participants(1)
        .workers(1)
        .build();
    service.pause();
    let handle = service.submit(0, 5).unwrap();
    assert_eq!(
        handle.wait_timeout(Duration::from_millis(20)),
        Err(EngineError::Timeout)
    );
    assert_eq!(handle.poll(), None);
    service.resume();
    assert_eq!(handle.wait(), Ok(5));
    assert_eq!(handle.poll(), Some(Ok(5)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A policy's backoff schedule is a pure function of the policy: the
    /// jitter for retry `k` comes from `(seed, k)` alone, so recomputing
    /// the schedule — in any order, any number of times — yields the same
    /// delays.
    #[test]
    fn retry_schedule_is_deterministic_per_seed(
        seed in 0u64..u64::MAX,
        base_us in 1u64..10_000,
        cap_ms in 1u64..100,
        jitter_pct in 0u32..=100,
        retries in 1u32..24,
    ) {
        let policy = RetryPolicy {
            max_retries: retries,
            base_delay: Duration::from_micros(base_us),
            max_delay: Duration::from_millis(cap_ms),
            jitter: f64::from(jitter_pct) / 100.0,
            seed,
        };
        let forward = policy.schedule();
        let backward: Vec<Duration> =
            (0..retries).rev().map(|k| policy.delay_for(k)).rev().collect();
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(&forward, &policy.schedule());
    }

    /// The schedule never shrinks: each raw delay at least doubles until
    /// the cap, outgrowing any jitter the previous step added, and the cap
    /// clamps both.
    #[test]
    fn retry_schedule_is_monotone_nondecreasing(
        seed in 0u64..u64::MAX,
        base_us in 1u64..10_000,
        cap_ms in 1u64..100,
        jitter_pct in 0u32..=100,
    ) {
        let policy = RetryPolicy {
            max_retries: 24,
            base_delay: Duration::from_micros(base_us),
            max_delay: Duration::from_millis(cap_ms),
            jitter: f64::from(jitter_pct) / 100.0,
            seed,
        };
        let schedule = policy.schedule();
        for (k, pair) in schedule.windows(2).enumerate() {
            prop_assert!(
                pair[0] <= pair[1],
                "retry {k}: {:?} > {:?} in {schedule:?}",
                pair[0],
                pair[1]
            );
        }
    }

    /// No delay — jitter included, however deep the retry count — ever
    /// exceeds `max_delay`, and every delay is at least the raw
    /// exponential floor.
    #[test]
    fn retry_schedule_is_capped_at_max_delay(
        seed in 0u64..u64::MAX,
        base_us in 1u64..10_000,
        cap_ms in 1u64..100,
        jitter_pct in 0u32..=100,
        retry in 0u32..512,
    ) {
        let policy = RetryPolicy {
            max_retries: u32::MAX,
            base_delay: Duration::from_micros(base_us),
            max_delay: Duration::from_millis(cap_ms),
            jitter: f64::from(jitter_pct) / 100.0,
            seed,
        };
        let delay = policy.delay_for(retry);
        prop_assert!(delay <= policy.max_delay, "retry {retry}: {delay:?}");
        let raw_floor = policy
            .max_delay
            .min(Duration::from_nanos(
                u64::try_from(
                    policy
                        .base_delay
                        .as_nanos()
                        .saturating_mul(1u128 << retry.min(63)),
                )
                .unwrap_or(u64::MAX)
                .min(u64::try_from(policy.max_delay.as_nanos()).unwrap_or(u64::MAX)),
            ));
        prop_assert!(delay >= raw_floor, "retry {retry}: {delay:?} < {raw_floor:?}");
    }

    /// Different seeds give different jitter streams (for any policy with
    /// real jitter and a sub-cap base), while zero jitter collapses every
    /// seed to the same pure-exponential schedule.
    #[test]
    fn retry_jitter_stream_depends_exactly_on_the_seed(
        seed_a in 0u64..u64::MAX,
        seed_delta in 1u64..u64::MAX,
    ) {
        let seed_b = seed_a.wrapping_add(seed_delta);
        let template = RetryPolicy {
            max_retries: 16,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_secs(3600),
            jitter: 0.9,
            seed: seed_a,
        };
        let jittered_a = template.schedule();
        let jittered_b = RetryPolicy { seed: seed_b, ..template }.schedule();
        prop_assert_ne!(jittered_a, jittered_b);
        let flat_a = RetryPolicy { jitter: 0.0, ..template }.schedule();
        let flat_b = RetryPolicy { jitter: 0.0, seed: seed_b, ..template }.schedule();
        prop_assert_eq!(flat_a, flat_b);
    }
}
