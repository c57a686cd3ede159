//! Properties of the pipelined batching service (`mc-runtime::service`):
//! the service's decisions must be observationally identical to the
//! engine's direct submit path, and blocking admission must lose nothing
//! under saturation (a ring far smaller than the offered load, or workers
//! paused).

use std::sync::Arc;
use std::time::Duration;

use modular_consensus::lab::{check_service_conformance, Protocol};
use modular_consensus::runtime::{ConsensusService, CounterKey, EngineError};

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
            .shards(1)
            .ring_capacity(8)
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
}

#[test]
fn handle_times_out_while_paused_then_decides_after_resume() {
    let service = ConsensusService::builder()
        .n(1)
        .values(8)
        .participants(1)
        .shards(1)
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
