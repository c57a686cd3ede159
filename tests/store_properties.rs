//! Properties of the replicated store (`mc-store`): duplicated and
//! reordered client retries must be observationally identical to a
//! deduplicated sequential history (exactly-once), and snapshot/restore
//! must round-trip — both for the bare state machine and through a store
//! resumed from a snapshot.

use modular_consensus::runtime::CounterKey;
use modular_consensus::store::{
    CommandHandle, KvCommand, KvResponse, KvStore, ReplicatedStore, StateMachine, StoreError,
};
use proptest::prelude::*;

/// Bounded wait for a store response: a stalled store fails the property
/// with its `Debug` view (learned slots, applied commands, sequencers)
/// instead of hanging tier-1.
fn settle(
    store: &ReplicatedStore<KvStore>,
    handle: &CommandHandle<KvResponse>,
) -> Result<KvResponse, StoreError> {
    match handle.wait_timeout(std::time::Duration::from_secs(10)) {
        Err(StoreError::Timeout) => panic!("store stalled for 10 s: {store:?}"),
        answered => answered,
    }
}

/// One generated command, resolved against the reference machine at drive
/// time (so `expect_sel == 2` produces a CAS against the *current* value —
/// the case that actually swaps).
fn build_command(spec: (u8, u64, u64, u8), reference: &KvStore) -> KvCommand {
    let (op, key, value, expect_sel) = spec;
    match op {
        0 => KvCommand::Get { key },
        1 => KvCommand::Put { key, value },
        2 => KvCommand::Cas {
            key,
            expect: match expect_sel {
                0 => None,
                1 => Some(value),
                _ => reference.get(key),
            },
            value,
        },
        _ => KvCommand::Delete { key },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// However many duplicate copies of each command are delivered —
    /// immediately or reordered several commands late — the store's
    /// observable history equals applying each distinct command exactly
    /// once, in issue order, on a bare machine: same responses, same
    /// final state, `commands_applied` counting only distinct commands,
    /// and every late copy answered from the session cache (or refused
    /// as stale once its cache slot is overwritten).
    #[test]
    fn duplicated_reordered_retries_equal_deduplicated_sequential_history(
        clients in 1u64..4,
        script in prop::collection::vec((0u8..4, 0u64..6, 0u64..50, 0u8..3, 0u8..3), 1..28),
        sequencers in 1usize..4,
        rotate in any::<u64>(),
    ) {
        let mut store = ReplicatedStore::<KvStore>::builder()
            .sequencers(sequencers)
            .batch_commands(4)
            .snapshot_every(8)
            .build();
        let mut reference = KvStore::new();
        // Per-client last sequence number and its reference response —
        // the model of the store's session table.
        let mut last_seq = vec![0u64; clients as usize + 1];
        let mut distinct = 0u64;
        let mut dup_copies = 0u64;
        let mut stale_copies = 0u64;
        // Duplicate copies scheduled for later, possibly *after* their
        // session has moved on.
        let mut pending: Vec<(u64, u64, KvCommand)> = Vec::new();
        let mut cached = vec![None; clients as usize + 1];

        for (i, &(op, key, value, expect_sel, dups)) in script.iter().enumerate() {
            let client = (i as u64 % clients) + 1;
            let command = build_command((op, key, value, expect_sel), &reference);
            let expected = reference.apply(&command);
            let seq = last_seq[client as usize] + 1;
            last_seq[client as usize] = seq;
            cached[client as usize] = Some(expected);
            distinct += 1;

            let got = settle(&store, &store.submit(client, seq, command));
            prop_assert_eq!(got, Ok(expected), "command {} first delivery", i);

            for _ in 0..dups {
                pending.push((client, seq, command));
            }
            // Flush the retry backlog every third command, rotated so the
            // copies land out of submission order and across sessions.
            if i % 3 == 2 || i == script.len() - 1 {
                if !pending.is_empty() {
                    let pivot = (rotate as usize) % pending.len();
                    pending.rotate_left(pivot);
                }
                for (c, s, cmd) in pending.drain(..) {
                    let redelivered = settle(&store, &store.submit(c, s, cmd));
                    if s == last_seq[c as usize] {
                        dup_copies += 1;
                        let cache = cached[c as usize].expect("session has a cached response");
                        prop_assert_eq!(redelivered, Ok(cache), "late duplicate of ({}, {})", c, s);
                    } else {
                        stale_copies += 1;
                        prop_assert_eq!(
                            redelivered,
                            Err(StoreError::Stale { last_seq: last_seq[c as usize] }),
                            "stale duplicate of ({}, {})", c, s
                        );
                    }
                }
            }
        }

        // Exactly-once: the machine saw each distinct command once, and
        // every extra copy is accounted as duplicate or stale.
        let telemetry = store.telemetry();
        prop_assert_eq!(telemetry.count(CounterKey::CommandsApplied), distinct);
        prop_assert_eq!(telemetry.count(CounterKey::DuplicatesServed), dup_copies);
        prop_assert_eq!(telemetry.count(CounterKey::StaleCommands), stale_copies);
        let final_state = store.read_with(u64::MAX, |kv| kv.snapshot());
        prop_assert_eq!(final_state, reference.snapshot());
        store.shutdown();
    }

    /// `S::restore(&s.snapshot())` is behaviorally identical to `s`: the
    /// restored machine answers an arbitrary command tail exactly like
    /// the original — directly, and when the snapshot seeds a fresh
    /// [`ReplicatedStore`] via `restore_from`.
    #[test]
    fn snapshot_restore_round_trips_through_machine_and_store(
        history in prop::collection::vec((0u8..4, 0u64..8, 0u64..50, 0u8..3), 0..40),
        tail in prop::collection::vec((0u8..4, 0u64..8, 0u64..50, 0u8..3), 1..16),
    ) {
        let mut original = KvStore::new();
        for &spec in &history {
            let command = build_command(spec, &original);
            original.apply(&command);
        }
        let snapshot = original.snapshot();
        let mut restored = KvStore::restore(&snapshot);
        prop_assert_eq!(restored.snapshot(), snapshot.clone());

        let mut store = ReplicatedStore::<KvStore>::builder()
            .sequencers(2)
            .restore_from(&snapshot)
            .build();
        let mut session = store.client();
        for &spec in &tail {
            let command = build_command(spec, &restored);
            let expected_original = original.apply(&command);
            let expected_restored = restored.apply(&command);
            prop_assert_eq!(expected_original, expected_restored);
            prop_assert_eq!(settle(&store, &session.submit(command)), Ok(expected_restored));
        }
        prop_assert_eq!(original.snapshot(), restored.snapshot());
        prop_assert_eq!(store.read_with(1, |kv| kv.snapshot()), restored.snapshot());
        store.shutdown();
    }
}
