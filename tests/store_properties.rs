//! Properties of the replicated store (`mc-store`): duplicated and
//! reordered client retries must be observationally identical to a
//! deduplicated sequential history (exactly-once), copies a session resends
//! while the original is in flight apply once, and concurrent sessions
//! appending to a log machine each get a position of their own in one
//! agreed order.

use modular_consensus::runtime::CounterKey;
use modular_consensus::store::{
    CommandHandle, KvCommand, KvStore, ReplicatedStore, StateMachine, StoreError,
};
use proptest::prelude::*;

/// Bounded wait for a store response: a stalled store fails the property
/// with its `Debug` view (learned slots, applied commands, proposers)
/// instead of hanging tier-1.
fn settle<S: StateMachine>(
    store: &ReplicatedStore<S>,
    handle: &CommandHandle<S::Response>,
) -> Result<S::Response, StoreError> {
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
        proposers in 1usize..4,
        rotate in any::<u64>(),
    ) {
        let mut store = ReplicatedStore::<KvStore>::builder()
            .proposers(proposers)
            .batch_commands(4)
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
        let final_state = store.read_with(KvStore::clone);
        prop_assert_eq!(final_state, reference);
        store.shutdown();
    }

    /// The session API's retry path: copies of a command that a session
    /// `resend`s under its `last_seq` from other threads, while the
    /// original is still in flight, land in the log beside it. Whichever
    /// copy is applied first applies the command; the original and every
    /// copy resolve with that one response, `duplicates_served` counts
    /// the copies, and the final state equals the sequential replay.
    #[test]
    fn in_flight_resends_apply_once_and_share_the_response(
        clients in 1usize..4,
        script in prop::collection::vec((0u8..4, 0u64..6, 0u64..50, 0u8..3, 0usize..3), 1..16),
        proposers in 1usize..4,
    ) {
        let mut store = ReplicatedStore::<KvStore>::builder()
            .proposers(proposers)
            .batch_commands(4)
            .build();
        let mut sessions: Vec<_> = (0..clients).map(|_| store.client()).collect();
        let mut reference = KvStore::new();
        let mut copies = 0u64;

        for (i, &(op, key, value, expect_sel, dups)) in script.iter().enumerate() {
            let session = &mut sessions[i % clients];
            let command = build_command((op, key, value, expect_sel), &reference);
            let expected = reference.apply(&command);
            let original = session.submit(command);
            let (seq, session) = (session.last_seq(), &*session);
            let resent: Vec<_> = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..dups)
                    .map(|_| scope.spawn(move || session.resend(seq, command)))
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            copies += dups as u64;
            prop_assert_eq!(settle(&store, &original), Ok(expected), "command {} original", i);
            for handle in &resent {
                prop_assert_eq!(settle(&store, handle), Ok(expected), "command {} copy", i);
            }
        }

        let telemetry = store.telemetry();
        prop_assert_eq!(telemetry.count(CounterKey::CommandsApplied), script.len() as u64);
        prop_assert_eq!(telemetry.count(CounterKey::DuplicatesServed), copies);
        prop_assert_eq!(telemetry.count(CounterKey::StaleCommands), 0);
        prop_assert_eq!(store.read_with(KvStore::clone), reference);
        store.shutdown();
    }
}

/// The replicated log as a state machine: `apply` appends and answers with
/// the position the command landed at.
#[derive(Default)]
struct AppendLog(Vec<u64>);

impl StateMachine for AppendLog {
    type Command = u64;
    type Response = usize;

    fn apply(&mut self, command: &u64) -> usize {
        self.0.push(*command);
        self.0.len() - 1
    }
}

/// Four concurrent sessions append 25 commands each, sessions 0 and 1 the
/// *same* 25 codes. A command is named by its session and sequence number,
/// not by its value, so all 100 get a position of their own (over 25 slots
/// or more, on instances the engine recycles as the run goes), a session's
/// positions grow in issue order, and replaying the agreed history on a
/// fresh machine puts every command where the store answered it was.
#[test]
fn concurrent_appends_each_get_a_position_of_their_own() {
    for seed in 0..10 {
        let mut store = ReplicatedStore::<AppendLog>::builder()
            .proposers(2)
            .batch_commands(4)
            .seed(seed)
            .build();
        let placed: Vec<Vec<(usize, u64)>> = std::thread::scope(|scope| {
            let sessions: Vec<_> = (0..4u64)
                .map(|s| {
                    let (store, mut session) = (&store, store.client());
                    scope.spawn(move || {
                        let append = |i| {
                            let command = s.max(1) * 100 + i;
                            let position = settle(store, &session.submit(command));
                            (position.expect("append answered"), command)
                        };
                        (0..25u64).map(append).collect()
                    })
                })
                .collect();
            sessions.into_iter().map(|s| s.join().unwrap()).collect()
        });
        let history = store.read_with(|log| log.0.clone());
        let mut positions: Vec<usize> = placed.iter().flatten().map(|&(p, _)| p).collect();
        positions.sort_unstable();
        assert_eq!(positions, (0..100).collect::<Vec<_>>(), "seed {seed}");
        for session in &placed {
            assert!(session.windows(2).all(|w| w[0].0 < w[1].0), "seed {seed}");
            assert!(session.iter().all(|&(p, command)| history[p] == command));
        }
        let mut replica = AppendLog::default();
        let replayed: Vec<usize> = history.iter().map(|c| replica.apply(c)).collect();
        assert_eq!((replayed, replica.0), (positions, history));
        assert!(store.learned_slots() >= 25, "seed {seed}: {store:?}");
        store.shutdown();
    }
}
