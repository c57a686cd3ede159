//! Seeded input scripts. `--seed` drives every command, key, value and sim
//! seed; the program under test receives only what is generated here, and
//! the same seed always generates the same inputs.

use mc_store::KvCommand;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Keys each closed-loop client owns. Ranges are disjoint, so a client's
/// private reference map determines every response it must see.
pub const KEYS_PER_CLIENT: u64 = 1024;
/// Values are drawn from a small space so a `Cas` expectation sometimes holds.
const VALUE_SPACE: u64 = 16;

/// `store_open_sat` producer shape: `submit_batch` chunk, in-flight handle
/// window, and sessions cycled per producer. The session table allows one
/// command in flight per session, so a session may be reused only after
/// more than `OPEN_WINDOW + OPEN_CHUNK` later commands were submitted.
pub const OPEN_CHUNK: usize = 1024;
pub const OPEN_WINDOW: usize = 16 * 1024;
pub const OPEN_SESSIONS: u64 = 32 * 1024;

/// `service_pipelined` chunk: proposals per `submit_batch`.
pub const SERVICE_CHUNK: usize = 64;
/// Reads timed together as one block in `store_read_mix`: `Instant`
/// overhead is about the cost of the ~100ns read itself.
pub const READ_BLOCK: usize = 16;

/// An independent generator for `(seed, stream, lane)`: streams separate the
/// workloads, lanes the clients within one.
pub fn rng_for(seed: u64, stream: u64, lane: u64) -> SmallRng {
    SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream << 32)
            .wrapping_add(lane),
    )
}

/// One command from the 50/35/10/5 Get/Put/Cas/Delete mix on `key`.
fn mixed_command(rng: &mut SmallRng, key: u64) -> KvCommand {
    match rng.random_range(0u32..100) {
        0..=49 => KvCommand::Get { key },
        50..=84 => KvCommand::Put {
            key,
            value: rng.random_range(0..VALUE_SPACE),
        },
        85..=94 => KvCommand::Cas {
            key,
            expect: Some(rng.random_range(0..VALUE_SPACE)),
            value: rng.random_range(0..VALUE_SPACE),
        },
        _ => KvCommand::Delete { key },
    }
}

fn owned_key(rng: &mut SmallRng, client: u64) -> u64 {
    client * KEYS_PER_CLIENT + rng.random_range(0..KEYS_PER_CLIENT)
}

/// `store_closed_b1`: `calls` mixed commands on keys `client` owns.
pub fn closed_script(seed: u64, client: u64, calls: usize) -> Vec<KvCommand> {
    let mut rng = rng_for(seed, 1, client);
    (0..calls)
        .map(|_| {
            let key = owned_key(&mut rng, client);
            mixed_command(&mut rng, key)
        })
        .collect()
}

/// `store_open_sat`: producer `producer`'s command stream. Command `i` goes
/// to session `i mod OPEN_SESSIONS` with sequence number
/// `1 + i / OPEN_SESSIONS` on the key equal to the session's client id, so
/// no two sessions share a key and every response is determined by the
/// session's own history. Cloning the script replays it (the verifier's
/// copy).
#[derive(Debug, Clone)]
pub struct OpenScript {
    rng: SmallRng,
    first_client: u64,
    next: u64,
    len: u64,
}

impl OpenScript {
    pub fn new(seed: u64, producer: u64, len: u64) -> OpenScript {
        OpenScript {
            rng: rng_for(seed, 2, producer),
            first_client: 1 + producer * OPEN_SESSIONS,
            next: 0,
            len,
        }
    }

    /// Index of `client`'s session within this producer's range.
    pub fn session_index(&self, client: u64) -> usize {
        (client - self.first_client) as usize
    }
}

impl Iterator for OpenScript {
    type Item = (u64, u64, KvCommand);

    fn next(&mut self) -> Option<(u64, u64, KvCommand)> {
        if self.next == self.len {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let client = self.first_client + i % OPEN_SESSIONS;
        let seq = i / OPEN_SESSIONS + 1;
        Some((client, seq, mixed_command(&mut self.rng, client)))
    }
}

/// One `store_read_mix` iteration: a write, then `READ_BLOCK` keys to read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadMixStep {
    pub write: KvCommand,
    pub reads: [u64; READ_BLOCK],
}

/// `store_read_mix`: every key is one `client` owns, so each read must
/// return what the client's own last write left there.
pub fn read_mix_script(seed: u64, client: u64, iterations: usize) -> Vec<ReadMixStep> {
    let mut rng = rng_for(seed, 3, client);
    (0..iterations)
        .map(|_| {
            let key = owned_key(&mut rng, client);
            let write = match rng.random_range(0u32..100) {
                0..=69 => KvCommand::Put {
                    key,
                    value: rng.random_range(0..VALUE_SPACE),
                },
                70..=89 => KvCommand::Cas {
                    key,
                    expect: Some(rng.random_range(0..VALUE_SPACE)),
                    value: rng.random_range(0..VALUE_SPACE),
                },
                _ => KvCommand::Delete { key },
            };
            let mut reads = [0u64; READ_BLOCK];
            for slot in &mut reads {
                *slot = owned_key(&mut rng, client);
            }
            ReadMixStep { write, reads }
        })
        .collect()
}

/// `service_pipelined`: `(instance id, proposal)` pairs; producers use
/// disjoint id ranges and each instance has one participant.
pub fn service_script(seed: u64, producer: u64, proposals: usize) -> Vec<(u64, u64)> {
    let mut rng = rng_for(seed, 4, producer);
    let base = producer * proposals as u64;
    (0..proposals as u64)
        .map(|i| (base + i, rng.random_range(0..2u64)))
        .collect()
}

/// The stream the store hides: per log slot, what its two sequencers
/// propose (one a batch code, one the no-op), replayed at the service,
/// engine and consensus boundaries in turn.
pub fn slot_script(seed: u64, slots: usize, codes: u64) -> Vec<[u64; 2]> {
    let mut rng = rng_for(seed, 5, 0);
    (0..slots)
        .map(|_| [1 + rng.random_range(0..codes - 1), 0])
        .collect()
}

/// Seeds of the sim runs of one trial.
pub fn sim_seeds(seed: u64, runs: usize) -> Vec<u64> {
    let mut rng = rng_for(seed, 6, 0);
    (0..runs).map(|_| rng.random_range(0..u64::MAX)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_for_a_seed() {
        assert_eq!(closed_script(7, 1, 500), closed_script(7, 1, 500));
        assert_ne!(closed_script(7, 1, 500), closed_script(8, 1, 500));
        assert_ne!(closed_script(7, 0, 500), closed_script(7, 1, 500));
        assert_eq!(read_mix_script(7, 0, 100), read_mix_script(7, 0, 100));
        assert_eq!(service_script(7, 1, 300), service_script(7, 1, 300));
        assert_eq!(slot_script(7, 300, 1025), slot_script(7, 300, 1025));
        assert_eq!(sim_seeds(7, 50), sim_seeds(7, 50));
        assert_ne!(sim_seeds(7, 50), sim_seeds(9, 50));
        let a: Vec<_> = OpenScript::new(7, 1, 5000).collect();
        let b: Vec<_> = OpenScript::new(7, 1, 5000).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5000);
    }

    #[test]
    fn closed_clients_stay_on_their_own_keys() {
        for client in 0..2u64 {
            for command in closed_script(3, client, 2000) {
                let (KvCommand::Get { key }
                | KvCommand::Put { key, .. }
                | KvCommand::Cas { key, .. }
                | KvCommand::Delete { key }) = command;
                assert_eq!(key / KEYS_PER_CLIENT, client);
            }
        }
        for step in read_mix_script(3, 1, 200) {
            assert!(step.reads.iter().all(|k| k / KEYS_PER_CLIENT == 1));
        }
    }

    #[test]
    fn open_script_keeps_one_command_in_flight_per_session() {
        // A producer has at most OPEN_WINDOW + OPEN_CHUNK handles
        // outstanding, so a session is safe iff its consecutive commands
        // are further apart than that, with rising sequence numbers.
        let in_flight_bound = (OPEN_WINDOW + OPEN_CHUNK) as u64;
        assert!(OPEN_SESSIONS > in_flight_bound);
        let len = 3 * OPEN_SESSIONS + 17;
        let mut last: std::collections::HashMap<u64, (u64, u64)> = Default::default();
        for (i, (client, seq, command)) in OpenScript::new(5, 1, len).enumerate() {
            let i = i as u64;
            assert!(
                (OPEN_SESSIONS + 1..=2 * OPEN_SESSIONS).contains(&client),
                "producer 1 stays out of producer 0's sessions 1..=OPEN_SESSIONS"
            );
            let (KvCommand::Get { key }
            | KvCommand::Put { key, .. }
            | KvCommand::Cas { key, .. }
            | KvCommand::Delete { key }) = command;
            assert_eq!(key, client, "a session works on its own key");
            if let Some((prev_i, prev_seq)) = last.insert(client, (i, seq)) {
                assert!(i - prev_i > in_flight_bound);
                assert_eq!(seq, prev_seq + 1);
            } else {
                assert_eq!(seq, 1);
            }
        }
        assert_eq!(last.len() as u64, OPEN_SESSIONS);
    }
}
