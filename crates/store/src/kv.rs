//! The reference state machine: a linearizable `u64 → u64` map.

use mc_runtime::FastMap;

use crate::machine::StateMachine;

/// One KV operation. `u64` keys and values keep the machine allocation-
/// free on the apply hot path; layer your own encoding on top (the
/// [`TypedConsensus`](mc_runtime::TypedConsensus) pattern) for richer
/// types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvCommand {
    /// Reads `key` (through the log — the slow, always-linearizable path;
    /// see [`ReplicatedStore::read_with`](crate::ReplicatedStore::read_with)
    /// for the fast path).
    Get {
        /// Key to read.
        key: u64,
    },
    /// Sets `key` to `value`.
    Put {
        /// Key to write.
        key: u64,
        /// Value to store.
        value: u64,
    },
    /// Sets `key` to `value` iff the current value equals `expect`
    /// (`None` = key absent).
    Cas {
        /// Key to update.
        key: u64,
        /// Required current value (`None`: key must be absent).
        expect: Option<u64>,
        /// Value to store when the comparison holds.
        value: u64,
    },
    /// Removes `key`.
    Delete {
        /// Key to remove.
        key: u64,
    },
}

/// What one [`KvCommand`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvResponse {
    /// `Get`: the value, or `None` when absent.
    Value(Option<u64>),
    /// `Put`: the previous value, or `None` when the key was fresh.
    Stored(Option<u64>),
    /// `Cas`: whether the swap applied, and the value actually found.
    Swapped {
        /// `true` iff the comparison held and the write landed.
        applied: bool,
        /// The value observed at comparison time.
        actual: Option<u64>,
    },
    /// `Delete`: the removed value, or `None` when the key was absent.
    Removed(Option<u64>),
}

/// The reference [`StateMachine`]: a hash map from `u64` to `u64`.
///
/// Replicated through a [`ReplicatedStore`](crate::ReplicatedStore) it is
/// a linearizable KV service; standalone it doubles as the sequential
/// specification the lab's conformance check replays commands against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    map: FastMap<u64, u64>,
}

impl KvStore {
    /// An empty map.
    pub fn new() -> KvStore {
        KvStore::default()
    }

    /// Direct read of `key` — used by fast reads, where the
    /// closure runs against the applied state.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).copied()
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl StateMachine for KvStore {
    type Command = KvCommand;
    type Response = KvResponse;

    fn apply(&mut self, command: &KvCommand) -> KvResponse {
        match *command {
            KvCommand::Get { key } => KvResponse::Value(self.map.get(&key).copied()),
            KvCommand::Put { key, value } => KvResponse::Stored(self.map.insert(key, value)),
            KvCommand::Cas { key, expect, value } => {
                let actual = self.map.get(&key).copied();
                let applied = actual == expect;
                if applied {
                    self.map.insert(key, value);
                }
                KvResponse::Swapped { applied, actual }
            }
            KvCommand::Delete { key } => KvResponse::Removed(self.map.remove(&key)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_apply_with_their_documented_responses() {
        let mut kv = KvStore::new();
        assert_eq!(
            kv.apply(&KvCommand::Get { key: 1 }),
            KvResponse::Value(None)
        );
        assert_eq!(
            kv.apply(&KvCommand::Put { key: 1, value: 10 }),
            KvResponse::Stored(None)
        );
        assert_eq!(
            kv.apply(&KvCommand::Put { key: 1, value: 11 }),
            KvResponse::Stored(Some(10))
        );
        assert_eq!(
            kv.apply(&KvCommand::Cas {
                key: 1,
                expect: Some(11),
                value: 12
            }),
            KvResponse::Swapped {
                applied: true,
                actual: Some(11)
            }
        );
        assert_eq!(
            kv.apply(&KvCommand::Cas {
                key: 1,
                expect: Some(11),
                value: 13
            }),
            KvResponse::Swapped {
                applied: false,
                actual: Some(12)
            }
        );
        assert_eq!(
            kv.apply(&KvCommand::Delete { key: 1 }),
            KvResponse::Removed(Some(12))
        );
        assert_eq!(
            kv.apply(&KvCommand::Delete { key: 1 }),
            KvResponse::Removed(None)
        );
        assert!(kv.is_empty());
    }
}
