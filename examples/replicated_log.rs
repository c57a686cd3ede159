//! Replicated state machine: the classic application the consensus problem
//! motivates, on the library's [`ReplicatedStore`].
//!
//! Four client threads each hold a local stream of commands, and every
//! replica must apply the *same* commands in the *same* order. Each call
//! drives the store itself: it leases one of the store's two proposer
//! identities and decides which identity's batch fills the next log slot,
//! one consensus instance per slot. The machine below is the log itself —
//! `apply` appends, and a command's response is the position it landed
//! at. A command is named by its session, not its value, so identical
//! commands from different clients each get a position.
//!
//! Run with: `cargo run --release --example replicated_log`

use modular_consensus::store::{ReplicatedStore, StateMachine};

/// A command in the toy register machine: `set key value`, key in 0..8.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SetCmd {
    key: u8,
    value: u8,
}

/// The replicated state machine: 8 registers written by `set` commands,
/// plus the agreed order of every command applied so far.
#[derive(Debug, Default, PartialEq)]
struct Machine {
    regs: [u8; 8],
    log: Vec<SetCmd>,
}

impl StateMachine for Machine {
    type Command = SetCmd;
    type Response = usize;

    fn apply(&mut self, cmd: &SetCmd) -> usize {
        self.regs[cmd.key as usize] = cmd.value;
        self.log.push(*cmd);
        self.log.len() - 1
    }
}

impl Machine {
    /// A replica catching up: replay the agreed order on a fresh machine.
    fn replay(log: &[SetCmd]) -> Machine {
        let mut machine = Machine::default();
        for cmd in log {
            machine.apply(cmd);
        }
        machine
    }
}

fn main() {
    let clients = 4u8;
    let commands_per_client = 4u8;
    let mut store = ReplicatedStore::<Machine>::builder().proposers(2).build();

    // Each client submits its local commands; placement is decided by
    // consensus, one instance per slot. Everyone opens with the same
    // command, `set r0 = 1`.
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let mut session = store.client();
            std::thread::spawn(move || {
                let placements: Vec<(usize, SetCmd)> = (0..commands_per_client)
                    .map(|i| {
                        let cmd = match i {
                            0 => SetCmd { key: 0, value: 1 },
                            _ => SetCmd {
                                key: (client * 3 + i) % 8,
                                value: client * 10 + i,
                            },
                        };
                        (session.call(cmd).expect("store answers"), cmd)
                    })
                    .collect();
                (client, placements)
            })
        })
        .collect();
    let placements_by_client: Vec<(u8, Vec<(usize, SetCmd)>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every command landed: the machine's log holds all of them in one
    // agreed order.
    let (ordered, regs) = store.read_with(|m| (m.log.clone(), m.regs));
    println!(
        "replicated log across {clients} clients ({} commands total):\n",
        ordered.len()
    );
    for (position, cmd) in ordered.iter().enumerate() {
        println!("  position {position:>2}: set r{} = {}", cmd.key, cmd.value);
    }
    assert_eq!(ordered.len(), usize::from(clients * commands_per_client));

    // Each client's own placements agree with the shared log, in the order
    // it issued them — and the four identical openers took four positions.
    let mut openers = Vec::new();
    for (client, placements) in &placements_by_client {
        for (position, cmd) in placements {
            assert_eq!(ordered[*position], *cmd, "client {client}'s command moved");
        }
        assert!(placements.windows(2).all(|w| w[0].0 < w[1].0));
        openers.push(placements[0].0);
    }
    openers.sort_unstable();
    openers.dedup();
    assert_eq!(openers.len(), usize::from(clients));

    // Replaying the agreed order on fresh machines produces identical state
    // everywhere — the whole point of the exercise.
    let reference = Machine::replay(&ordered);
    assert_eq!(reference.regs, regs);
    for _ in 0..clients {
        assert_eq!(Machine::replay(&ordered), reference);
    }
    println!("\nfinal registers: {:?}", reference.regs);
    println!("all {clients} replicas converge to the same state ✓");
    store.shutdown();
}
