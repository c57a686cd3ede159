//! The quorum-based deterministic ratifier (Procedure Ratifier, Theorem 8).

use std::ops::Deref;
use std::sync::Arc;

use mc_model::{
    Action, Ctx, DecidingObject, Decision, InstantiateCtx, ObjectSpec, Op, ProcessId, RegisterId,
    Response, Session, StateSink, SymmetrySpec, Value,
};
use mc_quorums::{BinaryScheme, BinomialScheme, BitVectorScheme, QuorumScheme, MAX_MASK_POOL};

/// Procedure Ratifier (§6.1):
///
/// ```text
/// shared data: register proposal, initially ⊥; binary registers r_i, initially 0
/// foreach r_i ∈ W_v do r_i ← 1                       // announce v
/// u ← proposal
/// if u ≠ ⊥ then preference ← u
/// else { preference ← v; proposal ← preference }
/// if r_i ≠ 0 for some r_i ∈ R_preference then return (0, preference)
/// else return (1, preference)
/// ```
///
/// Theorem 8: with quorums satisfying `W_v′ ∩ R_v = ∅ ⟺ v′ = v`, this is a
/// ratifier — it satisfies termination, validity, coherence, and acceptance
/// for any number of processes.
///
/// Cost is `|W_v| + |R_pref| + 2` operations and `pool + 1` registers; the
/// choice of [`QuorumScheme`] instantiates the paper's variants:
///
/// * [`Ratifier::binary`] — 3 registers, ≤ 4 operations (§6.2 item 1);
/// * [`Ratifier::binomial`] — `⌈lg m⌉ + Θ(log log m)` registers/work,
///   optimal by Bollobás's theorem (§6.2 item 2, Theorem 10);
/// * [`Ratifier::bitvector`] — `2⌈lg m⌉ + 1` registers, ≤ `2⌈lg m⌉ + 2`
///   operations (§6.2 item 3).
///
/// The scan short-circuits at the first conflicting announcement (the bound
/// is on the worst case, so early exit only helps).
///
/// A quorum is the scheme's `u128` mask ([`QuorumScheme::write_mask`],
/// [`QuorumScheme::read_mask`]), and a session walks it by clearing the
/// lowest set bit at each operation. A ratifier of capacity up to 4096
/// derives every value's `(W_v, R_v)` once, when it is built, and all of
/// its instances, runs and sessions share that table; above that capacity
/// a session derives its two masks from the scheme.
///
/// # Example
///
/// ```
/// use mc_core::Ratifier;
/// use mc_model::properties;
/// use mc_sim::{adversary::RoundRobin, harness, EngineConfig};
///
/// // Unanimous inputs: everyone must decide them (acceptance).
/// let outcome = harness::run_object(
///     &Ratifier::binomial(100),
///     &[42; 5],
///     &mut RoundRobin::new(),
///     0,
///     &EngineConfig::default(),
/// )
/// .unwrap();
/// properties::check_acceptance(&[42; 5], &outcome.outputs).unwrap();
/// ```
#[derive(Clone)]
pub struct Ratifier {
    masks: Arc<Masks>,
}

impl Ratifier {
    /// Builds a ratifier over an arbitrary quorum scheme.
    ///
    /// The scheme is trusted to satisfy Theorem 8's hypothesis; verify new
    /// schemes with [`mc_quorums::verify::check_cross_intersection`].
    ///
    /// # Panics
    ///
    /// Panics if the scheme's pool exceeds [`MAX_MASK_POOL`] registers.
    pub fn with_scheme(scheme: Arc<dyn QuorumScheme>) -> Ratifier {
        Ratifier {
            masks: Arc::new(Masks::new(scheme, TABLE_CAPACITY)),
        }
    }

    /// The 2-valued ratifier: 3 registers, at most 4 operations.
    pub fn binary() -> Ratifier {
        Ratifier::with_scheme(Arc::new(BinaryScheme::new()))
    }

    /// The optimal `m`-valued ratifier via `⌊k/2⌋`-subset quorums.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn binomial(m: u64) -> Ratifier {
        Ratifier::with_scheme(Arc::new(
            BinomialScheme::for_capacity(m).expect("m must be positive"),
        ))
    }

    /// The simpler `m`-valued ratifier via bit-pair quorums.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn bitvector(m: u64) -> Ratifier {
        Ratifier::with_scheme(Arc::new(
            BitVectorScheme::for_capacity(m).expect("m must be positive"),
        ))
    }

    /// Number of values this ratifier supports.
    pub fn capacity(&self) -> u64 {
        self.masks.capacity
    }

    /// Registers used: the announcement pool plus the proposal register.
    pub fn register_count(&self) -> u64 {
        self.masks.pool + 1
    }

    /// Worst-case operations per process.
    pub fn individual_work_bound(&self) -> u64 {
        self.masks.scheme.individual_work_bound()
    }

    /// One process's run of this ratifier over an instance whose registers
    /// start at `base`, in the order [`instantiate`](ObjectSpec::instantiate)
    /// allocates them: the announcement pool, then the proposal register.
    ///
    /// The session borrows this ratifier's quorums, so building one takes
    /// no reference count and allocates nothing; an instance's
    /// [`DecidingObject::session`] boxes the same session over an owned
    /// handle, and a chain holds that one inline.
    pub fn session_at(&self, base: RegisterId) -> impl Session + '_ {
        let proposal = base.offset(self.masks.pool);
        RatifierSession::new(&*self.masks, base, proposal)
    }
}

impl std::fmt::Debug for Ratifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ratifier")
            .field("scheme", &self.masks.scheme.name())
            .finish()
    }
}

/// The largest capacity whose masks are tabulated: 4096 `(W_v, R_v)` pairs
/// of `u128`, 128 KiB.
const TABLE_CAPACITY: u64 = 4096;

/// `(W_v, R_v)` as masks over the pool. It fills the table and serves the
/// values past it, so the two paths cannot disagree.
fn masks_of(scheme: &dyn QuorumScheme, v: Value) -> (u128, u128) {
    (scheme.write_mask(v), scheme.read_mask(v))
}

/// A ratifier's quorums, shared by all of its instances, runs and sessions.
pub(crate) struct Masks {
    scheme: Arc<dyn QuorumScheme>,
    /// The scheme's announcement pool size.
    pool: u64,
    capacity: u64,
    /// `masks_of(v)` at index `v` for every value when the capacity is at
    /// most the table capacity the masks were built with; empty otherwise.
    table: Box<[(u128, u128)]>,
}

impl Masks {
    fn new(scheme: Arc<dyn QuorumScheme>, table_capacity: u64) -> Masks {
        let pool = scheme.pool_size();
        assert!(
            pool <= MAX_MASK_POOL,
            "a pool of {pool} registers exceeds the {MAX_MASK_POOL} a quorum mask holds"
        );
        let capacity = scheme.capacity();
        let table = if capacity <= table_capacity {
            (0..capacity).map(|v| masks_of(&*scheme, v)).collect()
        } else {
            Box::default()
        };
        Masks {
            scheme,
            pool,
            capacity,
            table,
        }
    }

    /// `(W_v, R_v)` of a value `v < capacity`.
    #[inline]
    fn of(&self, v: Value) -> (u128, u128) {
        match usize::try_from(v).ok().and_then(|ix| self.table.get(ix)) {
            Some(&masks) => masks,
            None => masks_of(&*self.scheme, v),
        }
    }
}

pub(crate) struct RatifierObject {
    masks: Arc<Masks>,
    /// Announcement pool base; slot `i` of the scheme is `pool.offset(i)`.
    pool: RegisterId,
    proposal: RegisterId,
}

impl RatifierObject {
    /// One process's session of this instance (sessions never look at the
    /// pid): what [`DecidingObject::session`] boxes and a chain holds
    /// inline.
    pub(crate) fn stage_session(&self) -> RatifierSession<Arc<Masks>> {
        RatifierSession::new(Arc::clone(&self.masks), self.pool, self.proposal)
    }
}

impl DecidingObject for RatifierObject {
    fn session(&self, _pid: ProcessId) -> Box<dyn Session + Send> {
        Box::new(self.stage_session())
    }

    fn symmetry(&self) -> SymmetrySpec {
        // Sessions never look at the pid. The binary value swap holds iff
        // the scheme's quorum structure admits a positional slot
        // involution mapping W_0 → W_1 and R_0 → R_1 (the paper's three
        // schemes all do); pool slots hold opaque announcement flags, so
        // only their *identities* swap, while the proposal register holds
        // an actual value.
        let swap = self.masks.scheme.binary_swap();
        SymmetrySpec {
            pid_oblivious: true,
            value_symmetric: swap.is_some(),
            value_registers: vec![(self.proposal, 1)],
            swap_pairs: swap
                .unwrap_or_default()
                .into_iter()
                .map(|(a, b)| (self.pool.offset(a), self.pool.offset(b)))
                .collect(),
            ..SymmetrySpec::default()
        }
    }
}

enum State {
    Announcing,
    ReadingProposal,
    WritingProposal,
    Scanning,
}

/// A session over a handle `P` on the ratifier's quorums: `&Masks` when
/// a caller drives it in place ([`Ratifier::session_at`]), `Arc<Masks>`
/// when an instance's session owns it.
pub(crate) struct RatifierSession<P> {
    masks: P,
    pool: RegisterId,
    proposal: RegisterId,
    input: Value,
    preference: Value,
    /// The registers of the quorum being walked that are still to visit:
    /// `W_input` while announcing, `R_preference` while scanning.
    unvisited: u128,
    /// How many registers of that quorum have been visited.
    ix: usize,
    state: State,
}

impl<P: Deref<Target = Masks>> RatifierSession<P> {
    fn new(masks: P, pool: RegisterId, proposal: RegisterId) -> RatifierSession<P> {
        RatifierSession {
            masks,
            pool,
            proposal,
            input: 0,
            preference: 0,
            unvisited: 0,
            ix: 0,
            state: State::Announcing,
        }
    }

    /// Starts walking `quorum`; returns its first register, if any.
    fn walk(&mut self, quorum: u128) -> Option<RegisterId> {
        self.unvisited = quorum;
        self.ix = 0;
        self.next_register()
    }

    /// Moves past the register just visited; returns the next one, if any.
    fn advance(&mut self) -> Option<RegisterId> {
        self.unvisited &= self.unvisited - 1;
        self.ix += 1;
        self.next_register()
    }

    /// The lowest register still to visit.
    fn next_register(&self) -> Option<RegisterId> {
        (self.unvisited != 0).then(|| self.pool.offset(u64::from(self.unvisited.trailing_zeros())))
    }

    fn start_scan(&mut self) -> Action {
        self.state = State::Scanning;
        let (_, read) = self.masks.of(self.preference);
        match self.walk(read) {
            Some(reg) => Action::Invoke(Op::Read(reg)),
            // Degenerate scheme with nothing to scan: no conflict observable.
            None => Action::Halt(Decision::decide(self.preference)),
        }
    }
}

impl<P: Deref<Target = Masks>> Session for RatifierSession<P> {
    #[inline]
    fn begin(&mut self, input: Value, _ctx: &mut Ctx<'_>) -> Action {
        let capacity = self.masks.capacity;
        assert!(
            input < capacity,
            "input {input} exceeds ratifier capacity {capacity}"
        );
        self.input = input;
        self.state = State::Announcing;
        let (write, _) = self.masks.of(input);
        let reg = self.walk(write).expect("write quorums are non-empty");
        Action::Invoke(Op::Write { reg, value: 1 })
    }

    #[inline]
    fn poll(&mut self, response: Response, _ctx: &mut Ctx<'_>) -> Action {
        match self.state {
            State::Announcing => {
                debug_assert!(matches!(response, Response::Write));
                match self.advance() {
                    Some(reg) => Action::Invoke(Op::Write { reg, value: 1 }),
                    None => {
                        self.state = State::ReadingProposal;
                        Action::Invoke(Op::Read(self.proposal))
                    }
                }
            }
            State::ReadingProposal => match response.expect_read() {
                Some(u) => {
                    // Adopt the earlier proposal.
                    self.preference = u;
                    self.start_scan()
                }
                None => {
                    self.preference = self.input;
                    self.state = State::WritingProposal;
                    Action::Invoke(Op::Write {
                        reg: self.proposal,
                        value: self.preference,
                    })
                }
            },
            State::WritingProposal => {
                debug_assert!(matches!(response, Response::Write));
                self.start_scan()
            }
            State::Scanning => {
                if response.expect_read().is_some() {
                    // A conflicting value has been announced.
                    return Action::Halt(Decision::continue_with(self.preference));
                }
                match self.advance() {
                    Some(reg) => Action::Invoke(Op::Read(reg)),
                    None => Action::Halt(Decision::decide(self.preference)),
                }
            }
        }
    }

    fn snapshot(&self, sink: &mut StateSink) {
        // The quorum being walked is a function of (state, input,
        // preference), and what is left of it a function of `ix`, so it is
        // derivable and omitted.
        let (state, pref_set) = match self.state {
            State::Announcing => (0, false),
            State::ReadingProposal => (1, false),
            State::WritingProposal => (2, true),
            State::Scanning => (3, true),
        };
        sink.push_raw(state);
        sink.push_raw(self.ix as u64);
        sink.push_value(self.input);
        // Before adoption the preference field is an uninitialized
        // placeholder; snapshotting it as a value would break symmetry
        // matching (the swap would rewrite a meaningless 0 to 1).
        sink.push_maybe_value(pref_set.then_some(self.preference));
    }
}

impl ObjectSpec for Ratifier {
    fn instantiate(&self, ctx: &mut InstantiateCtx<'_>) -> Arc<dyn DecidingObject> {
        let pool = ctx.alloc.alloc_block(self.masks.pool);
        let proposal = ctx.alloc.alloc_block(1);
        Arc::new(RatifierObject {
            masks: Arc::clone(&self.masks),
            pool,
            proposal,
        })
    }

    fn name(&self) -> String {
        format!("ratifier({})", self.masks.scheme.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::{properties, StateAtom};
    use mc_quorums::TableScheme;
    use mc_sim::adversary::{RandomScheduler, RoundRobin, SplitKeeper, WriteBlocker};
    use mc_sim::harness::{self, inputs};
    use mc_sim::EngineConfig;
    use rand::SeedableRng;

    #[test]
    fn acceptance_on_unanimous_inputs() {
        for ratifier in [
            Ratifier::binary(),
            Ratifier::binomial(8),
            Ratifier::bitvector(8),
        ] {
            for seed in 0..10 {
                let ins = inputs::unanimous(7, 1);
                let out = harness::run_object(
                    &ratifier,
                    &ins,
                    &mut RandomScheduler::new(seed),
                    seed,
                    &EngineConfig::default(),
                )
                .unwrap();
                properties::check_acceptance(&ins, &out.outputs).unwrap();
            }
        }
    }

    #[test]
    fn weak_consensus_properties_under_attack() {
        let attackers: Vec<fn(u64) -> Box<dyn mc_sim::Adversary>> = vec![
            |s| Box::new(RandomScheduler::new(s)),
            |s| Box::new(SplitKeeper::new(s)),
            |_| Box::new(WriteBlocker::new()),
        ];
        for ratifier in [
            Ratifier::binary(),
            Ratifier::binomial(4),
            Ratifier::bitvector(4),
        ] {
            for mk in &attackers {
                for seed in 0..20 {
                    let ins = inputs::alternating(6, ratifier.capacity().min(4));
                    let mut adv = mk(seed);
                    let out = harness::run_object(
                        &ratifier,
                        &ins,
                        adv.as_mut(),
                        seed,
                        &EngineConfig::default(),
                    )
                    .unwrap();
                    properties::check_weak_consensus(&ins, &out.outputs)
                        .unwrap_or_else(|e| panic!("{}: {e}", ratifier.name()));
                }
            }
        }
    }

    #[test]
    fn binary_ratifier_matches_paper_costs() {
        let r = Ratifier::binary();
        assert_eq!(r.register_count(), 3);
        assert_eq!(r.individual_work_bound(), 4);
        let out = harness::run_object(
            &r,
            &inputs::unanimous(4, 0),
            &mut RoundRobin::new(),
            0,
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(out.metrics.individual_work() <= 4);
        assert_eq!(out.metrics.registers_allocated, 3);
    }

    #[test]
    fn observed_work_within_bound_for_all_schemes() {
        for m in [2u64, 5, 16, 100] {
            for ratifier in [Ratifier::binomial(m), Ratifier::bitvector(m)] {
                let bound = ratifier.individual_work_bound();
                for seed in 0..10 {
                    let ins = inputs::alternating(5, m.min(5));
                    let out = harness::run_object(
                        &ratifier,
                        &ins,
                        &mut RandomScheduler::new(seed),
                        seed,
                        &EngineConfig::default(),
                    )
                    .unwrap();
                    assert!(
                        out.metrics.individual_work() <= bound,
                        "{}: {} > {bound}",
                        ratifier.name(),
                        out.metrics.individual_work()
                    );
                }
            }
        }
    }

    #[test]
    fn lone_fast_process_decides_despite_laggards() {
        // p0 runs solo (priority scheduling): it must decide its own value
        // even though p1 with a different input exists but hasn't moved —
        // this is the acceptance-style property the fast path of §4.1.1
        // leans on.
        let out = harness::run_object(
            &Ratifier::binary(),
            &[0, 1],
            &mut mc_sim::sched::PriorityScheduler::descending(2),
            0,
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(out.outputs[0].is_decided());
        assert_eq!(out.outputs[0].value(), 0);
        // And coherence then forces p1 to 0 as well.
        properties::check_coherence(&out.outputs).unwrap();
    }

    #[test]
    fn register_counts_match_theorem_10() {
        for m in [2u64, 4, 16, 256, 4096] {
            let lg = (m as f64).log2().ceil() as u64;
            let binom = Ratifier::binomial(m);
            let bitv = Ratifier::bitvector(m);
            assert!(binom.register_count() >= lg);
            assert!(
                binom.register_count() <= lg + 8,
                "m={m}: {}",
                binom.register_count()
            );
            assert_eq!(bitv.register_count(), 2 * lg.max(1) + 1);
        }
    }

    /// The atoms `snapshot()` has always produced, spelled out: the graph
    /// checker's state count depends on them.
    fn atoms(state: u64, ix: usize, input: Value, preference: Option<Value>) -> Vec<StateAtom> {
        vec![
            StateAtom::Raw(state),
            StateAtom::Raw(ix as u64),
            StateAtom::Value(input),
            StateAtom::MaybeValue(preference),
        ]
    }

    fn invoked(action: &Action) -> &Op {
        match action {
            Action::Invoke(op) => op,
            Action::Halt(decision) => panic!("halted early with {decision:?}"),
        }
    }

    /// Drives one session by hand and checks every operation and every
    /// snapshot against quorums derived afresh from `scheme`. `earlier` is
    /// what the session finds in the proposal register.
    fn drive(
        object: &dyn DecidingObject,
        scheme: &dyn QuorumScheme,
        input: Value,
        earlier: Option<Value>,
    ) {
        let (pool, proposal) = (RegisterId(0), RegisterId(scheme.pool_size()));
        let snapshot = |session: &dyn Session| {
            let mut sink = StateSink::new();
            session.snapshot(&mut sink);
            sink.finish().expect("ratifier sessions snapshot")
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let mut alloc = mc_model::BlockAlloc::new();
        let mut ctx = Ctx::new(&mut rng, &mut alloc);
        let mut session = object.session(ProcessId(0));

        let mut action = session.begin(input, &mut ctx);
        for (ix, slot) in scheme.write_quorum(input).into_iter().enumerate() {
            let (reg, value) = (pool.offset(slot), 1);
            assert_eq!(invoked(&action), &Op::Write { reg, value });
            assert_eq!(snapshot(&*session), atoms(0, ix, input, None));
            action = session.poll(Response::Write, &mut ctx);
        }
        assert_eq!(invoked(&action), &Op::Read(proposal));
        assert_eq!(snapshot(&*session)[0], StateAtom::Raw(1));
        action = session.poll(Response::Read(earlier), &mut ctx);
        let preference = earlier.unwrap_or(input);
        if earlier.is_none() {
            let (reg, value) = (proposal, input);
            assert_eq!(invoked(&action), &Op::Write { reg, value });
            assert_eq!(snapshot(&*session)[0], StateAtom::Raw(2));
            action = session.poll(Response::Write, &mut ctx);
        }
        for (ix, slot) in scheme.read_quorum(preference).into_iter().enumerate() {
            assert_eq!(invoked(&action), &Op::Read(pool.offset(slot)));
            assert_eq!(snapshot(&*session), atoms(3, ix, input, Some(preference)));
            action = session.poll(Response::Read(None), &mut ctx);
        }
        assert!(matches!(action, Action::Halt(d) if d == Decision::decide(preference)));
    }

    #[test]
    fn sessions_of_one_instance_walk_the_schemes_quorums() {
        let table = |m: u64| {
            let from = BitVectorScheme::for_capacity(m).unwrap();
            let (writes, reads) = (0..m)
                .map(|v| (from.write_quorum(v), from.read_quorum(v)))
                .unzip();
            Arc::new(TableScheme::new(from.pool_size(), writes, reads).unwrap())
        };
        let mut schemes: Vec<Arc<dyn QuorumScheme>> =
            vec![Arc::new(BinaryScheme::new()), table(2), table(8)];
        for m in [2, 8, 1025, 1 << 16] {
            schemes.push(Arc::new(BinomialScheme::for_capacity(m).unwrap()));
            schemes.push(Arc::new(BitVectorScheme::for_capacity(m).unwrap()));
        }
        for scheme in schemes {
            let mut alloc = mc_model::BlockAlloc::new();
            let object = Ratifier::with_scheme(Arc::clone(&scheme))
                .instantiate(&mut InstantiateCtx::new(4, &mut alloc));
            let m = scheme.capacity();
            // Repeats of a value are served from what the first resolved;
            // an adopted preference scans a quorum no session wrote.
            for (input, earlier) in [
                (0, None),
                (m - 1, None),
                (0, None),
                (m / 2, Some(m - 1)),
                (m - 1, Some(m / 3)),
                (m / 3, None),
            ] {
                drive(&*object, &*scheme, input, earlier);
            }
        }
    }

    #[test]
    fn tabulated_and_derived_masks_agree() {
        let schemes: Vec<Arc<dyn QuorumScheme>> = vec![
            Arc::new(BinaryScheme::new()),
            Arc::new(BinomialScheme::with_pool(14)),
            // 4096 values: the largest table.
            Arc::new(BitVectorScheme::with_bits(12)),
        ];
        for scheme in schemes {
            let tabulated = Masks::new(Arc::clone(&scheme), TABLE_CAPACITY);
            let derived = Masks::new(Arc::clone(&scheme), 0);
            assert_eq!(tabulated.table.len() as u64, scheme.capacity());
            assert!(derived.table.is_empty());
            for v in 0..scheme.capacity() {
                assert_eq!(
                    tabulated.of(v),
                    derived.of(v),
                    "{} value {v}",
                    scheme.name()
                );
            }
        }
        assert!(Ratifier::bitvector(4097).masks.table.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the 128 a quorum mask holds")]
    fn a_pool_past_a_mask_is_refused() {
        /// Two values over 129 registers, one more than a mask names.
        struct Wide;
        impl QuorumScheme for Wide {
            fn pool_size(&self) -> u64 {
                MAX_MASK_POOL + 1
            }
            fn capacity(&self) -> u64 {
                2
            }
            fn write_mask(&self, v: u64) -> u128 {
                1 << v
            }
            fn read_mask(&self, v: u64) -> u128 {
                1 << (1 - v)
            }
            fn name(&self) -> String {
                "wide".into()
            }
        }
        let _ = Ratifier::with_scheme(Arc::new(Wide));
    }

    #[test]
    #[should_panic(expected = "exceeds ratifier capacity")]
    fn oversized_input_rejected() {
        let _ = harness::run_object(
            &Ratifier::binary(),
            &[0, 5],
            &mut RoundRobin::new(),
            0,
            &EngineConfig::default(),
        );
    }
}
