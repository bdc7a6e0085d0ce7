//! Shared fault-injection plumbing for the durability and transport
//! chaos suites. Every injector configures its faults the same way:
//!
//! * [`IoFaultPlan`] — the *deterministic* byte-counted faults of a
//!   [`DurableIo`] sink: ENOSPC at an exact byte offset, a maximum
//!   accepted chunk per `write` call (forces short writes), and failing
//!   `sync`. Consumed by [`VecIo::with_faults`] and
//!   [`SharedVecIo::with_faults`].
//! * [`ChaosPlan`] — the *seeded probabilistic* faults of a message
//!   fabric: per-message drop / duplicate / reorder probabilities and a
//!   bounded delivery delay, drawn from a [`Dice`] so every schedule is
//!   reproducible from its seed.
//! * [`Dice`] — the seeded roller behind every probabilistic injector.
//!
//! The fabric itself, `ChaosTransport`, is crate-private: the sharded
//! engine ([`crate::sharded`]) runs its coordinator and participants over
//! it. Each send rolls, in this order, drop, duplicate, then per copy its
//! delay and reorder; a channel at zero draws nothing. Messages wait in
//! per-node queues until their tick matures and are delivered lowest
//! ordering key first, so the same plan and the same traffic replay the
//! same schedule.
//!
//! [`VecIo`]: crate::wal::VecIo
//! [`SharedVecIo`]: crate::wal::SharedVecIo
//! [`DurableIo`]: crate::wal::DurableIo
//! [`VecIo::with_faults`]: crate::wal::VecIo::with_faults
//! [`SharedVecIo::with_faults`]: crate::wal::SharedVecIo::with_faults

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A checked I/O fault from a [`crate::wal::DurableIo`] sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoFault {
    /// The device is out of space; `at` is the byte offset where the
    /// append hit the wall.
    NoSpace {
        /// Byte offset of the failed append.
        at: u64,
    },
    /// The write or sync failed outright.
    Failed {
        /// Byte offset at the time of the failure.
        at: u64,
        /// What failed.
        what: &'static str,
    },
    /// The sink accepted zero bytes without reporting an error.
    WriteZero,
}

impl fmt::Display for IoFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSpace { at } => write!(f, "out of space at byte offset {at}"),
            Self::Failed { at, what } => write!(f, "{what} at byte offset {at}"),
            Self::WriteZero => write!(f, "sink accepted zero bytes"),
        }
    }
}

impl std::error::Error for IoFault {}

/// Deterministic fault schedule of an in-memory [`crate::wal::DurableIo`]
/// sink — the one configuration surface behind [`crate::wal::VecIo`] and
/// [`crate::wal::SharedVecIo`].
///
/// The default plan injects nothing. Builders compose:
///
/// ```
/// use ucpc_core::fault::IoFaultPlan;
/// use ucpc_core::wal::VecIo;
///
/// let io = VecIo::with_faults(IoFaultPlan::new().byte_limit(64).failing_syncs());
/// # let _ = io;
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// Accept exactly this many bytes, then report [`IoFault::NoSpace`]
    /// at that offset (ENOSPC with a byte-exact torn tail).
    pub byte_limit: Option<usize>,
    /// Accept at most this many bytes per `write` call, turning every
    /// multi-byte append into a sequence of short writes.
    pub max_chunk: Option<usize>,
    /// Make every `sync` call report [`IoFault::Failed`].
    pub fail_syncs: bool,
}

impl IoFaultPlan {
    /// A plan injecting no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fail with ENOSPC once `limit` bytes have been accepted.
    pub fn byte_limit(mut self, limit: usize) -> Self {
        self.byte_limit = Some(limit);
        self
    }

    /// Accept at most `max_chunk` bytes per `write` call (clamped to at
    /// least 1 so progress is still possible).
    pub fn short_writes(mut self, max_chunk: usize) -> Self {
        self.max_chunk = Some(max_chunk.max(1));
        self
    }

    /// Make every subsequent `sync` fail.
    pub fn failing_syncs(mut self) -> Self {
        self.fail_syncs = true;
        self
    }

    /// How many bytes of `wanted` a sink holding `held` bytes accepts
    /// under this plan, or the fault the append trips on. Shared by both
    /// in-memory sinks so their torn-tail semantics are identical.
    pub fn admit(&self, held: usize, wanted: usize) -> Result<usize, IoFault> {
        let room = match self.byte_limit {
            Some(limit) => limit.saturating_sub(held),
            None => usize::MAX,
        };
        if room == 0 {
            return Err(IoFault::NoSpace { at: held as u64 });
        }
        Ok(wanted.min(room).min(self.max_chunk.unwrap_or(usize::MAX)))
    }

    /// The outcome of a `sync` on a sink holding `held` bytes.
    pub fn check_sync(&self, held: usize) -> Result<(), IoFault> {
        if self.fail_syncs {
            return Err(IoFault::Failed {
                at: held as u64,
                what: "injected sync failure",
            });
        }
        Ok(())
    }
}

/// The seeded roller behind every probabilistic injector: a thin wrapper
/// over [`StdRng`] whose draws are reproducible from the seed, so a
/// failing chaos schedule is re-runnable bit-for-bit.
#[derive(Debug, Clone)]
pub struct Dice {
    rng: StdRng,
}

impl Dice {
    /// A roller with a fixed seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// `true` with probability `p` (clamped to `[0, 1]`). `p <= 0` never
    /// consumes a draw, so disabled fault channels do not perturb the
    /// schedule of enabled ones.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.rng.gen_bool(p)
    }

    /// A uniform draw from `0..n`. `n <= 1` has one outcome, `0`, and
    /// never consumes a draw, as a disabled [`Self::chance`] does not.
    pub fn pick(&mut self, n: u64) -> u64 {
        if n <= 1 {
            return 0;
        }
        self.rng.gen_range(0..n)
    }
}

/// Seeded fault schedule of a chaos transport: per-message drop,
/// duplicate and reorder probabilities plus a bounded delivery delay.
/// All probabilities are per *send*; a duplicated message rolls its
/// delay and reorder independently per copy. The default plan is clean
/// (every channel zero) — chaos is always opted into explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed of the [`Dice`] driving every draw.
    pub seed: u64,
    /// Probability a sent message is silently dropped.
    pub drop: f64,
    /// Probability a sent message is delivered twice.
    pub duplicate: f64,
    /// Probability a delivery is re-keyed to land out of order relative
    /// to same-tick traffic.
    pub reorder: f64,
    /// Maximum delivery delay in transport ticks (0 = always immediate).
    /// Delays are *bounded*: every non-dropped message is deliverable at
    /// most `max_delay` ticks after its send.
    pub max_delay: u64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            max_delay: 0,
        }
    }
}

impl ChaosPlan {
    /// A clean plan (no faults) under `seed`.
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// A drop-heavy schedule.
    pub fn drops(seed: u64, p: f64) -> Self {
        Self {
            seed,
            drop: p,
            ..Self::default()
        }
    }

    /// A duplicate-heavy schedule.
    pub fn duplicates(seed: u64, p: f64) -> Self {
        Self {
            seed,
            duplicate: p,
            ..Self::default()
        }
    }

    /// A reorder + bounded-delay schedule.
    pub fn reorders(seed: u64, p: f64, max_delay: u64) -> Self {
        Self {
            seed,
            reorder: p,
            max_delay,
            ..Self::default()
        }
    }

    /// Every fault channel at once — the schedule the differential chaos
    /// harness leans on.
    pub fn mixed(seed: u64) -> Self {
        Self {
            seed,
            drop: 0.15,
            duplicate: 0.15,
            reorder: 0.3,
            max_delay: 3,
        }
    }

    /// Re-seeds this plan from the `UCPC_CHAOS_SEED` environment knob
    /// (non-negative integer), through the shared warn-and-fall-back
    /// reader — an unset or invalid value keeps the plan's own seed. CI's
    /// chaos job sweeps this knob to vary fault schedules without
    /// touching the test code.
    pub fn seed_from_env(mut self) -> Self {
        if let Some(seed) =
            ucpc_uncertain::env::read_knob("UCPC_CHAOS_SEED", "non-negative integer", |v| {
                v.parse::<u64>().ok()
            })
        {
            self.seed = seed;
        }
        self
    }
}

#[derive(Debug)]
struct Queued<M> {
    /// Transport tick at which this copy becomes deliverable.
    at: u64,
    /// Delivery ordering key (reordering perturbs it backwards).
    key: u64,
    /// Arrival tiebreaker.
    arrival: u64,
    msg: M,
}

/// A message fabric between numbered nodes. Every send rolls the [`Dice`]
/// against a [`ChaosPlan`]: drop the message, deliver it twice, delay a
/// copy up to `max_delay` ticks, or perturb its ordering key so that it
/// overtakes (or is overtaken by) its neighbours. The same plan and the
/// same traffic give the same schedule, so a failing chaos run replays
/// bit for bit from its seed. Under [`ChaosPlan::clean`] no die fires:
/// every message is delivered once, in send order.
///
/// Delivery is pull-based: the caller polls [`Self::recv`] per node until
/// it returns `None`, and calls [`Self::step`] to advance transport time when
/// nothing was deliverable.
#[derive(Debug)]
pub(crate) struct ChaosTransport<M> {
    pub(crate) plan: ChaosPlan,
    dice: Dice,
    /// Transport time, in ticks.
    pub(crate) tick: u64,
    counter: u64,
    queues: Vec<Vec<Queued<M>>>,
}

impl<M: Copy> ChaosTransport<M> {
    /// A fabric for `nodes` nodes faulting per `plan`.
    pub(crate) fn new(nodes: usize, plan: ChaosPlan) -> Self {
        Self {
            plan,
            dice: Dice::new(plan.seed),
            tick: 0,
            counter: 0,
            queues: (0..nodes).map(|_| Vec::new()).collect(),
        }
    }

    fn enqueue_copy(&mut self, to: usize, msg: M) {
        let delay = self.dice.pick(self.plan.max_delay.saturating_add(1));
        let mut key = self.counter;
        if self.dice.chance(self.plan.reorder) {
            // Pull the key backwards so this copy overtakes up to 8
            // earlier same-tick sends (ties broken by arrival).
            key = key.saturating_sub(1 + self.dice.pick(8));
        }
        let arrival = self.counter;
        self.counter += 1;
        if let Some(q) = self.queues.get_mut(to) {
            q.push(Queued {
                at: self.tick.saturating_add(delay),
                key,
                arrival,
                msg,
            });
        }
    }

    /// Accepts `msg` for (eventual, possibly unfaithful) delivery to node
    /// `to`; a node out of range loses it.
    pub(crate) fn send(&mut self, to: usize, msg: M) {
        if self.dice.chance(self.plan.drop) {
            return;
        }
        if self.dice.chance(self.plan.duplicate) {
            self.enqueue_copy(to, msg);
        }
        self.enqueue_copy(to, msg);
    }

    /// Next deliverable message addressed to `node`, if any.
    pub(crate) fn recv(&mut self, node: usize) -> Option<M> {
        let tick = self.tick;
        let q = self.queues.get_mut(node)?;
        let best = q
            .iter()
            .enumerate()
            .filter(|(_, m)| m.at <= tick)
            .min_by_key(|(_, m)| (m.key, m.arrival))
            .map(|(i, _)| i)?;
        Some(q.swap_remove(best).msg)
    }

    /// Advances transport time by one tick (delayed deliveries mature).
    pub(crate) fn step(&mut self) {
        self.tick += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_plan_admits_through_limit_chunk_and_sync_knobs() {
        let plan = IoFaultPlan::new().byte_limit(10).short_writes(4);
        assert_eq!(plan.admit(0, 100), Ok(4));
        assert_eq!(plan.admit(8, 100), Ok(2));
        assert_eq!(plan.admit(10, 1), Err(IoFault::NoSpace { at: 10 }));
        assert_eq!(plan.check_sync(3), Ok(()));
        let failing = IoFaultPlan::new().failing_syncs();
        assert!(matches!(
            failing.check_sync(7),
            Err(IoFault::Failed { at: 7, .. })
        ));
    }

    #[test]
    fn dice_is_reproducible_and_respects_edges() {
        let mut a = Dice::new(42);
        let mut b = Dice::new(42);
        for _ in 0..64 {
            assert_eq!(a.chance(0.5), b.chance(0.5));
            assert_eq!(a.pick(7), b.pick(7));
        }
        let mut d = Dice::new(1);
        assert!(!d.chance(0.0));
        assert!(d.chance(1.0));
        assert_eq!(d.pick(0), 0);
    }

    #[test]
    fn a_one_outcome_pick_draws_nothing() {
        let mut a = Dice::new(9);
        let mut b = a.clone();
        assert_eq!((a.pick(1), a.pick(0)), (0, 0));
        assert_eq!(a.pick(1 << 40), b.pick(1 << 40), "the stream did not move");
    }

    #[test]
    fn clean_chaos_transport_delivers_each_envelope_once_in_send_order() {
        let mut tx = ChaosTransport::new(3, ChaosPlan::clean(5));
        let to = |seq: u64| 1 + (seq as usize) % 2;
        for seq in 0..40 {
            tx.send(to(seq), seq);
        }
        for node in [1, 2] {
            let got: Vec<u64> = std::iter::from_fn(|| tx.recv(node)).collect();
            let sent: Vec<u64> = (0..40).filter(|&s| to(s) == node).collect();
            assert_eq!(got, sent, "node {node}: once each, in send order");
        }
        tx.step();
        assert!((0..3).all(|node| tx.recv(node).is_none()), "nothing left");
    }
}
