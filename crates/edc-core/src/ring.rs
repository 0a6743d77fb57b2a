//! io_uring-style submission/completion ring over [`ShardedPipeline`]
//! (DESIGN.md §16).
//!
//! The blocking front-ends cap concurrency at the caller's thread count:
//! every in-flight op burns one OS thread parked inside a shard lock.
//! This module decouples *submission* from *execution* the way a
//! compression-capable storage device decouples host I/O from device-side
//! codec work: callers enqueue ops on fixed-depth per-shard submission
//! queues and immediately move on; one drainer thread per shard takes the
//! whole queue in a single lock acquisition (a batched doorbell),
//! dispatches it group by group — a group is a run of adjacent same-kind
//! ops, each op through [`ShardedPipeline::dispatch`] exactly as on the
//! blocking path — and posts typed completion records group by group, as
//! each lands, so waiters resubmit while the rest of the batch is still
//! dispatching. The pipeline stores a run the moment it seals, group or
//! no group: a coalesced group amortises the completion post and its
//! wakeup, not compression. Callers harvest completions with
//! [`Ring::wait`] / [`Ring::try_reap`] / [`Ring::drain`]. Queue depth,
//! not thread count, now drives device saturation: a handful of
//! submitter threads keep every shard and its dwell-modelled media busy.
//!
//! ## Backpressure
//!
//! Each shard's ring holds at most [`RingConfig::depth`] ops that have
//! been submitted but not yet reaped. A full ring rejects the submission
//! with the typed [`RingError::Full`] — never a silent drop, never a
//! block — so the caller decides whether to reap, retry or shed load.
//! Because reaping frees the slot, the completion side can never
//! overflow.
//!
//! ## Ordering contract
//!
//! Per shard, ops execute and complete in submission order (one drainer,
//! FIFO queue, in-order completion posting) — completions are
//! journal-ordered per shard. Across shards there is no ordering, exactly
//! like the blocking sharded front-end. Ops are validated at submission:
//! only data-plane ops ([`Op::Write`], [`Op::Read`]) whose footprint
//! lies within a single extent (hence a single shard) are accepted;
//! control-plane ops stay on the blocking [`ShardedPipeline`] surface, to
//! be used while the ring is quiescent.
//!
//! ## Determinism and record/replay
//!
//! A drainer serializes its shard's ops in submission order and hands
//! each to [`ShardedPipeline::dispatch`]. An accepted op touches only its
//! own shard, so any interleaving of drains produces the same per-shard
//! state and the same per-op outputs as dispatching the ops one at a
//! time: ring completions are bit-identical to the blocking path's,
//! writes and typed errors included, under injected faults and mid-drain
//! power cuts (`tests/proptest_ring.rs`). [`Ring::serve_recorded`] also
//! records every op in drain order, so the `.edcrr` log it yields replays
//! bit-exactly through the blocking path.
//!
//! ## Cooperative draining
//!
//! [`Ring::wait`] does not just park: if the awaited op is the *only* op
//! in its shard's submission queue and no drainer is active on that
//! shard, the waiter dispatches it on its own thread. At queue depth 1
//! this collapses the ring to the blocking path's latency (no handoff,
//! no wakeup) — the QD=1 sweep point stays within 10% of the blocking
//! single-thread throughput. The help is deliberately that narrow: at
//! depth, draining a whole dwell-laden batch on the waiter's thread
//! would starve its other in-flight ops, so deep waiters park and the
//! drainers do all the work.

use crate::record::Recorder;
use crate::scheme::BLOCK_BYTES;
use crate::shard::ShardedPipeline;
use crate::store::{Op, OpOutput};
use crate::telemetry::{Sample, TieredSeries};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Configuration of a [`Ring`].
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Maximum submitted-but-not-reaped ops per shard. A shard whose
    /// ring holds `depth` unreaped ops rejects further submissions with
    /// [`RingError::Full`].
    pub depth: usize,
    /// Expected shard count, as a configuration cross-check: `0` (the
    /// default) follows the store; any other value must equal the
    /// store's [`ShardedPipeline::shard_count`] or
    /// [`Ring::serve`] panics.
    pub shards: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig { depth: 64, shards: 0 }
    }
}

/// Typed submission failure. Submission never blocks and never silently
/// drops: every rejected op surfaces as one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// The target shard's ring already holds [`RingConfig::depth`]
    /// unreaped ops; reap completions and retry.
    Full,
    /// The ring is shutting down (the serve closure returned).
    Shutdown,
    /// Offset or length not whole 4 KiB-aligned blocks.
    Unaligned,
    /// The op's footprint crosses an extent boundary and would fan out
    /// to more than one shard; split it at extent boundaries first.
    CrossShard,
    /// Only data-plane ops (`Write`, `Read`) ride the ring; the named
    /// control-plane op is dispatched on the store directly.
    Unsupported(&'static str),
    /// `offset + len` does not fit the 64-bit byte address space.
    OutOfRange,
    /// The ticket names a completion that was never issued or was
    /// already reaped.
    UnknownTicket,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Full => write!(f, "ring full: reap completions before resubmitting"),
            RingError::Shutdown => write!(f, "ring is shutting down"),
            RingError::Unaligned => write!(f, "op must cover whole 4 KiB-aligned blocks"),
            RingError::CrossShard => {
                write!(f, "op footprint spans shards; split at extent boundaries")
            }
            RingError::Unsupported(kind) => {
                write!(f, "op `{kind}` is control-plane; dispatch it on the store directly")
            }
            RingError::OutOfRange => write!(f, "op runs past the end of the address space"),
            RingError::UnknownTicket => write!(f, "ticket unknown or already reaped"),
        }
    }
}

impl std::error::Error for RingError {}

/// Handle to one submitted op: names the shard that executes it and its
/// per-shard sequence number. Redeem it with [`Ring::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    shard: u32,
    seq: u64,
}

impl Ticket {
    /// Shard the op was routed to.
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// Per-shard submission sequence number (0-based, gap-free).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Monotonic ring counters, snapshot by [`Ring::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Ops accepted by [`Ring::submit`].
    pub submitted: u64,
    /// Ops dispatched and posted to a completion queue.
    pub completed: u64,
    /// Submissions rejected with [`RingError::Full`].
    pub rejected_full: u64,
    /// Batches taken off submission queues (doorbell rings).
    pub drained_batches: u64,
    /// Groups of ≥ 2 adjacent writes dispatched with one completion
    /// post.
    pub coalesced_groups: u64,
    /// Writes that rode a coalesced group.
    pub coalesced_writes: u64,
    /// Largest single drained batch.
    pub max_batch: u64,
}

/// One submitted-but-not-executed op.
struct Pending {
    seq: u64,
    now_ns: u64,
    op: Op,
    submitted_at: Instant,
}

/// Mutable half of one shard's ring.
struct QueueState {
    /// Submission queue, FIFO.
    sq: VecDeque<Pending>,
    /// Completion queue, FIFO in execution (= submission) order.
    cq: VecDeque<(u64, OpOutput)>,
    /// Seqs of the batch currently being dispatched.
    executing: Vec<u64>,
    /// Submitted-but-not-reaped ops (`sq` + `executing` + `cq`); the
    /// value [`RingConfig::depth`] bounds.
    occupied: usize,
    /// Next submission sequence number.
    next_seq: u64,
    /// A drainer (or a helping waiter) owns dispatch right now.
    draining: bool,
    /// Seqs currently parked in [`Ring::wait`]: a posted group rings
    /// `completed` only when it delivers one of these (or at batch end),
    /// so uncontested completions cost no wakeups.
    waiting: Vec<u64>,
    /// The serve closure returned; no further submissions.
    shutdown: bool,
}

struct ShardQueue {
    state: Mutex<QueueState>,
    /// Drainers park here; rung on submission and shutdown.
    doorbell: Condvar,
    /// Waiters park here; rung when a batch's completions post.
    completed: Condvar,
    /// Per-shard occupancy sampled at every batch take.
    occupancy: Mutex<TieredSeries>,
    /// Mean submit→completion latency (µs) per posted group.
    latency: Mutex<TieredSeries>,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_full: AtomicU64,
    drained_batches: AtomicU64,
    coalesced_groups: AtomicU64,
    coalesced_writes: AtomicU64,
    max_batch: AtomicU64,
}

/// A fixed-depth submission/completion ring over a [`ShardedPipeline`].
///
/// Create one with [`Ring::serve`] (or [`Ring::serve_recorded`]), which
/// scopes the drainer threads to a closure:
///
/// ```
/// use edc_core::ring::{Ring, RingConfig};
/// use edc_core::shard::{ShardConfig, ShardedPipeline};
/// use edc_core::store::{Op, OpOutput};
///
/// let store = ShardedPipeline::new(1 << 20, ShardConfig::default());
/// let out = Ring::serve(&store, RingConfig::default(), |ring| {
///     let t = ring.submit(0, Op::Write { offset: 0, data: vec![7u8; 4096] }).unwrap();
///     ring.wait(t).unwrap();
///     let t = ring.submit(1, Op::Read { offset: 0, len: 4096 }).unwrap();
///     ring.wait(t).unwrap()
/// });
/// assert!(matches!(out, OpOutput::Read { len: 4096, .. }));
/// ```
pub struct Ring<'a> {
    store: &'a ShardedPipeline,
    queues: Vec<ShardQueue>,
    depth: usize,
    recorder: Option<&'a Mutex<Recorder>>,
    counters: Counters,
    reap_cursor: AtomicU64,
    started: Instant,
}

impl<'a> Ring<'a> {
    /// Run `f` against a live ring over `store`: spawn one drainer per
    /// shard (scoped threads — no allocation outlives the call), call
    /// `f`, then shut the drainers down and join them. Completions not
    /// reaped before `f` returns are discarded with the ring.
    ///
    /// # Panics
    ///
    /// Panics if `config.depth == 0`, or if `config.shards` is nonzero
    /// and differs from the store's shard count. A panic inside `f` is
    /// resurfaced after the drainers shut down cleanly.
    pub fn serve<T>(
        store: &ShardedPipeline,
        config: RingConfig,
        f: impl FnOnce(&Ring<'_>) -> T,
    ) -> T {
        Self::serve_with(store, config, None, f)
    }

    /// [`Ring::serve`] with a [`Recorder`] wired into the drainers:
    /// every op is also recorded, in drain order. The resulting log
    /// replays bit-exactly through the blocking path.
    pub fn serve_recorded<T>(
        store: &ShardedPipeline,
        config: RingConfig,
        recorder: &Mutex<Recorder>,
        f: impl FnOnce(&Ring<'_>) -> T,
    ) -> T {
        Self::serve_with(store, config, Some(recorder), f)
    }

    fn serve_with<T>(
        store: &ShardedPipeline,
        config: RingConfig,
        recorder: Option<&Mutex<Recorder>>,
        f: impl FnOnce(&Ring<'_>) -> T,
    ) -> T {
        assert!(config.depth >= 1, "ring depth must be at least 1");
        assert!(
            config.shards == 0 || config.shards == store.shard_count(),
            "RingConfig.shards ({}) disagrees with the store ({})",
            config.shards,
            store.shard_count()
        );
        let ring = Ring {
            store,
            queues: (0..store.shard_count())
                .map(|_| ShardQueue {
                    state: Mutex::new(QueueState {
                        sq: VecDeque::new(),
                        cq: VecDeque::new(),
                        executing: Vec::new(),
                        occupied: 0,
                        next_seq: 0,
                        draining: false,
                        waiting: Vec::new(),
                        shutdown: false,
                    }),
                    doorbell: Condvar::new(),
                    completed: Condvar::new(),
                    occupancy: Mutex::new(TieredSeries::new(32, 4)),
                    latency: Mutex::new(TieredSeries::new(32, 4)),
                })
                .collect(),
            depth: config.depth,
            recorder,
            counters: Counters::default(),
            reap_cursor: AtomicU64::new(0),
            started: Instant::now(),
        };
        let out = std::thread::scope(|sc| {
            for s in 0..ring.queues.len() {
                let r = &ring;
                sc.spawn(move || r.drainer(s));
            }
            // A panicking `f` (a failed test assertion, say) must still
            // shut the drainers down, or the scope would join forever.
            let out = catch_unwind(AssertUnwindSafe(|| f(&ring)));
            ring.shutdown_all();
            out
        });
        match out {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Number of shards (= submission queues).
    pub fn shard_count(&self) -> usize {
        self.queues.len()
    }

    /// Per-shard depth this ring was configured with.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Enqueue `op` for execution at time `now_ns` without blocking.
    /// Validation happens here: alignment, single-shard footprint,
    /// data-plane op kind, free ring capacity. The returned [`Ticket`]
    /// redeems the op's completion.
    pub fn submit(&self, now_ns: u64, op: Op) -> Result<Ticket, RingError> {
        let shard = self.route(&op)?;
        let q = &self.queues[shard];
        let mut st = q.state.lock().expect("ring poisoned");
        if st.shutdown {
            return Err(RingError::Shutdown);
        }
        if st.occupied >= self.depth {
            self.counters.rejected_full.fetch_add(1, Relaxed);
            return Err(RingError::Full);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.occupied += 1;
        st.sq.push_back(Pending { seq, now_ns, op, submitted_at: Instant::now() });
        // A mid-batch drainer re-checks its queue at batch end (under
        // this same lock), so the doorbell only needs ringing when the
        // drainer may actually be parked.
        let drainer_parked = !st.draining;
        drop(st);
        if drainer_parked {
            q.doorbell.notify_one();
        }
        self.counters.submitted.fetch_add(1, Relaxed);
        Ok(Ticket { shard: shard as u32, seq })
    }

    /// Block until `ticket`'s op completes and return its output,
    /// consuming the completion (a second wait on the same ticket
    /// returns [`RingError::UnknownTicket`]). If the op still sits in
    /// its submission queue and no drainer is active on that shard, the
    /// waiter drains the batch itself — see the module docs on
    /// cooperative draining.
    pub fn wait(&self, ticket: Ticket) -> Result<OpOutput, RingError> {
        let s = ticket.shard as usize;
        let q = self.queues.get(s).ok_or(RingError::UnknownTicket)?;
        let mut st = q.state.lock().expect("ring poisoned");
        loop {
            if let Some(i) = st.cq.iter().position(|(seq, _)| *seq == ticket.seq) {
                let (_, out) = st.cq.remove(i).expect("position just found");
                st.occupied -= 1;
                return Ok(out);
            }
            if ticket.seq >= st.next_seq {
                return Err(RingError::UnknownTicket);
            }
            let in_sq = st.sq.iter().any(|p| p.seq == ticket.seq);
            if !in_sq && !st.executing.contains(&ticket.seq) {
                // Issued, not queued, not executing, not completed:
                // already reaped.
                return Err(RingError::UnknownTicket);
            }
            // Cooperative draining, narrowly: only when the awaited op is
            // the *sole* queued op and no drainer is active — the QD=1
            // shape, where skipping the drainer hand-off is pure win. At
            // depth, helping would serialize a whole dwell-laden batch
            // onto this caller's thread and starve its other in-flight
            // ops, so deep waiters park instead.
            if in_sq && !st.draining && st.sq.len() == 1 {
                st = self.drain_batch(s, st);
                continue;
            }
            // Register interest so the drainer rings `completed` when
            // this seq posts (uncontested completions skip the wakeup).
            st.waiting.push(ticket.seq);
            st = q.completed.wait(st).expect("ring poisoned");
            st.waiting.retain(|w| *w != ticket.seq);
        }
    }

    /// Check `ticket` without blocking: `Ok(Some(out))` consumes the
    /// completion, `Ok(None)` means the op is still queued or executing,
    /// and [`RingError::UnknownTicket`] means it was never issued or was
    /// already reaped. A client multiplexing many in-flight tickets polls
    /// the whole window and blocks ([`Ring::wait`]) only when nothing has
    /// landed — reaping completions in *completion* order rather than
    /// submission order, which keeps every slot busy instead of
    /// head-of-line blocking on the oldest ticket's shard.
    pub fn poll(&self, ticket: Ticket) -> Result<Option<OpOutput>, RingError> {
        let s = ticket.shard as usize;
        let q = self.queues.get(s).ok_or(RingError::UnknownTicket)?;
        let mut st = q.state.lock().expect("ring poisoned");
        if let Some(i) = st.cq.iter().position(|(seq, _)| *seq == ticket.seq) {
            let (_, out) = st.cq.remove(i).expect("position just found");
            st.occupied -= 1;
            return Ok(Some(out));
        }
        if ticket.seq >= st.next_seq
            || (!st.sq.iter().any(|p| p.seq == ticket.seq)
                && !st.executing.contains(&ticket.seq))
        {
            return Err(RingError::UnknownTicket);
        }
        Ok(None)
    }

    /// Harvest one completion if any shard has one ready, without
    /// blocking. Rotates the starting shard so no queue starves.
    pub fn try_reap(&self) -> Option<(Ticket, OpOutput)> {
        let n = self.queues.len();
        let start = self.reap_cursor.fetch_add(1, Relaxed) as usize;
        for k in 0..n {
            let s = (start + k) % n;
            let mut st = self.queues[s].state.lock().expect("ring poisoned");
            if let Some((seq, out)) = st.cq.pop_front() {
                st.occupied -= 1;
                return Some((Ticket { shard: s as u32, seq }, out));
            }
        }
        None
    }

    /// Wait for every submitted op to complete and harvest all
    /// completions, per shard in completion (= submission) order. Ops
    /// submitted concurrently with the drain may or may not be included.
    pub fn drain(&self) -> Vec<(Ticket, OpOutput)> {
        let mut harvested = Vec::new();
        for s in 0..self.queues.len() {
            let q = &self.queues[s];
            let mut st = q.state.lock().expect("ring poisoned");
            loop {
                if !st.sq.is_empty() && !st.draining {
                    st = self.drain_batch(s, st);
                    continue;
                }
                if st.sq.is_empty() && !st.draining {
                    break;
                }
                st = q.completed.wait(st).expect("ring poisoned");
            }
            while let Some((seq, out)) = st.cq.pop_front() {
                st.occupied -= 1;
                harvested.push((Ticket { shard: s as u32, seq }, out));
            }
        }
        harvested
    }

    /// Snapshot the ring's monotonic counters.
    pub fn stats(&self) -> RingStats {
        RingStats {
            submitted: self.counters.submitted.load(Relaxed),
            completed: self.counters.completed.load(Relaxed),
            rejected_full: self.counters.rejected_full.load(Relaxed),
            drained_batches: self.counters.drained_batches.load(Relaxed),
            coalesced_groups: self.counters.coalesced_groups.load(Relaxed),
            coalesced_writes: self.counters.coalesced_writes.load(Relaxed),
            max_batch: self.counters.max_batch.load(Relaxed),
        }
    }

    /// Shard occupancy (submitted-but-not-reaped ops) sampled at every
    /// batch take, merged across shards in time order; time axis is
    /// nanoseconds since the ring started.
    pub fn occupancy_series(&self) -> Vec<Sample> {
        Self::merge_series(self.queues.iter().map(|q| &q.occupancy))
    }

    /// Mean submit→completion latency in microseconds per posted group,
    /// merged across shards in time order; time axis is nanoseconds
    /// since the ring started.
    pub fn latency_series(&self) -> Vec<Sample> {
        Self::merge_series(self.queues.iter().map(|q| &q.latency))
    }

    fn merge_series<'s>(parts: impl Iterator<Item = &'s Mutex<TieredSeries>>) -> Vec<Sample> {
        let mut all: Vec<Sample> =
            parts.flat_map(|m| m.lock().expect("ring poisoned").samples()).collect();
        all.sort_by_key(|p| p.t_ns);
        all
    }

    /// Validate `op` and resolve the single shard that executes it.
    fn route(&self, op: &Op) -> Result<usize, RingError> {
        let (offset, len) = match op {
            Op::Write { offset, data } => {
                if data.is_empty() {
                    return Err(RingError::Unaligned);
                }
                (*offset, data.len() as u64)
            }
            Op::Read { offset, len } => (*offset, *len),
            other => return Err(RingError::Unsupported(other.kind())),
        };
        if !offset.is_multiple_of(BLOCK_BYTES) || !len.is_multiple_of(BLOCK_BYTES) {
            return Err(RingError::Unaligned);
        }
        if offset.checked_add(len).is_none() {
            return Err(RingError::OutOfRange);
        }
        self.store.single_shard_of(offset, len).ok_or(RingError::CrossShard)
    }

    /// One drainer loop: park on the doorbell, take whole batches,
    /// dispatch, repeat until shutdown drains the queue dry.
    fn drainer(&self, s: usize) {
        let q = &self.queues[s];
        let mut st = q.state.lock().expect("ring poisoned");
        loop {
            if !st.sq.is_empty() && !st.draining {
                st = self.drain_batch(s, st);
                continue;
            }
            if st.shutdown && st.sq.is_empty() {
                return;
            }
            st = q.doorbell.wait(st).expect("ring poisoned");
        }
    }

    /// Take shard `s`'s entire submission queue in one lock acquisition,
    /// then dispatch it outside the lock group by group — a run of
    /// adjacent writes or of adjacent reads at a time — posting each group's
    /// completions (and waking waiters) the moment it lands. Incremental
    /// posting is what keeps deep queues from convoying: closed-loop
    /// submitters refill the queue while the rest of the batch is still
    /// dispatching, instead of stalling until the whole batch retires.
    /// Consumes the caller's guard; returns the re-acquired one.
    fn drain_batch<'g>(
        &'g self,
        s: usize,
        mut st: MutexGuard<'g, QueueState>,
    ) -> MutexGuard<'g, QueueState> {
        debug_assert!(!st.draining, "one dispatcher per shard at a time");
        let batch: Vec<Pending> = st.sq.drain(..).collect();
        debug_assert!(!batch.is_empty(), "doorbell rung on an empty queue");
        st.draining = true;
        st.executing = batch.iter().map(|p| p.seq).collect();
        let occupied = st.occupied;
        drop(st);

        self.counters.drained_batches.fetch_add(1, Relaxed);
        self.counters.max_batch.fetch_max(batch.len() as u64, Relaxed);
        let q = &self.queues[s];
        q.occupancy.lock().expect("ring poisoned").push(self.elapsed_ns(), occupied as f64);

        let mut idx = 0;
        while idx < batch.len() {
            let (next, outs) = self.dispatch_group(&batch, idx);
            let done = Instant::now();
            let mean_us = batch[idx..next]
                .iter()
                .map(|p| done.duration_since(p.submitted_at).as_nanos() as f64 / 1_000.0)
                .sum::<f64>()
                / (next - idx) as f64;
            q.latency.lock().expect("ring poisoned").push(self.elapsed_ns(), mean_us);
            self.counters.completed.fetch_add((next - idx) as u64, Relaxed);
            let mut st = q.state.lock().expect("ring poisoned");
            // `executing` was filled in batch order and groups retire
            // front to back, so the posted seqs are exactly its head.
            st.executing.drain(..outs.len());
            let wanted = outs.iter().any(|(seq, _)| st.waiting.contains(seq));
            for (seq, out) in outs {
                st.cq.push_back((seq, out));
            }
            drop(st);
            if wanted {
                q.completed.notify_all();
            }
            idx = next;
        }

        let mut st = q.state.lock().expect("ring poisoned");
        st.draining = false;
        q.completed.notify_all();
        if !st.sq.is_empty() {
            q.doorbell.notify_one();
        }
        st
    }

    /// Dispatch the next group of `batch` starting at index `i`, returning
    /// the index past the group plus its `(seq, output)` pairs in batch
    /// order. A group is a run of adjacent same-kind ops whose completions
    /// post together; inside it every op goes through
    /// [`ShardedPipeline::dispatch`] on its own — the blocking path's exact
    /// effect and output, so a power cut mid-group fails the op that hit
    /// it and the ones behind it, each with its own typed error — and is
    /// logged in drain order when a recorder is attached.
    fn dispatch_group(&self, batch: &[Pending], i: usize) -> (usize, Vec<(u64, OpOutput)>) {
        let writes = matches!(batch[i].op, Op::Write { .. });
        let mut j = i + 1;
        while j < batch.len() && matches!(batch[j].op, Op::Write { .. }) == writes {
            j += 1;
        }
        let group = &batch[i..j];
        if writes && group.len() > 1 {
            self.counters.coalesced_groups.fetch_add(1, Relaxed);
            self.counters.coalesced_writes.fetch_add(group.len() as u64, Relaxed);
        }
        let outs = group
            .iter()
            .map(|p| {
                let out = self.store.dispatch(p.now_ns, &p.op);
                if let Some(rec) = self.recorder {
                    rec.lock().expect("recorder poisoned").record(p.now_ns, &p.op, &out);
                }
                (p.seq, out)
            })
            .collect();
        (j, outs)
    }

    fn shutdown_all(&self) {
        for q in &self.queues {
            let mut st = q.state.lock().expect("ring poisoned");
            st.shutdown = true;
            drop(st);
            q.doorbell.notify_all();
            q.completed.notify_all();
        }
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use crate::shard::ShardConfig;

    fn store(shards: usize) -> ShardedPipeline {
        ShardedPipeline::new(
            4 << 20,
            ShardConfig { shards, extent_blocks: 4, pipeline: PipelineConfig::default() },
        )
    }

    #[test]
    fn write_then_read_round_trips() {
        let s = store(4);
        let block = vec![0xA5u8; 4096];
        let read = Ring::serve(&s, RingConfig::default(), |ring| {
            let t = ring.submit(0, Op::Write { offset: 8192, data: block.clone() }).unwrap();
            assert!(matches!(ring.wait(t), Ok(OpOutput::Writes(_))));
            let t = ring.submit(1, Op::Read { offset: 8192, len: 4096 }).unwrap();
            ring.wait(t).unwrap()
        });
        match read {
            OpOutput::Read { len, checksum } => {
                assert_eq!(len, 4096);
                assert_eq!(checksum, edc_compress::checksum64(&block, 4096));
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn coalesced_writes_complete_exactly_as_on_the_blocking_path() {
        // Three non-contiguous writes: op 1 only buffers its run, op 2
        // seals it, op 3 seals op 2's.
        let ops: Vec<Op> = (0..3u64)
            .map(|i| Op::Write { offset: i * 3 * 4096, data: vec![b'a' + i as u8; 4096] })
            .collect();
        let blocking = store(1);
        let want: Vec<OpOutput> =
            ops.iter().zip(0u64..).map(|(op, now)| blocking.dispatch(now, op)).collect();
        assert!(matches!(&want[0], OpOutput::Writes(r) if r.is_empty()));
        assert!(matches!(&want[1], OpOutput::Writes(r) if r.len() == 1 && r[0].start_block == 0));
        assert!(matches!(&want[2], OpOutput::Writes(r) if r.len() == 1 && r[0].start_block == 3));

        let s = store(1);
        Ring::serve(&s, RingConfig::default(), |ring| {
            // Hold the drainer off until all three are queued, so they
            // ride one coalesced group.
            ring.queues[0].state.lock().unwrap().draining = true;
            let tickets: Vec<Ticket> = ops
                .iter()
                .zip(0u64..)
                .map(|(op, now)| ring.submit(now, op.clone()).unwrap())
                .collect();
            ring.queues[0].state.lock().unwrap().draining = false;
            ring.queues[0].doorbell.notify_one();
            let got: Vec<OpOutput> = tickets.into_iter().map(|t| ring.wait(t).unwrap()).collect();
            assert_eq!(got, want);
            let st = ring.stats();
            assert_eq!((st.drained_batches, st.coalesced_groups, st.coalesced_writes), (1, 1, 3));
        });
    }

    #[test]
    fn validation_is_typed_and_at_submit_time() {
        let s = store(4);
        Ring::serve(&s, RingConfig::default(), |ring| {
            assert_eq!(
                ring.submit(0, Op::Write { offset: 1, data: vec![0u8; 4096] }),
                Err(RingError::Unaligned)
            );
            assert_eq!(
                ring.submit(0, Op::Write { offset: 0, data: Vec::new() }),
                Err(RingError::Unaligned)
            );
            // extent_blocks = 4 → 16 KiB extents; this read spans two.
            assert_eq!(
                ring.submit(0, Op::Read { offset: 8192, len: 16384 }),
                Err(RingError::CrossShard)
            );
            assert_eq!(
                ring.submit(0, Op::Read { offset: u64::MAX - 4095, len: 8192 }),
                Err(RingError::OutOfRange)
            );
            assert_eq!(ring.submit(0, Op::Flush), Err(RingError::Unsupported("flush")));
            assert_eq!(ring.submit(0, Op::Stats), Err(RingError::Unsupported("stats")));
        });
    }

    #[test]
    fn double_wait_is_unknown_ticket() {
        let s = store(1);
        Ring::serve(&s, RingConfig::default(), |ring| {
            let t = ring.submit(0, Op::Read { offset: 0, len: 4096 }).unwrap();
            assert!(ring.wait(t).is_ok());
            assert_eq!(ring.wait(t), Err(RingError::UnknownTicket));
            let bogus = Ticket { shard: 0, seq: 999 };
            assert_eq!(ring.wait(bogus), Err(RingError::UnknownTicket));
        });
    }

    #[test]
    fn poll_consumes_once_and_types_unknown_tickets() {
        let s = store(1);
        Ring::serve(&s, RingConfig::default(), |ring| {
            let t = ring.submit(0, Op::Read { offset: 0, len: 4096 }).unwrap();
            // Queued or executing reports Ok(None); completed reports the
            // output exactly once.
            let out = loop {
                match ring.poll(t).expect("in-flight ticket stays known") {
                    Some(out) => break out,
                    None => std::thread::yield_now(),
                }
            };
            assert!(matches!(out, OpOutput::Read { len: 4096, .. }));
            assert_eq!(ring.poll(t), Err(RingError::UnknownTicket));
            assert_eq!(ring.wait(t), Err(RingError::UnknownTicket));
            let bogus = Ticket { shard: 0, seq: 999 };
            assert_eq!(ring.poll(bogus), Err(RingError::UnknownTicket));
        });
    }

    #[test]
    fn drain_returns_completions_in_per_shard_submission_order() {
        let s = store(2);
        Ring::serve(&s, RingConfig { depth: 64, shards: 2 }, |ring| {
            let mut tickets = Vec::new();
            for i in 0..16u64 {
                let off = (i % 8) * 16384; // extents alternate shards
                tickets.push(ring.submit(i, Op::Read { offset: off, len: 4096 }).unwrap());
            }
            let done = ring.drain();
            assert_eq!(done.len(), 16);
            for shard in 0..2u32 {
                let seqs: Vec<u64> =
                    done.iter().filter(|(t, _)| t.shard == shard).map(|(t, _)| t.seq).collect();
                let mut sorted = seqs.clone();
                sorted.sort_unstable();
                assert_eq!(seqs, sorted, "shard {shard} completions out of order");
            }
            let st = ring.stats();
            assert_eq!(st.submitted, 16);
            assert_eq!(st.completed, 16);
        });
    }

    #[test]
    #[should_panic(expected = "disagrees with the store")]
    fn shard_count_mismatch_is_rejected() {
        let s = store(2);
        Ring::serve(&s, RingConfig { depth: 4, shards: 3 }, |_| {});
    }
}
