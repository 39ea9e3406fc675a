//! Bounded multi-producer, single-consumer notification channels that
//! drop their oldest entry when full.
//!
//! The broker used to hand every subscriber an unbounded queue, which
//! turns one stalled consumer into unbounded memory growth. This
//! module supplies the replacement: a small MPSC channel whose `send`
//! never blocks the publishing hot path and instead resolves overflow
//! by evicting the oldest queued notification, so a lagging consumer
//! keeps seeing the freshest events at the price of a counted gap.
//!
//! Eviction is why this is hand-rolled rather than a bounded channel
//! from a library shim: it pops from the *send* side, an operation
//! classical bounded channels do not expose.
//!
//! # The consumer claims its backlog
//!
//! A channel has one [`Receiver`], owned by one
//! [`Subscriber`](crate::Subscriber). It keeps a consumer-private
//! buffer, serves receives from it without touching the shared state
//! and, when it is empty, takes the lock once and moves up to [`CLAIM`]
//! queued entries across: a backlog of *n* costs ⌈*n*/`CLAIM`⌉ lock
//! pairs, not *n*. Claimed is received: the capacity bounds what is
//! *queued*, overflow sheds only queued entries, a stalled
//! consumer holds at most `capacity + CLAIM − 1`, and the consumer
//! parks only with an empty claim.
//!
//! Why 8: a lock pair costs ≈ 13 ns beside ≈ 8 ns of queue work per
//! entry, and seven 16-byte entries cost less than 24-byte queue entries
//! did. Why not swap whole buffers: 3 ns less per receive, nothing end to
//! end, and a second full-capacity buffer per subscriber (+54 % heap).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The most entries one lock moves from the queue to the consumer.
pub(crate) const CLAIM: usize = 8;

/// How a send was resolved (the broker turns these into metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// Queued without loss.
    Delivered,
    /// Queued, but the oldest queued notification was evicted to make
    /// room.
    DroppedOne,
}

/// The channel is severed: the receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Disconnected;

/// How [`Sender::send_many`] resolved a run of notifications: what the
/// same run of [`Sender::send`] calls would have reported, in
/// aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pushed {
    /// The notifications of the run that the channel queued: all of
    /// them, or none if it is severed.
    pub(crate) accepted: usize,
    /// Queued notifications evicted to make room for them.
    pub(crate) lost: usize,
    /// The channel is severed: the run was refused and the
    /// subscription should be garbage-collected.
    pub(crate) severed: bool,
}

struct State<T> {
    buf: VecDeque<T>,
    /// Set by dropping the receiver; once closed the channel stays
    /// closed.
    closed: bool,
    /// Notifications evicted from this channel's full queue.
    dropped: u64,
    /// The receiver is in `wait_timeout` and no sender has woken it.
    parked: bool,
}

impl<T> State<T> {
    /// Moves up to [`CLAIM`] queued entries to the consumer: returns
    /// the oldest and leaves the rest in `claimed`, newest first, so
    /// that `pop` hands them out in order.
    fn claim(&mut self, claimed: &mut Vec<T>) -> Option<T> {
        let first = self.buf.pop_front()?;
        let more = self.buf.len().min(CLAIM - 1);
        if more > 0 {
            // The first backlog allocates all a claim can leave behind.
            claimed.reserve_exact(CLAIM - 1);
            claimed.extend(self.buf.drain(..more).rev());
        }
        Some(first)
    }
}

struct Inner<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    senders: AtomicUsize,
    /// Condvar notifications issued so far.
    #[cfg(test)]
    wakes: AtomicUsize,
}

impl<T> Inner<T> {
    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Every condvar notification goes through here (a futex syscall
    /// even with nobody parked, hence worth counting in tests).
    fn wake(&self) {
        #[cfg(test)]
        self.wakes.fetch_add(1, Ordering::Relaxed);
        self.ready.notify_one();
    }
}

/// Creates a notification channel. `capacity == 0` means unbounded
/// (the seed behaviour); otherwise at most `capacity` notifications
/// are queued and a send into a full queue evicts the oldest.
pub(crate) fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            buf: VecDeque::new(),
            closed: false,
            dropped: 0,
            parked: false,
        }),
        ready: Condvar::new(),
        senders: AtomicUsize::new(1),
        #[cfg(test)]
        wakes: AtomicUsize::new(0),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
            capacity,
        },
        Receiver {
            inner,
            claimed: RefCell::new(Vec::new()),
        },
    )
}

/// The broker-side half: owned by dispatch entries.
pub(crate) struct Sender<T> {
    inner: Arc<Inner<T>>,
    capacity: usize,
}

/// The subscriber-side half, wrapped by
/// [`Subscriber`](crate::Subscriber): `Send` and not `Sync`.
pub(crate) struct Receiver<T> {
    inner: Arc<Inner<T>>,
    /// Entries claimed and not yet handed out, newest first.
    claimed: RefCell<Vec<T>>,
}

impl<T> Sender<T> {
    /// Enqueues a notification without ever blocking, evicting the
    /// oldest if the queue is full; `Err` means the channel is severed
    /// and the subscription should be garbage-collected.
    ///
    /// Written out and not as [`Sender::send_many`] of one: handed a
    /// one-element iterator, the compiler has spilled the notification
    /// to the stack and read it back on every send, which cost the
    /// per-event publish path about 9 ns per notification.
    pub(crate) fn send(&self, msg: T) -> Result<SendOutcome, Disconnected> {
        let Some(mut s) = self.open() else {
            return Err(Disconnected);
        };
        let outcome = self.enqueue(&mut s, msg);
        self.release(s);
        Ok(outcome)
    }

    /// Enqueues a run of notifications, in order, under one lock and
    /// with at most one wake-up, without ever blocking. The outcome is
    /// exactly that of one [`Sender::send`] per notification; a
    /// severed channel does not advance the iterator.
    pub(crate) fn send_many<I>(&self, msgs: I) -> Pushed
    where
        I: IntoIterator<Item = T>,
    {
        let mut pushed = Pushed {
            accepted: 0,
            lost: 0,
            severed: true,
        };
        let Some(mut s) = self.open() else {
            return pushed;
        };
        pushed.severed = false;
        for msg in msgs {
            if self.enqueue(&mut s, msg) == SendOutcome::DroppedOne {
                pushed.lost += 1;
            }
            pushed.accepted += 1;
        }
        self.release(s);
        pushed
    }

    /// The locked state of a channel that can still take
    /// notifications, or `None` if it is severed.
    #[inline]
    fn open(&self) -> Option<MutexGuard<'_, State<T>>> {
        let s = self.inner.state();
        (!s.closed).then_some(s)
    }

    /// Queues one notification, evicting the oldest if the queue is
    /// full.
    #[inline]
    fn enqueue(&self, s: &mut State<T>, msg: T) -> SendOutcome {
        if self.capacity == 0 || s.buf.len() < self.capacity {
            s.buf.push_back(msg);
            return SendOutcome::Delivered;
        }
        s.buf.pop_front();
        s.buf.push_back(msg);
        s.dropped += 1;
        SendOutcome::DroppedOne
    }

    /// Unlocks and wakes the receiver if it has something to see.
    ///
    /// Wake rule: the receiver sets `State::parked` under the state
    /// lock before it parks; the flag is read here under the same lock
    /// and taken, so one park costs one syscall however many sends beat
    /// the receiver to the lock. A send into a channel nobody is parked
    /// on makes no syscall, and a parked receiver cannot be missed: its
    /// flag is up, or it has yet to take the lock and will find the
    /// queue non-empty.
    #[inline]
    fn release(&self, mut s: MutexGuard<'_, State<T>>) {
        let wake = s.parked && !s.buf.is_empty();
        s.parked &= !wake;
        drop(s);
        if wake {
            self.inner.wake();
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            inner: Arc::clone(&self.inner),
            capacity: self.capacity,
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender: wake a blocked receiver so it observes the
            // disconnect. Under the state lock, because the receiver
            // checks `senders` and parks without releasing it: a
            // notification sent in between would find nobody parked.
            let _state = self.inner.state();
            self.inner.wake();
        }
    }
}

impl<T> Receiver<T> {
    /// Non-blocking receive: the next claimed entry, or a fresh claim.
    pub(crate) fn try_recv(&self) -> Option<T> {
        let mut claimed = self.claimed.borrow_mut();
        claimed
            .pop()
            .or_else(|| self.inner.state().claim(&mut claimed))
    }

    /// Blocking receive with a timeout. `None` on timeout or
    /// disconnect.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let mut claimed = self.claimed.borrow_mut();
        if let Some(msg) = claimed.pop() {
            return Some(msg);
        }
        let deadline = Instant::now().checked_add(timeout);
        let mut s = self.inner.state();
        loop {
            if let Some(msg) = s.claim(&mut claimed) {
                return Some(msg);
            }
            if s.closed || self.inner.senders.load(Ordering::Acquire) == 0 {
                return None;
            }
            let wait = match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    deadline - now
                }
                // Unrepresentable deadline: wait in long slices.
                None => Duration::from_secs(3600),
            };
            s.parked = true;
            let parked = self.inner.ready.wait_timeout(s, wait);
            s = parked.unwrap_or_else(|e| e.into_inner()).0;
            s.parked = false;
        }
    }

    /// Number of notifications queued or claimed and not yet received.
    pub(crate) fn len(&self) -> usize {
        self.inner.state().buf.len() + self.claimed.borrow().len()
    }

    /// Notifications evicted from this channel's full queue.
    pub(crate) fn dropped(&self) -> u64 {
        self.inner.state().dropped
    }

    /// Whether the channel is severed (regardless of backlog).
    pub(crate) fn is_disconnected(&self) -> bool {
        self.inner.state().closed || self.inner.senders.load(Ordering::Acquire) == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Free the backlog now: `Inner` lives on in every sender the
        // broker still holds, until a publish finds the channel closed.
        let mut s = self.inner.state();
        s.closed = true;
        s.buf = VecDeque::new();
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_when_capacity_zero() {
        let (tx, rx) = channel(0);
        for i in 0..1000 {
            assert_eq!(tx.send(i), Ok(SendOutcome::Delivered));
        }
        assert_eq!(rx.len(), 1000);
        assert_eq!(rx.dropped(), 0);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_tail() {
        let (tx, rx) = channel(3);
        for i in 0..10 {
            let out = tx.send(i).unwrap();
            if i < 3 {
                assert_eq!(out, SendOutcome::Delivered);
            } else {
                assert_eq!(out, SendOutcome::DroppedOne);
            }
        }
        assert_eq!(rx.dropped(), 7);
        assert_eq!(rx.try_recv(), Some(7));
        assert_eq!(rx.try_recv(), Some(8));
        assert_eq!(rx.try_recv(), Some(9));
        assert_eq!(rx.try_recv(), None);
        assert!(!rx.is_disconnected());
    }

    #[test]
    fn dropped_receiver_fails_sends_and_frees_its_backlog() {
        let (tx, rx) = channel(0);
        let item = Arc::new(7);
        for _ in 0..20 {
            tx.send(Arc::clone(&item)).unwrap();
        }
        // Some of the backlog claimed, the rest still queued.
        assert!(rx.try_recv().is_some());
        assert_eq!(Arc::strong_count(&item), 20);
        drop(rx);
        assert_eq!(
            Arc::strong_count(&item),
            1,
            "a dead channel pins its backlog"
        );
        assert_eq!(tx.send(item), Err(Disconnected));
        assert!(tx.send_many(std::iter::empty()).severed);
    }

    #[test]
    fn recv_timeout_wakes_on_cross_thread_send() {
        let (tx, rx) = channel(0);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), None);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(99).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Some(99));
        handle.join().unwrap();
    }

    impl<T> Sender<T> {
        fn wakes(&self) -> usize {
            self.inner.wakes.load(Ordering::Relaxed)
        }

        /// Spins until the receiver is parked. `parked` only changes
        /// under the state lock and the receiver releases that lock by
        /// parking, so seeing the flag here means it is parked (or has
        /// timed out and is about to retake the lock).
        fn await_parked(&self) {
            while !self.inner.state().parked {
                std::thread::yield_now();
            }
        }

        /// Whether both senders feed one channel.
        pub(crate) fn same_channel(&self, other: &Self) -> bool {
            Arc::ptr_eq(&self.inner, &other.inner)
        }
    }

    #[test]
    fn sends_wake_only_a_parked_receiver_and_only_once() {
        let (tx, mut rx) = channel(0);
        tx.send(1).unwrap();
        assert_eq!(tx.send_many([2, 3, 4]).accepted, 3);
        assert_eq!(tx.send_many(std::iter::empty()).accepted, 0);
        assert_eq!(tx.wakes(), 0, "nobody parked: no syscall");
        assert_eq!(rx.len(), 4);
        assert_eq!(std::iter::from_fn(|| rx.try_recv()).count(), 4);

        for many in [false, true] {
            let before = tx.wakes();
            // The receiver is `Send`, not `Sync`: it moves to its
            // consumer and comes back with the result.
            let consumer = std::thread::spawn(move || {
                let got = rx.recv_timeout(Duration::from_secs(10));
                (rx, got)
            });
            tx.await_parked();
            // An empty run has nothing to wake anybody for, and must
            // leave the flag up for the send that has.
            tx.send_many(std::iter::empty());
            assert_eq!(tx.wakes(), before);
            if many {
                tx.send_many([7, 8, 9]);
            } else {
                tx.send(7).unwrap();
            }
            // The first send took the flag: whether the consumer has
            // the lock back yet or not, these find nobody parked.
            tx.send(10).unwrap();
            tx.send_many([11, 12]);
            let got;
            (rx, got) = consumer.join().unwrap();
            assert_eq!(got, Some(7));
            assert_eq!(tx.wakes() - before, 1, "one park: one wake");
            while rx.try_recv().is_some() {}
        }
    }

    #[test]
    fn last_sender_drop_wakes_a_parked_receiver() {
        let (tx, rx) = channel::<u8>(0);
        let consumer = std::thread::spawn(move || {
            let t0 = Instant::now();
            (rx.recv_timeout(Duration::from_secs(10)), t0.elapsed())
        });
        tx.await_parked();
        drop(tx);
        let (got, took) = consumer.join().unwrap();
        assert_eq!(got, None);
        assert!(took < Duration::from_secs(5), "slept through the hang-up");
    }

    /// The consumer parks only with an empty claim: what it has
    /// claimed comes out of `recv_timeout` with nothing queued, nobody
    /// sending and no wait.
    #[test]
    fn recv_timeout_serves_the_claim_before_it_parks() {
        let (tx, rx) = channel(0);
        assert_eq!(tx.send_many(0..5).accepted, 5);
        let consumer = std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut got = vec![rx.try_recv()];
            let queued = rx.inner.state().buf.len();
            for _ in 0..4 {
                got.push(rx.recv_timeout(Duration::from_secs(10)));
            }
            let claim_took = t0.elapsed();
            got.push(rx.recv_timeout(Duration::from_secs(10)));
            (got, queued, claim_took)
        });
        tx.await_parked();
        tx.send(99).unwrap();
        let (got, queued, claim_took) = consumer.join().unwrap();
        assert_eq!(queued, 0, "one claim takes a backlog of five");
        assert_eq!(got, [0, 1, 2, 3, 4, 99].map(Some));
        assert!(
            claim_took < Duration::from_secs(5),
            "waited on its own claim"
        );
        assert_eq!(tx.wakes(), 1);
    }

    /// What the channel promises, written the slow way: a queue the
    /// capacity guards and a claim it does not.
    struct Model {
        capacity: usize,
        queued: VecDeque<u32>,
        claimed: VecDeque<u32>,
        dropped: u64,
    }

    impl Model {
        fn send(&mut self, item: u32) -> SendOutcome {
            self.queued.push_back(item);
            if self.queued.len() <= self.capacity {
                return SendOutcome::Delivered;
            }
            self.queued.pop_front();
            self.dropped += 1;
            SendOutcome::DroppedOne
        }

        fn recv(&mut self) -> Option<u32> {
            if self.claimed.is_empty() {
                let n = self.queued.len().min(CLAIM);
                self.claimed.extend(self.queued.drain(..n));
            }
            self.claimed.pop_front()
        }
    }

    /// Claimed is received: the capacity bounds the queue alone,
    /// overflow sheds from the queue alone, `len` counts both — with
    /// receives in between sends and runs.
    #[test]
    fn capacity_and_policy_govern_the_queue_not_the_claim() {
        for capacity in [1, 3, CLAIM, 20] {
            let mut most_held = 0;
            for seed in 0..24u32 {
                let (tx, rx) = channel(capacity);
                let mut model = Model {
                    capacity,
                    queued: VecDeque::new(),
                    claimed: VecDeque::new(),
                    dropped: 0,
                };
                let mut received = Vec::new();
                let mut next = 0u32;
                let mut r = seed.wrapping_mul(2_654_435_761).wrapping_add(12_345);
                for step in 0..400 {
                    r = r.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    // Send-heavy and receive-heavy stretches.
                    let sending = (step / 40 + seed) % 2 == 0;
                    let case = format!("cap {capacity} seed {seed} step {step}");
                    // Six sends in eight, or two.
                    let op = (r >> 24) % 8;
                    if op >= if sending { 6 } else { 2 } {
                        let got = rx.try_recv();
                        assert_eq!(got, model.recv(), "{case}");
                        received.extend(got);
                    } else if op % 2 == 0 {
                        assert_eq!(tx.send(next), Ok(model.send(next)), "{case}");
                        next += 1;
                    } else {
                        let run = next..next + (r >> 16) % 12;
                        let mut expect = Pushed {
                            accepted: 0,
                            lost: 0,
                            severed: false,
                        };
                        for item in run.clone() {
                            expect.accepted += 1;
                            if model.send(item) == SendOutcome::DroppedOne {
                                expect.lost += 1;
                            }
                        }
                        assert_eq!(tx.send_many(run.clone()), expect, "{case}");
                        next = run.end;
                    }
                    assert_eq!(rx.len(), model.queued.len() + model.claimed.len(), "{case}");
                    assert_eq!(rx.inner.state().buf.len(), model.queued.len(), "{case}");
                    assert_eq!(rx.dropped(), model.dropped, "{case}");
                    assert!(!rx.is_disconnected(), "{case}");
                    assert!(model.queued.len() <= capacity, "{case}");
                    most_held = most_held.max(rx.len());
                }
                // Eviction leaves gaps, never reorders.
                assert!(received.windows(2).all(|w| w[0] < w[1]));
            }
            // The most a stalled consumer holds — and does hold.
            let bound = capacity + CLAIM.min(capacity) - 1;
            assert_eq!(most_held, bound, "cap {capacity}");
        }
    }

    /// Several producers, one consumer that alternates `try_recv` and
    /// `recv_timeout`: every item arrives exactly once, each
    /// producer's in the order sent — across claim boundaries — and no
    /// receive sleeps through a send (a lost wake-up would cost the
    /// full 10-s timeout).
    #[test]
    fn one_consumer_gets_every_item_once_in_order_without_stalling() {
        const PRODUCERS: u32 = 3;
        const PER_PRODUCER: u32 = 4_000;
        let (tx, rx) = channel(0);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            let mut slowest = Duration::ZERO;
            for turn in 0u32.. {
                if turn % 3 == 1 {
                    got.extend(rx.try_recv());
                    continue;
                }
                let t0 = Instant::now();
                let item = rx.recv_timeout(Duration::from_secs(10));
                slowest = slowest.max(t0.elapsed());
                match item {
                    Some(item) => got.push(item),
                    // Every sender is gone and nothing is left.
                    None => break,
                }
            }
            (got, slowest)
        });
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut next = p * PER_PRODUCER;
                    let end = next + PER_PRODUCER;
                    while next < end {
                        // Runs of 1 (`send`) to 4 (`send_many`), with
                        // pauses so the consumer keeps parking.
                        let run = (1 + next % 4).min(end - next);
                        if run == 1 {
                            tx.send(next).unwrap();
                        } else {
                            assert_eq!(tx.send_many(next..next + run).accepted, run as usize);
                        }
                        next += run;
                        if next % 7 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            drop(tx);
        });
        let (got, slowest) = consumer.join().unwrap();
        assert!(slowest < Duration::from_secs(5), "a receive stalled");
        for p in 0..PRODUCERS {
            let of_p = got.iter().copied().filter(|item| item / PER_PRODUCER == p);
            assert!(of_p.eq(p * PER_PRODUCER..(p + 1) * PER_PRODUCER));
        }
        assert_eq!(got.len() as u32, PRODUCERS * PER_PRODUCER);
    }

    #[test]
    fn send_many_equals_a_sequence_of_sends() {
        let drain = |rx: &Receiver<i32>| std::iter::from_fn(|| rx.try_recv()).collect::<Vec<_>>();
        for capacity in [0, 1, 4, 64] {
            for prefill in [0, 1, 3, 4, 63, 64] {
                for run in [0, 1, 2, 5, 70] {
                    // Receives between prefill and run: the run meets a
                    // queue partly claimed away.
                    for receives in [0, 1, 9] {
                        let (one, one_rx) = channel(capacity);
                        let (many, many_rx) = channel(capacity);
                        for i in 0..prefill {
                            assert_eq!(one.send(i), many.send(i));
                        }
                        for _ in 0..receives {
                            assert_eq!(one_rx.try_recv(), many_rx.try_recv());
                        }
                        let mut expect = Pushed {
                            accepted: 0,
                            lost: 0,
                            severed: false,
                        };
                        for i in 1000..1000 + run {
                            expect.accepted += 1;
                            if one.send(i) == Ok(SendOutcome::DroppedOne) {
                                expect.lost += 1;
                            }
                        }
                        let case = format!(
                            "cap {capacity} prefill {prefill} receives {receives} run {run}"
                        );
                        assert_eq!(many.send_many(1000..1000 + run), expect, "{case}");
                        assert_eq!(one_rx.len(), many_rx.len(), "{case}");
                        assert_eq!(one_rx.dropped(), many_rx.dropped(), "{case}");
                        // A later send sees the same channel.
                        assert_eq!(one.send(9), many.send(9), "{case}");
                        assert_eq!(drain(&one_rx), drain(&many_rx), "{case}");
                    }
                }
            }
        }
    }
}
