//! Bounded MPMC notification channels with explicit overflow policies.
//!
//! The broker used to hand every subscriber an unbounded queue, which
//! turns one stalled consumer into unbounded memory growth. This
//! module supplies the replacement: a small MPMC channel whose `send`
//! never blocks the publishing hot path and instead resolves overflow
//! according to a configured [`OverflowPolicy`] — evict the oldest
//! queued notification, refuse the newest, or sever the channel so the
//! broker's dead-subscriber garbage collection prunes the
//! subscription.
//!
//! `DropOldest` is why this is hand-rolled rather than a bounded
//! channel from a library shim: eviction pops from the *send* side,
//! an operation classical bounded channels do not expose.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a bounded subscriber channel does when a send finds it full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Evict the oldest queued notification to admit the new one: the
    /// consumer keeps seeing the freshest events at the price of a gap
    /// (the default — matches a monitoring consumer that only cares
    /// about current state).
    #[default]
    DropOldest,
    /// Refuse the new notification and keep the queued backlog intact:
    /// the consumer drains a contiguous prefix and misses the tail.
    DropNewest,
    /// Sever the channel: the subscriber is treated as hung-up, and
    /// the broker's dead-subscriber garbage collection cancels the
    /// subscription on this publish.
    Disconnect,
}

/// How a send was resolved (the broker turns these into metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// Queued without loss.
    Delivered,
    /// Queued, but one previously queued notification was evicted
    /// (`DropOldest`) — or the new one was refused (`DropNewest`).
    /// Either way exactly one notification was lost.
    DroppedOne,
}

/// The channel is severed: every receiver is gone, or an overflow
/// under [`OverflowPolicy::Disconnect`] closed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Disconnected;

/// How [`Sender::send_many`] resolved a run of notifications: what the
/// same run of [`Sender::send`] calls would have reported, in
/// aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pushed {
    /// The leading notifications of the run that the channel took:
    /// queued, or counted against the overflow policy.
    pub(crate) accepted: usize,
    /// How many of those were lost to `DropOldest`/`DropNewest`.
    pub(crate) lost: usize,
    /// The channel is severed: every notification from index
    /// `accepted` on was refused and the subscription should be
    /// garbage-collected.
    pub(crate) severed: bool,
}

struct State<T> {
    buf: VecDeque<T>,
    /// Set by an overflow under [`OverflowPolicy::Disconnect`]; once
    /// closed the channel stays closed.
    closed: bool,
    /// Notifications lost to the overflow policy on this channel.
    dropped: u64,
    /// Receivers inside `Condvar::wait_timeout`. A count, not a flag:
    /// `&Receiver` is `Sync`, so several threads may park on one
    /// channel.
    waiters: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    /// Condvar notifications issued so far.
    #[cfg(test)]
    wakes: AtomicUsize,
}

impl<T> Inner<T> {
    fn state(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Every condvar notification goes through here (a futex syscall
    /// even with nobody parked, hence worth counting in tests).
    fn wake(&self, all: bool) {
        #[cfg(test)]
        self.wakes.fetch_add(1, Ordering::Relaxed);
        if all {
            self.ready.notify_all();
        } else {
            self.ready.notify_one();
        }
    }
}

/// Creates a notification channel. `capacity == 0` means unbounded
/// (the seed behaviour); otherwise at most `capacity` notifications
/// are queued and `policy` resolves overflow.
pub(crate) fn channel<T>(capacity: usize, policy: OverflowPolicy) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            buf: VecDeque::new(),
            closed: false,
            dropped: 0,
            waiters: 0,
        }),
        ready: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        #[cfg(test)]
        wakes: AtomicUsize::new(0),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
            capacity,
            policy,
        },
        Receiver { inner },
    )
}

/// The broker-side half: owned by dispatch entries.
pub(crate) struct Sender<T> {
    inner: Arc<Inner<T>>,
    capacity: usize,
    policy: OverflowPolicy,
}

/// The subscriber-side half, wrapped by
/// [`Subscriber`](crate::Subscriber).
pub(crate) struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Sender<T> {
    /// Enqueues a notification without ever blocking. Overflow is
    /// resolved by the channel's policy; `Err` means the channel is
    /// severed and the subscription should be garbage-collected.
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
        self.release(s, outcome.is_err());
        outcome
    }

    /// Enqueues a run of notifications, in order, under one lock and
    /// with at most one wake-up, without ever blocking. The outcome is
    /// exactly that of one [`Sender::send`] per notification; the
    /// iterator is not advanced past the notification that finds the
    /// channel severed.
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
            match self.enqueue(&mut s, msg) {
                Ok(SendOutcome::Delivered) => {}
                Ok(SendOutcome::DroppedOne) => pushed.lost += 1,
                Err(Disconnected) => {
                    pushed.severed = true;
                    break;
                }
            }
            pushed.accepted += 1;
        }
        self.release(s, pushed.severed);
        pushed
    }

    /// The locked state of a channel that can still take
    /// notifications, or `None` if it is severed.
    #[inline]
    fn open(&self) -> Option<std::sync::MutexGuard<'_, State<T>>> {
        if self.inner.receivers.load(Ordering::Acquire) == 0 {
            return None;
        }
        let s = self.inner.state();
        (!s.closed).then_some(s)
    }

    /// Queues one notification, or resolves the overflow it meets by
    /// the channel's policy (`Err`: the policy closed the channel).
    #[inline]
    fn enqueue(&self, s: &mut State<T>, msg: T) -> Result<SendOutcome, Disconnected> {
        if self.capacity == 0 || s.buf.len() < self.capacity {
            s.buf.push_back(msg);
            return Ok(SendOutcome::Delivered);
        }
        match self.policy {
            OverflowPolicy::DropOldest => {
                s.buf.pop_front();
                s.buf.push_back(msg);
            }
            OverflowPolicy::DropNewest => {}
            OverflowPolicy::Disconnect => {
                s.closed = true;
                s.buf.clear();
                return Err(Disconnected);
            }
        }
        s.dropped += 1;
        Ok(SendOutcome::DroppedOne)
    }

    /// Unlocks and wakes whoever has to see what was queued.
    ///
    /// Wake rule: a receiver counts itself in `State::waiters` under
    /// the state lock before it parks and the count is read here under
    /// the same lock, so a send into a channel nobody is parked on
    /// makes no syscall, and a parked receiver cannot be missed — it is
    /// either counted, or has yet to take the lock and will find the
    /// queue non-empty.
    #[inline]
    fn release(&self, s: std::sync::MutexGuard<'_, State<T>>, severed: bool) {
        let parked = s.waiters;
        let queued = s.buf.len();
        drop(s);
        if severed {
            self.inner.wake(true);
        } else if parked > 0 && queued > 0 {
            // One waiter per queued notification, as single sends
            // would have woken.
            self.inner.wake(parked > 1 && queued > 1);
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            inner: Arc::clone(&self.inner),
            capacity: self.capacity,
            policy: self.policy,
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender: wake blocked receivers so they observe the
            // disconnect. Under the state lock, because a receiver
            // checks `senders` and parks without releasing it: a
            // notification sent in between would find nobody parked.
            let _state = self.inner.state();
            self.inner.wake(true);
        }
    }
}

/// Why [`Receiver::try_recv`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TryRecvError {
    /// Nothing queued right now.
    Empty,
    /// Nothing queued and the channel is severed (every sender gone,
    /// or closed by [`OverflowPolicy::Disconnect`]).
    Disconnected,
}

impl<T> Receiver<T> {
    /// Non-blocking receive.
    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut s = self.inner.state();
        if let Some(msg) = s.buf.pop_front() {
            return Ok(msg);
        }
        if s.closed || self.inner.senders.load(Ordering::Acquire) == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Blocking receive with a timeout. `None` on timeout or
    /// disconnect.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now().checked_add(timeout);
        let mut s = self.inner.state();
        loop {
            if let Some(msg) = s.buf.pop_front() {
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
            s.waiters += 1;
            let (guard, _timed_out) = self
                .inner
                .ready
                .wait_timeout(s, wait)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
            s.waiters -= 1;
        }
    }

    /// Number of queued notifications.
    pub(crate) fn len(&self) -> usize {
        self.inner.state().buf.len()
    }

    /// Notifications this channel has lost to its overflow policy.
    pub(crate) fn dropped(&self) -> u64 {
        self.inner.state().dropped
    }

    /// Whether the channel is severed (regardless of queued backlog).
    pub(crate) fn is_disconnected(&self) -> bool {
        self.inner.state().closed || self.inner.senders.load(Ordering::Acquire) == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.receivers.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
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
        let (tx, rx) = channel(0, OverflowPolicy::DropOldest);
        for i in 0..1000 {
            assert_eq!(tx.send(i), Ok(SendOutcome::Delivered));
        }
        assert_eq!(rx.len(), 1000);
        assert_eq!(rx.dropped(), 0);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_tail() {
        let (tx, rx) = channel(3, OverflowPolicy::DropOldest);
        for i in 0..10 {
            let out = tx.send(i).unwrap();
            if i < 3 {
                assert_eq!(out, SendOutcome::Delivered);
            } else {
                assert_eq!(out, SendOutcome::DroppedOne);
            }
        }
        assert_eq!(rx.dropped(), 7);
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Ok(8));
        assert_eq!(rx.try_recv(), Ok(9));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn drop_newest_keeps_the_prefix() {
        let (tx, rx) = channel(3, OverflowPolicy::DropNewest);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.dropped(), 7);
        assert_eq!(rx.try_recv(), Ok(0));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_policy_severs_the_channel() {
        let (tx, rx) = channel(2, OverflowPolicy::Disconnect);
        assert!(tx.send(0).is_ok());
        assert!(tx.send(1).is_ok());
        assert_eq!(tx.send(2), Err(Disconnected));
        // Severed for good: the backlog is gone and later sends fail.
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(tx.send(3), Err(Disconnected));
    }

    #[test]
    fn dropped_receiver_fails_sends() {
        let (tx, rx) = channel(0, OverflowPolicy::DropOldest);
        drop(rx);
        assert_eq!(tx.send(1), Err(Disconnected));
    }

    #[test]
    fn recv_timeout_wakes_on_cross_thread_send() {
        let (tx, rx) = channel(0, OverflowPolicy::DropOldest);
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

        /// Spins until `n` receivers are parked. `waiters` only changes
        /// under the state lock and a receiver releases that lock by
        /// parking, so seeing the count here means it is parked (or has
        /// timed out and is about to retake the lock).
        fn await_parked(&self, n: usize) {
            while self.inner.state().waiters != n {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn sends_wake_only_parked_receivers() {
        let (tx, rx) = channel(0, OverflowPolicy::DropOldest);
        tx.send(1).unwrap();
        assert_eq!(tx.send_many([2, 3, 4]).accepted, 3);
        assert_eq!(tx.send_many(std::iter::empty()).accepted, 0);
        assert_eq!(tx.wakes(), 0, "nobody parked: no syscall");
        assert_eq!(rx.len(), 4);
        while rx.try_recv().is_ok() {}

        for many in [false, true] {
            let before = tx.wakes();
            std::thread::scope(|scope| {
                let parked = scope.spawn(|| rx.recv_timeout(Duration::from_secs(10)));
                tx.await_parked(1);
                if many {
                    tx.send_many([7, 8, 9]);
                } else {
                    tx.send(7).unwrap();
                }
                assert_eq!(parked.join().unwrap(), Some(7));
            });
            assert_eq!(tx.wakes() - before, 1, "one parked receiver: one wake");
            while rx.try_recv().is_ok() {}
        }
    }

    #[test]
    fn a_run_wakes_every_receiver_it_can_feed() {
        let (tx, rx) = channel(0, OverflowPolicy::DropOldest);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| rx.recv_timeout(Duration::from_secs(10)));
            let b = scope.spawn(|| rx.recv_timeout(Duration::from_secs(10)));
            tx.await_parked(2);
            let t0 = Instant::now();
            tx.send_many([1, 2]);
            let mut got = [a.join().unwrap(), b.join().unwrap()];
            got.sort();
            assert_eq!(got, [Some(1), Some(2)]);
            assert!(t0.elapsed() < Duration::from_secs(5), "second waiter slept");
        });
        assert_eq!(tx.wakes(), 1);
    }

    #[test]
    fn last_sender_drop_wakes_a_parked_receiver() {
        let (tx, rx) = channel::<u8>(0, OverflowPolicy::DropOldest);
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| {
                let t0 = Instant::now();
                (rx.recv_timeout(Duration::from_secs(10)), t0.elapsed())
            });
            tx.await_parked(1);
            drop(tx);
            let (got, took) = parked.join().unwrap();
            assert_eq!(got, None);
            assert!(took < Duration::from_secs(5), "slept through the hang-up");
        });
    }

    /// Several producers, two threads parked on one `&Receiver`: every
    /// item arrives exactly once and no receive sleeps through a send
    /// (a lost wake-up would cost the full 10-s timeout).
    #[test]
    fn concurrent_receivers_get_every_item_once_without_stalling() {
        const PRODUCERS: u32 = 3;
        const PER_PRODUCER: u32 = 4_000;
        let (tx, rx) = channel(0, OverflowPolicy::DropOldest);
        let consume = || {
            let mut got = Vec::new();
            let mut slowest = Duration::ZERO;
            loop {
                let t0 = Instant::now();
                let item = rx.recv_timeout(Duration::from_secs(10));
                slowest = slowest.max(t0.elapsed());
                match item {
                    Some(item) => got.push(item),
                    // Every sender is gone and the queue is empty.
                    None => return (got, slowest),
                }
            }
        };
        let (a, b) = std::thread::scope(|scope| {
            let consumers = [scope.spawn(consume), scope.spawn(consume)];
            for p in 0..PRODUCERS {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut next = p * PER_PRODUCER;
                    let end = next + PER_PRODUCER;
                    while next < end {
                        // Runs of 1 (`send`) to 4 (`send_many`), with
                        // pauses so the consumers keep parking.
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
            let [a, b] = consumers.map(|c| c.join().unwrap());
            (a, b)
        });
        assert!(a.1.max(b.1) < Duration::from_secs(5), "a receive stalled");
        let mut all: Vec<u32> = a.0.into_iter().chain(b.0).collect();
        all.sort_unstable();
        assert!(all.into_iter().eq(0..PRODUCERS * PER_PRODUCER));
    }

    #[test]
    fn send_many_equals_a_sequence_of_sends() {
        let policies = [
            OverflowPolicy::DropOldest,
            OverflowPolicy::DropNewest,
            OverflowPolicy::Disconnect,
        ];
        for policy in policies {
            for capacity in [0, 1, 4, 64] {
                for prefill in [0, 1, 3, 4, 63, 64] {
                    for run in [0, 1, 2, 5, 70] {
                        let (one, one_rx) = channel(capacity, policy);
                        let (many, many_rx) = channel(capacity, policy);
                        for i in 0..prefill {
                            assert_eq!(one.send(i).is_ok(), many.send(i).is_ok());
                        }
                        let mut expect = Pushed {
                            accepted: 0,
                            lost: 0,
                            severed: false,
                        };
                        for i in 1000..1000 + run {
                            match one.send(i) {
                                _ if expect.severed => {}
                                Ok(SendOutcome::Delivered) => expect.accepted += 1,
                                Ok(SendOutcome::DroppedOne) => {
                                    expect.accepted += 1;
                                    expect.lost += 1;
                                }
                                Err(Disconnected) => expect.severed = true,
                            }
                        }
                        if run == 0 {
                            // A run of sends cannot see a severed
                            // channel without sending; an empty
                            // `send_many` can.
                            expect.severed = one_rx.is_disconnected();
                        }
                        let case = format!("{policy:?} cap {capacity} prefill {prefill} run {run}");
                        assert_eq!(many.send_many(1000..1000 + run), expect, "{case}");
                        assert_eq!(one_rx.dropped(), many_rx.dropped(), "{case}");
                        assert_eq!(
                            one_rx.is_disconnected(),
                            many_rx.is_disconnected(),
                            "{case}"
                        );
                        // A later send sees the same channel.
                        assert_eq!(one.send(9), many.send(9), "{case}");
                        let drain = |rx: &Receiver<i32>| {
                            std::iter::from_fn(|| rx.try_recv().ok()).collect::<Vec<_>>()
                        };
                        assert_eq!(drain(&one_rx), drain(&many_rx), "{case}");
                    }
                }
            }
        }
    }
}
