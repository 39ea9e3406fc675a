use std::sync::Arc;
use std::time::Duration;

use ens_types::Event;

use crate::channel::Receiver;
use crate::subscription::SubscriptionId;

/// A delivered event notification.
///
/// The event is shared: the broker allocates one [`Arc`] per publish
/// and every matched subscriber receives a handle to the same
/// allocation, so fan-out to thousands of subscribers copies pointers,
/// not event payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The subscription this notification belongs to.
    pub subscription: SubscriptionId,
    /// Sequence number of the event within the broker (publish order).
    pub sequence: u64,
    /// The matching event (shared with all other subscribers it matched).
    pub event: Arc<Event>,
}

/// What a subscriber's channel queues: a [`Notification`] without the
/// subscription id its [`Subscriber`] already knows — 16 bytes, not 24.
pub(crate) struct Queued {
    pub(crate) sequence: u64,
    pub(crate) event: Arc<Event>,
}

/// The consumer half of a subscription: the one handle on its channel.
///
/// Dropping the subscriber closes the channel and frees its backlog;
/// the broker garbage-collects the subscription on the next publish
/// that matches it. The queue is bounded by
/// [`BrokerConfig::notify_capacity`] (unbounded by default); a full
/// queue evicts its oldest notification, and [`Subscriber::dropped`]
/// reports how many this channel has lost that way.
///
/// `Send` and not `Sync`, like `std::sync::mpsc::Receiver`: move the
/// subscriber to the thread that consumes it.
///
/// ```compile_fail,E0277
/// fn shared<T: Sync>() {}
/// shared::<ens_service::Subscriber>();
/// ```
///
/// [`BrokerConfig::notify_capacity`]: crate::BrokerConfig::notify_capacity
#[derive(Debug)]
pub struct Subscriber {
    id: SubscriptionId,
    rx: Receiver<Queued>,
}

impl Subscriber {
    pub(crate) fn new(id: SubscriptionId, rx: Receiver<Queued>) -> Self {
        Subscriber { id, rx }
    }

    fn notification(&self, queued: Queued) -> Notification {
        Notification {
            subscription: self.id,
            sequence: queued.sequence,
            event: queued.event,
        }
    }

    /// The subscription this handle consumes.
    #[must_use]
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Non-blocking receive.
    #[must_use]
    #[inline]
    pub fn try_recv(&self) -> Option<Notification> {
        self.rx.try_recv().map(|q| self.notification(q))
    }

    /// Blocking receive with a timeout.
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Notification> {
        self.rx.recv_timeout(timeout).map(|q| self.notification(q))
    }

    /// Drains everything currently queued, a claim at a time.
    #[must_use]
    pub fn drain(&self) -> Vec<Notification> {
        std::iter::from_fn(|| self.try_recv()).collect()
    }

    /// Number of notifications sent and not yet received.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.rx.len()
    }

    /// Notifications this subscription's full channel has evicted (0
    /// on unbounded channels).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.rx.dropped()
    }

    /// Whether the channel has been severed: the broker dropped its
    /// sender (subscription cancelled). Queued notifications may still
    /// be pending.
    #[must_use]
    pub fn is_disconnected(&self) -> bool {
        self.rx.is_disconnected()
    }
}

#[cfg(test)]
mod tests {
    /// A subscriber moves to the thread that consumes it (that it is
    /// not `Sync` is the `compile_fail` doctest on [`super::Subscriber`]).
    const _: fn() = || {
        fn is_send<T: Send>() {}
        is_send::<super::Subscriber>();
    };
}
