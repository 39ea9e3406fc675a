//! A [`Transport`] wrapper that counts the traffic crossing it, so
//! wire bytes are measured from outside the federation layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ens_service::federation::transport::{Transport, TransportError};

/// Payload bytes accepted by `send` on one or more links (a
/// statistic, hence `Relaxed`). Framing added below the seam is the
/// transport's own and is not counted.
#[derive(Debug, Default)]
pub struct WireCounters {
    sent_bytes: AtomicU64,
}

impl WireCounters {
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes.load(Ordering::Relaxed)
    }
}

pub struct CountingTransport<T> {
    inner: T,
    counters: Arc<WireCounters>,
}

impl<T: Transport> CountingTransport<T> {
    pub fn new(inner: T, counters: Arc<WireCounters>) -> Self {
        CountingTransport { inner, counters }
    }
}

impl<T: Transport> Transport for CountingTransport<T> {
    fn connect(&mut self, now_ms: u64) -> bool {
        self.inner.connect(now_ms)
    }

    fn is_connected(&self) -> bool {
        self.inner.is_connected()
    }

    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.inner.send(payload)?;
        self.counters
            .sent_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.inner.recv()
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loops sent payloads back to `recv`; refuses sends while closed.
    #[derive(Default)]
    struct Loopback {
        up: bool,
        queue: std::collections::VecDeque<Vec<u8>>,
    }

    impl Transport for Loopback {
        fn connect(&mut self, _now_ms: u64) -> bool {
            self.up = true;
            true
        }
        fn is_connected(&self) -> bool {
            self.up
        }
        fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
            if !self.up {
                return Err(TransportError::Disconnected);
            }
            self.queue.push_back(payload.to_vec());
            Ok(())
        }
        fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
            Ok(self.queue.pop_front())
        }
        fn close(&mut self) {
            self.up = false;
        }
    }

    #[test]
    fn counts_accepted_sends_only_and_passes_everything_through() {
        let counters = Arc::new(WireCounters::default());
        let mut t = CountingTransport::new(Loopback::default(), Arc::clone(&counters));
        assert!(!t.is_connected());
        assert_eq!(t.send(b"lost"), Err(TransportError::Disconnected));
        assert_eq!(counters.sent_bytes(), 0, "a refused send is not traffic");

        assert!(t.connect(0));
        assert!(t.is_connected());
        t.send(b"abc").unwrap();
        t.send(b"defgh").unwrap();
        assert_eq!(counters.sent_bytes(), 8);
        assert_eq!(t.recv().unwrap().as_deref(), Some(&b"abc"[..]));
        assert_eq!(t.recv().unwrap().as_deref(), Some(&b"defgh"[..]));
        assert_eq!(t.recv().unwrap(), None);
        assert_eq!(counters.sent_bytes(), 8, "receiving is not counted as sent");

        t.close();
        assert!(!t.is_connected());
    }
}
