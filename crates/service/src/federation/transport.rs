//! Transport abstraction under federation links.
//!
//! `PeerLink` (in the private `link` module) is sans-I/O: every
//! byte it moves goes through this [`Transport`] trait, so the same state
//! machine runs over real sockets ([`TcpTransport`]) and over the
//! deterministic fault-injection network
//! ([`SimTransport`](super::sim::SimTransport)) that the robustness
//! suite drives with seeded drop/delay/duplicate/reorder/partition
//! and torn-write faults.
//!
//! A transport moves whole message payloads; the wire frame (length +
//! CRC header) is the transport's concern, which is what lets the sim
//! model torn writes as truncated frames and have them surface
//! exactly like a corrupted TCP stream would: as
//! [`TransportError::Corrupt`].

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ens_filter::persist::{frame, PersistError};

use super::wire::FrameBuffer;

/// Ceiling on bytes buffered for an unwritable socket. A peer that
/// falls this far behind is indistinguishable from a dead one: the
/// connection is reset and Go-Back-N retransmission covers the
/// buffered traffic on the next connection.
const MAX_WRITE_BUFFER: usize = 16 << 20;

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The connection is gone (EOF, reset, or never established). The
    /// link resets and schedules a reconnect.
    Disconnected,
    /// The byte stream is unrecoverable (CRC mismatch, torn frame,
    /// nonsense length). The link drops the connection — resuming
    /// mid-garbage is impossible — and reconnects.
    Corrupt(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "transport disconnected"),
            TransportError::Corrupt(msg) => write!(f, "transport stream corrupt: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<PersistError> for TransportError {
    fn from(e: PersistError) -> Self {
        TransportError::Corrupt(e.to_string())
    }
}

/// A reliable-until-it-isn't, message-framed byte transport.
///
/// Implementations must be non-blocking: `recv` returns `Ok(None)`
/// when nothing is available, and `send` may buffer briefly but must
/// not park the caller indefinitely.
pub trait Transport: Send {
    /// Attempts to (re)establish the connection. Returns whether the
    /// transport is now connected. `now_ms` is the caller's clock so
    /// fault-injection transports can log attempt times.
    fn connect(&mut self, now_ms: u64) -> bool;

    /// Whether the transport currently believes it is connected (it
    /// may learn otherwise on the next send/recv).
    fn is_connected(&self) -> bool;

    /// Sends one message payload (the transport adds framing).
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the connection is gone.
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError>;

    /// Receives the next complete message payload, if one is ready.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] on EOF/reset,
    /// [`TransportError::Corrupt`] when the stream can no longer be
    /// framed.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError>;

    /// Tears the connection down (reconnect may follow later).
    fn close(&mut self);
}

/// Shared slot through which an accept loop hands an inbound
/// connection to the passive side of a [`TcpTransport`].
///
/// TCP federation avoids simultaneous-open glare by convention: the
/// lower node id dials, the higher id listens. The acceptor cannot
/// know which peer a fresh socket belongs to until it reads the first
/// `Hello` frame, so it parses that frame itself and then *adopts*
/// the stream — plus any bytes read beyond the frame — into the slot
/// registered for that peer.
pub type AdoptSlot = Arc<Mutex<AdoptState>>;

/// Contents of an [`AdoptSlot`].
#[derive(Debug, Default)]
pub struct AdoptState {
    /// The accepted, identified stream (taken by the transport).
    pub stream: Option<TcpStream>,
    /// Bytes the acceptor read past the identifying `Hello` frame —
    /// including that frame itself, so the link still observes the
    /// greeting through the normal path.
    pub preread: Vec<u8>,
}

/// How a [`TcpTransport`] obtains its stream.
enum TcpMode {
    /// Actively dial the peer (lower node id).
    Dial(SocketAddr),
    /// Wait for the accept loop to deposit an identified inbound
    /// stream (higher node id).
    Passive(AdoptSlot),
}

/// [`Transport`] over a real TCP socket (`std::net`, non-blocking).
///
/// Sends never block or sleep: bytes the socket will not take
/// immediately are buffered (`wbuf`) and flushed opportunistically on
/// later sends and receives, so a slow peer costs the caller — which
/// typically holds the federation state lock — nothing but memory, up
/// to `MAX_WRITE_BUFFER`.
pub struct TcpTransport {
    mode: TcpMode,
    stream: Option<TcpStream>,
    rbuf: FrameBuffer,
    /// Outbound bytes the socket has not accepted yet.
    wbuf: Vec<u8>,
    /// Flushed prefix of `wbuf`; consumed bytes are compacted lazily.
    wpos: usize,
    connect_timeout: Duration,
}

impl TcpTransport {
    /// A dialing transport: `connect` attempts a TCP connection to
    /// `addr` each time the link's backoff schedule fires.
    #[must_use]
    pub fn dial(addr: SocketAddr) -> Self {
        TcpTransport {
            mode: TcpMode::Dial(addr),
            stream: None,
            rbuf: FrameBuffer::new(),
            wbuf: Vec::new(),
            wpos: 0,
            connect_timeout: Duration::from_millis(250),
        }
    }

    /// A passive transport: `connect` succeeds once the accept loop
    /// has deposited an identified stream into `slot`.
    #[must_use]
    pub fn passive(slot: AdoptSlot) -> Self {
        TcpTransport {
            mode: TcpMode::Passive(slot),
            stream: None,
            rbuf: FrameBuffer::new(),
            wbuf: Vec::new(),
            wpos: 0,
            connect_timeout: Duration::from_millis(250),
        }
    }

    fn drop_stream(&mut self) {
        self.stream = None;
        self.rbuf = FrameBuffer::new();
        self.wbuf.clear();
        self.wpos = 0;
    }

    /// Writes as much buffered outbound data as the socket will take
    /// right now, without blocking or sleeping.
    fn flush_wbuf(&mut self) -> Result<(), TransportError> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(TransportError::Disconnected);
        };
        while self.wpos < self.wbuf.len() {
            match stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.drop_stream();
                    return Err(TransportError::Disconnected);
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.drop_stream();
                    return Err(TransportError::Disconnected);
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn connect(&mut self, _now_ms: u64) -> bool {
        if self.stream.is_some() {
            return true;
        }
        match &self.mode {
            TcpMode::Dial(addr) => {
                match TcpStream::connect_timeout(addr, self.connect_timeout) {
                    Ok(s) => {
                        // Federation traffic is latency-sensitive
                        // control traffic; batching is done above.
                        let _ = s.set_nodelay(true);
                        if s.set_nonblocking(true).is_err() {
                            return false;
                        }
                        self.stream = Some(s);
                        true
                    }
                    Err(_) => false,
                }
            }
            TcpMode::Passive(slot) => {
                let mut st = slot.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(s) = st.stream.take() {
                    if s.set_nonblocking(true).is_err() {
                        return false;
                    }
                    let preread = std::mem::take(&mut st.preread);
                    drop(st);
                    self.rbuf = FrameBuffer::new();
                    self.rbuf.extend(&preread);
                    self.stream = Some(s);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        if self.stream.is_none() {
            return Err(TransportError::Disconnected);
        }
        if self.wbuf.len() - self.wpos + payload.len() > MAX_WRITE_BUFFER {
            // The peer has not drained in so long that buffering more
            // would be unbounded; treat it as dead. The link keeps
            // the unacked copies and retransmits after reconnecting.
            self.drop_stream();
            return Err(TransportError::Disconnected);
        }
        let framed = frame(payload)?;
        self.wbuf.extend_from_slice(&framed);
        self.flush_wbuf()
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        // Push any backlog the socket refused during sends — receive
        // polls happen every pump, so a temporarily full socket
        // drains without anyone sleeping on it.
        if self.stream.is_some() && self.wpos < self.wbuf.len() {
            self.flush_wbuf()?;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            // Frames already buffered first (e.g. adopted preread),
            // then whatever each read completes.
            match self.rbuf.next_frame() {
                Ok(Some(p)) => return Ok(Some(p)),
                Ok(None) => {}
                Err(e) => {
                    self.drop_stream();
                    return Err(e.into());
                }
            }
            let Some(stream) = self.stream.as_mut() else {
                return Err(TransportError::Disconnected);
            };
            match stream.read(&mut chunk) {
                Ok(0) => {
                    self.drop_stream();
                    return Err(TransportError::Disconnected);
                }
                Ok(n) => self.rbuf.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.drop_stream();
                    return Err(TransportError::Disconnected);
                }
            }
        }
    }

    fn close(&mut self) {
        self.drop_stream();
    }
}

impl fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match &self.mode {
            TcpMode::Dial(addr) => format!("dial {addr}"),
            TcpMode::Passive(_) => "passive".to_string(),
        };
        f.debug_struct("TcpTransport")
            .field("mode", &mode)
            .field("connected", &self.stream.is_some())
            .finish()
    }
}
