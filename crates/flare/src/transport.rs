//! Frame transports: in-process mailboxes (simulator mode) and TCP.
//!
//! There is one in-process channel, the reactor's
//! [`crate::reactor::FrameQueue`]. Simulated sites attach through
//! [`crate::server::FlServer::serve_session`], which hands each client
//! the far end of its session mailbox; [`in_proc_pair`] wires two of the
//! same queues into a standalone pair for tests. TCP peers attach through
//! [`crate::server::FlServer::serve_connection`]. Both transports move
//! opaque byte frames; the [`crate::wire`] codec and
//! [`crate::security::SecureChannel`] layers sit on top, so the simulator
//! and a real multi-process deployment run byte-identical protocols.

use crate::reactor::{FrameQueue, QueueRx, QueueTx};
use crate::FlareError;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Sending half of a connection.
pub trait FrameTx: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`FlareError::Transport`] when the peer is gone.
    fn send(&mut self, frame: &[u8]) -> Result<(), FlareError>;
}

/// Receiving half of a connection.
pub trait FrameRx: Send {
    /// Receives one frame, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`FlareError::Timeout`] if the deadline passes;
    /// [`FlareError::Transport`] when the peer is gone.
    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, FlareError>;
}

/// A bidirectional connection that can be split into halves owned by
/// different threads.
pub struct Connection {
    /// Sending half.
    pub tx: Box<dyn FrameTx>,
    /// Receiving half.
    pub rx: Box<dyn FrameRx>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------

/// Creates a connected in-process pair from two reactor mailboxes, one
/// per direction. Dropping either end closes both of its queues, so the
/// peer sees a disconnect instead of hanging.
pub fn in_proc_pair() -> (Connection, Connection) {
    let (a_to_b, b_to_a) = (FrameQueue::new(), FrameQueue::new());
    (
        Connection {
            tx: Box::new(QueueTx(Arc::clone(&a_to_b))),
            rx: Box::new(QueueRx(Arc::clone(&b_to_a))),
        },
        Connection {
            tx: Box::new(QueueTx(b_to_a)),
            rx: Box::new(QueueRx(a_to_b)),
        },
    )
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

/// Default write deadline for TCP streams: a peer that stops draining its
/// socket must surface as [`FlareError::Timeout`] instead of blocking a
/// server handler thread forever.
pub const TCP_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

struct TcpTx(TcpStream);

impl FrameTx for TcpTx {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlareError> {
        let len = u32::try_from(frame.len())
            .map_err(|_| FlareError::Transport("frame exceeds u32 length".into()))?;
        match self
            .0
            .write_all(&len.to_le_bytes())
            .and_then(|_| self.0.write_all(frame))
        {
            Ok(()) => Ok(()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(FlareError::Timeout)
            }
            Err(e) => Err(FlareError::Transport(format!("tcp send: {e}"))),
        }
    }
}

struct TcpRx(TcpStream);

impl FrameRx for TcpRx {
    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, FlareError> {
        self.0
            .set_read_timeout(Some(timeout))
            .map_err(|e| FlareError::Transport(format!("set timeout: {e}")))?;
        let mut len_bytes = [0u8; 4];
        match self.0.read_exact(&mut len_bytes) {
            Ok(()) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(FlareError::Timeout)
            }
            Err(e) => return Err(FlareError::Transport(format!("tcp recv: {e}"))),
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > (1 << 30) {
            return Err(FlareError::Codec(format!(
                "tcp frame length {len} too large"
            )));
        }
        let mut buf = vec![0u8; len];
        match self.0.read_exact(&mut buf) {
            Ok(()) => Ok(buf),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A frame header arrived but the body stalled past the
                // deadline: the stream is desynchronized, but the caller's
                // thread is free to give up instead of hanging.
                Err(FlareError::Timeout)
            }
            Err(e) => Err(FlareError::Transport(format!("tcp recv body: {e}"))),
        }
    }
}

/// The NVFlare-equivalent "real deployment" transport over TCP.
#[derive(Debug)]
pub struct TcpTransport;

impl TcpTransport {
    /// Connects to a listening server, returning a split connection.
    ///
    /// # Errors
    ///
    /// [`FlareError::Transport`] on connect/clone failure.
    pub fn connect(addr: &str) -> Result<Connection, FlareError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| FlareError::Transport(format!("connect {addr}: {e}")))?;
        Self::from_stream(stream)
    }

    /// Wraps an accepted stream into a split connection with the default
    /// [`TCP_WRITE_TIMEOUT`] so a dead peer cannot wedge a sender thread.
    ///
    /// # Errors
    ///
    /// [`FlareError::Transport`] if the stream cannot be duplicated.
    pub fn from_stream(stream: TcpStream) -> Result<Connection, FlareError> {
        Self::from_stream_with_write_timeout(stream, TCP_WRITE_TIMEOUT)
    }

    /// [`TcpTransport::from_stream`] with an explicit write deadline
    /// (tests use short deadlines to prove sends cannot block forever).
    ///
    /// # Errors
    ///
    /// [`FlareError::Transport`] if the stream cannot be duplicated.
    pub fn from_stream_with_write_timeout(
        stream: TcpStream,
        write_timeout: Duration,
    ) -> Result<Connection, FlareError> {
        stream
            .set_nodelay(true)
            .map_err(|e| FlareError::Transport(format!("nodelay: {e}")))?;
        stream
            .set_write_timeout(Some(write_timeout))
            .map_err(|e| FlareError::Transport(format!("set write timeout: {e}")))?;
        let rx = stream
            .try_clone()
            .map_err(|e| FlareError::Transport(format!("clone stream: {e}")))?;
        Ok(Connection {
            tx: Box::new(TcpTx(stream)),
            rx: Box::new(TcpRx(rx)),
        })
    }

    /// Binds a listener on `addr` (use port 0 for ephemeral).
    ///
    /// # Errors
    ///
    /// [`FlareError::Io`] on bind failure.
    pub fn listen(addr: &str) -> Result<TcpListener, FlareError> {
        Ok(TcpListener::bind(addr)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn in_proc_roundtrip() {
        let (mut a, mut b) = in_proc_pair();
        a.tx.send(b"ping").unwrap();
        assert_eq!(b.rx.recv(Duration::from_millis(100)).unwrap(), b"ping");
        b.tx.send(b"pong").unwrap();
        assert_eq!(a.rx.recv(Duration::from_millis(100)).unwrap(), b"pong");
    }

    #[test]
    fn in_proc_timeout() {
        let (mut a, _b) = in_proc_pair();
        assert!(matches!(
            a.rx.recv(Duration::from_millis(20)),
            Err(FlareError::Timeout)
        ));
    }

    #[test]
    fn in_proc_disconnect_detected() {
        let (mut a, b) = in_proc_pair();
        drop(b);
        assert!(matches!(
            a.rx.recv(Duration::from_millis(20)),
            Err(FlareError::Transport(_))
        ));
        assert!(a.tx.send(b"x").is_err());
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = TcpTransport::from_stream(stream).unwrap();
            let got = conn.rx.recv(Duration::from_secs(2)).unwrap();
            conn.tx.send(&got).unwrap(); // echo
        });
        let mut client = TcpTransport::connect(&addr).unwrap();
        let frame: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        client.tx.send(&frame).unwrap();
        assert_eq!(client.rx.recv(Duration::from_secs(2)).unwrap(), frame);
        server.join().unwrap();
    }

    #[test]
    fn tcp_timeout() {
        let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let _server = thread::spawn(move || {
            let (_stream, _) = listener.accept().unwrap();
            thread::sleep(Duration::from_millis(200));
        });
        let mut client = TcpTransport::connect(&addr).unwrap();
        assert!(matches!(
            client.rx.recv(Duration::from_millis(30)),
            Err(FlareError::Timeout)
        ));
    }

    #[test]
    fn tcp_write_times_out_instead_of_hanging() {
        let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Accept but never read, so the kernel socket buffers fill up.
        let _server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        let stream = TcpStream::connect(&addr).unwrap();
        let mut client =
            TcpTransport::from_stream_with_write_timeout(stream, Duration::from_millis(100))
                .unwrap();
        let frame = vec![0u8; 1 << 20];
        let mut saw_timeout = false;
        for _ in 0..64 {
            match client.tx.send(&frame) {
                Ok(()) => continue,
                Err(FlareError::Timeout) => {
                    saw_timeout = true;
                    break;
                }
                Err(e) => panic!("expected Timeout, got {e}"),
            }
        }
        assert!(saw_timeout, "64 MiB of sends never hit the write deadline");
    }

    #[test]
    fn tcp_empty_frame() {
        let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = TcpTransport::from_stream(stream).unwrap();
            conn.rx.recv(Duration::from_secs(2)).unwrap()
        });
        let mut client = TcpTransport::connect(&addr).unwrap();
        client.tx.send(b"").unwrap();
        assert_eq!(server.join().unwrap(), Vec::<u8>::new());
    }
}
