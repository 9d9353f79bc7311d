//! Transports: how encoded frames move between server and clients.
//!
//! A transport is a pair of directional halves — [`FrameSender`] /
//! [`FrameReceiver`] — delivering whole encoded frames (as produced by
//! [`crate::wire::encode_frame`], length prefix included). Keeping the
//! halves separate lets the server hold every client's sender in its
//! dispatch loop while a per-connection reader thread owns the receiver.
//!
//! Three implementations:
//!
//! * **Duplex channel** ([`channel_duplex`]) — a pair of in-process
//!   `mpsc` channels, the transport of thread workers. Zero filesystem
//!   footprint; frames still travel as encoded bytes, so the wire format
//!   is exercised end to end.
//! * **Unix-domain socket** — a real `SOCK_STREAM` socket: the sender
//!   writes the encoded frame, the receiver reads the length prefix then
//!   the body.
//! * **TCP loopback** — the same stream framing over `127.0.0.1`, with
//!   `TCP_NODELAY` set on both ends (frames are small and latency-bound;
//!   Nagle batching would serialize the dispatch ping-pong). This is the
//!   paper's actual deployment transport — worker *processes*, and with
//!   a routable bind address one day, worker *hosts*.
//!
//! Both socket kinds sit behind two types: a [`Listener`] binds, accepts
//! and owns its socket, and an [`Endpoint`] names where it listens and
//! connects to it. They share one generic framing implementation (the
//! private `StreamSender` / `StreamReceiver`), so their `Disconnected`
//! semantics are identical by construction: EOF, connection reset and
//! broken pipe all surface as [`EvaldError::Disconnected`] — the signal
//! the server's straggler re-dispatch turns into "re-queue this client's
//! work".

use crate::wire::MAX_FRAME_LEN;
use crate::{EvaldError, TransportKind};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// The sending half of a connection.
pub trait FrameSender: Send {
    /// Deliver one encoded frame (as produced by
    /// [`crate::wire::encode_frame`]).
    ///
    /// # Errors
    ///
    /// [`EvaldError::Disconnected`] when the peer is gone;
    /// [`EvaldError::Io`] for underlying socket failures.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), EvaldError>;

    /// Sever the connection so a peer blocked in a receive observes it.
    ///
    /// Channel transports get this for free (dropping the sender closes
    /// the channel), so the default is a no-op; stream transports must
    /// shut the socket down — the receiving half is a *clone* of the
    /// same stream held by a reader thread, and merely dropping the
    /// sender would leave both the peer and that reader blocked
    /// forever.
    fn close(&mut self) {}
}

/// The receiving half of a connection.
pub trait FrameReceiver: Send {
    /// Block until one whole encoded frame arrives and return its bytes
    /// (length prefix included, ready for
    /// [`crate::wire::decode_frame`]).
    ///
    /// # Errors
    ///
    /// [`EvaldError::Disconnected`] when the peer closed the connection;
    /// [`EvaldError::Corrupt`] when the stream desynchronized.
    fn recv_frame(&mut self) -> Result<Vec<u8>, EvaldError>;
}

/// One end of a connection: a sender plus a receiver.
pub struct Duplex {
    /// The sending half.
    pub tx: Box<dyn FrameSender>,
    /// The receiving half.
    pub rx: Box<dyn FrameReceiver>,
}

// ---------------------------------------------------------------- channel

struct ChannelSender(mpsc::Sender<Vec<u8>>);

impl FrameSender for ChannelSender {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), EvaldError> {
        self.0
            .send(frame.to_vec())
            .map_err(|_| EvaldError::Disconnected)
    }
}

struct ChannelReceiver(mpsc::Receiver<Vec<u8>>);

impl FrameReceiver for ChannelReceiver {
    fn recv_frame(&mut self) -> Result<Vec<u8>, EvaldError> {
        self.0.recv().map_err(|_| EvaldError::Disconnected)
    }
}

/// An in-process duplex connection; returns the two ends (conventionally
/// `(server_end, client_end)` — they are symmetric).
pub fn channel_duplex() -> (Duplex, Duplex) {
    let (a_tx, b_rx) = mpsc::channel();
    let (b_tx, a_rx) = mpsc::channel();
    (
        Duplex {
            tx: Box::new(ChannelSender(a_tx)),
            rx: Box::new(ChannelReceiver(a_rx)),
        },
        Duplex {
            tx: Box::new(ChannelSender(b_tx)),
            rx: Box::new(ChannelReceiver(b_rx)),
        },
    )
}

// --------------------------------------------------- stream sockets shared

/// What the generic stream framing needs from a socket type: byte I/O, a
/// second handle onto the same connection (sender and receiver halves
/// live on different threads), and a way to sever the connection so
/// every handle observes EOF.
trait FrameStream: Read + Write + Send + Sized + 'static {
    fn try_clone_stream(&self) -> std::io::Result<Self>;
    fn shutdown_both(&self);
}

impl FrameStream for UnixStream {
    fn try_clone_stream(&self) -> std::io::Result<UnixStream> {
        self.try_clone()
    }

    fn shutdown_both(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

impl FrameStream for TcpStream {
    fn try_clone_stream(&self) -> std::io::Result<TcpStream> {
        self.try_clone()
    }

    fn shutdown_both(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

fn is_disconnect(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
    )
}

/// Sending half over any [`FrameStream`] (Unix or TCP).
struct StreamSender<S: FrameStream>(S);

impl<S: FrameStream> FrameSender for StreamSender<S> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), EvaldError> {
        self.0.write_all(frame).map_err(|e| {
            if is_disconnect(e.kind()) {
                EvaldError::Disconnected
            } else {
                EvaldError::Io(e)
            }
        })
    }

    fn close(&mut self) {
        // Shut down the whole socket (already-written frames still
        // drain to the peer first): the peer's blocked receive and our
        // reader thread's clone both observe EOF.
        self.0.shutdown_both();
    }
}

/// Receiving half over any [`FrameStream`]: read the length prefix, then
/// exactly the body.
struct StreamReceiver<S: FrameStream>(S);

impl<S: FrameStream> FrameReceiver for StreamReceiver<S> {
    fn recv_frame(&mut self) -> Result<Vec<u8>, EvaldError> {
        let mut prefix = [0u8; 4];
        if let Err(e) = self.0.read_exact(&mut prefix) {
            // EOF at a frame boundary is a clean close; mid-prefix or
            // mid-body EOF is equally "peer gone" for our purposes.
            return Err(if is_disconnect(e.kind()) {
                EvaldError::Disconnected
            } else {
                EvaldError::Io(e)
            });
        }
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(EvaldError::Corrupt("stream frame length exceeds the cap"));
        }
        let mut frame = vec![0u8; 4 + len];
        frame[..4].copy_from_slice(&prefix);
        self.0.read_exact(&mut frame[4..]).map_err(|e| {
            if is_disconnect(e.kind()) {
                EvaldError::Disconnected
            } else {
                EvaldError::Io(e)
            }
        })?;
        Ok(frame)
    }
}

fn stream_duplex<S: FrameStream>(stream: S) -> Result<Duplex, EvaldError> {
    let write = stream.try_clone_stream()?;
    Ok(Duplex {
        tx: Box::new(StreamSender(write)),
        rx: Box::new(StreamReceiver(stream)),
    })
}

// ------------------------------------------------- endpoint and listener

/// Monotonic suffix for generated Unix socket paths, so parallel tests
/// (or several listeners in one process) never collide.
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where a client reaches a [`Listener`]: a Unix-domain socket path or a
/// TCP loopback address. Displays as `unix:<path>` or `tcp:<addr>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP loopback address (`127.0.0.1:port`).
    Tcp(SocketAddr),
}

impl Endpoint {
    /// Connect to the listener at this endpoint. TCP connections set
    /// `TCP_NODELAY`.
    ///
    /// # Errors
    ///
    /// [`EvaldError::Io`] when the listener cannot be reached.
    pub fn connect(&self) -> Result<Duplex, EvaldError> {
        match self {
            Endpoint::Unix(path) => stream_duplex(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => tcp_duplex(TcpStream::connect(addr)?),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// Dispatch is a latency-bound frame ping-pong; Nagle batching would
/// stall it, so both ends of a TCP connection set `TCP_NODELAY`.
fn tcp_duplex(stream: TcpStream) -> Result<Duplex, EvaldError> {
    stream.set_nodelay(true)?;
    stream_duplex(stream)
}

#[derive(Debug)]
enum Socket {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// A bound listening socket, Unix or TCP, and the [`Endpoint`] its
/// clients connect to.
///
/// A Unix listener owns its socket file. Binding unlinks a stale file
/// left by a killed previous run (`Drop` never runs after SIGKILL), and
/// dropping the listener removes the file, so a finished (or panicked)
/// run leaves nothing for the next one to trip over.
#[derive(Debug)]
pub struct Listener {
    socket: Socket,
    endpoint: Endpoint,
}

impl Listener {
    /// Bind a listener of `kind`.
    ///
    /// Unix binds at `unix_path`, or at a fresh path under the system
    /// temp dir when it is `None`. TCP binds `127.0.0.1` with an
    /// OS-assigned port and ignores `unix_path`: loopback only by
    /// construction, because the farm is local worker processes, not an
    /// open network service.
    ///
    /// # Errors
    ///
    /// [`EvaldError::Protocol`] for [`TransportKind::Channel`], which has
    /// no socket to listen on; [`EvaldError::Io`] when binding fails.
    pub fn bind(kind: TransportKind, unix_path: Option<&Path>) -> Result<Listener, EvaldError> {
        let (socket, endpoint) = match kind {
            TransportKind::Channel => {
                return Err(EvaldError::Protocol(
                    "the channel transport has no socket to listen on",
                ))
            }
            TransportKind::Unix => {
                let path = unix_path.map_or_else(
                    || {
                        std::env::temp_dir().join(format!(
                            "evald-{}-{}.sock",
                            std::process::id(),
                            SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
                        ))
                    },
                    Path::to_path_buf,
                );
                let _ = std::fs::remove_file(&path);
                (
                    Socket::Unix(UnixListener::bind(&path)?),
                    Endpoint::Unix(path),
                )
            }
            TransportKind::Tcp => {
                let listener = TcpListener::bind(("127.0.0.1", 0))?;
                let addr = listener.local_addr()?;
                (Socket::Tcp(listener), Endpoint::Tcp(addr))
            }
        };
        Ok(Listener { socket, endpoint })
    }

    /// Where clients connect.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Accept one client connection (TCP sets `TCP_NODELAY`).
    ///
    /// # Errors
    ///
    /// [`EvaldError::Io`] when accepting, configuring or cloning the
    /// stream fails — of kind `WouldBlock` when a nonblocking listener
    /// has nothing pending.
    pub fn accept(&self) -> Result<Duplex, EvaldError> {
        match &self.socket {
            Socket::Unix(l) => stream_duplex(l.accept()?.0),
            Socket::Tcp(l) => tcp_duplex(l.accept()?.0),
        }
    }

    /// Make [`Listener::accept`] return at once when no connection is
    /// pending, instead of blocking.
    ///
    /// # Errors
    ///
    /// [`EvaldError::Io`] when the socket refuses the mode change.
    pub fn set_nonblocking(&self) -> Result<(), EvaldError> {
        match &self.socket {
            Socket::Unix(l) => l.set_nonblocking(true)?,
            Socket::Tcp(l) => l.set_nonblocking(true)?,
        }
        Ok(())
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame, Frame};

    fn scratch_socket(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("evald_{}_{}.sock", std::process::id(), name))
    }

    #[test]
    fn channel_round_trips_frames() {
        let (mut server, mut client) = channel_duplex();
        let frame = Frame::Ping { nonce: 3 };
        server.tx.send_frame(&encode_frame(&frame)).unwrap();
        let bytes = client.rx.recv_frame().unwrap();
        assert_eq!(decode_frame(&bytes).unwrap().0, frame);

        client
            .tx
            .send_frame(&encode_frame(&Frame::Shutdown))
            .unwrap();
        let bytes = server.rx.recv_frame().unwrap();
        assert_eq!(decode_frame(&bytes).unwrap().0, Frame::Shutdown);
    }

    #[test]
    fn channel_reports_disconnect() {
        let (server, mut client) = channel_duplex();
        drop(server);
        assert!(matches!(
            client.rx.recv_frame(),
            Err(EvaldError::Disconnected)
        ));
        assert!(matches!(
            client.tx.send_frame(b"x"),
            Err(EvaldError::Disconnected)
        ));
    }

    #[test]
    fn unix_socket_round_trips_frames_and_reports_eof() {
        let path = scratch_socket("round_trip");
        let listener = Listener::bind(TransportKind::Unix, Some(&path)).unwrap();
        assert_eq!(listener.endpoint(), &Endpoint::Unix(path.clone()));
        let endpoint = listener.endpoint().clone();
        let client_thread = std::thread::spawn(move || {
            let mut d = endpoint.connect().unwrap();
            let bytes = d.rx.recv_frame().unwrap();
            let (frame, _) = decode_frame(&bytes).unwrap();
            d.tx.send_frame(&encode_frame(&frame)).unwrap(); // echo
                                                             // Dropping both halves closes the stream.
        });
        let mut server = listener.accept().unwrap();
        let frame = Frame::Work {
            shard: 9,
            span: 0,
            job: 1,
            genomes: vec![vec![true; 21], vec![false; 4]],
        };
        server.tx.send_frame(&encode_frame(&frame)).unwrap();
        let echoed = server.rx.recv_frame().unwrap();
        assert_eq!(decode_frame(&echoed).unwrap().0, frame);
        client_thread.join().unwrap();
        // The peer is gone: the next read reports a disconnect.
        assert!(matches!(
            server.rx.recv_frame(),
            Err(EvaldError::Disconnected)
        ));
    }

    #[test]
    fn unix_bind_reclaims_stale_socket_file() {
        let path = scratch_socket("stale");
        std::fs::write(&path, b"stale").unwrap();
        let listener =
            Listener::bind(TransportKind::Unix, Some(&path)).expect("rebinds over stale file");
        assert!(path.exists(), "freshly bound socket exists");
        // Dropping the listener removes the socket file, so the *next*
        // run does not even need the stale-unlink path.
        drop(listener);
        assert!(!path.exists(), "drop removed the socket file");
    }

    #[test]
    fn bind_generates_fresh_unix_paths_and_refuses_the_channel() {
        let a = Listener::bind(TransportKind::Unix, None).unwrap();
        let b = Listener::bind(TransportKind::Unix, None).unwrap();
        assert_ne!(a.endpoint(), b.endpoint(), "generated paths never collide");
        assert!(a.endpoint().to_string().starts_with("unix:"));
        let Endpoint::Unix(path) = a.endpoint().clone() else {
            unreachable!("a Unix listener has a Unix endpoint")
        };
        assert!(path.exists(), "freshly bound socket exists");
        drop(a);
        assert!(!path.exists(), "drop removed the generated socket file");
        assert!(matches!(
            Listener::bind(TransportKind::Channel, None),
            Err(EvaldError::Protocol(_))
        ));
    }

    #[test]
    fn tcp_round_trips_frames_and_reports_eof() {
        let listener = Listener::bind(TransportKind::Tcp, None).unwrap();
        let endpoint = listener.endpoint().clone();
        assert!(endpoint.to_string().starts_with("tcp:127.0.0.1:"));
        let client_thread = std::thread::spawn(move || {
            let mut d = endpoint.connect().unwrap();
            let bytes = d.rx.recv_frame().unwrap();
            let (frame, _) = decode_frame(&bytes).unwrap();
            d.tx.send_frame(&encode_frame(&frame)).unwrap(); // echo
        });
        let mut server = listener.accept().unwrap();
        let frame = Frame::Work {
            shard: 5,
            span: 0,
            job: 1,
            genomes: vec![vec![true, false, true], vec![false; 9]],
        };
        server.tx.send_frame(&encode_frame(&frame)).unwrap();
        let echoed = server.rx.recv_frame().unwrap();
        assert_eq!(decode_frame(&echoed).unwrap().0, frame);
        client_thread.join().unwrap();
        // The peer is gone: the next read reports a disconnect.
        assert!(matches!(
            server.rx.recv_frame(),
            Err(EvaldError::Disconnected)
        ));
    }

    #[test]
    fn tcp_truncated_frame_is_a_disconnect_not_a_misread() {
        // A peer that dies mid-frame (length prefix promised more bytes
        // than ever arrive) must surface as Disconnected.
        let listener = Listener::bind(TransportKind::Tcp, None).unwrap();
        let Endpoint::Tcp(addr) = *listener.endpoint() else {
            unreachable!("a TCP listener has a TCP endpoint")
        };
        let client_thread = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let frame = encode_frame(&Frame::Ping { nonce: 1 });
            stream.write_all(&frame[..frame.len() - 3]).unwrap();
            // Dropping the stream closes it mid-frame.
        });
        let mut server = listener.accept().unwrap();
        assert!(matches!(
            server.rx.recv_frame(),
            Err(EvaldError::Disconnected)
        ));
        client_thread.join().unwrap();
    }

    #[test]
    fn tcp_oversized_length_prefix_is_corrupt() {
        // A desynchronized or malicious peer declaring a multi-gigabyte
        // frame must be rejected before any allocation.
        let listener = Listener::bind(TransportKind::Tcp, None).unwrap();
        let Endpoint::Tcp(addr) = *listener.endpoint() else {
            unreachable!("a TCP listener has a TCP endpoint")
        };
        let client_thread = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes())
                .unwrap();
            // Hold the socket open so the server's error is about the
            // prefix, not EOF.
            stream
        });
        let mut server = listener.accept().unwrap();
        assert!(matches!(
            server.rx.recv_frame(),
            Err(EvaldError::Corrupt(_))
        ));
        drop(client_thread.join().unwrap());
    }
}
