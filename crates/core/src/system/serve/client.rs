//! A small blocking client for the serve protocol — shared by the
//! integration tests, the CLI's loopback load drivers and the loopback
//! example.
//!
//! One client owns one socket. UDP responses arrive as datagrams carrying
//! one or more frames; TCP responses are a byte stream the client
//! reassembles. Either way [`ServeClient::recv`] hands back every frame
//! one read produced, and [`ServeClient::call`] is the closed-loop
//! convenience: send one request, wait for its echo.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::Duration;

use nm_common::frame::{decode_response, encode_request, ResponseFrame};

enum Inner {
    Udp(UdpSocket),
    Tcp { stream: TcpStream, carry: Vec<u8> },
}

/// Blocking protocol client over UDP or TCP.
pub struct ServeClient {
    inner: Inner,
    wire: Vec<u8>,
    recv_buf: Vec<u8>,
}

impl ServeClient {
    /// A UDP client talking to `server` from an ephemeral local port.
    pub fn udp(server: SocketAddr) -> std::io::Result<Self> {
        let sock = UdpSocket::bind(("127.0.0.1", 0))?;
        sock.connect(server)?;
        Ok(Self { inner: Inner::Udp(sock), wire: Vec::new(), recv_buf: vec![0; 64 * 1024] })
    }

    /// A TCP client connected to `server`.
    pub fn tcp(server: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(server)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            inner: Inner::Tcp { stream, carry: Vec::new() },
            wire: Vec::new(),
            recv_buf: vec![0; 64 * 1024],
        })
    }

    /// Sends one request frame.
    pub fn send(&mut self, id: u64, key: &[u64]) -> std::io::Result<()> {
        self.wire.clear();
        encode_request(&mut self.wire, id, key);
        match &mut self.inner {
            Inner::Udp(sock) => sock.send(&self.wire).map(|_| ()),
            Inner::Tcp { stream, .. } => stream.write_all(&self.wire),
        }
    }

    /// Receives whatever one socket read produces: at least one response
    /// frame, or an empty vec on a clean TCP EOF. Blocks up to `timeout`
    /// (`None` = forever); a timeout surfaces as `WouldBlock`/`TimedOut`.
    pub fn recv(&mut self, timeout: Option<Duration>) -> std::io::Result<Vec<ResponseFrame>> {
        let mut out = Vec::new();
        loop {
            match &mut self.inner {
                Inner::Udp(sock) => {
                    sock.set_read_timeout(timeout)?;
                    let n = sock.recv(&mut self.recv_buf)?;
                    let mut off = 0;
                    while off < n {
                        match decode_response(&self.recv_buf[off..n]) {
                            Ok(Some((frame, used))) => {
                                out.push(frame);
                                off += used;
                            }
                            _ => {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::InvalidData,
                                    "malformed response datagram",
                                ))
                            }
                        }
                    }
                }
                Inner::Tcp { stream, carry } => {
                    stream.set_read_timeout(timeout)?;
                    let n = stream.read(&mut self.recv_buf)?;
                    if n == 0 {
                        return Ok(out);
                    }
                    carry.extend_from_slice(&self.recv_buf[..n]);
                    let mut off = 0;
                    loop {
                        match decode_response(&carry[off..]) {
                            Ok(Some((frame, used))) => {
                                out.push(frame);
                                off += used;
                            }
                            Ok(None) => break,
                            Err(_) => {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::InvalidData,
                                    "malformed response stream",
                                ))
                            }
                        }
                    }
                    carry.drain(..off);
                }
            }
            if !out.is_empty() {
                return Ok(out);
            }
            // A TCP read can end mid-frame; keep reading until at least
            // one whole frame lands (the timeout still bounds each read).
        }
    }

    /// Sends a window of requests — key `i` of the flat `keys` buffer
    /// (`stride` words each) goes out with id `first_id + i`. UDP frames
    /// coalesce into datagrams capped well under the 64KB limit; TCP is
    /// one buffered write. Returns the number of requests sent.
    pub fn send_batch(
        &mut self,
        first_id: u64,
        keys: &[u64],
        stride: usize,
    ) -> std::io::Result<usize> {
        let n = keys.len() / stride.max(1);
        self.wire.clear();
        for i in 0..n {
            encode_request(
                &mut self.wire,
                first_id + i as u64,
                &keys[i * stride..(i + 1) * stride],
            );
            if self.wire.len() >= 32 * 1024 || i + 1 == n {
                match &mut self.inner {
                    Inner::Udp(sock) => {
                        sock.send(&self.wire)?;
                    }
                    Inner::Tcp { stream, .. } => stream.write_all(&self.wire)?,
                }
                self.wire.clear();
            }
        }
        Ok(n)
    }

    /// Closed-loop convenience: send `key` as request `id` and block until
    /// that id's response arrives (discarding any other ids, which cannot
    /// happen on a private client socket).
    pub fn call(
        &mut self,
        id: u64,
        key: &[u64],
        timeout: Duration,
    ) -> std::io::Result<ResponseFrame> {
        self.send(id, key)?;
        loop {
            for frame in self.recv(Some(timeout))? {
                if frame.id == id {
                    return Ok(frame);
                }
            }
        }
    }
}
