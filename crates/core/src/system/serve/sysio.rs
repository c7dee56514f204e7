//! Batched socket syscalls for the serving data path.
//!
//! The wire front-end amortizes kernel crossings three ways, all built on
//! raw `libc`-style syscalls (the `runtime::topology` pattern — every
//! Linux Rust binary already links libc, so binding the symbols directly
//! keeps the workspace dependency-free):
//!
//! * **`SO_REUSEPORT` multi-bind** — [`bind_udp_reader_sockets`] gives
//!   every UDP reader thread a *private* fd bound to the same address.
//!   The kernel hashes each flow's 4-tuple to one socket, so readers get
//!   independent receive queues and never coordinate on fd modes.
//! * **`recvmmsg(2)`** — a [`RecvRing`] drains up to a whole batch of
//!   datagrams in one syscall. The `mmsghdr`/`iovec` arrays are owned by
//!   the ring and reused forever; the reader's hot loop never allocates.
//! * **`sendmmsg(2)`** — a flush's coalesced response runs, one datagram
//!   per peer run, go out in one vectored call ([`send_udp_runs`]) instead
//!   of one `sendto` per run.
//!
//! Non-Linux hosts (and Linux boxes where `SO_REUSEPORT` fails) fall back
//! to the portable one-datagram-per-call `std::net` path behind the same
//! interface, so the transport layer is written once.
//!
//! A TCP flush needs none of this: its responses are one contiguous
//! buffer for one peer, so the stream gets a plain `write` loop
//! (`write_counted`) that counts its syscalls like the rest of the layer.

use std::io;
use std::net::{SocketAddr, TcpStream, UdpSocket};

/// `sizeof(struct sockaddr_in6)` on Linux — the largest peer address the
/// rings store.
const SOCKADDR_LEN: usize = 28;

/// Receive buffer per ring slot. A UDP datagram caps at 64 KiB and the
/// client side coalesces request frames up to ~32 KiB per datagram;
/// sizing slots at the protocol maximum makes kernel truncation
/// impossible rather than merely unlikely.
const RECV_SLOT_LEN: usize = 64 * 1024;

#[cfg(target_os = "linux")]
mod raw {
    //! The raw syscall surface: `repr(C)` mirrors of the kernel structs
    //! plus the handful of constants the serve path needs. x86-64 and
    //! aarch64 Linux share these layouts.

    /// `struct iovec`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub base: *mut u8,
        pub len: usize,
    }

    /// `struct msghdr` (x86-64/aarch64 layout: `msg_iovlen` and
    /// `msg_controllen` are `size_t`, with implicit padding handled by
    /// `repr(C)`).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MsgHdr {
        pub name: *mut u8,
        pub namelen: u32,
        pub iov: *mut IoVec,
        pub iovlen: usize,
        pub control: *mut u8,
        pub controllen: usize,
        pub flags: i32,
    }

    /// `struct mmsghdr`: one msghdr plus the kernel-written datagram
    /// length.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MMsgHdr {
        pub hdr: MsgHdr,
        pub len: u32,
    }

    impl MMsgHdr {
        pub fn zeroed() -> Self {
            Self {
                hdr: MsgHdr {
                    name: std::ptr::null_mut(),
                    namelen: 0,
                    iov: std::ptr::null_mut(),
                    iovlen: 0,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            }
        }
    }

    pub const AF_INET: i32 = 2;
    pub const AF_INET6: i32 = 10;
    pub const SOCK_DGRAM: i32 = 2;
    pub const SOCK_CLOEXEC: i32 = 0o2000000;
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_REUSEPORT: i32 = 15;
    pub const MSG_DONTWAIT: i32 = 0x40;
    pub const MSG_WAITFORONE: i32 = 0x10000;

    extern "C" {
        pub fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        pub fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
        pub fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn recvmmsg(fd: i32, vec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8)
            -> i32;
        pub fn sendmmsg(fd: i32, vec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    }
}

// ---------------------------------------------------------------------------
// sockaddr codecs (Linux wire layout)
// ---------------------------------------------------------------------------

/// Encodes `addr` into Linux `sockaddr_in`/`sockaddr_in6` layout; returns
/// the populated byte length (16 for v4, 28 for v6).
#[cfg(target_os = "linux")]
fn encode_sockaddr(addr: &SocketAddr, out: &mut [u8; SOCKADDR_LEN]) -> u32 {
    out.fill(0);
    match addr {
        SocketAddr::V4(a) => {
            out[0..2].copy_from_slice(&(raw::AF_INET as u16).to_ne_bytes());
            out[2..4].copy_from_slice(&a.port().to_be_bytes());
            out[4..8].copy_from_slice(&a.ip().octets());
            16
        }
        SocketAddr::V6(a) => {
            out[0..2].copy_from_slice(&(raw::AF_INET6 as u16).to_ne_bytes());
            out[2..4].copy_from_slice(&a.port().to_be_bytes());
            out[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
            out[8..24].copy_from_slice(&a.ip().octets());
            out[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            28
        }
    }
}

/// Decodes a kernel-written `sockaddr` back into a [`SocketAddr`];
/// `None` for families the serve path does not speak.
#[cfg(target_os = "linux")]
fn decode_sockaddr(buf: &[u8; SOCKADDR_LEN], len: u32) -> Option<SocketAddr> {
    if (len as usize) < 16 {
        return None;
    }
    let family = u16::from_ne_bytes([buf[0], buf[1]]) as i32;
    let port = u16::from_be_bytes([buf[2], buf[3]]);
    match family {
        raw::AF_INET => {
            let ip = std::net::Ipv4Addr::new(buf[4], buf[5], buf[6], buf[7]);
            Some(SocketAddr::from((ip, port)))
        }
        raw::AF_INET6 if len as usize >= 28 => {
            let mut octets = [0u8; 16];
            octets.copy_from_slice(&buf[8..24]);
            let flowinfo = u32::from_ne_bytes([buf[4], buf[5], buf[6], buf[7]]);
            let scope = u32::from_ne_bytes([buf[24], buf[25], buf[26], buf[27]]);
            Some(SocketAddr::V6(std::net::SocketAddrV6::new(
                std::net::Ipv6Addr::from(octets),
                port,
                flowinfo,
                scope,
            )))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// SO_REUSEPORT multi-bind
// ---------------------------------------------------------------------------

/// Binds one UDP socket per reader to the same address via `SO_REUSEPORT`,
/// so each reader owns a private fd with its own kernel receive queue.
///
/// Returns `n` sockets on success. When `n <= 1`, `SO_REUSEPORT` is
/// unavailable (non-Linux), or any bind fails, falls back to a single
/// plainly-bound socket — the caller shares it across readers exactly like
/// the pre-REUSEPORT front-end did.
pub fn bind_udp_reader_sockets(listen: SocketAddr, n: usize) -> io::Result<Vec<UdpSocket>> {
    if n > 1 {
        if let Ok(first) = bind_reuseport(listen) {
            // Port 0 resolves on the first bind; siblings must join the
            // *resolved* address or they'd each get their own port.
            if let Ok(resolved) = first.local_addr() {
                let mut socks = Vec::with_capacity(n);
                socks.push(first);
                while socks.len() < n {
                    match bind_reuseport(resolved) {
                        Ok(s) => socks.push(s),
                        Err(_) => break,
                    }
                }
                if socks.len() == n {
                    return Ok(socks);
                }
            }
        }
    }
    Ok(vec![UdpSocket::bind(listen)?])
}

/// One `SO_REUSEPORT` UDP socket bound to `addr`.
#[cfg(target_os = "linux")]
fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
    use std::os::fd::FromRawFd;

    let family = match addr {
        SocketAddr::V4(_) => raw::AF_INET,
        SocketAddr::V6(_) => raw::AF_INET6,
    };
    // SAFETY: plain fd-creating syscall with no pointer arguments.
    let fd = unsafe { raw::socket(family, raw::SOCK_DGRAM | raw::SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let fail = |fd: i32| -> io::Error {
        let e = io::Error::last_os_error();
        // SAFETY: `fd` came from `socket` above and is closed exactly once
        // on this error path before ownership could move elsewhere.
        unsafe { raw::close(fd) };
        e
    };
    let one: i32 = 1;
    // SAFETY: the kernel reads exactly 4 bytes from `&one`, which outlives
    // the call.
    let rc = unsafe {
        raw::setsockopt(
            fd,
            raw::SOL_SOCKET,
            raw::SO_REUSEPORT,
            (&one as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc != 0 {
        return Err(fail(fd));
    }
    let mut sa = [0u8; SOCKADDR_LEN];
    let sa_len = encode_sockaddr(&addr, &mut sa);
    // SAFETY: `sa` holds a valid sockaddr of `sa_len` bytes and outlives
    // the call; the kernel only reads it.
    let rc = unsafe { raw::bind(fd, sa.as_ptr(), sa_len) };
    if rc != 0 {
        return Err(fail(fd));
    }
    // SAFETY: `fd` is a freshly created, successfully bound UDP socket this
    // function exclusively owns; `UdpSocket` takes over closing it.
    Ok(unsafe { UdpSocket::from_raw_fd(fd) })
}

#[cfg(not(target_os = "linux"))]
fn bind_reuseport(_addr: SocketAddr) -> io::Result<UdpSocket> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "SO_REUSEPORT path is Linux-only"))
}

// ---------------------------------------------------------------------------
// RecvRing — batched datagram receive
// ---------------------------------------------------------------------------

/// Reader-owned receive arena: `slots` datagram buffers plus the
/// `mmsghdr`/`iovec` arrays `recvmmsg(2)` scatters into. Everything is
/// allocated once at reader start and reused for every syscall, so the
/// reader's hot loop never touches the allocator.
pub struct RecvRing {
    slots: usize,
    bufs: Vec<u8>,
    lens: Vec<usize>,
    peers: Vec<Option<SocketAddr>>,
    #[cfg(target_os = "linux")]
    addrs: Vec<[u8; SOCKADDR_LEN]>,
    #[cfg(target_os = "linux")]
    iovecs: Vec<raw::IoVec>,
    #[cfg(target_os = "linux")]
    hdrs: Vec<raw::MMsgHdr>,
}

impl RecvRing {
    /// A ring with `slots` receive buffers of 64 KiB each.
    pub fn new(slots: usize) -> Self {
        // The portable fallback receives one datagram per call.
        let slots = if cfg!(target_os = "linux") { slots.max(1) } else { 1 };
        Self {
            slots,
            bufs: vec![0u8; slots * RECV_SLOT_LEN],
            lens: vec![0; slots],
            peers: vec![None; slots],
            #[cfg(target_os = "linux")]
            addrs: vec![[0u8; SOCKADDR_LEN]; slots],
            #[cfg(target_os = "linux")]
            iovecs: vec![raw::IoVec { base: std::ptr::null_mut(), len: 0 }; slots],
            #[cfg(target_os = "linux")]
            hdrs: vec![raw::MMsgHdr::zeroed(); slots],
        }
    }

    /// Datagrams one `recv` can return; fewer means the queue was drained.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Receives up to `slots` datagrams in one syscall.
    ///
    /// `block = true` waits for the first datagram (bounded by the fd's
    /// `SO_RCVTIMEO`, so shutdown checks stay live) and then grabs whatever
    /// else is already queued; `block = false` never waits. Timeouts and
    /// empty queues surface as `WouldBlock`/`TimedOut` errors exactly like
    /// `recv_from`.
    #[cfg(target_os = "linux")]
    pub fn recv(&mut self, sock: &UdpSocket, block: bool) -> io::Result<usize> {
        use std::os::fd::AsRawFd;

        self.rearm();
        // MSG_WAITFORONE: block for the first datagram only (honouring
        // SO_RCVTIMEO), then drain nonblocking. The timeout *argument* is
        // deliberately null — recvmmsg only checks it between datagrams,
        // so the fd timeout is the reliable idle bound.
        let flags = if block { raw::MSG_WAITFORONE } else { raw::MSG_DONTWAIT };
        // SAFETY: `rearm` pointed every mmsghdr at iovec/name/buffer
        // storage owned by `self` that outlives the call, and `vlen` equals
        // the header array length, so the kernel writes only memory we own.
        let got = unsafe {
            raw::recvmmsg(
                sock.as_raw_fd(),
                self.hdrs.as_mut_ptr(),
                self.slots as u32,
                flags,
                std::ptr::null_mut(),
            )
        };
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        let got = (got as usize).min(self.slots);
        for i in 0..got {
            self.lens[i] = (self.hdrs[i].len as usize).min(RECV_SLOT_LEN);
            self.peers[i] = decode_sockaddr(&self.addrs[i], self.hdrs[i].hdr.namelen);
        }
        Ok(got)
    }

    /// Portable fallback: one `recv_from` per call behind the same
    /// interface (toggling nonblocking for `block = false` polls).
    #[cfg(not(target_os = "linux"))]
    pub fn recv(&mut self, sock: &UdpSocket, block: bool) -> io::Result<usize> {
        if !block {
            sock.set_nonblocking(true)?;
        }
        let r = sock.recv_from(&mut self.bufs[..RECV_SLOT_LEN]);
        if !block {
            sock.set_nonblocking(false).ok();
        }
        let (n, peer) = r?;
        self.lens[0] = n;
        self.peers[0] = Some(peer);
        Ok(1)
    }

    /// Datagram `i` of the last [`RecvRing::recv`]: its bytes and decoded
    /// peer address (`None` when the kernel reported an address family the
    /// serve path does not speak).
    pub fn datagram(&self, i: usize) -> (&[u8], Option<SocketAddr>) {
        if i >= self.slots {
            return (&[], None);
        }
        let start = i * RECV_SLOT_LEN;
        (&self.bufs[start..start + self.lens[i]], self.peers[i])
    }

    /// Re-points every header at the ring's own storage. Pointers are
    /// recomputed before each syscall (cheap stores) so Vec reallocation
    /// can never leave a header dangling — the arrays themselves are
    /// allocated once in `new` and never resized.
    #[cfg(target_os = "linux")]
    fn rearm(&mut self) {
        let buf_base = self.bufs.as_mut_ptr();
        let iov_base = self.iovecs.as_mut_ptr();
        for i in 0..self.slots {
            self.iovecs[i] =
                raw::IoVec { base: buf_base.wrapping_add(i * RECV_SLOT_LEN), len: RECV_SLOT_LEN };
            self.hdrs[i] = raw::MMsgHdr {
                hdr: raw::MsgHdr {
                    name: self.addrs[i].as_mut_ptr(),
                    namelen: SOCKADDR_LEN as u32,
                    iov: iov_base.wrapping_add(i),
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            };
        }
    }
}

// ---------------------------------------------------------------------------
// SendRing — batched response send
// ---------------------------------------------------------------------------

/// Flush-owned send arena: the `mmsghdr`/`iovec`/`sockaddr` arrays
/// `sendmmsg(2)` gathers from. Sized once for the assembler's `max_batch`
/// (a flush can never produce more runs than requests) and reused for every
/// flush.
pub struct SendRing {
    cap: usize,
    #[cfg(target_os = "linux")]
    addrs: Vec<[u8; SOCKADDR_LEN]>,
    #[cfg(target_os = "linux")]
    addr_lens: Vec<u32>,
    #[cfg(target_os = "linux")]
    iovecs: Vec<raw::IoVec>,
    #[cfg(target_os = "linux")]
    hdrs: Vec<raw::MMsgHdr>,
}

impl SendRing {
    /// A ring able to carry `cap` runs per syscall.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            cap,
            #[cfg(target_os = "linux")]
            addrs: vec![[0u8; SOCKADDR_LEN]; cap],
            #[cfg(target_os = "linux")]
            addr_lens: vec![0; cap],
            #[cfg(target_os = "linux")]
            iovecs: vec![raw::IoVec { base: std::ptr::null_mut(), len: 0 }; cap],
            #[cfg(target_os = "linux")]
            hdrs: vec![raw::MMsgHdr::zeroed(); cap],
        }
    }
}

/// Sends `runs` — byte ranges of `wire`, one datagram each — to their
/// destinations in as few `sendmmsg(2)` calls as possible on `sock`.
///
/// Returns the syscall count. Runs the kernel rejects are reported through
/// `on_fail(run_index)` and skipped; the rest of the batch still goes out.
pub fn send_udp_runs(
    sock: &UdpSocket,
    wire: &[u8],
    runs: &[(usize, usize, SocketAddr)],
    ring: &mut SendRing,
    on_fail: &mut dyn FnMut(usize),
) -> u64 {
    let mut calls = 0u64;
    let mut done = 0usize;
    while done < runs.len() {
        let chunk = &runs[done..(done + ring.cap).min(runs.len())];
        let (used, sent) = send_udp_chunk(sock, wire, chunk, ring, done, on_fail);
        calls += used;
        done += sent;
    }
    calls
}

#[cfg(target_os = "linux")]
fn send_udp_chunk(
    sock: &UdpSocket,
    wire: &[u8],
    chunk: &[(usize, usize, SocketAddr)],
    ring: &mut SendRing,
    base_index: usize,
    on_fail: &mut dyn FnMut(usize),
) -> (u64, usize) {
    use std::os::fd::AsRawFd;

    let n = chunk.len().min(ring.cap);
    for (i, &(start, end, dest)) in chunk.iter().take(n).enumerate() {
        let range = wire.get(start..end).unwrap_or(&[]);
        // sendmmsg never writes through iov_base / msg_name; the mut casts
        // exist only because the C struct is shared with the receive path.
        ring.iovecs[i] = raw::IoVec { base: range.as_ptr() as *mut u8, len: range.len() };
        ring.addr_lens[i] = encode_sockaddr(&dest, &mut ring.addrs[i]);
        ring.hdrs[i] = raw::MMsgHdr {
            hdr: raw::MsgHdr {
                name: ring.addrs[i].as_mut_ptr(),
                namelen: ring.addr_lens[i],
                iov: ring.iovecs.as_mut_ptr().wrapping_add(i),
                iovlen: 1,
                control: std::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        };
    }
    let mut calls = 0u64;
    let mut sent = 0usize;
    while sent < n {
        // SAFETY: headers `sent..n` point at ring- and wire-owned memory
        // that outlives the call; `vlen` matches the remaining header
        // count. The kernel reads the payloads and writes only `len`.
        let r = unsafe {
            raw::sendmmsg(
                sock.as_raw_fd(),
                ring.hdrs.as_mut_ptr().wrapping_add(sent),
                (n - sent) as u32,
                0,
            )
        };
        calls += 1;
        if r > 0 {
            sent += (r as usize).min(n - sent);
            continue;
        }
        let e = io::Error::last_os_error();
        match e.kind() {
            io::ErrorKind::Interrupted => {}
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                // Full send buffer: the peer needs CPU to drain its side.
                std::thread::yield_now();
            }
            _ => {
                // The error pertains to the first unsent message; drop that
                // run and keep the rest of the batch moving.
                on_fail(base_index + sent);
                sent += 1;
            }
        }
    }
    (calls, n)
}

#[cfg(not(target_os = "linux"))]
fn send_udp_chunk(
    sock: &UdpSocket,
    wire: &[u8],
    chunk: &[(usize, usize, SocketAddr)],
    _ring: &mut SendRing,
    base_index: usize,
    on_fail: &mut dyn FnMut(usize),
) -> (u64, usize) {
    let mut calls = 0u64;
    for (i, &(start, end, dest)) in chunk.iter().enumerate() {
        let range = wire.get(start..end).unwrap_or(&[]);
        calls += 1;
        if sock.send_to(range, dest).is_err() {
            on_fail(base_index + i);
        }
    }
    (calls, chunk.len())
}

// ---------------------------------------------------------------------------
// Counted stream writes
// ---------------------------------------------------------------------------

/// Writes all of `bytes` to the stream — `write_all`, except that it counts
/// its syscalls and rides out `EINTR`. A full send buffer is waited out in
/// the kernel, never spun on: on a `nonblocking` fd (the conn reader polls
/// while assembling) the first `WouldBlock` makes the fd blocking for the
/// rest of the write, and it is nonblocking again after. The stream's write
/// timeout bounds each wait, so a peer that drains nothing for that long
/// fails the write (`WouldBlock`), as does one that stopped reading
/// (`WriteZero`). A failed write may have stopped mid-frame, which leaves
/// the stream unparseable, so it also shuts the connection down. Returns
/// the syscall count.
pub(super) fn write_counted(
    mut stream: &TcpStream,
    bytes: &[u8],
    nonblocking: bool,
) -> io::Result<u64> {
    use std::io::{ErrorKind, Write};

    let (mut off, mut calls, mut blocking) = (0usize, 0u64, !nonblocking);
    let written = loop {
        if off == bytes.len() {
            break Ok(calls);
        }
        calls += 1;
        match stream.write(&bytes[off..]) {
            Ok(0) => break Err(io::Error::new(ErrorKind::WriteZero, "peer stopped reading")),
            Ok(n) => off += n,
            Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
            Err(ref e) if e.kind() == ErrorKind::WouldBlock && !blocking => {
                if let Err(e) = stream.set_nonblocking(false) {
                    break Err(e);
                }
                blocking = true;
            }
            Err(e) => break Err(e),
        }
    };
    if blocking && nonblocking {
        // A failed restore degrades the reader to timeout-blocking reads.
        stream.set_nonblocking(true).ok();
    }
    if written.is_err() {
        stream.shutdown(std::net::Shutdown::Both).ok();
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn sockaddr_roundtrip_v4_and_v6() {
        let mut buf = [0u8; SOCKADDR_LEN];
        let v4: SocketAddr = "127.0.0.1:8080".parse().unwrap();
        let len = encode_sockaddr(&v4, &mut buf);
        assert_eq!(len, 16);
        assert_eq!(decode_sockaddr(&buf, len), Some(v4));

        let v6: SocketAddr = "[::1]:9090".parse().unwrap();
        let len = encode_sockaddr(&v6, &mut buf);
        assert_eq!(len, 28);
        assert_eq!(decode_sockaddr(&buf, len), Some(v6));

        assert_eq!(decode_sockaddr(&buf, 4), None);
    }

    #[test]
    fn reuseport_binds_n_private_sockets_to_one_port() {
        let listen: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let socks = bind_udp_reader_sockets(listen, 4).unwrap();
        if cfg!(target_os = "linux") {
            assert_eq!(socks.len(), 4);
            let addr = socks[0].local_addr().unwrap();
            for s in &socks {
                assert_eq!(s.local_addr().unwrap(), addr);
            }
        } else {
            assert_eq!(socks.len(), 1);
        }
    }

    #[test]
    fn recv_ring_drains_multiple_datagrams_in_one_call() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        for i in 0..5u8 {
            client.send_to(&[i; 3], addr).unwrap();
        }
        server.set_read_timeout(Some(std::time::Duration::from_secs(2))).unwrap();
        let mut ring = RecvRing::new(8);
        let mut seen = 0;
        while seen < 5 {
            let got = ring.recv(&server, true).unwrap();
            assert!(got >= 1);
            for i in 0..got {
                let (bytes, peer) = ring.datagram(i);
                assert_eq!(bytes.len(), 3);
                assert_eq!(peer, Some(client.local_addr().unwrap()));
                seen += 1;
            }
        }
    }

    #[test]
    fn send_udp_runs_delivers_each_run_as_a_datagram() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dest = rx.local_addr().unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let wire = b"aaaabbbbbbcc";
        let runs = [(0usize, 4usize, dest), (4, 10, dest), (10, 12, dest)];
        let mut ring = SendRing::new(2); // force chunking across calls
        let mut failed = Vec::new();
        let calls = send_udp_runs(&tx, wire, &runs, &mut ring, &mut |i| failed.push(i));
        assert!(failed.is_empty());
        assert!(calls >= 1);
        rx.set_read_timeout(Some(std::time::Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; 64];
        let mut lens = Vec::new();
        for _ in 0..3 {
            let (n, _) = rx.recv_from(&mut buf).unwrap();
            lens.push(n);
        }
        lens.sort_unstable();
        assert_eq!(lens, vec![2, 4, 6]);
    }
}
