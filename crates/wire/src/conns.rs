//! The server's connection table: every open connection in a
//! token-indexed slab, registered one-shot with one epoll instance that
//! the worker pool itself waits on.
//!
//! A connection is *parked* (in its slot; armed, unless its request waits
//! in a lane queue) or *busy* (taken out by the one worker its readiness
//! event woke, slot reserved). Parked connections cost nothing: workers
//! wait without a timeout unless a ticket is queued ([`QUEUE_POLL`]) or an
//! idle/stall deadline is pending (then exactly until it falls due).
//! Readiness is `epoll` behind the `epoll` shim crate: Linux only.
//!
//! A connection is re-armed under the slab lock ([`ConnTable::put_back`]),
//! so its next event can fire while the lock is held. The workers run
//! under `SCHED_BATCH` (see the server's "Connections"): the worker that
//! event wakes does not preempt the one still inside `epoll_ctl`, and so
//! does not park on the lock it holds. The turn runs to completion, and
//! the worker that finishes it usually takes the event itself.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use epoll::Poller;
use oasis_core::{AdmissionController, Deadline, OasisService, Ticket};
use oasis_json::FromJson;
use parking_lot::Mutex;

use crate::error::WireError;
use crate::frame::FrameBuf;
use crate::proto::Request;

/// How often an idle worker re-polls admission tickets queued in a lane
/// (a worker finishing a turn polls them at once). Timed waits of this
/// length happen only while something is queued.
const QUEUE_POLL: Duration = Duration::from_millis(2);

/// How long a frame may take to arrive once its first byte has, and the
/// socket deadline for writing a response. A peer that starts a frame and
/// stalls loses its connection; it never holds a worker.
const FRAME_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Poller token of the wake-up channel. Connection tokens are slab indices.
const WAKE: u64 = u64::MAX;

/// One client connection.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Controller-clock timestamp of the last frame read or written.
    pub(crate) last_active_ms: u64,
    /// A request admitted into a lane queue, awaiting its permit. While
    /// set, the connection is not armed and no further frames are read
    /// from it (the protocol is call/return, so the client is waiting on
    /// this answer anyway).
    pub(crate) pending: Option<PendingRequest>,
    /// The bytes of a frame that has started to arrive. Empty, and holding
    /// no allocation, between requests.
    inbuf: FrameBuf,
    /// Controller-clock timestamp at which `inbuf` last started a frame.
    frame_started_ms: u64,
}

pub(crate) struct PendingRequest {
    pub(crate) ticket: Ticket,
    pub(crate) deadline: Deadline,
    pub(crate) request: Request,
    pub(crate) trace: Option<oasis_obs::TraceCtx>,
}

impl Conn {
    /// When the sweep should close this connection if nothing more
    /// arrives, and whether that is a stalled frame rather than idleness.
    fn due_ms(&self, idle_conn_ms: u64) -> Option<(u64, bool)> {
        if self.pending.is_some() {
            None // resolved by its ticket's deadline, not the sweep
        } else if !self.inbuf.is_empty() {
            let limit = FRAME_IO_TIMEOUT.as_millis() as u64;
            Some((self.frame_started_ms + limit, true))
        } else if idle_conn_ms > 0 {
            Some((self.last_active_ms + idle_conn_ms, false))
        } else {
            None
        }
    }

    /// Removes and decodes the first buffered frame, if all of it has
    /// arrived; that counts as activity.
    ///
    /// # Errors
    ///
    /// As [`FrameBuf::next_frame`]: the stream cannot be trusted afterwards.
    pub(crate) fn next_frame<M: FromJson>(&mut self, now_ms: u64) -> Result<Option<M>, WireError> {
        let frame = self.inbuf.next_frame()?;
        if frame.is_some() {
            self.last_active_ms = now_ms;
            // Part of the next frame may be here already: its clock starts.
            self.frame_started_ms = now_ms;
        }
        Ok(frame)
    }

    /// Moves what the socket holds (at most `scratch`) into `inbuf`
    /// without blocking. `Ok(false)` when there is nothing to read now.
    ///
    /// # Errors
    ///
    /// The socket error; `UnexpectedEof` for a hang-up, clean or mid-frame.
    pub(crate) fn fill(&mut self, scratch: &mut [u8], now_ms: u64) -> io::Result<bool> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    if self.inbuf.is_empty() {
                        self.frame_started_ms = now_ms;
                    }
                    self.inbuf.extend(&scratch[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes a whole frame: one `write` unless the send buffer is full (a
    /// response larger than the buffer, or a peer that reads slowly), in
    /// which case the rest goes out in blocking mode under the socket's
    /// [`FRAME_IO_TIMEOUT`] write deadline.
    ///
    /// # Errors
    ///
    /// The socket error; the connection is then useless.
    pub(crate) fn send(&mut self, mut frame: &[u8]) -> io::Result<()> {
        while !frame.is_empty() {
            match self.stream.write(frame) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => frame = &frame[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.stream.set_nonblocking(false)?;
                    let rest = self.stream.write_all(frame);
                    self.stream.set_nonblocking(true)?;
                    return rest;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// A slot is free (`None`, listed in `free`), busy (`None`: a worker
/// holds the connection) or parked (`Some`).
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    parked: usize,
    /// Tokens of connections whose request waits in a lane queue, oldest
    /// first (the lanes grant FIFO).
    queued: Vec<usize>,
}

/// See the module documentation.
pub(crate) struct ConnTable {
    controller: Arc<AdmissionController>,
    poller: Poller,
    /// A socket pair whose first end is always readable: re-arming it
    /// makes exactly one `epoll_wait` return [`WAKE`].
    waker: (UnixStream, UnixStream),
    /// Every write to `queued_len` and `next_sweep_ms` happens under this
    /// lock; workers read them without it to choose their wait.
    slab: Mutex<Slab>,
    /// `slab.queued.len()`.
    queued_len: AtomicUsize,
    /// No parked connection is due for an idle or stall close before this
    /// controller-clock time (`u64::MAX`: none is due at all).
    next_sweep_ms: AtomicU64,
    conns_open: oasis_obs::Gauge,
    /// Returns from `epoll_wait`: readiness events, timers and wake-ups.
    wakeups: oasis_obs::Counter,
    stalled_closed: oasis_obs::Counter,
}

impl ConnTable {
    /// An empty table whose gauges and counters (`{id}.wire.conns_open`,
    /// `.wakeups`, `.stalled_closed`) go to the service's recorder.
    ///
    /// # Errors
    ///
    /// Failure to create the epoll instance or the wake-up channel.
    pub(crate) fn new(
        service: &OasisService,
        controller: Arc<AdmissionController>,
    ) -> io::Result<Self> {
        let poller = Poller::new()?;
        let waker = UnixStream::pair()?;
        (&waker.1).write_all(&[1])?;
        poller.add(&waker.0, WAKE)?;
        let recorder = service.obs_recorder();
        let id = service.id().as_str();
        Ok(Self {
            controller,
            poller,
            waker,
            slab: Mutex::default(),
            queued_len: AtomicUsize::new(0),
            next_sweep_ms: AtomicU64::new(u64::MAX),
            conns_open: recorder.gauge(&format!("{id}.wire.conns_open")),
            wakeups: recorder.counter(&format!("{id}.wire.wakeups")),
            stalled_closed: recorder.counter(&format!("{id}.wire.stalled_closed")),
        })
    }

    /// Makes one [`next`](Self::next) return, now or when next entered.
    /// Each worker passes it on at shutdown.
    pub(crate) fn wake(&self) {
        self.poller.rearm(&self.waker.0, WAKE).ok();
    }

    /// Parks and arms a new connection and counts it accepted, or — when
    /// `accept_queue` connections are parked already — drops it and counts
    /// it shed: the whole connection is shed rather than buffered.
    pub(crate) fn admit(&self, stream: TcpStream) {
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(Some(FRAME_IO_TIMEOUT)).ok();
        if stream.set_nonblocking(true).is_err() {
            self.controller.note_conn_shed();
            return;
        }
        let conn = Conn {
            stream,
            last_active_ms: self.controller.now_ms(),
            pending: None,
            inbuf: FrameBuf::default(),
            frame_started_ms: 0,
        };
        let mut slab = self.slab.lock();
        if slab.parked >= self.controller.config().accept_queue.max(1) {
            self.controller.note_conn_shed();
            return;
        }
        let token = slab.free.pop().unwrap_or_else(|| {
            slab.slots.push(None);
            slab.slots.len() - 1
        });
        if self.poller.add(&conn.stream, token as u64).is_err() {
            slab.free.push(token);
            self.controller.note_conn_shed();
            return;
        }
        // Counted under the slab lock, which the worker that wakes for the
        // armed socket needs to take the connection: a peer that gets an
        // answer finds its connection counted already.
        self.controller.note_conn_accepted();
        self.conns_open.add(1);
        // The workers chose their waits before this connection's idle
        // deadline existed: if it is the earliest, one must choose again.
        if self.park(&mut slab, token, conn) {
            self.wake();
        }
    }

    /// Puts a connection (back) into its slot. Returns whether that
    /// brought the next sweep forward.
    fn park(&self, slab: &mut Slab, token: usize, conn: Conn) -> bool {
        let due = conn.due_ms(self.controller.config().idle_conn_ms);
        slab.slots[token] = Some(conn);
        slab.parked += 1;
        due.is_some_and(|(due_ms, _)| self.next_sweep_ms.fetch_min(due_ms, SeqCst) > due_ms)
    }

    /// Takes a parked connection out of its slot, which stays reserved.
    /// `None` for a stale token: a readiness event or a queued-list
    /// snapshot that the sweep or another worker has overtaken.
    pub(crate) fn take(&self, token: usize) -> Option<Conn> {
        let mut slab = self.slab.lock();
        let conn = slab.slots.get_mut(token)?.take()?;
        slab.parked -= 1;
        Some(conn)
    }

    /// Returns a connection after a worker's turn: armed, unarmed behind a
    /// queued ticket (`pending` set), or — `keep` false — closed.
    pub(crate) fn put_back(&self, token: usize, conn: Conn, keep: bool) {
        let queued = keep && conn.pending.is_some();
        let mut slab = self.slab.lock();
        // Empty but for overload, so the search is free on the usual path.
        if slab.queued.contains(&token) != queued {
            if queued {
                slab.queued.push(token);
            } else {
                slab.queued.retain(|t| *t != token);
            }
            self.queued_len.store(slab.queued.len(), SeqCst);
        }
        // Armed under the lock: its next event may fire at once, and the
        // worker that wakes must find the connection in its slot.
        if keep && (queued || self.poller.rearm(&conn.stream, token as u64).is_ok()) {
            self.park(&mut slab, token, conn);
        } else {
            self.close(&mut slab, token, conn);
        }
    }

    /// Closes a connection that is out of its slot and frees the slot.
    fn close(&self, slab: &mut Slab, token: usize, conn: Conn) {
        self.poller.remove(&conn.stream).ok();
        drop(conn);
        slab.free.push(token);
        self.conns_open.add(-1);
    }

    /// Closes every parked connection whose idle or stall deadline has
    /// passed and works out when the next one falls due.
    fn sweep(&self, now_ms: u64) {
        let idle_conn_ms = self.controller.config().idle_conn_ms;
        let mut slab = self.slab.lock();
        if now_ms < self.next_sweep_ms.load(SeqCst) {
            return; // another worker swept first
        }
        let mut next = u64::MAX;
        for token in 0..slab.slots.len() {
            let due = slab.slots[token]
                .as_ref()
                .and_then(|conn| conn.due_ms(idle_conn_ms));
            match due {
                Some((due_ms, stalled)) if due_ms <= now_ms => {
                    let conn = slab.slots[token].take().expect("due implies parked");
                    slab.parked -= 1;
                    // Counted before the close: a peer that reads the EOF
                    // must find its close in the count already.
                    if stalled {
                        self.stalled_closed.inc();
                    } else {
                        self.controller.note_conn_idle_closed();
                    }
                    self.close(&mut slab, token, conn);
                }
                Some((due_ms, _)) => next = next.min(due_ms),
                None => {}
            }
        }
        self.next_sweep_ms.store(next, SeqCst);
    }

    /// Blocks a worker until a connection is readable and hands it over;
    /// `None` when the worker woke for a timer or a [`wake`](Self::wake)
    /// instead (it should look at the queued tickets and call again).
    ///
    /// # Errors
    ///
    /// A failing `epoll_wait`: the table is unusable.
    pub(crate) fn next(&self) -> io::Result<Option<(usize, Conn)>> {
        let now_ms = self.controller.now_ms();
        if now_ms >= self.next_sweep_ms.load(SeqCst) {
            self.sweep(now_ms);
        }
        let timeout = if self.queued_len.load(SeqCst) > 0 {
            Some(QUEUE_POLL)
        } else {
            match self.next_sweep_ms.load(SeqCst) {
                u64::MAX => None,
                due_ms => Some(Duration::from_millis(due_ms.saturating_sub(now_ms).max(1))),
            }
        };
        let woke = self.poller.wait(timeout)?;
        self.wakeups.inc();
        let Some(token) = woke.filter(|token| *token != WAKE) else {
            return Ok(None);
        };
        // This worker may have been the only one in a timed wait: while
        // tickets are queued, pass that duty to an idle one.
        if self.queued_len.load(SeqCst) > 0 {
            self.wake();
        }
        let token = token as usize;
        Ok(self.take(token).map(|conn| (token, conn)))
    }

    /// The connections whose requests wait in a lane queue, oldest first;
    /// empty (and free) in the common case. At most the lanes' queue caps.
    pub(crate) fn queued(&self) -> Vec<usize> {
        if self.queued_len.load(SeqCst) == 0 {
            return Vec::new();
        }
        self.slab.lock().queued.clone()
    }
}
