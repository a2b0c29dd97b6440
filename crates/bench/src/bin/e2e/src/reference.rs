//! The host-speed reference: a loopback echo round trip, frozen here.
//!
//! The sizing box is a two-vCPU VM on a shared host. What a loopback round
//! trip with a cross-CPU wake-up costs on it drifts by ±15 % over minutes
//! with the neighbours, and every wire operation is made of such round
//! trips, so the same binary and seed read 10–25 % apart from one run to
//! the next. During a timed run each client therefore also makes one round
//! trip per lifecycle to an echo thread on the deployment's CPU: the same
//! sockets, syscalls and wake-ups, none of the program under test. The
//! latency and throughput metrics are reported relative to how fast the
//! host ran that reference in the same second, scaled back to microseconds
//! by a fixed [`REFERENCE_RTT_NS`]. The raw values stay in the result
//! file beside them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Instant;

use crate::drive::Sample;
use crate::report::median;

/// The reference round trip at the sizing box's usual speed (its median
/// over the seed-state runs): what normalised values are scaled back by,
/// so they read as microseconds on that box.
pub const REFERENCE_RTT_NS: f64 = 55_000.0;
/// The host's speed is taken window by window.
const WINDOW_NS: u64 = 1_000_000_000;
/// A window with fewer round trips than this borrows the run's median.
const MIN_WINDOW_SAMPLES: usize = 8;
/// Bytes echoed; a small request frame.
const MESSAGE: usize = 64;

/// Echoes on a loopback port, one thread per connection. The threads
/// inherit the caller's CPU mask, so call it from the deployment's side.
/// Like the servers it stands beside, it runs until the process exits.
pub fn serve() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || echo(stream));
        }
    });
    addr
}

fn echo(mut stream: TcpStream) {
    stream.set_nodelay(true).ok();
    let mut message = [0u8; MESSAGE];
    while stream.read_exact(&mut message).is_ok() && stream.write_all(&message).is_ok() {}
}

/// A client's connection to the echo thread.
pub struct Probe {
    stream: TcpStream,
}

impl Probe {
    pub fn connect(addr: SocketAddr) -> Probe {
        let stream = TcpStream::connect(addr).expect("reference connects");
        stream.set_nodelay(true).ok();
        Probe { stream }
    }

    /// One round trip; its nanoseconds.
    pub fn round_trip(&mut self) -> u64 {
        let mut message = [7u8; MESSAGE];
        let sent = Instant::now();
        self.stream
            .write_all(&message)
            .and_then(|()| self.stream.read_exact(&mut message))
            .expect("reference echoes");
        sent.elapsed().as_nanos() as u64
    }
}

/// How fast the host ran the reference during a run, window by window.
pub struct HostSpeed {
    /// Median round trip of each window, nanoseconds; `None` where the
    /// window had too few.
    windows: Vec<Option<f64>>,
    /// Median over the whole run.
    overall_ns: f64,
}

impl HostSpeed {
    /// `None` when the run made no reference round trips.
    pub fn of(round_trips: &[Sample]) -> Option<HostSpeed> {
        if round_trips.is_empty() {
            return None;
        }
        let mut by_window: Vec<Vec<f64>> = Vec::new();
        for sample in round_trips {
            let idx = (sample.at_ns / WINDOW_NS) as usize;
            if by_window.len() <= idx {
                by_window.resize(idx + 1, Vec::new());
            }
            by_window[idx].push(sample.latency_ns as f64);
        }
        Some(HostSpeed {
            windows: by_window
                .iter()
                .map(|w| (w.len() >= MIN_WINDOW_SAMPLES).then(|| median(w)))
                .collect(),
            overall_ns: median(&by_window.concat()),
        })
    }

    /// The reference round trip around `at_ns`, as a multiple of
    /// [`REFERENCE_RTT_NS`]: above 1 while the host is slow.
    pub fn slowdown(&self, at_ns: u64) -> f64 {
        let window = self.windows.get((at_ns / WINDOW_NS) as usize);
        window.copied().flatten().unwrap_or(self.overall_ns) / REFERENCE_RTT_NS
    }

    /// The run's median slowdown.
    pub fn median_slowdown(&self) -> f64 {
        self.overall_ns / REFERENCE_RTT_NS
    }

    /// Median reference round trip of the run, microseconds.
    pub fn median_rtt_us(&self) -> f64 {
        self.overall_ns / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trips(window: u64, count: usize, ns: u64) -> Vec<Sample> {
        (0..count)
            .map(|i| Sample {
                at_ns: window * WINDOW_NS + i as u64,
                latency_ns: ns,
            })
            .collect()
    }

    #[test]
    fn slowdown_follows_the_window_and_falls_back_to_the_run() {
        let reference = REFERENCE_RTT_NS as u64;
        let mut samples = round_trips(0, 20, reference);
        samples.extend(round_trips(1, 20, 2 * reference));
        // Too few in window 2 to stand alone; window 3 is empty.
        samples.extend(round_trips(2, 3, 9 * reference));
        let host = HostSpeed::of(&samples).expect("has samples");
        assert_eq!(host.slowdown(5), 1.0);
        assert_eq!(host.slowdown(WINDOW_NS + 5), 2.0);
        let overall = host.median_slowdown();
        assert_eq!(host.slowdown(2 * WINDOW_NS + 5), overall);
        assert_eq!(host.slowdown(3 * WINDOW_NS + 5), overall);
        assert_eq!(host.slowdown(99 * WINDOW_NS), overall);
        assert!(HostSpeed::of(&[]).is_none());
    }

    #[test]
    fn the_echo_thread_answers() {
        let mut probe = Probe::connect(serve());
        assert!(probe.round_trip() > 0);
        assert!(probe.round_trip() > 0);
    }
}
