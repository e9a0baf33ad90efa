//! Shared by the serve integration tests: the "someone is mid-send"
//! fixture and the polls that stand in for sleeps.

// Each test binary compiles its own copy and none uses every item.
#![allow(dead_code)]

use anyseq::serve::ServerHandle;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Polls `cond` (real time) until it holds; the daemon's threads run
/// in real time even though their clock is fake, so "the reader has
/// admitted the frame" style facts need a poll, not a sleep.
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One value from the daemon's Prometheus exposition.
pub fn metric(stats: &str, name: &str) -> f64 {
    stats
        .lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("STATS exposition is missing {name}:\n{stats}"))
}

/// Runs `f` on its own thread and fails the test — instead of hanging
/// it — when `f` has not returned within 10 s (a reply that only a
/// clock nobody advances could release).
pub fn must_finish<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("timed out waiting for {what}"))
}

/// Someone is mid-send: a raw connection that has written 2 of a
/// frame's 4 length bytes and stays open. While it lives the daemon
/// counts it inbound, so open windows wait for it — up to their
/// deadline. Dropping it hangs up, which releases them.
pub struct MidSend(UnixStream);

impl MidSend {
    /// Connects, half-sends, and returns once the daemon has seen it.
    pub fn hold(server: &ServerHandle) -> MidSend {
        let before = server.inbound_sessions();
        let mut stream = UnixStream::connect(server.path()).expect("connect failed");
        stream.write_all(&[0, 0]).expect("half-send failed");
        wait_until("the half-sent frame to be seen", || {
            server.inbound_sessions() > before
        });
        MidSend(stream)
    }
}
