//! The server holds at most one accepted socket per worker: connections
//! beyond that wait in the kernel's listen backlog, not in the process.
//!
//! This is its own test binary so that no other test's sockets share the
//! process's fd table. Linux only: it counts the entries of
//! `/proc/self/fd`.
#![cfg(target_os = "linux")]

use edgescope_core::experiments::Studies;
use edgescope_core::scenario::{Scale, Scenario};
use edgescope_serve::http::Server;
use edgescope_serve::state::ServeState;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd is readable")
        .count()
}

/// Poll the fd count until it has not changed for 250 ms; return the
/// highest count seen.
fn settled_peak_fds() -> usize {
    let quiet = Duration::from_millis(250);
    let mut last = open_fds();
    let mut peak = last;
    let mut since = Instant::now();
    while since.elapsed() < quiet {
        thread::sleep(Duration::from_millis(10));
        let now = open_fds();
        peak = peak.max(now);
        if now != last {
            last = now;
            since = Instant::now();
        }
    }
    peak
}

#[test]
fn accepted_sockets_never_outnumber_the_workers() {
    let (workers, clients) = (4, 8);
    let state = Arc::new(ServeState::new(
        Scenario::new(Scale::Quick, 7),
        Studies::none(),
    ));
    let addr = Server::bind("127.0.0.1:0", workers, state)
        .unwrap()
        .spawn()
        .unwrap();
    let before = settled_peak_fds();
    // Idle clients: each holds its worker until the head deadline.
    let idle: Vec<TcpStream> = (0..clients)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let grown = settled_peak_fds() - before;
    assert!(
        grown <= clients + workers,
        "{grown} fds opened for {clients} client sockets and {workers} workers: \
         the server accepted more connections than it has workers"
    );
    drop(idle);
}
