//! The server out of descriptors: `accept` fails with `EMFILE` while a
//! connection waits in the listen backlog. The workers must not spin on the
//! listener meanwhile, and once descriptors are free the waiting request is
//! served.
//!
//! Its own test binary: it uses up every descriptor the process may open
//! (by opening `/dev/null` until the limit is hit), which no other test may
//! share. No limit is changed.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use chronos_http::{Response, Server, Status};

/// How long each `reactor_loops` sample runs.
const WINDOW: Duration = Duration::from_millis(500);

#[test]
fn a_pending_connection_without_a_descriptor_does_not_spin_the_workers() {
    let server = Server::new()
        .workers(2)
        .serve("127.0.0.1:0", |_req| Response::text(Status::OK, "served"))
        .expect("bind");
    let metrics = server.metrics();
    let loops_over_window = || {
        let before = metrics.reactor_loops.get();
        std::thread::sleep(WINDOW);
        metrics.reactor_loops.get() - before
    };
    std::thread::sleep(Duration::from_millis(200)); // workers settled
    let idle = loops_over_window();

    // Use up every descriptor, then free one for the client's socket: the
    // server's `accept` has none left.
    let mut held = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(file) => held.push(file),
            Err(e) if e.raw_os_error() == Some(24) => break, // EMFILE
            Err(e) => panic!("opening /dev/null: {e}"),
        }
    }
    held.pop();
    let mut client = TcpStream::connect(server.addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    client.write_all(b"GET /pending HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100)); // `accept` has failed by now
    let starved = loops_over_window();
    let descriptors = held.len();
    drop(held);

    let mut raw = Vec::new();
    match client.read_to_end(&mut raw) {
        Ok(_) => {}
        Err(e) if e.kind() == ErrorKind::WouldBlock => panic!("no response once freed"),
        Err(e) => panic!("reading the response: {e}"),
    }
    let response = String::from_utf8_lossy(&raw);
    assert!(response.starts_with("HTTP/1.1 200 OK"), "response: {response:?}");
    assert!(
        starved <= 4 * idle.max(10),
        "{starved} returns from epoll_wait in {WINDOW:?} with {descriptors} descriptors held \
         and one connection pending, against {idle} idle"
    );
}
