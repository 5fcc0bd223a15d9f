//! Wire-level tests for the reactor core: fragmented request delivery,
//! pipelining, partial-write resumption, `HEAD` framing, and slow-client
//! hardening.
//!
//! These tests speak raw TCP so they can control exactly how request bytes
//! are segmented on the wire — the reactor must reassemble a request no
//! matter where the kernel (or an adversary) splits it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use chronos_http::{Response, Server, Status};

/// Starts a reactor-core echo server with small, test-friendly timeouts.
fn echo_server(header_timeout: Duration, idle_timeout: Duration) -> chronos_http::ServerHandle {
    Server::new()
        .workers(2)
        .header_read_timeout(header_timeout)
        .idle_timeout(idle_timeout)
        .serve("127.0.0.1:0", |req| {
            Response::bytes(Status::OK, "application/octet-stream", req.body)
        })
        .expect("bind echo server")
}

/// Reads exactly one HTTP/1.1 response off `stream`, returning
/// `(status, body, connection_close)`.
fn read_one_response(stream: &mut TcpStream) -> (u16, Vec<u8>, bool) {
    read_one_response_buffered(stream, &mut Vec::new())
}

/// [`read_one_response`] with an explicit carry buffer: when pipelined
/// responses coalesce into one TCP segment, bytes past the first response
/// land in `carry` for the next call instead of being mistaken for body.
fn read_one_response_buffered(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, Vec<u8>, bool) {
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before response head completed");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let mut content_length = 0usize;
    let mut close = false;
    for line in head.lines().skip(1) {
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
        if lower.starts_with("connection:") && lower.contains("close") {
            close = true;
        }
    }
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    // Anything past this response is the next pipelined response.
    *carry = body.split_off(content_length);
    (status, body, close)
}

#[test]
fn byte_at_a_time_request_is_reassembled() {
    let server = echo_server(Duration::from_secs(30), Duration::from_secs(30));
    let request = b"POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    for &byte in request.iter() {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
    }
    let (status, body, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(body, b"hello");
}

#[test]
fn adversarial_split_points_are_tolerated() {
    let server = echo_server(Duration::from_secs(30), Duration::from_secs(30));
    let request = b"POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\nwire".to_vec();
    // Splits straddling the request line, a header name, the CRLFCRLF
    // boundary (before, inside, after), and the body.
    for &split in &[1usize, 4, 20, 25, 48, 49, 50, 51, 53] {
        assert!(split < request.len(), "split {split} out of range");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&request[..split]).unwrap();
        stream.flush().unwrap();
        // Give the reactor a chance to observe the fragment alone.
        std::thread::sleep(Duration::from_millis(5));
        stream.write_all(&request[split..]).unwrap();
        stream.flush().unwrap();
        let (status, body, _) = read_one_response(&mut stream);
        assert_eq!(status, 200, "split at byte {split}");
        assert_eq!(body, b"wire", "split at byte {split}");
    }
}

#[test]
fn pipelined_requests_in_one_segment_both_answered() {
    let server = echo_server(Duration::from_secs(30), Duration::from_secs(30));
    let two = [
        &b"POST /a HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\none"[..],
        &b"POST /b HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\ntwo"[..],
    ]
    .concat();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(&two).unwrap();
    stream.flush().unwrap();
    let mut carry = Vec::new();
    let (status, body, _) = read_one_response_buffered(&mut stream, &mut carry);
    assert_eq!((status, body.as_slice()), (200, b"one".as_slice()));
    let (status, body, _) = read_one_response_buffered(&mut stream, &mut carry);
    assert_eq!((status, body.as_slice()), (200, b"two".as_slice()));
}

#[test]
fn large_response_survives_slow_reader_partial_writes() {
    // A response far bigger than any socket buffer forces the reactor down
    // its partial-write path: the first write_all fills the kernel buffer,
    // returns WouldBlock, and the remainder must be flushed via EPOLLOUT
    // readiness while the client drains at its leisure.
    const SIZE: usize = 4 << 20;
    let server = Server::new()
        .workers(2)
        .serve("127.0.0.1:0", |_| {
            Response::bytes(Status::OK, "application/octet-stream", vec![0xA5u8; SIZE])
        })
        .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    // Dawdle before reading so the server's first write cannot complete.
    std::thread::sleep(Duration::from_millis(100));
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let (status, body, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(body.len(), SIZE);
    assert!(body.iter().all(|&b| b == 0xA5));
}

#[test]
fn head_response_keeps_the_length_and_sends_no_body() {
    let server = Server::new()
        .workers(2)
        .serve("127.0.0.1:0", |_| Response::text(Status::OK, "hello"))
        .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(b"GET /v HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let (status, body, _) = read_one_response(&mut stream);
    assert_eq!((status, body.as_slice()), (200, b"hello".as_slice()));
    // HEAD then GET on the same connection: the byte after the HEAD
    // response's blank line must start the GET's status line.
    stream
        .write_all(b"HEAD /v HTTP/1.1\r\nHost: t\r\n\r\nGET /v HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut wire = Vec::new();
    let mut chunk = [0u8; 4096];
    while wire.windows(5).filter(|w| w == b"hello").count() == 0 {
        let n = stream.read(&mut chunk).expect("read HEAD + GET responses");
        assert!(n > 0, "connection closed after {:?}", String::from_utf8_lossy(&wire));
        wire.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8(wire).unwrap();
    let (head, get) = text.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head:?}");
    assert!(head.contains("\r\nContent-Length: 5\r\n"), "HEAD keeps the GET's length: {head:?}");
    assert!(get.starts_with("HTTP/1.1 200 OK\r\n"), "a body byte followed HEAD: {get:?}");
    assert!(get.ends_with("\r\n\r\nhello"), "{get:?}");
}

#[test]
fn slowloris_header_dribble_gets_408_and_is_counted() {
    let server = echo_server(Duration::from_millis(200), Duration::from_secs(30));
    let metrics = server.metrics();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Send a partial request head and then stall forever.
    stream.write_all(b"GET /slow HTTP/1.1\r\nHost: t\r\nX-Drib").unwrap();
    stream.flush().unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (status, body, close) = read_one_response(&mut stream);
    assert_eq!(status, 408, "stalled header read must be shed with 408");
    assert!(close, "a timed-out connection must be closed");
    let text = String::from_utf8_lossy(&body).to_string();
    assert!(text.contains("request_timeout"), "typed error code missing from {text:?}");
    assert_eq!(metrics.shed_idle.get(), 1);
    // The socket is actually closed: the next read returns EOF.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
}

#[test]
fn idle_keepalive_connection_is_reaped_silently() {
    let server = echo_server(Duration::from_secs(30), Duration::from_millis(200));
    let metrics = server.metrics();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi").unwrap();
    let (status, body, close) = read_one_response(&mut stream);
    assert_eq!((status, body.as_slice(), close), (200, b"hi".as_slice(), false));
    // Now go idle past the keep-alive timeout: the reactor should close the
    // connection without sending anything (there is no request to answer).
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let start = Instant::now();
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "idle reap must be a bare close");
    assert!(
        start.elapsed() < Duration::from_secs(9),
        "connection was not reaped by the idle timer"
    );
    assert_eq!(metrics.shed_idle.get(), 1);
    assert_eq!(metrics.accepted.get(), 1, "a served-then-reaped conn still counts accepted");
}

#[test]
fn panicking_handler_answers_500_and_frees_its_connection() {
    let mut server = Server::new()
        .workers(2)
        .serve("127.0.0.1:0", |req| {
            if req.path == "/boom" {
                panic!("handler bug");
            }
            Response::text(Status::OK, "ok")
        })
        .unwrap();
    let metrics = server.metrics();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    stream.write_all(b"GET /boom HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let (status, body, close) = read_one_response(&mut stream);
    assert_eq!(status, 500, "a panicking handler must still answer");
    let text = String::from_utf8_lossy(&body).to_string();
    assert!(text.contains("\"internal\""), "typed error code missing from {text:?}");
    assert!(close, "the connection of a panicked handler must close");
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    let deadline = Instant::now() + Duration::from_secs(2);
    while metrics.inflight.get() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(metrics.inflight.get(), 0, "the panicked request still holds its slot");
    assert_eq!(server.pool_panics(), 1);
    // Other requests are unaffected, and the drain finds nothing in flight.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    stream.write_all(b"GET /fine HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    assert_eq!(read_one_response(&mut stream).0, 200);
    let started = Instant::now();
    assert!(server.drain(), "drain timed out with the panicked request in flight");
    assert!(started.elapsed() < Duration::from_secs(2), "drain took {:?}", started.elapsed());
}

#[test]
fn sequential_keep_alive_requests_take_no_wakeup() {
    // A request runs on the thread that read it: nothing hands it to
    // another thread, so nothing has to be woken to write the response.
    let server = echo_server(Duration::from_secs(30), Duration::from_secs(30));
    let metrics = server.metrics();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for _ in 0..1000 {
        stream.write_all(b"GET /v HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        assert_eq!(read_one_response(&mut stream).0, 200);
    }
    assert_eq!(metrics.requests.get(), 1000);
    assert_eq!(metrics.wakeups.get(), 0, "a request was handed between threads");
}

#[test]
fn queued_request_runs_before_a_pipelined_one_behind_it() {
    // One handler slot, one queue place. `/a1` holds the slot while `/b1`
    // waits in the queue; `/a2` is pipelined behind `/a1` on the same
    // connection, so it is parsed only once `/a1`'s response is out. The
    // slot `/a1` frees belongs to `/b1`, the older request: `/a2` runs
    // after it, and nothing is shed.
    use std::sync::{Arc, Mutex};
    let order = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&order);
    let server = Server::new()
        .workers(1)
        .queue_depth(1)
        .serve("127.0.0.1:0", move |req| {
            seen.lock().unwrap().push(req.path.clone());
            std::thread::sleep(Duration::from_millis(100));
            Response::text(Status::OK, req.path)
        })
        .unwrap();
    let metrics = server.metrics();
    let mut a = TcpStream::connect(server.addr()).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    a.write_all(b"GET /a1 HTTP/1.1\r\nHost: t\r\n\r\nGET /a2 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while order.lock().unwrap().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut b = TcpStream::connect(server.addr()).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    b.write_all(b"GET /b1 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut carry = Vec::new();
    for path in ["/a1", "/a2"] {
        let (status, body, _) = read_one_response_buffered(&mut a, &mut carry);
        assert_eq!((status, body.as_slice()), (200, path.as_bytes()));
    }
    let (status, body, _) = read_one_response(&mut b);
    assert_eq!((status, body.as_slice()), (200, b"/b1".as_slice()));
    assert_eq!(*order.lock().unwrap(), ["/a1", "/b1", "/a2"]);
    assert_eq!(metrics.shed_overload.get(), 0);
}
