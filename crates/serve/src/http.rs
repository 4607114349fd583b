//! A minimal std-only threaded HTTP/1.1 server.
//!
//! GET-only, `Connection: close`, one response per connection. The
//! accept loop hands sockets to a fixed pool of worker threads over an
//! mpsc channel; because every handler derives its state from the
//! request alone (see [`crate::state::ServeState::request_rng`]), the
//! pool width and the order workers pick sockets up can never change a
//! response body — only throughput.
//!
//! Every accepted socket gets a read and a write timeout
//! ([`IO_TIMEOUT`]). A client that connects and never finishes its
//! request head is answered with a JSON 408 and dropped after at most
//! that long, so idle connections cannot hold every worker and starve
//! `/healthz`.

use crate::handlers::route;
use crate::state::ServeState;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A parsed request: GET path + raw query string.
#[derive(Debug, Clone)]
pub struct Request {
    /// The path component, percent-encoded as received.
    pub path: String,
    /// The raw query string (after `?`, empty if absent).
    pub query: String,
}

/// A response ready to serialize: status code plus a JSON body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The JSON body.
    pub body: String,
}

impl Response {
    /// A response with a JSON body.
    pub fn json(status: u16, body: String) -> Response {
        Response { status, body }
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            _ => "Internal Server Error",
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.status_text(),
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// Upper bound on the request head we are willing to read.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// Read and write timeout of every accepted socket: the longest a worker
/// waits for the next piece of a request head, or for a client to take
/// the response. With `w` workers, `n` idle connections delay a queued
/// request by at most `ceil(n / w)` timeouts.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Whether a read failed because [`IO_TIMEOUT`] elapsed (Unix reports
/// `WouldBlock`, Windows `TimedOut`).
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn head_timeout() -> Response {
    Response::json(
        408,
        format!(r#"{{"error":"request head not received within {} s"}}"#, IO_TIMEOUT.as_secs()),
    )
}

/// Parse the request line and drain the headers. Returns an error
/// response instead of a request when the line is malformed or the
/// method is not GET.
fn parse_request(stream: &TcpStream) -> Result<Request, Response> {
    let cloned = stream
        .try_clone()
        .map_err(|_| Response::json(500, r#"{"error":"connection lost"}"#.to_string()))?;
    let mut reader = BufReader::new(cloned);
    let mut line = String::new();
    reader
        .by_ref()
        .take(MAX_HEAD_BYTES)
        .read_line(&mut line)
        .map_err(|e| {
            if timed_out(&e) {
                head_timeout()
            } else {
                Response::json(400, r#"{"error":"unreadable request line"}"#.to_string())
            }
        })?;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(_)) => (m, t),
        _ => {
            return Err(Response::json(
                400,
                r#"{"error":"malformed request line"}"#.to_string(),
            ))
        }
    };
    if method != "GET" {
        return Err(Response::json(
            405,
            format!(r#"{{"error":"method {method} not allowed; the service is GET-only"}}"#),
        ));
    }
    // Drain headers so the client can finish writing before we respond.
    loop {
        let mut h = String::new();
        match reader.by_ref().take(MAX_HEAD_BYTES).read_line(&mut h) {
            Ok(0) => break,
            Ok(_) if h == "\r\n" || h == "\n" => break,
            Ok(_) => {}
            Err(e) if timed_out(&e) => return Err(head_timeout()),
            Err(_) => break,
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Request { path, query })
}

fn handle_connection(state: &ServeState, mut stream: TcpStream) {
    // Only a zero duration makes these fail.
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match parse_request(&stream) {
        Ok(req) => route(state, &req),
        Err(resp) => resp,
    };
    // A client that hung up mid-write is its own problem.
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// The threaded server: an accept loop feeding a fixed worker pool.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    workers: usize,
}

impl Server {
    /// Bind to `addr` (`127.0.0.1:0` in tests picks a free port) with a
    /// pool of `workers` handler threads (clamped to at least 1).
    pub fn bind(
        addr: impl ToSocketAddrs,
        workers: usize,
        state: Arc<ServeState>,
    ) -> std::io::Result<Server> {
        Ok(Server { listener: TcpListener::bind(addr)?, state, workers: workers.max(1) })
    }

    /// The bound address (reports the picked port after binding `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop on the current thread, forever. Worker
    /// threads receive accepted sockets over an mpsc channel.
    pub fn run(self) {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(parking_lot::Mutex::new(rx));
        for _ in 0..self.workers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            thread::spawn(move || loop {
                let next = rx.lock().recv();
                match next {
                    Ok(stream) => handle_connection(&state, stream),
                    Err(_) => break,
                }
            });
        }
        for stream in self.listener.incoming().flatten() {
            // A dead channel means every worker panicked; dropping the
            // socket (connection reset) beats serving wrong answers.
            let _ = tx.send(stream);
        }
    }

    /// Run the accept loop on a detached background thread and return
    /// the bound address — the test harness entry point.
    pub fn spawn(self) -> std::io::Result<SocketAddr> {
        let addr = self.local_addr()?;
        thread::spawn(move || self.run());
        Ok(addr)
    }
}
