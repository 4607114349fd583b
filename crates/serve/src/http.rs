//! A minimal std-only threaded HTTP/1.1 server.
//!
//! GET-only, `Connection: close`, one response per connection. Each of
//! a fixed number of spawned worker threads loops on `accept` over one
//! shared listener and answers the socket it took, so pending
//! connections wait in the kernel's listen backlog (128 for std) and the
//! server holds at most one accepted socket per worker. The thread that
//! calls [`Server::run`] only waits on the workers: it serves nothing,
//! so no worker allocates from glibc's main (brk) arena while an arena
//! that startup's fan-out threads left behind sits idle. Because every
//! handler derives its state from the request alone (see
//! [`crate::state::ServeState::request_rng`]), the worker count and
//! which worker accepts a socket can never change a response body —
//! only throughput.
//!
//! The whole request head must arrive within [`IO_TIMEOUT`] of a worker
//! accepting the socket: each read waits at most the time left, and all
//! reads share one 16 KiB budget. A client that connects and never
//! finishes its head — idle, or trickling a byte at a time — is answered
//! with a JSON 408 and dropped after at most that long, so such
//! connections cannot hold every worker and starve `/healthz`. The
//! response write has the same timeout.
//!
//! A handler that panics is caught at the connection: its client gets a
//! JSON 500, the HTTP layer counts `serve.panics` (under the `http`
//! entry of `/metrics`), and the worker goes on to the next socket, so
//! one bad request can never shrink the pool.

use crate::handlers::route;
use crate::json::Json;
use crate::state::ServeState;
use edgescope_obs as obs;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

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
            500 => "Internal Server Error",
            _ => "Unknown",
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

/// Upper bound on the whole request head we are willing to read.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// Deadline for a whole request head, counted from the `accept` that
/// took the socket, and the write timeout of the response. With `w`
/// workers, `n` slow or idle connections ahead of a request in the
/// backlog delay it by at most `ceil(n / w)` deadlines.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Whether a read failed because the head deadline passed (Unix reports
/// a socket timeout as `WouldBlock`, Windows as `TimedOut`).
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// A socket read under one deadline: each read waits at most the time
/// left, so no sequence of reads can outlast it.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

fn head_timeout() -> Response {
    Response::json(
        408,
        format!(
            r#"{{"error":"request head not received within {} s"}}"#,
            IO_TIMEOUT.as_secs()
        ),
    )
}

/// Read a socket's request head within one [`IO_TIMEOUT`] deadline and
/// one [`MAX_HEAD_BYTES`] budget, and parse it with [`parse_head`].
fn parse_request(stream: &TcpStream) -> Result<Request, Response> {
    let head = Deadline {
        stream,
        at: Instant::now() + IO_TIMEOUT,
    };
    parse_head(BufReader::new(head).take(MAX_HEAD_BYTES))
}

/// Parse the request line and drain the headers, up to the blank line
/// that ends the head or the end of `reader`. Returns an error response
/// instead of a request when a read times out (408), the line is
/// unreadable or malformed (400) or the method is not GET (405). Every
/// error body is a JSON object with one `error` string.
pub fn parse_head(mut reader: impl BufRead) -> Result<Request, Response> {
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| {
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
        // The method is client bytes: render it escaped.
        let message = format!("method {method} not allowed; the service is GET-only");
        return Err(Response::json(
            405,
            Json::obj(vec![("error", Json::from(message))]).render(),
        ));
    }
    // Drain headers so the client can finish writing before we respond.
    loop {
        let mut h = String::new();
        match reader.read_line(&mut h) {
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

/// The request router a worker calls; [`route`] outside this module's
/// tests.
type Router = fn(&ServeState, &Request) -> Response;

/// Answer one request through `router`, turning a panic into a JSON 500.
/// The handler's metric scope unwinds with it (see
/// [`edgescope_obs::scoped`]); only `serve.panics` is recorded.
fn respond(state: &ServeState, req: &Request, router: Router) -> Response {
    catch_unwind(AssertUnwindSafe(|| router(state, req))).unwrap_or_else(|_| {
        let ((), set) = obs::scoped(|| obs::counter_inc("serve.panics"));
        state.record("http", &set);
        Response::json(
            500,
            r#"{"error":"internal error: the request handler panicked"}"#.into(),
        )
    })
}

fn handle_connection(state: &ServeState, mut stream: TcpStream, router: Router) {
    // Only a zero duration makes this fail.
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match parse_request(&stream) {
        Ok(req) => respond(state, &req, router),
        Err(resp) => resp,
    };
    // A client that hung up mid-write is its own problem.
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// One worker: accept a connection, answer it, repeat. A failed
/// `accept` is skipped and the worker accepts again.
fn serve(listener: &TcpListener, state: &ServeState, router: Router) {
    for stream in listener.incoming().flatten() {
        handle_connection(state, stream, router);
    }
}

/// The threaded server: a fixed number of workers, each accepting and
/// answering its own connections from one shared listener.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    workers: usize,
}

impl Server {
    /// Bind to `addr` (`127.0.0.1:0` in tests picks a free port) for
    /// `workers` worker threads (clamped to at least 1).
    pub fn bind(
        addr: impl ToSocketAddrs,
        workers: usize,
        state: Arc<ServeState>,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state,
            workers: workers.max(1),
        })
    }

    /// The bound address (reports the picked port after binding `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve forever on `workers` spawned threads; the calling thread
    /// joins them and serves nothing itself.
    pub fn run(self) {
        self.run_with(route);
    }

    fn run_with(self, router: Router) {
        let listener = Arc::new(self.listener);
        let workers: Vec<_> = (0..self.workers)
            .map(|_| {
                let (listener, state) = (Arc::clone(&listener), Arc::clone(&self.state));
                thread::spawn(move || serve(&listener, &state, router))
            })
            .collect();
        for worker in workers {
            // A worker returns only by panicking outside a handler. The
            // panic hook has already reported it; the others keep serving.
            let _ = worker.join();
        }
    }

    /// Run the server on a detached thread, which starts all `workers`
    /// threads, and return the bound address — the test harness entry
    /// point.
    pub fn spawn(self) -> std::io::Result<SocketAddr> {
        let addr = self.local_addr()?;
        thread::spawn(move || self.run());
        Ok(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_core::experiments::Studies;
    use edgescope_core::scenario::{Scale, Scenario};
    use std::sync::{Barrier, OnceLock};

    fn get(addr: SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream
            .read_to_string(&mut raw)
            .expect("answer within the client deadline");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        (
            head.lines().next().unwrap_or("").to_string(),
            body.to_string(),
        )
    }

    /// Send `target` from two clients at once.
    fn get_pair(addr: SocketAddr, target: &'static str) -> Vec<(String, String)> {
        let clients: Vec<_> = (0..2)
            .map(|_| thread::spawn(move || get(addr, target)))
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    }

    /// Holds each of a pair of requests until the other one has reached
    /// its handler too, so the pair occupies both workers of the pool.
    fn both_workers() -> &'static Barrier {
        static PAIR: OnceLock<Barrier> = OnceLock::new();
        PAIR.get_or_init(|| Barrier::new(2))
    }

    #[test]
    fn a_panicking_handler_gets_a_500_and_every_worker_survives() {
        let state = Arc::new(ServeState::new(
            Scenario::new(Scale::Quick, 7),
            Studies::none(),
        ));
        let server = Server::bind("127.0.0.1:0", 2, state).unwrap();
        let addr = server.local_addr().unwrap();
        thread::spawn(move || {
            server.run_with(|state, req| match req.path.as_str() {
                "/boom" => {
                    obs::scoped(|| {
                        // Panic the way a handler would: inside its scope.
                        obs::counter_inc("serve.requests");
                        both_workers().wait();
                        panic!("deliberate handler panic");
                    })
                    .0
                }
                "/pair/healthz" => {
                    both_workers().wait();
                    route(
                        state,
                        &Request {
                            path: "/healthz".into(),
                            query: String::new(),
                        },
                    )
                }
                _ => route(state, req),
            })
        });

        // Both workers panic, one request each ...
        for (status, body) in get_pair(addr, "/boom") {
            assert_eq!(status, "HTTP/1.1 500 Internal Server Error");
            assert!(body.starts_with("{\"error\":\"internal error"), "{body}");
        }
        // ... and both still answer: the pair can only finish if two
        // workers hold one request each at the same time.
        for (status, body) in get_pair(addr, "/pair/healthz") {
            assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
            assert!(body.contains("\"status\":\"ok\""), "{body}");
        }
        let (_, metrics) = get(addr, "/metrics");
        let panics =
            r#"{"endpoint":"http","metrics":[{"name":"serve.panics","kind":"counter","value":2}]}"#;
        assert!(metrics.contains(panics), "{metrics}");
        // The panicked requests' own scopes were dropped, not merged into
        // a later request's: healthz counts exactly its two requests.
        let healthz = r#"{"endpoint":"healthz","metrics":[{"name":"serve.requests","kind":"counter","value":2}"#;
        assert!(metrics.contains(healthz), "{metrics}");
    }
}
