//! The long-running job server.
//!
//! Transport is deliberately minimal: newline-delimited JSON over
//! TCP. A client connects, writes one job document per line
//! ([`crate::job`]), and reads one response document per line, in
//! order. Connections are distributed over a fixed pool of worker
//! threads that all share one [`Service`] — and therefore one plan
//! cache, so a design compiled for any client is warm for every
//! client.
//!
//! Every response, and every line [`submit`] sends, leaves in one
//! `write` on a socket with `TCP_NODELAY` set (`send_line`). A
//! message split over two writes lets Nagle's algorithm hold its tail
//! until the peer's delayed ACK, about 40 ms on Linux.
//!
//! No single connection can take the server down or keep a worker
//! forever:
//!
//! - a request line may be at most [`MAX_LINE_BYTES`] long; a longer
//!   one is answered with a [`WireError::LineTooLong`] document and
//!   the connection is closed, without reading the rest of the line;
//! - a read or a write that waits longer than [`IO_TIMEOUT`] drops
//!   the connection, freeing its worker from an idle or non-reading
//!   client;
//! - each line is answered under `catch_unwind`: a panicking handler
//!   becomes a `panic` error document and an `errors_panic` count,
//!   and the connection carries on.
//!
//! Nor can a flood of connections queue without bound: the accept
//! thread hands connections to the workers over a bounded queue of
//! [`QUEUE_PER_WORKER`] places per worker. A connection that finds it
//! full is answered at once with a `busy` error document, counted in
//! `errors_busy`, and closed.
//!
//! Everything here is `std`: `std::net` sockets, `std::thread`
//! workers and an `mpsc::sync_channel` hand-off queue. No async
//! runtime.

use crate::exec::{Service, ServiceError};
use crate::job;
use crate::metrics::Counter;
use hdp_conform::wire::WireError;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest request line the server reads, in bytes, newline
/// excluded: fifty times the ~20 KB line of a 1024-cycle job.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How long one read or one write on a connection may wait before
/// the server drops the connection.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Places in the accept queue per worker thread: connections accepted
/// but not yet claimed by a worker. The queue holds
/// `QUEUE_PER_WORKER * threads` of them.
pub const QUEUE_PER_WORKER: usize = 4;

/// The per-connection limits. [`serve`] uses the constants; the tests
/// shorten them.
#[derive(Debug, Clone, Copy)]
struct Limits {
    max_line: usize,
    timeout: Duration,
}

impl Limits {
    const DEFAULT: Limits = Limits {
        max_line: MAX_LINE_BYTES,
        timeout: IO_TIMEOUT,
    };
}

/// Answers one request line: [`job::handle_line`], except in tests.
type Handler = fn(&Service, &str) -> String;

/// A running server: the bound address plus the machinery to stop it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service, e.g. for reading cache statistics.
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops accepting, drains the workers and joins every thread.
    /// Connections already handed to a worker finish first.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept()`; poke it awake with a
        // throwaway connection so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

/// Appends the newline to `msg` and writes both with one `write_all`
/// on one buffer, so the message is never split over two writes.
fn send_line(w: &mut impl Write, mut msg: String) -> io::Result<()> {
    msg.push('\n');
    w.write_all(msg.as_bytes())
}

/// What [`read_line`] found.
enum Line {
    Eof,
    Complete,
    TooLong,
}

/// Reads one line into `buf` (cleared first) and strips its line
/// ending. Stops with [`Line::TooLong`] once more than `max` bytes
/// arrived without a newline, so nothing past that is buffered.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>, max: usize) -> io::Result<Line> {
    buf.clear();
    let limit = u64::try_from(max).map_or(u64::MAX, |m| m.saturating_add(1));
    if Read::take(&mut *reader, limit).read_until(b'\n', buf)? == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > max {
        return Ok(Line::TooLong);
    }
    Ok(Line::Complete)
}

/// Runs `handler` on one line with panics caught: a panic is
/// answered with a `panic` error document and counted in
/// `errors_panic`. Unwinding out of a job leaves the service usable —
/// its metrics are atomics, and its cache and catalog locks are taken
/// over when poisoned ([`Service::lock_cache`]) — hence the
/// `AssertUnwindSafe`.
fn answer(service: &Service, handler: Handler, line: &str) -> String {
    panic::catch_unwind(AssertUnwindSafe(|| handler(service, line))).unwrap_or_else(|payload| {
        service.metrics().inc(Counter::ErrorsPanic);
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        job::error_to_json(&ServiceError::Panic { message })
    })
}

fn wire_error(service: &Service, error: WireError) -> String {
    service.metrics().inc(Counter::ErrorsWire);
    job::error_to_json(&ServiceError::Wire(error))
}

/// Answers a connection the full accept queue has no place for with
/// a `busy` document and closes it, without reading from it. The
/// document is one short write into an empty send buffer, so the
/// accept thread does not wait on the client.
fn refuse_busy(service: &Service, stream: &TcpStream, capacity: usize, timeout: Duration) {
    service.metrics().connection_refused();
    let busy = job::error_to_json(&ServiceError::Busy { capacity });
    let _ = configure(stream, timeout)
        .and_then(|()| send_line(&mut &*stream, busy))
        .and_then(|()| stream.shutdown(Shutdown::Write));
}

/// Serves one connection until EOF, an I/O error (a timeout among
/// them) or an oversized line, reusing one line buffer throughout.
fn handle_connection(
    service: &Service,
    reader: impl Read,
    mut writer: impl Write,
    limits: Limits,
    handler: Handler,
) -> io::Result<()> {
    let mut reader = BufReader::new(reader);
    let mut line = Vec::new();
    loop {
        let response = match read_line(&mut reader, &mut line, limits.max_line)? {
            Line::Eof => return Ok(()),
            Line::TooLong => {
                let limit = limits.max_line;
                let refusal = wire_error(service, WireError::LineTooLong { limit });
                return send_line(&mut writer, refusal);
            }
            Line::Complete => match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => answer(service, handler, text),
                Err(e) => wire_error(
                    service,
                    WireError::Syntax {
                        detail: format!("line is not UTF-8: {e}"),
                    },
                ),
            },
        };
        send_line(&mut writer, response)?;
    }
}

/// Sets `TCP_NODELAY` and the read and write timeouts on an accepted
/// or connected stream.
fn configure(stream: &TcpStream, timeout: Duration) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))
}

/// Binds `addr` and serves jobs on `threads` workers until
/// [`ServerHandle::shutdown`]. Every accept, queue hand-off and
/// worker pickup is reported to the service's metrics plane:
/// `connections_total`, the `queue_depth` / `connections_active`
/// gauges, per-worker busy time, and (when sampling) the
/// [`Queue`](crate::obs::Stage::Queue) latency histogram. A
/// connection accepted while [`QUEUE_PER_WORKER`]` * threads`
/// others wait for a worker is refused with a `busy` document and
/// counted in `errors_busy`.
///
/// # Errors
///
/// An [`io::Error`] when the listener cannot bind.
pub fn serve(
    addr: impl ToSocketAddrs,
    service: Arc<Service>,
    threads: usize,
) -> io::Result<ServerHandle> {
    serve_with(addr, service, threads, Limits::DEFAULT, job::handle_line)
}

fn serve_with(
    addr: impl ToSocketAddrs,
    service: Arc<Service>,
    threads: usize,
    limits: Limits,
    handler: Handler,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let threads = threads.max(1);
    let capacity = QUEUE_PER_WORKER * threads;
    let (tx, rx) = mpsc::sync_channel::<(TcpStream, Instant)>(capacity);
    let rx = Arc::new(Mutex::new(rx));

    let workers: Vec<JoinHandle<()>> = (0..threads)
        .map(|worker_index| {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            std::thread::spawn(move || loop {
                let stream = {
                    let guard = rx.lock().expect("worker queue poisoned");
                    guard.recv()
                };
                match stream {
                    Ok((stream, accepted)) => {
                        let sampled = service.metrics().mode().sampled();
                        service
                            .metrics()
                            .connection_claimed(sampled.then(|| elapsed_ns(accepted)));
                        let claimed = sampled.then(Instant::now);
                        let _ = configure(&stream, limits.timeout).and_then(|()| {
                            handle_connection(&service, &stream, &stream, limits, handler)
                        });
                        service
                            .metrics()
                            .connection_closed(worker_index, claimed.map(elapsed_ns));
                    }
                    Err(_) => break, // channel closed: server shut down
                }
            })
        })
        .collect();

    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        service.metrics().connection_queued();
                        match tx.try_send((stream, Instant::now())) {
                            Ok(()) => {}
                            Err(mpsc::TrySendError::Full((stream, _))) => {
                                refuse_busy(&service, &stream, capacity, limits.timeout);
                            }
                            Err(mpsc::TrySendError::Disconnected(_)) => break,
                        }
                    }
                    Err(_) => continue,
                }
            }
            drop(tx); // closing the channel stops the workers
        })
    };

    Ok(ServerHandle {
        addr,
        service,
        shutdown,
        accept_thread: Some(accept_thread),
        workers,
    })
}

/// Submits job lines over one connection and returns the response
/// lines, in order. Each line leaves in one write on a `TCP_NODELAY`
/// socket.
///
/// # Errors
///
/// An [`io::Error`] for connect/read/write failures, including a
/// server that closes the connection before answering every line.
pub fn submit(addr: impl ToSocketAddrs, lines: &[String]) -> io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    exchange(BufReader::new(&stream), &stream, lines)
}

/// The client half of [`submit`]: sends each line, then reads its
/// response line.
fn exchange(
    mut reader: impl BufRead,
    mut writer: impl Write,
    lines: &[String],
) -> io::Result<Vec<String>> {
    let mut responses = Vec::with_capacity(lines.len());
    let mut response = String::new();
    for line in lines {
        send_line(&mut writer, line.clone())?;
        response.clear();
        if reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-batch",
            ));
        }
        responses.push(response.trim_end().to_owned());
    }
    Ok(responses)
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdp_conform::wire::job_to_json;
    use hdp_conform::{Case, Json, Stimulus};
    use hdp_metagen::sampler::sample_spec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn job_line(seed: u64, cycles: usize) -> String {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = sample_spec(&mut rng);
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, cycles, &mut rng);
        job_to_json(&Case { spec, stimulus })
    }

    /// A sink that records how many `write` calls it received.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A message one byte over the old 8 KiB `BufWriter`, the ~29 KB
    /// response of a 1024-cycle job, and a 100 KB one.
    const MESSAGE_SIZES: [usize; 3] = [8 * 1024 + 1, 29_000, 100_000];

    #[test]
    fn send_line_is_one_write_per_message() {
        for size in MESSAGE_SIZES {
            let mut sink = CountingWriter::default();
            send_line(&mut sink, "x".repeat(size)).unwrap();
            assert_eq!(sink.writes, 1, "{size}-byte message");
            assert_eq!(sink.bytes.len(), size + 1);
            assert_eq!(sink.bytes.last(), Some(&b'\n'));
        }
    }

    #[test]
    fn submit_sends_each_line_in_one_write() {
        let lines: Vec<String> = MESSAGE_SIZES.iter().map(|&n| "y".repeat(n)).collect();
        let replies = "{}\n{}\n{}\n".as_bytes();
        let mut sink = CountingWriter::default();
        let responses = exchange(replies, &mut sink, &lines).unwrap();
        assert_eq!(responses, ["{}", "{}", "{}"]);
        assert_eq!(sink.writes, lines.len());
    }

    #[test]
    fn connection_loop_answers_each_line_in_one_write() {
        let service = Service::new(8);
        // 400 cycles makes a response several times the old 8 KiB
        // buffer; the blank line is skipped without an answer.
        let long = job_line(5, 400);
        let input = format!("{long}\n\n{}\r\nnot json\n", job_line(6, 4));
        let mut sink = CountingWriter::default();
        handle_connection(
            &service,
            input.as_bytes(),
            &mut sink,
            Limits::DEFAULT,
            job::handle_line,
        )
        .unwrap();
        assert_eq!(sink.writes, 3);
        let text = String::from_utf8(sink.bytes).unwrap();
        let docs: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert!(text.lines().next().unwrap().len() > 8 * 1024);
        assert!(docs[0].get("trace").is_some() && docs[1].get("trace").is_some());
        assert!(docs[2].get("error").is_some());
    }

    fn error_stage(doc: &Json) -> Option<&str> {
        doc.get("error")?.get("stage")?.as_str()
    }

    #[test]
    fn oversized_lines_and_idle_sockets_do_not_stop_the_server() {
        let limits = Limits {
            max_line: 4096,
            timeout: Duration::from_millis(300),
        };
        let handle = serve_with(
            "127.0.0.1:0",
            Arc::new(Service::new(8)),
            1,
            limits,
            job::handle_line,
        )
        .unwrap();
        let addr = handle.addr();
        // Holds the only worker until its read times out.
        let idle = TcpStream::connect(addr).unwrap();

        // Exactly one byte over the cap and no newline: the server reads
        // all of it, refuses it and closes the connection.
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        hostile.write_all(&[b'x'; 4097]).unwrap();
        let mut reply = String::new();
        hostile.read_to_string(&mut reply).unwrap();
        let doc = Json::parse(reply.trim_end()).unwrap();
        assert_eq!(error_stage(&doc), Some("wire"));
        assert!(reply.contains("4096-byte limit"), "{reply}");

        let responses = submit(addr, &[job_line(77, 6)]).unwrap();
        let ok = Json::parse(&responses[0]).unwrap();
        assert!(ok.get("trace").is_some(), "{}", responses[0]);
        assert_eq!(
            handle.service().metrics().get(Counter::ErrorsWire),
            1,
            "the refusal is counted"
        );
        drop(idle);
        handle.shutdown();
    }

    /// Polls `ready` for up to 10 s.
    fn wait_until(ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "timed out waiting");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn connections_past_the_full_queue_get_busy_documents() {
        let limits = Limits {
            max_line: MAX_LINE_BYTES,
            timeout: Duration::from_secs(5),
        };
        let handle = serve_with(
            "127.0.0.1:0",
            Arc::new(Service::new(8)),
            1,
            limits,
            job::handle_line,
        )
        .unwrap();
        let addr = handle.addr();
        let metrics = || handle.service().metrics();
        // An idle client holds the only worker.
        let idle = TcpStream::connect(addr).unwrap();
        wait_until(|| metrics().snapshot().connections_active == 1);

        // These fill the queue's places, one worker's worth, in order.
        let queued: Vec<TcpStream> = (0..QUEUE_PER_WORKER)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        wait_until(|| metrics().snapshot().queue_depth == QUEUE_PER_WORKER as u64);

        // The queue is full: each further connection is refused at once.
        for _ in 0..3 {
            let mut refused = TcpStream::connect(addr).unwrap();
            refused
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reply = String::new();
            refused.read_to_string(&mut reply).unwrap();
            let doc = Json::parse(reply.trim_end()).unwrap();
            assert_eq!(error_stage(&doc), Some("busy"), "{reply}");
            assert_eq!(
                doc.get("schema").and_then(Json::as_str),
                Some(job::RESULT_SCHEMA)
            );
            assert!(reply.contains(&format!("all {QUEUE_PER_WORKER} places")));
        }
        assert_eq!(metrics().get(Counter::ErrorsBusy), 3);
        assert_eq!(metrics().snapshot().queue_depth, QUEUE_PER_WORKER as u64);

        // Once the worker is free, every queued connection is served.
        drop(idle);
        for stream in &queued {
            let lines = [job_line(77, 6)];
            let responses = exchange(BufReader::new(stream), stream, &lines).unwrap();
            let ok = Json::parse(&responses[0]).unwrap();
            assert!(ok.get("trace").is_some(), "{}", responses[0]);
            stream.shutdown(Shutdown::Write).unwrap();
        }
        let stats = submit(addr, &["{\"verb\":\"stats\"}".to_owned()]).unwrap();
        let snapshot = Json::parse(&stats[0]).unwrap();
        assert_eq!(
            crate::metrics::validate_snapshot(&snapshot),
            Vec::<String>::new()
        );
        assert_eq!(metrics().get(Counter::JobsTotal), QUEUE_PER_WORKER as u64);
        handle.shutdown();
    }

    /// Takes both service locks and panics while holding them on a
    /// `boom` line; answers everything else as the server does.
    fn panicking_handler(service: &Service, line: &str) -> String {
        if line == "boom" {
            let _cache = service.lock_cache();
            let _catalog = service.lock_catalog();
            panic!("injected panic");
        }
        job::handle_line(service, line)
    }

    #[test]
    fn a_panicking_job_is_answered_and_poisons_nothing() {
        let handle = serve_with(
            "127.0.0.1:0",
            Arc::new(Service::new(8)),
            1,
            Limits::DEFAULT,
            panicking_handler,
        )
        .unwrap();
        let lines = vec![
            "boom".to_owned(),
            job_line(77, 6),
            "{\"verb\":\"stats\"}".to_owned(),
        ];
        let responses = submit(handle.addr(), &lines).unwrap();
        let panicked = Json::parse(&responses[0]).unwrap();
        assert_eq!(error_stage(&panicked), Some("panic"));
        assert!(responses[0].contains("injected panic"));
        let ok = Json::parse(&responses[1]).unwrap();
        assert!(ok.get("trace").is_some(), "{}", responses[1]);
        let snapshot = Json::parse(&responses[2]).unwrap();
        assert_eq!(
            crate::metrics::validate_snapshot(&snapshot),
            Vec::<String>::new()
        );

        // The same worker serves the next connection; both locks work.
        let again = submit(handle.addr(), &[job_line(77, 6)]).unwrap();
        let warm = Json::parse(&again[0]).unwrap();
        assert_eq!(warm.get("cache").and_then(Json::as_str), Some("hit"));
        let service = handle.service();
        assert!(service.catalog().is_none());
        assert_eq!(service.metrics().get(Counter::ErrorsPanic), 1);
        handle.shutdown();
    }

    #[test]
    fn serves_jobs_and_shares_the_cache_across_connections() {
        let handle = serve("127.0.0.1:0", Arc::new(Service::new(8)), 2).unwrap();
        let addr = handle.addr();
        let line = job_line(77, 6);

        let first = submit(addr, std::slice::from_ref(&line)).unwrap();
        let second = submit(addr, std::slice::from_ref(&line)).unwrap();
        let cold = Json::parse(&first[0]).unwrap();
        let warm = Json::parse(&second[0]).unwrap();
        assert_eq!(cold.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(warm.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(cold.get("trace"), warm.get("trace"));

        let stats = handle.service().cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        handle.shutdown();
    }

    #[test]
    fn select_verb_round_trips_over_tcp() {
        use hdp_metagen::sampler::sample_spec_in;
        use hdp_synth::board::Xsb300e;
        use hdp_synth::{characterize_spec, CharDb};

        let service = Arc::new(Service::new(8));
        let mut rng = StdRng::seed_from_u64(9);
        let board = Xsb300e::new();
        let mut db = CharDb::new();
        for family in 0..hdp_metagen::sampler::FAMILIES.len() {
            let spec = sample_spec_in(&mut rng, family);
            let _ = db.append(characterize_spec(&spec, &board).unwrap());
        }
        service.set_catalog(Arc::new(db));

        let handle = serve("127.0.0.1:0", service, 2).unwrap();
        let lines = vec!["{\"verb\":\"select\",\"constraints\":{\"kind\":\"queue\"}}".to_owned()];
        let responses = submit(handle.addr(), &lines).unwrap();
        let doc = Json::parse(&responses[0]).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(crate::job::SELECT_SCHEMA)
        );
        assert_eq!(
            doc.get("result").and_then(|r| r.get("selected")),
            Some(&Json::Bool(true))
        );
        let metrics = handle.service().metrics();
        assert_eq!(metrics.get(crate::metrics::Counter::SelectHits), 1);
        handle.shutdown();
    }

    #[test]
    fn malformed_lines_get_error_documents_without_killing_the_connection() {
        let handle = serve("127.0.0.1:0", Arc::new(Service::new(8)), 1).unwrap();
        let lines = vec!["{\"schema\": \"wrong\"}".to_owned(), job_line(5, 4)];
        let responses = submit(handle.addr(), &lines).unwrap();
        let err = Json::parse(&responses[0]).unwrap();
        assert!(err.get("error").is_some());
        let ok = Json::parse(&responses[1]).unwrap();
        assert!(ok.get("trace").is_some());
        handle.shutdown();
    }
}
