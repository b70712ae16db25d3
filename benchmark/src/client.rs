//! The load generator: a raw line client.
//!
//! Requests are bytes encoded before timing starts; a response is read up
//! to its newline and compared by digest. No JSON is parsed on the hot
//! path, so the client's own cost (`harness.client_us`) stays small and is
//! not billed to the server. Closed loop: a connection sends its next
//! request only after the previous response is complete.

use crate::harness::{Clock, PROBE_EVERY};
use crate::spans::Tracer;
use crate::stats::fnv1a;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One pre-encoded request and the digest of the response it must get.
#[derive(Clone)]
pub struct Req {
    /// The request line, newline included.
    pub line: Vec<u8>,
    /// FNV-1a of the expected response line (newline excluded), taken from
    /// a response that was validated field by field.
    pub expect: u64,
    pub label: String,
}

pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    response: Vec<u8>,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> io::Result<LineClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it.
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::with_capacity(64 << 10, writer.try_clone()?);
        Ok(LineClient {
            writer,
            reader,
            response: Vec::with_capacity(64 << 10),
        })
    }

    /// One round trip; the response line without its newline.
    pub fn call(&mut self, line: &[u8]) -> io::Result<&[u8]> {
        self.send(line)?;
        self.wait()?;
        self.recv()
    }

    fn send(&mut self, line: &[u8]) -> io::Result<()> {
        self.writer.write_all(line)
    }

    /// Block until the first byte of the response is here.
    fn wait(&mut self) -> io::Result<()> {
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<&[u8]> {
        self.response.clear();
        self.reader.read_until(b'\n', &mut self.response)?;
        if self.response.pop() != Some(b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "response without newline",
            ));
        }
        Ok(&self.response)
    }

    /// [`LineClient::call`] with one span per phase.
    fn call_traced(&mut self, line: &[u8], t: &mut Tracer) -> io::Result<&[u8]> {
        t.span("client.send", || self.send(line))?;
        t.span("client.wait", || self.wait())?;
        let token = t.enter("client.recv");
        let result = self.recv();
        t.exit(token);
        result
    }
}

/// What one connection measured.
pub struct Load {
    /// Request write → full response line read, per recorded request.
    pub latency_us: Vec<f64>,
    pub failed: u64,
    /// Why, for the first few.
    pub failures: Vec<String>,
    /// The client's own time per recorded request (digest, bookkeeping).
    pub client_ns: f64,
    /// First recorded request's start → last one's end.
    pub wall: Duration,
    pub tracer: Tracer,
    /// The clock probes taken between the recorded requests.
    pub clock: Clock,
}

impl Load {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(message);
        }
    }
}

/// Drive one connection closed-loop: requests chosen by `next`, unrecorded
/// until `record_from`, stopping at the first request boundary past `stop`.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Req],
    mut next: impl FnMut() -> usize,
    record_from: Instant,
    stop: Instant,
    mut tracer: Tracer,
    mut clock: Clock,
) -> Load {
    let mut load = Load {
        latency_us: Vec::with_capacity(1 << 16),
        failed: 0,
        failures: Vec::new(),
        client_ns: 0.0,
        wall: Duration::ZERO,
        tracer: Tracer::off(),
        clock: Clock::new(false),
    };
    let mut client = match LineClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            load.fail(format!("connect: {}", e));
            return load;
        }
    };
    let mut first = None;
    let mut probed = None;
    loop {
        let start = Instant::now();
        if start >= stop {
            break;
        }
        let request = &requests[next()];
        let recorded = start >= record_from;
        let traced = recorded && tracer.on();
        let mut token = usize::MAX;
        if traced {
            tracer.next_op();
            token = tracer.enter("client.request");
        }
        let response = if traced {
            client.call_traced(&request.line, &mut tracer)
        } else {
            client.call(&request.line)
        };
        let done = Instant::now();
        tracer.exit(token);
        // From here on the time is the client's own.
        let outcome = response.map(fnv1a);
        if !recorded {
            continue;
        }
        first.get_or_insert(start);
        match outcome {
            Ok(digest) if digest == request.expect => {}
            Ok(_) => load.fail(format!(
                "{}: response differs from the validated one",
                request.label
            )),
            Err(e) => {
                load.fail(format!("{}: transport: {}", request.label, e));
                break;
            }
        }
        load.latency_us.push((done - start).as_nanos() as f64 / 1e3);
        load.wall = done - first.expect("set above");
        load.client_ns += done.elapsed().as_nanos() as f64;
        if probed.is_none_or(|at| done - at >= PROBE_EVERY) {
            clock.probe();
            probed = Some(done);
        }
    }
    load.tracer = tracer;
    load.clock = clock;
    load
}
