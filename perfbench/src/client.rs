//! The load side of the serving workloads: spawns the release
//! `focal-serve` on a loopback port and drives one TCP connection with
//! a closed-loop phase (fixed pipelining window) and an open-loop phase
//! (fixed arrival rate, each request timed from its scheduled send time).

use crate::gen::{Inputs, Req};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Engine threads the server runs with (the machine has two cores).
pub const SERVER_THREADS: &str = "2";

/// How long any single read may block before the run is declared stuck.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `focal-serve --tcp` child with one accepted connection.
pub struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    /// The client side of the connection.
    pub stream: TcpStream,
}

impl Server {
    /// Spawns the server, waits for its listening line, and connects.
    ///
    /// # Errors
    ///
    /// Spawn, handshake or connect failures.
    pub fn start(bin: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(bin)
            // One connection, then exit; the drain deadline must outlast
            // the run or the server force-closes the connection.
            .args(["--tcp", "127.0.0.1:0", "--max-accepts", "1"])
            .args(["--drain-deadline", "600000"])
            .env("FOCAL_THREADS", SERVER_THREADS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other("focal-serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("focal-serve: listening on ") {
                break addr.to_string();
            }
        };
        let stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Server {
            child,
            stderr,
            stream,
        })
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Closes the connection and waits for the server to drain and exit.
    ///
    /// # Errors
    ///
    /// A non-zero exit status or wait failure.
    pub fn finish(mut self) -> std::io::Result<()> {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!(
                "focal-serve exited with {status}"
            )))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Normal shutdown goes through `finish`; this only reaps a server
        // left behind by an early return.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
#[must_use]
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Outcome of the closed-loop phase.
#[derive(Debug, Default)]
pub struct Closed {
    /// Response lines, in arrival order.
    pub responses: Vec<String>,
    /// Wall time from first send to last response.
    pub elapsed: Duration,
    /// Set when the connection failed mid-phase.
    pub error: Option<String>,
}

/// Sends all of `reqs` keeping `window` requests in flight, then drains
/// the window. One thread: every write tops the window up in a single
/// `write_all`.
pub fn closed_loop(stream: &TcpStream, inputs: &Inputs, reqs: &[Req], window: usize) -> Closed {
    let mut out = Closed::default();
    let (mut reader, mut writer) = match stream.try_clone() {
        Ok(w) => (BufReader::with_capacity(1 << 16, stream), w),
        Err(e) => {
            out.error = Some(e.to_string());
            return out;
        }
    };
    let start = Instant::now();
    let mut buf = String::new();
    let mut line = String::new();
    let mut sent = 0;
    let result = (|| -> std::io::Result<()> {
        loop {
            buf.clear();
            while sent < reqs.len() && sent - out.responses.len() < window {
                inputs.push_line(&reqs[sent], &mut buf);
                sent += 1;
            }
            if !buf.is_empty() {
                writer.write_all(buf.as_bytes())?;
            }
            if out.responses.len() == sent {
                return Ok(());
            }
            // One blocking read, then everything already buffered.
            loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(std::io::Error::other("server closed the connection"));
                }
                out.responses.push(line.trim_end().to_string());
                if !reader.buffer().contains(&b'\n') {
                    break;
                }
            }
        }
    })();
    out.elapsed = start.elapsed();
    if let Err(e) = result {
        out.error = Some(e.to_string());
    }
    out
}

/// Outcome of the open-loop phase.
#[derive(Debug, Default)]
pub struct Open {
    /// Per request: response time minus scheduled send time, µs
    /// (`None` if no response arrived).
    pub latency_us: Vec<Option<f64>>,
    /// Per request: actual send time minus scheduled send time, µs.
    pub lag_us: Vec<f64>,
    /// Response lines in arrival order.
    pub responses: Vec<String>,
    /// Set when the connection failed mid-phase.
    pub error: Option<String>,
}

/// Sends `reqs` on a fixed schedule of `rate` per second (request `k` is
/// due at `k / rate`), from a sender thread; a receiver thread stamps
/// each response. Requests already due are written together.
pub fn open_loop(stream: &TcpStream, inputs: &Inputs, reqs: &[Req], rate: f64) -> Open {
    let n = reqs.len();
    let mut out = Open::default();
    let (read_half, mut writer) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(r), Ok(w)) => (r, w),
        (Err(e), _) | (_, Err(e)) => {
            out.error = Some(e.to_string());
            return out;
        }
    };
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + interval * k as u32;
    // focal-lint: allow(concurrency-confinement) -- load generator outside the model: the open loop needs a sender and a receiver thread on one connection
    let (sent, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut reader = BufReader::with_capacity(1 << 16, read_half);
            let mut stamps = Vec::with_capacity(n);
            let mut lines = Vec::with_capacity(n);
            let mut line = String::new();
            while lines.len() < n {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => return (stamps, lines, Some("server closed the connection".into())),
                    Ok(_) => {
                        stamps.push(Instant::now());
                        lines.push(line.trim_end().to_string());
                    }
                    Err(e) => return (stamps, lines, Some(e.to_string())),
                }
            }
            (stamps, lines, None)
        });
        let mut lag = Vec::with_capacity(n);
        let mut buf = String::new();
        let mut k = 0;
        let mut send_error = None;
        while k < n {
            let now = Instant::now();
            let next = due(k);
            if next > now {
                std::thread::sleep(next - now);
                continue;
            }
            buf.clear();
            while k < n && due(k) <= now {
                inputs.push_line(&reqs[k], &mut buf);
                k += 1;
            }
            let sent_at = Instant::now();
            if let Err(e) = writer.write_all(buf.as_bytes()) {
                send_error = Some(e.to_string());
                break;
            }
            while lag.len() < k {
                lag.push(micros(sent_at.saturating_duration_since(due(lag.len()))));
            }
        }
        let received = receiver.join().expect("receiver thread panicked");
        ((lag, send_error), received)
    });
    let ((lag, send_error), (stamps, lines, recv_error)) = (sent, received);
    out.latency_us = (0..n)
        .map(|k| {
            stamps
                .get(k)
                .map(|t| micros(t.saturating_duration_since(due(k))))
        })
        .collect();
    out.lag_us = lag;
    out.responses = lines;
    out.error = send_error.or(recv_error);
    out
}

/// A duration in µs.
#[must_use]
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
