//! The daemon under test as a child process, and a line-protocol client.

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One running `lexequald`.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawn `bin` on an ephemeral port with `extra` flags and wait until
    /// it reports its listening address on stderr (captured to `log`).
    pub fn spawn(bin: &Path, extra: &[String], log: &Path) -> Result<Daemon, String> {
        let err = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let mut text = String::new();
            File::open(log)
                .and_then(|mut f| f.read_to_string(&mut text))
                .map_err(|e| format!("read {}: {e}", log.display()))?;
            if let Some(rest) = text.split("serving on ").nth(1) {
                if let Some(addr) = rest.split_whitespace().next() {
                    d.addr = addr.to_owned();
                    return Ok(d);
                }
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!(
                    "lexequald exited ({status}) before serving:\n{text}"
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("lexequald did not start within 60 s:\n{text}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_owned())
    }

    /// SIGKILL and reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection speaking the line protocol.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Whether the socket's read timeout is the blocking reply timeout.
    blocking: bool,
}

/// Blocking reads give up after this long: a reply that takes longer is
/// a timeout failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            blocking: false,
        })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream
            .write_all(&buf)
            .map_err(|e| format!("write: {e}"))
    }

    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[..end])
            .trim_end_matches('\r')
            .to_owned();
        self.buf.drain(..=end);
        Some(line)
    }

    /// The next reply, waiting at most `timeout`; `Ok(None)` on timeout.
    pub fn recv_within(&mut self, timeout: Duration) -> Result<Option<String>, String> {
        if let Some(line) = self.take_line() {
            return Ok(Some(line));
        }
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; 1 << 16];
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(left))
                .map_err(|e| e.to_string())?;
            self.blocking = false;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed".to_owned()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if let Some(line) = self.take_line() {
                        return Ok(Some(line));
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// The next reply, blocking up to the reply timeout.
    pub fn recv(&mut self) -> Result<String, String> {
        if let Some(line) = self.take_line() {
            return Ok(line);
        }
        if !self.blocking {
            self.stream
                .set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.blocking = true;
        }
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed".to_owned()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if let Some(line) = self.take_line() {
                        return Ok(line);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("no reply: {e}")),
            }
        }
    }

    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }

    /// Send every line with at most `depth` outstanding; returns each
    /// reply with its send and receive times.
    pub fn pipeline(
        &mut self,
        lines: &[String],
        depth: usize,
        clock: Instant,
    ) -> Result<Vec<Timed>, String> {
        let mut out: Vec<Timed> = Vec::with_capacity(lines.len());
        let mut sent_at: Vec<u64> = Vec::with_capacity(lines.len());
        let mut next = 0;
        while out.len() < lines.len() {
            while next < lines.len() && next - out.len() < depth {
                sent_at.push(ns_since(clock));
                self.send(&lines[next])?;
                next += 1;
            }
            let reply = self.recv()?;
            let i = out.len();
            out.push(Timed {
                sent: sent_at[i],
                done: ns_since(clock),
                reply,
            });
        }
        Ok(out)
    }
}

/// One reply with its request's send time and its own arrival time, in
/// nanoseconds since the run's clock origin.
#[derive(Clone, Debug)]
pub struct Timed {
    pub sent: u64,
    pub done: u64,
    pub reply: String,
}

pub fn ns_since(clock: Instant) -> u64 {
    clock.elapsed().as_nanos() as u64
}

/// `key=value` lookup in a `STATS` line.
pub fn stat(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

pub fn stat_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}
