//! A `weaverd` child process and the benchmark's cheap protocol client.
//!
//! On the clock the client only writes a frame, reads the reply into a
//! reused buffer and scans the small record header; it never runs a full
//! JSON parse over a multi-megabyte record (that alone costs more than
//! the server's whole hot request).

use std::io::{self, Read};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use weaver_engine::jsonl::JsonValue;
use weaver_engine::server::{write_frame, MAX_FRAME_LEN};

/// Bounds every wait on the daemon, so a wedged daemon fails the run
/// instead of hanging it.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// One protocol connection with a reusable receive buffer.
pub struct Client {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(sock: &Path) -> io::Result<Client> {
        let stream = UnixStream::connect(sock)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one frame and reads the reply frame.
    pub fn call(&mut self, payload: &[u8]) -> io::Result<&[u8]> {
        write_frame(&mut self.stream, payload)?;
        self.read_reply()
    }

    /// Writes every frame without waiting for replies (from a second
    /// thread, so neither side can block the other) and hands each reply,
    /// in arrival order, to `on_reply`.
    pub fn pipeline(
        &mut self,
        payloads: &[Vec<u8>],
        mut on_reply: impl FnMut(&[u8]),
    ) -> io::Result<()> {
        let mut writer = self.stream.try_clone()?;
        std::thread::scope(|scope| {
            let sent = scope.spawn(move || -> io::Result<()> {
                for p in payloads {
                    write_frame(&mut writer, p)?;
                }
                Ok(())
            });
            let mut read = Ok(());
            for _ in payloads {
                match self.read_reply() {
                    Ok(reply) => on_reply(reply),
                    Err(e) => {
                        read = Err(e);
                        break;
                    }
                }
            }
            if read.is_err() {
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
            }
            sent.join()
                .map_err(|_| io::Error::other("pipeline writer panicked"))??;
            read
        })
    }

    fn read_reply(&mut self) -> io::Result<&[u8]> {
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let n = u32::from_be_bytes(len) as usize;
        if n > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply frame of {n} bytes"),
            ));
        }
        if self.buf.len() < n {
            self.buf.resize(n, 0);
        }
        self.stream.read_exact(&mut self.buf[..n])?;
        Ok(&self.buf[..n])
    }

    /// Sends a verb with no arguments and fully parses the reply (off the
    /// clock only).
    pub fn verb(&mut self, verb: &str) -> io::Result<JsonValue> {
        let reply = self.call(format!("{{\"verb\":\"{verb}\",\"id\":0}}").as_bytes())?;
        let text = std::str::from_utf8(reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        JsonValue::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// What the client reads from a `job` record without parsing it.
#[derive(Debug)]
pub struct Reply<'a> {
    pub id: u64,
    /// The `cache` outcome (`memory_hit`, `disk_hit`, `miss`, …).
    pub cache: &'a [u8],
    pub check_passed: Option<bool>,
    /// The JSON-escaped `wqasm` string, without its quotes.
    pub wqasm: &'a [u8],
}

/// Scans a compile reply: the record must be a successful `job` whose
/// last two fields are `id` and `wqasm` (the shape of an `emit` reply).
/// Only the header before `id` is searched, so the cost does not grow
/// with the wQasm size.
pub fn scan_reply(bytes: &[u8]) -> Result<Reply<'_>, String> {
    let fail = |what: &str| {
        let head = &bytes[..bytes.len().min(300)];
        Err(format!("{what}: {}", String::from_utf8_lossy(head)))
    };
    if !bytes.starts_with(b"{\"kind\":\"job\"") {
        return fail("not a job record");
    }
    let Some(id_at) = find(bytes, b",\"id\":") else {
        return fail("no id");
    };
    let header = &bytes[..id_at];
    if find(header, b"\"status\":\"ok\"").is_none() {
        return fail("status is not ok");
    }
    let cache = match find(header, b"\"cache\":\"") {
        Some(at) => {
            let rest = &header[at + 9..];
            &rest[..rest.iter().position(|&b| b == b'"').unwrap_or(0)]
        }
        None => return fail("no cache outcome"),
    };
    let check_passed = if find(header, b"\"check_passed\":true").is_some() {
        Some(true)
    } else if find(header, b"\"check_passed\":false").is_some() {
        Some(false)
    } else {
        None
    };
    let digits = &bytes[id_at + 6..];
    let len = digits.iter().take_while(|b| b.is_ascii_digit()).count();
    let id = std::str::from_utf8(&digits[..len])
        .ok()
        .and_then(|s| s.parse().ok());
    let Some(id) = id else {
        return fail("bad id");
    };
    let rest = &digits[len..];
    if !rest.starts_with(b",\"wqasm\":\"") || !rest.ends_with(b"\"}") {
        return fail("no trailing wqasm field");
    }
    Ok(Reply {
        id,
        cache,
        check_passed,
        wqasm: &rest[10..rest.len() - 2],
    })
}

/// A running `weaverd` on a Unix socket with a paged store.
pub struct Daemon {
    child: Option<Child>,
    pub sock: PathBuf,
}

impl Daemon {
    /// Spawns `weaverd` and waits for its first `pong`. Returns the daemon
    /// and the seconds from spawn to that `pong`.
    /// `queue_bound` overrides the daemon's default queue bound.
    pub fn spawn(
        bin: &Path,
        sock: &Path,
        store: &Path,
        jobs: usize,
        queue_bound: Option<usize>,
    ) -> io::Result<(Daemon, f64)> {
        let start = Instant::now();
        let mut command = Command::new(bin);
        command
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .arg("--jobs")
            .arg(jobs.to_string())
            .arg("--cache-dir")
            .arg(store);
        if let Some(bound) = queue_bound {
            command.arg("--queue-bound").arg(bound.to_string());
        }
        let child = command.stdin(Stdio::null()).stdout(Stdio::null()).spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            sock: sock.to_path_buf(),
        };
        let deadline = start + TIMEOUT;
        loop {
            if let Ok(mut client) = Client::connect(&daemon.sock) {
                let pong = client.verb("ping")?;
                if pong.str_field("kind") == Some("pong") {
                    return Ok((daemon, start.elapsed().as_secs_f64()));
                }
                return Err(io::Error::other(format!("unexpected ping reply {pong:?}")));
            }
            if let Some(status) = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                daemon.child = None;
                return Err(io::Error::other(format!("weaverd exited early: {status}")));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("weaverd did not answer ping in time"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// A parsed `stats` record.
    pub fn stats(&self) -> io::Result<JsonValue> {
        Client::connect(&self.sock)?.verb("stats")
    }

    /// The daemon's `/proc/<pid>/status`.
    pub fn status_path(&self) -> String {
        self.child
            .as_ref()
            .map_or_else(String::new, |c| format!("/proc/{}/status", c.id()))
    }

    /// Peak resident set (VmHWM) of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(&self.status_path())
    }

    /// Asks the daemon to drain and waits for it to exit with status 0.
    pub fn shutdown(mut self) -> io::Result<()> {
        let ack = Client::connect(&self.sock)?.verb("shutdown")?;
        if ack.str_field("kind") != Some("shutting-down") {
            return Err(io::Error::other(format!(
                "unexpected shutdown reply {ack:?}"
            )));
        }
        let mut child = self.child.take().expect("daemon is running");
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("weaverd exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("weaverd did not drain in time"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB (0 if unreadable).
pub fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_an_emit_reply() {
        let rec = br#"{"kind":"job","index":0,"name":"x","cache":"memory_hit","status":"ok","check_passed":true,"id":17,"wqasm":"OPENQASM 3;\nh q[0];"}"#;
        let r = scan_reply(rec).unwrap();
        assert_eq!(r.id, 17);
        assert_eq!(r.cache, b"memory_hit");
        assert_eq!(r.check_passed, Some(true));
        assert_eq!(r.wqasm, br"OPENQASM 3;\nh q[0];");
    }

    #[test]
    fn rejects_errors_and_busy_records() {
        assert!(scan_reply(br#"{"kind":"busy","id":3}"#).is_err());
        let err = br#"{"kind":"job","cache":"miss","status":"error","id":3,"wqasm":""}"#;
        assert!(scan_reply(err).is_err());
    }
}
