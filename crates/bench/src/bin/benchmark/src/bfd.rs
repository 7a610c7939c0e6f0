//! Building, spawning and talking to the real `bfd` binary.

use std::fs::File;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use browserflow_daemon::protocol::{read_frame, read_reply, write_frame, write_request};
use browserflow_daemon::{Reply, Request};

/// How long a daemon may take to bind, restore and answer its first ping.
const READY_TIMEOUT: Duration = Duration::from_secs(90);
/// How long a drained daemon may take to exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Builds `bfd` from the repository's own workspace (a no-op when it is
/// up to date) and returns the binary's path.
pub fn build_bfd() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "browserflow-daemon",
            "--bin",
            "bfd",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build bfd: {e}"))?;
    if !status.success() {
        return Err(format!("building bfd failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("bfd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("bfd was built but {} is missing", bin.display()))
    }
}

/// A running `bfd` child. Dropping it kills the process and reaps it.
pub struct Bfd {
    child: Child,
    socket: PathBuf,
}

impl Bfd {
    /// Starts `bfd` on `socket` with tiered persistence under `state`.
    /// Its stderr goes to `log`.
    pub fn spawn(bin: &Path, socket: &Path, state: &Path, log: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_file(socket);
        let log = File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let child = Command::new(bin)
            .arg("--socket")
            .arg(socket)
            .arg("--state-dir")
            .arg(state)
            .arg("--tiered-state")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        Ok(Self {
            child,
            socket: socket.to_path_buf(),
        })
    }

    /// Waits until the daemon answers a ping (it restores persisted
    /// tenants before it accepts) and returns that connection.
    pub fn ready(&mut self) -> Result<Conn, String> {
        let started = Instant::now();
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("bfd exited before serving: {status}"));
            }
            if let Ok(mut conn) = self.connect() {
                match conn.call(&Request::Ping) {
                    Ok(Reply::Pong { .. }) => return Ok(conn),
                    Ok(other) => return Err(format!("ping answered with {other:?}")),
                    Err(_) => {}
                }
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err("bfd did not become ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        UnixStream::connect(&self.socket)
            .map(|stream| Conn { stream })
            .map_err(|e| format!("cannot connect to {}: {e}", self.socket.display()))
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read bfd's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM line in bfd's /proc status".to_string())
    }

    /// Sends `Drain` on `conn`, checks every tenant drained cleanly and
    /// waits for the process to exit. Returns the time from sending the
    /// request to receiving `Drained`.
    pub fn drain(mut self, conn: &mut Conn, tenants: usize) -> Result<Duration, String> {
        let started = Instant::now();
        let reply = conn.call(&Request::Drain)?;
        let took = started.elapsed();
        let Reply::Drained { reports } = reply else {
            return Err(format!("drain answered with {reply:?}"));
        };
        if reports.len() != tenants {
            return Err(format!(
                "drain reported {} tenants, expected {tenants}",
                reports.len()
            ));
        }
        if let Some(bad) = reports.iter().find(|r| !r.error.is_empty()) {
            return Err(format!(
                "tenant {} failed to drain: {}",
                bad.tenant, bad.error
            ));
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(took),
                Ok(Some(status)) => return Err(format!("bfd exited with {status} after draining")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("bfd did not exit after draining".to_string()),
                Err(e) => return Err(format!("cannot wait for bfd: {e}")),
            }
        }
    }
}

impl Drop for Bfd {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Client-side split of one traced round trip.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Serialising the request to JSON.
    pub encode: Duration,
    /// Writing the frame until the whole reply frame is read.
    pub socket: Duration,
    /// Parsing the reply JSON.
    pub decode: Duration,
    pub request_bytes: usize,
    pub reply_bytes: usize,
}

/// One connection to `bfd`: strict request → reply.
pub struct Conn {
    stream: UnixStream,
}

impl Conn {
    /// One round trip through the protocol module, as `DaemonClient`
    /// does it.
    pub fn call(&mut self, request: &Request) -> Result<Reply, String> {
        write_request(&mut self.stream, request).map_err(|e| e.to_string())?;
        read_reply(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "bfd closed the connection before replying".to_string())
    }

    /// The same round trip with each step timed. The bytes on the wire are
    /// identical to [`Conn::call`]'s.
    pub fn call_timed(&mut self, request: &Request) -> Result<(Reply, Timing), String> {
        let t0 = Instant::now();
        let body = serde_json::to_vec(request).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        write_frame(&mut self.stream, &body).map_err(|e| e.to_string())?;
        let reply_body = read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "bfd closed the connection before replying".to_string())?;
        let t2 = Instant::now();
        let reply: Reply = serde_json::from_slice(&reply_body).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        Ok((
            reply,
            Timing {
                encode: t1 - t0,
                socket: t2 - t1,
                decode: t3 - t2,
                request_bytes: body.len() + 4,
                reply_bytes: reply_body.len() + 4,
            },
        ))
    }
}

/// Sleeps until `due` with fine-grained timer slack, spinning only for
/// the last few microseconds, so an open-loop sender wakes on schedule
/// without burning a core the daemon needs.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(20);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

extern "C" {
    // Linux `prctl(2)`; the workspace has no libc crate.
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Shrinks the calling thread's timer slack from the default 50 µs to
/// 1 ns, so `thread::sleep` in [`wait_until`] wakes close to its target.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's scheduling attribute; the unused
    // arguments are ignored by the kernel.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}
