//! The `dpcq serve` process and the single-connection socket client.

use dpcq_wire::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running `dpcq serve` child. Dropping it kills and reaps the process
/// and joins the thread draining its stderr.
pub struct ServerProcess {
    child: Child,
    stderr: Option<JoinHandle<Vec<String>>>,
    pub addr: String,
    pub spawned: Instant,
}

/// Server invocation shared by every spawn of one run.
pub struct ServerArgs {
    pub bin: PathBuf,
    pub tables: Vec<(String, PathBuf)>,
    pub seed: u64,
    pub budget: Option<f64>,
    pub data_dir: Option<PathBuf>,
}

impl ServerProcess {
    /// Spawns the server on an ephemeral loopback port and waits for its
    /// "serving on" line.
    pub fn spawn(args: &ServerArgs) -> Result<ServerProcess, String> {
        let mut cmd = Command::new(&args.bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--seed"])
            .arg(args.seed.to_string());
        for (name, path) in &args.tables {
            cmd.arg("--table").arg(format!("{name}={}", path.display()));
        }
        if let Some(b) = args.budget {
            cmd.arg("--budget").arg(b.to_string());
        }
        if let Some(dir) = &args.data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let spawned = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", args.bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("dpcq serving on ") {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
                lines.push(line);
            }
            lines
        });
        let mut server = ServerProcess {
            child,
            stderr: Some(drain),
            addr: String::new(),
            spawned,
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => server.addr = addr,
            Err(_) => {
                let log = server.stop_and_log();
                return Err(format!("server did not start: {}", log.join(" | ")));
            }
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits up to `limit` for the process to exit on its own, then kills
    /// it; returns its stderr.
    pub fn wait_or_kill(mut self, limit: Duration) -> Vec<String> {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.stop_and_log()
    }

    /// SIGKILL (no shutdown, no flush beyond what the server already
    /// made durable), then reap.
    pub fn kill(mut self) -> Vec<String> {
        self.stop_and_log()
    }

    fn stop_and_log(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.stop_and_log();
    }
}

/// One ndjson connection with `TCP_NODELAY` on the client side, so every
/// frame leaves as soon as it is written and any batching delay seen is
/// the server's.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    pub fn send(&mut self, frame: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(frame.len() + 1);
        buf.extend_from_slice(frame.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("write: {e}"))
    }

    /// The next response frame, parsed.
    pub fn recv(&mut self) -> Result<Json, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Json::parse(self.line.trim_end()).map_err(|e| format!("bad frame: {e}")),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// One request, one response.
    pub fn call(&mut self, frame: &str) -> Result<Json, String> {
        self.send(frame)?;
        self.recv()
    }
}

/// Writes `rows` as an integer CSV for `--table`.
pub fn write_csv(path: &Path, rows: &[[i64; 2]]) -> Result<(), String> {
    let mut out = String::with_capacity(rows.len() * 12);
    for r in rows {
        out.push_str(&format!("{},{}\n", r[0], r[1]));
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}
