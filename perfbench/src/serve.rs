//! The spawned `rv-serve` process and a client that times each campaign
//! answer line by line.

use crate::trace::{traced, Tracer};
use rv_core::batch::RunRecord;
use rv_core::shard::{CampaignRequest, CampaignSpec};
use rv_core::wire::{self, Line};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: i32 = 9;

/// A running `rv-serve --local-threads 1 --cache-root <dir>`; killed and
/// reaped on drop, and killed by the kernel if the thread that spawned it
/// dies first (a benchmark killed from outside leaves no server behind).
pub struct Server {
    child: Child,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    pub fn spawn(bin: &Path, cache_root: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        // SAFETY: the closure runs in the forked child before exec and
        // only calls prctl(2), which is async-signal-safe; it touches no
        // memory of the parent.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as std::ffi::c_ulong);
                Ok(())
            });
        }
        let mut child = cmd
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--local-threads")
            .arg("1")
            .arg("--cache-root")
            .arg(cache_root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("rv-serve stdout was not piped".to_string());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("rv-serve: listening on "))
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "rv-serve did not report a listening address: {line:?}"
                ))
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One served campaign answer with its client-side timestamps.
pub struct Served {
    /// `(index, raw record line)` in arrival order.
    pub lines: Vec<(usize, String)>,
    pub records: Vec<(usize, RunRecord)>,
    /// The raw `campaign_report` line.
    pub report: String,
    pub stats_n: usize,
    pub sent: Instant,
    /// Arrival time of each record line.
    pub arrivals: Vec<Instant>,
    pub done: Instant,
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        // A server that stops answering fails the campaign instead of
        // hanging the run.
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { reader, writer })
    }

    /// Sends one `campaign_spec` + `request` pair and reads the answer
    /// through its `campaign_report` line. Traced spans:
    /// `serve.wait_first` (request sent → first line read),
    /// `serve.stream` (first line → report decoded) and one
    /// `wire.decode_line` per line.
    pub fn run(
        &mut self,
        spec: &CampaignSpec,
        seed: u64,
        req: &CampaignRequest,
        tr: Option<&Tracer>,
        parent: u32,
        campaign: u64,
    ) -> Result<Served, String> {
        let msg = format!(
            "{}\n{}\n",
            wire::encode_campaign_spec(spec, seed),
            wire::encode_request(req)
        );
        let sent = Instant::now();
        let stream_id = tr.map_or(0, Tracer::id);
        let mut first: Option<Instant> = None;
        let mut lines = Vec::with_capacity(req.n);
        let mut records = Vec::with_capacity(req.n);
        let mut arrivals = Vec::with_capacity(req.n);
        self.writer
            .write_all(msg.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let (report, stats_n) = loop {
            let mut line = String::new();
            let read = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            if read == 0 {
                return Err("connection closed before campaign_report".to_string());
            }
            let at = Instant::now();
            if first.is_none() {
                first = Some(at);
                if let Some(t) = tr {
                    t.record(t.id(), "serve.wait_first", parent, campaign, sent, at);
                }
            }
            let trimmed = line.trim_end_matches(['\n', '\r']);
            let decoded = traced(tr, "wire.decode_line", stream_id, campaign, |_| {
                wire::decode_line(trimmed)
            })
            .map_err(|e| format!("bad line from server: {e}"))?;
            match decoded {
                Line::Record { index, record } => {
                    arrivals.push(at);
                    lines.push((index, trimmed.to_string()));
                    records.push((index, record));
                }
                Line::UnitTelemetry(_) => {}
                Line::CampaignReport(stats) => break (trimmed.to_string(), stats.n),
                Line::Error(e) => return Err(format!("server error: {e}")),
                other => return Err(format!("unexpected line kind: {other:?}")),
            }
        };
        let done = Instant::now();
        if let (Some(t), Some(first)) = (tr, first) {
            t.record(stream_id, "serve.stream", parent, campaign, first, done);
        }
        Ok(Served {
            lines,
            records,
            report,
            stats_n,
            sent,
            arrivals,
            done,
        })
    }
}
