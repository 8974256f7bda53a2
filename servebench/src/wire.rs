//! The end-to-end run: spawn `geobrowse serve`, replay every connection's
//! scripts over loopback TCP in a closed loop, and record every request.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::workload::{Inputs, Op, Profile};

/// A running server process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits for its `listening on` line; returns
    /// it with the time from spawn to that line.
    pub fn spawn(
        bin: &Path,
        inputs: &Inputs,
        csv: &Path,
        log: &Path,
    ) -> io::Result<(Server, Duration)> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data")
            .arg(csv);
        if inputs.spec.profile == Profile::Frozen {
            cmd.arg("--profile").arg("frozen");
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?);
        let started = Instant::now();
        let mut child = cmd.spawn()?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        out.read_line(&mut line)?;
        let setup = started.elapsed();
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "server did not report its address: {line:?} (see {})",
                log.display()
            )));
        };
        Ok((Server { child, addr }, setup))
    }

    /// Peak resident set of the server process (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// CPU time the server process has used so far (user + system, its
    /// exited threads included). Time the host steals from the virtual
    /// CPUs is not charged to it.
    pub fn cpu_time(&self) -> io::Result<Duration> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the line, in clock ticks of 1/100 s
        // (the fixed USER_HZ of procfs).
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(u), Some(s)) => Ok(Duration::from_millis((u + s) * 10)),
            _ => Err(io::Error::other(format!("unreadable /proc stat: {stat:?}"))),
        }
    }

    /// Graceful shutdown through the protocol, then waits for the exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let ack = TcpStream::connect(self.addr).and_then(|mut s| {
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            s.write_all(b"{\"tenant\":\"bench\",\"op\":\"shutdown\"}\n")?;
            let mut reply = String::new();
            BufReader::new(s).read_line(&mut reply)?;
            Ok(reply)
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait()? {
                ack?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(io::Error::other("server did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached only on error paths: never leave a server running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// `degraded`, `shed` or `error`, an incomplete count array, or a
    /// write that was not acknowledged with a version.
    Refused,
    /// Timeout or connection error.
    Broken,
}

/// One request as the client saw it.
pub struct Sample {
    pub op: Op,
    pub latency: Duration,
    pub outcome: Outcome,
    /// Acknowledged version (writes) or stamped version (browses).
    pub version: Option<u64>,
    pub cache_hit: bool,
    /// Sent before the measured phase (the survey or the warm-up round):
    /// checked, but not measured.
    pub warmup: bool,
    /// The script round the op belongs to (0 is the warm-up round).
    pub round: usize,
    /// The raw reply, kept for checking.
    pub reply: Option<Vec<u8>>,
}

/// A connection's record of its run.
pub struct ConnLog {
    pub samples: Vec<Sample>,
    /// Measured rounds (the warm-up round excluded).
    pub rounds: usize,
    /// Wall time of each measured round.
    pub round_times: Vec<Duration>,
    /// Length of this connection's measured phase.
    pub measured: Duration,
}

/// One client connection: a request line out, a reply line back.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 20, stream),
        })
    }

    /// Sends `line` (newline included) and reads the reply line into
    /// `reply`; returns its length.
    fn round_trip(&mut self, line: &str, reply: &mut Vec<u8>) -> io::Result<usize> {
        reply.clear();
        self.writer.write_all(line.as_bytes())?;
        self.reader.read_until(b'\n', reply)
    }
}

/// Browses every served viewport once, in view order, before any write:
/// the replies `tile_are` is scored on and the reference later replies
/// must repeat. Not timed.
pub fn survey(conn: &mut Conn, inputs: &Inputs) -> io::Result<Vec<Sample>> {
    let mut reply = Vec::with_capacity(1 << 20);
    let mut samples = Vec::new();
    for view in inputs.served_views() {
        let op = Op::Browse { view, check: true };
        let line = op.line("survey", &inputs.views) + "\n";
        let n = conn.round_trip(&line, &mut reply)?;
        let mut sample = Sample {
            op,
            latency: Duration::ZERO,
            outcome: Outcome::Broken,
            version: None,
            cache_hit: false,
            warmup: true,
            round: 0,
            reply: None,
        };
        if n > 0 && reply.ends_with(b"\n") {
            classify(&mut sample, &reply, inputs);
            sample.reply = Some(reply.clone());
        }
        samples.push(sample);
    }
    Ok(samples)
}

/// Replays connection `conn`'s script: one warm-up round (checked, not
/// measured), a wait on `start` until every connection has warmed up,
/// then whole rounds until `run_for` has passed.
pub fn drive(
    inputs: &Inputs,
    conn: usize,
    mut client: Conn,
    run_for: Duration,
    start: &Barrier,
) -> io::Result<ConnLog> {
    let tenant = format!("c{conn}");
    let mut script = inputs.script(conn);
    let mut samples = Vec::new();
    let mut reply = Vec::with_capacity(1 << 20);
    let mut measure_from: Option<Instant> = None;
    let mut round_times = Vec::new();
    let mut broken = false;
    // A lost connection finishes its round as failures, then stops.
    while !broken && measure_from.is_none_or(|t| t.elapsed() < run_for) {
        let round = script.round;
        let warmup = round == 0;
        if !warmup && measure_from.is_none() {
            start.wait();
            measure_from = Some(Instant::now());
        }
        let round_started = Instant::now();
        for op in script.next_round(inputs) {
            let line = op.line(&tenant, &inputs.views) + "\n";
            let t0 = Instant::now();
            let sent = if broken {
                Err(io::Error::other("connection lost"))
            } else {
                client.round_trip(&line, &mut reply)
            };
            let latency = t0.elapsed();
            let mut sample = Sample {
                op,
                latency,
                outcome: Outcome::Broken,
                version: None,
                cache_hit: false,
                warmup,
                round,
                reply: None,
            };
            match sent {
                Ok(n) if n > 0 && reply.ends_with(b"\n") => {
                    classify(&mut sample, &reply, inputs);
                    if matches!(op, Op::Browse { check: true, .. }) {
                        sample.reply = Some(reply.clone());
                    }
                }
                _ => broken = true,
            }
            samples.push(sample);
        }
        if !warmup {
            round_times.push(round_started.elapsed());
        }
    }
    if measure_from.is_none() {
        // Lost during the warm-up round: still meet the others once.
        start.wait();
    }
    let measured = measure_from.map_or(Duration::ZERO, |t| t.elapsed());
    Ok(ConnLog {
        samples,
        rounds: script.round.saturating_sub(1),
        round_times,
        measured,
    })
}

/// Cheap inline reply classification (the full parse happens in the
/// checker, after the run).
fn classify(sample: &mut Sample, reply: &[u8], inputs: &Inputs) {
    let ok = reply.starts_with(br#"{"status":"ok""#);
    sample.version = field_u64(reply, b"\"version\":");
    match sample.op {
        Op::Browse { view, .. } => {
            let v = &inputs.views[view];
            // Every `[` after the outer one opens one tile's counts.
            let tiles = reply
                .iter()
                .filter(|&&b| b == b'[')
                .count()
                .saturating_sub(1);
            sample.cache_hit = find(reply, br#""cache":"hit""#).is_some();
            sample.outcome = if ok && tiles == v.tiles() {
                Outcome::Ok
            } else {
                Outcome::Refused
            };
        }
        Op::Insert { .. } | Op::Remove { .. } => {
            sample.outcome = if ok && sample.version.is_some() {
                Outcome::Ok
            } else {
                Outcome::Refused
            };
        }
    }
}

pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The unsigned integer following `key` in a reply line.
pub fn field_u64(reply: &[u8], key: &[u8]) -> Option<u64> {
    let at = find(reply, key)? + key.len();
    let digits: Vec<u8> = reply[at..]
        .iter()
        .copied()
        .take_while(u8::is_ascii_digit)
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}
