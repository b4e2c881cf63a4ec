//! `serve`: the real `gmcc --listen unix:…` daemon, warm-started from a
//! snapshot of the workload's hot shapes, driven over one connection
//! that keeps a fixed window of requests in flight.

use crate::json::{self, Value};
use crate::stats::{fast_passes, fast_setup, fnv, mean, median, quantile, setup_due, Rng, Timed};
use crate::trace::Tracer;
use crate::{check, gen, Args, Report};
use gmc_codegen::{emit_cpp_into, emit_rust_into};
use gmc_core::CompileSession;
use gmc_serve::jsonl::{parse_request, response_line};
use gmc_serve::{CompileRequest, CompileService, Emit, ServeConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Hot shapes; shape `r` has length `3 + r % 6`, so the mix of lengths
/// does not depend on the seed.
const HOT: usize = 24;
/// Requests per pass.
const PASS_LEN: usize = 2048;
/// Requests per pass for shapes the daemon has not seen (1 in 64).
const UNSEEN_PER_PASS: usize = 32;
/// Requests kept in flight on the connection.
const WINDOW: usize = 8;
/// Daemon starts per run, spread over the run.
const SETUP_REPS: usize = 20;
/// How long the client waits for a response line before it counts the
/// rest of the pass as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

struct Inputs {
    hot: Vec<gen::Chain>,
    hot_src: Vec<String>,
    /// Zipf(1) cumulative weights over the hot shapes.
    cdf: Vec<f64>,
    seed: u64,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let mut hot: Vec<gen::Chain> = Vec::new();
    while hot.len() < HOT {
        let c = gen::draw_chain(&mut rng, 3 + hot.len() % 6, 0.1);
        if !hot.contains(&c) {
            hot.push(c);
        }
    }
    let weights: Vec<f64> = (1..=HOT).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let cdf = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let hot_src = hot.iter().map(|c| gen::source(c)).collect();
    Inputs {
        hot,
        hot_src,
        cdf,
        seed,
    }
}

/// One request of a pass: `Ok(hot index)` or `Err(unseen chain)`.
type Entry = Result<usize, gen::Chain>;

/// The stream of pass `p`: Zipf-distributed hot shapes, and at
/// `UNSEEN_PER_PASS` seeded positions a fresh chain of length 4–6.
fn pass_stream(inputs: &Inputs, p: u64) -> Vec<Entry> {
    let mut rng = Rng::new(inputs.seed ^ (p + 1).wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut stream: Vec<Entry> = (0..PASS_LEN)
        .map(|_| {
            let u = rng.unit();
            Ok(inputs.cdf.iter().position(|&c| u < c).unwrap_or(HOT - 1))
        })
        .collect();
    let mut slots: Vec<usize> = (0..PASS_LEN).collect();
    rng.shuffle(&mut slots);
    for &s in &slots[..UNSEEN_PER_PASS] {
        let chain = loop {
            let n = 4 + rng.below(3);
            let c = gen::draw_chain(&mut rng, n, 0.1);
            if !inputs.hot.contains(&c) {
                break c;
            }
        };
        stream[s] = Err(chain);
    }
    stream
}

/// One client connection, reading response lines.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    line: String,
}

impl Conn {
    fn read_line(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Send one in-band request and read its answer.
    fn ask(&mut self, request: &str) -> Result<Value, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        json::parse(self.read_line()?)
    }
}

/// A running daemon; dropping it without [`Daemon::stop`] (on a panic)
/// kills it and waits for it.
struct Daemon {
    child: Child,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

impl Daemon {
    /// SIGTERM, then wait for the drained exit; a daemon still running
    /// after `READ_TIMEOUT` is killed (by `Drop`) and reported.
    fn stop(mut self) -> Result<(), String> {
        let pid = i32::try_from(self.child.id()).map_err(|e| e.to_string())?;
        // SAFETY: `kill` only sends a signal; `pid` is our own child,
        // which has not been waited for, so the id is not reused.
        unsafe { kill(pid, 15) };
        let start = Instant::now();
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("the daemon exited with {status}")),
                None if start.elapsed() > READ_TIMEOUT => {
                    return Err("the daemon did not exit on SIGTERM".into())
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`), MiB.
    fn peak_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }
}

fn shards() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

struct Files {
    pristine: PathBuf,
    live: PathBuf,
    sock: PathBuf,
}

/// The files of one daemon: `name` tells apart the daemon that serves
/// the passes from the spare ones that are only started and stopped.
fn files(work: &Path, name: &str) -> Files {
    Files {
        pristine: work.join("pristine.snap"),
        live: work.join(format!("{name}.snap")),
        sock: work.join(format!("{name}.sock")),
    }
}

fn request_line(out: &mut Vec<u8>, id: u64, source: &str) {
    let _ = writeln!(
        out,
        "{{\"id\":{id},\"emit\":\"both\",\"source\":\"{source}\"}}"
    );
}

/// Compile the hot shapes through `gmcc --serve` on stdin, which writes
/// the snapshot the timed daemons warm-start from.
fn make_snapshot(args: &Args, inputs: &Inputs, f: &Files) -> Result<(), String> {
    let _ = std::fs::remove_file(&f.pristine);
    let mut child = Command::new(&args.gmcc)
        .args(["--serve", "-", "--jobs", &shards().to_string(), "--persist"])
        .arg(&f.pristine)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", args.gmcc.display()))?;
    let mut lines = Vec::new();
    for (i, src) in inputs.hot_src.iter().enumerate() {
        request_line(&mut lines, i as u64 + 1, src);
    }
    let mut stdin = child.stdin.take().expect("piped stdin");
    let written = stdin.write_all(&lines);
    drop(stdin);
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    written.map_err(|e| e.to_string())?;
    let ok = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|l| l.contains("\"ok\":true"))
        .count();
    if !output.status.success() || ok != HOT || !f.pristine.exists() {
        return Err(format!(
            "snapshot daemon: {} with {ok} of {HOT} hot shapes compiled",
            output.status
        ));
    }
    Ok(())
}

/// Put the pristine snapshot in place, start the daemon and time it to
/// its first answered `{"op":"health"}`.
fn start(args: &Args, f: &Files) -> Result<(Daemon, Conn, f64), String> {
    let _ = std::fs::remove_file(&f.sock);
    std::fs::copy(&f.pristine, &f.live).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let child = Command::new(&args.gmcc)
        .arg("--listen")
        .arg(format!("unix:{}", f.sock.display()))
        .args(["--jobs", &shards().to_string(), "--persist"])
        .arg(&f.live)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", args.gmcc.display()))?;
    let mut daemon = Daemon { child };
    let stream = loop {
        if let Ok(s) = UnixStream::connect(&f.sock) {
            break s;
        }
        let exited = daemon.child.try_wait().map_err(|e| e.to_string())?;
        if exited.is_some() || t.elapsed() > Duration::from_secs(60) {
            let _ = daemon.child.kill();
            let _ = daemon.child.wait();
            return Err("the daemon did not start listening".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut conn = Conn {
        writer: stream,
        reader,
        line: String::new(),
    };
    let health = conn.ask("{\"op\":\"health\"}");
    let secs = t.elapsed().as_secs_f64();
    match health {
        Ok(v) if v.get("ok") == Some(&Value::Bool(true)) => Ok((daemon, conn, secs)),
        other => {
            let _ = daemon.stop();
            Err(format!("health check failed: {other:?}"))
        }
    }
}

/// What the responses showed, across passes.
#[derive(Default)]
struct Seen {
    /// Artifact hash per source.
    artifacts: HashMap<String, u64>,
    /// First response per hot shape: (report, emitted bytes).
    hot: HashMap<usize, (String, usize)>,
    response_bytes: u64,
    responses: u64,
}

/// What one pass measured.
struct PassOut {
    secs: f64,
    /// Seconds per answered request.
    latencies: Vec<f64>,
    failed: u64,
    /// Why the pass stopped early: a response line that did not come (the
    /// unanswered requests are counted in `failed`).
    stalled: Option<String>,
}

/// One pass over `stream` with `WINDOW` requests in flight.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    conn: &mut Conn,
    inputs: &Inputs,
    stream: &[Entry],
    next_id: &mut u64,
    seen: &mut Seen,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Result<PassOut, String> {
    let sources: Vec<String> = stream
        .iter()
        .map(|e| match e {
            Ok(h) => inputs.hot_src[*h].clone(),
            Err(c) => gen::source(c),
        })
        .collect();
    let mut in_flight: HashMap<u64, (Instant, usize)> = HashMap::with_capacity(2 * WINDOW);
    let mut latencies = Vec::with_capacity(stream.len());
    let mut buf = Vec::with_capacity(WINDOW * 512);
    let (mut sent, mut done, mut failed) = (0, 0, 0);
    let start = Instant::now();
    while done < stream.len() {
        buf.clear();
        while sent < stream.len() && sent - done < WINDOW {
            request_line(&mut buf, *next_id, &sources[sent]);
            in_flight.insert(*next_id, (Instant::now(), sent));
            *next_id += 1;
            sent += 1;
        }
        if !buf.is_empty() {
            conn.writer
                .write_all(&buf)
                .map_err(|e| format!("write: {e}"))?;
        }
        let line = match conn.read_line() {
            Ok(line) => line,
            Err(e) => {
                return Ok(PassOut {
                    secs: start.elapsed().as_secs_f64(),
                    latencies,
                    failed: failed + (stream.len() - done) as u64,
                    stalled: Some(e),
                })
            }
        };
        let now = Instant::now();
        done += 1;
        let id: u64 = line
            .strip_prefix("{\"id\":")
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| format!("response without an id: {line:.120}"))?;
        let (sent_at, i) = match check::answered_once(&mut in_flight, id) {
            Ok(x) => x,
            Err(e) => {
                report.error(format!("serve: {e}"));
                continue;
            }
        };
        latencies.push((now - sent_at).as_secs_f64());
        if let Some(t) = tracer.as_deref_mut() {
            t.record("request", id, sent_at, now);
        }
        seen.response_bytes += line.len() as u64;
        seen.responses += 1;
        if let Err(e) = check::response_ok(line) {
            report.error(format!("serve: {e}"));
            failed += 1;
            continue;
        }
        let hash = fnv(artifacts(line).as_bytes());
        match seen.artifacts.get(&sources[i]) {
            Some(&first) => {
                if let Err(e) = check::same_artifacts(first, hash) {
                    report.error(format!("serve: {e}"));
                }
            }
            None => {
                seen.artifacts.insert(sources[i].clone(), hash);
                first_response(line, &stream[i], inputs, seen, report)?;
            }
        }
    }
    check::all_answered(&in_flight).map_err(|e| format!("serve: {e}"))?;
    Ok(PassOut {
        secs: start.elapsed().as_secs_f64(),
        latencies,
        failed,
        stalled: None,
    })
}

const RUNTIME_HEADER: &str = "gmc_runtime.hpp";

/// The part of a response line that carries the chain's own artifacts:
/// from its first file on, leaving out the runtime header that the
/// daemon attaches to the first response on each connection.
fn artifacts(line: &str) -> &str {
    const FILE: &str = "{\"name\":\"";
    let from = match line.find(&format!("{FILE}{RUNTIME_HEADER}\"")) {
        Some(header) => line[header + 1..].find(FILE).map(|i| header + 1 + i),
        None => line.find(FILE),
    };
    &line[from.unwrap_or(0)..]
}

/// The first response to a source: check the variant count against
/// Theorem 2 and keep what the hot shapes need for the quality figures.
fn first_response(
    line: &str,
    entry: &Entry,
    inputs: &Inputs,
    seen: &mut Seen,
    report: &mut Report,
) -> Result<(), String> {
    let v = json::parse(line)?;
    let text = v.str("report").unwrap_or_default().to_string();
    let selected = text
        .lines()
        .filter(|l| l.trim_start().starts_with("variant "))
        .count();
    let n = match entry {
        Ok(h) => inputs.hot[*h].len(),
        Err(c) => c.len(),
    };
    if let Err(e) = check::theorem2(n, selected) {
        report.error(format!("serve: {e}"));
    }
    if let Ok(h) = entry {
        let bytes = v
            .arr("files")
            .iter()
            .filter(|f| f.str("name") != Some(RUNTIME_HEADER))
            .map(|f| f.str("content").map_or(0, str::len))
            .sum();
        seen.hot.insert(*h, (text, bytes));
    }
    Ok(())
}

/// Every hot shape once, untimed, so the timed passes start warm.
fn warm_up(
    conn: &mut Conn,
    inputs: &Inputs,
    next_id: &mut u64,
    seen: &mut Seen,
    report: &mut Report,
) -> Result<(), String> {
    let stream: Vec<Entry> = (0..HOT).map(Ok).collect();
    match run_pass(conn, inputs, &stream, next_id, seen, report, None)?.stalled {
        Some(e) => Err(format!("warm-up: {e}")),
        None => Ok(()),
    }
}

/// The daemon's own view: `(server e2e p50, queue-wait p50, compile
/// p50, cache hit rate, chains restored)`. Per-shard p50s are combined
/// weighted by their sample counts.
fn daemon_view(conn: &mut Conn) -> Result<(f64, f64, f64, f64, f64), String> {
    let metrics = conn.ask("{\"op\":\"metrics\"}")?;
    let stats = conn.ask("{\"op\":\"stats\"}")?;
    let weighted = |hist: &str| {
        let (mut sum, mut count) = (0.0, 0.0);
        for s in metrics.arr("shards") {
            if let Some(h) = s.get(hist) {
                let c = h.num("count").unwrap_or(0.0);
                sum += c * h.num("p50").unwrap_or(0.0);
                count += c;
            }
        }
        sum / count.max(1.0)
    };
    let total = |key: &str| {
        stats
            .arr("shards")
            .iter()
            .filter_map(|s| s.num(key))
            .sum::<f64>()
    };
    let hits = total("hits");
    Ok((
        metrics
            .num("e2e_p50_ms")
            .ok_or("metrics without e2e_p50_ms")?,
        weighted("queue_wait_ms"),
        weighted("compile_ms"),
        hits / (hits + total("misses")).max(1.0),
        total("restored"),
    ))
}

/// Hot-shape quality: the daemon's report must match an in-process
/// compile with the same default options; returns held-out FLOP ratios
/// and mean emitted KiB per hot shape.
fn quality(inputs: &Inputs, seen: &Seen, report: &mut Report) -> (Vec<f64>, f64) {
    let mut session = CompileSession::new();
    let mut rng = Rng::new(inputs.seed ^ 0x5e1d);
    let mut ratios = Vec::new();
    let mut bytes = 0;
    for (h, chain) in inputs.hot.iter().enumerate() {
        let Some((text, b)) = seen.hot.get(&h) else {
            report.error(format!("serve: hot shape {h} was never answered"));
            continue;
        };
        bytes += b;
        let compiled = session
            .parse(&inputs.hot_src[h])
            .map_err(|e| e.to_string())
            .and_then(|(p, _)| session.compile(p.shape()).map_err(|e| e.to_string()));
        match compiled {
            Ok(c) => {
                if c.describe() != *text {
                    report.error(format!(
                        "serve: daemon report for hot shape {h} differs from compile"
                    ));
                }
                match check::held_out(&mut session, chain, c.shape(), &c, &mut rng, 16) {
                    Ok(r) => ratios.extend(r),
                    Err(e) => report.error(format!("serve: {e}")),
                }
            }
            Err(e) => report.error(format!("serve: {e}")),
        }
    }
    (ratios, bytes as f64 / HOT as f64 / 1024.0)
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let inputs = inputs(args.seed);
    let f = files(&args.work, "live");
    let spare = files(&args.work, "spare");
    make_snapshot(args, &inputs, &f)?;
    let (daemon, mut conn, first) = start(args, &f)?;
    let mut setups = vec![first];
    let result = serve_passes(args, &inputs, &mut conn, &spare, &mut setups, report);
    let peak = daemon.peak_mb();
    let view = daemon_view(&mut conn);
    drop(conn);
    daemon.stop()?;
    let (passes, seen) = result?;
    if passes.is_empty() {
        return Err("serve: no pass completed".into());
    }
    match view {
        Ok(v) if v.4 < 1.0 => report.error("serve: the daemon restored no chain from its snapshot"),
        Ok(_) => {}
        Err(e) => report.error(format!("serve: metrics and stats: {e}")),
    }
    let (ratios, code_kb) = quality(&inputs, &seen, report);
    let fast = fast_passes("serve", &passes, 0, 0.9);
    report.metric("setup_s", fast_setup("serve", &setups), "s");
    report.metric("throughput_ops_s", fast.rate, "1/s");
    report.metric("latency_p50_ms", fast.p50_ms, "ms");
    report.metric("latency_tail_ms", fast.tail_ms, "ms");
    report.metric("peak_mem_mb", peak, "MiB");
    report.metric("flop_ratio_mean", mean(&ratios), "ratio");
    report.metric("code_kb", code_kb, "KiB");
    Ok(())
}

/// Start a spare daemon on its own copy of the pristine snapshot, time it
/// to its first answer and stop it.
fn spare_setup(args: &Args, spare: &Files) -> Result<f64, String> {
    let (daemon, conn, secs) = start(args, spare)?;
    drop(conn);
    daemon.stop()?;
    Ok(secs)
}

/// Warm up, then whole passes until the run's seconds are spent, with the
/// run's remaining set-ups (spare daemons) spread between them. A pass
/// that stalls is reported, its unanswered requests are counted as
/// failed, and the run ends with the passes completed so far.
fn serve_passes(
    args: &Args,
    inputs: &Inputs,
    conn: &mut Conn,
    spare: &Files,
    setups: &mut Vec<f64>,
    report: &mut Report,
) -> Result<(Vec<Timed>, Seen), String> {
    let mut seen = Seen::default();
    let mut next_id = 1;
    warm_up(conn, inputs, &mut next_id, &mut seen, report)?;
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < args.seconds {
        if setup_due(setups.len(), SETUP_REPS, start.elapsed(), args.seconds) {
            setups.push(spare_setup(args, spare)?);
            continue;
        }
        let stream = pass_stream(inputs, passes.len() as u64);
        let out = run_pass(conn, inputs, &stream, &mut next_id, &mut seen, report, None)?;
        report.ops(stream.len() as u64, out.failed);
        if let Some(e) = out.stalled {
            report.error(format!("serve: {e}"));
            return Ok((passes, seen));
        }
        passes.push(Timed {
            secs: out.secs,
            latencies: out.latencies,
        });
    }
    while setups.len() < SETUP_REPS {
        setups.push(spare_setup(args, spare)?);
    }
    Ok((passes, seen))
}

/// Mean seconds of `f` over enough repetitions to fill 50 ms.
fn per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0;
    while calls == 0 || start.elapsed() < Duration::from_millis(50) {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

pub fn trace(
    args: &Args,
    budget: Duration,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let inputs = inputs(args.seed);
    let f = files(&args.work, "live");
    make_snapshot(args, &inputs, &f)?;
    let (daemon, mut conn, _) = start(args, &f)?;
    let mut seen = Seen::default();
    let mut next_id = 1;
    // Untraced and traced passes alternate; `secs[1]` holds the traced.
    let mut run = || -> Result<([Vec<f64>; 2], Vec<f64>), String> {
        warm_up(&mut conn, &inputs, &mut next_id, &mut seen, report)?;
        let (mut secs, mut latencies) = ([Vec::new(), Vec::new()], Vec::new());
        let start = Instant::now();
        let mut p = 0;
        while secs[1].is_empty() || start.elapsed() < budget {
            let stream = pass_stream(&inputs, p);
            let traced = p % 2 == 1;
            let out = run_pass(
                &mut conn,
                &inputs,
                &stream,
                &mut next_id,
                &mut seen,
                report,
                traced.then_some(&mut *tracer),
            )?;
            report.ops(stream.len() as u64, out.failed);
            if let Some(e) = out.stalled {
                return Err(format!("serve: {e}"));
            }
            secs[usize::from(traced)].push(out.secs);
            latencies.extend(out.latencies);
            p += 1;
        }
        Ok((secs, latencies))
    };
    let result = run();
    let view = daemon_view(&mut conn);
    drop(conn);
    daemon.stop()?;
    let ([untraced, traced], latencies) = result?;
    let (server_p50, queue_p50, compile_p50, hit_rate, _) = view?;
    let client_p50 = quantile(&latencies, 0.5) * 1e3;

    // In-process layers on the same inputs.
    let restore = {
        let copy = args.work.join("restore.snap");
        let mut times = Vec::new();
        for _ in 0..3 {
            std::fs::copy(&f.pristine, &copy).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let mut service = CompileService::start(ServeConfig {
                shards: shards(),
                snapshot_path: Some(copy.clone()),
                ..ServeConfig::default()
            })
            .map_err(|e| e.to_string())?;
            service.submit(CompileRequest {
                id: 1,
                name: None,
                source: inputs.hot_src[0].clone(),
                emit: Emit::Both,
                deadline: None,
            });
            let answered = service.recv().is_some_and(|r| r.result.is_ok());
            times.push(t.elapsed().as_secs_f64());
            let _ = service.shutdown();
            if !answered {
                report.error("serve: in-process service did not answer after restore");
            }
        }
        median(&times)
    };
    let mut lines = Vec::new();
    for (i, e) in pass_stream(&inputs, 0).iter().enumerate() {
        let src = match e {
            Ok(h) => inputs.hot_src[*h].clone(),
            Err(c) => gen::source(c),
        };
        request_line(&mut lines, i as u64 + 1, &src);
    }
    let lines = String::from_utf8(lines).map_err(|e| e.to_string())?;
    let lines: Vec<&str> = lines.lines().collect();
    let decode = per_call(|| {
        for l in &lines {
            std::hint::black_box(parse_request(std::hint::black_box(l)).is_ok());
        }
    }) / lines.len() as f64;

    let mut service = CompileService::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    for (i, src) in inputs.hot_src.iter().enumerate() {
        service.submit(CompileRequest {
            id: i as u64,
            name: None,
            source: src.clone(),
            emit: Emit::Both,
            deadline: None,
        });
    }
    let responses = service.drain();
    let _ = service.shutdown();
    let encode = per_call(|| {
        for r in &responses {
            std::hint::black_box(response_line(std::hint::black_box(r)));
        }
    }) / responses.len() as f64;

    let mut session = CompileSession::new();
    let mut shapes = Vec::new();
    for src in &inputs.hot_src {
        let (p, _) = session.parse(src).map_err(|e| e.to_string())?;
        session.compile(p.shape()).map_err(|e| e.to_string())?;
        shapes.push(p.shape().clone());
    }
    let hot_stream: Vec<usize> = pass_stream(&inputs, 0)
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    let mut out = String::new();
    let hit = per_call(|| {
        for &h in &hot_stream {
            let chain = session.compile(&shapes[h]).expect("cached shape compiles");
            out.clear();
            emit_rust_into(&mut out, &chain, "chain");
            emit_cpp_into(&mut out, &chain, "chain");
            std::hint::black_box(chain.describe());
        }
    }) / hot_stream.len() as f64;

    report.metric("serve.restore_ms", restore * 1e3, "ms");
    report.metric("serve.server_p50_ms", server_p50, "ms");
    report.metric("serve.queue_wait_p50_ms", queue_p50, "ms");
    report.metric("serve.shard_compile_p50_ms", compile_p50, "ms");
    report.metric("serve.transport_ms", client_p50 - server_p50, "ms");
    report.metric("serve.decode_us", decode * 1e6, "us");
    report.metric("serve.encode_us", encode * 1e6, "us");
    report.metric("serve.hit_us", hit * 1e6, "us");
    report.metric("serve.cache_hit_rate", hit_rate, "ratio");
    report.metric(
        "serve.response_kb",
        seen.response_bytes as f64 / seen.responses.max(1) as f64 / 1024.0,
        "KiB",
    );
    let service_ms = (decode + hit + encode) * 1e3;
    report.metric(
        "serve.unattributed_pct",
        (server_p50 - queue_p50 - service_ms) / server_p50 * 100.0,
        "%",
    );
    report.metric(
        "serve.trace_overhead_pct",
        (median(&traced) - median(&untraced)) / median(&untraced) * 100.0,
        "%",
    );
    Ok(())
}
