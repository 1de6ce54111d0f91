//! `perfbench` — the repository benchmark for `lexequald`.
//!
//! ```text
//! perfbench --workload paper_match|fresh_untagged|write_mix --seed N
//!           --seconds S --trace 0|1 --daemon PATH [--out DIR] [--commit ID]
//! perfbench --self-test --daemon PATH [--out DIR]
//! ```
//!
//! Every input is generated from the seed; the daemon receives only
//! request lines over TCP. Each run sets the daemon up several times
//! (`setup_s`), drives one measured window, checks every reply against
//! an oracle computed off the clock, kills and restarts the daemon to
//! check durability (`recover_s`), and prints every metric by name and
//! unit. The last stdout line is one JSON object: end-to-end metrics
//! with `--trace 0`, per-layer metrics (from an in-process replay of the
//! same requests under spans) with `--trace 1`.

mod daemon;
mod gen;
mod keeper;
mod oracle;
mod trace;

use daemon::{ns_since, stat, stat_str, Conn, Daemon, Timed};
use gen::{Bases, Entry, Fresh, FreshGen, Rng};
use lexequal::{
    BatchVerifier, G2pRegistry, Language, LexEqual, MatchConfig, NameStore, PhonemeString,
    SearchMethod,
};
use lexequal_service::BuildSpec;
use oracle::{AddRec, Expect};
use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["paper_match", "fresh_untagged", "write_mix"];
const PROVENANCE: &str = include_str!("../provenance.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    out: PathBuf,
    commit: String,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        daemon: PathBuf::new(),
        out: PathBuf::from("perfbench/out"),
        commit: "unknown".to_owned(),
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: {v:?} is not 0 or 1")),
                }
            }
            "--daemon" => a.daemon = PathBuf::from(value()?),
            "--out" => a.out = PathBuf::from(value()?),
            "--commit" => a.commit = value()?,
            "--self-test" => a.self_test = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.daemon.as_os_str().is_empty() {
        return Err("--daemon PATH is required".into());
    }
    if !a.self_test && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

/// Sizes of one run.
#[derive(Clone)]
struct Plan {
    /// Target corpus size (paper §5 generator).
    size: usize,
    /// Distinct stored names queried by paper_match and write_mix.
    pool: usize,
    /// Daemon set-ups per run; `setup_s` is their median.
    setups: usize,
    /// Kill/restart cycles per run; `recover_s` is their median.
    recoveries: usize,
    /// Queries answered before and after each restart.
    battery: usize,
    wal_max_bytes: u64,
    /// ADDs logged after a checkpoint and before the kill (write_mix).
    wal_tail: usize,
    trace_matches: usize,
    trace_adds: usize,
}

impl Plan {
    fn full() -> Plan {
        Plan {
            size: 20_000,
            pool: 256,
            setups: 5,
            recoveries: 15,
            battery: 16,
            wal_max_bytes: 8 * 1024,
            wal_tail: 100,
            trace_matches: 256,
            trace_adds: 256,
        }
    }

    /// The self-test's sizes: every path runs, in seconds.
    fn small() -> Plan {
        Plan {
            size: 600,
            pool: 32,
            setups: 1,
            recoveries: 1,
            battery: 8,
            wal_max_bytes: 4 * 1024,
            wal_tail: 20,
            trace_matches: 32,
            trace_adds: 32,
        }
    }
}

/// Faults the self-test injects into the checker's own inputs.
#[derive(Default, Clone, Copy)]
struct Faults {
    /// Alter one window reply before it is checked.
    tamper_reply: bool,
    /// Claim one more acknowledged ADD than the daemon ever received.
    drop_acked: bool,
}

/// Attempted and failed requests, with the first failures spelled out.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, result: Result<(), String>, request: &str, reply: &str) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.notes.len() < 50 {
                self.notes.push(format!(
                    "{why}\n    request: {request}\n    reply:   {reply}"
                ));
            }
        }
    }
}

fn code(l: Language) -> &'static str {
    match l {
        Language::English => "en",
        Language::Hindi => "hi",
        Language::Tamil => "ta",
        Language::Greek => "el",
        Language::French => "fr",
        Language::Spanish => "es",
        Language::Arabic => "ar",
        Language::Japanese => "ja",
        Language::Russian => "ru",
        Language::Korean => "ko",
        Language::Thai => "th",
    }
}

fn tag(l: Option<Language>) -> &'static str {
    l.map_or("-", code)
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(v: &mut [f64], p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The query every restart must answer as it did before the kill.
const RECOVERY_PROBE: &str = "MATCH en scan 0.35 Nehru";

/// MATCH replies a run needs so that ten lie beyond its p99.
const MIN_TAIL_SAMPLES: usize = 1000;

/// Requests in flight on a connection that pipelines ADDs or probes.
const PIPELINE_DEPTH: usize = 8;

/// Untimed read traffic before the window.
const WARMUP: Duration = Duration::from_secs(2);

/// write_mix sends one window ADD per interval, open loop.
const ADD_INTERVAL: Duration = Duration::from_millis(4);

/// Median over the window's whole one-second slices of the replies
/// completed in each.
fn slice_rate(done_ns: &[u64], start_ns: u64, end_ns: u64) -> f64 {
    let slices = ((end_ns - start_ns) / 1_000_000_000).max(1) as usize;
    let mut counts = vec![0f64; slices];
    for &d in done_ns {
        let i = (d.saturating_sub(start_ns) / 1_000_000_000) as usize;
        if d >= start_ns && i < slices {
            counts[i] += 1.0;
        }
    }
    median(counts)
}

/// The MATCH latency median of each two-second slice of the window, to
/// show how the host's speed moves within a run.
fn slice_p50s(matches: &[(String, Timed)], start_ns: u64, end_ns: u64) -> String {
    let slices = ((end_ns - start_ns) / 2_000_000_000).max(1) as usize;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for (_, t) in matches {
        let i = (t.done.saturating_sub(start_ns) / 2_000_000_000) as usize;
        if i < slices {
            per[i].push((t.done - t.sent) as f64 / 1e6);
        }
    }
    let p50s: Vec<String> = per
        .iter_mut()
        .filter(|v| !v.is_empty())
        .map(|v| format!("{:.3}", percentile(v, 0.5)))
        .collect();
    p50s.join(" ")
}

/// Mean in-process scan time of `q` over about a second, on one thread
/// with no sockets: how fast the host runs the scan right now.
fn host_scan_us(store: &NameStore, q: &PhonemeString, e: f64) -> f64 {
    let mut bv = BatchVerifier::new();
    let t = Instant::now();
    let mut n = 0;
    while n == 0 || t.elapsed() < Duration::from_secs(1) {
        std::hint::black_box(store.search_phonemes_batched(q, e, SearchMethod::Scan, &mut bv));
        n += 1;
    }
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}

fn expect_reply(reply: &str, want: &str) -> Result<(), String> {
    if reply == want {
        Ok(())
    } else {
        Err(format!("expected {want:?}"))
    }
}

/// Alter an id-list reply so that it no longer matches (self-test).
fn tamper(reply: &str) -> String {
    match oracle::parse_reply(reply) {
        oracle::Reply::Ids { mut ids, e } => {
            if ids.pop().is_none() {
                ids.push(0);
            }
            let list: Vec<String> = ids.iter().map(u32::to_string).collect();
            format!(
                "OK n={} verified=0 method=scan e={e} ids={}",
                ids.len(),
                list.join(",")
            )
        }
        _ => "OK n=1 verified=0 method=scan e=0 ids=0".to_owned(),
    }
}

/// One pool query: a stored name at one of the paper thresholds.
struct PoolQuery {
    idx: usize,
    e: f64,
    line: String,
}

/// One window ADD of write_mix.
struct AddSent {
    fresh: Fresh,
    line: String,
    due: u64,
    sent: u64,
    done: u64,
    reply: String,
}

/// What one run measured.
struct Outcome {
    e2e: Vec<trace::Metric>,
    /// Printed by every run, in the JSON of traced runs only: too
    /// unsteady from run to run to carry a bound.
    unbounded: Vec<trace::Metric>,
    layer: Vec<trace::Metric>,
    tally: Tally,
    info: Vec<(String, String)>,
}

fn metric(v: &mut Vec<trace::Metric>, name: &str, value: f64, unit: &'static str) {
    v.push((name.to_owned(), value, unit));
}

/// Closed loop on one connection: take the next request from `next`,
/// send it, wait for its reply, repeat until `end_ns`.
fn closed_loop<T>(
    conn: &mut Conn,
    mut next: impl FnMut() -> (T, String),
    clock: Instant,
    end_ns: u64,
) -> Result<Vec<(T, String, Timed)>, String> {
    let mut out = Vec::new();
    while ns_since(clock) < end_ns {
        let (key, line) = next();
        let sent = ns_since(clock);
        conn.send(&line)?;
        let reply = conn.recv()?;
        out.push((
            key,
            line,
            Timed {
                sent,
                done: ns_since(clock),
                reply,
            },
        ));
    }
    Ok(out)
}

/// Pool lines from `first` on, every `stride`-th, wrapping around.
fn pool_source(
    lines: &[String],
    first: usize,
    stride: usize,
) -> impl FnMut() -> (usize, String) + '_ {
    let mut i = first;
    move || {
        let k = i % lines.len();
        i += stride;
        (k, lines[k].clone())
    }
}

fn fresh_line(f: &Fresh) -> String {
    format!("MATCH {} phonidx 0.35 {}", tag(f.lang), f.text)
}

/// Distinct fresh queries from the shared generator.
fn fresh_source<'a>(source: &'a Mutex<FreshGen<'a>>) -> impl FnMut() -> (Fresh, String) + 'a {
    || {
        let f = source.lock().expect("generator lock").next();
        let line = fresh_line(&f);
        (f, line)
    }
}

fn add_line(f: &Fresh) -> String {
    format!("ADD {} {}", tag(f.lang), f.text)
}

/// Open loop: ADD `k` is due at `start + k·interval`, sent then whether
/// or not earlier ones have been answered.
fn add_loop(
    conn: &mut Conn,
    source: &mut FreshGen,
    interval: Duration,
    clock: Instant,
    start_ns: u64,
    end_ns: u64,
) -> Result<Vec<AddSent>, String> {
    let mut out: Vec<AddSent> = Vec::new();
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let step = interval.as_nanos() as u64;
    let mut k = 0u64;
    loop {
        let due = start_ns + k * step;
        let now = ns_since(clock);
        if due < end_ns && now >= due {
            let fresh = source.next();
            let line = add_line(&fresh);
            let sent = ns_since(clock);
            conn.send(&line)?;
            waiting.push_back(out.len());
            out.push(AddSent {
                fresh,
                line,
                due,
                sent,
                done: 0,
                reply: String::new(),
            });
            k += 1;
            continue;
        }
        if due >= end_ns && waiting.is_empty() {
            return Ok(out);
        }
        let wait = if due < end_ns {
            Duration::from_nanos(due - now)
        } else {
            Duration::from_secs(60)
        };
        if let Some(reply) = conn.recv_within(wait)? {
            let i = waiting
                .pop_front()
                .ok_or_else(|| format!("unrequested reply {reply:?}"))?;
            out[i].done = ns_since(clock);
            out[i].reply = reply;
        } else if due >= end_ns {
            return Err("ADD replies timed out".to_owned());
        }
    }
}

/// The host's aggregate CPU tick counters (`/proc/stat` "cpu" line).
fn host_cpu() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.len() >= 8).then_some(ticks)
}

/// Check an ADD's reply (`OK <id>`, with the resolved `lang=` when
/// untagged) and return what the oracle needs to know about the name.
fn check_add(reg: &G2pRegistry, id: u32, a: &AddSent, tally: &mut Tally) -> Option<AddRec> {
    let (lang, want) = match a.fresh.lang {
        Some(l) => (Some(l), format!("OK {id}")),
        None => {
            let l = gen::resolve_add(reg, &a.fresh.text);
            let tag = l.map_or("?".to_owned(), |l| l.to_string());
            (l, format!("OK {id} lang={tag}"))
        }
    };
    tally.check(expect_reply(&a.reply, &want), &a.line, &a.reply);
    let phon = reg.transform(&a.fresh.text, lang?).ok()?;
    Some(AddRec {
        id,
        phon,
        sent: a.sent,
        acked: a.done,
    })
}

fn file_len(p: &Path) -> Result<u64, String> {
    std::fs::metadata(p)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", p.display()))
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args, plan: &Plan, faults: Faults) -> Result<Outcome, String> {
    let clock = Instant::now();
    let wl = args.workload.as_str();
    let fresh = wl == "fresh_untagged";
    let write = wl == "write_mix";
    let config = MatchConfig::default();
    let reg = config.registry.clone();
    let op = LexEqual::new(config.clone());
    let mut info: Vec<(String, String)> = Vec::new();
    let mut tally = Tally::default();
    let keeper = keeper::Keeper::start();
    // Let the host settle on keeping this VM's vCPUs busy before timing.
    std::thread::sleep(Duration::from_secs(1));

    let scratch = Scratch(
        args.out
            .join(format!("run-{wl}-{}-{}", args.seed, std::process::id())),
    );
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("create scratch dir: {e}"))?;

    // Inputs, all from the seed.
    let bases = Bases::build(&config);
    let mut rng = Rng::new(args.seed, 1);
    let corpus: Vec<Entry> = gen::corpus(&bases, &reg, plan.size, &mut rng);
    let n0 = corpus.len() as u32;
    let stored: HashSet<String> = corpus.iter().map(|c| c.text.clone()).collect();
    let ingest: Vec<String> = corpus
        .iter()
        .map(|c| format!("ADD {} {}", code(c.lang), c.text))
        .collect();
    let pool: Vec<PoolQuery> = gen::pool(&corpus, plan.pool, &mut rng)
        .into_iter()
        .map(|(idx, e)| {
            let c = &corpus[idx];
            PoolQuery {
                idx,
                e,
                line: format!("MATCH {} - {e} {}", code(c.lang), c.text),
            }
        })
        .collect();
    let pool_lines: Vec<String> = pool.iter().map(|p| p.line.clone()).collect();
    info.push(("corpus_names".into(), n0.to_string()));

    // Expected answers, off the clock.
    let t = Instant::now();
    let pool_expect: Vec<Vec<u32>> = if fresh {
        Vec::new()
    } else {
        let qs: Vec<(PhonemeString, f64)> = pool
            .iter()
            .map(|p| (corpus[p.idx].phon.clone(), p.e))
            .collect();
        oracle::naive_many(&op, &corpus, &qs)
    };
    let phonidx = fresh.then(|| oracle::PhonidxOracle::new(&config, &corpus));
    info.push((
        "oracle_setup_s".into(),
        format!("{:.3}", t.elapsed().as_secs_f64()),
    ));

    // The set-up's first query, and what a correct answer is.
    let (probe_line, probe_expect, probe_e) = match &phonidx {
        Some(o) => {
            let c = &corpus[pool[0].idx];
            (
                format!("MATCH {} phonidx 0.35 {}", code(c.lang), c.text),
                o.expect(&c.text, Some(c.lang), 0.35),
                0.35,
            )
        }
        None => (
            pool[0].line.clone(),
            Expect::Ids(pool_expect[0].clone()),
            pool[0].e,
        ),
    };
    let wal_flags = |dir: &Path| -> Vec<String> {
        if write {
            vec![
                "--wal".to_owned(),
                dir.join("wal").display().to_string(),
                "--wal-max-bytes".to_owned(),
                plan.wal_max_bytes.to_string(),
            ]
        } else {
            Vec::new()
        }
    };

    // Set-up, several times: spawn, ingest, build, first correct answer.
    let mut setup_s = Vec::new();
    let mut ingest_lat = Vec::new();
    let mut live = None;
    for r in 0..plan.setups {
        let dir = scratch.0.join(format!("setup{r}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let t0 = Instant::now();
        let d = Daemon::spawn(&args.daemon, &wal_flags(&dir), &dir.join("daemon.log"))?;
        let mut c = d.connect()?;
        let timed = c.pipeline(&ingest, PIPELINE_DEPTH, clock)?;
        for (i, t) in timed.iter().enumerate() {
            tally.check(
                expect_reply(&t.reply, &format!("OK {i}")),
                &ingest[i],
                &t.reply,
            );
            ingest_lat.push((t.done - t.sent) as f64 / 1e6);
        }
        if fresh {
            let rep = c.call("BUILD PHONIDX")?;
            tally.check(
                expect_reply(&rep, "OK built=phonidx"),
                "BUILD PHONIDX",
                &rep,
            );
        }
        let rep = c.call(&probe_line)?;
        tally.check(
            oracle::check(&rep, &probe_expect, probe_e),
            &probe_line,
            &rep,
        );
        setup_s.push(t0.elapsed().as_secs_f64());
        info.push((format!("setup{r}_s"), format!("{:.3}", setup_s[r])));
        if r + 1 == plan.setups {
            live = Some((d, dir, c));
        } else {
            drop(c);
            d.kill();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (d, dir, mut c0) = live.ok_or("no set-up ran")?;
    let stats_before = c0.call("STATS")?;
    let simd = stat_str(&stats_before, "simd")
        .unwrap_or("unknown")
        .to_owned();
    info.push(("simd".into(), simd));

    // The host's scan speed around the window (diagnostic only).
    let mut probe_store = NameStore::new(config.clone());
    probe_store.extend_transformed(trace::entries(&corpus));
    // One fixed query, so that runs of different seeds compare.
    let nehru = reg
        .transform("Nehru", Language::English)
        .map_err(|e| format!("transform the host probe: {e:?}"))?;
    let scan_before = host_scan_us(&probe_store, &nehru, 0.35);

    // The measured window.
    let mut add_source = FreshGen::adds(&bases, &stored, args.seed);
    let mut c1 = d.connect()?;
    let fresh_queries = Mutex::new(FreshGen::queries(&bases, &stored, args.seed));
    // Warm-up: the window's read traffic, untimed and unchecked, so that
    // the window does not open on cold daemon and host caches.
    let warm_end = ns_since(clock) + WARMUP.as_nanos() as u64;
    std::thread::scope(|s| {
        let clients: Vec<_> = [(&mut c0, 0), (&mut c1, 1)]
            .into_iter()
            .map(|(c, first)| {
                let (lines, queries) = (&pool_lines, &fresh_queries);
                s.spawn(move || {
                    if fresh {
                        closed_loop(c, fresh_source(queries), clock, warm_end).map(drop)
                    } else {
                        closed_loop(c, pool_source(lines, first, 2), clock, warm_end).map(drop)
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .try_for_each(|h| h.join().expect("client thread"))
    })?;
    let cpu_before = host_cpu();
    let start_ns = ns_since(clock);
    let end_ns = start_ns + (args.seconds * 1e9) as u64;
    let mut matches: Vec<(String, Timed)> = Vec::new();
    let mut pool_hits: Vec<(usize, Timed)> = Vec::new();
    let mut fresh_sent: Vec<(Fresh, String, Timed)> = Vec::new();
    let mut adds_sent: Vec<AddSent> = Vec::new();
    match wl {
        "paper_match" => {
            let (a, b) = std::thread::scope(|s| {
                let a =
                    s.spawn(|| closed_loop(&mut c0, pool_source(&pool_lines, 0, 2), clock, end_ns));
                let b =
                    s.spawn(|| closed_loop(&mut c1, pool_source(&pool_lines, 1, 2), clock, end_ns));
                (
                    a.join().expect("client thread"),
                    b.join().expect("client thread"),
                )
            });
            pool_hits.extend(a?.into_iter().map(|(k, _, t)| (k, t)));
            pool_hits.extend(b?.into_iter().map(|(k, _, t)| (k, t)));
        }
        "fresh_untagged" => {
            let (a, b) = std::thread::scope(|s| {
                let a =
                    s.spawn(|| closed_loop(&mut c0, fresh_source(&fresh_queries), clock, end_ns));
                let b =
                    s.spawn(|| closed_loop(&mut c1, fresh_source(&fresh_queries), clock, end_ns));
                (
                    a.join().expect("client thread"),
                    b.join().expect("client thread"),
                )
            });
            fresh_sent.extend(a?);
            fresh_sent.extend(b?);
        }
        _ => {
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| {
                    add_loop(
                        &mut c0,
                        &mut add_source,
                        ADD_INTERVAL,
                        clock,
                        start_ns,
                        end_ns,
                    )
                });
                let b =
                    s.spawn(|| closed_loop(&mut c1, pool_source(&pool_lines, 0, 1), clock, end_ns));
                (
                    a.join().expect("client thread"),
                    b.join().expect("client thread"),
                )
            });
            adds_sent = a?;
            pool_hits.extend(b?.into_iter().map(|(k, _, t)| (k, t)));
        }
    }
    let stats_after = c0.call("STATS")?;
    info.push((
        "host_scan_us_before_after".into(),
        format!(
            "{:.1} {:.1}",
            scan_before,
            host_scan_us(&probe_store, &nehru, 0.35)
        ),
    ));
    drop(probe_store);
    drop(c1);
    if let (Some(a), Some(b)) = (cpu_before, host_cpu()) {
        let d: Vec<f64> = a.iter().zip(&b).map(|(x, y)| (y - x) as f64).collect();
        let total: f64 = d.iter().sum();
        // /proc/stat cpu columns: user nice system idle iowait irq softirq steal.
        info.push((
            "host_steal_pct".into(),
            format!("{:.1}", 100.0 * d[7] / total.max(1.0)),
        ));
        info.push((
            "host_idle_pct".into(),
            format!("{:.1}", 100.0 * d[3] / total.max(1.0)),
        ));
    }

    // Check every window reply.
    if faults.tamper_reply {
        if let Some((_, t)) = pool_hits.first_mut() {
            t.reply = tamper(&t.reply);
        }
        if let Some((_, _, t)) = fresh_sent.first_mut() {
            t.reply = tamper(&t.reply);
        }
    }
    let t = Instant::now();
    if write {
        let adds: Vec<AddRec> = adds_sent
            .iter()
            .enumerate()
            .filter_map(|(k, a)| check_add(&reg, n0 + k as u32, a, &mut tally))
            .collect();
        let mut matching: Vec<Option<Vec<usize>>> = vec![None; pool.len()];
        for (k, t) in &pool_hits {
            let p = &pool[*k];
            let q = &corpus[p.idx].phon;
            let m = matching[*k].get_or_insert_with(|| {
                adds.iter()
                    .enumerate()
                    .filter(|(_, a)| op.matches_phonemes(&a.phon, q, p.e))
                    .map(|(i, _)| i)
                    .collect()
            });
            let result = oracle::check_growing(
                &t.reply,
                &pool_expect[*k],
                n0,
                &adds,
                m,
                p.e,
                t.sent,
                t.done,
            );
            tally.check(result, &p.line, &t.reply);
        }
    } else if let Some(o) = &phonidx {
        for (f, line, t) in &fresh_sent {
            tally.check(
                oracle::check(&t.reply, &o.expect(&f.text, f.lang, 0.35), 0.35),
                line,
                &t.reply,
            );
        }
    } else {
        let expects: Vec<Expect> = pool_expect.iter().cloned().map(Expect::Ids).collect();
        for (k, t) in &pool_hits {
            tally.check(
                oracle::check(&t.reply, &expects[*k], pool[*k].e),
                &pool[*k].line,
                &t.reply,
            );
        }
    }
    info.push((
        "oracle_check_s".into(),
        format!("{:.3}", t.elapsed().as_secs_f64()),
    ));
    for (k, t) in &pool_hits {
        matches.push((pool[*k].line.clone(), t.clone()));
    }
    for (_, line, t) in &fresh_sent {
        matches.push((line.clone(), t.clone()));
    }
    matches.sort_by_key(|(_, t)| t.sent);

    // End-to-end metrics of the window. Host stalls on a shared VM come
    // in bursts, so throughput is the median one-second slice. The p99s
    // and the ADD and recovery times are reported beside the bounded
    // metrics: on a shared 2-vCPU VM they swing too far from run to run
    // to carry one.
    let mut e2e: Vec<trace::Metric> = Vec::new();
    let mut unbounded: Vec<trace::Metric> = Vec::new();
    let mut lat: Vec<f64> = matches
        .iter()
        .map(|(_, t)| (t.done - t.sent) as f64 / 1e6)
        .collect();
    if lat.len() < MIN_TAIL_SAMPLES {
        return Err(format!("only {} MATCH replies in the window", lat.len()));
    }
    info.push(("match_samples".into(), lat.len().to_string()));
    let ladder: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|&p| format!("{:.3}", percentile(&mut lat, p)))
        .collect();
    info.push(("match_ms_p10_p25_p50_p75_p90".into(), ladder.join(" ")));
    metric(&mut e2e, "setup_s", median(setup_s), "s");
    let done: Vec<u64> = matches.iter().map(|(_, t)| t.done).collect();
    metric(
        &mut e2e,
        "match_ops",
        slice_rate(&done, start_ns, end_ns),
        "req/s",
    );
    metric(&mut e2e, "match_p50_ms", percentile(&mut lat, 0.50), "ms");
    info.push((
        "match_p50_ms_per_2s".into(),
        slice_p50s(&matches, start_ns, end_ns),
    ));
    metric(
        &mut unbounded,
        "match_p99_ms",
        percentile(&mut lat, 0.99),
        "ms",
    );
    // write_mix times its window ADDs from their scheduled send; the read
    // workloads send no ADDs in the window, so theirs are the set-ups'
    // pipelined ingest ADDs.
    let mut add_lat: Vec<f64> = if write {
        adds_sent
            .iter()
            .map(|a| (a.done - a.due) as f64 / 1e6)
            .collect()
    } else {
        ingest_lat
    };
    info.push(("add_samples".into(), add_lat.len().to_string()));
    if write {
        let mut lag: Vec<f64> = adds_sent
            .iter()
            .map(|a| (a.sent - a.due) as f64 / 1e6)
            .collect();
        info.push((
            "add_send_lag_p99_ms".into(),
            format!("{:.3}", percentile(&mut lag, 0.99)),
        ));
    }
    metric(
        &mut unbounded,
        "add_p50_ms",
        percentile(&mut add_lat, 0.50),
        "ms",
    );
    metric(
        &mut unbounded,
        "add_p99_ms",
        percentile(&mut add_lat, 0.99),
        "ms",
    );

    // The traced run: the same requests in-process, under spans.
    let mut layer: Vec<trace::Metric> = Vec::new();
    if args.trace {
        let m = plan.trace_matches.min(matches.len() / 2).max(1);
        let lines: Vec<String> = matches.iter().map(|(l, _)| l.clone()).collect();
        let timed = &lines[lines.len() - m..];
        let warm = &lines[lines.len().saturating_sub(2 * m)..lines.len() - m];
        let add_lines: Vec<String> = if write {
            adds_sent
                .iter()
                .map(|a| a.line.clone())
                .take(plan.trace_adds)
                .collect()
        } else {
            ingest.iter().take(plan.trace_adds).cloned().collect()
        };
        let shards = stat(&stats_before, "shards").unwrap_or(1) as usize;
        let input = trace::Input {
            config: &config,
            corpus: &corpus,
            shards,
            cache_capacity: 4096,
            build: fresh.then_some(BuildSpec::PhoneticIndex),
            matches: timed,
            warm,
            adds: &add_lines,
            dir: &scratch.0,
            spans_out: args.out.join(format!("spans-{wl}-seed{}.tsv", args.seed)),
        };
        let (mut metrics, replies) = trace::run(&input)?;
        // The replay holds the initial corpus only, so the daemon's ids
        // from window ADDs (write_mix) are left out of the comparison.
        let initial = |reply: &str| match oracle::parse_reply(reply) {
            oracle::Reply::Ids { mut ids, e } => {
                ids.retain(|&id| id < n0);
                oracle::Reply::Ids { ids, e }
            }
            other => other,
        };
        for (replayed, (line, t)) in replies.iter().zip(&matches[matches.len() - m..]) {
            let agree = if initial(replayed) == initial(&t.reply) {
                Ok(())
            } else {
                Err(format!(
                    "traced replay disagrees with the daemon's {:?}",
                    t.reply
                ))
            };
            tally.check(agree, line, replayed);
        }
        let delta = |k: &str| {
            stat(&stats_after, k).unwrap_or(0) as f64 - stat(&stats_before, k).unwrap_or(0) as f64
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let screened = delta("screen_accept") + delta("screen_reject") + delta("screen_dp");
        metric(
            &mut metrics,
            "verify.screen_reject_ratio",
            ratio(delta("screen_reject"), screened),
            "ratio",
        );
        metric(
            &mut metrics,
            "verify.dp_ratio",
            ratio(delta("screen_dp"), screened),
            "ratio",
        );
        metric(
            &mut metrics,
            "verify.embed_reject_ratio",
            ratio(delta("embed_screen_reject"), screened),
            "ratio",
        );
        metric(
            &mut metrics,
            "verify.batch_fill",
            ratio(delta("batch_lanes_sum"), delta("batch_calls")) / lexequal::MAX_LANES as f64,
            "ratio",
        );
        let lookups = delta("cache_hits") + delta("cache_misses");
        metric(
            &mut metrics,
            "cache.hit_ratio",
            ratio(delta("cache_hits"), lookups),
            "ratio",
        );
        metric(
            &mut metrics,
            "event_loop.queue_peak",
            stat(&stats_after, "queue_peak").unwrap_or(0) as f64,
            "count",
        );
        metric(
            &mut metrics,
            "event_loop.dispatches_per_request",
            ratio(delta("dispatches"), delta("requests")),
            "ratio",
        );
        metric(
            &mut metrics,
            "wal.compactions",
            delta("compactions"),
            "count",
        );
        let get = |n: &str| metrics.iter().find(|(k, _, _)| k == n).map_or(0.0, |m| m.1);
        let socket_p50_us = e2e
            .iter()
            .find(|m| m.0 == "match_p50_ms")
            .map_or(0.0, |m| m.1)
            * 1e3;
        let overhead = socket_p50_us
            - get("service.lookup_us")
            - (get("proto.frame_ns") + get("proto.parse_ns") + get("proto.format_ns")) / 1e3;
        metric(&mut metrics, "event_loop.overhead_us", overhead, "us");
        layer = metrics;
    }

    // Durability: battery, kill, restart, compare, probe every name.
    // write_mix first checkpoints and then logs a fixed tail of ADDs, so
    // every run recovers the same image-plus-tail work.
    if write {
        let rep = c0.call("COMPACT")?;
        let ok = if rep.starts_with("OK compacted") {
            Ok(())
        } else {
            Err("COMPACT failed".to_owned())
        };
        tally.check(ok, "COMPACT", &rep);
        for _ in 0..plan.wal_tail {
            let fresh = add_source.next();
            let line = add_line(&fresh);
            let sent = ns_since(clock);
            let reply = c0.call(&line)?;
            let a = AddSent {
                fresh,
                line,
                due: sent,
                sent,
                done: ns_since(clock),
                reply,
            };
            check_add(&reg, n0 + adds_sent.len() as u32, &a, &mut tally);
            adds_sent.push(a);
        }
    }
    // The battery opens with one fixed query, the first answer each
    // restart waits for, so `recover_s` does not vary with the seed's
    // query cost.
    let battery: Vec<String> = std::iter::once(RECOVERY_PROBE.to_owned())
        .chain(
            pool_lines
                .iter()
                .take(plan.battery - 1)
                .map(|l| l.replacen(" - ", " scan ", 1)),
        )
        .collect();
    let before: Vec<String> = c0
        .pipeline(&battery, plan.battery, clock)?
        .into_iter()
        .map(|t| t.reply)
        .collect();
    for (line, reply) in battery.iter().zip(&before) {
        let parsed = match oracle::parse_reply(reply) {
            oracle::Reply::Ids { .. } => Ok(()),
            _ => Err("battery query did not answer".to_owned()),
        };
        tally.check(parsed, line, reply);
    }
    let snap = dir.join("snap.img");
    if !write {
        let line = format!("SAVE {}", snap.display());
        let rep = c0.call(&line)?;
        let ok = if rep.starts_with("OK") {
            Ok(())
        } else {
            Err("SAVE failed".to_owned())
        };
        tally.check(ok, &line, &rep);
    }
    metric(&mut e2e, "rss_mb", d.peak_rss_mb()?, "MiB");
    drop(c0);
    let restart_flags = if write {
        wal_flags(&dir)
    } else {
        vec!["--snapshot".to_owned(), snap.display().to_string()]
    };
    let mut d = d;
    let mut recover_s = Vec::new();
    for r in 0..plan.recoveries {
        let t0 = Instant::now();
        d.kill();
        d = Daemon::spawn(
            &args.daemon,
            &restart_flags,
            &dir.join(format!("restart{r}.log")),
        )?;
        let rep = d.connect()?.call(&battery[0])?;
        recover_s.push(t0.elapsed().as_secs_f64());
        tally.check(expect_reply(&rep, &before[0]), &battery[0], &rep);
    }
    let all: Vec<String> = recover_s.iter().map(|r| format!("{:.4}", r)).collect();
    info.push(("recover_s_all".into(), all.join(" ")));
    metric(&mut unbounded, "recover_s", median(recover_s), "s");
    let mut c = d.connect()?;
    let after: Vec<String> = c
        .pipeline(&battery, plan.battery, clock)?
        .into_iter()
        .map(|t| t.reply)
        .collect();
    // The pipeline returns one reply per line, so `after` matches `before`.
    for ((line, was), now) in battery.iter().zip(&before).zip(&after) {
        let same =
            expect_reply(now, was).map_err(|e| format!("battery changed across restart: {e}"));
        tally.check(same, line, now);
    }

    // Every stored name: the corpus plus every acknowledged ADD.
    let mut names: Vec<(u32, Language, String)> = corpus
        .iter()
        .enumerate()
        .map(|(i, c)| (i as u32, c.lang, c.text.clone()))
        .collect();
    for (k, a) in adds_sent.iter().enumerate() {
        let lang = a
            .fresh
            .lang
            .or_else(|| gen::resolve_add(&reg, &a.fresh.text));
        if let (Some(l), true) = (lang, a.reply.starts_with("OK")) {
            names.push((n0 + k as u32, l, a.fresh.text.clone()));
        }
    }
    let user_bytes: usize = names.iter().map(|(_, _, t)| t.len()).sum();
    let disk = if write {
        let rep = c.call("COMPACT")?;
        let ok = if rep.starts_with("OK compacted") {
            Ok(())
        } else {
            Err("COMPACT failed".to_owned())
        };
        tally.check(ok, "COMPACT", &rep);
        stat(&rep, "wal_bytes_live").unwrap_or(0) + file_len(&dir.join("wal.checkpoint"))?
    } else {
        file_len(&snap)?
    };
    metric(
        &mut e2e,
        "disk_bytes_per_user_byte",
        disk as f64 / user_bytes as f64,
        "ratio",
    );
    if faults.drop_acked {
        let phantom = FreshGen::adds(&bases, &stored, args.seed ^ 0xFFFF).next();
        let lang = phantom
            .lang
            .or_else(|| gen::resolve_add(&reg, &phantom.text));
        names.push((
            n0 + adds_sent.len() as u32,
            lang.unwrap_or(Language::English),
            phantom.text,
        ));
    }
    let rep = c.call("BUILD PHONIDX")?;
    tally.check(
        expect_reply(&rep, "OK built=phonidx"),
        "BUILD PHONIDX",
        &rep,
    );
    let probes: Vec<String> = names
        .iter()
        .map(|(_, l, t)| format!("MATCH {} phonidx 0 {t}", code(*l)))
        .collect();
    let replies: Vec<String> = c
        .pipeline(&probes, PIPELINE_DEPTH, clock)?
        .into_iter()
        .map(|t| t.reply)
        .collect();
    for (((id, _, _), probe), reply) in names.iter().zip(&probes).zip(&replies) {
        tally.check(oracle::check_present(*id, reply), probe, reply);
    }
    drop(c);
    d.kill();
    info.push((
        "cpu_keeper".into(),
        if keeper.stop() {
            "idle-priority"
        } else {
            "refused"
        }
        .into(),
    ));

    let failed = tally.failed as f64;
    info.push((
        "fail_ratio".into(),
        format!(
            "{} ({}/{})",
            failed / tally.attempted.max(1) as f64,
            tally.failed,
            tally.attempted
        ),
    ));
    if args.trace {
        layer.extend(unbounded.iter().cloned());
    }
    Ok(Outcome {
        e2e,
        unbounded,
        layer,
        tally,
        info,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(ms: &[trace::Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn nproc() -> String {
    std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_owned(), |s| s.trim().to_owned())
}

fn report(args: &Args, out: &Outcome) -> Result<(), String> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("commit", args.commit.clone()),
        ("nproc", nproc()),
        ("available_parallelism", parallelism.to_string()),
    ];
    for (k, v) in &provenance {
        println!("{k}: {v}");
    }
    for (k, v) in &out.info {
        println!("{k}: {v}");
    }
    let unbounded: &[trace::Metric] = if args.trace { &[] } else { &out.unbounded };
    for (n, v, u) in out.e2e.iter().chain(unbounded).chain(&out.layer) {
        println!("metric {n} = {v} {u}");
    }
    for note in &out.tally.notes {
        println!("FAIL {note}");
    }
    let correct = out.tally.failed == 0;
    let metrics = json_metrics(if args.trace { &out.layer } else { &out.e2e });
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| (*k, v.as_str()))
        .chain(out.info.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let notes: Vec<String> = out.tally.notes.iter().map(|n| json_str(n)).collect();
    let doc = format!(
        "{{\"provenance\": {{{}}}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"end_to_end\": {}, \"unbounded\": {}, \"per_layer\": {}, \"benchmark\": {}}}\n",
        fields.join(", "),
        out.tally.attempted,
        out.tally.failed,
        notes.join(", "),
        json_metrics(&out.e2e),
        json_metrics(&out.unbounded),
        json_metrics(&out.layer),
        PROVENANCE.trim(),
    );
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.tally.attempted, out.tally.failed
    );
    Ok(())
}

/// Small runs of every workload, then the two injected faults.
fn self_test(args: &Args) -> bool {
    let plan = Plan::small();
    let mut all = true;
    let mut case = |name: &str, workload: &str, faults: Faults, pass: &dyn Fn(&Outcome) -> bool| {
        let a = Args {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 1.0,
            trace: true,
            daemon: args.daemon.clone(),
            out: args.out.clone(),
            commit: args.commit.clone(),
            self_test: true,
        };
        let ok = match run(&a, &plan, faults) {
            Ok(out) => {
                let ok = pass(&out);
                if !ok || out.tally.failed > 0 {
                    for n in &out.tally.notes {
                        println!("  note: {n}");
                    }
                }
                ok
            }
            Err(e) => {
                println!("  error: {e}");
                false
            }
        };
        println!("{} {name}", if ok { "PASS" } else { "FAIL" });
        all &= ok;
    };
    for wl in WORKLOADS {
        case(
            &format!("{wl} runs end to end"),
            wl,
            Faults::default(),
            &|o| o.tally.failed == 0 && o.e2e.len() == 5 && !o.layer.is_empty(),
        );
    }
    let tampered = Faults {
        tamper_reply: true,
        ..Faults::default()
    };
    case(
        "oracle flags a tampered reply",
        "paper_match",
        tampered,
        &|o| o.tally.failed == 1 && o.tally.notes.iter().any(|n| n.contains("ids differ")),
    );
    let dropped = Faults {
        drop_acked: true,
        ..Faults::default()
    };
    case(
        "durability check flags a dropped acked ADD",
        "write_mix",
        dropped,
        &|o| o.tally.failed == 1 && o.tally.notes.iter().any(|n| n.contains("durability")),
    );
    all
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if args.self_test {
        return if self_test(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match run(&args, &Plan::full(), Faults::default()).and_then(|out| report(&args, &out)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
