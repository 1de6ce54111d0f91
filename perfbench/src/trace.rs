//! The traced run: the workload's own requests replayed in-process
//! through each layer's public functions, with spans kept in memory.
//!
//! Each request is one tree of spans (name, start, end, parent, request
//! id). The request tree runs the layers serially on one thread and one
//! unsharded store, so a layer's self time is the work it does for that
//! request. The shard fan-out, the real `MatchService`, the access paths
//! the workload does not use and the WAL/recovery cycle are measured
//! beside the tree on the same requests.

use crate::gen::Entry;
use lexequal::store::NameEntry;
use lexequal::{BatchVerifier, MatchConfig, NameStore, PhonemeString, Route, Router};
use lexequal::{QgramMode, ScriptProfile, SearchMethod};
use lexequal_service::metrics::method_name;
use lexequal_service::proto::{format_outcome, parse_request, Request};
use lexequal_service::repl::CompactionPolicy;
use lexequal_service::{
    mmapstore, BuildSpec, LineFramer, MatchOutcome, MatchService, Op, Replicator, ServiceConfig,
    TransformCache, Wal, WalMetrics,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const ROOT: u32 = u32::MAX;

/// Untraced/traced replay pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

#[derive(Clone, Debug)]
pub struct Span {
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// In-memory span recorder; off, it records nothing and costs two
/// branches per span.
pub struct Tracer {
    on: bool,
    clock: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            clock: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span {
            parent,
            req,
            name,
            start: self.clock.elapsed().as_nanos() as u64,
            end: 0,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize].end = self.clock.elapsed().as_nanos() as u64;
        }
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// What the traced run replays.
pub struct Input<'a> {
    pub config: &'a MatchConfig,
    pub corpus: &'a [Entry],
    pub shards: usize,
    pub cache_capacity: usize,
    /// Access path the workload builds on the daemon, if any.
    pub build: Option<BuildSpec>,
    /// MATCH lines replayed under spans.
    pub matches: &'a [String],
    /// MATCH lines replayed first, untimed, so caches hold what the
    /// daemon's would.
    pub warm: &'a [String],
    /// ADD lines replayed under spans, through the WAL.
    pub adds: &'a [String],
    /// Scratch directory for the WAL and checkpoint.
    pub dir: &'a Path,
    /// Where the spans are written.
    pub spans_out: PathBuf,
}

/// One per-layer metric.
pub type Metric = (String, f64, &'static str);

fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_owned(), value, unit));
}

/// The corpus as store entries, phonemes already transformed.
pub fn entries(corpus: &[Entry]) -> Vec<NameEntry> {
    corpus
        .iter()
        .map(|c| NameEntry {
            text: c.text.clone(),
            language: c.lang,
            phonemes: c.phon.clone(),
        })
        .collect()
}

/// Build the access path `spec` names on one unsharded store.
fn build_path(store: &mut NameStore, spec: BuildSpec) {
    match spec {
        BuildSpec::Qgram { q, mode } => store.build_qgram(q, mode),
        BuildSpec::PhoneticIndex => store.build_phonetic_index(),
        BuildSpec::BkTree => store.build_bktree(),
    }
}

/// The serial request path: proto, route, cache, G2P and the store's
/// batched search on one unsharded store.
struct Serial<'a> {
    config: &'a MatchConfig,
    store: NameStore,
    /// The real service's choice for requests that name no method.
    default_method: SearchMethod,
}

/// Work counted while replaying.
#[derive(Default)]
struct Counts {
    renderings: u64,
}

impl Serial<'_> {
    /// Route, then cached transform under each routed language; returns
    /// the distinct renderings or the outcome that ends the request.
    fn renderings(
        &self,
        text: &str,
        lang: Option<lexequal::Language>,
        cache: &TransformCache,
        tr: &mut Tracer,
        root: u32,
        req: u32,
    ) -> Result<Vec<PhonemeString>, MatchOutcome> {
        let reg = &self.config.registry;
        let langs = match lang {
            Some(l) if !reg.supports(l) => return Err(MatchOutcome::NoResource(l)),
            Some(l) => vec![l],
            None => {
                let s = tr.open("g2p.route", root, req);
                let route = Router::route(&ScriptProfile::of(text));
                tr.close(s);
                match route {
                    Route::Single(l) if reg.supports(l) => vec![l],
                    Route::Single(l) | Route::NoResource(l) => {
                        return Err(MatchOutcome::NoResource(l))
                    }
                    Route::FanOut(set) => {
                        set.iter().copied().filter(|l| reg.supports(*l)).collect()
                    }
                    Route::Unsupported(_) | Route::NoLetters => Vec::new(),
                }
            }
        };
        let mut out: Vec<PhonemeString> = Vec::with_capacity(langs.len());
        for l in langs {
            let s = tr.open("cache.lookup", root, req);
            let hit = cache.get(text, l);
            tr.close(s);
            let q = match hit {
                Some(q) => q,
                None => {
                    let s = tr.open("g2p.transform", root, req);
                    let q = reg.transform(text, l);
                    if let Ok(q) = &q {
                        cache.insert(text, l, q.clone());
                    }
                    tr.close(s);
                    match q {
                        Ok(q) => q,
                        Err(_) => continue,
                    }
                }
            };
            if !out.contains(&q) {
                out.push(q);
            }
        }
        if out.is_empty() {
            return Err(MatchOutcome::BadInput("no rendering".to_owned()));
        }
        Ok(out)
    }

    fn replay_match(
        &self,
        line: &str,
        cache: &TransformCache,
        bv: &mut BatchVerifier,
        tr: &mut Tracer,
        counts: &mut Counts,
        req: u32,
    ) -> String {
        let root = tr.open("request.match", ROOT, req);
        let (text, lang, method, threshold) = match serial_frame(tr, line, root, req) {
            Some(Request::Match(m)) => (m.text, Some(m.language), m.method, m.threshold),
            Some(Request::MatchAuto(m)) => (m.text, None, m.method, m.threshold),
            _ => panic!("replayed line is not a MATCH: {line}"),
        };
        let method = method.unwrap_or(self.default_method);
        let e = threshold.unwrap_or(self.config.threshold);
        let outcome = match self.renderings(&text, lang, cache, tr, root, req) {
            Err(o) => o,
            Ok(queries) => {
                counts.renderings += queries.len() as u64;
                let mut ids = Vec::new();
                let mut verifications = 0;
                for q in &queries {
                    let s = tr.open("store.search", root, req);
                    let r = self.store.search_phonemes_batched(q, e, method, bv);
                    tr.close(s);
                    ids.extend(r.ids);
                    verifications += r.verifications;
                }
                ids.sort_unstable();
                ids.dedup();
                MatchOutcome::Matches {
                    method,
                    threshold: e,
                    ids,
                    verifications,
                }
            }
        };
        let s = tr.open("proto.format", root, req);
        let reply = format_outcome(&outcome);
        tr.close(s);
        tr.close(root);
        reply
    }
}

fn sum_by_name(tr: &Tracer, selfs: &[u64]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    // name -> (count, total self ns, total duration ns)
    let mut by: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in tr.spans.iter().zip(selfs) {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
        e.2 += s.end - s.start;
    }
    by
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        v[v.len() / 2]
    }
}

/// Replay every input and derive the per-layer metrics. Also returns
/// the replayed MATCH replies, for agreement with the daemon's.
pub fn run(input: &Input) -> Result<(Vec<Metric>, Vec<String>), String> {
    let config = input.config;
    let mut out: Vec<Metric> = Vec::new();

    // The real service (daemon shard count and cache): it picks the
    // default access path, and its lookups and fan-out are timed below.
    let service = MatchService::new(ServiceConfig {
        match_config: config.clone(),
        shards: input.shards,
        cache_capacity: input.cache_capacity,
    });
    service.extend_transformed(entries(input.corpus));
    if let Some(spec) = input.build {
        service.build(spec);
    }
    let method = service.default_method();

    // The unsharded store of the request tree, with the same build.
    let mut store = NameStore::new(config.clone());
    store.extend_transformed(entries(input.corpus));
    if let Some(spec) = input.build {
        build_path(&mut store, spec);
    }
    let serial = Serial {
        config,
        store,
        default_method: method,
    };

    // Untraced and traced replays of the same lines, alternating, each
    // on an equally warmed cache: the median difference of a pair is the
    // tracing overhead.
    let mut replies = Vec::new();
    let mut overheads = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut counts = Counts::default();
    let mut bv = BatchVerifier::new();
    for _ in 0..OVERHEAD_PAIRS {
        let mut elapsed = [0.0f64; 2];
        for (pass, on) in [false, true].into_iter().enumerate() {
            let cache = TransformCache::new(input.cache_capacity);
            let mut scratch = Tracer::new(false);
            let mut ignore = Counts::default();
            for line in input.warm {
                serial.replay_match(line, &cache, &mut bv, &mut scratch, &mut ignore, 0);
            }
            let mut tr = Tracer::new(on);
            let mut c = Counts::default();
            let t = Instant::now();
            let r: Vec<String> = input
                .matches
                .iter()
                .enumerate()
                .map(|(i, line)| {
                    serial.replay_match(line, &cache, &mut bv, &mut tr, &mut c, i as u32)
                })
                .collect();
            elapsed[pass] = t.elapsed().as_secs_f64();
            if on {
                tracer = tr;
                counts = c;
                replies = r;
            }
        }
        overheads.push(100.0 * ratio(elapsed[1] - elapsed[0], elapsed[0]));
    }
    push(&mut out, "trace.overhead_pct", median(&mut overheads), "%");

    let selfs = tracer.self_times();
    let by = sum_by_name(&tracer, &selfs);
    let get = |n: &str| by.get(n).copied().unwrap_or_default();
    let mean_self = |n: &str| {
        let (c, s, _) = get(n);
        ratio(s as f64, c as f64)
    };
    let request_ns = get("request.match").2 as f64;
    let self_of = |names: &[&str]| names.iter().map(|n| get(n).1 as f64).sum::<f64>();
    push(&mut out, "proto.frame_ns", mean_self("proto.frame"), "ns");
    push(&mut out, "proto.parse_ns", mean_self("proto.parse"), "ns");
    push(&mut out, "proto.format_ns", mean_self("proto.format"), "ns");
    push(
        &mut out,
        "cache.lookup_us",
        mean_self("cache.lookup") / 1e3,
        "us",
    );
    push(
        &mut out,
        "g2p.renderings_per_query",
        ratio(counts.renderings as f64, input.matches.len() as f64),
        "count",
    );
    push(
        &mut out,
        "share.store_verify",
        ratio(self_of(&["store.search"]), request_ns),
        "ratio",
    );
    push(
        &mut out,
        "share.g2p_cache_proto",
        ratio(
            self_of(&[
                "g2p.route",
                "g2p.transform",
                "cache.lookup",
                "proto.frame",
                "proto.parse",
                "proto.format",
            ]),
            request_ns,
        ),
        "ratio",
    );
    push(
        &mut out,
        "request.match_us",
        ratio(request_ns, get("request.match").0 as f64) / 1e3,
        "us",
    );

    // G2P probes on the replayed texts: uncached transform and route.
    let texts: Vec<(String, Option<lexequal::Language>)> = input
        .matches
        .iter()
        .filter_map(|l| match parse_request(l).ok().flatten() {
            Some(Request::Match(m)) => Some((m.text, Some(m.language))),
            Some(Request::MatchAuto(m)) => Some((m.text, None)),
            _ => None,
        })
        .collect();
    let reg = &config.registry;
    let (mut route_ns, mut n_route) = (0u128, 0u128);
    let (mut xf_ns, mut n_xf) = (0u128, 0u128);
    for (text, lang) in &texts {
        let t = Instant::now();
        let route = std::hint::black_box(Router::route(&ScriptProfile::of(text)));
        route_ns += t.elapsed().as_nanos();
        n_route += 1;
        let langs = match (lang, route) {
            (Some(l), _) => vec![*l],
            (None, Route::Single(l)) => vec![l],
            (None, Route::FanOut(set)) => set.to_vec(),
            _ => Vec::new(),
        };
        for l in langs.into_iter().filter(|l| reg.supports(*l)) {
            let t = Instant::now();
            let _ = std::hint::black_box(reg.transform(text, l));
            xf_ns += t.elapsed().as_nanos();
            n_xf += 1;
        }
    }
    push(
        &mut out,
        "g2p.route_ns",
        ratio(route_ns as f64, n_route as f64),
        "ns",
    );
    push(
        &mut out,
        "g2p.transform_us",
        ratio(xf_ns as f64, n_xf as f64) / 1e3,
        "us",
    );

    // The real service on the same lines, its shard fan-out, and
    // per-shard replays for skew.
    let lookup = |line: &str| match parse_request(line).ok().flatten() {
        Some(Request::Match(m)) => service.lookup(&m),
        Some(Request::MatchAuto(m)) => service.lookup_auto(&m),
        _ => panic!("replayed line is not a MATCH: {line}"),
    };
    for line in input.warm {
        lookup(line);
    }
    let mut lookup_us: Vec<f64> = input
        .matches
        .iter()
        .map(|line| {
            let t = Instant::now();
            std::hint::black_box(lookup(line));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    push(&mut out, "service.lookup_us", median(&mut lookup_us), "us");

    let all = entries(input.corpus);
    let parts: Vec<NameStore> = (0..input.shards)
        .map(|s| {
            let mut part = NameStore::new(config.clone());
            part.extend_transformed(all.iter().skip(s).step_by(input.shards).cloned().collect());
            if let Some(spec) = input.build {
                build_path(&mut part, spec);
            }
            part
        })
        .collect();
    let queries: Vec<(PhonemeString, f64)> = input
        .matches
        .iter()
        .filter_map(|l| match parse_request(l).ok().flatten() {
            Some(Request::Match(m)) => reg
                .transform(&m.text, m.language)
                .ok()
                .map(|q| (q, m.threshold.unwrap_or(config.threshold))),
            Some(Request::MatchAuto(m)) => {
                let langs = crate::gen::route(reg, &m.text, None).ok()?;
                let q = langs.iter().find_map(|l| reg.transform(&m.text, *l).ok())?;
                Some((q, m.threshold.unwrap_or(config.threshold)))
            }
            _ => None,
        })
        .collect();
    let (mut fan_ns, mut skew_ns) = (0f64, 0f64);
    for (q, e) in &queries {
        let t = Instant::now();
        std::hint::black_box(service.store().begin_search(q, *e, method).merge());
        fan_ns += t.elapsed().as_nanos() as f64;
        let times: Vec<f64> = parts
            .iter()
            .map(|p| {
                let t = Instant::now();
                std::hint::black_box(p.search_phonemes_batched(q, *e, method, &mut bv));
                t.elapsed().as_nanos() as f64
            })
            .collect();
        let (lo, hi) = times
            .iter()
            .fold((f64::MAX, 0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        skew_ns += hi - lo;
    }
    let nq = queries.len() as f64;
    push(&mut out, "shard.search_us", ratio(fan_ns, nq) / 1e3, "us");
    push(&mut out, "shard.skew_us", ratio(skew_ns, nq) / 1e3, "us");

    // Every access path on the same queries (unsharded): search time,
    // work per hit, share of the corpus verified, and build time.
    let mut probe = serial.store;
    let sample = &queries[..queries.len().min(64)];
    let corpus_len = probe.len() as f64;
    for m in [
        SearchMethod::Scan,
        SearchMethod::Qgram,
        SearchMethod::PhoneticIndex,
        SearchMethod::BkTree,
    ] {
        let name = method_name(m);
        let t = Instant::now();
        match m {
            SearchMethod::Scan => {}
            SearchMethod::Qgram => probe.build_qgram(3, QgramMode::Strict),
            SearchMethod::PhoneticIndex => probe.build_phonetic_index(),
            SearchMethod::BkTree => probe.build_bktree(),
        }
        if m != SearchMethod::Scan {
            push(
                &mut out,
                &format!("store.build_ms.{name}"),
                t.elapsed().as_secs_f64() * 1e3,
                "ms",
            );
        }
        let (mut ns, mut verified, mut hits) = (0f64, 0f64, 0f64);
        for (q, e) in sample {
            let t = Instant::now();
            let r = probe.search_phonemes_batched(q, *e, m, &mut bv);
            ns += t.elapsed().as_nanos() as f64;
            verified += r.verifications as f64;
            hits += r.ids.len() as f64;
        }
        let n = sample.len() as f64;
        if m == SearchMethod::Scan {
            // The scan generates no candidates of its own: its time is
            // the batched verifier's, pair by pair.
            push(&mut out, "verify.pair_ns", ratio(ns, verified), "ns");
        }
        push(
            &mut out,
            &format!("store.search_us.{name}"),
            ratio(ns, n) / 1e3,
            "us",
        );
        push(
            &mut out,
            &format!("store.verified_per_hit.{name}"),
            ratio(verified, hits.max(1.0)),
            "ratio",
        );
        push(
            &mut out,
            &format!("store.candidate_ratio.{name}"),
            ratio(verified, n * corpus_len),
            "ratio",
        );
    }

    // ADDs through the commit path: cached transform, WAL append
    // (fsynced), shard append; then compaction and recovery.
    let wal_path = input.dir.join("trace.wal");
    let metrics = Arc::new(WalMetrics::default());
    let (mut wal, _) = Wal::open(&wal_path, 0, Arc::clone(&metrics)).map_err(|e| e.to_string())?;
    let before = wal.live_bytes();
    let cache = service.cache();
    let first_req = input.matches.len() as u32;
    for (i, line) in input.adds.iter().enumerate() {
        let req = first_req + i as u32;
        let root = tracer.open("request.add", ROOT, req);
        let (text, lang) = match serial_frame(&mut tracer, line, root, req) {
            Some(Request::Add { language, text }) => (text, Some(language)),
            Some(Request::AddAuto { text }) => (text, None),
            _ => panic!("replayed line is not an ADD: {line}"),
        };
        let langs = match lang {
            Some(l) => vec![l],
            None => {
                let s = tracer.open("g2p.route", root, req);
                let langs = crate::gen::route(reg, &text, None).unwrap_or_default();
                tracer.close(s);
                langs
            }
        };
        let mut entry = None;
        for l in langs {
            let s = tracer.open("cache.lookup", root, req);
            let hit = cache.get(&text, l);
            tracer.close(s);
            let q = match hit {
                Some(q) => Ok(q),
                None => {
                    let s = tracer.open("g2p.transform", root, req);
                    let q = reg.transform(&text, l);
                    if let Ok(q) = &q {
                        cache.insert(&text, l, q.clone());
                    }
                    tracer.close(s);
                    q
                }
            };
            if let Ok(phonemes) = q {
                entry = Some(NameEntry {
                    text: text.clone(),
                    language: l,
                    phonemes,
                });
                break;
            }
        }
        let entry = entry.ok_or_else(|| format!("ADD does not transform: {line}"))?;
        let s = tracer.open("wal.append", root, req);
        wal.append(&Op::Add {
            language: entry.language,
            text: entry.text.clone(),
        })
        .map_err(|e| e.to_string())?;
        tracer.close(s);
        let s = tracer.open("service.apply", root, req);
        let id = service.apply_entry(entry);
        tracer.close(s);
        let s = tracer.open("proto.format", root, req);
        std::hint::black_box(format!("OK {id}"));
        tracer.close(s);
        tracer.close(root);
    }
    let adds = input.adds.len() as f64;
    let selfs = tracer.self_times();
    let by = sum_by_name(&tracer, &selfs);
    let get = |n: &str| by.get(n).copied().unwrap_or_default();
    let wal_self = get("wal.append").1 as f64;
    push(&mut out, "wal.append_us", ratio(wal_self, adds) / 1e3, "us");
    push(
        &mut out,
        "wal.bytes_per_add",
        ratio((wal.live_bytes() - before) as f64, adds),
        "bytes",
    );
    push(
        &mut out,
        "share.wal_of_add",
        ratio(wal_self, get("request.add").2 as f64),
        "ratio",
    );

    // Replay of the uncompacted log into an empty service.
    let copy = input.dir.join("trace-copy.wal");
    std::fs::copy(&wal_path, &copy).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let (_, tail) =
        Wal::open(&copy, 0, Arc::new(WalMetrics::default())).map_err(|e| e.to_string())?;
    let replayed = MatchService::new(ServiceConfig {
        match_config: config.clone(),
        shards: input.shards,
        cache_capacity: input.cache_capacity,
    });
    for rec in &tail {
        replayed.apply_op(&rec.op).map_err(|e| format!("{e:?}"))?;
    }
    push(
        &mut out,
        "wal.replay_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );

    // Checkpoint-and-truncate, then load the checkpoint image.
    let checkpoint = input.dir.join("trace.checkpoint");
    let repl = Replicator::new(wal, metrics);
    repl.set_compaction_policy(CompactionPolicy {
        checkpoint: Some(checkpoint.clone()),
        ..CompactionPolicy::default()
    });
    let t = Instant::now();
    repl.compact(&service)?;
    push(
        &mut out,
        "wal.compact_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let t = Instant::now();
    let loaded =
        mmapstore::load_file(config.clone(), None, &checkpoint).map_err(|e| e.to_string())?;
    push(
        &mut out,
        "mmapstore.load_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let image = std::fs::metadata(&checkpoint)
        .map_err(|e| e.to_string())?
        .len() as f64;
    push(
        &mut out,
        "mmapstore.image_bytes_per_name",
        ratio(image, service.len() as f64),
        "bytes",
    );
    drop(loaded);
    repl.stop_and_join();

    tracer
        .write_tsv(&input.spans_out)
        .map_err(|e| format!("write {}: {e}", input.spans_out.display()))?;
    Ok((out, replies))
}

fn serial_frame(tr: &mut Tracer, line: &str, root: u32, req: u32) -> Option<Request> {
    let s = tr.open("proto.frame", root, req);
    let mut framer = LineFramer::new(64 * 1024);
    framer.push(line.as_bytes());
    framer.push(b"\n");
    let framed = framer.next_line().ok().flatten();
    tr.close(s);
    let s = tr.open("proto.parse", root, req);
    let parsed = framed.and_then(|l| parse_request(&l).ok().flatten());
    tr.close(s);
    parsed
}
