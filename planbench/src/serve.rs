//! The `serve-mix` workload: `mjoin_serve::Server` with
//! `mjoin_cli::MjoinEngine` on loopback, warm-started from a store that
//! set-up writes, driven by two closed-loop client connections sending a
//! seeded Zipf mix of `optimize`, `query` and `execute`.
//!
//! Each request's database text starts with a `# planbench request N`
//! comment. The program ignores it (comments never reach the parsed
//! database or its fingerprint); the traced engine wrapper reads it to
//! tag its spans with the request id the client's span carries.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mjoin_cli::MjoinEngine;
use mjoin_obs::Json;
use mjoin_serve::{Engine, EngineRequest, EngineResponse, ServeConfig, Server};

use crate::check::{check, Answer};
use crate::cli::{independent_best, repeat_setup, replay, report_counters, run_request};
use crate::corpus::{Corpus, Op, Request, Rng};
use crate::report::{Layers, Outcome, Settings, Tally};
use crate::stats::quantile;
use crate::trace::{Span, Trace};

/// Plan-cache capacity: under the 26 cacheable distinct requests.
const CACHE_CAP: usize = 20;
/// Requests the set-up store holds (the most popular `optimize`s).
const STORE_ENTRIES: usize = 8;
/// Client connections (= planner threads available on the reference host).
const CLIENTS: u64 = 2;
/// Engine-executed requests the traced run replays in process, spread in
/// proportion to how often the daemon executed each one.
const REPLAYS: f64 = 120.0;
/// Completed requests per window that throughput and the median are
/// taken over (about half a second of traffic).
const WINDOW: usize = 300;
/// Run-report reads made while the daemon serves, to show counter bleed.
const BLEED_PROBES: usize = 10;

const ID_PREFIX: &str = "# planbench request ";

fn escape(s: &str) -> String {
    let q = Json::Str(s.to_string()).to_compact_string();
    q[1..q.len() - 1].to_string()
}

/// The engine the daemon runs in the traced run: `MjoinEngine`, with a
/// span around each `fingerprint` and `handle` call.
struct TracedEngine {
    inner: MjoinEngine,
    trace: Arc<Trace>,
}

fn request_id(req: &EngineRequest) -> u64 {
    req.db
        .strip_prefix(ID_PREFIX)
        .and_then(|r| r.split('\n').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

impl Engine for TracedEngine {
    fn handle(&self, req: &EngineRequest) -> Result<EngineResponse, mjoin::MjoinError> {
        self.trace.time(request_id(req), "serve.engine", None, || {
            self.inner.handle(req)
        })
    }

    fn fingerprint(&self, req: &EngineRequest) -> Option<String> {
        self.trace
            .time(request_id(req), "serve.fingerprint", None, || {
                self.inner.fingerprint(req)
            })
    }
}

/// One distinct request as the client sends it.
struct Wire {
    /// The JSON line up to the request id inside the `db` field.
    head: String,
    /// The rest of the line after the id.
    tail: String,
    /// The `"output":"…"` fragment a correct response carries.
    expected: String,
}

impl Wire {
    fn new(corpus: &Corpus, r: &Request, expected_output: &str) -> Result<Wire, String> {
        let db = escape(&corpus.read(&r.db)?);
        let mut tail = format!("\\n{db}\",\"op\":\"{}\"", r.op.name());
        if let Some(sql) = &r.sql {
            tail.push_str(&format!(",\"query\":\"{}\"", escape(&corpus.read(sql)?)));
        }
        if let Some(space) = &r.space {
            tail.push_str(&format!(",\"space\":\"{space}\""));
        }
        tail.push_str("}\n");
        Ok(Wire {
            head: format!("{{\"db\":\"{}", escape(ID_PREFIX)),
            tail,
            expected: format!("\"output\":\"{}\"", escape(expected_output)),
        })
    }

    fn line(&self, id: u64) -> String {
        format!("{}{id}{}", self.head, self.tail)
    }
}

struct Prepared {
    corpus: Corpus,
    reqs: Vec<Request>,
    wires: Vec<Wire>,
    answers: Vec<Option<Answer>>,
    best: Vec<Option<u64>>,
    failures: Vec<String>,
    server: Server,
    store_load_ms: f64,
    store_bytes: f64,
}

fn prepare(s: &Settings, trace: &Arc<Trace>) -> Result<Prepared, String> {
    let corpus = Corpus::build(&s.root, s.seed)?;
    let reqs = corpus.workload("serve-mix").to_vec();
    let mut failures = Vec::new();
    let mut wires = Vec::new();
    let mut answers = Vec::new();
    let mut best = Vec::new();
    let mut outputs = Vec::new();
    for r in &reqs {
        // Served bytes must equal the CLI's bytes for the same request.
        let out = run_request(&corpus, r, &[]).unwrap_or_else(|e| {
            failures.push(format!("{}: {e}", r.label));
            String::new()
        });
        if let Some(g) = &r.golden {
            if corpus.read(g).as_deref() != Ok(out.as_str()) {
                failures.push(format!("{}: output differs from {g}", r.label));
            }
        }
        let answer = check(&corpus, r, &out).map_err(|e| failures.push(e)).ok();
        let b = independent_best(&corpus, r).unwrap_or(None);
        if let (Some(a), Some(b)) = (&answer, b) {
            if a.optimal && a.derived != Some(b) {
                failures.push(format!(
                    "{}: τ {:?} but the independent optimum is {b}",
                    r.label, a.derived
                ));
            }
        }
        best.push(b.or(answer.as_ref().and_then(|a| a.derived)));
        answers.push(answer);
        wires.push(Wire::new(&corpus, r, &out)?);
        outputs.push(out);
    }
    // The warm-start store: the CLI's answers to the most popular
    // optimizes, keyed as the daemon keys them, written in one save.
    let store = s
        .out_dir
        .join(format!("serve-mix-{}.store", std::process::id()));
    let mut entries = Vec::new();
    for (i, r) in reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.op == Op::Optimize)
        .take(STORE_ENTRIES)
    {
        let (Some(a), Ok(text)) = (&answers[i], corpus.read(&r.db)) else {
            continue;
        };
        let db = mjoin_cli::parse_input(&text)
            .map_err(|e| e.to_string())?
            .database;
        let fp = mjoin::optimize_fingerprint(&db, r.space.as_deref(), None, None, None, r.threads);
        entries.push(mjoin::StoreEntry::response_only(
            fp,
            a.tau.unwrap_or(u64::MAX),
            outputs[i].clone(),
        ));
    }
    mjoin_store::save(&store, &entries).map_err(|e| format!("store: {e}"))?;
    let t = Instant::now();
    let loaded = mjoin::LoadedStore::open(&store).map_err(|e| format!("store: {e}"))?;
    let store_load_ms = t.elapsed().as_secs_f64() * 1e3;
    let store_bytes = loaded.file_len() as f64;
    drop(loaded);
    let config = ServeConfig {
        workers: 2,
        cache_cap: CACHE_CAP,
        store_path: Some(store.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let engine: Box<dyn Engine> = if s.trace {
        Box::new(TracedEngine {
            inner: MjoinEngine { threads: 1 },
            trace: Arc::clone(trace),
        })
    } else {
        Box::new(MjoinEngine { threads: 1 })
    };
    let server = Server::spawn(config, engine).map_err(|e| format!("serve: {e}"))?;
    Ok(Prepared {
        corpus,
        reqs,
        wires,
        answers,
        best,
        failures,
        server,
        store_load_ms,
        store_bytes,
    })
}

/// One client's view of one request.
struct Sent {
    req: usize,
    id: u64,
    send_ns: u64,
    recv_ns: u64,
    ok: bool,
    cached: bool,
    error: Option<String>,
}

/// A closed loop on one connection until `until`.
fn client(
    addr: SocketAddr,
    wires: &[Wire],
    cdf: &[f64],
    seed: u64,
    ids: &AtomicU64,
    trace: &Trace,
    until: Instant,
) -> Vec<Sent> {
    let mut sent = Vec::new();
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            sent.push(Sent {
                req: 0,
                id: 0,
                send_ns: 0,
                recv_ns: 0,
                ok: false,
                cached: false,
                error: Some(format!("connect: {e}")),
            });
            return sent;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let mut writer = stream.try_clone().expect("clone a connected socket");
    let mut reader = BufReader::new(stream);
    let mut rng = Rng::new(seed);
    let mut line = String::new();
    while Instant::now() < until {
        let u = rng.unit();
        let req = cdf.partition_point(|&c| c <= u).min(wires.len() - 1);
        let id = ids.fetch_add(1, Ordering::Relaxed);
        let msg = wires[req].line(id);
        line.clear();
        let send_ns = trace.now_ns();
        let io = writer
            .write_all(msg.as_bytes())
            .and_then(|_| reader.read_line(&mut line));
        let recv_ns = trace.now_ns();
        let (ok, error) = match io {
            Ok(0) => (false, Some("connection closed".to_string())),
            Err(e) => (false, Some(format!("io: {e}"))),
            Ok(_) if !line.contains("\"ok\":true") => (false, Some(line.trim().to_string())),
            Ok(_) if !line.contains(&wires[req].expected) => (
                false,
                Some("served output differs from the CLI's".to_string()),
            ),
            Ok(_) => (true, None),
        };
        let cached = line.contains("\"cached\":true");
        let broken =
            matches!(&error, Some(e) if e.starts_with("io") || e.starts_with("connection"));
        sent.push(Sent {
            req,
            id,
            send_ns,
            recv_ns,
            ok,
            cached,
            error,
        });
        if broken {
            break;
        }
    }
    sent
}

/// Runs the workload and returns its outcome.
pub fn run_workload(s: &Settings) -> Result<Outcome, String> {
    let trace = Arc::new(Trace::new());
    let (setup_times, p) = repeat_setup(
        || prepare(s, &trace),
        |old: Prepared| {
            old.server.shutdown();
            old.server.join();
        },
    )?;
    let mut tally = Tally::new(&setup_times);
    for f in &p.failures {
        tally.fail(f.clone());
    }

    let total: f64 = p.reqs.iter().map(|r| r.weight).sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = p
        .reqs
        .iter()
        .map(|r| {
            acc += r.weight / total;
            acc
        })
        .collect();
    let addr = p.server.addr();
    let ids = AtomicU64::new(1);
    let started = Instant::now();
    let seconds = if s.smoke { 0.5 } else { s.seconds };
    let until = started + Duration::from_secs_f64(seconds);
    let bleed_example = p.reqs.iter().position(|r| r.label == "example4/all");
    let (sent, bleed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (wires, cdf, ids, trace) = (&p.wires, &cdf, &ids, &*trace);
                let seed = s.seed.wrapping_mul(31).wrapping_add(c);
                scope.spawn(move || client(addr, wires, cdf, seed, ids, trace, until))
            })
            .collect();
        let mut bleed = Vec::new();
        if s.trace {
            if let Some(i) = bleed_example {
                for k in 0..BLEED_PROBES {
                    std::thread::sleep(Duration::from_secs_f64(
                        seconds / (BLEED_PROBES + 2) as f64,
                    ));
                    bleed.push(report_counters(s, &p.corpus, &p.reqs[i], k));
                }
            }
        }
        let sent: Vec<Sent> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        (sent, bleed)
    });
    let stats = p.server.stats();
    // Windows of WINDOW completions, in completion order; each lasts
    // from the previous window's last completion to its own.
    let mut sent = sent;
    sent.sort_by_key(|x| x.recv_ns);
    let mut window_start = sent.first().map_or(0, |x| x.send_ns);
    for (k, x) in sent.iter().enumerate() {
        let ms = (x.recv_ns.saturating_sub(x.send_ns)) as f64 / 1e6;
        let r = &p.reqs[x.req];
        let answer = match (&x.error, &p.answers[x.req]) {
            (Some(e), _) => Err(format!("{}: {e}", r.label)),
            (None, Some(a)) if x.ok => Ok(a.clone()),
            _ => Err(format!("{}: no checked answer", r.label)),
        };
        tally.record(r, ms, answer, p.best[x.req]);
        if (k + 1) % WINDOW == 0 || (k + 1 == sent.len() && k < WINDOW) {
            tally.end_window(x.recv_ns.saturating_sub(window_start) as f64 / 1e9);
            window_start = x.recv_ns;
        }
    }
    let t = Instant::now();
    p.server.shutdown();
    p.server.join();
    let snapshot_ms = t.elapsed().as_secs_f64() * 1e3;
    if !s.trace {
        return Ok(tally.outcome());
    }

    let mut layers = Layers::default();
    served_layers(
        &mut layers,
        &trace,
        &sent,
        stats.shed,
        stats.cache_evictions,
    );
    layers.serve.insert("store.load.ms", p.store_load_ms);
    layers.serve.insert("store.snapshot.ms", snapshot_ms);
    layers.serve.insert("store.bytes", p.store_bytes);
    if let Some(i) = bleed_example {
        // The same request's counters read alone, with the daemon idle.
        let alone = report_counters(s, &p.corpus, &p.reqs[i], BLEED_PROBES).unwrap_or_default();
        let excess: f64 = bleed
            .iter()
            .flatten()
            .flat_map(|c| {
                c.iter()
                    .map(|(k, v)| (v - alone.get(k).copied().unwrap_or(0.0)).abs())
            })
            .sum();
        layers
            .serve
            .insert("obs.counter_bleed", excess / BLEED_PROBES as f64);
    }

    // The engine's work, split by layer: replay what the daemon executed
    // (cache misses), in proportion, through the layers' functions.
    let mut executed: BTreeMap<usize, u64> = BTreeMap::new();
    let engine_ids: std::collections::BTreeSet<u64> = trace
        .spans()
        .iter()
        .filter(|sp| sp.layer == "serve.engine")
        .map(|sp| sp.request)
        .collect();
    for x in sent.iter().filter(|x| engine_ids.contains(&x.id)) {
        *executed.entry(x.req).or_insert(0) += 1;
    }
    let total_exec: u64 = executed.values().sum();
    let replay_trace = Trace::new();
    let mut next = 0;
    for (&i, &n) in &executed {
        let copies = ((n as f64 / total_exec.max(1) as f64) * REPLAYS).ceil() as u64;
        let r = &p.reqs[i];
        for _ in 0..copies {
            next += 1;
            let t = Instant::now();
            let _ = run_request(&p.corpus, r, &[]);
            layers.untraced_ns += t.elapsed().as_nanos() as u64;
            if let Err(e) = replay(&replay_trace, next, &p.corpus, r, &mut layers) {
                tally.fail(format!("{}: traced replay failed: {e}", r.label));
            }
        }
        match report_counters(s, &p.corpus, r, 0) {
            Ok(c) => layers.add_counters(&c, copies as f64),
            Err(e) => tally.fail(format!("{}: metrics run failed: {e}", r.label)),
        }
    }
    layers.absorb_trace(&replay_trace);
    let mut out = tally.outcome();
    out.metrics = layers.metrics();
    for sp in replay_trace.spans() {
        trace.record(Span {
            request: sp.request + (1 << 40),
            ..sp
        });
    }
    out.trace = Some(trace);
    Ok(out)
}

/// Splits each served request's round trip at the engine wrapper's span
/// boundaries: wire in (send → fingerprint), fingerprint, queue
/// (fingerprint → engine), engine, wire out (→ receive).
fn served_layers(layers: &mut Layers, trace: &Trace, sent: &[Sent], shed: u64, evictions: u64) {
    let mut fp: BTreeMap<u64, Span> = BTreeMap::new();
    let mut engine: BTreeMap<u64, Span> = BTreeMap::new();
    for sp in trace.spans() {
        match sp.layer {
            "serve.fingerprint" => {
                fp.insert(sp.request, sp);
            }
            "serve.engine" => {
                engine.insert(sp.request, sp);
            }
            _ => {}
        }
    }
    let (mut rtt_ns, mut covered_ns, mut fp_ns, mut engine_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut wire_queue = Vec::new();
    let mut hits = 0u64;
    for x in sent {
        let rtt = x.recv_ns.saturating_sub(x.send_ns);
        rtt_ns += rtt;
        hits += u64::from(x.cached);
        let Some(f) = fp.get(&x.id) else { continue };
        let e = engine.get(&x.id);
        let e_ns = e.map_or(0, Span::ns);
        fp_ns += f.ns();
        engine_ns += e_ns;
        wire_queue.push(rtt.saturating_sub(f.ns() + e_ns) as f64 / 1e6);
        // The intervals between the timestamps partition the round trip
        // when every boundary was observed in order.
        let last = e.map_or(f.end_ns, |e| e.end_ns);
        if x.send_ns <= f.start_ns && last <= x.recv_ns {
            covered_ns += rtt;
        }
    }
    let n = sent.len().max(1) as f64;
    let engine_n = engine.len().max(1) as f64;
    let serve = &mut layers.serve;
    serve.insert("serve.fingerprint.ms", fp_ns as f64 / n / 1e6);
    serve.insert("serve.engine.ms", engine_ns as f64 / engine_n / 1e6);
    serve.insert("serve.wire_queue.p50_ms", quantile(&wire_queue, 0.5));
    serve.insert("serve.wire_queue.p99_ms", quantile(&wire_queue, 0.99));
    serve.insert("serve.cache.hit_ratio", hits as f64 / n);
    serve.insert("serve.cache.evictions", evictions as f64 / n);
    serve.insert("serve.shed_ratio", shed as f64 / n);
    serve.insert("coverage", covered_ns as f64 / rtt_ns.max(1) as f64);
    layers.share_scale = Some(engine_ns as f64 / rtt_ns.max(1) as f64);
}
