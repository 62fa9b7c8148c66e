//! `dblp-daemon`: the repository's `grmined` serving a DBLP-like graph
//! to two ordinary closed-loop TCP clients (one per core) in this load
//! generator, with a seeded request mix of ad-hoc queries, repeated
//! mines (cache hits after the first) and cold mines.
//!
//! The clients are deliberately ordinary: Nagle and delayed ACKs are
//! left as the OS sets them, and each client sends one request and
//! waits for its reply before sending the next.

use crate::report::{median, ms, peak_rss_mb, percentile, Outcome};
use crate::trace::{layer_builds, load_traced, miner_layers, trace_summary, write_spans, Tracer};
use crate::{end_to_end, miner_counts, Args, Metrics, SETUPS};
use grm_core::{parse_gr, query, GrMiner, MinerConfig, RankMetric, Service, ServiceConfig};
use grm_graph::{CancelToken, SocialGraph};
use serde::{to_content, Content};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent client connections: one per core of the 2-core target.
const CLIENTS: usize = 2;
/// Requests generated per run; far more than any run sends.
const SEQUENCE_LEN: usize = 1 << 18;
/// Result-cache entries the daemon keeps: more than a run's distinct
/// mine configs, so repeated configs stay hits.
const DAEMON_CACHE: &str = "1024";
/// Repeated mine configs `(min_supp, k)`: misses once, then hits.
const HOT: [(u64, usize); 3] = [(150, 20), (250, 10), (400, 30)];
/// `(min_supp, k)` of every cold mine. Cold mines differ only in
/// `max_lhs` (see [`Req::MineCold`]), so each costs the same however
/// many a run sends.
const COLD: (u64, usize) = (150, 25);
/// The timed phase is served in this many segments. Between them the
/// clients pause while further daemons are started and shut down, so
/// the set-ups are spread through the phase like the requests.
const SEGMENTS: u32 = 10;

/// One request of the seeded sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Req {
    /// Ad-hoc query of GR number `n` of the pool.
    Query(usize),
    /// A mine of a repeated config `(min_supp, k)`.
    MineHot(u64, usize),
    /// A mine of the [`COLD`] config with this `max_lhs`. It is above
    /// the number of node attributes, so it limits nothing and leaves
    /// the work unchanged, but each value is a cache key not sent before.
    MineCold(usize),
}

impl Req {
    fn kind(self) -> &'static str {
        match self {
            Req::Query(_) => "query",
            Req::MineHot(..) => "mine_hot",
            Req::MineCold(..) => "mine_cold",
        }
    }

    fn line(self, id: usize, pool: &[String]) -> String {
        match self {
            Req::Query(n) => format!(
                "{{\"id\":{id},\"type\":\"query\",\"gr\":{}}}",
                serde_json::to_string(&pool[n]).expect("string serialization is infallible")
            ),
            Req::MineHot(s, k) => {
                format!("{{\"id\":{id},\"type\":\"mine\",\"min_supp\":{s},\"k\":{k}}}")
            }
            Req::MineCold(l) => format!(
                "{{\"id\":{id},\"type\":\"mine\",\"min_supp\":{},\"k\":{},\"max_lhs\":{l}}}",
                COLD.0, COLD.1
            ),
        }
    }

    /// The config the daemon builds for a mine request (its defaults:
    /// nhp, min nhp 0.5, dynamic top-k, one thread); `None` for a query.
    fn config(self) -> Option<MinerConfig> {
        let (min_supp, k, max_lhs) = match self {
            Req::Query(_) => return None,
            Req::MineHot(s, k) => (s, k, None),
            Req::MineCold(l) => (COLD.0, COLD.1, Some(l)),
        };
        let cfg = MinerConfig {
            min_supp,
            min_score: 0.5,
            k,
            dynamic_topk: true,
            max_lhs,
            ..MinerConfig::default()
        };
        Some(cfg.with_metric(RankMetric::Nhp))
    }
}

/// splitmix64: the sequence's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Every GR with one or two LHS conditions on distinct node attributes,
/// an optional one-condition edge descriptor and one RHS condition, in
/// the display syntax the daemon parses.
fn gr_pool(graph: &SocialGraph) -> Vec<String> {
    let schema = graph.schema();
    let conds = |attr: &grm_graph::AttrDef| -> Vec<String> {
        (1..=attr.domain_size())
            .map(|v| format!("{}:{}", attr.name(), attr.value_name(v)))
            .collect()
    };
    let node: Vec<Vec<String>> = schema
        .node_attr_ids()
        .map(|a| conds(schema.node_attr(a)))
        .collect();
    let mut lhs: Vec<String> = node.iter().flatten().cloned().collect();
    for (i, a) in node.iter().enumerate() {
        for b in &node[i + 1..] {
            lhs.extend(
                a.iter()
                    .flat_map(|x| b.iter().map(move |y| format!("{x}, {y}"))),
            );
        }
    }
    let mut arrows = vec!["->".to_string()];
    for e in schema.edge_attr_ids() {
        arrows.extend(
            conds(schema.edge_attr(e))
                .into_iter()
                .map(|c| format!("-[{c}]->")),
        );
    }
    let rhs: Vec<&String> = node.iter().flatten().collect();
    let mut pool = Vec::new();
    for l in &lhs {
        for a in &arrows {
            for r in &rhs {
                pool.push(format!("({l}) {a} ({r})"));
            }
        }
    }
    pool
}

/// The seeded request sequence: about 80% queries, 15% repeated mines
/// and 5% cold mines. `node_attrs` is the graph's node-attribute count.
fn sequence(seed: u64, pool_len: usize, node_attrs: usize) -> Vec<Req> {
    let mut rng = Rng(seed);
    let mut cold = node_attrs;
    (0..SEQUENCE_LEN)
        .map(|_| match rng.next() % 100 {
            0..=79 => Req::Query((rng.next() % pool_len as u64) as usize),
            80..=94 => {
                let (s, k) = HOT[(rng.next() % HOT.len() as u64) as usize];
                Req::MineHot(s, k)
            }
            _ => {
                cold += 1;
                Req::MineCold(cold)
            }
        })
        .collect()
}

/// A running `grmined`, shut down on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Start `bin` on `graph`; returns with the time to its ready line.
    fn start(bin: &str, graph: &str) -> Result<(Daemon, Duration), String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args([graph, "--threads", "1", "--cache", DAEMON_CACHE])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting `{bin}`: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let ready = t.elapsed();
        let addr = line
            .split("\"addr\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .map(str::to_string);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) if line.contains("\"ready\":true") => {
                daemon.addr = addr;
                Ok((daemon, ready))
            }
            _ => Err(format!(
                "`{bin}` printed no ready line (got `{}`)",
                line.trim()
            )),
        }
    }

    fn connect(&self) -> Result<Client, String> {
        Client::new(TcpStream::connect(&self.addr).map_err(|e| e.to_string())?)
    }

    fn request(&self, line: &str) -> Result<String, String> {
        self.connect()?.call(line)
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.addr.is_empty() || self.request("{\"type\":\"shutdown\"}").is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            return;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One ordinary client connection.
struct Client {
    out: TcpStream,
    input: BufReader<TcpStream>,
}

impl Client {
    fn new(stream: TcpStream) -> Result<Client, String> {
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let input = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { out: stream, input })
    }

    /// Send one request line and wait for its reply line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.out
            .write_all(msg.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        match self.input.read_line(&mut reply) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(reply),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// One request as a client saw it.
struct Sent {
    index: usize,
    start: Instant,
    end: Instant,
    reply: Result<String, String>,
}

/// Closed-loop phase: the clients take the next request of the
/// sequence in turn until `budget` has passed. Their connections stay
/// open from one phase to the next, as an ordinary client's would.
fn drive(
    clients: &mut Vec<Client>,
    seq: &Arc<Vec<Req>>,
    pool: &Arc<Vec<String>>,
    first: usize,
    budget: Duration,
) -> Result<(Vec<Sent>, Duration), String> {
    let next = Arc::new(AtomicUsize::new(first));
    let start = Instant::now();
    let mut handles = Vec::new();
    for mut client in clients.drain(..) {
        let (seq, pool, next) = (Arc::clone(seq), Arc::clone(pool), Arc::clone(&next));
        handles.push(std::thread::spawn(move || {
            let mut sent = Vec::new();
            while start.elapsed() < budget {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = seq.get(index) else { break };
                let line = req.line(index, &pool);
                let t = Instant::now();
                let reply = client.call(&line);
                let end = Instant::now();
                let broken = reply.is_err();
                sent.push(Sent {
                    index,
                    start: t,
                    end,
                    reply,
                });
                if broken {
                    break;
                }
            }
            (client, sent)
        }));
    }
    let mut all = Vec::new();
    for h in handles {
        let (client, sent) = h
            .join()
            .map_err(|_| "a client thread panicked".to_string())?;
        clients.push(client);
        all.extend(sent);
    }
    let wall = start.elapsed();
    all.sort_by_key(|s| s.index);
    Ok((all, wall))
}

/// Expected-reply fragments, computed in process and memoized.
struct Oracle<'g> {
    graph: &'g SocialGraph,
    pool: &'g [String],
    memo: HashMap<Req, String>,
}

impl Oracle<'_> {
    /// The fragment a correct reply to `req` contains: the query's
    /// `result` object, or a mine's `top` array followed by its stats.
    fn expected(&mut self, req: Req) -> Result<&str, String> {
        if !self.memo.contains_key(&req) {
            let fragment = match req {
                Req::Query(n) => {
                    let schema = self.graph.schema();
                    let gr = parse_gr(schema, &self.pool[n]).map_err(|e| e.to_string())?;
                    let result = Content::Map(vec![
                        ("gr".to_string(), Content::Str(gr.display(schema))),
                        (
                            "measures".to_string(),
                            to_content(&query::evaluate(self.graph, &gr)),
                        ),
                    ]);
                    format!("\"result\":{}", to_json(&result))
                }
                Req::MineHot(..) | Req::MineCold(_) => {
                    let cfg = req.config().expect("a mine request");
                    let r = GrMiner::new(self.graph, cfg)
                        .try_mine()
                        .map_err(|e| format!("reference mine: {e}"))?;
                    format!("\"top\":{},\"stats\":", to_json(&to_content(&r.top)))
                }
            };
            self.memo.insert(req, fragment);
        }
        Ok(&self.memo[&req])
    }
}

fn to_json(c: &Content) -> String {
    serde_json::to_string(c).expect("content serialization is infallible")
}

/// Check every reply against the in-process answer; a mismatch, an
/// error reply or a transport failure fails the op.
fn verify(
    out: &mut Outcome,
    sent: &[Sent],
    seq: &[Req],
    oracle: &mut Oracle,
) -> Result<usize, String> {
    let mut ok = 0;
    for s in sent {
        out.attempted += 1;
        let req = seq[s.index];
        let reply = match &s.reply {
            Ok(r) => r,
            Err(e) => {
                out.fail_op(format!("request {}: {e}", s.index));
                continue;
            }
        };
        let head = format!("{{\"id\":{},\"ok\":true,", s.index);
        if !reply.starts_with(&head) {
            let shown: String = reply.chars().take(300).collect();
            out.fail_op(format!("request {} ({}): {shown}", s.index, req.kind()));
            continue;
        }
        if reply.contains(oracle.expected(req)?) {
            ok += 1;
        } else {
            out.fail_op(format!(
                "request {} ({}): reply differs from the in-process answer",
                s.index,
                req.kind()
            ));
        }
    }
    Ok(ok)
}

/// Service counters from the daemon's `stats` request.
fn service_counters(daemon: &Daemon) -> Result<HashMap<String, f64>, String> {
    let reply = daemon.request("{\"type\":\"stats\"}")?;
    let mut counters = HashMap::new();
    for name in [
        "requests_served",
        "requests_shed",
        "cache_hits",
        "cache_coalesced",
    ] {
        let value = reply
            .split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("stats reply has no `{name}`"))?;
        counters.insert(name.to_string(), value);
    }
    Ok(counters)
}

/// The `dblp-daemon` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let path = args.str("graph")?;
    let bin = args.str("grmined")?;
    let seconds = args.seconds()?;
    let seed: u64 = args.num("seed", 7)?;
    let traced = args.traced()?;
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let mut m = Metrics::new();

    // The load generator's own copy of the graph: the GR pool and the
    // in-process answers come from it.
    let graph = if traced {
        load_traced(&mut tr, path, 1, &mut m)?
    } else {
        grm_graph::io::load_graph(path).map_err(|e| format!("loading `{path}`: {e}"))?
    };
    let pool = Arc::new(gr_pool(&graph));
    let node_attrs = graph.schema().node_attr_count();
    let seq = Arc::new(sequence(seed, pool.len(), node_attrs));
    let mut oracle = Oracle {
        graph: &graph,
        pool: &pool,
        memo: HashMap::new(),
    };
    let (daemon, ready) = Daemon::start(bin, path)?;
    let mut clients = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;

    if !traced {
        // The serving daemon's start is the first set-up. After each
        // segment, probe daemons start (and shut down) on the same graph
        // until the set-ups keep pace with the phase.
        let mut setups = vec![ms(ready)];
        let (mut sent, mut wall) = (Vec::new(), Duration::ZERO);
        for segment in 1..=SEGMENTS {
            let (part, took) = drive(&mut clients, &seq, &pool, sent.len(), seconds / SEGMENTS)?;
            sent.extend(part);
            wall += took;
            while setups.len() < SETUPS * segment as usize / SEGMENTS as usize {
                let (probe, ready) = Daemon::start(bin, path)?;
                setups.push(ms(ready));
                drop(probe);
            }
        }
        let rss = daemon.peak_rss_mb();
        drop(clients);
        drop(daemon);
        let ok = verify(&mut out, &sent, &seq, &mut oracle)?;
        let rtt: Vec<f64> = sent.iter().map(|s| ms(s.end - s.start)).collect();
        let beyond = rtt.iter().filter(|&&r| r > percentile(&rtt, 0.99)).count();
        eprintln!(
            "grmbench dblp-daemon: {} requests, {beyond} beyond p99",
            rtt.len()
        );
        out.metrics = end_to_end(&setups, &rtt, ok, wall, rss);
        return Ok(out);
    }

    // Traced: the same daemon keeps serving the sequence where the
    // untraced phase stopped, each request inside a client-side span;
    // then the whole sequence so far is replayed in process through
    // `Service::handle_line`, with each layer's function called on its
    // own beside it.
    let phase = seconds / 3;
    let (sent, _) = drive(&mut clients, &seq, &pool, 0, phase)?;
    let (traced_sent, _) = drive(&mut clients, &seq, &pool, sent.len(), phase)?;
    let base = traced_sent.first().map_or_else(Instant::now, |s| s.start);
    for s in &traced_sent {
        tr.record("client.rtt", None, s.index as u64, base, s.start, s.end);
    }
    let counters = service_counters(&daemon)?;
    drop(clients);
    drop(daemon);
    let query_rtt = |sent: &[Sent]| -> f64 {
        let v: Vec<f64> = sent
            .iter()
            .filter(|s| matches!(seq[s.index], Req::Query(_)))
            .map(|s| ms(s.end - s.start))
            .collect();
        median(&v)
    };
    let (plain_query, rtt_query) = (query_rtt(&sent), query_rtt(&traced_sent));
    let mut all = sent;
    all.extend(traced_sent);
    verify(&mut out, &all, &seq, &mut oracle)?;

    let service = Service::new(
        graph.clone(),
        ServiceConfig {
            threads: 1,
            cache_capacity: DAEMON_CACHE.parse().expect("a number"),
            ..ServiceConfig::default()
        },
    );
    let conn = CancelToken::new();
    let mut handle: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut seen = HashSet::new();
    let mut last_cold = None;
    for s in &all {
        let op = s.index as u64;
        let req = seq[s.index];
        let line = req.line(s.index, &pool);
        let t = Instant::now();
        let reply = tr.span("service.handle", None, op, || {
            service.handle_line(&line, &conn)
        });
        let took = ms(t.elapsed());
        if !reply.contains("\"ok\":true") {
            out.fail_check(format!(
                "in-process replay of request {} failed: {reply}",
                s.index
            ));
        }
        let kind = match req {
            Req::Query(n) => {
                let schema = graph.schema();
                tr.span("query.evaluate", None, op, || {
                    parse_gr(schema, &pool[n]).map(|gr| query::evaluate(&graph, &gr))
                })
                .map_err(|e| e.to_string())?;
                "query"
            }
            Req::MineHot(..) | Req::MineCold(_) => {
                if seen.insert(req) {
                    let cfg = req.config().expect("a mine request");
                    let root = tr.open("op", None, op);
                    let cells = layer_builds(&mut tr, &graph, root, op);
                    m.insert("compact.cells", cells as f64);
                    let r = tr.span("miner.mine", Some(root), op, || {
                        GrMiner::new(&graph, cfg).try_mine()
                    });
                    tr.close(root);
                    last_cold = r.ok().or(last_cold.take());
                    "mine_cold"
                } else {
                    "mine_hit"
                }
            }
        };
        handle.entry(kind).or_default().push(took);
    }
    let handle_ms = |kind: &str| handle.get(kind).map_or(0.0, |v| median(v));
    if let Some(r) = &last_cold {
        miner_counts(&mut m, &r.stats);
    }
    miner_layers(&mut m, &tr);
    let evaluate = median(&tr.durations("query.evaluate"));
    m.insert("query.evaluate_ms", evaluate);
    let handle_query = handle_ms("query");
    m.insert("service.handle_ms.query", handle_query);
    m.insert("service.handle_ms.mine_hit", handle_ms("mine_hit"));
    m.insert("service.handle_ms.mine_cold", handle_ms("mine_cold"));
    m.insert("service.self_ms.query", handle_query - evaluate);

    // Client-side: the round trip of queries (the kind at the median)
    // and the part of it the handler does not explain.
    m.insert("service.rtt_ms", rtt_query);
    m.insert("service.transport_ms", rtt_query - handle_query);
    let mines = counters["requests_served"].max(1.0);
    m.insert(
        "service.cache_hit_ratio",
        (counters["cache_hits"] + counters["cache_coalesced"]) / mines,
    );
    m.insert("service.cache_coalesced", counters["cache_coalesced"]);
    m.insert("service.requests_shed", counters["requests_shed"]);

    // A query op is transport, then the service's own handling, then
    // the evaluation; the untraced op is the untraced query round trip.
    trace_summary(&mut m, &tr, plain_query, rtt_query);
    write_spans(args, &tr, &mut out);
    out.metrics = m;
    Ok(out)
}
