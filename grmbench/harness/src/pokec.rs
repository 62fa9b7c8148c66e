//! `pokec-mine`: one caller, a closed loop of identical in-core top-k
//! mines (`GrMiner::try_mine`) over one Pokec-like graph. Its traced run
//! also spills the graph into a `ShardStore` and mines it out of core
//! with `mine_sharded`, which has the same recursion, so the difference
//! isolates the shard layer.

use crate::report::{disk_mb, median, ms, peak_rss_mb, Outcome};
use crate::trace::{layer_builds, load_traced, miner_layers, trace_summary, write_spans, Tracer};
use crate::{end_to_end, miner_counts, Args, Metrics, SETUPS};
use grm_core::{mine_sharded, GrMiner, MineResult, MinerConfig, MinerError, ShardedOptions};
use grm_graph::shard::ShardStore;
use grm_graph::{io, CompactModel, SocialGraph};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Shards of the traced run's out-of-core store.
const SHARDS: usize = 8;
/// The traced run's memory budget for resident shards: below the
/// store's total, so every sharded mine loads and evicts.
const MEMORY_BUDGET: u64 = 25_000_000;

/// The paper's ranking: nhp, min nhp 0.5, top 100, minSupp 300.
fn config() -> MinerConfig {
    MinerConfig::nhp(300, 0.5, 100)
}

/// The top-k as the pinned `--json` schema bytes: the form every
/// equivalence check compares.
fn top_bytes(r: &MineResult) -> String {
    serde_json::to_string(&r.top).expect("top-k serialization is infallible")
}

/// One timed load of the graph; its time goes into `times`.
fn timed_load(path: &str, times: &mut Vec<f64>) -> Result<SocialGraph, String> {
    let t = Instant::now();
    let graph = io::load_graph(path).map_err(|e| format!("loading `{path}`: {e}"))?;
    times.push(ms(t.elapsed()));
    Ok(graph)
}

/// Spill `graph` into an 8-shard store under `dir` `spills` times, each
/// inside a `shard.spill` span; keep the last store.
fn spill_traced(
    tr: &mut Tracer,
    graph: &SocialGraph,
    dir: &Path,
    spills: usize,
) -> Result<ShardStore, String> {
    let mut store = None;
    for i in 0..spills.max(1) {
        drop(store.take());
        let s = tr.span("shard.spill", None, i as u64, || {
            ShardStore::build_from_graph(
                graph,
                dir.join(i.to_string()),
                SHARDS,
                CompactModel::MAX_EDGES,
            )
        });
        store = Some(s.map_err(|e| format!("spilling: {e}"))?);
    }
    Ok(store.expect("at least one spill"))
}

/// One op's outcome, checked against the reference top-k bytes (the
/// first op's when `reference` is still empty).
fn check_op(
    out: &mut Outcome,
    op: u64,
    result: Result<MineResult, MinerError>,
    reference: &mut Option<String>,
) -> Option<MineResult> {
    out.attempted += 1;
    match result {
        Ok(r) => {
            let bytes = top_bytes(&r);
            match reference {
                None => *reference = Some(bytes),
                Some(want) if *want == bytes => {}
                Some(_) => {
                    out.fail_op(format!("op {op}: top-k differs from the reference"));
                    return None;
                }
            }
            Some(r)
        }
        Err(e) => {
            out.fail_op(format!("op {op}: {e}"));
            None
        }
    }
}

/// Run `op` in a closed loop until `budget` has passed (at least one
/// op), returning each op's time.
fn closed_loop(budget: Duration, mut op: impl FnMut(u64)) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut n = 0;
    while n == 0 || start.elapsed() < budget {
        let t = Instant::now();
        op(n);
        times.push(ms(t.elapsed()));
        n += 1;
    }
    times
}

/// `pokec-mine`: set-up is the graph load; an op is one in-core mine.
pub fn mine(args: &Args) -> Result<Outcome, String> {
    let path = args.str("graph")?;
    let cfg = config();
    let seconds = args.seconds()?;
    let mut out = Outcome::default();
    let mut reference = None;

    if !args.traced()? {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut graph = timed_load(path, &mut setups)?;
        let (mut op_ms, mut ok, mut in_setups) = (Vec::new(), 0, Duration::ZERO);
        let start = Instant::now();
        while op_ms.is_empty() || start.elapsed() - in_setups < seconds {
            let t = Instant::now();
            let r = GrMiner::new(&graph, cfg.clone()).try_mine();
            op_ms.push(ms(t.elapsed()));
            let op = op_ms.len() as u64 - 1;
            ok += usize::from(check_op(&mut out, op, r, &mut reference).is_some());
            // The set-ups are spread evenly through the timed phase, so
            // they see the same machine as the ops. Each replaces the
            // graph the next ops mine: one copy is resident at a time.
            let t = Instant::now();
            let share = (t - start - in_setups).as_secs_f64() / seconds.as_secs_f64();
            while setups.len() < SETUPS.min((share * SETUPS as f64).ceil() as usize) {
                drop(graph);
                graph = timed_load(path, &mut setups)?;
            }
            in_setups += t.elapsed();
        }
        let wall = start.elapsed() - in_setups;
        out.metrics = end_to_end(&setups, &op_ms, ok, wall, peak_rss_mb("self"));
        return Ok(out);
    }

    let mut tr = Tracer::new();
    let mut m = Metrics::new();
    let graph = load_traced(&mut tr, path, SETUPS, &mut m)?;
    let spill_dir = PathBuf::from(args.str("spill-dir")?);
    let _ = std::fs::remove_dir_all(&spill_dir);
    let store = spill_traced(&mut tr, &graph, &spill_dir, 3)?;
    m.insert("shard.spill_ms", median(&tr.durations("shard.spill")));
    m.insert("shard.spill_mb", disk_mb(&spill_dir));
    let opts = ShardedOptions {
        threads: 1,
        memory_budget: Some(MEMORY_BUDGET),
    };

    // Rounds of three ops, so all of them see the same machine: an
    // untraced mine; a traced mine, which calls its layers one by one
    // inside spans (compact model, mining context, then the mine
    // itself, which rebuilds both internally); and a traced sharded
    // mine of the same graph and config, whose top-k must match.
    let (mut last, mut last_sharded) = (None, None);
    let op_ms = closed_loop(seconds, |op| match op % 3 {
        0 => {
            let r = GrMiner::new(&graph, cfg.clone()).try_mine();
            check_op(&mut out, op, r, &mut reference);
        }
        1 => {
            let root = tr.open("op", None, op);
            let cells = layer_builds(&mut tr, &graph, root, op);
            m.insert("compact.cells", cells as f64);
            let r = tr.span("miner.mine", Some(root), op, || {
                GrMiner::new(&graph, cfg.clone()).try_mine()
            });
            tr.close(root);
            last = check_op(&mut out, op, r, &mut reference).or(last.take());
        }
        _ => {
            let r = tr.span("sharded.mine", None, op, || {
                mine_sharded(&store, &cfg, &opts)
            });
            last_sharded = check_op(&mut out, op, r, &mut reference).or(last_sharded.take());
        }
    });
    if let Some(r) = &last {
        miner_counts(&mut m, &r.stats);
    }
    if let Some(r) = &last_sharded {
        m.insert("shard.loads", r.stats.shard_loads as f64);
        m.insert("shard.evictions", r.stats.shard_evictions as f64);
        m.insert(
            "shard.resident_mb_peak",
            r.stats.shard_resident_bytes_peak as f64 / 1e6,
        );
    }
    let mine = miner_layers(&mut m, &tr);
    // A sharded mine runs the in-core recursion over the same edges; the
    // rest of its time is the shard layer's.
    let sharded = median(&tr.durations("sharded.mine"));
    m.insert("sharded.mine_ms", sharded);
    m.insert("sharded.self_ms", sharded - mine);
    let plain: Vec<f64> = op_ms.iter().step_by(3).copied().collect();
    trace_summary(&mut m, &tr, median(&plain), mine);
    write_spans(args, &tr, &mut out);
    out.metrics = m;
    drop(store);
    let _ = std::fs::remove_dir_all(&spill_dir);
    Ok(out)
}
