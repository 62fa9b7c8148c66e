//! `grmbench` — the measured process of the repository benchmark.
//!
//! ```text
//! grmbench gen     --dataset pokec|dblp --scale F --seed N --out G.grm
//! grmbench pokec-mine  --graph G.grm --seconds S --trace 0|1 [--spill-dir D] [--spans OUT]
//! grmbench dblp-daemon --graph G.grm --seconds S --trace 0|1 --seed N --grmined BIN [--spans OUT]
//! ```
//!
//! `gen` is dataset generation, run as its own process so it stays out
//! of every measurement. Each workload prints, as its last stdout line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (name to value): the end-to-end metrics when `--trace 0`, the
//! per-layer metrics when `--trace 1`. `grmbench/run.py` builds this
//! binary, drives it, and checks the metric names against
//! `BENCHMARK.json`, which holds the one list of names and units.

mod daemon;
mod pokec;
mod report;
mod trace;

use grm_core::MinerStats;
use report::{median, percentile, setup_ms};
use std::collections::HashMap;
use std::process::exit;
use std::time::Duration;

/// Set-ups per untraced run, spread through its timed phase.
pub const SETUPS: usize = 40;

/// Flag values of one invocation.
pub struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("flag `{flag}` is missing its value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    /// A required string flag.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    /// A numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{key}")),
        }
    }

    /// The timed-phase length.
    pub fn seconds(&self) -> Result<Duration, String> {
        let s: f64 = self.num("seconds", 10.0)?;
        if !(s.is_finite() && s > 0.0) {
            return Err(format!("--seconds must be positive, got {s}"));
        }
        Ok(Duration::from_secs_f64(s))
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> Result<bool, String> {
        match self.num::<u8>("trace", 0)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(format!("--trace must be 0 or 1, got {t}")),
        }
    }
}

/// Metric values keyed by name. `grmbench/run.py` checks the names
/// against `BENCHMARK.json` and adds the units listed there.
pub type Metrics = HashMap<&'static str, f64>;

/// Put the miner's work counters (one op's [`MinerStats`]) into `m`.
/// They repeat exactly for a fixed graph and config.
pub fn miner_counts(m: &mut Metrics, s: &MinerStats) {
    m.insert("miner.partitions_examined", s.partitions_examined as f64);
    m.insert("miner.partition_passes", s.partition_passes as f64);
    m.insert("miner.grs_examined", s.grs_examined as f64);
    m.insert("miner.pruned_by_supp", s.pruned_by_supp as f64);
    m.insert("miner.pruned_by_score", s.pruned_by_score as f64);
    m.insert("miner.accepted", s.accepted as f64);
    m.insert("miner.heff_scans", s.heff_scans as f64);
    m.insert("miner.kernel_batches", s.kernel_batches as f64);
    m.insert("miner.fused_passes", s.fused_passes as f64);
    m.insert("miner.scratch_bytes_peak", s.scratch_bytes_peak as f64);
    m.insert(
        "miner.accept_ratio",
        s.accepted as f64 / (s.grs_examined.max(1)) as f64,
    );
    m.insert("topk.rejected_generality", s.rejected_generality as f64);
    m.insert("topk.rejected_trivial", s.rejected_trivial as f64);
    m.insert("topk.bound_tightenings", s.bound_tightenings as f64);
}

/// The end-to-end metrics from a run's set-up times, op latencies, ops
/// answered correctly, the timed phase's wall time outside set-ups, and
/// peak RSS.
pub fn end_to_end(
    setups: &[f64],
    op_ms: &[f64],
    ok_ops: usize,
    wall: Duration,
    rss: f64,
) -> Metrics {
    eprintln!(
        "grmbench: {} set-ups (ms): min {:.2}, p10 {:.2}, median {:.2}",
        setups.len(),
        percentile(setups, 0.0),
        setup_ms(setups),
        median(setups)
    );
    Metrics::from([
        ("setup_s", setup_ms(setups) / 1e3),
        ("op_ms_p50", median(op_ms)),
        ("op_ms_p99", percentile(op_ms, 0.99)),
        ("ops_per_s", ok_ops as f64 / wall.as_secs_f64()),
        ("peak_rss_mb", rss),
    ])
}

fn gen(args: &Args) -> Result<(), String> {
    let scale: f64 = args.num("scale", 1.0)?;
    let seed: u64 = args.num("seed", 7)?;
    let cfg = match args.str("dataset")? {
        "pokec" => grm_datagen::pokec_config_scaled(scale),
        "dblp" => grm_datagen::dblp_config_scaled(scale),
        other => return Err(format!("unknown dataset `{other}`")),
    }
    .with_seed(seed);
    let graph = grm_datagen::generate(&cfg).map_err(|e| e.to_string())?;
    let out = args.str("out")?;
    let tmp = format!("{out}.tmp");
    grm_graph::io::save_graph(&graph, &tmp).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, out).map_err(|e| e.to_string())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first() else {
        eprintln!("usage: grmbench <gen|pokec-mine|dblp-daemon> --flag value ...");
        exit(2);
    };
    let result = Args::parse(&raw[1..]).and_then(|args| match cmd.as_str() {
        "gen" => gen(&args).map(|()| None),
        "pokec-mine" => pokec::mine(&args).map(Some),
        "dblp-daemon" => daemon::run(&args).map(Some),
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(Some(outcome)) => println!("{}", outcome.to_json()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("grmbench {cmd}: {e}");
            exit(1);
        }
    }
}
