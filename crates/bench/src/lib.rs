//! # apex-bench — experiment harness for the paper's evaluation
//!
//! One [`Experiment`] per dataset: the graph, data table, query sets at
//! the paper's counts (scaled down at the `small` scale), `APEX⁰`, and
//! constructors for every other index. The `table1`/`table2`/`fig13`/
//! `fig14`/`fig15`/`ablation` binaries print the corresponding rows,
//! `kernels` and `planner` measure the semijoin kernels and join-order
//! choice. Serving load (socket, router, refresh under traffic) is
//! measured by the standalone `perf/` package, not here.
//!
//! ## Scales
//!
//! * `small` — four_tragedy / Flix01 / Ged01 with reduced query counts;
//!   finishes in seconds. The default.
//! * `paper` — all nine datasets of Table 1 with the paper's query
//!   counts (5000 / 500 / 1000); minutes. Select with `--scale paper`
//!   or `APEX_SCALE=paper`.

#![forbid(unsafe_code)]
// The harness prints the paper's tables and figures.
#![allow(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

use apex::{Apex, Workload};
use apex_query::generator::{GeneratorConfig, QuerySets};
use apex_storage::{DataTable, PageModel};
use datagen::Dataset;
use dataguide::DataGuide;
use fabric::IndexFabric;
use oneindex::OneIndex;
use xmlgraph::paths::EnumLimits;
use xmlgraph::XmlGraph;

/// The minSup sweep of Table 2 and Figure 13.
pub const MINSUPS: [f64; 5] = [0.002, 0.005, 0.01, 0.03, 0.05];

/// The default RNG base seed (`--seed` / `APEX_SEED` override it).
pub const DEFAULT_SEED: u64 = 0x5EED;

/// The base RNG seed for this bench run: `--seed <u64>` from argv,
/// else `APEX_SEED` from the environment, else [`DEFAULT_SEED`].
/// Every binary derives its generator seeds from this one value, and
/// every `BENCH_<name>.json` records it (see [`report::BenchReport`]),
/// so any reported row can be reproduced by re-running with the same
/// seed.
pub fn base_seed() -> u64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let v = if a == "--seed" {
            args.next()
        } else {
            a.strip_prefix("--seed=").map(str::to_string)
        };
        if let Some(v) = v {
            if let Ok(seed) = v.parse::<u64>() {
                return seed;
            }
        }
    }
    std::env::var("APEX_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small datasets, reduced query counts (seconds).
    Small,
    /// The paper's nine datasets and query counts (minutes).
    Paper,
}

impl Scale {
    /// Parses `--scale <small|paper>` from argv or `APEX_SCALE` from the
    /// environment; defaults to `Small`.
    pub fn from_env() -> Scale {
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--scale" {
                if let Some(v) = args.next() {
                    return Scale::parse(&v);
                }
            } else if let Some(v) = a.strip_prefix("--scale=") {
                return Scale::parse(v);
            }
        }
        match std::env::var("APEX_SCALE") {
            Ok(v) => Scale::parse(&v),
            Err(_) => Scale::Small,
        }
    }

    fn parse(v: &str) -> Scale {
        match v {
            "paper" | "full" => Scale::Paper,
            _ => Scale::Small,
        }
    }

    /// Datasets evaluated at this scale.
    pub fn datasets(self) -> Vec<Dataset> {
        match self {
            Scale::Small => vec![Dataset::FourTragedy, Dataset::Flix01, Dataset::Ged01],
            Scale::Paper => Dataset::all().to_vec(),
        }
    }

    /// Datasets for Figures 14/15 (the paper omits the smallest of each
    /// family there).
    pub fn fig14_15_datasets(self) -> Vec<Dataset> {
        match self {
            Scale::Small => vec![Dataset::FourTragedy, Dataset::Flix01, Dataset::Ged01],
            Scale::Paper => vec![
                Dataset::Shakes11,
                Dataset::ShakesAll,
                Dataset::Flix02,
                Dataset::Flix03,
                Dataset::Ged02,
                Dataset::Ged03,
            ],
        }
    }

    /// Query-set sizes `(qtype1, qtype2, qtype3)`.
    pub fn query_counts(self) -> (usize, usize, usize) {
        match self {
            Scale::Small => (1000, 150, 250),
            Scale::Paper => (5000, 500, 1000),
        }
    }
}

/// A fully prepared experiment over one dataset.
pub struct Experiment {
    /// Which dataset.
    pub dataset: Dataset,
    /// The data graph.
    pub g: XmlGraph,
    /// The value table.
    pub table: DataTable,
    /// Generated query sets + tuning workload.
    pub queries: QuerySets,
    /// APEX⁰.
    pub apex0: Apex,
}

impl Experiment {
    /// Builds the experiment for `d` at `scale`.
    pub fn new(d: Dataset, scale: Scale) -> Experiment {
        let g = d.generate();
        let table = DataTable::build(&g, PageModel::default());
        let (q1, q2, q3) = scale.query_counts();
        let cfg = GeneratorConfig {
            qtype1: q1,
            qtype2: q2,
            qtype3: q3,
            workload_fraction: 0.20,
            seed: base_seed() ^ d.paper_nodes() as u64,
            limits: EnumLimits {
                max_len: 12,
                max_paths: 100_000,
            },
        };
        let queries = QuerySets::generate(&g, &table, cfg);
        let apex0 = Apex::build_initial(&g);
        Experiment {
            dataset: d,
            g,
            table,
            queries,
            apex0,
        }
    }

    /// A refined APEX at `min_sup` (from a clone of `APEX⁰`, using the
    /// 20 % workload sample — the paper's procedure).
    pub fn apex_at(&self, min_sup: f64) -> Apex {
        let mut idx = self.apex0.clone();
        idx.refine(&self.g, &self.queries.workload, min_sup);
        idx
    }

    /// A refined APEX for an explicit workload.
    pub fn apex_with(&self, wl: &Workload, min_sup: f64) -> Apex {
        let mut idx = self.apex0.clone();
        idx.refine(&self.g, wl, min_sup);
        idx
    }

    /// The strong DataGuide.
    pub fn dataguide(&self) -> DataGuide {
        DataGuide::build(&self.g)
    }

    /// The 1-index.
    pub fn oneindex(&self) -> OneIndex {
        OneIndex::build(&self.g)
    }

    /// The Index Fabric.
    pub fn fabric(&self) -> IndexFabric {
        IndexFabric::build(&self.g)
    }
}

/// Hand-rolled JSON for the machine-readable companion file every bench
/// binary writes next to its table (`BENCH_<name>.json`). The workspace
/// carries no serde and the reports are flat rows, so a tiny value enum
/// plus a writer suffices.
pub mod report {
    use std::io::Write as _;
    use std::path::PathBuf;

    /// A JSON value (only the shapes the reports need).
    #[derive(Debug, Clone)]
    pub enum Json {
        /// An unsigned integer.
        U64(u64),
        /// A float (rendered with enough digits to round-trip).
        F64(f64),
        /// A string (escaped on render).
        Str(String),
        /// A boolean.
        Bool(bool),
        /// An array.
        Arr(Vec<Json>),
        /// An object with fixed keys.
        Obj(Vec<(&'static str, Json)>),
    }

    impl Json {
        /// Convenience: a string value.
        pub fn str(s: impl Into<String>) -> Json {
            Json::Str(s.into())
        }

        fn render_into(&self, out: &mut String) {
            match self {
                Json::U64(v) => out.push_str(&v.to_string()),
                Json::F64(v) if v.is_finite() => out.push_str(&format!("{v}")),
                Json::F64(_) => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\t' => out.push_str("\\t"),
                            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.render_into(out);
                    }
                    out.push(']');
                }
                Json::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('"');
                        out.push_str(k);
                        out.push_str("\":");
                        v.render_into(out);
                    }
                    out.push('}');
                }
            }
        }

        /// Renders the value as a JSON string.
        pub fn render(&self) -> String {
            let mut s = String::new();
            self.render_into(&mut s);
            s
        }
    }

    /// Accumulates rows for one bench binary and writes
    /// `BENCH_<name>.json` (in the working directory) on
    /// [`BenchReport::write`].
    #[derive(Debug)]
    pub struct BenchReport {
        name: &'static str,
        meta: Vec<(&'static str, Json)>,
        rows: Vec<Json>,
    }

    impl BenchReport {
        /// A fresh report for the binary `name`. The run's base RNG
        /// seed is recorded up front so every report is reproducible.
        pub fn new(name: &'static str) -> Self {
            BenchReport {
                name,
                meta: vec![("seed", Json::U64(crate::base_seed()))],
                rows: Vec::new(),
            }
        }

        /// Attaches a top-level metadata field (scale, thresholds, …).
        pub fn meta(&mut self, key: &'static str, value: Json) {
            self.meta.push((key, value));
        }

        /// Appends one row.
        pub fn push(&mut self, row: Json) {
            self.rows.push(row);
        }

        /// Writes `BENCH_<name>.json` and returns its path.
        pub fn write(self) -> std::io::Result<PathBuf> {
            let mut fields = vec![("bench", Json::str(self.name))];
            fields.extend(self.meta);
            fields.push(("rows", Json::Arr(self.rows)));
            let path = PathBuf::from(format!("BENCH_{}.json", self.name));
            let mut f = std::fs::File::create(&path)?;
            f.write_all(Json::Obj(fields).render().as_bytes())?;
            f.write_all(b"\n")?;
            Ok(path)
        }
    }

    /// The standard figure row as JSON: per-batch pages read, join work,
    /// and the rest of the printed columns.
    pub fn batch_row(dataset: &str, index: &str, stats: &apex_query::BatchStats) -> Json {
        let mut fields = vec![
            ("dataset", Json::str(dataset)),
            ("index", Json::str(index)),
            ("queries", Json::U64(stats.queries as u64)),
            ("pages_read", Json::U64(stats.cost.pages_read)),
            ("index_edges", Json::U64(stats.cost.index_edges)),
            ("extent_pairs", Json::U64(stats.cost.extent_pairs)),
            ("join_work", Json::U64(stats.cost.join_work)),
            ("join_output", Json::U64(stats.cost.join_output)),
            ("result_nodes", Json::U64(stats.result_nodes as u64)),
            ("wall_ms", Json::F64(apex_query::stats::millis(stats.wall))),
        ];
        if let Some(b) = &stats.buf {
            fields.push(("buf_hit_rate", Json::F64(b.hit_rate())));
        }
        Json::Obj(fields)
    }

    /// Index-size row (Table 2): structure counts plus the stored extent
    /// footprint in the compressed block encoding next to its raw size
    /// and the succinct form's queryable resident bytes.
    pub fn index_row(dataset: &str, index: &str, s: &apex::IndexStats) -> Json {
        Json::Obj(vec![
            ("dataset", Json::str(dataset)),
            ("index", Json::str(index)),
            ("nodes", Json::U64(s.nodes as u64)),
            ("edges", Json::U64(s.edges as u64)),
            ("extent_pairs", Json::U64(s.extent_pairs as u64)),
            (
                "extent_encoded_bytes",
                Json::U64(s.extent_encoded_bytes as u64),
            ),
            ("extent_raw_bytes", Json::U64(s.extent_raw_bytes as u64)),
            (
                "extent_resident_bytes",
                Json::U64(s.extent_resident_bytes as u64),
            ),
            ("extents", Json::U64(s.extents as u64)),
        ])
    }
}

/// Prints the standard figure-row header.
pub fn print_row_header() {
    println!(
        "{:<18} {:<12} {:>9} {:>12} {:>12} {:>12} {:>10} {:>10} {:>7}",
        "dataset",
        "index",
        "queries",
        "pages",
        "idx-edges",
        "join-work",
        "results",
        "wall-ms",
        "buf-hit"
    );
}

/// Prints one figure row from a batch result. The `buf-hit` column is
/// the cross-query buffer pool's hit rate over the batch (`-` for
/// processors that do not expose a pool).
pub fn print_row(dataset: &str, index: &str, stats: &apex_query::BatchStats) {
    let hit = match &stats.buf {
        Some(b) => format!("{:.1}%", b.hit_rate() * 100.0),
        None => "-".to_string(),
    };
    println!(
        "{:<18} {:<12} {:>9} {:>12} {:>12} {:>12} {:>10} {:>10.1} {:>7}",
        dataset,
        index,
        stats.queries,
        stats.cost.pages_read,
        stats.cost.index_edges,
        stats.cost.join_work,
        stats.result_nodes,
        apex_query::stats::millis(stats.wall),
        hit
    );
}
