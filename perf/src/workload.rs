//! The four workloads: which surface, which dataset, which traffic,
//! and how `--seed` turns into a fixed op list. The program under
//! test only ever receives the rendered query strings.
//!
//! Work is fixed by counts, never by the clock: a workload serves a set
//! number of epochs of a set number of ops. And the *population* is
//! fixed too — the query pools come from one generator seed, every run
//! asks the same multiset of queries — while `--seed` draws the sample:
//! the order of ops inside an epoch, which heavy query or hot group an
//! epoch gets. Both rules come from measuring: the index grows a little
//! with every generation, so a run that fits more epochs into its ten
//! seconds reports another checkpoint cost; and a pool per seed gives
//! every seed its own refined index, a difference between runs that no
//! median within a run removes (5–20 % on six of the nine metrics).

use apex::Apex;
use apex_net::wire::MAX_ROW_SAMPLE;
use apex_query::apex_qp::ApexProcessor;
use apex_query::generator::{GeneratorConfig, QuerySets};
use apex_query::{Query, QueryProcessor};
use apex_storage::DataTable;
use datagen::Dataset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlgraph::XmlGraph;

use crate::cell::WINDOW;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// One thread calling `Engine::execute` in-process.
    Solo,
    /// `net::Server` over loopback TCP.
    Net { workers: usize },
    /// `shard::Router` in front of `shards` single-replica shard servers.
    Routed { shards: u16, workers: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every epoch the same `q1` QTYPE1 + `q3` QTYPE3 queries (the
    /// first of each pool) plus one QTYPE2 query that changes with the
    /// epoch, shuffled. `q1 + q3` divides the monitor window, so at
    /// every epoch boundary the window holds the same multiset and the
    /// refresh is a no-change refine.
    Mixed { q1: usize, q3: usize },
    /// The first `pool` distinct QTYPE1 queries with 1..=64 result rows
    /// (the whole answer travels), `passes` shuffled passes per epoch.
    /// `pool` divides the monitor window: same multiset at every
    /// boundary here too.
    Point { pool: usize, passes: usize },
    /// QTYPE1 with a new hot group every epoch: the distinct queries
    /// are dealt into `groups` groups, the epoch's group gets 80 % of
    /// `ops`, the whole pool the rest. A run of `groups` epochs heats
    /// every group once, whatever the seed.
    Drift { ops: usize, groups: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub surface: Surface,
    pub traffic: Traffic,
    /// Closed-loop callers (threads in-process, connections otherwise).
    pub clients: usize,
    /// Refresh and checkpoint run beside the traffic instead of
    /// between epochs with the callers paused.
    pub live_lifecycle: bool,
    /// Epochs served inside `setup_s` before the first refresh; enough
    /// to fill the monitor window and to keep `setup_s` above 2 s.
    pub warmup_epochs: usize,
    /// Serve epochs per 10 s of `--seconds` (sized on a 2-vCPU box).
    pub epochs: usize,
}

impl Spec {
    /// Serve epochs for `--seconds`: the nominal count scaled, never
    /// fewer than the lifecycle medians need.
    pub fn serve_epochs(&self, seconds: f64) -> usize {
        let scaled = (self.epochs as f64 * seconds / 10.0).round() as usize;
        scaled.max(crate::life::MIN_EPOCHS)
    }
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "solo-mixed",
        dataset: Dataset::Ged03,
        surface: Surface::Solo,
        traffic: Traffic::Mixed { q1: 225, q3: 25 },
        clients: 1,
        live_lifecycle: false,
        warmup_epochs: 4,
        epochs: 17,
    },
    Spec {
        name: "net-point",
        dataset: Dataset::Flix03,
        surface: Surface::Net { workers: 2 },
        traffic: Traffic::Point {
            pool: 125,
            passes: 16,
        },
        clients: 2,
        live_lifecycle: false,
        warmup_epochs: 20,
        epochs: 40,
    },
    Spec {
        name: "net-drift",
        dataset: Dataset::Flix03,
        surface: Surface::Net { workers: 2 },
        traffic: Traffic::Drift {
            ops: 2000,
            groups: 24,
        },
        clients: 2,
        live_lifecycle: true,
        warmup_epochs: 10,
        epochs: 24,
    },
    Spec {
        name: "routed-point",
        dataset: Dataset::Flix03,
        surface: Surface::Routed {
            shards: 2,
            workers: 1,
        },
        traffic: Traffic::Point {
            pool: 125,
            passes: 16,
        },
        clients: 2,
        live_lifecycle: false,
        warmup_epochs: 5,
        epochs: 20,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// Seed of `QuerySets::generate`: the same pools in every run.
const POOL_SEED: u64 = 0x5EED;

/// The seeded inputs of one run: a table of distinct query strings and
/// a generator of per-epoch op lists (indices into the table).
pub struct Ops {
    pub queries: Vec<String>,
    traffic: Traffic,
    seed: u64,
    /// Table indices per query class (QTYPE1, 2, 3), in pool order;
    /// `Mixed` keeps duplicates (the generator's frequencies are part of
    /// the traffic), the others are distinct.
    pools: [Vec<u32>; 3],
}

impl Ops {
    /// Builds the pools for `spec`. `apex0` is only read (to count
    /// result rows for the `Point` filter). Also returns the wall of
    /// `QuerySets::generate` alone, in milliseconds.
    pub fn generate(
        spec: &Spec,
        seed: u64,
        g: &XmlGraph,
        table: &DataTable,
        apex0: &Apex,
    ) -> (Ops, f64) {
        let t = std::time::Instant::now();
        let sets = QuerySets::generate(
            g,
            table,
            GeneratorConfig {
                seed: POOL_SEED ^ spec.dataset.paper_nodes() as u64,
                ..GeneratorConfig::default()
            },
        );
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;

        let mut ops = Ops {
            queries: Vec::new(),
            traffic: spec.traffic,
            seed,
            pools: [Vec::new(), Vec::new(), Vec::new()],
        };
        let mut ids = std::collections::HashMap::new();
        let p = ApexProcessor::new(g, apex0, table);
        let (classes, distinct, point): (&[(usize, &[Query])], bool, bool) = match spec.traffic {
            Traffic::Mixed { .. } => (
                &[(0, &sets.qtype1), (1, &sets.qtype2), (2, &sets.qtype3)],
                false,
                false,
            ),
            Traffic::Point { .. } => (&[(0, &sets.qtype1)], true, true),
            Traffic::Drift { .. } => (&[(0, &sets.qtype1)], true, false),
        };
        for &(class, set) in classes {
            for q in set {
                let text = q.render(g);
                let (id, first_sight) = match ids.get(&text) {
                    Some(&known) => (known, false),
                    None => {
                        // Keep only what the program will accept and, for
                        // point traffic, what fits the wire's row sample.
                        let usable = Query::parse(g, &text).as_ref() == Ok(q)
                            && (!point || (1..=MAX_ROW_SAMPLE).contains(&p.eval(q).nodes.len()));
                        let id = usable.then(|| {
                            ops.queries.push(text.clone());
                            ops.queries.len() as u32 - 1
                        });
                        ids.insert(text, id);
                        (id, true)
                    }
                };
                if let Some(id) = id {
                    if first_sight || !distinct {
                        ops.pools[class].push(id);
                    }
                }
            }
        }
        match spec.traffic {
            Traffic::Mixed { q1, q3 } => {
                assert!(
                    WINDOW.is_multiple_of(q1 + q3),
                    "an epoch must divide the window"
                );
                ops.pools[0].truncate(q1);
                ops.pools[2].truncate(q3);
                // One heavy query per epoch, a run's worth of them: the
                // serve epochs ask each once, from wherever the seed
                // starts the round.
                ops.pools[1].truncate(spec.epochs);
            }
            Traffic::Point { pool, .. } => {
                assert!(WINDOW.is_multiple_of(pool), "a pass must divide the window");
                assert!(ops.pools[0].len() >= pool, "too few point queries");
                ops.pools[0].truncate(pool);
            }
            Traffic::Drift { .. } => {}
        }
        (ops, generate_ms)
    }

    /// The op list of epoch `epoch` (0-based; warm-up epochs count): a
    /// function of the seed and the epoch number only.
    pub fn epoch(&self, epoch: usize) -> Vec<u32> {
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9));
        // Which heavy query / hot group epoch 0 starts on.
        let turn = self.seed as usize + epoch;
        match self.traffic {
            Traffic::Mixed { .. } => {
                let mut list = [&self.pools[0][..], &self.pools[2][..]].concat();
                list.push(self.pools[1][turn % self.pools[1].len()]);
                shuffle(&mut list, &mut rng);
                list
            }
            Traffic::Point { passes, .. } => {
                let mut list = Vec::with_capacity(passes * self.pools[0].len());
                for _ in 0..passes {
                    let at = list.len();
                    list.extend_from_slice(&self.pools[0]);
                    shuffle(&mut list[at..], &mut rng);
                }
                list
            }
            Traffic::Drift { ops, groups } => {
                let pool = &self.pools[0];
                let hot: Vec<u32> = pool
                    .iter()
                    .copied()
                    .skip(turn % groups)
                    .step_by(groups)
                    .collect();
                (0..ops)
                    .map(|_| {
                        let from = if rng.gen_bool(0.8) { &hot } else { pool };
                        from[rng.gen_range(0..from.len())]
                    })
                    .collect()
            }
        }
    }
}

pub fn shuffle(xs: &mut [u32], rng: &mut SmallRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}
