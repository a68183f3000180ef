//! Semijoin kernel microbenchmark: linear merge vs galloping search vs
//! block-skip probing across end/extent size ratios 1:1 … 1:10⁴, on the
//! edge relation of each small-scale dataset family (Play / Flix / Ged).
//!
//! For every (dataset, ratio) the three fixed kernels run over the same
//! inputs and report their logical `work` (comparisons), `pairs_read`
//! (pairs resident in faulted blocks) and `decoded` (pairs actually
//! unpacked from the frames); the adaptive policy then picks a kernel
//! from the size ratio alone. The run *asserts* that the adaptive
//! pick's work never exceeds 1.5× the best fixed kernel (plus a
//! constant slack for degenerate tiny inputs) — the guarantee the query
//! processors rely on when they delegate the access path choice.
//!
//! The same sweep then races the two extent representations on wall
//! clock with the adaptive kernel: the *stored* path queries the
//! 128-pair bit-packed frames directly (rank/select block headers, a
//! binary search over frame headers and packed parents, whole-frame
//! unpacking into a bounded window), while the *full-decode* baseline
//! pays a whole-extent decode into a `Vec` before running the
//! pair-slice reference semijoin (`EdgeSet::semijoin_ends` /
//! `probe_by_parents`). Asserted per row: the stored path is strictly
//! faster at every ratio ≥ 1:10, within 5% at 1:1, and its resident
//! bytes stay ≤ ⅓ of the decoded-`Vec` baseline (8 bytes/pair).
//!
//! Also writes `BENCH_kernels.json` with one row per (dataset, ratio),
//! including `resident_bytes`, `decoded_pairs` and the timed columns.
//!
//! (`cargo run -p apex-bench --release --bin kernels`)
#![allow(clippy::print_stdout, clippy::print_stderr)]

use apex_bench::report::{BenchReport, Json};
use apex_storage::kernels::{semijoin_into, Kernel, KernelPolicy, SemijoinScratch};
use apex_storage::{EdgePair, EdgeSet, SuccinctExtent};
use datagen::Dataset;
use std::time::Instant;
use xmlgraph::NodeId;

const RATIOS: [usize; 5] = [1, 10, 100, 1_000, 10_000];
const SLACK: usize = 32;
/// Timing samples per measurement; the minimum is reported.
const SAMPLES: usize = 15;
/// Target nanoseconds per sample — inner repetitions scale up until a
/// sample takes at least this long, so tiny inputs still time stably.
const SAMPLE_TARGET_NS: u64 = 400_000;

/// The dataset's full edge relation as one extent (every `G_APEX⁰`
/// extent is a subset of it; this is the largest join target the
/// dataset can produce).
fn edge_relation(d: Dataset) -> SuccinctExtent {
    let g = d.generate();
    let raw: Vec<(u32, u32)> = g.edges().map(|(from, _, to)| (from.0, to.0)).collect();
    SuccinctExtent::from_pairs(EdgeSet::from_raw(&raw).pairs())
}

/// Every `ratio`-th distinct parent of the extent — sorted, distinct
/// ends that actually hit, shrinking the driving side by `ratio`.
fn sample_ends(extent: &SuccinctExtent, ratio: usize) -> Vec<NodeId> {
    let mut parents: Vec<NodeId> = extent.to_vec().iter().map(|p| p.parent).collect();
    parents.dedup();
    parents.into_iter().step_by(ratio).collect()
}

/// Min-of-`SAMPLES` wall-clock nanoseconds per call of `a` and of `b`,
/// with inner repetitions auto-scaled so each sample runs at least
/// `SAMPLE_TARGET_NS`. The two alternate sample by sample, so a load
/// change on a shared machine lands on both sides of the race.
fn race_ns(mut a: impl FnMut(), mut b: impl FnMut()) -> (u64, u64) {
    let reps_for = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        let once = (t.elapsed().as_nanos() as u64).max(1);
        (SAMPLE_TARGET_NS / once).clamp(1, 50_000)
    };
    let (ra, rb) = (reps_for(&mut a), reps_for(&mut b));
    let sample = |f: &mut dyn FnMut(), reps: u64| {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_nanos() as u64 / reps
    };
    let (mut best_a, mut best_b) = (u64::MAX, u64::MAX);
    for _ in 0..SAMPLES {
        best_a = best_a.min(sample(&mut a, ra));
        best_b = best_b.min(sample(&mut b, rb));
    }
    (best_a, best_b)
}

fn main() {
    let mut report = BenchReport::new("kernels");
    println!("Kernel microbench: semijoin work by end:extent ratio\n");
    println!(
        "{:<14} {:>7} {:>9} {:>7} {:>12} {:>12} {:>12} | {:<10} {:>12} {:>10} | {:>10} {:>10} {:>8}",
        "dataset",
        "ratio",
        "extent",
        "ends",
        "merge",
        "gallop",
        "block-skip",
        "adaptive",
        "work",
        "decoded",
        "succ-ns",
        "full-ns",
        "resident"
    );
    let mut scratch = SemijoinScratch::new();
    for d in [Dataset::FourTragedy, Dataset::Flix01, Dataset::Ged01] {
        let extent = edge_relation(d);
        let bx = extent.image();
        let resident = extent.resident_bytes();
        let raw_bytes = extent.len() * std::mem::size_of::<EdgePair>();
        assert!(
            resident * 3 <= raw_bytes,
            "{}: stored resident {resident} B exceeds 1/3 of the {raw_bytes} B decoded-Vec baseline",
            d.name(),
        );
        for ratio in RATIOS {
            let ends = sample_ends(&extent, ratio);
            let mut works = Vec::new();
            let mut reads = Vec::new();
            for kernel in [Kernel::Merge, Kernel::Gallop, Kernel::BlockSkip] {
                let r = semijoin_into(kernel, &extent, &ends, &mut scratch);
                works.push(r.work);
                reads.push(r.pairs_read);
            }
            let picked = KernelPolicy::Adaptive.choose(ends.len(), &extent);
            let adaptive = semijoin_into(picked, &extent, &ends, &mut scratch);
            let best = works.iter().copied().min().unwrap_or(0);
            assert!(
                adaptive.work <= best + best / 2 + SLACK,
                "{} ratio 1:{ratio}: adaptive ({}, work {}) worse than 1.5x best fixed kernel (work {best})",
                d.name(),
                picked.name(),
                adaptive.work,
            );
            // Race the representations under the adaptive kernel.
            let (succ_ns, full_ns) = race_ns(
                || {
                    let r = semijoin_into(picked, &extent, &ends, &mut scratch);
                    std::hint::black_box(r.work);
                },
                || {
                    let full = EdgeSet::from_sorted(bx.decode());
                    let (hit, work) = match picked {
                        Kernel::Merge => full.semijoin_ends(&ends),
                        Kernel::Gallop | Kernel::BlockSkip => full.probe_by_parents(&ends),
                    };
                    std::hint::black_box((hit.len(), work));
                },
            );
            if ratio >= 10 {
                assert!(
                    succ_ns < full_ns,
                    "{} ratio 1:{ratio}: stored path ({succ_ns} ns) not faster than full decode ({full_ns} ns)",
                    d.name(),
                );
            } else {
                assert!(
                    succ_ns <= full_ns + full_ns / 20,
                    "{} ratio 1:{ratio}: stored path ({succ_ns} ns) more than 5% behind full decode ({full_ns} ns)",
                    d.name(),
                );
            }
            println!(
                "{:<14} {:>7} {:>9} {:>7} {:>12} {:>12} {:>12} | {:<10} {:>12} {:>10} | {:>10} {:>10} {:>8}",
                d.name(),
                format!("1:{ratio}"),
                extent.len(),
                ends.len(),
                works[0],
                works[1],
                works[2],
                picked.name(),
                adaptive.work,
                adaptive.decoded,
                succ_ns,
                full_ns,
                resident,
            );
            report.push(Json::Obj(vec![
                ("dataset", Json::str(d.name())),
                ("ratio", Json::U64(ratio as u64)),
                ("extent_pairs", Json::U64(extent.len() as u64)),
                ("extent_blocks", Json::U64(bx.num_blocks() as u64)),
                ("extent_encoded_bytes", Json::U64(bx.encoded_bytes() as u64)),
                ("resident_bytes", Json::U64(resident as u64)),
                ("decoded_vec_bytes", Json::U64(raw_bytes as u64)),
                ("ends", Json::U64(ends.len() as u64)),
                ("merge_work", Json::U64(works[0] as u64)),
                ("gallop_work", Json::U64(works[1] as u64)),
                ("block_skip_work", Json::U64(works[2] as u64)),
                ("merge_pairs_read", Json::U64(reads[0] as u64)),
                ("gallop_pairs_read", Json::U64(reads[1] as u64)),
                ("block_skip_pairs_read", Json::U64(reads[2] as u64)),
                ("adaptive_kernel", Json::str(picked.name())),
                ("adaptive_work", Json::U64(adaptive.work as u64)),
                ("adaptive_pairs_read", Json::U64(adaptive.pairs_read as u64)),
                ("decoded_pairs", Json::U64(adaptive.decoded as u64)),
                ("succinct_ns", Json::U64(succ_ns)),
                ("full_decode_ns", Json::U64(full_ns)),
            ]));
        }
        println!();
    }
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    println!("adaptive picker stayed within 1.5x of the best fixed kernel on every row");
    println!("stored path beat the full-decode baseline at every ratio >= 1:10 (parity at 1:1)");
}
