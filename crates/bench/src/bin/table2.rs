//! Table 2: statistics of index structures — nodes/edges of the strong
//! DataGuide, APEX⁰, and APEX at minSup ∈ {0.002, 0.005, 0.01, 0.03,
//! 0.05}, plus (our extension) the 1-index and the stored extent
//! footprint of each APEX in the compressed block encoding.
//! Also writes `BENCH_table2.json` with the same rows.
//! (`cargo run -p apex-bench --release --bin table2 [--scale paper]`)
//!
//! Doubles as the persistence smoke test: the run *asserts* that every
//! APEX column survives `persist::save` → `persist::load` with the same
//! `IndexStats`, so its decoded image holds as many distinct extents as
//! the live index and reports the same bytes.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use apex::{persist, Apex, IndexStats};
use apex_bench::report::{index_row, BenchReport, Json};
use apex_bench::{Experiment, Scale, MINSUPS};

/// Asserts that `idx`, whose sizes are `s`, reads back from its
/// `persist` image with the same sizes.
fn assert_round_trip(dataset: &str, index: &str, idx: &Apex, s: &IndexStats) {
    let mut image = Vec::new();
    let loaded = persist::save(idx, &mut image)
        .ok()
        .and_then(|()| persist::load(&mut image.as_slice()).ok());
    assert_eq!(
        loaded.map(|l| l.stats()),
        Some(*s),
        "{dataset} {index}: the persist round trip differs from the live index"
    );
}

fn main() {
    let scale = Scale::from_env();
    let mut report = BenchReport::new("table2");
    println!("Table 2: statistics of index structures\n");
    println!(
        "{:<18} {:<8} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "dataset", "", "SDG", "1-index", "APEX0", "0.002", "0.005", "0.01", "0.03", "0.05"
    );
    let mut encoded_total = 0u64;
    let mut raw_total = 0u64;
    let mut resident_total = 0u64;
    for d in scale.datasets() {
        let ex = Experiment::new(d, scale);
        let sdg = ex.dataguide();
        let oneidx = ex.oneindex();
        let apexes: Vec<_> = MINSUPS.iter().map(|&ms| ex.apex_at(ms)).collect();
        let s0 = ex.apex0.stats();
        assert_round_trip(d.name(), "APEX0", &ex.apex0, &s0);
        for (ms, a) in MINSUPS.iter().zip(&apexes) {
            assert_round_trip(d.name(), &format!("APEX({ms})"), a, &a.stats());
        }
        print!(
            "{:<18} {:<8} {:>9} {:>9} {:>8}",
            d.name(),
            "nodes",
            sdg.node_count(),
            oneidx.node_count(),
            s0.nodes
        );
        for a in &apexes {
            print!(" {:>8}", a.stats().nodes);
        }
        println!();
        print!(
            "{:<18} {:<8} {:>9} {:>9} {:>8}",
            "",
            "edges",
            sdg.edge_count(),
            oneidx.edge_count(),
            s0.edges
        );
        for a in &apexes {
            print!(" {:>8}", a.stats().edges);
        }
        println!();
        // Stored extent footprint: compressed blocks vs 8 bytes/pair.
        print!(
            "{:<18} {:<8} {:>9} {:>9} {:>8}",
            "",
            "enc-KiB",
            "-",
            "-",
            s0.extent_encoded_bytes / 1024
        );
        for a in &apexes {
            print!(" {:>8}", a.stats().extent_encoded_bytes / 1024);
        }
        println!();
        print!(
            "{:<18} {:<8} {:>9} {:>9} {:>7}%",
            "",
            "enc/raw",
            "-",
            "-",
            100 * s0.extent_encoded_bytes / s0.extent_raw_bytes.max(1)
        );
        for a in &apexes {
            let s = a.stats();
            print!(
                " {:>7}%",
                100 * s.extent_encoded_bytes / s.extent_raw_bytes.max(1)
            );
        }
        println!();
        // Queryable in-memory footprint of the stored form (payload +
        // frame and block headers).
        print!(
            "{:<18} {:<8} {:>9} {:>9} {:>8}",
            "",
            "res-KiB",
            "-",
            "-",
            s0.extent_resident_bytes / 1024
        );
        for a in &apexes {
            print!(" {:>8}", a.stats().extent_resident_bytes / 1024);
        }
        println!();
        // Distinct extents held: one per content, however many classes
        // share it.
        print!(
            "{:<18} {:<8} {:>9} {:>9} {:>8}",
            "", "extents", "-", "-", s0.extents
        );
        for a in &apexes {
            print!(" {:>8}", a.stats().extents);
        }
        println!();

        report.push(Json::Obj(vec![
            ("dataset", Json::str(d.name())),
            ("index", Json::str("SDG")),
            ("nodes", Json::U64(sdg.node_count() as u64)),
            ("edges", Json::U64(sdg.edge_count() as u64)),
        ]));
        report.push(Json::Obj(vec![
            ("dataset", Json::str(d.name())),
            ("index", Json::str("1-index")),
            ("nodes", Json::U64(oneidx.node_count() as u64)),
            ("edges", Json::U64(oneidx.edge_count() as u64)),
        ]));
        report.push(index_row(d.name(), "APEX0", &s0));
        encoded_total += s0.extent_encoded_bytes as u64;
        raw_total += s0.extent_raw_bytes as u64;
        resident_total += s0.extent_resident_bytes as u64;
        for (ms, a) in MINSUPS.iter().zip(&apexes) {
            let s = a.stats();
            let mut row = index_row(d.name(), &format!("APEX({ms})"), &s);
            if let Json::Obj(fields) = &mut row {
                fields.push(("min_sup", Json::F64(*ms)));
            }
            report.push(row);
            encoded_total += s.extent_encoded_bytes as u64;
            raw_total += s.extent_raw_bytes as u64;
            resident_total += s.extent_resident_bytes as u64;
        }
    }
    println!(
        "\ntotal APEX extent bytes: {encoded_total} encoded / {raw_total} raw ({}%), {resident_total} resident",
        100 * encoded_total / raw_total.max(1)
    );
    report.meta("extent_encoded_bytes_total", Json::U64(encoded_total));
    report.meta("extent_raw_bytes_total", Json::U64(raw_total));
    report.meta("extent_resident_bytes_total", Json::U64(resident_total));
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    println!("(APEX columns are minSup values, built from the 20% QTYPE1 workload sample)");
}
