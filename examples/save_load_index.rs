//! Index persistence: build + refine an APEX index, save it to disk,
//! load it back, and verify lookups and extents survive the round trip.
//!
//! ```bash
//! cargo run -p apex-suite --example save_load_index --release
//! ```
#![allow(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used)]

use std::fs::File;
use std::io::{BufReader, BufWriter};

use apex::{persist, Apex, Workload};
use xmlgraph::LabelPath;

fn main() {
    let g = datagen::gedml(120, 7);
    let mut index = Apex::build_initial(&g);
    let wl = Workload::parse(&g, &["indi.birt.date", "fam.marr.plac", "indi.name.surn"])
        .expect("labels exist");
    index.refine(&g, &wl, 0.2);
    let stats = index.stats();
    println!("built: {stats:?}");

    let mut path = std::env::temp_dir();
    path.push(format!("apex-demo-{}.idx", std::process::id()));

    // Save.
    let mut w = BufWriter::new(File::create(&path).expect("create index file"));
    persist::save(&index, &mut w).expect("save index");
    drop(w);
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!("saved {} bytes to {}", bytes, path.display());

    // Load.
    let mut r = BufReader::new(File::open(&path).expect("open index file"));
    let loaded = persist::load(&mut r).expect("load index");
    println!("loaded: {:?}", loaded.stats());

    assert_eq!(index.stats(), loaded.stats());
    for p in [
        "indi.birt.date",
        "fam.marr.plac",
        "indi.name.surn",
        "date",
        "plac",
    ] {
        let path = LabelPath::parse(&g, p).expect("path");
        let a = index.lookup(path.labels());
        let b = loaded.lookup(path.labels());
        assert_eq!(a.matched_len, b.matched_len);
        assert_eq!(
            a.xnode.map(|x| index.extent(x).len()),
            b.xnode.map(|x| loaded.extent(x).len())
        );
        println!("  lookup {p:<18} matched {} label(s) ✓", a.matched_len);
    }

    let _ = std::fs::remove_file(&path);
    println!("round trip verified ✓");
}
