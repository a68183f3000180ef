//! Writes (small versions of) the paper's datasets to XML files and
//! re-parses them, demonstrating file-level interchange with the
//! from-scratch parser/writer.
//!
//! ```bash
//! cargo run -p apex-suite --example dump_datasets --release -- [out_dir]
//! ```
#![allow(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use xmlgraph::parser::{parse_with, ParserConfig};
use xmlgraph::writer::write_xml;

fn main() {
    let out_dir: PathBuf = std::env::args()
        .nth(1)
        .map(Into::into)
        .unwrap_or_else(std::env::temp_dir);

    let cfg = ParserConfig {
        id_attrs: vec!["id".into()],
        idref_attrs: vec![
            "sequel".into(),
            "remakeof".into(),
            "related".into(),
            "husb".into(),
            "wife".into(),
            "chil".into(),
            "famc".into(),
            "fams".into(),
            "alia".into(),
            "asso".into(),
            "subm".into(),
            "sour".into(),
            "note".into(),
            "obje".into(),
            "repo".into(),
            "anci".into(),
            "desi".into(),
        ],
    };

    let sets: [(&str, xmlgraph::XmlGraph); 3] = [
        ("mini_shakes.xml", datagen::shakespeare(1, 1)),
        ("mini_flix.xml", datagen::flixml(25, 1)),
        ("mini_ged.xml", datagen::gedml(60, 1)),
    ];

    for (name, g) in sets {
        let path = out_dir.join(name);
        let xml = write_xml(&g);
        std::fs::write(&path, &xml).expect("write dataset file");
        let reparsed = parse_with(&xml, &cfg).expect("re-parse dataset");
        println!(
            "{:<18} {:>8} bytes  {:>6} nodes -> reparsed {:>6} nodes, {:>3} labels ✓  ({})",
            name,
            xml.len(),
            g.node_count(),
            reparsed.node_count(),
            reparsed.label_count(),
            path.display()
        );
        assert_eq!(g.node_count(), reparsed.node_count());
        assert_eq!(g.edge_count(), reparsed.edge_count());
    }
    println!("\nAll datasets round-trip through the XML parser/writer.");
}
