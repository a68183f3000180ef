//! Genealogy scenario: highly irregular GedML data with reference
//! cycles, where partial-matching ancestor/descendant queries
//! (`//fam//plac`, `//indi//date`, …) dominate — the workload where the
//! paper's Figure 14 shows the largest APEX wins.
//!
//! ```bash
//! cargo run -p apex-suite --example genealogy_workload --release
//! ```
#![allow(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used)]

use apex::Apex;
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::{run_batch, QueryProcessor};
use apex_query::guide_qp::GuideProcessor;
use apex_query::naive::NaiveProcessor;
use apex_query::Query;
use apex_storage::{DataTable, PageModel};
use dataguide::DataGuide;
use oneindex::OneIndex;

fn main() {
    let g = datagen::gedml(150, 77);
    println!(
        "GedML corpus: {} nodes, {} edges, {} labels ({} IDREF)",
        g.node_count(),
        g.edge_count(),
        g.label_count(),
        g.idref_labels().len()
    );
    let table = DataTable::build(&g, PageModel::default());

    // Ancestor/descendant questions a genealogy UI asks.
    let pairs = [
        ("fam", "plac"),
        ("indi", "date"),
        ("fam", "givn"),
        ("indi", "city"),
        ("fam", "surn"),
        ("birt", "plac"),
    ];
    let queries: Vec<Query> = pairs
        .iter()
        .filter_map(|(a, b)| {
            Some(Query::AncestorDescendant {
                first: g.label_id(a)?,
                last: g.label_id(b)?,
            })
        })
        .collect();

    let apex = Apex::build_initial(&g); // QTYPE2 needs no tuning: all singles
    let sdg = DataGuide::build(&g);
    let oneidx = OneIndex::build(&g);
    let naive = NaiveProcessor::new(&g, &table);

    println!(
        "\n{:<10} {:>8} {:>12} {:>10} {:>9}  (index nodes / edges traversed / joins / pages)",
        "index", "nodes", "idx-edges", "join-work", "pages"
    );
    let a = run_batch(&ApexProcessor::new(&g, &apex, &table), &queries);
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>9}",
        "APEX",
        apex.stats().nodes,
        a.cost.index_edges,
        a.cost.join_work,
        a.cost.pages_read
    );
    let s = run_batch(&GuideProcessor::new(&g, &sdg, &table), &queries);
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>9}",
        "SDG",
        sdg.node_count(),
        s.cost.index_edges,
        s.cost.join_work,
        s.cost.pages_read
    );
    let o = run_batch(&GuideProcessor::new(&g, &oneidx, &table), &queries);
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>9}",
        "1-index",
        oneidx.node_count(),
        o.cost.index_edges,
        o.cost.join_work,
        o.cost.pages_read
    );

    // Sanity: everyone agrees with direct evaluation.
    for q in &queries {
        let expect = naive.eval(q).nodes;
        assert_eq!(ApexProcessor::new(&g, &apex, &table).eval(q).nodes, expect);
        assert_eq!(GuideProcessor::new(&g, &sdg, &table).eval(q).nodes, expect);
        assert_eq!(
            GuideProcessor::new(&g, &oneidx, &table).eval(q).nodes,
            expect
        );
        println!("{:<18} -> {} nodes", q.render(&g), expect.len());
    }
    println!("\nAPEX starts its traversal at the G_APEX classes matching the first label;");
    println!("the rooted indexes must navigate from their root through the whole index.");
}
