#![allow(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used)]
fn main() {
    for d in datagen::Dataset::all() {
        let big = matches!(
            d,
            datagen::Dataset::ShakesAll | datagen::Dataset::Flix03 | datagen::Dataset::Ged03
        );
        if big && std::env::args().nth(1).as_deref() != Some("--all") {
            continue;
        }
        let g = d.generate();
        println!(
            "{:<18} nodes={:>7} (paper {:>7}) edges={:>7} (paper {:>7}) labels={:>3}({}) (paper {}({}))",
            d.name(), g.node_count(), d.paper_nodes(), g.edge_count(), d.paper_edges(),
            g.label_count(), g.idref_labels().len(), d.paper_labels(), d.paper_idref_labels(),
        );
    }
}
