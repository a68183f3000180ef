//! Measures strong-DataGuide size over GedML corpus sizes (generator
//! calibration aid; see DESIGN.md "Dataset calibration").
#![allow(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used)]

fn main() {
    for n in [150usize, 360, 1310] {
        let g = datagen::gedml(n, 0x6ED01);
        match dataguide::DataGuide::build_bounded(&g, 8_000_000) {
            Some(dg) => println!(
                "gedml({n}): data {} -> SDG {} nodes / {} edges",
                g.node_count(),
                dg.node_count(),
                dg.edge_count()
            ),
            None => println!("gedml({n}): exceeded 8M states"),
        }
    }
}
