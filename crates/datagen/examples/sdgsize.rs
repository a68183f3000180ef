#![allow(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used)]
fn main() {
    for (name, g) in [
        ("ged150", datagen::gedml(150, 77)),
        ("ged360", datagen::gedml(360, 0x6ED01)),
        ("flix200", datagen::flixml(200, 0xF11F1)),
    ] {
        let t = std::time::Instant::now();
        match dataguide::DataGuide::build_bounded(&g, 5_000_000) {
            Some(dg) => println!(
                "{name}: data {} nodes -> SDG {} nodes / {} edges ({:?})",
                g.node_count(),
                dg.node_count(),
                dg.edge_count(),
                t.elapsed()
            ),
            None => println!("{name}: SDG exceeded limit"),
        }
    }
}
