#![allow(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used)]
fn main() {
    for (name, g) in [
        ("4trag", datagen::shakespeare_scaled(4, 0xA11CE, 1.0)),
        ("flix01", datagen::flixml(200, 0xF11F1)),
        ("ged01", datagen::gedml(360, 0x6ED01)),
    ] {
        let t = std::time::Instant::now();
        let f = fabric::IndexFabric::build(&g);
        println!(
            "{name}: keys={} trie_nodes={} blocks={} truncated={} ({:?})",
            f.key_count(),
            f.trie_nodes(),
            f.block_count(),
            f.truncated,
            t.elapsed()
        );
    }
}
