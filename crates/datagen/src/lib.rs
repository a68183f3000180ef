//! # datagen — synthetic datasets for the APEX reproduction
//!
//! The paper evaluates on three families (Table 1):
//!
//! * **Shakespeare plays** (Bosak) — pure trees with a small label set
//!   and *minor* irregularity; three sizes (4 / 11 / all plays);
//! * **FlixML** (B-movie reviews, via IBM's XML Generator) — *moderately*
//!   irregular graphs with 3 IDREF-typed labels and a handful of
//!   reference edges;
//! * **GedML** (genealogy) — *highly* irregular graphs with 14
//!   IDREF-typed labels and reference edges amounting to ~15 % of all
//!   edges (cycles abound).
//!
//! We cannot ship the 2002 files, so [`shakespeare()`], [`flixml()`]
//! and [`gedml()`] generate deterministic (seeded) graphs from DTD-like
//! grammars that reproduce the three properties the evaluation depends
//! on: the node/edge/label counts of Table 1 (±15 %), the IDREF label
//! counts, and the irregularity gradient Play < Flix < Ged. The
//! [`Dataset`] enum enumerates the paper's nine instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flixml;
pub mod gedml;
pub mod names;
pub mod shakespeare;

pub use flixml::flixml;
pub use gedml::gedml;
pub use shakespeare::{shakespeare, shakespeare_scaled};

use xmlgraph::{GraphBuilder, NodeId, XmlGraph};

/// Registers a generator-assigned id. Generator ids are sequence-numbered
/// (`S0`, `F3`, …) and therefore unique by construction; a collision is a
/// bug in the generator, not an input condition.
#[expect(
    clippy::expect_used,
    reason = "generator-internal invariant (sequence-numbered ids), not input-dependent"
)]
pub(crate) fn register_unique(b: &mut GraphBuilder, node: NodeId, id: &str) {
    b.register_id(node, id).expect("generator ids are unique");
}

/// Finalizes a generated graph. Every reference the generators emit
/// targets an id registered in the same pass, so resolution cannot fail.
#[expect(
    clippy::expect_used,
    reason = "generator-internal invariant (references target generated ids)"
)]
pub(crate) fn finish_generated(b: GraphBuilder) -> XmlGraph {
    b.finish().expect("generated references resolve")
}

/// The nine datasets of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Hamlet + Macbeth + Othello + Lear (4 plays).
    FourTragedy,
    /// Eleven plays.
    Shakes11,
    /// All plays.
    ShakesAll,
    /// Small FlixML.
    Flix01,
    /// Medium FlixML.
    Flix02,
    /// Large FlixML.
    Flix03,
    /// Small GedML.
    Ged01,
    /// Medium GedML.
    Ged02,
    /// Large GedML.
    Ged03,
}

impl Dataset {
    /// All nine, in Table 1 order.
    pub fn all() -> [Dataset; 9] {
        use Dataset::*;
        [
            FourTragedy,
            Shakes11,
            ShakesAll,
            Flix01,
            Flix02,
            Flix03,
            Ged01,
            Ged02,
            Ged03,
        ]
    }

    /// The paper's file name for the dataset.
    pub fn name(self) -> &'static str {
        use Dataset::*;
        match self {
            FourTragedy => "four_tragedy.xml",
            Shakes11 => "shakes_11.xml",
            ShakesAll => "shakes_all.xml",
            Flix01 => "Flix01.xml",
            Flix02 => "Flix02.xml",
            Flix03 => "Flix03.xml",
            Ged01 => "Ged01.xml",
            Ged02 => "Ged02.xml",
            Ged03 => "Ged03.xml",
        }
    }

    /// Node count reported in Table 1 (for EXPERIMENTS.md comparisons).
    pub fn paper_nodes(self) -> usize {
        use Dataset::*;
        match self {
            FourTragedy => 22_791,
            Shakes11 => 48_818,
            ShakesAll => 179_691,
            Flix01 => 14_734,
            Flix02 => 41_691,
            Flix03 => 335_401,
            Ged01 => 8_259,
            Ged02 => 30_875,
            Ged03 => 381_046,
        }
    }

    /// Edge count reported in Table 1.
    pub fn paper_edges(self) -> usize {
        use Dataset::*;
        match self {
            FourTragedy => 22_790,
            Shakes11 => 48_817,
            ShakesAll => 179_690,
            Flix01 => 14_763,
            Flix02 => 41_723,
            Flix03 => 335_432,
            Ged01 => 9_699,
            Ged02 => 36_228,
            Ged03 => 447_524,
        }
    }

    /// Label count reported in Table 1 (distinct labels).
    pub fn paper_labels(self) -> usize {
        use Dataset::*;
        match self {
            FourTragedy => 17,
            Shakes11 => 21,
            ShakesAll => 22,
            Flix01 => 62,
            Flix02 => 64,
            Flix03 => 70,
            Ged01 => 65,
            Ged02 => 77,
            Ged03 => 84,
        }
    }

    /// IDREF-typed label count reported in Table 1.
    pub fn paper_idref_labels(self) -> usize {
        use Dataset::*;
        match self {
            FourTragedy | Shakes11 | ShakesAll => 0,
            Flix01 | Flix02 | Flix03 => 3,
            Ged01 | Ged02 | Ged03 => 14,
        }
    }

    /// True for the tree-structured Shakespeare family.
    pub fn is_tree(self) -> bool {
        matches!(
            self,
            Dataset::FourTragedy | Dataset::Shakes11 | Dataset::ShakesAll
        )
    }

    /// Generates the dataset (deterministic; seeds are fixed per dataset).
    pub fn generate(self) -> XmlGraph {
        use Dataset::*;
        match self {
            FourTragedy => shakespeare_scaled(4, 0xA11CE, 1.00),
            Shakes11 => shakespeare_scaled(11, 0xA11CE, 0.79),
            ShakesAll => shakespeare_scaled(38, 0xA11CE, 0.82),
            Flix01 => flixml(200, 0xF11F1),
            Flix02 => flixml(565, 0xF11F2),
            Flix03 => flixml(4540, 0xF11F3),
            Ged01 => gedml(360, 0x6ED01),
            Ged02 => gedml(1310, 0x6ED02),
            Ged03 => gedml(16100, 0x6ED03),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::paths::EnumLimits;
    use xmlgraph::stats::{check_invariants, GraphStats};

    fn within(actual: usize, target: usize, tol: f64) -> bool {
        let lo = (target as f64 * (1.0 - tol)) as usize;
        let hi = (target as f64 * (1.0 + tol)) as usize;
        (lo..=hi).contains(&actual)
    }

    #[test]
    fn small_datasets_match_table1_within_15pct() {
        for d in [Dataset::FourTragedy, Dataset::Flix01, Dataset::Ged01] {
            let g = d.generate();
            assert!(
                within(g.node_count(), d.paper_nodes(), 0.15),
                "{}: nodes {} vs paper {}",
                d.name(),
                g.node_count(),
                d.paper_nodes()
            );
            assert!(
                within(g.edge_count(), d.paper_edges(), 0.15),
                "{}: edges {} vs paper {}",
                d.name(),
                g.edge_count(),
                d.paper_edges()
            );
            assert_eq!(
                g.idref_labels().len(),
                d.paper_idref_labels(),
                "{}",
                d.name()
            );
        }
    }

    #[test]
    fn label_counts_close_to_table1() {
        for d in [Dataset::FourTragedy, Dataset::Flix01, Dataset::Ged01] {
            let g = d.generate();
            let diff = (g.label_count() as i64 - d.paper_labels() as i64).abs();
            assert!(
                diff <= 6,
                "{}: labels {} vs paper {}",
                d.name(),
                g.label_count(),
                d.paper_labels()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::Flix01.generate();
        let b = Dataset::Flix01.generate();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn invariants_hold_for_small_datasets() {
        for d in [Dataset::FourTragedy, Dataset::Flix01, Dataset::Ged01] {
            let g = d.generate();
            let problems = check_invariants(&g);
            assert!(problems.is_empty(), "{}: {problems:?}", d.name());
        }
    }

    #[test]
    fn irregularity_gradient_play_flix_ged() {
        // Distinct rooted paths per node must grow Play < Flix < Ged.
        let limits = EnumLimits {
            max_len: 8,
            max_paths: 50_000,
        };
        let play = GraphStats::compute(&Dataset::FourTragedy.generate(), limits);
        let flix = GraphStats::compute(&Dataset::Flix01.generate(), limits);
        let ged = GraphStats::compute(&Dataset::Ged01.generate(), limits);
        let density = |s: &GraphStats| s.distinct_rooted_paths as f64 / s.labels as f64;
        assert!(
            density(&play) < density(&flix),
            "play {} !< flix {}",
            density(&play),
            density(&flix)
        );
        assert!(
            density(&flix) < density(&ged),
            "flix {} !< ged {}",
            density(&flix),
            density(&ged)
        );
        // Trees have zero reference edges; Ged has many more than Flix.
        assert_eq!(play.ref_edges, 0);
        assert!(ged.ref_edges > flix.ref_edges * 5);
    }

    #[test]
    fn trees_are_trees() {
        let g = Dataset::FourTragedy.generate();
        assert_eq!(g.edge_count(), g.node_count() - 1);
        assert!(g.idref_labels().is_empty());
    }
}
