//! GedML-like generator: genealogy graphs with *high* irregularity and 14
//! IDREF-typed labels whose reference edges form dense cycles (Table 1's
//! Ged rows: ~17 % of all edges are references).

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlgraph::{GraphBuilder, NodeId, XmlGraph};

use crate::names;

/// Generates a GedML-like graph with `individuals` INDI records (plus
/// `individuals / 2.5` FAM records and a few SOUR/NOTE/OBJE/REPO/SUBM
/// records).
///
/// The 14 IDREF-typed labels are `@husb`, `@wife`, `@chil`, `@famc`,
/// `@fams`, `@alia`, `@asso`, `@subm`, `@sour`, `@note`, `@obje`,
/// `@repo`, `@anci`, `@desi`. Optional event vocabularies grow with
/// corpus size (65 → 77 → 84 labels).
pub fn gedml(individuals: usize, seed: u64) -> XmlGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new("gedcom");
    let root = b.root();

    let tier = if individuals >= 5000 {
        2
    } else if individuals >= 800 {
        1
    } else {
        0
    };
    let families = (individuals as f64 / 2.5).ceil() as usize;

    // Header and shared records (targets for the rarer reference kinds).
    let head = b.add_child(root, "head");
    let gedc = b.add_child(head, "gedc");
    b.add_value_child(gedc, "vers", "5.5");
    b.add_value_child(head, "lang", "English");
    b.add_value_child(head, "dest", "ANSTFILE");

    let subm = b.add_child(root, "subm");
    crate::register_unique(&mut b, subm, "SUB1");
    b.add_value_child(subm, "name", "Generated Archive");
    b.add_value_child(subm, "corp", "Archive Corp");

    let n_sours = 4.max(individuals / 100);
    for i in 0..n_sours {
        let s = b.add_child(root, "sour");
        crate::register_unique(&mut b, s, &format!("S{i}"));
        b.add_value_child(s, "titl", &format!("Parish register {i}"));
        b.add_value_child(s, "auth", &names::person(&mut rng));
        b.add_value_child(s, "publ", "County Press");
        b.add_value_child(s, "page", &format!("{}", i + 1));
    }
    let n_notes = 3.max(individuals / 200);
    for i in 0..n_notes {
        let n = b.add_child(root, "note");
        crate::register_unique(&mut b, n, &format!("N{i}"));
        b.add_value_child(n, "text", &names::verse(&mut rng));
    }
    let n_objes = 2.max(individuals / 400);
    for i in 0..n_objes {
        let o = b.add_child(root, "obje");
        crate::register_unique(&mut b, o, &format!("O{i}"));
        b.add_value_child(o, "form", "jpeg");
        b.add_value_child(o, "file", &format!("img{i}.jpg"));
    }
    let n_repos = 2.max(individuals / 500);
    for i in 0..n_repos {
        let r = b.add_child(root, "repo");
        crate::register_unique(&mut b, r, &format!("R{i}"));
        b.add_value_child(r, "name", "County Archive");
    }

    // Spouse assignments first, so @fams on individuals is exactly the
    // inverse of @husb/@wife on families (real GEDCOM consistency — and
    // what keeps the strong DataGuide's subset construction near the
    // paper's Table 2 sizes instead of exploding).
    // Marriages form a forest of small lineage clusters, each a few
    // generations deep, with near-monogamous spouses drawn from the
    // previous generation of the same cluster. This mirrors real GEDCOM
    // exports (aggregations of shallow family trees). Without the
    // cluster/generation bounds, descent walks (@chil -> @fams -> @chil
    // ...) are unbounded and the strong DataGuide's subset construction
    // explodes far beyond the paper's Table 2 sizes.
    // Per family: its husband and wife. A stub family (below) keeps
    // individual 0 in both slots.
    let mut spouses: Vec<(Option<usize>, Option<usize>)> = vec![(Some(0), Some(0)); families];
    let mut fams_map: Vec<Vec<usize>> = vec![Vec::new(); individuals];
    {
        // Shuffled per-(cluster, generation) spouse pools with cursors.
        let gens = gens_for(individuals);
        let n_bands = cluster_count(individuals) * gens;
        let mut pools: Vec<Vec<usize>> = vec![Vec::new(); n_bands];
        for i in 0..individuals {
            if let Some(pool) = pools.get_mut(band_index(i, individuals)) {
                pool.push(i);
            }
        }
        for pool in &mut pools {
            for i in (1..pool.len()).rev() {
                pool.swap(i, rng.gen_range(0..=i));
            }
        }
        let mut cursors = vec![0usize; n_bands];
        for f in 0..families {
            // The band of this family's children, and its parent band.
            let child_center = (f * individuals / families.max(1)).min(individuals - 1);
            let child_band = band_index(child_center, individuals);
            if child_band.is_multiple_of(gens) && f + 1 != families {
                // Stub family (its proportional child block consists of
                // founders, who carry no FAMC): no spouses either. The
                // last family is always fully populated so the @husb and
                // @wife labels are guaranteed to exist.
                continue;
            }
            let parent_band = if child_band.is_multiple_of(gens) {
                child_band // last-family fallback on a founder band
            } else {
                child_band - 1
            };
            // Strict monogamy: exhausted pools leave the slot empty
            // instead of remarrying (polygamy would let spouse-family
            // alternations drift across the marriage network).
            let mut take = || -> Option<usize> {
                let cursor = cursors.get_mut(parent_band)?;
                let v = *pools.get(parent_band)?.get(*cursor)?;
                *cursor += 1;
                Some(v)
            };
            let pair = (take(), take());
            if let Some(slot) = spouses.get_mut(f) {
                *slot = pair;
            }
            for spouse in [pair.0, pair.1].into_iter().flatten() {
                if let Some(fams) = fams_map.get_mut(spouse) {
                    fams.push(f);
                }
            }
        }
    }

    // Individuals.
    let mut indis: Vec<NodeId> = Vec::with_capacity(individuals);
    for (i, fams) in fams_map.iter().enumerate() {
        let indi = gen_indi(
            &mut b,
            root,
            &mut rng,
            i,
            tier,
            individuals,
            families,
            n_sours,
            n_notes,
            n_objes,
            n_repos,
            fams,
        );
        crate::register_unique(&mut b, indi, &format!("I{i}"));
        indis.push(indi);
    }

    // Families. References are *local* (generational blocks): family f's
    // children are the consecutive individuals whose famc is f, and its
    // parents come from a nearby window. Real genealogies have this
    // locality; fully random references would make the strong DataGuide's
    // subset construction blow up far beyond the paper's Table 2 sizes.
    // `famc_of` is monotone in the individual, so one cursor walks each
    // family's run of children once.
    let mut child = 0usize;
    for (f, &(husb, wife)) in spouses.iter().enumerate() {
        let fam = b.add_child(root, "fam");
        crate::register_unique(&mut b, fam, &format!("F{f}"));
        if let Some(h) = husb {
            b.add_idref(fam, "husb", &format!("I{h}"));
        }
        if let Some(w) = wife {
            b.add_idref(fam, "wife", &format!("I{w}"));
        }
        while child < individuals && famc_of(child, individuals, families) == f {
            if gen_of(child, individuals) > 0 {
                b.add_idref(fam, "chil", &format!("I{child}"));
            }
            child += 1;
        }
        if rng.gen_bool(0.8) {
            let marr = b.add_child(fam, "marr");
            b.add_value_child(marr, "date", &names::date(&mut rng));
            b.add_value_child(marr, "plac", names::pick(&mut rng, names::PLACES));
        }
        if rng.gen_bool(0.08) {
            let div = b.add_child(fam, "div");
            b.add_value_child(div, "date", &names::date(&mut rng));
        }
        if f == 0 || rng.gen_bool(0.12) {
            let enga = b.add_child(fam, "enga");
            b.add_value_child(enga, "date", &names::date(&mut rng));
        }
        if f == 0 || rng.gen_bool(0.05) {
            b.add_idref(fam, "subm", "SUB1");
        }
    }

    crate::finish_generated(b)
}

/// One INDI record. Heavily optional: the hallmark of GedML irregularity.
#[allow(clippy::too_many_arguments)]
fn gen_indi(
    b: &mut GraphBuilder,
    root: NodeId,
    rng: &mut SmallRng,
    no: usize,
    tier: usize,
    individuals: usize,
    families: usize,
    n_sours: usize,
    n_notes: usize,
    n_objes: usize,
    n_repos: usize,
    fams: &[usize],
) -> NodeId {
    // The last record exercises the full tier alphabet (it is never a
    // founder, so every reference label including @famc appears).
    let force = no + 1 == individuals;
    let indi = b.add_child(root, "indi");

    let name = b.add_child(indi, "name");
    b.add_value_child(name, "givn", names::pick(rng, names::FIRST_NAMES));
    b.add_value_child(name, "surn", names::pick(rng, names::LAST_NAMES));
    b.add_value_child(indi, "sex", if rng.gen_bool(0.5) { "M" } else { "F" });

    // Birth is nearly universal; everything else is spotty.
    if force || rng.gen_bool(0.95) {
        let birt = b.add_child(indi, "birt");
        b.add_value_child(birt, "date", &names::date(rng));
        if rng.gen_bool(0.8) {
            b.add_value_child(birt, "plac", names::pick(rng, names::PLACES));
        }
    }
    if force || rng.gen_bool(0.55) {
        let deat = b.add_child(indi, "deat");
        b.add_value_child(deat, "date", &names::date(rng));
        if rng.gen_bool(0.6) {
            b.add_value_child(deat, "plac", names::pick(rng, names::PLACES));
        }
        if rng.gen_bool(0.5) {
            let buri = b.add_child(indi, "buri");
            b.add_value_child(buri, "date", &names::date(rng));
            b.add_value_child(buri, "plac", names::pick(rng, names::PLACES));
        }
    }
    if force || rng.gen_bool(0.35) {
        let bapm = b.add_child(indi, "bapm");
        b.add_value_child(bapm, "date", &names::date(rng));
    }
    if force || rng.gen_bool(0.35) {
        b.add_value_child(indi, "occu", "farmer");
    }
    if force || rng.gen_bool(0.4) {
        let resi = b.add_child(indi, "resi");
        let addr = b.add_child(resi, "addr");
        b.add_value_child(addr, "city", names::pick(rng, names::PLACES));
        if rng.gen_bool(0.5) {
            b.add_value_child(addr, "stae", "Westmark");
        }
        b.add_value_child(addr, "ctry", "Freedonia");
        if force || rng.gen_bool(0.3) {
            b.add_value_child(addr, "phon", "none");
        }
    }
    if force || rng.gen_bool(0.3) {
        let even = b.add_child(indi, "even");
        b.add_value_child(even, "type", "census");
        b.add_value_child(even, "date", &names::date(rng));
    }
    if force || rng.gen_bool(0.2) {
        b.add_value_child(indi, "reli", "Reformed");
    }
    if force || rng.gen_bool(0.15) {
        b.add_value_child(indi, "educ", "parish school");
    }
    // Change-tracking record (universal in GEDCOM exports).
    {
        let chan = b.add_child(indi, "chan");
        b.add_value_child(chan, "date", &names::date(rng));
    }
    if force || rng.gen_bool(0.25) {
        b.add_value_child(indi, "age", &format!("{}", rng.gen_range(1..95)));
    }
    if force || rng.gen_bool(0.2) {
        b.add_value_child(indi, "cause", "fever");
    }
    if force || rng.gen_bool(0.12) {
        let fact = b.add_child(indi, "fact");
        b.add_value_child(fact, "type", "heraldry");
    }
    if force || rng.gen_bool(0.08) {
        b.add_value_child(indi, "idno", &format!("{}", rng.gen_range(1000..9999)));
    }
    if force || rng.gen_bool(0.08) {
        b.add_value_child(indi, "afn", &format!("{}", rng.gen_range(100000..999999)));
    }

    // Tier 1 extras.
    if tier >= 1 {
        if force || rng.gen_bool(0.12) {
            let chr = b.add_child(indi, "chr");
            b.add_value_child(chr, "date", &names::date(rng));
        }
        if force || rng.gen_bool(0.08) {
            let adop = b.add_child(indi, "adop");
            b.add_value_child(adop, "date", &names::date(rng));
        }
        if force || rng.gen_bool(0.08) {
            b.add_value_child(indi, "nati", "Freedonian");
        }
        if force || rng.gen_bool(0.06) {
            let emig = b.add_child(indi, "emig");
            b.add_value_child(emig, "date", &names::date(rng));
            b.add_value_child(emig, "plac", names::pick(rng, names::PLACES));
        }
        if force || rng.gen_bool(0.06) {
            let immi = b.add_child(indi, "immi");
            b.add_value_child(immi, "date", &names::date(rng));
        }
        if force || rng.gen_bool(0.05) {
            b.add_value_child(indi, "dscr", "tall, red hair");
        }
        if force || rng.gen_bool(0.1) {
            let conf = b.add_child(indi, "conf");
            b.add_value_child(conf, "date", &names::date(rng));
        }
        if force || rng.gen_bool(0.04) {
            let crem = b.add_child(indi, "crem");
            b.add_value_child(crem, "date", &names::date(rng));
        }
        if force || rng.gen_bool(0.08) {
            b.add_value_child(indi, "nick", names::pick(rng, names::FIRST_NAMES));
        }
        if force || rng.gen_bool(0.06) {
            b.add_value_child(indi, "nchi", &format!("{}", rng.gen_range(0..9)));
        }
        if force || rng.gen_bool(0.06) {
            b.add_value_child(indi, "nmr", &format!("{}", rng.gen_range(0..3)));
        }
        if force || rng.gen_bool(0.05) {
            b.add_value_child(indi, "caste", "yeoman");
        }
    }

    // Tier 2 extras.
    if tier >= 2 {
        if force || rng.gen_bool(0.05) {
            let will = b.add_child(indi, "will");
            b.add_value_child(will, "date", &names::date(rng));
        }
        if force || rng.gen_bool(0.05) {
            let prob = b.add_child(indi, "prob");
            b.add_value_child(prob, "date", &names::date(rng));
        }
        if force || rng.gen_bool(0.04) {
            let grad = b.add_child(indi, "grad");
            b.add_value_child(grad, "date", &names::date(rng));
        }
        if force || rng.gen_bool(0.04) {
            let natu = b.add_child(indi, "natu");
            b.add_value_child(natu, "date", &names::date(rng));
        }
        if force || rng.gen_bool(0.04) {
            let cens = b.add_child(indi, "cens");
            b.add_value_child(cens, "date", &names::date(rng));
        }
        if force || rng.gen_bool(0.03) {
            b.add_value_child(
                indi,
                "ssn",
                &format!("{:09}", rng.gen_range(0..999999999u32)),
            );
        }
        if force || rng.gen_bool(0.03) {
            b.add_value_child(indi, "prop", "two oxen");
        }
    }

    // References (labels forced once so the alphabet is deterministic).
    // Founders (generation 0 of each cluster) have no FAMC — exactly like
    // real GEDCOM exports, and what bounds ancestry walks for the
    // DataGuide's subset construction.
    if gen_of(no, individuals) > 0 {
        b.add_idref(
            indi,
            "famc",
            &format!("F{}", famc_of(no, individuals, families)),
        );
    }
    let pick = (!fams.is_empty()).then(|| rng.gen_range(0..fams.len()));
    if let Some(f) = pick.and_then(|i| fams.get(i)) {
        b.add_idref(indi, "fams", &format!("F{f}"));
    } else if force {
        // Guarantee the @fams label exists even if individual 0 is not a
        // spouse anywhere.
        b.add_idref(indi, "fams", "F0");
    }
    if force || rng.gen_bool(0.12) {
        b.add_idref(indi, "alia", "I0");
    }
    if force || rng.gen_bool(0.12) {
        b.add_idref(indi, "asso", "I1");
    }
    if force || rng.gen_bool(0.25) {
        b.add_idref(indi, "sour", &format!("S{}", no % n_sours));
    }
    if force || rng.gen_bool(0.12) {
        b.add_idref(indi, "note", &format!("N{}", no % n_notes));
    }
    if force || rng.gen_bool(0.05) {
        b.add_idref(indi, "obje", &format!("O{}", no % n_objes));
    }
    if force || rng.gen_bool(0.04) {
        b.add_idref(indi, "repo", &format!("R{}", no % n_repos));
    }
    if force || rng.gen_bool(0.03) {
        b.add_idref(indi, "anci", "SUB1");
    }
    if force || rng.gen_bool(0.03) {
        b.add_idref(indi, "desi", "SUB1");
    }
    indi
}

/// Individuals per lineage cluster: the geometry that keeps rooted-path
/// diversity (and hence DataGuide size) in the paper's regime.
const CLUSTER: usize = 100;

/// Generations per cluster. Bigger archives aggregate deeper lineages;
/// reference-word depth — and with it the strong DataGuide's size —
/// grows accordingly, reproducing Table 2's Ged01 < Ged02 < Ged03
/// gradient.
fn gens_for(individuals: usize) -> usize {
    if individuals >= 5000 {
        5
    } else if individuals >= 800 {
        4
    } else {
        3
    }
}

fn cluster_count(individuals: usize) -> usize {
    individuals.div_ceil(CLUSTER).max(1)
}

/// Generation (0-based) of individual `i` within its cluster.
fn gen_of(i: usize, individuals: usize) -> usize {
    let gens = gens_for(individuals);
    ((i % CLUSTER) * gens / CLUSTER).min(gens - 1)
}

/// Flat index of individual `i`'s (cluster, generation) band.
fn band_index(i: usize, individuals: usize) -> usize {
    let gens = gens_for(individuals);
    let c = (i / CLUSTER).min(cluster_count(individuals) - 1);
    let within = i % CLUSTER;
    let g = (within * gens / CLUSTER).min(gens - 1);
    c * gens + g
}

/// The family whose `chil` list contains individual `i` (consecutive
/// blocks of ~2.5 children; the proportional mapping keeps it inside
/// i's own cluster).
fn famc_of(i: usize, individuals: usize, families: usize) -> usize {
    (i * families / individuals.max(1)).min(families.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_idref_labels() {
        let g = gedml(50, 7);
        assert_eq!(g.idref_labels().len(), 14);
    }

    #[test]
    fn reference_edges_are_dense() {
        let g = gedml(200, 7);
        let refs = g
            .edges()
            .filter(|(f, _, t)| g.tree_parent(*t) != *f)
            .count();
        // Roughly 17% of edges should be references (Table 1 ratio).
        let ratio = refs as f64 / g.edge_count() as f64;
        assert!(ratio > 0.10 && ratio < 0.25, "ref ratio {ratio}");
    }

    #[test]
    fn label_tiers_grow() {
        let small = gedml(330, 1).label_count();
        let medium = gedml(1230, 1).label_count();
        let large = gedml(5200, 1).label_count();
        assert!(small < medium, "{small} !< {medium}");
        assert!(medium < large, "{medium} !< {large}");
    }

    #[test]
    fn family_children_are_the_famc_predicate() {
        for individuals in [40, 1310] {
            let g = gedml(individuals, 9);
            let label = |s: &str| g.label_id(s).unwrap();
            let (indi, fam, chil) = (label("indi"), label("fam"), label("@chil"));
            let tops = g.out_edges(g.root());
            let number: std::collections::HashMap<NodeId, usize> = tops
                .iter()
                .filter(|e| e.label == indi)
                .enumerate()
                .map(|(k, e)| (e.to, k))
                .collect();
            let fams: Vec<NodeId> = tops
                .iter()
                .filter(|e| e.label == fam)
                .map(|e| e.to)
                .collect();
            let families = fams.len();
            for (f, &node) in fams.iter().enumerate() {
                let got: Vec<usize> = g
                    .out_edges(node)
                    .iter()
                    .filter(|e| e.label == chil)
                    .map(|e| number[&g.out_edges(e.to)[0].to])
                    .collect();
                // The reference: every individual tested for every family.
                let want: Vec<usize> = (0..individuals)
                    .filter(|&i| {
                        gen_of(i, individuals) > 0 && famc_of(i, individuals, families) == f
                    })
                    .collect();
                assert_eq!(got, want, "{individuals} individuals, family {f}");
            }
        }
    }

    #[test]
    fn families_reference_individuals() {
        let g = gedml(40, 3);
        let at_husb = g.label_id("@husb").unwrap();
        let indi = g.label_id("indi").unwrap();
        let mut checked = 0;
        for (_, l, attr) in g.edges() {
            if l == at_husb {
                let refs = g.out_edges(attr);
                assert_eq!(refs.len(), 1);
                assert_eq!(refs[0].label, indi);
                checked += 1;
            }
        }
        assert!(checked > 0);
    }
}
