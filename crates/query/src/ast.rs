//! The query model: the three query types of the evaluation (§6.1).

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use xmlgraph::{LabelId, XmlGraph};

/// A label-path query.
///
/// In the graph encoding of §3, the dereference operator `=>` is just two
/// consecutive edge labels (`@attr` followed by the target's tag), so
/// QTYPE1 queries with dereferences are plain label sequences here;
/// [`Query::render`] prints them back with `=>` for display fidelity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// QTYPE1: `//l_i/l_{i+1}/…/l_n` — partial-matching path query.
    PartialPath {
        /// The label sequence (non-empty).
        labels: Vec<LabelId>,
    },
    /// QTYPE2: `//l_i//l_j` — ancestor/descendant label pair.
    AncestorDescendant {
        /// The ancestor edge label.
        first: LabelId,
        /// The descendant edge label.
        last: LabelId,
    },
    /// QTYPE3: `//l_1/…/l_n[text() = value]`.
    ValuePath {
        /// The label sequence (non-empty, no dereference).
        labels: Vec<LabelId>,
        /// The required text value of the result node.
        value: String,
    },
}

impl Query {
    /// Parses the paper's query notation against `g`'s label alphabet:
    ///
    /// * QTYPE1 — `//a/b/c`, with dereferences written `//a/@m => m/c`;
    /// * QTYPE2 — `//a//b` (exactly two single labels);
    /// * QTYPE3 — `//a/b[text() = "value"]`.
    ///
    /// Returns a descriptive error for unknown labels or malformed
    /// syntax.
    pub fn parse(g: &XmlGraph, input: &str) -> Result<Query, String> {
        let rest = input
            .trim()
            .strip_prefix("//")
            .ok_or_else(|| format!("query must start with `//`: {input}"))?;

        // Optional trailing [text() = "value"].
        let (path_part, value) = match rest.split_once('[') {
            None => (rest, None),
            Some((path, pred)) => {
                let pred = pred
                    .strip_suffix(']')
                    .ok_or_else(|| format!("unterminated predicate in {input}"))?;
                let v = pred
                    .trim()
                    .strip_prefix("text()")
                    .map(str::trim)
                    .and_then(|p| p.strip_prefix('='))
                    .map(str::trim)
                    .ok_or_else(|| {
                        format!("only [text() = …] predicates are supported: {input}")
                    })?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .unwrap_or(v);
                (path, Some(v.to_string()))
            }
        };

        let lookup = |name: &str| -> Result<LabelId, String> {
            g.label_id(name.trim())
                .ok_or_else(|| format!("unknown label `{}`", name.trim()))
        };

        // `//` in the middle → QTYPE2 (two single labels, no value).
        if let Some((first, last)) = path_part.split_once("//") {
            if last.contains("//") {
                return Err(format!("at most one inner `//` is supported: {input}"));
            }
            if value.is_some() {
                return Err(format!("`//a//b` cannot carry a value predicate: {input}"));
            }
            if [first, last]
                .iter()
                .any(|s| s.contains('/') || s.contains("=>"))
            {
                return Err(format!(
                    "only `//a//b` ancestor/descendant queries are supported: {input}"
                ));
            }
            return Ok(Query::AncestorDescendant {
                first: lookup(first)?,
                last: lookup(last)?,
            });
        }

        // QTYPE1/QTYPE3: `=>` is just a step in the graph encoding.
        let normalized = path_part.replace("=>", "/");
        let labels = normalized
            .split('/')
            .filter(|s| !s.trim().is_empty())
            .map(lookup)
            .collect::<Result<Vec<_>, _>>()?;
        if labels.is_empty() {
            return Err(format!("empty label path: {input}"));
        }
        Ok(match value {
            None => Query::PartialPath { labels },
            Some(value) => Query::ValuePath { labels, value },
        })
    }

    /// The label path of QTYPE1/QTYPE3 queries (None for QTYPE2).
    pub fn labels(&self) -> Option<&[LabelId]> {
        match self {
            Query::PartialPath { labels } => Some(labels),
            Query::ValuePath { labels, .. } => Some(labels),
            Query::AncestorDescendant { .. } => None,
        }
    }

    /// True if this is a *simple path expression*: its label path starts
    /// at the root of the data (checked against `g` by the generator).
    /// Kept here as a helper for workload statistics.
    pub fn len(&self) -> usize {
        match self {
            Query::PartialPath { labels } => labels.len(),
            Query::ValuePath { labels, .. } => labels.len(),
            Query::AncestorDescendant { .. } => 2,
        }
    }

    /// Queries are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Renders in the paper's XQuery-ish notation, printing `@attr`
    /// followed by a tag as a dereference (`//…/@attr => tag/…`).
    pub fn render(&self, g: &XmlGraph) -> String {
        match self {
            Query::PartialPath { labels } => render_path(g, labels),
            Query::AncestorDescendant { first, last } => {
                format!("//{}//{}", g.label_str(*first), g.label_str(*last))
            }
            Query::ValuePath { labels, value } => {
                format!("{}[text() = \"{}\"]", render_path(g, labels), value)
            }
        }
    }
}

fn render_path(g: &XmlGraph, labels: &[LabelId]) -> String {
    let mut s = String::from("/");
    let mut prev_was_ref_attr = false;
    for (k, l) in labels.iter().enumerate() {
        let name = g.label_str(*l);
        if prev_was_ref_attr {
            s.push_str(" => ");
            s.push_str(name);
        } else {
            s.push('/');
            s.push_str(name);
        }
        // `@attr` that the data marks as IDREF dereferences next label.
        prev_was_ref_attr =
            name.starts_with('@') && g.idref_labels().contains(l) && k + 1 < labels.len();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    #[test]
    fn parse_round_trips_render() {
        let g = moviedb();
        for q in [
            "//actor/name",
            "//movie/title",
            "//actor/@movie => movie/title",
            "//actor//name",
            "//movie/title[text() = \"Star Wars\"]",
        ] {
            let parsed = Query::parse(&g, q).unwrap();
            assert_eq!(parsed.render(&g), q, "round trip of {q}");
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        let g = moviedb();
        for q in [
            "actor/name",              // missing //
            "//actor/bogus",           // unknown label
            "//a//b//c",               // too many //
            "//actor//name[text()=x]", // predicate on QTYPE2
            "//actor/name[foo=1]",     // unsupported predicate
            "//",                      // empty
        ] {
            assert!(Query::parse(&g, q).is_err(), "should reject {q}");
        }
    }

    #[test]
    fn parse_value_without_quotes() {
        let g = moviedb();
        let q = Query::parse(&g, "//movie/title[text() = Star]").unwrap();
        assert!(matches!(q, Query::ValuePath { ref value, .. } if value == "Star"));
    }

    #[test]
    fn renders_partial_path() {
        let g = moviedb();
        let p = LabelPath::parse(&g, "actor.name").unwrap();
        let q = Query::PartialPath { labels: p.0 };
        assert_eq!(q.render(&g), "//actor/name");
    }

    #[test]
    fn renders_dereference() {
        let g = moviedb();
        let p = LabelPath::parse(&g, "actor.@movie.movie.title").unwrap();
        let q = Query::PartialPath { labels: p.0 };
        assert_eq!(q.render(&g), "//actor/@movie => movie/title");
    }

    #[test]
    fn renders_qtype2_and_qtype3() {
        let g = moviedb();
        let a = g.label_id("actor").unwrap();
        let n = g.label_id("name").unwrap();
        let q2 = Query::AncestorDescendant { first: a, last: n };
        assert_eq!(q2.render(&g), "//actor//name");
        let p = LabelPath::parse(&g, "movie.title").unwrap();
        let q3 = Query::ValuePath {
            labels: p.0,
            value: "Star Wars".into(),
        };
        assert_eq!(q3.render(&g), "//movie/title[text() = \"Star Wars\"]");
    }

    #[test]
    fn len_and_labels() {
        let g = moviedb();
        let p = LabelPath::parse(&g, "movie.title").unwrap();
        let q = Query::PartialPath {
            labels: p.0.clone(),
        };
        assert_eq!(q.len(), 2);
        assert_eq!(q.labels(), Some(p.0.as_slice()));
        let a = g.label_id("actor").unwrap();
        let q2 = Query::AncestorDescendant { first: a, last: a };
        assert_eq!(q2.labels(), None);
    }
}
