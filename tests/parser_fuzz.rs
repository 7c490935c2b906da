//! Seeded fuzzing of the two text parsers a server feeds untrusted input
//! to: `Dtd::parse` and `parse_query`. Inputs are byte flips, cuts and
//! extensions of the corpus DTD texts and of generated queries, plus
//! grammar-aware nesting at and around `MAX_GROUP_DEPTH` and
//! `MAX_QUERY_DEPTH`. Every input must be rejected with `Err` or parse to
//! a value that survives a round trip through `Display`: a DTD re-parses
//! to the same `content_hash()`, a query to an equal `XrQuery`. None may
//! panic.

use std::sync::LazyLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xse::dtd::MAX_GROUP_DEPTH;
use xse::prelude::*;
use xse::rxpath::MAX_QUERY_DEPTH;
use xse::workloads::corpus::corpus;
use xse::workloads::querygen::{random_queries, QueryConfig};

/// Fragments of both grammars, so an extension often continues a
/// construct instead of only adding noise.
const FRAGMENTS: [&str; 24] = [
    "<!ELEMENT ",
    "<!--",
    "-->",
    "(",
    ")",
    ")*",
    ",",
    "|",
    "#PCDATA",
    "EMPTY",
    ">",
    "a",
    "/",
    "//",
    "[",
    "]",
    "*",
    "text()",
    "position() = ",
    "9",
    " not ",
    " and ",
    "'v",
    "ε",
];

/// One to three mutations of `bytes`: flip a byte, cut the tail, or
/// append random bytes or a grammar fragment.
fn mutate(rng: &mut StdRng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..rng.random_range(1..=3) {
        match rng.random_range(0..4) {
            0 if !bytes.is_empty() => {
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= rng.random_range(1..=255u8);
            }
            1 if !bytes.is_empty() => bytes.truncate(rng.random_range(0..bytes.len())),
            2 => {
                let at = rng.random_range(0..=bytes.len());
                let fragment = FRAGMENTS[rng.random_range(0..FRAGMENTS.len())];
                bytes.splice(at..at, fragment.bytes());
            }
            _ => bytes.extend((0..rng.random_range(1..9)).map(|_| rng.random::<u8>())),
        }
    }
    bytes
}

/// `bytes` as text; invalid UTF-8 becomes replacement characters, which
/// are input too.
fn text(bytes: Vec<u8>) -> String {
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A depth at or within two levels of `max`.
fn near(rng: &mut StdRng, max: usize) -> usize {
    rng.random_range(max - 2..=max + 2)
}

/// A content model nested `n` groups deep, in one of the shapes the
/// grammar allows: starred, sequence and choice groups.
fn nested_dtd(rng: &mut StdRng, n: usize) -> String {
    let (open, close) = match rng.random_range(0..3) {
        0 => ("(", ")*"),
        1 => ("(b, ", ")"),
        _ => ("(c | ", ")?"),
    };
    format!(
        "<!ELEMENT b {}b*{}>\n<!ELEMENT c EMPTY>",
        open.repeat(n),
        close.repeat(n)
    )
}

/// A query whose syntax tree is about `n` levels deep, built from one of
/// the nesting constructs (parentheses, stars, qualifiers, negation,
/// chains).
fn nested_query(rng: &mut StdRng, n: usize) -> String {
    match rng.random_range(0..5) {
        0 => format!("{}a{}", "(".repeat(n), ")".repeat(n)),
        1 => format!("{}a{}", "(".repeat(n / 2), ")*".repeat(n / 2)),
        2 => format!("{}a{}", "a[".repeat(n / 2), "]".repeat(n / 2)),
        3 => format!("a[{}b]", "not ".repeat(n)),
        _ => vec!["a"; n].join("/"),
    }
}

/// Every corpus schema as DTD text, built once for all cases.
static CORPUS_TEXTS: LazyLock<Vec<String>> =
    LazyLock::new(|| corpus().into_iter().map(|(_, d)| d.to_string()).collect());

/// Generated queries over every corpus schema, as text, built once for
/// all cases.
static QUERY_TEXTS: LazyLock<Vec<String>> = LazyLock::new(|| {
    corpus()
        .into_iter()
        .enumerate()
        .flat_map(|(i, (_, d))| random_queries(&d, QueryConfig::default(), i as u64, 8))
        .map(|q| q.to_string())
        .collect()
});

fn dtd_roundtrips(input: &str) -> Result<(), String> {
    let Ok(dtd) = Dtd::parse(input) else {
        return Ok(());
    };
    let shown = dtd.to_string();
    match Dtd::parse(&shown) {
        Ok(again) if again.content_hash() == dtd.content_hash() => Ok(()),
        Ok(_) => Err(format!("{input:?} displays as {shown:?}, another schema")),
        Err(e) => Err(format!("{input:?} displays as {shown:?}, which fails: {e}")),
    }
}

fn query_roundtrips(input: &str) -> Result<(), String> {
    let Ok(q) = parse_query(input) else {
        return Ok(());
    };
    let shown = q.to_string();
    match parse_query(&shown) {
        Ok(again) if again == q => Ok(()),
        Ok(again) => Err(format!(
            "{input:?} displays as {shown:?}, which parses to {again:?}"
        )),
        Err(e) => Err(format!("{input:?} displays as {shown:?}, which fails: {e}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// A mutated corpus DTD is rejected or round-trips.
    #[test]
    fn mutated_dtds_are_rejected_or_roundtrip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = CORPUS_TEXTS[rng.random_range(0..CORPUS_TEXTS.len())].clone();
        let input = text(mutate(&mut rng, base.into_bytes()));
        prop_assert_eq!(dtd_roundtrips(&input), Ok(()));
    }

    /// A mutated generated query is rejected or round-trips.
    #[test]
    fn mutated_queries_are_rejected_or_roundtrip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = QUERY_TEXTS[rng.random_range(0..QUERY_TEXTS.len())].clone();
        let input = text(mutate(&mut rng, base.into_bytes()));
        prop_assert_eq!(query_roundtrips(&input), Ok(()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Group nesting at and around the bound, sometimes mutated, is
    /// rejected or round-trips.
    #[test]
    fn deep_dtd_groups_are_rejected_or_roundtrip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = near(&mut rng, MAX_GROUP_DEPTH);
        let mut input = nested_dtd(&mut rng, n);
        if rng.random_bool(0.5) {
            input = text(mutate(&mut rng, input.into_bytes()));
        }
        prop_assert_eq!(dtd_roundtrips(&input), Ok(()));
    }

    /// Query nesting at and around the bound, sometimes mutated, is
    /// rejected or round-trips.
    #[test]
    fn deep_queries_are_rejected_or_roundtrip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = near(&mut rng, MAX_QUERY_DEPTH);
        let mut input = nested_query(&mut rng, n);
        if rng.random_bool(0.5) {
            input = text(mutate(&mut rng, input.into_bytes()));
        }
        prop_assert_eq!(query_roundtrips(&input), Ok(()));
    }
}
