//! Data migration through generated XSLT (§4.3): discover an embedding into
//! an evolved schema, emit the forward and inverse stylesheets, run both
//! through the crate's XSLT engine, and "roll back" the migration — the
//! Fagin-style use of inverses the paper's §4.5 highlights.
//!
//! ```sh
//! cargo run --example xslt_migration
//! ```

use xse::prelude::*;
use xse::workloads::noise::{noised_copy, NoiseConfig};
use xse::workloads::simgen;
use xse::xslt::apply_stylesheet;

fn main() {
    // Version 1 of a ticketing schema…
    let v1 = Dtd::parse(
        "<!ELEMENT tickets (ticket)*>\
         <!ELEMENT ticket (id, severity, body)>\
         <!ELEMENT id (#PCDATA)>\
         <!ELEMENT severity (low | high)>\
         <!ELEMENT low EMPTY>\
         <!ELEMENT high EMPTY>\
         <!ELEMENT body (#PCDATA)>",
    )
    .unwrap();

    // …and "version 2": a mechanically evolved copy (wrapped edges, renamed
    // tags, extra fields) — the migration target.
    let copy = noised_copy(&v1, NoiseConfig::level(0.5), 2024);
    let v2 = &copy.target;
    println!("v2 schema:\n{v2}");

    // Discover the migration embedding from the ground-truth matrix (in a
    // real migration this matrix comes from a schema matcher or a human).
    let att = simgen::exact(&v1, &copy);
    let emb = find_embedding(&v1, v2, &att, &DiscoveryConfig::default())
        .expect("v1 embeds in its evolution");

    // Generate both stylesheets, straight off the compiled embedding.
    let forward = generate_forward(&emb);
    let inverse = generate_inverse(&emb);
    println!(
        "-- forward stylesheet ({} rules) --\n{forward}",
        forward.len()
    );
    println!(
        "-- inverse stylesheet ({} rules) --\n{inverse}",
        inverse.len()
    );

    // Migrate a document with the XSLT engine.
    let doc = parse_xml(
        "<tickets>\
           <ticket><id>T-1</id><severity><high/></severity><body>prod down</body></ticket>\
           <ticket><id>T-2</id><severity><low/></severity><body>typo</body></ticket>\
         </tickets>",
    )
    .unwrap();
    let migrated = apply_stylesheet(&forward, &doc, None).unwrap();
    v2.validate(&migrated).unwrap();
    println!("migrated document:\n{}", migrated.to_xml_pretty());

    // The stylesheet agrees with the direct algorithm…
    let direct = emb.apply(&doc).unwrap().tree;
    assert!(direct.equals(&migrated));

    // …and the inverse stylesheet rolls the migration back, losslessly.
    let rolled_back = apply_stylesheet(&inverse, &migrated, None).unwrap();
    assert!(rolled_back.equals(&doc));
    println!("rollback via inverse stylesheet recovered the original ✓");
}
