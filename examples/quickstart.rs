//! Quickstart: discover an embedding, map a document, query it, invert it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use xse::prelude::*;

fn main() {
    // A small product catalog…
    let source = Dtd::parse(
        "<!ELEMENT catalog (vendor, items)>\
         <!ELEMENT vendor (#PCDATA)>\
         <!ELEMENT items (product)*>\
         <!ELEMENT product (sku, price)>\
         <!ELEMENT sku (#PCDATA)>\
         <!ELEMENT price (#PCDATA)>",
    )
    .unwrap();

    // …and a more general warehouse schema it should live inside.
    let target = Dtd::parse(
        "<!ELEMENT warehouse (meta, inventory)>\
         <!ELEMENT meta (vendor, region)>\
         <!ELEMENT vendor (#PCDATA)>\
         <!ELEMENT region (#PCDATA)>\
         <!ELEMENT inventory (shelf)*>\
         <!ELEMENT shelf (product)>\
         <!ELEMENT product (sku, price, stock)>\
         <!ELEMENT sku (#PCDATA)>\
         <!ELEMENT price (#PCDATA)>\
         <!ELEMENT stock (#PCDATA)>",
    )
    .unwrap();

    // 1. Discover a schema embedding (§5 heuristics). Name similarity is
    //    enough here; a permissive matrix would work too.
    let att = SimilarityMatrix::by_name(&source, &target, 0.05);
    let embedding = find_embedding(&source, &target, &att, &DiscoveryConfig::default())
        .expect("the catalog embeds into the warehouse");
    println!("discovered embedding:\n{}", embedding.describe());

    // 2. Map an instance — type safety is guaranteed (Theorem 4.1).
    let doc = parse_xml(
        "<catalog><vendor>acme</vendor><items>\
           <product><sku>A-1</sku><price>9.99</price></product>\
           <product><sku>B-2</sku><price>3.50</price></product>\
         </items></catalog>",
    )
    .unwrap();
    let out = embedding.apply(&doc).unwrap();
    target.validate(&out.tree).unwrap();
    println!("\nσd(T) =\n{}", out.tree.to_xml_pretty());

    // 3. Translate a query (Theorem 4.3b): same answers on the target.
    let q = parse_query("items/product[sku/text() = 'B-2']/price/text()").unwrap();
    let translated = embedding.translate(&q).unwrap();
    let direct = q.eval(&doc);
    let mapped: Vec<NodeId> = out.idmap.map_result(translated.eval(&out.tree)).collect();
    assert_eq!(direct, mapped);
    println!(
        "query {q}\n  -> answers on source == answers on target through idM ({} hit)",
        direct.len()
    );

    // 4. Invert — the original document comes back (Theorem 4.3a).
    let back = embedding.invert(&out.tree).unwrap();
    assert!(back.equals(&doc));
    println!("\nσd⁻¹(σd(T)) = T  ✓");
}
