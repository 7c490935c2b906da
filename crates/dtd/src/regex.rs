//! General regular-expression content models and their conversion to the
//! paper's normal form.
//!
//! Real DTDs use arbitrary regular expressions over element names
//! (`(a, (b|c)*, d+)?`). The paper's §2.1 observes that any such DTD can be
//! converted in linear time to the normal form by "introducing new element
//! types", and that queries can be rewritten accordingly. [`ContentModel`]
//! is the general form; [`crate::Dtd::from_content_models`] performs the
//! normalizing conversion, wrapping every composite subexpression in a fresh
//! synthetic element type named `name#k`.

use std::collections::HashMap;

use crate::types::TypeDef;
use crate::{Dtd, DtdError, Production, TypeId};

/// A general DTD content model over element names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContentModel {
    /// `(#PCDATA)`.
    Str,
    /// `EMPTY`.
    Empty,
    /// An element name.
    Name(String),
    /// `(e1, e2, …)`.
    Seq(Vec<ContentModel>),
    /// `(e1 | e2 | …)`.
    Alt(Vec<ContentModel>),
    /// `e*`.
    Star(Box<ContentModel>),
    /// `e+` (sugar: `e, e*`).
    Plus(Box<ContentModel>),
    /// `e?` (sugar: `e | ε`).
    Opt(Box<ContentModel>),
}

/// Incrementally allocates synthetic wrapper types during normalization.
struct Normalizer {
    defs: Vec<TypeDef>,
    by_name: HashMap<String, TypeId>,
    synth_counter: usize,
}

impl Normalizer {
    /// Reduce `m` to a single type id whose production captures it,
    /// introducing synthetic types for composite subexpressions.
    fn atom(&mut self, owner: &str, m: &ContentModel) -> Result<TypeId, DtdError> {
        if let ContentModel::Name(n) = m {
            return self
                .by_name
                .get(n)
                .copied()
                .ok_or_else(|| DtdError::UndefinedType {
                    referenced: n.clone(),
                    by: owner.to_string(),
                });
        }
        let prod = self.production_of(owner, m)?;
        Ok(self.fresh(owner, prod))
    }

    fn fresh(&mut self, owner: &str, prod: Production) -> TypeId {
        self.synth_counter += 1;
        let name = format!("{owner}#{}", self.synth_counter);
        let id = TypeId::from_index(self.defs.len());
        self.by_name.insert(name.clone(), id);
        self.defs.push(TypeDef { name, prod });
        id
    }

    /// The normal-form production equivalent to `m` (for the *content* of a
    /// type, not wrapped).
    fn production_of(&mut self, owner: &str, m: &ContentModel) -> Result<Production, DtdError> {
        Ok(match m {
            ContentModel::Str => Production::Str,
            ContentModel::Empty => Production::Empty,
            ContentModel::Name(n) => {
                let id = self.atom(owner, &ContentModel::Name(n.clone()))?;
                Production::Concat(vec![id])
            }
            ContentModel::Seq(items) => {
                if items.is_empty() {
                    return Err(DtdError::EmptyBody(owner.to_string()));
                }
                let ids = items
                    .iter()
                    .map(|i| self.atom(owner, i))
                    .collect::<Result<Vec<_>, _>>()?;
                Production::Concat(ids)
            }
            ContentModel::Alt(items) => {
                if items.is_empty() {
                    return Err(DtdError::EmptyBody(owner.to_string()));
                }
                let mut ids = Vec::with_capacity(items.len());
                for i in items {
                    let id = self.atom(owner, i)?;
                    // Distinctness w.l.o.g.: deduplicate identical names.
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                Production::Disjunction {
                    alts: ids,
                    allows_empty: false,
                }
            }
            ContentModel::Star(inner) => Production::Star(self.atom(owner, inner)?),
            ContentModel::Plus(inner) => {
                // e+ = e, e*
                let one = self.atom(owner, inner)?;
                let star = self.fresh(owner, Production::Star(one));
                Production::Concat(vec![one, star])
            }
            ContentModel::Opt(inner) => match &**inner {
                ContentModel::Alt(items) => {
                    let mut prod = self.production_of(owner, &ContentModel::Alt(items.clone()))?;
                    if let Production::Disjunction { allows_empty, .. } = &mut prod {
                        *allows_empty = true;
                    }
                    prod
                }
                other => {
                    let id = self.atom(owner, other)?;
                    Production::Disjunction {
                        alts: vec![id],
                        allows_empty: true,
                    }
                }
            },
        })
    }
}

impl Dtd {
    /// Build a DTD from general content models, normalizing to the paper's
    /// form. `decls` pairs each element name with its model; `root` names
    /// the root type. Composite subexpressions become synthetic types named
    /// `owner#k`.
    pub fn from_content_models(
        root: &str,
        decls: &[(String, ContentModel)],
    ) -> Result<Dtd, DtdError> {
        let mut n = Normalizer {
            defs: Vec::with_capacity(decls.len()),
            by_name: HashMap::with_capacity(decls.len()),
            synth_counter: 0,
        };
        // Declare all real types first so forward references resolve.
        for (i, (name, _)) in decls.iter().enumerate() {
            if n.by_name
                .insert(name.clone(), TypeId::from_index(i))
                .is_some()
            {
                return Err(DtdError::DuplicateType(name.clone()));
            }
            n.defs.push(TypeDef {
                name: name.clone(),
                prod: Production::Empty, // patched below
            });
        }
        for (i, (name, model)) in decls.iter().enumerate() {
            let prod = n.production_of(name, model)?;
            n.defs[i].prod = prod;
        }
        let root = *n
            .by_name
            .get(root)
            .ok_or_else(|| DtdError::UndefinedRoot(root.to_string()))?;
        Ok(Dtd {
            defs: n.defs,
            by_name: n.by_name,
            root,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(n: &str) -> ContentModel {
        ContentModel::Name(n.into())
    }

    #[test]
    fn normal_models_map_directly() {
        let d = Dtd::from_content_models(
            "r",
            &[
                ("r".into(), ContentModel::Seq(vec![name("a"), name("b")])),
                ("a".into(), ContentModel::Alt(vec![name("b"), name("c")])),
                ("b".into(), ContentModel::Star(Box::new(name("c")))),
                ("c".into(), ContentModel::Str),
            ],
        )
        .unwrap();
        assert_eq!(d.type_count(), 4); // no synthetic types
        let a = d.type_id("a").unwrap();
        assert!(matches!(d.production(a), Production::Disjunction { .. }));
    }

    #[test]
    fn plus_desugars_to_concat_with_star() {
        let d = Dtd::from_content_models(
            "r",
            &[
                ("r".into(), ContentModel::Plus(Box::new(name("a")))),
                ("a".into(), ContentModel::Empty),
            ],
        )
        .unwrap();
        // r → a, a#1 where a#1 → a*.
        assert_eq!(d.type_count(), 3);
        let a = d.type_id("a").unwrap();
        let synth = d.type_id("r#1").unwrap();
        assert_eq!(d.production(d.root()), &Production::Concat(vec![a, synth]));
        assert_eq!(d.production(synth), &Production::Star(a));
    }

    #[test]
    fn optional_maps_to_allows_empty() {
        let d = Dtd::from_content_models(
            "r",
            &[
                ("r".into(), ContentModel::Opt(Box::new(name("a")))),
                ("a".into(), ContentModel::Empty),
            ],
        )
        .unwrap();
        let a = d.type_id("a").unwrap();
        assert_eq!(
            d.production(d.root()),
            &Production::Disjunction {
                alts: vec![a],
                allows_empty: true
            }
        );
    }

    #[test]
    fn nested_composites_get_synthetic_types() {
        // r → (a, (b|c)*, d)
        let d = Dtd::from_content_models(
            "r",
            &[
                (
                    "r".into(),
                    ContentModel::Seq(vec![
                        name("a"),
                        ContentModel::Star(Box::new(ContentModel::Alt(vec![name("b"), name("c")]))),
                        name("d"),
                    ]),
                ),
                ("a".into(), ContentModel::Empty),
                ("b".into(), ContentModel::Empty),
                ("c".into(), ContentModel::Empty),
                ("d".into(), ContentModel::Empty),
            ],
        )
        .unwrap();
        // Synthetics: r#1 → b|c (the alt), r#2 → r#1* — r's body references
        // a, r#2, d.
        assert_eq!(d.type_count(), 7);
        let alt = d.type_id("r#1").unwrap();
        assert!(matches!(
            d.production(alt),
            Production::Disjunction { alts, .. } if alts.len() == 2
        ));
        assert!(d.is_consistent());
    }

    #[test]
    fn alt_deduplicates_repeated_names() {
        let d = Dtd::from_content_models(
            "r",
            &[
                ("r".into(), ContentModel::Alt(vec![name("a"), name("a")])),
                ("a".into(), ContentModel::Empty),
            ],
        )
        .unwrap();
        let a = d.type_id("a").unwrap();
        assert_eq!(
            d.production(d.root()),
            &Production::Disjunction {
                alts: vec![a],
                allows_empty: false
            }
        );
    }

    #[test]
    fn undefined_name_errors() {
        let e = Dtd::from_content_models("r", &[("r".into(), name("ghost"))]).unwrap_err();
        assert!(matches!(e, DtdError::UndefinedType { .. }));
    }
}
