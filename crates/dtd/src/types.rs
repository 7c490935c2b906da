use std::collections::HashMap;
use std::fmt;

/// Identifier of an element type within one [`Dtd`] (dense index, stable for
/// the DTD's lifetime; ordering is declaration order, which the paper's
/// `mindef` construction uses as its "fixed order on the types").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub(crate) u32);

impl TypeId {
    /// The numeric index of this type.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct from an index obtained via [`TypeId::index`].
    pub fn from_index(i: usize) -> Self {
        TypeId(u32::try_from(i).expect("more than u32::MAX element types"))
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A normal-form production `P(A)` (§2.1):
/// `α ::= str | ε | B1,…,Bn | B1+…+Bn | B*`.
///
/// One liberty, taken from the paper's own footnote 1: a disjunction may
/// include `ε` as an alternative (`A → B + ε` expresses an optional child),
/// recorded in [`Production::Disjunction::allows_empty`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Production {
    /// `A → str`: a single PCDATA (text) child.
    Str,
    /// `A → ε`: no children.
    Empty,
    /// `A → B1, …, Bn` (n ≥ 1): exactly one child of each listed type, in
    /// order. Repetitions are allowed and are distinguished by their
    /// occurrence position (the AND-edge labels of the schema graph).
    Concat(Vec<TypeId>),
    /// `A → B1 + … + Bn` (n ≥ 1, the `Bi` distinct): one and only one child,
    /// of one of the listed types; or no child at all when `allows_empty`.
    Disjunction {
        /// The distinct alternatives.
        alts: Vec<TypeId>,
        /// Whether `ε` is an additional alternative (optional content).
        allows_empty: bool,
    },
    /// `A → B*`: zero or more children, all of type `B`.
    Star(TypeId),
}

impl Production {
    /// The child types mentioned by this production, in declaration order
    /// (with repetitions for concatenations).
    pub fn children(&self) -> &[TypeId] {
        match self {
            Production::Str | Production::Empty => &[],
            Production::Concat(cs) => cs,
            Production::Disjunction { alts, .. } => alts,
            Production::Star(b) => std::slice::from_ref(b),
        }
    }

    /// The size `k` of the production used by the small-model property
    /// (Theorem 4.4): the number of symbols on its right-hand side.
    pub fn size(&self) -> usize {
        match self {
            Production::Str | Production::Empty => 1,
            Production::Concat(cs) => cs.len(),
            Production::Disjunction { alts, allows_empty } => {
                alts.len() + usize::from(*allows_empty)
            }
            Production::Star(_) => 1,
        }
    }
}

/// Errors constructing a [`Dtd`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DtdError {
    /// A production references a type that was never defined.
    UndefinedType { referenced: String, by: String },
    /// The same type was defined twice.
    DuplicateType(String),
    /// The root type has no production.
    UndefinedRoot(String),
    /// A concatenation or disjunction with an empty body.
    EmptyBody(String),
    /// Disjunction alternatives must be distinct (w.l.o.g. in the paper).
    DuplicateAlternative { ty: String, alt: String },
    /// The parsed DTD has this many types after normalization, more than
    /// [`crate::MAX_TYPES`].
    TooManyTypes(usize),
}

impl fmt::Display for DtdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtdError::UndefinedType { referenced, by } => {
                write!(f, "type {referenced:?} referenced by {by:?} is not defined")
            }
            DtdError::DuplicateType(t) => write!(f, "type {t:?} defined twice"),
            DtdError::UndefinedRoot(r) => write!(f, "root type {r:?} is not defined"),
            DtdError::EmptyBody(t) => write!(f, "production of {t:?} has an empty body"),
            DtdError::DuplicateAlternative { ty, alt } => {
                write!(f, "disjunction of {ty:?} lists alternative {alt:?} twice")
            }
            DtdError::TooManyTypes(n) => write!(
                f,
                "{n} types after normalization, more than the {} accepted",
                crate::MAX_TYPES
            ),
        }
    }
}

impl std::error::Error for DtdError {}

#[derive(Clone, Debug)]
pub(crate) struct TypeDef {
    pub(crate) name: String,
    pub(crate) prod: Production,
}

/// A DTD `S = (E, P, r)` in the paper's normal form.
#[derive(Clone, Debug)]
pub struct Dtd {
    pub(crate) defs: Vec<TypeDef>,
    pub(crate) by_name: HashMap<String, TypeId>,
    pub(crate) root: TypeId,
}

impl Dtd {
    /// Start building a DTD whose root type is `root`.
    pub fn builder(root: impl Into<String>) -> DtdBuilder {
        DtdBuilder {
            root: root.into(),
            defs: Vec::new(),
        }
    }

    /// The root type `r`.
    pub fn root(&self) -> TypeId {
        self.root
    }

    /// Number of element types `|E|`.
    pub fn type_count(&self) -> usize {
        self.defs.len()
    }

    /// Iterate over all type ids in declaration order.
    pub fn types(&self) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.defs.len()).map(TypeId::from_index)
    }

    /// The name (tag) of a type.
    pub fn name(&self, t: TypeId) -> &str {
        &self.defs[t.index()].name
    }

    /// The production `P(A)`.
    pub fn production(&self, t: TypeId) -> &Production {
        &self.defs[t.index()].prod
    }

    /// Look up a type by name.
    pub fn type_id(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).copied()
    }

    /// Total size `|S|`: number of types plus production sizes.
    pub fn size(&self) -> usize {
        self.defs.len() + self.defs.iter().map(|d| d.prod.size()).sum::<usize>()
    }

    /// `true` iff the schema graph is cyclic (the paper's definition of a
    /// *recursive* DTD).
    pub fn is_recursive(&self) -> bool {
        // Colors: 0 unvisited, 1 on stack, 2 done — iterative DFS.
        let n = self.defs.len();
        let mut color = vec![0u8; n];
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            // (type, next child index to explore)
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = 1;
            while let Some(&mut (t, ref mut i)) = stack.last_mut() {
                let children = self.defs[t].prod.children();
                if *i < children.len() {
                    let c = children[*i].index();
                    *i += 1;
                    match color[c] {
                        0 => {
                            color[c] = 1;
                            stack.push((c, 0));
                        }
                        1 => return true,
                        _ => {}
                    }
                } else {
                    color[t] = 2;
                    stack.pop();
                }
            }
        }
        false
    }
}

/// Builder collecting named productions before resolving them into a [`Dtd`].
pub struct DtdBuilder {
    root: String,
    defs: Vec<(String, ProdSpec)>,
}

enum ProdSpec {
    Str,
    Empty,
    Concat(Vec<String>),
    Disjunction(Vec<String>, bool),
    Star(String),
}

impl DtdBuilder {
    /// `A → str`.
    pub fn str_type(mut self, name: &str) -> Self {
        self.defs.push((name.into(), ProdSpec::Str));
        self
    }

    /// `A → ε`.
    pub fn empty(mut self, name: &str) -> Self {
        self.defs.push((name.into(), ProdSpec::Empty));
        self
    }

    /// `A → B1, …, Bn`.
    pub fn concat(mut self, name: &str, children: &[&str]) -> Self {
        self.defs.push((
            name.into(),
            ProdSpec::Concat(children.iter().map(|s| s.to_string()).collect()),
        ));
        self
    }

    /// `A → B1 + … + Bn`.
    pub fn disjunction(mut self, name: &str, alts: &[&str]) -> Self {
        self.defs.push((
            name.into(),
            ProdSpec::Disjunction(alts.iter().map(|s| s.to_string()).collect(), false),
        ));
        self
    }

    /// `A → B1 + … + Bn + ε` (optional content, footnote 1).
    pub fn disjunction_opt(mut self, name: &str, alts: &[&str]) -> Self {
        self.defs.push((
            name.into(),
            ProdSpec::Disjunction(alts.iter().map(|s| s.to_string()).collect(), true),
        ));
        self
    }

    /// `A → B*`.
    pub fn star(mut self, name: &str, child: &str) -> Self {
        self.defs.push((name.into(), ProdSpec::Star(child.into())));
        self
    }

    /// Resolve names and produce the [`Dtd`].
    pub fn build(self) -> Result<Dtd, DtdError> {
        let mut by_name: HashMap<String, TypeId> = HashMap::with_capacity(self.defs.len());
        for (i, (name, _)) in self.defs.iter().enumerate() {
            if by_name
                .insert(name.clone(), TypeId::from_index(i))
                .is_some()
            {
                return Err(DtdError::DuplicateType(name.clone()));
            }
        }
        let root = *by_name
            .get(&self.root)
            .ok_or_else(|| DtdError::UndefinedRoot(self.root.clone()))?;
        let resolve = |n: &str, by: &str| -> Result<TypeId, DtdError> {
            by_name
                .get(n)
                .copied()
                .ok_or_else(|| DtdError::UndefinedType {
                    referenced: n.to_string(),
                    by: by.to_string(),
                })
        };
        let mut defs = Vec::with_capacity(self.defs.len());
        for (name, spec) in &self.defs {
            let prod = match spec {
                ProdSpec::Str => Production::Str,
                ProdSpec::Empty => Production::Empty,
                ProdSpec::Concat(cs) => {
                    if cs.is_empty() {
                        return Err(DtdError::EmptyBody(name.clone()));
                    }
                    Production::Concat(
                        cs.iter()
                            .map(|c| resolve(c, name))
                            .collect::<Result<_, _>>()?,
                    )
                }
                ProdSpec::Disjunction(alts, allows_empty) => {
                    if alts.is_empty() && !allows_empty {
                        return Err(DtdError::EmptyBody(name.clone()));
                    }
                    let ids: Vec<TypeId> = alts
                        .iter()
                        .map(|c| resolve(c, name))
                        .collect::<Result<_, _>>()?;
                    for (i, a) in ids.iter().enumerate() {
                        if ids[..i].contains(a) {
                            return Err(DtdError::DuplicateAlternative {
                                ty: name.clone(),
                                alt: alts[i].clone(),
                            });
                        }
                    }
                    Production::Disjunction {
                        alts: ids,
                        allows_empty: *allows_empty,
                    }
                }
                ProdSpec::Star(c) => Production::Star(resolve(c, name)?),
            };
            defs.push(TypeDef {
                name: name.clone(),
                prod,
            });
        }
        Ok(Dtd {
            defs,
            by_name,
            root,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's S2 of Figure 2: r → A, A → A + ε.
    fn fig2_s2() -> Dtd {
        Dtd::builder("r")
            .concat("r", &["A"])
            .disjunction_opt("A", &["A"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_resolves_names() {
        let d = fig2_s2();
        assert_eq!(d.type_count(), 2);
        let r = d.type_id("r").unwrap();
        let a = d.type_id("A").unwrap();
        assert_eq!(d.root(), r);
        assert_eq!(d.name(a), "A");
        assert_eq!(d.production(r), &Production::Concat(vec![a]));
        assert_eq!(
            d.production(a),
            &Production::Disjunction {
                alts: vec![a],
                allows_empty: true
            }
        );
    }

    #[test]
    fn undefined_reference_is_an_error() {
        let e = Dtd::builder("r")
            .concat("r", &["missing"])
            .build()
            .unwrap_err();
        assert!(matches!(e, DtdError::UndefinedType { .. }));
    }

    #[test]
    fn undefined_root_is_an_error() {
        let e = Dtd::builder("nope").str_type("r").build().unwrap_err();
        assert!(matches!(e, DtdError::UndefinedRoot(_)));
    }

    #[test]
    fn duplicate_type_is_an_error() {
        let e = Dtd::builder("r")
            .str_type("r")
            .empty("r")
            .build()
            .unwrap_err();
        assert!(matches!(e, DtdError::DuplicateType(_)));
    }

    #[test]
    fn duplicate_alternative_is_an_error() {
        let e = Dtd::builder("r")
            .disjunction("r", &["a", "a"])
            .empty("a")
            .build()
            .unwrap_err();
        assert!(matches!(e, DtdError::DuplicateAlternative { .. }));
    }

    #[test]
    fn concat_may_repeat_types() {
        let d = Dtd::builder("r")
            .concat("r", &["a", "b", "a"])
            .empty("a")
            .empty("b")
            .build()
            .unwrap();
        let a = d.type_id("a").unwrap();
        let b = d.type_id("b").unwrap();
        assert_eq!(d.production(d.root()), &Production::Concat(vec![a, b, a]));
    }

    #[test]
    fn recursion_detection() {
        assert!(fig2_s2().is_recursive());
        let flat = Dtd::builder("r")
            .concat("r", &["a"])
            .str_type("a")
            .build()
            .unwrap();
        assert!(!flat.is_recursive());
        // Fig 2's S1: r → A, A → B,C, B → A+ε, C → ε — recursive via B.
        let s1 = Dtd::builder("r")
            .concat("r", &["A"])
            .concat("A", &["B", "C"])
            .disjunction_opt("B", &["A"])
            .empty("C")
            .build()
            .unwrap();
        assert!(s1.is_recursive());
    }

    #[test]
    fn production_size_for_small_model_bound() {
        let d = Dtd::builder("r")
            .concat("r", &["a", "b", "a"])
            .disjunction_opt("a", &["b"])
            .star("b", "c")
            .str_type("c")
            .build()
            .unwrap();
        assert_eq!(d.production(d.root()).size(), 3);
        assert_eq!(d.production(d.type_id("a").unwrap()).size(), 2); // b + ε
        assert_eq!(d.production(d.type_id("b").unwrap()).size(), 1);
        assert_eq!(d.size(), 4 + 3 + 2 + 1 + 1);
    }

    #[test]
    fn deep_recursion_detection_is_iterative() {
        // A chain of 100k types must not blow the stack.
        let mut b = Dtd::builder("t0");
        for i in 0..100_000 {
            b = b.concat(&format!("t{i}"), &[&format!("t{}", i + 1)]);
        }
        b = b.empty("t100000");
        let d = b.build().unwrap();
        assert!(!d.is_recursive());
    }
}
