//! Disjunctive Normal Form canonicalization of `i1` conditions.
//!
//! The desequentialization pass (§4.6) canonicalizes the condition operand
//! of each drive into its DNF. Every boolean expression has a DNF; values
//! that cannot be expanded further (probes, arguments, results of
//! non-boolean instructions) are retained as opaque literals.

use llhd::ir::{Opcode, UnitData, Value, ValueDef};
use std::collections::BTreeSet;

/// A literal: a value used positively or negated.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct Literal {
    /// The underlying `i1` value.
    pub value: Value,
    /// Whether the literal is negated.
    pub negated: bool,
}

impl Literal {
    /// A positive literal.
    pub fn pos(value: Value) -> Self {
        Literal {
            value,
            negated: false,
        }
    }

    /// A negative literal.
    pub fn neg(value: Value) -> Self {
        Literal {
            value,
            negated: true,
        }
    }

    /// The complementary literal.
    pub fn complement(self) -> Self {
        Literal {
            value: self.value,
            negated: !self.negated,
        }
    }
}

/// A conjunction of literals (one AND-term of the DNF).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct Term {
    literals: BTreeSet<Literal>,
}

impl Term {
    /// The empty term, which is the constant `true`.
    pub fn truth() -> Self {
        Term::default()
    }

    /// A term consisting of a single literal.
    pub fn of(literal: Literal) -> Self {
        let mut literals = BTreeSet::new();
        literals.insert(literal);
        Term { literals }
    }

    /// The literals of this term.
    pub fn literals(&self) -> impl Iterator<Item = &Literal> {
        self.literals.iter()
    }

    /// The number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// Whether this is the constant-true term.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Conjoin two terms. Returns `None` if the result is contradictory
    /// (contains a literal and its complement).
    pub fn and(&self, other: &Term) -> Option<Term> {
        let mut literals = self.literals.clone();
        for lit in &other.literals {
            if literals.contains(&lit.complement()) {
                return None;
            }
            literals.insert(*lit);
        }
        Some(Term { literals })
    }

    /// Whether the term contains the given literal.
    pub fn contains(&self, literal: &Literal) -> bool {
        self.literals.contains(literal)
    }
}

/// A disjunction of terms: the DNF itself.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Dnf {
    terms: Vec<Term>,
}

impl Dnf {
    /// The constant `false` (no terms).
    pub fn falsity() -> Self {
        Dnf { terms: vec![] }
    }

    /// The constant `true` (one empty term).
    pub fn truth() -> Self {
        Dnf {
            terms: vec![Term::truth()],
        }
    }

    /// A DNF consisting of a single literal.
    pub fn literal(literal: Literal) -> Self {
        Dnf {
            terms: vec![Term::of(literal)],
        }
    }

    /// The terms of the disjunction.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Whether this is the constant false.
    pub fn is_false(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether this is the constant true.
    pub fn is_true(&self) -> bool {
        self.terms.iter().any(|t| t.is_empty())
    }

    /// Disjunction of two DNFs.
    pub fn or(&self, other: &Dnf) -> Dnf {
        let mut terms = self.terms.clone();
        for term in &other.terms {
            if !terms.contains(term) {
                terms.push(term.clone());
            }
        }
        Dnf { terms }
    }

    /// Conjunction of two DNFs (distributes terms, drops contradictions).
    pub fn and(&self, other: &Dnf) -> Dnf {
        let mut terms = vec![];
        for a in &self.terms {
            for b in &other.terms {
                if let Some(t) = a.and(b) {
                    if !terms.contains(&t) {
                        terms.push(t);
                    }
                }
            }
        }
        Dnf { terms }
    }
}

/// The maximum number of terms produced before the expansion bails out and
/// treats the value as an opaque literal.
const MAX_TERMS: usize = 64;

/// Canonicalize the condition `value` of `unit` into DNF. `negated` requests
/// the DNF of the complement.
pub fn dnf_of(unit: &UnitData, value: Value, negated: bool) -> Dnf {
    let dnf = expand(unit, value, negated, 0);
    if dnf.terms().len() > MAX_TERMS {
        // Too large: fall back to an opaque literal.
        Dnf::literal(Literal { value, negated })
    } else {
        dnf
    }
}

fn expand(unit: &UnitData, value: Value, negated: bool, depth: usize) -> Dnf {
    if depth > 32 {
        return Dnf::literal(Literal { value, negated });
    }
    // Constants fold directly.
    if let Some(c) = unit.get_const(value) {
        let truthy = c.is_truthy() ^ negated;
        return if truthy { Dnf::truth() } else { Dnf::falsity() };
    }
    let inst = match unit.value_def(value) {
        ValueDef::Inst(inst) => inst,
        _ => return Dnf::literal(Literal { value, negated }),
    };
    let data = unit.inst_data(inst);
    let is_bool = |v: Value| matches!(unit.value_type(v).kind(), llhd::ty::TypeKind::Int(1));
    match data.opcode {
        Opcode::And | Opcode::Or => {
            let a = expand(unit, data.args[0], negated, depth + 1);
            let b = expand(unit, data.args[1], negated, depth + 1);
            // De Morgan: negation swaps the connective.
            let use_and = (data.opcode == Opcode::And) ^ negated;
            if use_and {
                a.and(&b)
            } else {
                a.or(&b)
            }
        }
        Opcode::Not => expand(unit, data.args[0], !negated, depth + 1),
        Opcode::Xor | Opcode::Neq if is_bool(data.args[0]) && is_bool(data.args[1]) => {
            // a xor b = (a & !b) | (!a & b); negated gives the equivalence.
            let (x, y) = (data.args[0], data.args[1]);
            if !negated {
                expand(unit, x, false, depth + 1)
                    .and(&expand(unit, y, true, depth + 1))
                    .or(&expand(unit, x, true, depth + 1).and(&expand(unit, y, false, depth + 1)))
            } else {
                expand(unit, x, false, depth + 1)
                    .and(&expand(unit, y, false, depth + 1))
                    .or(&expand(unit, x, true, depth + 1).and(&expand(unit, y, true, depth + 1)))
            }
        }
        Opcode::Eq if is_bool(data.args[0]) && is_bool(data.args[1]) => {
            // a == b on booleans is the negation of xor.
            let (x, y) = (data.args[0], data.args[1]);
            if negated {
                expand(unit, x, false, depth + 1)
                    .and(&expand(unit, y, true, depth + 1))
                    .or(&expand(unit, x, true, depth + 1).and(&expand(unit, y, false, depth + 1)))
            } else {
                expand(unit, x, false, depth + 1)
                    .and(&expand(unit, y, false, depth + 1))
                    .or(&expand(unit, x, true, depth + 1).and(&expand(unit, y, true, depth + 1)))
            }
        }
        _ => Dnf::literal(Literal { value, negated }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;
    use llhd::ir::Module;

    fn build(src: &str) -> (Module, Vec<Value>) {
        let module = parse_module(src).unwrap();
        let unit = module.unit(module.units()[0]);
        let args = unit.args();
        (module, args)
    }

    /// The posedge expression of Figure 5: `and(neq(clk0, clk1), clk1)`.
    #[test]
    fn posedge_expands_to_rising_edge_term() {
        let (module, _) = build(
            r#"
            func @f (i1 %clk0, i1 %clk1) i1 {
            entry:
                %chg = neq i1 %clk0, %clk1
                %posedge = and i1 %chg, %clk1
                ret i1 %posedge
            }
            "#,
        );
        let unit = module.unit(module.units()[0]);
        let ret = *unit.all_insts().last().unwrap();
        let posedge = unit.inst_data(ret).args[0];
        let clk0 = unit.arg_value(0);
        let clk1 = unit.arg_value(1);
        let dnf = dnf_of(unit, posedge, false);
        // Expected single term: !clk0 & clk1 (the clk0 & !clk1 & clk1 branch
        // is contradictory and disappears).
        assert_eq!(dnf.terms().len(), 1);
        let term = &dnf.terms()[0];
        assert!(term.contains(&Literal::neg(clk0)));
        assert!(term.contains(&Literal::pos(clk1)));
        assert_eq!(term.len(), 2);
    }

    #[test]
    fn negation_uses_de_morgan() {
        let (module, _) = build(
            r#"
            func @f (i1 %a, i1 %b) i1 {
            entry:
                %x = and i1 %a, %b
                %y = not i1 %x
                ret i1 %y
            }
            "#,
        );
        let unit = module.unit(module.units()[0]);
        let ret = *unit.all_insts().last().unwrap();
        let y = unit.inst_data(ret).args[0];
        let dnf = dnf_of(unit, y, false);
        // !(a & b) = !a | !b
        assert_eq!(dnf.terms().len(), 2);
        assert!(dnf
            .terms()
            .iter()
            .any(|t| t.contains(&Literal::neg(unit.arg_value(0)))));
        assert!(dnf
            .terms()
            .iter()
            .any(|t| t.contains(&Literal::neg(unit.arg_value(1)))));
    }

    #[test]
    fn constants_fold() {
        let (module, _) = build(
            r#"
            func @f (i1 %a) i1 {
            entry:
                %t = const i1 1
                %x = and i1 %a, %t
                ret i1 %x
            }
            "#,
        );
        let unit = module.unit(module.units()[0]);
        let ret = *unit.all_insts().last().unwrap();
        let x = unit.inst_data(ret).args[0];
        let dnf = dnf_of(unit, x, false);
        assert_eq!(dnf.terms().len(), 1);
        assert_eq!(dnf.terms()[0].len(), 1);
        assert!(dnf.terms()[0].contains(&Literal::pos(unit.arg_value(0))));
        // x & false = false
        let dnf_false = dnf_of(unit, x, true).and(&dnf_of(unit, x, false));
        assert!(dnf_false.is_false());
    }

    #[test]
    fn opaque_values_stay_literals() {
        let (module, _) = build(
            r#"
            func @f (i8 %a, i8 %b) i1 {
            entry:
                %cmp = ult i8 %a, %b
                ret i1 %cmp
            }
            "#,
        );
        let unit = module.unit(module.units()[0]);
        let ret = *unit.all_insts().last().unwrap();
        let cmp = unit.inst_data(ret).args[0];
        let dnf = dnf_of(unit, cmp, false);
        assert_eq!(dnf.terms().len(), 1);
        assert!(dnf.terms()[0].contains(&Literal::pos(cmp)));
    }

    #[test]
    fn dnf_algebra() {
        let a = Literal::pos(Value(1));
        let b = Literal::pos(Value(2));
        let dnf_a = Dnf::literal(a);
        let dnf_b = Dnf::literal(b);
        let both = dnf_a.and(&dnf_b);
        assert_eq!(both.terms().len(), 1);
        assert_eq!(both.terms()[0].len(), 2);
        let either = dnf_a.or(&dnf_b);
        assert_eq!(either.terms().len(), 2);
        let contradiction = dnf_a.and(&Dnf::literal(a.complement()));
        assert!(contradiction.is_false());
        assert!(Dnf::truth().is_true());
        assert!(Dnf::falsity().is_false());
        assert!(Dnf::truth().and(&dnf_a).terms()[0].contains(&a));
    }
}
