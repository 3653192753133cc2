//! Provenance of derived atoms, link types and atom types.
//!
//! The propagation function `prop` (Def. 9) materializes result sets as
//! **renamed** atom types with restricted occurrences: the new atoms are
//! pure copies of base atoms. Def. 9 then asserts "for each element within
//! rsv there is exactly one equivalent molecule within mv and vice versa" —
//! an equivalence that only makes sense if copies remember what they copy.
//! [`Provenance`] records exactly that:
//!
//! * a *copy* provenance per propagated atom ([`Provenance::canonical_atom`]
//!   resolves any number of propagations back to the base atom, so equality
//!   across propagations compares base identities);
//! * the analogous mapping for propagated atom types;
//! * for inherited link types, additionally the **canonical traversal
//!   direction**: a propagated link store is always oriented parent→child,
//!   while the base link type it renames may have been traversed `Bwd` or
//!   `Sym` — Ω/Δ compatibility checks need the base orientation back.
//!
//! Copies are stored *chain-compressed*: recording a copy of a copy stores
//! the base directly, so every lookup is a single map probe.
//!
//! Atoms produced by the *atom-type operations* of Def. 4 (π σ × ω δ) are
//! genuinely new values, not renamings; they get no copy provenance and are
//! their own canonical representatives.

use mad_model::{AtomId, AtomTypeId, FxHashMap, LinkTypeId};
use mad_storage::database::Direction;

/// Copy-provenance registry (see module docs).
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    atom_copy: FxHashMap<AtomId, AtomId>,
    type_copy: FxHashMap<AtomTypeId, AtomTypeId>,
    link_copy: FxHashMap<LinkTypeId, (LinkTypeId, Direction)>,
}

fn flip(dir: Direction) -> Direction {
    match dir {
        Direction::Fwd => Direction::Bwd,
        Direction::Bwd => Direction::Fwd,
        Direction::Sym => Direction::Sym,
    }
}

impl Provenance {
    /// An empty registry.
    pub fn new() -> Self {
        Provenance::default()
    }

    /// Record that `copy` is a propagated copy of `of` (chain-compressed).
    pub fn record_atom_copy(&mut self, copy: AtomId, of: AtomId) {
        debug_assert_ne!(copy, of);
        let base = self.canonical_atom(of);
        self.atom_copy.insert(copy, base);
    }

    /// Record that atom type `copy` is a propagated renaming of `of`.
    pub fn record_type_copy(&mut self, copy: AtomTypeId, of: AtomTypeId) {
        debug_assert_ne!(copy, of);
        let base = self.canonical_type(of);
        self.type_copy.insert(copy, base);
    }

    /// Record that link type `copy` renames `of`, and that traversing
    /// `copy` forward (parent→child) corresponds to traversing the *base*
    /// link type in direction `dir_of_base`.
    pub fn record_link_copy(&mut self, copy: LinkTypeId, of: LinkTypeId, dir_of_base: Direction) {
        debug_assert_ne!(copy, of);
        let (base, dir) = self.canonical_link(of, dir_of_base);
        self.link_copy.insert(copy, (base, dir));
    }

    /// The base atom behind `a` (identity for base atoms and for results of
    /// atom-type operations).
    pub fn canonical_atom(&self, a: AtomId) -> AtomId {
        self.atom_copy.get(&a).copied().unwrap_or(a)
    }

    /// The base atom type behind `t`.
    pub fn canonical_type(&self, t: AtomTypeId) -> AtomTypeId {
        self.type_copy.get(&t).copied().unwrap_or(t)
    }

    /// The base link type behind `l`, together with the base-level traversal
    /// direction corresponding to traversing `l` in direction `dir`.
    pub fn canonical_link(&self, l: LinkTypeId, dir: Direction) -> (LinkTypeId, Direction) {
        match self.link_copy.get(&l) {
            Some(&(base, base_dir)) => {
                // traversing the copy Fwd corresponds to base_dir; Bwd flips
                let d = match dir {
                    Direction::Fwd => base_dir,
                    Direction::Bwd => flip(base_dir),
                    Direction::Sym => Direction::Sym,
                };
                (base, d)
            }
            None => (l, dir),
        }
    }

    /// Is `a` a propagated copy (as opposed to a base/op-derived atom)?
    pub fn is_copy(&self, a: AtomId) -> bool {
        self.atom_copy.contains_key(&a)
    }

    /// Drop every entry keyed by an atom type id at or beyond `atom_types`
    /// or a link type id at or beyond `link_types` — the derived types of
    /// an image that is being replaced by one with those type counts.
    pub fn prune(&mut self, atom_types: usize, link_types: usize) {
        self.atom_copy.retain(|a, _| (a.ty.0 as usize) < atom_types);
        self.type_copy.retain(|t, _| (t.0 as usize) < atom_types);
        self.link_copy.retain(|l, _| (l.0 as usize) < link_types);
    }

    /// Number of recorded atom copies (diagnostics).
    pub fn atom_copies(&self) -> usize {
        self.atom_copy.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(ty: u32, slot: u32) -> AtomId {
        AtomId::new(AtomTypeId(ty), slot)
    }

    #[test]
    fn canonical_chains_are_compressed() {
        let mut p = Provenance::new();
        let base = aid(0, 1);
        let c1 = aid(5, 0);
        let c2 = aid(9, 3);
        p.record_atom_copy(c1, base);
        p.record_atom_copy(c2, c1);
        assert_eq!(p.canonical_atom(c2), base);
        assert_eq!(p.canonical_atom(c1), base);
        assert_eq!(p.canonical_atom(base), base);
        assert!(p.is_copy(c1));
        assert!(!p.is_copy(base));
        assert_eq!(p.atom_copies(), 2);
    }

    #[test]
    fn type_chains() {
        let mut p = Provenance::new();
        p.record_type_copy(AtomTypeId(7), AtomTypeId(2));
        p.record_type_copy(AtomTypeId(9), AtomTypeId(7));
        assert_eq!(p.canonical_type(AtomTypeId(9)), AtomTypeId(2));
        assert_eq!(p.canonical_type(AtomTypeId(3)), AtomTypeId(3));
    }

    #[test]
    fn link_direction_composition() {
        let mut p = Provenance::new();
        // copy lt4 renames base lt1; traversing lt4 Fwd == traversing lt1 Bwd
        p.record_link_copy(LinkTypeId(4), LinkTypeId(1), Direction::Bwd);
        assert_eq!(
            p.canonical_link(LinkTypeId(4), Direction::Fwd),
            (LinkTypeId(1), Direction::Bwd)
        );
        assert_eq!(
            p.canonical_link(LinkTypeId(4), Direction::Bwd),
            (LinkTypeId(1), Direction::Fwd)
        );
        assert_eq!(
            p.canonical_link(LinkTypeId(4), Direction::Sym),
            (LinkTypeId(1), Direction::Sym)
        );
        // a second-level copy composes through the first
        p.record_link_copy(LinkTypeId(8), LinkTypeId(4), Direction::Fwd);
        assert_eq!(
            p.canonical_link(LinkTypeId(8), Direction::Fwd),
            (LinkTypeId(1), Direction::Bwd)
        );
        // untouched link types are their own canonical form
        assert_eq!(
            p.canonical_link(LinkTypeId(0), Direction::Fwd),
            (LinkTypeId(0), Direction::Fwd)
        );
    }
}
