//! State dimension: the set `X = {x1, …, xl}` of possible resource states.
//!
//! A state is a named, timestamped activity with a begin and an end (e.g. a
//! function call and its return, §III.A(3)). The paper deliberately puts no
//! algebraic structure on `X`; we only intern names to dense ids.

use std::collections::BTreeMap;
use std::fmt;

/// Dense identifier of a state within a [`StateRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u16);

impl StateId {
    /// Raw dense index for per-state arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Interning table for state names.
///
/// Ids are dense (`0..len`) so per-state data can live in flat arrays.
/// The name index is ordered, so dropping a registry frees its names in
/// the same order in every process (a `HashMap` frees them in the order of
/// its per-process random keys, which leaves the heap a different shape
/// on each run).
#[derive(Debug, Clone, Default)]
pub struct StateRegistry {
    names: Vec<String>,
    index: BTreeMap<String, StateId>,
}

impl StateRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a registry from a list of names (deduplicating).
    pub fn from_names<I: IntoIterator<Item = impl AsRef<str>>>(names: I) -> Self {
        let mut r = Self::new();
        for n in names {
            r.intern(n.as_ref());
        }
        r
    }

    /// Get-or-insert a state by name.
    pub fn intern(&mut self, name: &str) -> StateId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = StateId(u16::try_from(self.names.len()).expect("more than 65535 distinct states"));
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Look up a state by name without inserting.
    pub fn get(&self, name: &str) -> Option<StateId> {
        self.index.get(name).copied()
    }

    /// Name of a state id.
    #[inline]
    pub fn name(&self, id: StateId) -> &str {
        &self.names[id.index()]
    }

    /// `|X|`: number of distinct states.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no states have been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (StateId(i as u16), n.as_str()))
    }

    /// All state ids in order.
    pub fn ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.names.len() as u16).map(StateId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut r = StateRegistry::new();
        let a = r.intern("MPI_Send");
        let b = r.intern("MPI_Recv");
        assert_ne!(a, b);
        assert_eq!(r.intern("MPI_Send"), a);
        assert_eq!(r.len(), 2);
        assert_eq!(r.name(a), "MPI_Send");
    }

    #[test]
    fn get_does_not_insert() {
        let mut r = StateRegistry::new();
        assert_eq!(r.get("x"), None);
        let id = r.intern("x");
        assert_eq!(r.get("x"), Some(id));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn from_names_dedups() {
        let r = StateRegistry::from_names(["a", "b", "a", "c"]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.get("a"), Some(StateId(0)));
        assert_eq!(r.get("c"), Some(StateId(2)));
    }

    #[test]
    fn iter_in_id_order() {
        let r = StateRegistry::from_names(["z", "y", "x"]);
        let names: Vec<&str> = r.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["z", "y", "x"]);
        let ids: Vec<StateId> = r.ids().collect();
        assert_eq!(ids, vec![StateId(0), StateId(1), StateId(2)]);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", StateId(7)), "x7");
    }
}
