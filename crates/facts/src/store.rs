//! The multi-relation fact store with change notification.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::FactError;
use crate::relation::Relation;

/// A change applied to the store, as seen by watchers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactChange<V> {
    /// A tuple became true.
    Inserted {
        /// Relation name.
        relation: String,
        /// The inserted tuple.
        tuple: Vec<V>,
    },
    /// A tuple ceased to be true.
    Retracted {
        /// Relation name.
        relation: String,
        /// The retracted tuple.
        tuple: Vec<V>,
    },
}

impl<V> FactChange<V> {
    /// The relation the change applies to.
    pub fn relation(&self) -> &str {
        match self {
            FactChange::Inserted { relation, .. } | FactChange::Retracted { relation, .. } => {
                relation
            }
        }
    }

    /// The tuple that was inserted or retracted.
    pub fn tuple(&self) -> &[V] {
        match self {
            FactChange::Inserted { tuple, .. } | FactChange::Retracted { tuple, .. } => tuple,
        }
    }
}

type Watcher<V> = Arc<dyn Fn(&FactChange<V>) + Send + Sync>;

/// A thread-safe store of named relations.
///
/// See the [crate-level documentation](crate) for the role this plays in
/// OASIS environmental constraints, and an example.
pub struct FactStore<V> {
    relations: RwLock<HashMap<String, Relation<V>>>,
    /// In registration order, which is the order they run in.
    watchers: RwLock<Vec<Watcher<V>>>,
    /// Bumped on every effective insert/retract, before watchers run.
    /// Readers that cache derived state (e.g. compiled membership
    /// re-checks) compare epochs to skip work when nothing changed.
    epoch: AtomicU64,
}

impl<V> fmt::Debug for FactStore<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FactStore")
            .field("relations", &self.relations.read().len())
            .field("watchers", &self.watchers.read().len())
            .finish()
    }
}

impl<V> Default for FactStore<V> {
    fn default() -> Self {
        Self {
            relations: RwLock::new(HashMap::new()),
            watchers: RwLock::new(Vec::new()),
            epoch: AtomicU64::new(0),
        }
    }
}

impl<V: Clone + Eq + Hash> FactStore<V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a relation with the given arity.
    ///
    /// # Errors
    ///
    /// [`FactError::DuplicateRelation`] if already declared;
    /// [`FactError::ZeroArity`] if `arity` is zero.
    pub fn define(&self, name: impl Into<String>, arity: usize) -> Result<(), FactError> {
        let name = name.into();
        if arity == 0 {
            return Err(FactError::ZeroArity(name));
        }
        let mut relations = self.relations.write();
        if relations.contains_key(&name) {
            return Err(FactError::DuplicateRelation(name));
        }
        relations.insert(name, Relation::new(arity));
        Ok(())
    }

    /// Declares a relation if it does not already exist.
    ///
    /// # Errors
    ///
    /// [`FactError::ArityMismatch`] if it exists with a different arity;
    /// [`FactError::ZeroArity`] if `arity` is zero.
    pub fn define_if_absent(&self, name: impl Into<String>, arity: usize) -> Result<(), FactError> {
        let name = name.into();
        if arity == 0 {
            return Err(FactError::ZeroArity(name));
        }
        let mut relations = self.relations.write();
        if let Some(existing) = relations.get(&name) {
            if existing.arity() != arity {
                return Err(FactError::ArityMismatch {
                    relation: name,
                    expected: existing.arity(),
                    actual: arity,
                });
            }
            return Ok(());
        }
        relations.insert(name, Relation::new(arity));
        Ok(())
    }

    fn check<'a, T>(
        relations: &'a HashMap<String, Relation<V>>,
        name: &str,
        columns: &[T],
    ) -> Result<&'a Relation<V>, FactError> {
        let relation = relations
            .get(name)
            .ok_or_else(|| FactError::UnknownRelation(name.to_string()))?;
        if relation.arity() != columns.len() {
            return Err(FactError::ArityMismatch {
                relation: name.to_string(),
                expected: relation.arity(),
                actual: columns.len(),
            });
        }
        Ok(relation)
    }

    /// Asserts a fact. Returns `true` if it was newly inserted.
    ///
    /// Watchers observe the change (synchronously, on this thread) only
    /// when the store actually changed.
    ///
    /// # Errors
    ///
    /// [`FactError::UnknownRelation`] / [`FactError::ArityMismatch`].
    pub fn insert(&self, relation: &str, tuple: Vec<V>) -> Result<bool, FactError> {
        let inserted = {
            let mut relations = self.relations.write();
            Self::check(&relations, relation, &tuple)?;
            relations
                .get_mut(relation)
                .expect("checked above")
                .insert(tuple.clone())
        };
        if inserted {
            self.epoch.fetch_add(1, Ordering::Release);
            self.notify(&FactChange::Inserted {
                relation: relation.to_string(),
                tuple,
            });
        }
        Ok(inserted)
    }

    /// Retracts a fact. Returns `true` if it was present.
    ///
    /// # Errors
    ///
    /// [`FactError::UnknownRelation`] / [`FactError::ArityMismatch`].
    pub fn retract(&self, relation: &str, tuple: &[V]) -> Result<bool, FactError> {
        let retracted = {
            let mut relations = self.relations.write();
            Self::check(&relations, relation, tuple)?;
            relations
                .get_mut(relation)
                .expect("checked above")
                .retract(tuple)
        };
        if retracted {
            self.epoch.fetch_add(1, Ordering::Release);
            self.notify(&FactChange::Retracted {
                relation: relation.to_string(),
                tuple: tuple.to_vec(),
            });
        }
        Ok(retracted)
    }

    /// Whether the exact tuple is currently true.
    ///
    /// # Errors
    ///
    /// [`FactError::UnknownRelation`] / [`FactError::ArityMismatch`].
    pub fn contains(&self, relation: &str, tuple: &[V]) -> Result<bool, FactError> {
        let relations = self.relations.read();
        let rel = Self::check(&relations, relation, tuple)?;
        Ok(rel.contains(tuple))
    }

    /// Returns every tuple matching `pattern` (`None` = wildcard).
    ///
    /// # Errors
    ///
    /// [`FactError::UnknownRelation`] / [`FactError::ArityMismatch`].
    pub fn query(&self, relation: &str, pattern: &[Option<V>]) -> Result<Vec<Vec<V>>, FactError> {
        let relations = self.relations.read();
        let rel = Self::check(&relations, relation, pattern)?;
        Ok(rel.query(pattern))
    }

    /// Whether any tuple matches `pattern` (`None` = wildcard), without
    /// materialising the matching rows. Prefer this over [`query`] when
    /// only existence matters — it short-circuits on the first hit.
    ///
    /// [`query`]: FactStore::query
    ///
    /// # Errors
    ///
    /// [`FactError::UnknownRelation`] / [`FactError::ArityMismatch`].
    pub fn exists(&self, relation: &str, pattern: &[Option<V>]) -> Result<bool, FactError> {
        let relations = self.relations.read();
        let rel = Self::check(&relations, relation, pattern)?;
        Ok(rel.exists(pattern))
    }

    /// The store's mutation epoch: a counter bumped on every *effective*
    /// insert or retract. Two equal readings with no interleaving bump
    /// guarantee no fact changed in between, letting callers skip
    /// re-evaluating fact-only derived state.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of tuples currently in `relation`.
    ///
    /// # Errors
    ///
    /// [`FactError::UnknownRelation`].
    pub fn len(&self, relation: &str) -> Result<usize, FactError> {
        let relations = self.relations.read();
        relations
            .get(relation)
            .map(Relation::len)
            .ok_or_else(|| FactError::UnknownRelation(relation.to_string()))
    }

    /// Snapshot of every tuple in `relation`.
    ///
    /// # Errors
    ///
    /// [`FactError::UnknownRelation`].
    pub fn all(&self, relation: &str) -> Result<Vec<Vec<V>>, FactError> {
        let relations = self.relations.read();
        relations
            .get(relation)
            .map(Relation::all)
            .ok_or_else(|| FactError::UnknownRelation(relation.to_string()))
    }

    /// Names of all declared relations, sorted.
    pub fn relations(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Dumps the entire store as plain data — `(relation, arity, tuples)`
    /// triples, relations sorted by name (tuple order within a relation is
    /// unspecified) — suitable for serialisation by the caller and for
    /// [`FactStore::restore`].
    pub fn dump(&self) -> Vec<(String, usize, Vec<Vec<V>>)> {
        let relations = self.relations.read();
        let mut names: Vec<&String> = relations.keys().collect();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let rel = &relations[name];
                (name.clone(), rel.arity(), rel.all())
            })
            .collect()
    }

    /// Recreates a store from a [`FactStore::dump`]. Watchers are **not**
    /// notified for the restored tuples (restoration is state transfer,
    /// not change).
    ///
    /// # Errors
    ///
    /// [`FactError::DuplicateRelation`], [`FactError::ZeroArity`], or
    /// [`FactError::ArityMismatch`] if the dump is malformed.
    pub fn restore(dump: Vec<(String, usize, Vec<Vec<V>>)>) -> Result<Self, FactError> {
        let store = Self::new();
        {
            let mut relations = store.relations.write();
            for (name, arity, tuples) in dump {
                if arity == 0 {
                    return Err(FactError::ZeroArity(name));
                }
                if relations.contains_key(&name) {
                    return Err(FactError::DuplicateRelation(name));
                }
                let mut relation = Relation::new(arity);
                for tuple in tuples {
                    if tuple.len() != arity {
                        return Err(FactError::ArityMismatch {
                            relation: name,
                            expected: arity,
                            actual: tuple.len(),
                        });
                    }
                    relation.insert(tuple);
                }
                relations.insert(name, relation);
            }
        }
        Ok(store)
    }

    /// Registers a watcher invoked synchronously on every effective
    /// change, after the watchers registered before it.
    pub fn watch(&self, watcher: impl Fn(&FactChange<V>) + Send + Sync + 'static) {
        self.watchers.write().push(Arc::new(watcher));
    }

    fn notify(&self, change: &FactChange<V>) {
        // Clone the watcher list out so watchers may themselves mutate the
        // store (e.g. a revocation cascade retracting further facts).
        let watchers: Vec<Watcher<V>> = self.watchers.read().clone();
        for watcher in watchers {
            watcher(change);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    fn store() -> FactStore<String> {
        let s = FactStore::new();
        s.define("registered", 2).unwrap();
        s
    }

    fn t2(a: &str, b: &str) -> Vec<String> {
        vec![a.to_string(), b.to_string()]
    }

    #[test]
    fn define_twice_fails() {
        let s = store();
        assert_eq!(
            s.define("registered", 2),
            Err(FactError::DuplicateRelation("registered".into()))
        );
    }

    #[test]
    fn define_if_absent_is_idempotent_but_arity_checked() {
        let s = store();
        assert!(s.define_if_absent("registered", 2).is_ok());
        assert!(matches!(
            s.define_if_absent("registered", 3),
            Err(FactError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn zero_arity_rejected() {
        let s = FactStore::<String>::new();
        assert_eq!(s.define("r", 0), Err(FactError::ZeroArity("r".into())));
        assert_eq!(
            s.define_if_absent("r", 0),
            Err(FactError::ZeroArity("r".into()))
        );
    }

    #[test]
    fn unknown_relation_errors() {
        let s = FactStore::<String>::new();
        assert_eq!(
            s.insert("ghost", vec!["x".into()]),
            Err(FactError::UnknownRelation("ghost".into()))
        );
        assert_eq!(
            s.len("ghost"),
            Err(FactError::UnknownRelation("ghost".into()))
        );
    }

    #[test]
    fn arity_mismatch_on_insert() {
        let s = store();
        assert!(matches!(
            s.insert("registered", vec!["only-one".into()]),
            Err(FactError::ArityMismatch {
                expected: 2,
                actual: 1,
                ..
            })
        ));
    }

    #[test]
    fn insert_query_retract_cycle() {
        let s = store();
        assert!(s.insert("registered", t2("d", "p")).unwrap());
        assert!(!s.insert("registered", t2("d", "p")).unwrap());
        assert!(s.contains("registered", &t2("d", "p")).unwrap());
        assert_eq!(s.len("registered").unwrap(), 1);
        assert!(s.retract("registered", &t2("d", "p")).unwrap());
        assert!(!s.retract("registered", &t2("d", "p")).unwrap());
        assert_eq!(s.len("registered").unwrap(), 0);
    }

    #[test]
    fn watcher_sees_effective_changes_only() {
        let s = store();
        let log: Arc<Mutex<Vec<FactChange<String>>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        s.watch(move |c| log2.lock().push(c.clone()));

        s.insert("registered", t2("d", "p")).unwrap();
        s.insert("registered", t2("d", "p")).unwrap(); // duplicate: no event
        s.retract("registered", &t2("d", "p")).unwrap();
        s.retract("registered", &t2("d", "p")).unwrap(); // absent: no event

        let log = log.lock();
        assert_eq!(log.len(), 2);
        assert!(matches!(log[0], FactChange::Inserted { .. }));
        assert!(matches!(log[1], FactChange::Retracted { .. }));
        assert_eq!(log[1].relation(), "registered");
        assert_eq!(log[1].tuple(), t2("d", "p").as_slice());
    }

    #[test]
    fn watchers_run_in_registration_order() {
        let s = store();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..8 {
            let order = Arc::clone(&order);
            s.watch(move |_| order.lock().push(i));
        }
        s.insert("registered", t2("d", "p")).unwrap();
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn watcher_may_reenter_store() {
        let s = Arc::new(FactStore::<String>::new());
        s.define("a", 1).unwrap();
        s.define("b", 1).unwrap();
        let s2 = Arc::clone(&s);
        s.watch(move |change| {
            if change.relation() == "a" {
                // Cascading insert from inside a watcher must not deadlock.
                s2.insert("b", change.tuple().to_vec()).unwrap();
            }
        });
        s.insert("a", vec!["x".into()]).unwrap();
        assert!(s.contains("b", &["x".to_string()]).unwrap());
    }

    #[test]
    fn relations_lists_sorted_names() {
        let s = FactStore::<String>::new();
        s.define("zeta", 1).unwrap();
        s.define("alpha", 1).unwrap();
        assert_eq!(s.relations(), vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[test]
    fn dump_restore_round_trip() {
        let s = store();
        s.define("groups", 1).unwrap();
        s.insert("registered", t2("d1", "p1")).unwrap();
        s.insert("registered", t2("d2", "p2")).unwrap();
        s.insert("groups", vec!["admins".to_string()]).unwrap();

        let dump = s.dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].0, "groups", "relations sorted by name");

        let restored = FactStore::restore(dump).unwrap();
        assert_eq!(restored.len("registered").unwrap(), 2);
        assert!(restored.contains("registered", &t2("d2", "p2")).unwrap());
        assert!(restored
            .contains("groups", &["admins".to_string()])
            .unwrap());
    }

    #[test]
    fn restore_rejects_malformed_dumps() {
        assert!(matches!(
            FactStore::<String>::restore(vec![("r".into(), 0, vec![])]),
            Err(FactError::ZeroArity(_))
        ));
        assert!(matches!(
            FactStore::restore(vec![
                ("r".into(), 1, vec![]),
                ("r".into(), 1, vec![vec!["x".to_string()]]),
            ]),
            Err(FactError::DuplicateRelation(_))
        ));
        assert!(matches!(
            FactStore::restore(vec![("r".into(), 2, vec![vec!["only-one".to_string()]])]),
            Err(FactError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn restore_does_not_notify_watchers() {
        let s = store();
        s.insert("registered", t2("d", "p")).unwrap();
        let restored = FactStore::restore(s.dump()).unwrap();
        let fired = Arc::new(Mutex::new(0));
        let fired2 = Arc::clone(&fired);
        restored.watch(move |_| *fired2.lock() += 1);
        // Only new changes notify.
        restored.insert("registered", t2("x", "y")).unwrap();
        assert_eq!(*fired.lock(), 1);
    }

    #[test]
    fn exists_short_circuits_and_matches_query() {
        let s = store();
        s.insert("registered", t2("d1", "p1")).unwrap();
        s.insert("registered", t2("d1", "p2")).unwrap();

        assert!(s
            .exists("registered", &[Some("d1".to_string()), None])
            .unwrap());
        assert!(!s
            .exists("registered", &[Some("d9".to_string()), None])
            .unwrap());
        assert!(s
            .exists(
                "registered",
                &[Some("d1".to_string()), Some("p2".to_string())]
            )
            .unwrap());
        assert!(s.exists("registered", &[None, None]).unwrap());
        s.retract("registered", &t2("d1", "p1")).unwrap();
        s.retract("registered", &t2("d1", "p2")).unwrap();
        assert!(!s.exists("registered", &[None, None]).unwrap());
        assert_eq!(
            s.exists("ghost", &[None]),
            Err(FactError::UnknownRelation("ghost".into()))
        );
    }

    #[test]
    fn epoch_counts_effective_changes_only() {
        let s = store();
        assert_eq!(s.epoch(), 0);
        s.insert("registered", t2("d", "p")).unwrap();
        assert_eq!(s.epoch(), 1);
        s.insert("registered", t2("d", "p")).unwrap(); // duplicate
        assert_eq!(s.epoch(), 1);
        s.retract("registered", &t2("d", "p")).unwrap();
        assert_eq!(s.epoch(), 2);
        s.retract("registered", &t2("d", "p")).unwrap(); // absent
        assert_eq!(s.epoch(), 2);
    }

    #[test]
    fn query_patterns() {
        let s = store();
        s.insert("registered", t2("d1", "p1")).unwrap();
        s.insert("registered", t2("d1", "p2")).unwrap();
        s.insert("registered", t2("d2", "p1")).unwrap();

        let mut by_doctor = s
            .query("registered", &[Some("d1".to_string()), None])
            .unwrap();
        by_doctor.sort();
        assert_eq!(by_doctor, vec![t2("d1", "p1"), t2("d1", "p2")]);

        let by_patient = s
            .query("registered", &[None, Some("p1".to_string())])
            .unwrap();
        assert_eq!(by_patient.len(), 2);

        assert_eq!(s.query("registered", &[None, None]).unwrap().len(), 3);
    }
}
