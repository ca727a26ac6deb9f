//! Translation cache (paper §V-B: "we could translate faster by introducing a
//! translation cache").
//!
//! Caches the generated SQL text keyed by (query source, strategy, options),
//! so repeated submissions of the same JSONiq query skip parsing, rewriting,
//! iterator-tree construction, and Snowpark composition entirely.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ast::JResult;
use crate::snowflake::{NestedStrategy, Translator};
use snowpark::{DataFrame, Session};

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    source: String,
    strategy_join: bool,
    native_filter: bool,
}

/// The translations of one schema generation. Translated SQL expands `$t` to
/// the column list of the table as it existed at translation time, so a
/// re-ingested or altered table must miss, or the cache serves SQL bound to a
/// schema that no longer exists. Every commit bumps the generation, and only
/// the newest one is kept: under writes the cache holds what the current
/// generation translated, not one copy per generation.
#[derive(Default)]
struct Generation {
    generation: u64,
    entries: HashMap<CacheKey, Arc<str>>,
}

/// A translating front-end with a query-text cache.
pub struct CachingTranslator {
    session: Session,
    cache: Mutex<Generation>,
    stats: Mutex<CacheStats>,
    native_filter: bool,
}

impl CachingTranslator {
    /// Creates an empty cache bound to a session.
    pub fn new(session: Session) -> CachingTranslator {
        CachingTranslator {
            session,
            cache: Mutex::new(Generation::default()),
            stats: Mutex::new(CacheStats::default()),
            native_filter: false,
        }
    }

    /// Enables the §VII-B native array-filter fast path for cache misses.
    pub fn with_native_array_filter(mut self, on: bool) -> CachingTranslator {
        self.native_filter = on;
        self
    }

    /// Translates (or re-uses) a query; the returned dataframe is bound to the
    /// cache's session.
    pub fn translate(&self, src: &str, strategy: NestedStrategy) -> JResult<DataFrame> {
        let key = CacheKey {
            source: src.to_string(),
            strategy_join: strategy == NestedStrategy::JoinBased,
            native_filter: self.native_filter,
        };
        let generation = self.session.schema_generation();
        let cached = {
            let cache = self.cache.lock();
            (cache.generation == generation).then(|| cache.entries.get(&key).cloned()).flatten()
        };
        if let Some(sql) = cached {
            self.stats.lock().hits += 1;
            return Ok(self.session.sql(&sql));
        }
        let mut t = Translator::new(self.session.clone(), strategy)
            .with_native_array_filter(self.native_filter);
        let df = t.translate(src)?;
        let mut cache = self.cache.lock();
        if generation > cache.generation {
            cache.entries.clear();
            cache.generation = generation;
        }
        // A translation made before a newer generation arrived is not kept.
        if generation == cache.generation {
            cache.entries.insert(key, Arc::from(df.sql()));
        }
        drop(cache);
        self.stats.lock().misses += 1;
        Ok(df)
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.cache.lock().entries.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.cache.lock().entries.is_empty()
    }

    /// Drops all cached translations.
    pub fn clear(&self) {
        self.cache.lock().entries.clear();
        *self.stats.lock() = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
    use snowdb::{Database, Variant};

    fn session() -> Session {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            (0..5).map(|i| vec![Variant::Int(i)]),
            DEFAULT_PARTITION_ROWS,
        )
        .unwrap();
        Session::new(Arc::new(db))
    }

    const Q: &str = r#"for $t in collection("t") where $t.X ge 2 return $t.X"#;

    #[test]
    fn second_translation_hits_the_cache() {
        let c = CachingTranslator::new(session());
        let a = c.translate(Q, NestedStrategy::FlagColumn).unwrap();
        let b = c.translate(Q, NestedStrategy::FlagColumn).unwrap();
        assert_eq!(a.sql(), b.sql());
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(b.collect().unwrap().rows.len(), 3);
    }

    #[test]
    fn reingest_invalidates_cached_translation() {
        let db = Arc::new(Database::new());
        db.load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            (0..3).map(|i| vec![Variant::Int(i)]),
            DEFAULT_PARTITION_ROWS,
        )
        .unwrap();
        let c = CachingTranslator::new(Session::new(db.clone()));
        let q = r#"for $t in collection("t") return $t"#;
        let before = c.translate(q, NestedStrategy::FlagColumn).unwrap();
        // `$t` expands to the column list, so the cached SQL is bound to the
        // one-column schema.
        assert!(!before.sql().contains('Y'));

        // Re-ingest with an extra column; the same source must now MISS and
        // the fresh translation must see the new schema.
        db.load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int), ColumnDef::new("Y", ColumnType::Int)],
            (0..3).map(|i| vec![Variant::Int(i), Variant::Int(i * 10)]),
            DEFAULT_PARTITION_ROWS,
        )
        .unwrap();
        let after = c.translate(q, NestedStrategy::FlagColumn).unwrap();
        assert_eq!(c.stats(), CacheStats { hits: 0, misses: 2 });
        assert!(after.sql().contains('Y'), "stale SQL served: {}", after.sql());
        assert_eq!(after.collect().unwrap().rows.len(), 3);
    }

    #[test]
    fn writes_leave_one_generation_of_translations() {
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE t (X INT)").unwrap();
        let c = CachingTranslator::new(Session::new(db.clone()));
        for i in 0..100 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            c.translate(Q, NestedStrategy::FlagColumn).unwrap();
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats(), CacheStats { hits: 0, misses: 100 });
        // Without a write in between, the translation is reused.
        let rows = c.translate(Q, NestedStrategy::FlagColumn).unwrap().collect().unwrap().rows;
        assert_eq!(rows.len(), 98);
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 100 });
    }

    #[test]
    fn strategy_and_options_partition_the_cache() {
        let c = CachingTranslator::new(session());
        c.translate(Q, NestedStrategy::FlagColumn).unwrap();
        c.translate(Q, NestedStrategy::JoinBased).unwrap();
        assert_eq!(c.stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
    }
}
