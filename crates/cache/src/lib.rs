//! The base-station cache substrate.
//!
//! The paper assumes "the base station can cache a copy of every object
//! that is requested" — an unbounded store holding possibly-stale
//! versions — and leaves bounded caches to future work ("developing
//! caching policies when cache space at the base station is limited").
//! This crate implements both:
//!
//! * [`CacheStore`] — versioned entries keyed by [`ObjectId`], unbounded
//!   or bounded by total size, with pluggable [`ReplacementPolicy`] and
//!   hit/miss/eviction statistics.
//! * Policies: [`Lru`], [`Lfu`], [`SizeAware`] (evict largest first),
//!   [`ProfitAware`] — the paper's future-work policy, evicting the entry
//!   with the lowest externally supplied weight (e.g. download-benefit
//!   density from the planner) — and [`GreedyDualSize`], all compared in
//!   the `ext-bounded-cache` experiment.
//!
//! # Example
//!
//! ```
//! use basecache_cache::{CacheStore, Lru, ObjectId, Version};
//! use basecache_sim::SimTime;
//!
//! let mut cache = CacheStore::bounded(8, Box::new(Lru::new()));
//! cache.insert(ObjectId(0), 5, Version(1), SimTime::ZERO).unwrap();
//! cache.insert(ObjectId(1), 3, Version(1), SimTime::ZERO).unwrap();
//! // Touch object 0 so object 1 is the LRU victim for the next insert.
//! cache.get(ObjectId(0));
//! let evicted = cache.insert(ObjectId(2), 2, Version(1), SimTime::from_ticks(1)).unwrap();
//! assert_eq!(evicted[0].object, ObjectId(1));
//! assert!(cache.used() <= 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entry;
mod gds;
mod policy;
mod stats;
mod store;

pub use entry::CacheEntry;
pub use gds::{GdsCost, GreedyDualSize};
pub use policy::{Lfu, Lru, ProfitAware, ReplacementPolicy, SizeAware};
pub use stats::CacheStats;
pub use store::CacheStore;

pub use basecache_net::{ObjectId, Version};
