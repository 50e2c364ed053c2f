//! The content-addressed plan cache.
//!
//! The expensive part of simulating a generated design is not the
//! cycle loop — it is everything before it: metagen instantiation,
//! netlist validation, interpreter wiring and the lowering of the
//! netlist into a word-level op stream. All of it depends only on the
//! *design*, never on the stimulus, so the service caches one product
//! per design, keyed by its content address
//! ([`hdp_conform::wire::design_hash`]): the pristine (never-evaluated)
//! [`NetlistComponent`], which holds the validated netlist and shares
//! its op stream with every clone. A warm submission clones the
//! template (a memcpy of its state vectors — the netlist and the op
//! stream are shared behind `Arc`s) instead of re-deriving any of it —
//! compile once, simulate millions of stimuli.
//!
//! Eviction is least-recently-used over a fixed entry budget, and
//! every lookup outcome is counted so the server can report its hit
//! ratio. Alongside the entry count the cache keeps a byte-level
//! estimate of what is resident ([`PlanCache::bytes_resident`]) and
//! cumulative inserted/evicted byte counters, so the metrics plane
//! can expose cache pressure, not just hit ratio.

use hdp_hdl::Cell;
use hdp_sim::NetlistComponent;
use std::collections::HashMap;
use std::sync::Arc;

/// Lookup / insertion counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a cached entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted (first insertion per key).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Estimated bytes ever made resident (cumulative, survives
    /// evictions).
    pub bytes_inserted: u64,
    /// Estimated bytes released by evictions (cumulative).
    pub bytes_evicted: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when none happened).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// The per-design artefact the cache hands out on a hit.
#[derive(Debug, Clone)]
pub struct CachedDesign {
    /// A pristine, never-evaluated interpreter instance over the
    /// validated netlist; clone it per job instead of re-validating,
    /// re-levelizing, re-wiring and re-lowering.
    pub template: Arc<NetlistComponent>,
}

impl CachedDesign {
    /// Estimated resident footprint of this entry in bytes: netlist
    /// structure plus the op stream, if a job has lowered it yet
    /// ([`NetlistComponent::lowered_bytes`]). A cache-sizing estimate,
    /// not an allocator measurement — the interpreter template is
    /// counted via its netlist, whose shape dominates its state
    /// vectors.
    #[must_use]
    pub fn estimate_bytes(&self) -> u64 {
        let netlist = self.template.netlist();
        let nets: u64 = netlist
            .nets()
            .iter()
            .map(|n| (std::mem::size_of::<hdp_hdl::Net>() + n.name().len()) as u64)
            .sum();
        let cells: u64 = netlist
            .cells()
            .iter()
            .map(|c| {
                (std::mem::size_of::<Cell>()
                    + c.name().len()
                    + (c.inputs().len() + c.outputs().len()) * std::mem::size_of::<u32>())
                    as u64
            })
            .sum();
        nets + cells + self.template.lowered_bytes()
    }
}

/// One cached design plus its LRU stamp and its byte estimate, taken
/// once at insertion: an op stream a later job lowers for the entry is
/// not added, so resident and evicted bytes always reconcile.
#[derive(Debug, Clone)]
struct Entry {
    design: CachedDesign,
    last_used: u64,
    bytes: u64,
}

/// An LRU cache of per-design artefacts, keyed by content address.
///
/// Not internally synchronised — the service wraps it in a mutex and
/// holds the lock only for lookups and insertions, never while a
/// simulation runs.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, Entry>,
    stats: CacheStats,
    bytes_resident: u64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` designs. A zero
    /// capacity disables caching: every lookup misses and inserts are
    /// dropped.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
            bytes_resident: 0,
        }
    }

    /// Looks up a design by content address, refreshing its LRU
    /// position. Returns shared handles — the cache keeps ownership,
    /// and a lookup costs reference-count bumps, not deep clones.
    pub fn lookup(&mut self, hash: &str) -> Option<CachedDesign> {
        self.tick += 1;
        match self.entries.get_mut(hash) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.design.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a design, evicting the least recently
    /// used entry if the cache is full.
    pub fn insert(&mut self, hash: String, design: CachedDesign) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&hash) {
            // Concurrent submitters may both miss and both insert; the
            // first entry stays, so jobs keep sharing its op stream.
            entry.last_used = self.tick;
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                if let Some(evicted) = self.entries.remove(&victim) {
                    self.stats.evictions += 1;
                    self.stats.bytes_evicted += evicted.bytes;
                    self.bytes_resident -= evicted.bytes;
                }
            }
        }
        let bytes = design.estimate_bytes();
        self.stats.bytes_inserted += bytes;
        self.bytes_resident += bytes;
        self.entries.insert(
            hash,
            Entry {
                design,
                last_used: self.tick,
                bytes,
            },
        );
        self.stats.insertions += 1;
    }

    /// Number of cached designs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry budget.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Estimated bytes currently resident across all entries (the
    /// gauge behind `cache.bytes_resident` in metrics snapshots;
    /// always `bytes_inserted - bytes_evicted`). Each entry is sized
    /// at insertion, so an op stream lowered for it later — after a
    /// `full_sweep` miss published it without one — is not counted.
    #[must_use]
    pub fn bytes_resident(&self) -> u64 {
        self.bytes_resident
    }

    /// Counters since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdp_hdl::{Entity, Netlist, PortDir};

    /// A minimal valid design (q' = q + 1) wrapped as a cache entry.
    fn tiny_design(name: &str) -> CachedDesign {
        CachedDesign {
            template: Arc::new(tiny_design_sim(name).1),
        }
    }

    /// The tiny design's component, and a lowered simulator to run a
    /// clone of it in.
    fn tiny_design_sim(name: &str) -> (hdp_sim::Simulator, NetlistComponent) {
        let entity = Entity::builder(name)
            .port("q", PortDir::Out, 4)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let q = nl.add_net("q", 4).unwrap();
        let d = nl.add_net("d", 4).unwrap();
        nl.add_cell(
            "u_reg",
            hdp_hdl::prim::Prim::Reg {
                width: 4,
                has_enable: false,
                reset_value: 0,
            },
            vec![d],
            vec![q],
        )
        .unwrap();
        nl.add_cell(
            "u_inc",
            hdp_hdl::prim::Prim::Inc { width: 4 },
            vec![q],
            vec![d],
        )
        .unwrap();
        nl.bind_port("q", q).unwrap();
        let mut sim = hdp_sim::Simulator::with_mode(hdp_sim::SchedMode::Lowered);
        let sig = sim.add_signal("q", 4).unwrap();
        let template = NetlistComponent::new("dut", nl, sim.bus(), &[("q", sig)]).unwrap();
        (sim, template)
    }

    #[test]
    fn counts_hits_and_misses() {
        let mut cache = PlanCache::new(4);
        assert!(cache.lookup("h1").is_none());
        cache.insert("h1".into(), tiny_design("a"));
        assert!(cache.lookup("h1").is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
        cache.insert("h1".into(), tiny_design("a"));
        cache.insert("h2".into(), tiny_design("b"));
        assert!(cache.lookup("h1").is_some()); // refresh h1: h2 is now LRU
        cache.insert("h3".into(), tiny_design("c"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup("h2").is_none(), "h2 was the LRU victim");
        assert!(cache.lookup("h1").is_some());
        assert!(cache.lookup("h3").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = PlanCache::new(0);
        cache.insert("h1".into(), tiny_design("a"));
        assert!(cache.is_empty());
        assert!(cache.lookup("h1").is_none());
    }

    #[test]
    fn byte_accounting_reconciles_across_insert_lower_evict() {
        let mut cache = PlanCache::new(1);
        let (mut sim, template) = tiny_design_sim("a");
        let design = CachedDesign {
            template: Arc::new(template.clone()),
        };
        let unlowered = design.estimate_bytes();
        cache.insert("h1".into(), design.clone());
        assert!(unlowered > 0, "a design has a nonzero footprint");
        assert_eq!(cache.bytes_resident(), unlowered);
        assert_eq!(cache.stats().bytes_inserted, unlowered);

        // A job lowers the shared stream after the insertion: the entry
        // grows, but its bytes were counted once, at insertion.
        sim.add_component(template);
        sim.reset().unwrap();
        assert!(design.estimate_bytes() > unlowered, "the stream is shared");
        assert_eq!(cache.bytes_resident(), unlowered);

        // Evict by inserting a second design into capacity 1.
        cache.insert("h2".into(), tiny_design("b"));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.bytes_evicted, unlowered);
        assert_eq!(
            stats.bytes_inserted,
            stats.bytes_evicted + cache.bytes_resident(),
            "every byte is either resident or evicted"
        );
    }

    #[test]
    fn reinsert_keeps_the_first_entry() {
        let mut cache = PlanCache::new(2);
        let first = tiny_design("a");
        cache.insert("h1".into(), first.clone());
        cache.insert("h1".into(), tiny_design("a"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
        let kept = cache.lookup("h1").unwrap();
        assert!(Arc::ptr_eq(&kept.template, &first.template));
    }
}
