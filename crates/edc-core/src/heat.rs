//! Decayed per-extent heat tracking for background recompression
//! (DESIGN.md §12).
//!
//! The paper's elastic ladder picks a codec once, at write time, from the
//! *global* IOPS intensity — it never revisits the choice. Waltz
//! (PAPERS.md: temperature-aware cooperative compression) shows that a
//! per-extent temperature signal lets the background path fix both ends of
//! the spectrum later: cold extents written during a busy burst get
//! re-compressed with a stronger codec, and hot extents whose achieved
//! ratio is near 1.0 get demoted to write-through so reads skip
//! decompression entirely.
//!
//! The tracker here is deliberately cheap enough for the read/write hot
//! paths:
//!
//! * state is one `ExtentHeat` (16 B + flag) per *touched* extent, in a
//!   hash map — untouched address space costs nothing;
//! * an access does O(1) work per covered extent: exponential decay folded
//!   lazily into the update (`heat' = heat · 2^(-Δt/half_life) + 1`), so
//!   there is no periodic sweep and no global clock tick;
//! * classification ([`Temperature`]) applies the same lazy decay at query
//!   time, so a never-touched-again extent cools to `Cold` purely by the
//!   passage of (simulated) time.
//!
//! Temperature is *ephemeral statistics*, not durable metadata: it is not
//! journaled, and a power cut resets it (a recovered store re-learns heat
//! before recompressing anything — conservative, never wrong). The same
//! applies to the demotion flag: a demoted extent must re-cool after a
//! crash before the background pass will consider it again.
//!
//! Sharding: each shard's pipeline owns an independent `HeatTracker`.
//! Blocks are routed to shards by extent, so a given tracker only ever
//! sees its own shard's extents — no cross-shard synchronisation on the
//! hot path ("sharded-safe layout").

use std::collections::HashMap;

/// Tuning for the heat tracker and the background recompression policy.
#[derive(Debug, Clone, Copy)]
pub struct HeatConfig {
    /// Track heat and allow background recompression. Off = the tracker
    /// records nothing and `recompress_pass` is a no-op.
    pub enabled: bool,
    /// Heat aggregation granularity in 4 KiB blocks. `ShardedPipeline`
    /// aligns this with its routing extent so trackers stay shard-local.
    pub extent_blocks: u64,
    /// Exponential-decay half-life of an extent's heat, in simulated
    /// nanoseconds: after one half-life without accesses, heat halves.
    pub half_life_ns: u64,
    /// Decayed heat at or above which an extent is [`Temperature::Hot`].
    pub hot_threshold: f64,
    /// Decayed heat at or below which an extent is [`Temperature::Cold`].
    pub cold_threshold: f64,
    /// Demotion rule: a *hot* run whose achieved ratio
    /// (raw bytes / compressed bytes) is at or below this is rewritten as
    /// write-through, so its reads skip decompression. 1.1 = "less than
    /// 10 % savings is not worth decompressing on every hot read".
    pub demote_ratio: f64,
}

impl Default for HeatConfig {
    fn default() -> Self {
        HeatConfig {
            enabled: true,
            extent_blocks: 64,
            half_life_ns: 1_000_000_000,
            hot_threshold: 4.0,
            cold_threshold: 0.5,
            demote_ratio: 1.1,
        }
    }
}

/// Decayed temperature class of an extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Temperature {
    /// Below the cold threshold: candidate for strongest-codec
    /// recompression.
    Cold,
    /// Between the thresholds: left alone by the background pass.
    Warm,
    /// At or above the hot threshold: candidate for write-through
    /// demotion when its compression ratio is near 1.0.
    Hot,
}

/// Per-extent state: decayed access mass plus the timestamp of the last
/// fold, so decay is applied lazily on the next touch or query.
#[derive(Debug, Clone, Copy)]
struct ExtentHeat {
    heat: f64,
    last_ns: u64,
    demoted: bool,
}

/// Recency+frequency heat tracker over fixed-size extents.
#[derive(Debug, Clone)]
pub struct HeatTracker {
    config: HeatConfig,
    extents: HashMap<u64, ExtentHeat>,
}

impl HeatTracker {
    /// New tracker with the given tuning.
    pub fn new(config: HeatConfig) -> Self {
        HeatTracker { config, extents: HashMap::new() }
    }

    /// The tuning this tracker was built with.
    pub fn config(&self) -> &HeatConfig {
        &self.config
    }

    fn extent_of(&self, block: u64) -> u64 {
        block / self.config.extent_blocks.max(1)
    }

    fn decayed(&self, e: &ExtentHeat, now_ns: u64) -> f64 {
        // Clocks in tests and benches are simulated; tolerate a stale
        // `now` by skipping decay rather than producing NaN/Inf.
        if now_ns <= e.last_ns || self.config.half_life_ns == 0 {
            return e.heat;
        }
        let dt = (now_ns - e.last_ns) as f64;
        e.heat * (-(dt / self.config.half_life_ns as f64)).exp2()
    }

    /// Record an access to `[start_block, start_block + blocks)` at
    /// simulated time `now_ns`. O(1) per covered extent.
    pub fn record(&mut self, now_ns: u64, start_block: u64, blocks: u64) {
        if !self.config.enabled || blocks == 0 {
            return;
        }
        let first = self.extent_of(start_block);
        let last = self.extent_of(start_block + blocks - 1);
        for extent in first..=last {
            let entry = self
                .extents
                .entry(extent)
                .or_insert(ExtentHeat { heat: 0.0, last_ns: now_ns, demoted: false });
            entry.heat = if now_ns <= entry.last_ns || self.config.half_life_ns == 0 {
                entry.heat + 1.0
            } else {
                let dt = (now_ns - entry.last_ns) as f64;
                entry.heat * (-(dt / self.config.half_life_ns as f64)).exp2() + 1.0
            };
            entry.last_ns = entry.last_ns.max(now_ns);
        }
    }

    /// Decayed heat of the extent containing `block` at `now_ns`
    /// (0.0 for never-touched extents).
    pub fn heat_at(&self, now_ns: u64, block: u64) -> f64 {
        self.extents
            .get(&self.extent_of(block))
            .map_or(0.0, |e| self.decayed(e, now_ns))
    }

    /// Classify the run `[start_block, start_block + blocks)` by its
    /// *hottest* covered extent: a run is `Hot` if any extent is hot and
    /// `Cold` only when every covered extent is cold — the conservative
    /// choice for both recompression and demotion.
    pub fn classify_run(&self, now_ns: u64, start_block: u64, blocks: u64) -> Temperature {
        let blocks = blocks.max(1);
        let first = self.extent_of(start_block);
        let last = self.extent_of(start_block + blocks - 1);
        let mut max_heat = 0.0f64;
        for extent in first..=last {
            if let Some(e) = self.extents.get(&extent) {
                max_heat = max_heat.max(self.decayed(e, now_ns));
            }
        }
        if max_heat >= self.config.hot_threshold {
            Temperature::Hot
        } else if max_heat <= self.config.cold_threshold {
            Temperature::Cold
        } else {
            Temperature::Warm
        }
    }

    /// Mark every extent covered by the run as demoted to write-through.
    /// Volatile: lost (reset) on power cut, like the heat itself.
    pub fn mark_demoted(&mut self, start_block: u64, blocks: u64) {
        let blocks = blocks.max(1);
        let first = self.extent_of(start_block);
        let last = self.extent_of(start_block + blocks - 1);
        for extent in first..=last {
            self.extents
                .entry(extent)
                .or_insert(ExtentHeat { heat: 0.0, last_ns: 0, demoted: false })
                .demoted = true;
        }
    }

    /// Whether any extent covered by the run has been demoted (demoted
    /// runs are excluded from recompression until the flag is reset).
    pub fn run_demoted(&self, start_block: u64, blocks: u64) -> bool {
        let blocks = blocks.max(1);
        let first = self.extent_of(start_block);
        let last = self.extent_of(start_block + blocks - 1);
        (first..=last).any(|e| self.extents.get(&e).is_some_and(|x| x.demoted))
    }

    /// Number of extents with tracked state.
    pub fn tracked_extents(&self) -> usize {
        self.extents.len()
    }

    /// Drop all state (used on recovery: temperature is not durable).
    pub fn reset(&mut self) {
        self.extents.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> HeatTracker {
        HeatTracker::new(HeatConfig {
            enabled: true,
            extent_blocks: 4,
            half_life_ns: 1_000,
            hot_threshold: 3.0,
            cold_threshold: 0.5,
            demote_ratio: 1.1,
        })
    }

    #[test]
    fn repeated_access_heats_up() {
        let mut t = tracker();
        assert_eq!(t.classify_run(0, 0, 4), Temperature::Cold);
        for _ in 0..4 {
            t.record(100, 0, 1);
        }
        assert_eq!(t.classify_run(100, 0, 4), Temperature::Hot);
        assert!(t.heat_at(100, 0) >= 4.0);
    }

    #[test]
    fn heat_decays_with_half_life() {
        let mut t = tracker();
        t.record(0, 0, 1);
        t.record(0, 0, 1);
        let h0 = t.heat_at(0, 0);
        let h1 = t.heat_at(1_000, 0);
        let h2 = t.heat_at(2_000, 0);
        assert!((h1 - h0 / 2.0).abs() < 1e-9, "one half-life halves: {h0} -> {h1}");
        assert!((h2 - h0 / 4.0).abs() < 1e-9, "two half-lives quarter: {h0} -> {h2}");
    }

    #[test]
    fn cooling_reaches_cold_without_further_touches() {
        let mut t = tracker();
        for _ in 0..8 {
            t.record(0, 0, 1);
        }
        assert_eq!(t.classify_run(0, 0, 1), Temperature::Hot);
        // 8 * 2^-5 = 0.25 <= cold threshold after five half-lives.
        assert_eq!(t.classify_run(5_000, 0, 1), Temperature::Cold);
    }

    #[test]
    fn run_classification_takes_hottest_extent() {
        let mut t = tracker();
        // Heat only the second extent of a two-extent run.
        for _ in 0..8 {
            t.record(0, 4, 1);
        }
        assert_eq!(t.classify_run(0, 0, 8), Temperature::Hot);
        assert_eq!(t.classify_run(0, 0, 4), Temperature::Cold);
    }

    #[test]
    fn range_touch_heats_every_covered_extent() {
        let mut t = tracker();
        t.record(0, 2, 8); // spans extents 0, 1, 2
        assert!(t.heat_at(0, 0) > 0.0);
        assert!(t.heat_at(0, 4) > 0.0);
        assert!(t.heat_at(0, 8) > 0.0);
        assert_eq!(t.heat_at(0, 12), 0.0);
        assert_eq!(t.tracked_extents(), 3);
    }

    #[test]
    fn stale_clock_does_not_poison_heat() {
        let mut t = tracker();
        t.record(5_000, 0, 1);
        t.record(1_000, 0, 1); // clock went backwards
        let h = t.heat_at(5_000, 0);
        assert!(h.is_finite() && h >= 2.0, "both touches counted, no decay blow-up: {h}");
    }

    #[test]
    fn demotion_flag_sticks_until_reset() {
        let mut t = tracker();
        assert!(!t.run_demoted(0, 8));
        t.mark_demoted(0, 8);
        assert!(t.run_demoted(0, 8));
        assert!(t.run_demoted(4, 1), "every covered extent flagged");
        assert!(!t.run_demoted(8, 1));
        t.reset();
        assert!(!t.run_demoted(0, 8), "reset clears volatile demotion state");
        assert_eq!(t.tracked_extents(), 0);
    }

    #[test]
    fn disabled_tracker_records_nothing() {
        let mut t = HeatTracker::new(HeatConfig { enabled: false, ..HeatConfig::default() });
        t.record(0, 0, 64);
        assert_eq!(t.tracked_extents(), 0);
        assert_eq!(t.classify_run(0, 0, 64), Temperature::Cold);
    }
}
