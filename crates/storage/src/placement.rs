//! Data placement tiers.
//!
//! Chunks are placed on one of three tiers modelling a NUMA/tiered-memory
//! hierarchy: accesses to non-hot tiers pay a latency multiplier, part of
//! which the buffer pool hides ([`Tier::effective_multiplier`]). Moving a chunk
//! between tiers is a one-time reconfiguration cost proportional to its
//! size. Placement frees *hot* capacity: the engine's memory report
//! distinguishes per-tier residency so a memory constraint on the hot
//! tier makes placement a real optimization problem.

/// A placement tier for a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Tier {
    /// Fast local memory; multiplier 1.
    #[default]
    Hot,
    /// Remote-socket / far memory.
    Warm,
    /// Tiered slow storage (e.g. NVM / SSD-backed pool).
    Cold,
}

smdb_durable::durable_enum!(Tier, "tier", {
    Tier::Hot => 0,
    Tier::Warm => 1,
    Tier::Cold => 2,
});

impl Tier {
    /// All tiers, for candidate enumeration.
    pub const ALL: [Tier; 3] = [Tier::Hot, Tier::Warm, Tier::Cold];

    /// Raw access-latency multiplier relative to the hot tier, before
    /// buffer-pool caching is applied.
    pub fn latency_multiplier(self) -> f64 {
        match self {
            Tier::Hot => 1.0,
            Tier::Warm => 4.0,
            Tier::Cold => 25.0,
        }
    }

    /// The multiplier actually paid, after the buffer pool hides the hit
    /// fraction of non-hot accesses — the one formula the engine charges
    /// and the what-if estimator predicts (tier penalties are public
    /// hardware documentation; the per-operation coefficients of
    /// [`crate::simcost::SimCostParams`] are what estimators do not see).
    ///
    /// `nonhot_bytes` is the total footprint placed on non-hot tiers; the
    /// buffer pool caches up to its capacity of it, so the *miss* fraction
    /// pays the raw tier penalty. This coupling is what makes the
    /// buffer-pool knob and the placement feature mutually dependent.
    pub fn effective_multiplier(self, buffer_pool_mb: f64, nonhot_bytes: u64) -> f64 {
        if self == Tier::Hot || nonhot_bytes == 0 {
            return 1.0;
        }
        let raw = self.latency_multiplier();
        let buffer_bytes = buffer_pool_mb.max(0.0) * 1024.0 * 1024.0;
        let hit = (buffer_bytes / nonhot_bytes as f64).clamp(0.0, 1.0);
        1.0 + (raw - 1.0) * (1.0 - hit)
    }

    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Hot => "hot",
            Tier::Warm => "warm",
            Tier::Cold => "cold",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multipliers_increase_down_the_hierarchy() {
        assert!(Tier::Hot.latency_multiplier() < Tier::Warm.latency_multiplier());
        assert!(Tier::Warm.latency_multiplier() < Tier::Cold.latency_multiplier());
        assert_eq!(Tier::Hot.latency_multiplier(), 1.0);
    }

    #[test]
    fn buffer_pool_hides_penalty() {
        let nonhot = 100 * 1024 * 1024; // 100 MB placed cold
        let none = Tier::Cold.effective_multiplier(0.0, nonhot);
        let half = Tier::Cold.effective_multiplier(50.0, nonhot);
        let full = Tier::Cold.effective_multiplier(100.0, nonhot);
        let over = Tier::Cold.effective_multiplier(1000.0, nonhot);
        assert_eq!(none, Tier::Cold.latency_multiplier());
        assert!(half < none && half > 1.0);
        assert_eq!(full, 1.0);
        assert_eq!(over, 1.0);
    }

    #[test]
    fn hot_tier_and_empty_nonhot_footprint_pay_no_penalty() {
        assert_eq!(Tier::Hot.effective_multiplier(0.0, 1 << 30), 1.0);
        assert_eq!(Tier::Warm.effective_multiplier(0.0, 0), 1.0);
    }

    #[test]
    fn default_is_hot() {
        assert_eq!(Tier::default(), Tier::Hot);
    }
}
