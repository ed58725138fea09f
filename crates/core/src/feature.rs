//! Tunable features.
//!
//! "There is one tuner instance per feature" (Section II-D). The four
//! features below are the ones the paper names as its running examples:
//! index selection, compression schemes, data placement, and a knob
//! (the buffer pool size).

/// A tunable feature of the database configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FeatureKind {
    /// Per-chunk secondary index selection (physical design, discrete).
    Indexing,
    /// Per-chunk encoding/compression selection (physical design, discrete).
    Compression,
    /// Per-chunk tier placement (physical design, discrete).
    Placement,
    /// Buffer pool size (knob, continuous range discretised per the
    /// paper's "smallest available intervals").
    BufferPool,
}

impl FeatureKind {
    /// All features, in their conventional display order.
    pub const ALL: [FeatureKind; 4] = [
        FeatureKind::Indexing,
        FeatureKind::Compression,
        FeatureKind::Placement,
        FeatureKind::BufferPool,
    ];

    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            FeatureKind::Indexing => "indexing",
            FeatureKind::Compression => "compression",
            FeatureKind::Placement => "placement",
            FeatureKind::BufferPool => "buffer_pool",
        }
    }
}

impl std::fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> =
            FeatureKind::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), FeatureKind::ALL.len());
    }
}
