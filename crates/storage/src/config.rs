//! Configuration instances and configuration actions.
//!
//! The paper (Section II-A(b)) defines the *configuration* of a DBMS as
//! the combination of all its configurable entities — physical design
//! (indexes, encodings, placement) and knobs — and calls one concrete
//! combination a *configuration instance*. [`ConfigInstance`] is exactly
//! that: a value the tuners manipulate hypothetically (what-if costing)
//! and the executor applies for real via [`ConfigAction`]s.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use smdb_common::{ChunkColumnRef, ChunkId, Error, Result, TableId};
use smdb_durable::{durable_enum, ByteReader, ByteWriter, Decode, Encode};

use crate::encoding::EncodingKind;
use crate::index::IndexKind;
use crate::placement::Tier;

/// Tunable scalar knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// Buffer pool capacity in megabytes. The buffer pool hides part of
    /// the latency penalty of warm/cold placements (see
    /// [`crate::placement::Tier::effective_multiplier`]).
    pub buffer_pool_mb: f64,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            buffer_pool_mb: 64.0,
        }
    }
}

/// Identifies a knob in [`ConfigAction::SetKnob`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KnobKind {
    BufferPoolMb,
}

durable_enum!(KnobKind, "knob", {
    KnobKind::BufferPoolMb => 0,
});

impl std::fmt::Display for KnobKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KnobKind::BufferPoolMb => write!(f, "buffer_pool_mb"),
        }
    }
}

/// One concrete configuration of the whole system.
///
/// Absent entries mean the default: no index, [`EncodingKind::Unencoded`],
/// [`Tier::Hot`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConfigInstance {
    pub indexes: BTreeMap<ChunkColumnRef, IndexKind>,
    pub encodings: BTreeMap<ChunkColumnRef, EncodingKind>,
    pub placements: BTreeMap<(TableId, ChunkId), Tier>,
    pub knobs: Knobs,
}

impl ConfigInstance {
    /// The encoding in effect for a segment.
    pub fn encoding_of(&self, target: ChunkColumnRef) -> EncodingKind {
        self.encodings
            .get(&target)
            .copied()
            .unwrap_or(EncodingKind::Unencoded)
    }

    /// The index in effect for a segment, if any.
    pub fn index_of(&self, target: ChunkColumnRef) -> Option<IndexKind> {
        self.indexes.get(&target).copied()
    }

    /// The tier a chunk is placed on.
    pub fn tier_of(&self, table: TableId, chunk: ChunkId) -> Tier {
        self.placements
            .get(&(table, chunk))
            .copied()
            .unwrap_or(Tier::Hot)
    }

    /// A stable fingerprint for change detection in the configuration
    /// instance storage.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (k, v) in &self.indexes {
            (k, *v).hash(&mut h);
        }
        for (k, v) in &self.encodings {
            (k, *v).hash(&mut h);
        }
        for (k, v) in &self.placements {
            (k, *v).hash(&mut h);
        }
        self.knobs.buffer_pool_mb.to_bits().hash(&mut h);
        h.finish()
    }

    /// The actions that transform `self` into `target`.
    ///
    /// The action list is minimal: unchanged entries produce nothing, so
    /// its length is the natural measure of how invasive a reconfiguration
    /// is (Section II-D(b): "minimally invasive changes").
    pub fn diff(&self, target: &ConfigInstance) -> Vec<ConfigAction> {
        let mut actions = Vec::new();
        // Indexes: drop what disappears, create what appears or changes kind.
        for (&r, &kind) in &self.indexes {
            match target.indexes.get(&r) {
                None => actions.push(ConfigAction::DropIndex { target: r }),
                Some(&new_kind) if new_kind != kind => {
                    actions.push(ConfigAction::CreateIndex {
                        target: r,
                        kind: new_kind,
                    });
                }
                _ => {}
            }
        }
        for (&r, &kind) in &target.indexes {
            if !self.indexes.contains_key(&r) {
                actions.push(ConfigAction::CreateIndex { target: r, kind });
            }
        }
        // Encodings: every differing effective encoding becomes a set.
        let enc_keys: std::collections::BTreeSet<_> = self
            .encodings
            .keys()
            .chain(target.encodings.keys())
            .copied()
            .collect();
        for r in enc_keys {
            let from = self.encoding_of(r);
            let to = target.encoding_of(r);
            if from != to {
                actions.push(ConfigAction::SetEncoding {
                    target: r,
                    kind: to,
                });
            }
        }
        // Placements.
        let place_keys: std::collections::BTreeSet<_> = self
            .placements
            .keys()
            .chain(target.placements.keys())
            .copied()
            .collect();
        for (t, c) in place_keys {
            let from = self.tier_of(t, c);
            let to = target.tier_of(t, c);
            if from != to {
                actions.push(ConfigAction::SetPlacement {
                    table: t,
                    chunk: c,
                    tier: to,
                });
            }
        }
        // Knobs.
        if self.knobs.buffer_pool_mb != target.knobs.buffer_pool_mb {
            actions.push(ConfigAction::SetKnob {
                knob: KnobKind::BufferPoolMb,
                value: target.knobs.buffer_pool_mb,
            });
        }
        actions
    }

    /// Applies an action to this instance (the hypothetical counterpart of
    /// the engine applying it for real).
    pub fn apply(&mut self, action: &ConfigAction) {
        match action {
            ConfigAction::CreateIndex { target, kind } => {
                self.indexes.insert(*target, *kind);
            }
            ConfigAction::DropIndex { target } => {
                self.indexes.remove(target);
            }
            ConfigAction::SetEncoding { target, kind } => {
                if *kind == EncodingKind::Unencoded {
                    self.encodings.remove(target);
                } else {
                    self.encodings.insert(*target, *kind);
                }
            }
            ConfigAction::SetPlacement { table, chunk, tier } => {
                if *tier == Tier::Hot {
                    self.placements.remove(&(*table, *chunk));
                } else {
                    self.placements.insert((*table, *chunk), *tier);
                }
            }
            ConfigAction::SetKnob { knob, value } => match knob {
                KnobKind::BufferPoolMb => self.knobs.buffer_pool_mb = *value,
            },
        }
    }
}

/// One atomic change to the configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigAction {
    CreateIndex {
        target: ChunkColumnRef,
        kind: IndexKind,
    },
    DropIndex {
        target: ChunkColumnRef,
    },
    SetEncoding {
        target: ChunkColumnRef,
        kind: EncodingKind,
    },
    SetPlacement {
        table: TableId,
        chunk: ChunkId,
        tier: Tier,
    },
    SetKnob {
        knob: KnobKind,
        value: f64,
    },
}

impl std::fmt::Display for ConfigAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigAction::CreateIndex { target, kind } => {
                write!(f, "CREATE INDEX {kind} ON {target}")
            }
            ConfigAction::DropIndex { target } => write!(f, "DROP INDEX ON {target}"),
            ConfigAction::SetEncoding { target, kind } => {
                write!(f, "SET ENCODING {kind} ON {target}")
            }
            ConfigAction::SetPlacement { table, chunk, tier } => {
                write!(f, "PLACE {table}.{chunk} ON {tier}")
            }
            ConfigAction::SetKnob { knob, value } => write!(f, "SET {knob} = {value}"),
        }
    }
}

/// The three maps in key order, then the knobs.
impl Encode for ConfigInstance {
    fn encode(&self, w: &mut ByteWriter) {
        self.indexes.encode(w);
        self.encodings.encode(w);
        self.placements.encode(w);
        self.knobs.buffer_pool_mb.encode(w);
    }
}

/// Decoding normalises: an explicitly stored `Unencoded` / `Hot` entry
/// means the same as an absent one and is dropped, as
/// [`ConfigInstance::apply`] does.
impl Decode for ConfigInstance {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let indexes = BTreeMap::decode(r)?;
        let mut encodings: BTreeMap<ChunkColumnRef, EncodingKind> = BTreeMap::decode(r)?;
        encodings.retain(|_, kind| *kind != EncodingKind::Unencoded);
        let mut placements: BTreeMap<(TableId, ChunkId), Tier> = BTreeMap::decode(r)?;
        placements.retain(|_, tier| *tier != Tier::Hot);
        Ok(ConfigInstance {
            indexes,
            encodings,
            placements,
            knobs: Knobs {
                buffer_pool_mb: f64::decode(r)?,
            },
        })
    }
}

/// One tag byte, then the variant's fields in declaration order.
impl Encode for ConfigAction {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            ConfigAction::CreateIndex { target, kind } => {
                w.u8(0);
                target.encode(w);
                kind.encode(w);
            }
            ConfigAction::DropIndex { target } => {
                w.u8(1);
                target.encode(w);
            }
            ConfigAction::SetEncoding { target, kind } => {
                w.u8(2);
                target.encode(w);
                kind.encode(w);
            }
            ConfigAction::SetPlacement { table, chunk, tier } => {
                w.u8(3);
                table.encode(w);
                chunk.encode(w);
                tier.encode(w);
            }
            ConfigAction::SetKnob { knob, value } => {
                w.u8(4);
                knob.encode(w);
                value.encode(w);
            }
        }
    }
}

impl Decode for ConfigAction {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match r.u8()? {
            0 => ConfigAction::CreateIndex {
                target: ChunkColumnRef::decode(r)?,
                kind: IndexKind::decode(r)?,
            },
            1 => ConfigAction::DropIndex {
                target: ChunkColumnRef::decode(r)?,
            },
            2 => ConfigAction::SetEncoding {
                target: ChunkColumnRef::decode(r)?,
                kind: EncodingKind::decode(r)?,
            },
            3 => ConfigAction::SetPlacement {
                table: TableId::decode(r)?,
                chunk: ChunkId::decode(r)?,
                tier: Tier::decode(r)?,
            },
            4 => ConfigAction::SetKnob {
                knob: KnobKind::decode(r)?,
                value: f64::decode(r)?,
            },
            other => return Err(Error::invalid(format!("unknown action tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(t: u32, c: u16, k: u32) -> ChunkColumnRef {
        ChunkColumnRef::new(t, c, k)
    }

    #[test]
    fn defaults_are_empty() {
        let c = ConfigInstance::default();
        assert_eq!(c.encoding_of(r(0, 0, 0)), EncodingKind::Unencoded);
        assert_eq!(c.index_of(r(0, 0, 0)), None);
        assert_eq!(c.tier_of(TableId(0), ChunkId(0)), Tier::Hot);
    }

    #[test]
    fn diff_is_minimal_and_applies() {
        let base = ConfigInstance::default();
        let mut target = ConfigInstance::default();
        target.indexes.insert(r(0, 1, 0), IndexKind::Hash);
        target
            .encodings
            .insert(r(0, 1, 0), EncodingKind::Dictionary);
        target
            .placements
            .insert((TableId(0), ChunkId(3)), Tier::Cold);
        target.knobs.buffer_pool_mb = 128.0;

        let actions = base.diff(&target);
        assert_eq!(actions.len(), 4);

        let mut replayed = base.clone();
        for a in &actions {
            replayed.apply(a);
        }
        assert_eq!(replayed, target);
        // Reaching the same config again produces no actions.
        assert!(replayed.diff(&target).is_empty());
    }

    #[test]
    fn diff_drops_removed_indexes() {
        let mut base = ConfigInstance::default();
        base.indexes.insert(r(0, 0, 0), IndexKind::Hash);
        let target = ConfigInstance::default();
        let actions = base.diff(&target);
        assert_eq!(
            actions,
            vec![ConfigAction::DropIndex { target: r(0, 0, 0) }]
        );
    }

    #[test]
    fn diff_replaces_index_kind() {
        let mut base = ConfigInstance::default();
        base.indexes.insert(r(0, 0, 0), IndexKind::Hash);
        let mut target = ConfigInstance::default();
        target.indexes.insert(r(0, 0, 0), IndexKind::BTree);
        let actions = base.diff(&target);
        assert_eq!(
            actions,
            vec![ConfigAction::CreateIndex {
                target: r(0, 0, 0),
                kind: IndexKind::BTree
            }]
        );
    }

    #[test]
    fn apply_normalizes_defaults() {
        let mut c = ConfigInstance::default();
        c.apply(&ConfigAction::SetEncoding {
            target: r(0, 0, 0),
            kind: EncodingKind::Dictionary,
        });
        assert_eq!(c.encodings.len(), 1);
        c.apply(&ConfigAction::SetEncoding {
            target: r(0, 0, 0),
            kind: EncodingKind::Unencoded,
        });
        assert!(c.encodings.is_empty());
        c.apply(&ConfigAction::SetPlacement {
            table: TableId(0),
            chunk: ChunkId(0),
            tier: Tier::Hot,
        });
        assert!(c.placements.is_empty());
    }

    #[test]
    fn fingerprint_changes_with_config() {
        let base = ConfigInstance::default();
        let mut other = base.clone();
        assert_eq!(base.fingerprint(), other.fingerprint());
        other.knobs.buffer_pool_mb = 1.0;
        assert_ne!(base.fingerprint(), other.fingerprint());
    }

    #[test]
    fn corrupt_tags_error_cleanly() {
        use crate::value::DataType;
        use smdb_durable::decode_all;
        assert!(decode_all::<DataType>(&[9]).is_err());
        assert!(decode_all::<Tier>(&[9]).is_err());
        assert!(decode_all::<EncodingKind>(&[9]).is_err());
        assert!(decode_all::<IndexKind>(&[9]).is_err());
        assert!(decode_all::<KnobKind>(&[9]).is_err());
        assert!(decode_all::<ConfigAction>(&[9]).is_err());
    }
}
