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

/// Calls `visit(key, old, new)` for every key of `from` or `to`, in key
/// order, with each map's entry for it: one merge walk over the two
/// sorted maps.
fn union_walk<K: Ord + Copy, V: Copy>(
    from: &BTreeMap<K, V>,
    to: &BTreeMap<K, V>,
    mut visit: impl FnMut(K, Option<V>, Option<V>),
) {
    let (mut from, mut to) = (from.iter().peekable(), to.iter().peekable());
    loop {
        let (key, old, new) = match (from.peek().copied(), to.peek().copied()) {
            (None, None) => return,
            (Some((&k, &old)), None) => {
                from.next();
                (k, Some(old), None)
            }
            (None, Some((&k, &new))) => {
                to.next();
                (k, None, Some(new))
            }
            (Some((&a, &old)), Some((&b, &new))) => match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    from.next();
                    (a, Some(old), None)
                }
                std::cmp::Ordering::Greater => {
                    to.next();
                    (b, None, Some(new))
                }
                std::cmp::Ordering::Equal => {
                    from.next();
                    to.next();
                    (a, Some(old), Some(new))
                }
            },
        };
        visit(key, old, new);
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

    /// Whether applying `action` would leave this instance as it is, by
    /// the same comparison [`ConfigInstance::diff`] makes.
    pub fn holds(&self, action: &ConfigAction) -> bool {
        match action {
            ConfigAction::CreateIndex { target, kind } => self.index_of(*target) == Some(*kind),
            ConfigAction::DropIndex { target } => self.index_of(*target).is_none(),
            ConfigAction::SetEncoding { target, kind } => self.encoding_of(*target) == *kind,
            ConfigAction::SetPlacement { table, chunk, tier } => {
                self.tier_of(*table, *chunk) == *tier
            }
            ConfigAction::SetKnob { knob, value } => match knob {
                KnobKind::BufferPoolMb => self.knobs.buffer_pool_mb == *value,
            },
        }
    }

    /// A stable fingerprint for change detection: the what-if caches
    /// and the assessor's kept prices key on it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprinter(0x243f_6a88_85a3_08d3);
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
        // The entry counts: streams of different lengths must not meet.
        (
            self.indexes.len(),
            self.encodings.len(),
            self.placements.len(),
        )
            .hash(&mut h);
        h.finish()
    }

    /// The actions that transform `self` into `target`.
    ///
    /// The action list is minimal: unchanged entries produce nothing, so
    /// its length is the natural measure of how invasive a reconfiguration
    /// is (Section II-D(b): "minimally invasive changes").
    pub fn diff(&self, target: &ConfigInstance) -> Vec<ConfigAction> {
        let mut actions = Vec::new();
        // Indexes: drop what disappears and create what changes kind, in
        // key order, then create what appears, in key order.
        let mut appearing = Vec::new();
        union_walk(&self.indexes, &target.indexes, |r, old, new| {
            match (old, new) {
                (Some(_), None) => actions.push(ConfigAction::DropIndex { target: r }),
                (Some(old), Some(kind)) if old != kind => {
                    actions.push(ConfigAction::CreateIndex { target: r, kind });
                }
                (None, Some(kind)) => appearing.push(ConfigAction::CreateIndex { target: r, kind }),
                _ => {}
            }
        });
        actions.extend(appearing);
        // Encodings: every differing effective encoding becomes a set.
        let unencoded = EncodingKind::Unencoded;
        union_walk(&self.encodings, &target.encodings, |r, old, new| {
            let kind = new.unwrap_or(unencoded);
            if old.unwrap_or(unencoded) != kind {
                actions.push(ConfigAction::SetEncoding { target: r, kind });
            }
        });
        // Placements.
        union_walk(
            &self.placements,
            &target.placements,
            |(table, chunk), old, new| {
                let tier = new.unwrap_or(Tier::Hot);
                if old.unwrap_or(Tier::Hot) != tier {
                    actions.push(ConfigAction::SetPlacement { table, chunk, tier });
                }
            },
        );
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

/// [`ConfigInstance::fingerprint`]'s hasher. Every written integer is
/// one word, folded in by a rotate, an xor and a multiply by an odd
/// constant — each step a bijection of the state, so two streams of
/// one length that differ in one word never collide — from a nonzero
/// seed (from zero, all-zero words would leave the state at zero, and
/// an entry of zeros would vanish), and `finish` runs the splitmix64
/// finalizer, so the result is well mixed for the caches that use it
/// as a key. A tuning pass fingerprints every entry of its
/// base, where SipHash's per-write buffering cost several times this.
struct Fingerprinter(u64);

impl Hasher for Fingerprinter {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(x.into());
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(x.into());
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_isize(&mut self, x: isize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
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

    /// The merge walks emit the actions of the reference that looks each
    /// index up in the other map and collects both maps' encoding and
    /// placement keys into a set to compare each key's effective value,
    /// in the same order — explicit default entries included.
    #[test]
    fn diff_walk_matches_the_key_set_reference() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let config = |rng: &mut rand::rngs::StdRng| {
            let mut c = ConfigInstance::default();
            for _ in 0..rng.random_range(0..40) {
                let at = r(
                    rng.random_range(0..2),
                    rng.random_range(0..3),
                    rng.random_range(0..8),
                );
                let kind = EncodingKind::ALL[rng.random_range(0..EncodingKind::ALL.len())];
                c.encodings.insert(at, kind);
                let tier = [Tier::Hot, Tier::Warm, Tier::Cold][rng.random_range(0..3)];
                let chunk = (at.table, at.chunk);
                c.placements.insert(chunk, tier);
                let kinds = [IndexKind::Hash, IndexKind::BTree];
                c.indexes.insert(at, kinds[rng.random_range(0..2)]);
            }
            c
        };
        for _ in 0..300 {
            let (from, to) = (config(&mut rng), config(&mut rng));
            let mut expected = Vec::new();
            for (&k, &kind) in &from.indexes {
                match to.indexes.get(&k) {
                    None => expected.push(ConfigAction::DropIndex { target: k }),
                    Some(&new) if new != kind => {
                        expected.push(ConfigAction::CreateIndex {
                            target: k,
                            kind: new,
                        });
                    }
                    _ => {}
                }
            }
            for (&k, &kind) in &to.indexes {
                if !from.indexes.contains_key(&k) {
                    expected.push(ConfigAction::CreateIndex { target: k, kind });
                }
            }
            let keys: std::collections::BTreeSet<_> = from
                .encodings
                .keys()
                .chain(to.encodings.keys())
                .copied()
                .collect();
            for k in keys {
                if from.encoding_of(k) != to.encoding_of(k) {
                    let kind = to.encoding_of(k);
                    expected.push(ConfigAction::SetEncoding { target: k, kind });
                }
            }
            let keys: std::collections::BTreeSet<_> = from
                .placements
                .keys()
                .chain(to.placements.keys())
                .copied()
                .collect();
            for (table, chunk) in keys {
                if from.tier_of(table, chunk) != to.tier_of(table, chunk) {
                    let tier = to.tier_of(table, chunk);
                    expected.push(ConfigAction::SetPlacement { table, chunk, tier });
                }
            }
            assert_eq!(from.diff(&to), expected);
        }
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

    /// Every configuration over a small universe — zero-valued entries,
    /// a `-0.0` pool and empty maps included — has its own fingerprint.
    #[test]
    fn distinct_small_configurations_have_distinct_fingerprints() {
        let targets = [r(0, 0, 0), r(0, 0, 1), r(0, 1, 0)];
        let kinds = [None, Some(IndexKind::Hash), Some(IndexKind::BTree)];
        let encodings = [
            None,
            Some(EncodingKind::Dictionary),
            Some(EncodingKind::RunLength),
        ];
        let mut seen = std::collections::BTreeSet::new();
        let mut configs = 0;
        for code in 0..27 {
            for encoding in encodings {
                for warm in [false, true] {
                    for pool in [0.0, -0.0, 64.0] {
                        let mut c = ConfigInstance::default();
                        let mut at = code;
                        for target in targets {
                            if let Some(kind) = kinds[at % 3] {
                                c.indexes.insert(target, kind);
                            }
                            at /= 3;
                        }
                        if let Some(kind) = encoding {
                            c.encodings.insert(r(0, 0, 0), kind);
                        }
                        if warm {
                            c.placements.insert((TableId(0), ChunkId(0)), Tier::Warm);
                        }
                        c.knobs.buffer_pool_mb = pool;
                        seen.insert(c.fingerprint());
                        configs += 1;
                    }
                }
            }
        }
        assert_eq!(seen.len(), configs);
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
