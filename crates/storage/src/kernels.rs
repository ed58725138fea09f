//! Vectorized predicate kernels over encoded segments.
//!
//! Every kernel is a *batch* mirror of one stage of the scalar scan
//! path: predicate filters producing selection vectors, residual
//! refinement of a selection vector, and (grouped) aggregation over the
//! selected positions. The contract is bitwise identity — a kernel
//! either produces exactly the bytes the scalar path would (same
//! positions in the same order, same float accumulation sequence, same
//! group keys) or it refuses the batch (`false`) and the caller runs
//! the scalar path. Coverage is a pure function of encoding and data
//! type, so the cost layer can mirror the engine's kernel-vs-scalar
//! decision exactly (see [`covers_filter`]).
//!
//! Every filter reads what a predicate admits from
//! [`ScanPredicate::bounds`], lowered once per batch: dictionary
//! predicates into the code domain and scanned as `u32` compares,
//! integer predicates into an `i64` interval (rebased into offset space
//! for frame-of-reference), float predicates into `total_cmp`'s monotone
//! `i64` key space. Refinement evaluates the same interval per position
//! through `ScanPredicate::admits_by`, never materializing [`Value`]s.
//! Selection vectors are emitted block-at-a-time: each block of rows is
//! compared into a bitmask (AVX2 lanes where the host supports them, a
//! scalar mask loop otherwise) and only the set bits are expanded into
//! positions, so sparse matches cost almost no stores.
//!
//! Aggregation folds only what the operator returns: `accumulate` and
//! `aggregate_grouped` resolve the operator's `exec::Step` and the
//! value source once per batch (`with_step!`, `with_reader!`), so every
//! per-row loop is monomorphised over both. Int and frame-of-reference
//! group keys take their dense slot span from the chunk's statistics
//! when it is narrow, skipping a pass over the matched keys, and are
//! sorted by key otherwise.

use std::ops::Bound;

use crate::encoding::{int_bounds, Segment};
use crate::exec::{fold_keyed, with_step, AggState, Step};
use crate::scan::{cmp_float, cmp_int, cmp_text, AggregateOp, ScanPredicate};
use crate::stats::SegmentStats;
use crate::value::{ColumnValues, Value};

/// Marker for batches the kernel layer refuses. Every call site must
/// carry a `// kernel-fallback: <reason>` justification (enforced by
/// smdb-lint), so new encoding/op combinations cannot silently skip the
/// vectorized path without a budgeted note.
#[inline]
fn uncovered() -> bool {
    false
}

// ---------------------------------------------------------------------------
// Block-mask selection-vector emit
// ---------------------------------------------------------------------------
//
// All three filter shapes reduce to "position matches iff
// `(key(i) - lo) as unsigned <= span`" after predicate lowering. The
// emitters below evaluate that interval test a block at a time into a
// bitmask and expand only the set bits into positions — at the low
// selectivities driving scans run at, almost every block costs a handful
// of compares and zero stores. On x86-64 hosts with AVX2 the compare
// runs 4 (`i64`) or 8 (`u32`) lanes wide; every host gets the scalar
// mask loop as the bit-identical fallback, so output never depends on
// the host ISA.

/// Expands the set bits of `mask` (bit `j` ⇒ position `base + j`) into
/// `out`, in ascending order.
#[inline(always)]
fn push_mask_bits(mask: u64, base: usize, out: &mut Vec<u32>) {
    let mut m = mask;
    while m != 0 {
        let j = m.trailing_zeros() as usize;
        out.push((base + j) as u32);
        m &= m - 1;
    }
}

/// Appends every `i` with `v[i] ∈ [lo, lo + span]` (unsigned distance
/// test, i.e. `lo..=hi` with `span = hi - lo` in wrapping arithmetic).
fn filter_i64_interval(v: &[i64], lo: i64, span: u64, out: &mut Vec<u32>) {
    out.reserve(v.len());
    let mut base = 0usize;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        base = unsafe { x86::filter_i64_avx2(v, lo, span, out) };
    }
    scalar_i64_interval(v, base, lo, span, out);
}

/// Scalar tail/fallback of [`filter_i64_interval`] from `base` on.
fn scalar_i64_interval(v: &[i64], base: usize, lo: i64, span: u64, out: &mut Vec<u32>) {
    let mut i = base;
    while i < v.len() {
        let n = (v.len() - i).min(64);
        let mut mask = 0u64;
        for j in 0..n {
            mask |= ((v[i + j].wrapping_sub(lo) as u64 <= span) as u64) << j;
        }
        push_mask_bits(mask, i, out);
        i += n;
    }
}

/// Appends every `i` with `v[i] ∈ [lo, lo + span]` over `u32` keys
/// (dictionary codes, frame-of-reference offsets).
fn filter_u32_interval(v: &[u32], lo: u32, span: u32, out: &mut Vec<u32>) {
    out.reserve(v.len());
    let mut base = 0usize;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        base = unsafe { x86::filter_u32_avx2(v, lo, span, out) };
    }
    let mut i = base;
    while i < v.len() {
        let n = (v.len() - i).min(64);
        let mut mask = 0u64;
        for j in 0..n {
            mask |= ((v[i + j].wrapping_sub(lo) <= span) as u64) << j;
        }
        push_mask_bits(mask, i, out);
        i += n;
    }
}

/// Appends every `i` with `f64_key(v[i]) ∈ [lo, lo + span]` — float
/// interval filtering in `total_cmp` key space.
fn filter_f64_keys(v: &[f64], lo: i64, span: u64, out: &mut Vec<u32>) {
    out.reserve(v.len());
    let mut base = 0usize;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        base = unsafe { x86::filter_f64_keys_avx2(v, lo, span, out) };
    }
    let mut i = base;
    while i < v.len() {
        let n = (v.len() - i).min(64);
        let mut mask = 0u64;
        for j in 0..n {
            mask |= ((f64_key(v[i + j]).wrapping_sub(lo) as u64 <= span) as u64) << j;
        }
        push_mask_bits(mask, i, out);
        i += n;
    }
}

/// AVX2 lanes for the interval filters. Each function processes the
/// longest vector-aligned prefix and returns how many elements it
/// consumed; the caller finishes the tail with the scalar mask loop.
/// Unsigned interval tests are lowered to signed `cmpgt` by flipping the
/// sign bit of both sides (`x <=u s  ⟺  (x ^ MIN) <=s (s ^ MIN)`).
#[cfg(target_arch = "x86_64")]
mod x86 {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn filter_i64_avx2(v: &[i64], lo: i64, span: u64, out: &mut Vec<u32>) -> usize {
        let sign = _mm256_set1_epi64x(i64::MIN);
        let lo_v = _mm256_set1_epi64x(lo);
        // Signed-comparable image of `span`.
        let span_s = _mm256_set1_epi64x((span as i64) ^ i64::MIN);
        let lanes = v.len() / 4 * 4;
        let mut i = 0usize;
        while i < lanes {
            // SAFETY: `i + 4 <= lanes <= v.len()`.
            let x = _mm256_loadu_si256(v.as_ptr().add(i).cast());
            let d = _mm256_xor_si256(_mm256_sub_epi64(x, lo_v), sign);
            // keep ⟺ !(d >s span_s); movemask over the 4 lane sign bits.
            let gt = _mm256_cmpgt_epi64(d, span_s);
            let mask = (!_mm256_movemask_pd(_mm256_castsi256_pd(gt)) & 0xF) as u64;
            super::push_mask_bits(mask, i, out);
            i += 4;
        }
        lanes
    }

    /// # Safety
    /// Caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn filter_u32_avx2(v: &[u32], lo: u32, span: u32, out: &mut Vec<u32>) -> usize {
        let sign = _mm256_set1_epi32(i32::MIN);
        let lo_v = _mm256_set1_epi32(lo as i32);
        let span_s = _mm256_set1_epi32((span as i32) ^ i32::MIN);
        let lanes = v.len() / 8 * 8;
        let mut i = 0usize;
        while i < lanes {
            // SAFETY: `i + 8 <= lanes <= v.len()`.
            let x = _mm256_loadu_si256(v.as_ptr().add(i).cast());
            let d = _mm256_xor_si256(_mm256_sub_epi32(x, lo_v), sign);
            let gt = _mm256_cmpgt_epi32(d, span_s);
            let mask = (!_mm256_movemask_ps(_mm256_castsi256_ps(gt)) & 0xFF) as u64;
            super::push_mask_bits(mask, i, out);
            i += 8;
        }
        lanes
    }

    /// # Safety
    /// Caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn filter_f64_keys_avx2(v: &[f64], lo: i64, span: u64, out: &mut Vec<u32>) -> usize {
        let zero = _mm256_setzero_si256();
        let sign = _mm256_set1_epi64x(i64::MIN);
        let lo_v = _mm256_set1_epi64x(lo);
        let span_s = _mm256_set1_epi64x((span as i64) ^ i64::MIN);
        let lanes = v.len() / 4 * 4;
        let mut i = 0usize;
        while i < lanes {
            // SAFETY: `i + 4 <= lanes <= v.len()`.
            let b = _mm256_loadu_si256(v.as_ptr().add(i).cast());
            // f64_key: negative lanes xor 0x7FFF… (all-ones sign mask
            // shifted right once) — AVX2 has no 64-bit arithmetic shift,
            // but `cmpgt(0, b)` *is* the broadcast sign bit.
            let neg = _mm256_cmpgt_epi64(zero, b);
            let key = _mm256_xor_si256(b, _mm256_srli_epi64(neg, 1));
            let d = _mm256_xor_si256(_mm256_sub_epi64(key, lo_v), sign);
            let gt = _mm256_cmpgt_epi64(d, span_s);
            let mask = (!_mm256_movemask_pd(_mm256_castsi256_pd(gt)) & 0xF) as u64;
            super::push_mask_bits(mask, i, out);
            i += 4;
        }
        lanes
    }
}

// ---------------------------------------------------------------------------
// Predicate lowering
// ---------------------------------------------------------------------------

/// Maps a float to the `i64` key space in which `f64::total_cmp` is the
/// natural integer order (the sign-magnitude-to-two's-complement fold
/// `total_cmp` itself performs), so float range checks become integer
/// interval checks with identical semantics, NaNs included.
#[inline(always)]
fn f64_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ ((((b >> 63) as u64) >> 1) as i64)
}

/// Lowers a predicate over a float column to the inclusive interval it
/// admits in `total_cmp` key space, `None` when it admits nothing. An
/// Int literal orders a float row through `as f64`, the key `as_f64`
/// gives; a Text literal sorts above every float.
fn float_key_bounds(pred: &ScanPredicate) -> Option<(i64, i64)> {
    let key = |lit: &Value| lit.as_f64().map(f64_key);
    let (lo, hi) = pred.bounds();
    let lo = match lo {
        Bound::Unbounded => i64::MIN,
        Bound::Included(l) => key(l)?,
        Bound::Excluded(l) => key(l)?.checked_add(1)?,
    };
    let hi = match hi {
        Bound::Unbounded => i64::MAX,
        Bound::Included(h) => key(h).unwrap_or(i64::MAX),
        Bound::Excluded(h) => match key(h) {
            Some(k) => k.checked_sub(1)?,
            None => i64::MAX,
        },
    };
    (lo <= hi).then_some((lo, hi))
}

// ---------------------------------------------------------------------------
// Filter kernels
// ---------------------------------------------------------------------------

/// Whether [`filter`] covers this segment. Pure in (encoding, data
/// type): the cost layer calls this to predict the engine's
/// kernel-vs-scalar decision per chunk.
pub fn covers_filter(seg: &Segment) -> bool {
    !matches!(seg, Segment::Unencoded(ColumnValues::Text(_)))
}

/// Batch filter: appends the positions matching `pred` to `out`, exactly
/// as [`Segment::filter`] would. Returns `false` (appending nothing)
/// when the segment is uncovered; the caller must then run the scalar
/// filter.
pub fn filter(seg: &Segment, pred: &ScanPredicate, out: &mut Vec<u32>) -> bool {
    match seg {
        Segment::Unencoded(ColumnValues::Int(v)) => {
            if let Some((lo, hi)) = int_bounds(pred) {
                filter_i64_interval(v, lo, hi.wrapping_sub(lo) as u64, out);
            }
        }
        Segment::Unencoded(ColumnValues::Float(v)) => {
            if let Some((lo, hi)) = float_key_bounds(pred) {
                filter_f64_keys(v, lo, hi.wrapping_sub(lo) as u64, out);
            }
        }
        Segment::Unencoded(ColumnValues::Text(_)) => {
            // kernel-fallback: the scalar text path already compares
            // `&str` without materializing Values; there is no batch
            // lowering to add on top.
            return uncovered();
        }
        // Code-domain translation: two binary searches over the sorted
        // dictionary, then a tight u32 interval scan over the codes.
        Segment::Dictionary(s) => {
            if let Some((lo, hi)) = s.code_interval(pred) {
                filter_u32_interval(s.codes(), lo, hi - lo, out);
            }
        }
        // The run-domain path already *is* the batch kernel: one
        // predicate evaluation per run, whole runs emitted.
        Segment::RunLength(s) => s.filter(pred, out),
        // The interval rebased into offset space once, then a u32 scan.
        Segment::FrameOfReference(s) => {
            if let Some((lo, hi)) = s.offset_interval(pred) {
                filter_u32_interval(s.offsets(), lo, hi - lo, out);
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Refine kernels
// ---------------------------------------------------------------------------

/// Whether [`refine`] covers this segment.
pub fn covers_refine(seg: &Segment) -> bool {
    !matches!(seg, Segment::RunLength(_))
}

/// Batch refinement: retains in `positions` exactly the positions
/// [`Segment::refine`] would, without the per-position `Value`
/// materialization (notably the per-row `String` clone on text
/// dictionaries). Returns `false` (touching nothing) when uncovered.
pub fn refine(seg: &Segment, pred: &ScanPredicate, positions: &mut Vec<u32>) -> bool {
    match seg {
        Segment::Unencoded(ColumnValues::Int(v)) => {
            positions.retain(|&p| pred.admits_by(|lit| cmp_int(v[p as usize], lit)));
            true
        }
        Segment::Unencoded(ColumnValues::Float(v)) => {
            positions.retain(|&p| pred.admits_by(|lit| cmp_float(v[p as usize], lit)));
            true
        }
        Segment::Unencoded(ColumnValues::Text(v)) => {
            positions.retain(|&p| pred.admits_by(|lit| cmp_text(&v[p as usize], lit)));
            true
        }
        Segment::Dictionary(s) => {
            let codes = s.codes();
            if let Some(d) = s.int_dict() {
                positions
                    .retain(|&p| pred.admits_by(|lit| cmp_int(d[codes[p as usize] as usize], lit)));
            } else if let Some(d) = s.text_dict() {
                positions.retain(|&p| {
                    pred.admits_by(|lit| cmp_text(&d[codes[p as usize] as usize], lit))
                });
            }
            true
        }
        Segment::FrameOfReference(s) => {
            let base = s.base();
            let offsets = s.offsets();
            positions
                .retain(|&p| pred.admits_by(|lit| cmp_int(base + offsets[p as usize] as i64, lit)));
            true
        }
        Segment::RunLength(_) => {
            // kernel-fallback: RLE refinement needs a per-position binary
            // search over run starts either way; the scalar retain is the
            // reference path and a batch mirror would duplicate it.
            uncovered()
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregation kernels
// ---------------------------------------------------------------------------

/// Numeric source of an aggregation input segment, classified once per
/// batch and turned into a per-position reader by [`with_reader!`].
enum NumSrc<'a> {
    /// Every row reads as non-numeric (text columns — the scalar path
    /// skips those rows too).
    Skip,
    Ints(&'a [i64]),
    Floats(&'a [f64]),
    /// Dictionary codes plus the integer dictionary.
    Codes(&'a [u32], &'a [i64]),
    /// Frame-of-reference base plus offsets.
    Rebased(i64, &'a [u32]),
}

impl<'a> NumSrc<'a> {
    /// Classifies a segment; `None` means the encoding has no positional
    /// batch reader (RLE).
    fn classify(seg: &'a Segment) -> Option<NumSrc<'a>> {
        match seg {
            Segment::Unencoded(ColumnValues::Int(v)) => Some(NumSrc::Ints(v)),
            Segment::Unencoded(ColumnValues::Float(v)) => Some(NumSrc::Floats(v)),
            Segment::Unencoded(ColumnValues::Text(_)) => Some(NumSrc::Skip),
            Segment::Dictionary(s) => match s.int_dict() {
                Some(d) => Some(NumSrc::Codes(s.codes(), d)),
                None => Some(NumSrc::Skip),
            },
            Segment::FrameOfReference(s) => Some(NumSrc::Rebased(s.base(), s.offsets())),
            Segment::RunLength(_) => None,
        }
    }
}

/// Evaluates `$body` with `$read` bound to a `Fn(u32) -> Option<f64>`
/// reading position `p` of the [`NumSrc`] `$src` as
/// `Value::as_f64(&seg.value_at(p))` would. The source is matched once
/// here, so `$body` is monomorphised per source and its per-row loop
/// never matches again.
macro_rules! with_reader {
    ($src:expr, $read:ident => $body:expr) => {
        match $src {
            NumSrc::Skip => {
                let $read = |_: u32| None::<f64>;
                $body
            }
            NumSrc::Ints(v) => {
                let $read = |p: u32| Some(v[p as usize] as f64);
                $body
            }
            NumSrc::Floats(v) => {
                let $read = |p: u32| Some(v[p as usize]);
                $body
            }
            NumSrc::Codes(codes, d) => {
                let $read = |p: u32| Some(d[codes[p as usize] as usize] as f64);
                $body
            }
            NumSrc::Rebased(base, offsets) => {
                let $read = |p: u32| Some((base + offsets[p as usize] as i64) as f64);
                $body
            }
        }
    };
}

/// Whether `accumulate` covers this aggregation input segment.
pub fn covers_accumulate(seg: &Segment) -> bool {
    !matches!(seg, Segment::RunLength(_))
}

/// Batched ungrouped aggregation over the selected positions: counts
/// them into `state` and folds their numeric readings with the one
/// [`Step`] of `state`'s operator, in the scalar consume order
/// (non-numeric rows skipped). Returns `false` (touching nothing) when
/// uncovered.
pub(crate) fn accumulate(seg: &Segment, positions: &[u32], state: &mut AggState) -> bool {
    let Some(src) = NumSrc::classify(seg) else {
        // kernel-fallback: RLE value access is a per-position binary
        // search; the scalar consume loop is the reference path.
        return uncovered();
    };
    state.count += positions.len() as u64;
    with_step!(state.op(), S => with_reader!(src, read => {
        for &p in positions {
            if let Some(x) = read(p) {
                S::step(state, x);
            }
        }
    }));
    true
}

/// Group-key spans below this many keys group Int and frame-of-reference
/// keys in a dense slot table indexed by `key − min`; wider spans are
/// sorted by key (`exec::fold_keyed`).
const DENSE_SPAN: u64 = 256;

/// Whether [`aggregate_grouped`] covers this group-key/aggregation-input
/// combination (`agg_seg` is `None` for `COUNT(*)`).
pub fn covers_grouped(group_seg: &Segment, agg_seg: Option<&Segment>) -> bool {
    let group_ok = matches!(
        group_seg,
        Segment::Dictionary(_)
            | Segment::FrameOfReference(_)
            | Segment::Unencoded(ColumnValues::Int(_))
    );
    let agg_ok = agg_seg.map_or(true, covers_accumulate);
    group_ok && agg_ok
}

/// Batched grouped aggregation: groups the selected positions by the
/// group segment's value and folds the aggregation input per group with
/// the operator's one [`Step`], appending to the empty `out` exactly the
/// key-sorted (key, state) pairs the scalar path builds — one `Value`
/// per *group* instead of one per row. Dictionary keys accumulate in a
/// dense table indexed by code. Int and frame-of-reference keys
/// accumulate in a dense table indexed by `key − min` when the chunk's
/// key statistics (`key_stats`, exact: written once from the raw
/// values) span fewer than [`DENSE_SPAN`] values; by a stable sort on
/// the key otherwise. Returns
/// `false` (touching nothing) when uncovered.
pub(crate) fn aggregate_grouped(
    group_seg: &Segment,
    key_stats: &SegmentStats,
    agg_seg: Option<&Segment>,
    positions: &[u32],
    op: AggregateOp,
    out: &mut Vec<(Value, AggState)>,
) -> bool {
    if !covers_grouped(group_seg, agg_seg) {
        // kernel-fallback: float/text unencoded and RLE group keys (and
        // RLE aggregation inputs) have no batch key reader; the scalar
        // path is the reference.
        return uncovered();
    }
    let src = match agg_seg {
        None => NumSrc::Skip,
        Some(seg) => match NumSrc::classify(seg) {
            Some(src) => src,
            None => return false, // unreachable: covers_grouped checked
        },
    };
    let key_range = match (&key_stats.min, &key_stats.max) {
        (Some(Value::Int(lo)), Some(Value::Int(hi))) => Some((*lo, *hi)),
        _ => None,
    };
    let op = Some(op);
    with_step!(op, S => with_reader!(src, read => {
        let fold = |state: &mut AggState, p: u32| state.add::<S>(read(p));
        group_rows(group_seg, key_range, positions, op, fold, out)
    }))
}

/// The grouping half of [`aggregate_grouped`], monomorphised per fold.
fn group_rows(
    group_seg: &Segment,
    key_range: Option<(i64, i64)>,
    positions: &[u32],
    op: Option<AggregateOp>,
    fold: impl Fn(&mut AggState, u32),
    out: &mut Vec<(Value, AggState)>,
) -> bool {
    match group_seg {
        Segment::Dictionary(s) => {
            // Emission in code order is emission in key order (the
            // dictionary is sorted). Every matched row counts, so a
            // slot with a zero count saw no row.
            let codes = s.codes();
            let mut slots = vec![AggState::new(op); s.dictionary_size()];
            for &p in positions {
                fold(&mut slots[codes[p as usize] as usize], p);
            }
            let groups = slots.into_iter().enumerate().filter(|(_, st)| st.count > 0);
            out.extend(groups.map(|(code, st)| (s.value_of_code(code as u32), st)));
        }
        Segment::Unencoded(ColumnValues::Int(v)) => {
            group_ints(|p| v[p as usize], key_range, positions, op, fold, out);
        }
        Segment::FrameOfReference(s) => {
            let (base, offsets) = (s.base(), s.offsets());
            group_ints(
                |p| base + offsets[p as usize] as i64,
                key_range,
                positions,
                op,
                fold,
                out,
            );
        }
        // covers_grouped admitted the key above; other segments never
        // reach here.
        _ => return false,
    }
    true
}

/// Groups `positions` by the integer key `key_of` reads, folding each
/// position into its key's state in position order and appending the
/// groups to `out` in key order: through a dense table over the chunk's
/// `key_range` when that is narrow enough, so no pass over the matched
/// keys precedes the fold, and by a stable sort on the key otherwise.
/// The table drops its zero-count slots, so both give the same groups.
fn group_ints(
    key_of: impl Fn(u32) -> i64,
    key_range: Option<(i64, i64)>,
    positions: &[u32],
    op: Option<AggregateOp>,
    fold: impl Fn(&mut AggState, u32),
    out: &mut Vec<(Value, AggState)>,
) {
    // `hi − lo` as an unsigned distance: exact for every pair of i64s.
    let span = |(lo, hi): (i64, i64)| hi.wrapping_sub(lo) as u64;
    if let Some(range @ (lo, _)) = key_range.filter(|&r| span(r) < DENSE_SPAN) {
        let mut slots = vec![AggState::new(op); span(range) as usize + 1];
        for &p in positions {
            fold(&mut slots[key_of(p).wrapping_sub(lo) as u64 as usize], p);
        }
        let groups = slots.into_iter().enumerate().filter(|(_, st)| st.count > 0);
        out.extend(groups.map(|(at, st)| (Value::Int(lo.wrapping_add(at as i64)), st)));
    } else {
        let keyed = positions.iter().map(|&p| (key_of(p), p)).collect();
        let mut groups: Vec<(i64, AggState)> = Vec::new();
        fold_keyed(keyed, op, fold, &mut groups);
        out.extend(groups.into_iter().map(|(k, st)| (Value::Int(k), st)));
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::encoding::EncodingKind;
    use crate::scan::PredicateOp;
    use smdb_common::ColumnId;

    fn all_preds() -> Vec<ScanPredicate> {
        let c = ColumnId(0);
        let mut preds = vec![
            ScanPredicate::eq(c, 3i64),
            ScanPredicate::eq(c, -40i64),
            ScanPredicate::cmp(c, PredicateOp::Lt, 4i64),
            ScanPredicate::cmp(c, PredicateOp::Le, 4i64),
            ScanPredicate::cmp(c, PredicateOp::Gt, 4i64),
            ScanPredicate::cmp(c, PredicateOp::Ge, 4i64),
            ScanPredicate::between(c, 2i64, 6i64),
            ScanPredicate::between(c, 6i64, 2i64), // inverted: matches nothing
            ScanPredicate::eq(c, 3.0f64),
            ScanPredicate::cmp(c, PredicateOp::Lt, 3.5f64),
            ScanPredicate::cmp(c, PredicateOp::Ge, -0.0f64),
            ScanPredicate::between(c, 1.5f64, 5.5f64),
            ScanPredicate::eq(c, "pear"),
            ScanPredicate::cmp(c, PredicateOp::Le, "mango"),
            ScanPredicate::between(c, "apple", "pear"),
            ScanPredicate::cmp(c, PredicateOp::Lt, i64::MIN),
            ScanPredicate::cmp(c, PredicateOp::Gt, i64::MAX),
        ];
        // Between with no upper bound degrades to equality.
        preds.push(ScanPredicate {
            column: c,
            op: PredicateOp::Between,
            value: Value::Int(3),
            upper: None,
        });
        preds.push(ScanPredicate {
            column: c,
            op: PredicateOp::Between,
            value: Value::Float(2.0),
            upper: Some(Value::Text("zed".into())),
        });
        preds.push(ScanPredicate {
            column: c,
            op: PredicateOp::Between,
            value: Value::Text("mango".into()),
            upper: None,
        });
        preds
    }

    fn columns() -> Vec<ColumnValues> {
        vec![
            ColumnValues::Int(vec![5, 3, -40, 9, 3, 0, 7, i64::MAX, i64::MIN, 4]),
            ColumnValues::Float(vec![3.0, -0.0, 0.0, f64::NAN, 5.5, -7.25, 3.5]),
            ColumnValues::Text(vec![
                "pear".into(),
                "apple".into(),
                "mango".into(),
                "apple".into(),
                "zz".into(),
            ]),
        ]
    }

    #[test]
    fn filter_matches_scalar_across_encodings_and_ops() {
        for data in columns() {
            for kind in EncodingKind::ALL {
                let seg = Segment::encode(&data, kind);
                for pred in all_preds() {
                    let mut scalar = vec![7u32]; // pre-existing content survives
                    let mut kernel = vec![7u32];
                    seg.filter(&pred, &mut scalar);
                    let oracle = (0..data.len() as u32)
                        .filter(|&i| pred.matches(&data.value_at(i as usize)));
                    let oracle: Vec<u32> = std::iter::once(7).chain(oracle).collect();
                    assert_eq!(scalar, oracle, "scalar vs matches for {kind} / {pred:?}");
                    let covered = filter(&seg, &pred, &mut kernel);
                    assert_eq!(
                        covered,
                        covers_filter(&seg),
                        "coverage mismatch for {kind} / {pred:?}"
                    );
                    if covered {
                        assert_eq!(kernel, scalar, "filter mismatch for {kind} / {pred:?}");
                    } else {
                        assert_eq!(kernel, vec![7u32], "uncovered filter must append nothing");
                    }
                }
            }
        }
    }

    #[test]
    fn dict_between_at_dictionary_boundaries() {
        // Dictionary is {1, 3, 5, 7}: probe every boundary alignment of
        // the code-interval translation, including bounds outside the
        // dictionary and bounds falling between entries.
        let data = ColumnValues::Int(vec![5, 1, 7, 3, 5, 1]);
        let seg = Segment::encode(&data, EncodingKind::Dictionary);
        let raw = Segment::encode(&data, EncodingKind::Unencoded);
        for lo in -1..=8i64 {
            for hi in -1..=8i64 {
                let pred = ScanPredicate::between(ColumnId(0), lo, hi);
                let (mut scalar, mut kernel) = (Vec::new(), Vec::new());
                raw.filter(&pred, &mut scalar);
                assert!(filter(&seg, &pred, &mut kernel));
                assert_eq!(kernel, scalar, "between [{lo}, {hi}]");
            }
        }
        for v in -1..=8i64 {
            for op in [
                PredicateOp::Eq,
                PredicateOp::Lt,
                PredicateOp::Le,
                PredicateOp::Gt,
                PredicateOp::Ge,
            ] {
                let pred = if op == PredicateOp::Eq {
                    ScanPredicate::eq(ColumnId(0), v)
                } else {
                    ScanPredicate::cmp(ColumnId(0), op, v)
                };
                let (mut scalar, mut kernel) = (Vec::new(), Vec::new());
                raw.filter(&pred, &mut scalar);
                assert!(filter(&seg, &pred, &mut kernel));
                assert_eq!(kernel, scalar, "{op:?} {v}");
            }
        }
    }

    #[test]
    fn refine_matches_scalar_across_encodings() {
        for data in columns() {
            for kind in EncodingKind::ALL {
                let seg = Segment::encode(&data, kind);
                for pred in all_preds() {
                    let positions: Vec<u32> = (0..data.len() as u32).rev().collect();
                    let mut scalar = positions.clone();
                    let mut kernel = positions.clone();
                    seg.refine(&pred, &mut scalar);
                    if refine(&seg, &pred, &mut kernel) {
                        assert_eq!(kernel, scalar, "refine mismatch for {kind} / {pred:?}");
                    } else {
                        assert_eq!(kernel, positions, "uncovered refine must touch nothing");
                        assert!(matches!(seg, Segment::RunLength(_)));
                    }
                }
            }
        }
    }

    const OPS: [AggregateOp; 5] = [
        AggregateOp::Count,
        AggregateOp::Sum,
        AggregateOp::Avg,
        AggregateOp::Min,
        AggregateOp::Max,
    ];

    /// The all-field oracle: every numeric row folds sum, min and max in
    /// the scalar statement order, whatever the operator.
    #[derive(Default)]
    struct AllFields {
        count: u64,
        sum: f64,
        min: Option<f64>,
        max: Option<f64>,
    }

    impl AllFields {
        fn add(&mut self, x: Option<f64>) {
            self.count += 1;
            if let Some(x) = x {
                self.sum += x;
                self.min = Some(self.min.map_or(x, |m| m.min(x)));
                self.max = Some(self.max.map_or(x, |m| m.max(x)));
            }
        }

        /// Asserts `st` holds exactly the fields its operator reads,
        /// bit for bit, and leaves every other field at its default.
        fn check(&self, op: AggregateOp, st: &AggState, what: &str) {
            let reads_sum = matches!(op, AggregateOp::Sum | AggregateOp::Avg);
            let sum = if reads_sum { self.sum } else { 0.0 };
            let min = if op == AggregateOp::Min {
                self.min
            } else {
                None
            };
            let max = if op == AggregateOp::Max {
                self.max
            } else {
                None
            };
            assert_eq!(st.count, self.count, "{what} {op:?} count");
            assert_eq!(st.sum.to_bits(), sum.to_bits(), "{what} {op:?} sum");
            assert_eq!(
                st.min.map(f64::to_bits),
                min.map(f64::to_bits),
                "{what} {op:?} min"
            );
            assert_eq!(
                st.max.map(f64::to_bits),
                max.map(f64::to_bits),
                "{what} {op:?} max"
            );
        }
    }

    #[test]
    fn accumulate_folds_only_the_operators_field() {
        for data in columns() {
            for kind in EncodingKind::ALL {
                let seg = Segment::encode(&data, kind);
                let positions: Vec<u32> = (0..data.len() as u32).collect();
                let mut expect = AllFields::default();
                for &p in &positions {
                    expect.add(seg.value_at(p as usize).as_f64());
                }
                for op in OPS {
                    let mut st = AggState::new(Some(op));
                    if !accumulate(&seg, &positions, &mut st) {
                        assert!(matches!(seg, Segment::RunLength(_)));
                        assert_eq!(st.count, 0, "uncovered accumulate touches nothing");
                        continue;
                    }
                    expect.check(op, &st, &format!("{kind}"));
                }
            }
        }
    }

    /// The scalar reference: per-row key and all-field fold, in position
    /// order, into a map.
    fn per_row_groups(
        gseg: &Segment,
        aseg: &Segment,
        positions: &[u32],
    ) -> Vec<(Value, AllFields)> {
        let mut expect: BTreeMap<Value, AllFields> = BTreeMap::new();
        for &p in positions {
            let st = expect.entry(gseg.value_at(p as usize)).or_default();
            st.add(aseg.value_at(p as usize).as_f64());
        }
        expect.into_iter().collect()
    }

    #[test]
    fn grouped_matches_scalar_per_row_loop() {
        // Spans 3 (dense slots), 1000 (key sort) and the whole i64
        // range, whose `max − min` overflows signed arithmetic.
        let wide = [
            vec![2, 1, 2, 3, 1, 2, 1, 3, 2, 1],
            vec![2, 1000, 2, 3, 1000, 2, 1, 3, 2, 1],
            vec![0, i64::MAX, 0, -5, i64::MIN, 0, i64::MIN, -5, i64::MAX, 1],
        ];
        let agg_data =
            ColumnValues::Float(vec![0.5, 1.5, 2.5, 3.25, 4.0, 5.0, 6.5, 7.0, 8.5, 9.75]);
        // All rows, a narrow subset of the widest span's keys, one row
        // and none.
        let position_sets: [&[u32]; 4] = [&[0, 2, 3, 5, 6, 7, 9, 1, 4], &[3, 7, 9], &[8], &[]];
        for keys in wide {
            let group_data = ColumnValues::Int(keys);
            let stats = SegmentStats::compute(&group_data);
            for gkind in EncodingKind::ALL {
                for akind in EncodingKind::ALL {
                    let gseg = Segment::encode(&group_data, gkind);
                    let aseg = Segment::encode(&agg_data, akind);
                    for positions in position_sets {
                        for op in OPS {
                            let mut out = Vec::new();
                            let what = format!("{gkind}/{akind} {positions:?}");
                            if !aggregate_grouped(
                                &gseg,
                                &stats,
                                Some(&aseg),
                                positions,
                                op,
                                &mut out,
                            ) {
                                assert!(
                                    matches!(gseg, Segment::RunLength(_))
                                        || matches!(aseg, Segment::RunLength(_)),
                                    "{what} unexpectedly uncovered"
                                );
                                continue;
                            }
                            let expect = per_row_groups(&gseg, &aseg, positions);
                            assert_eq!(out.len(), expect.len(), "{what}");
                            for ((k, st), (ek, e)) in out.iter().zip(&expect) {
                                assert_eq!(k, ek, "{what}");
                                e.check(op, st, &what);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grouped_count_star_has_no_aggregation_input() {
        let group_data = ColumnValues::Int(vec![4, 4, 2, 4, 2]);
        let stats = SegmentStats::compute(&group_data);
        let gseg = Segment::encode(&group_data, EncodingKind::Dictionary);
        let mut out = Vec::new();
        let op = AggregateOp::Count;
        assert!(aggregate_grouped(
            &gseg,
            &stats,
            None,
            &[0, 1, 2, 4],
            op,
            &mut out
        ));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, Value::Int(2));
        assert_eq!(out[0].1.count, 2);
        assert_eq!(out[1].0, Value::Int(4));
        assert_eq!(out[1].1.count, 2);
        assert!(out.iter().all(|(_, a)| a.min.is_none()));
    }

    #[test]
    fn text_group_keys_fall_back() {
        let group_data = ColumnValues::Text(vec!["a".into(), "b".into()]);
        let stats = SegmentStats::compute(&group_data);
        let gseg = Segment::encode(&group_data, EncodingKind::Unencoded);
        let mut out = Vec::new();
        let op = AggregateOp::Count;
        assert!(!aggregate_grouped(
            &gseg,
            &stats,
            None,
            &[0, 1],
            op,
            &mut out
        ));
        assert!(out.is_empty());
        // Text *dictionary* group keys are covered (dense code table).
        let dict = Segment::encode(&group_data, EncodingKind::Dictionary);
        assert!(aggregate_grouped(
            &dict,
            &stats,
            None,
            &[0, 1],
            op,
            &mut out
        ));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn block_emitters_are_order_preserving_and_append_only() {
        let mut out = vec![9u32];
        filter_i64_interval(&[0, 2, 1, 4, 2], 2, 2, &mut out);
        assert_eq!(out, vec![9, 1, 3, 4]);
        filter_i64_interval(&[], 2, 2, &mut out);
        assert_eq!(out, vec![9, 1, 3, 4]);
        let mut out = Vec::new();
        filter_u32_interval(&[7, 0, 9, 8], 7, 1, &mut out);
        assert_eq!(out, vec![0, 3]);
        let mut out = Vec::new();
        filter_f64_keys(&[1.0, -2.0, 3.0], f64_key(-2.0), 0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn vector_lanes_match_scalar_mask_loop() {
        // Odd lengths exercise the SIMD prefix plus the scalar tail; the
        // comparison is against a from-scratch scalar run (`base = 0`),
        // so on AVX2 hosts this pins lanes ≡ scalar bit-for-bit.
        let ints: Vec<i64> = (0..1003).map(|i| (i * 37 % 101) - 50).collect();
        let mut lanes = Vec::new();
        filter_i64_interval(&ints, -10, 30, &mut lanes);
        let mut scalar = Vec::new();
        scalar_i64_interval(&ints, 0, -10, 30, &mut scalar);
        assert_eq!(lanes, scalar);
        for (lo, span) in [(i64::MIN, u64::MAX), (50, 0), (-50, 100)] {
            let mut a = Vec::new();
            filter_i64_interval(&ints, lo, span, &mut a);
            let mut b = Vec::new();
            scalar_i64_interval(&ints, 0, lo, span, &mut b);
            assert_eq!(a, b, "lo {lo} span {span}");
        }
    }

    #[test]
    fn float_key_space_is_total_cmp() {
        let samples = [
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(f64_key(a).cmp(&f64_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }
}
