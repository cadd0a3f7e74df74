//! Simulated volatile cache models for [`PoolMode::CrashSim`].
//!
//! Two implementations share the same observable behavior:
//!
//! * [`LineCache`] — the production model: a dense, line-indexed
//!   representation (one dirty/flush-pending bit per cache line plus a
//!   single shadow buffer). The shadow and bitmaps are one zeroed
//!   allocation each, made on the first store; the OS commits their pages
//!   only as stores touch them, so memory and set-up time are O(touched
//!   lines), not O(pool capacity). The store path touches no heap after
//!   the first write and no hashing ever happens.
//! * [`RefCache`] — the original `HashMap<line, CacheLine>` model, kept as
//!   the executable specification for equivalence tests and A/B benchmarks
//!   (select it with [`PoolOptions::with_reference_cache`]).
//!
//! Shared semantics (the durability contract both must implement):
//!
//! * A store marks its lines dirty and voids any pending flush on them (a
//!   flush only guarantees the bytes present when it was issued).
//! * A flush marks dirty lines write-back-initiated (`flush_pending`);
//!   durability still requires a fence.
//! * A fence writes back exactly the lines whose flush is still pending and
//!   marks them clean.
//! * On a crash, every modified line draws one survival decision, in
//!   ascending line order: `p_flushed_unfenced` if its flush was pending,
//!   else `p_dirty`. Clean lines equal media and draw nothing. Keeping the
//!   draw order and count identical across implementations is what makes
//!   seeded crashes reproducible regardless of the model in use.
//!
//! [`PoolMode::CrashSim`]: crate::PoolMode::CrashSim
//! [`PoolOptions::with_reference_cache`]: crate::PoolOptions::with_reference_cache

use std::collections::HashMap;

use crate::addr::{lines_for_range, CACHE_LINE};

const LINE: usize = CACHE_LINE as usize;

/// Number of cache lines covered by `[offset, offset+len)` without
/// materializing the range (same geometry as [`lines_for_range`]).
#[inline]
pub(crate) fn line_count(offset: u64, len: u64) -> u64 {
    if len == 0 {
        0
    } else {
        (offset + len - 1) / CACHE_LINE - offset / CACHE_LINE + 1
    }
}

/// The cache implementation selected for a pool.
pub(crate) enum Cache {
    /// Dense bitmap + shadow-buffer model (default).
    Dense(LineCache),
    /// Original hash-map model (reference/testing).
    Reference(RefCache),
}

impl Cache {
    /// `true` when an overlay pass cannot change any read (fast-path check).
    #[inline]
    pub(crate) fn is_clean(&self) -> bool {
        match self {
            Cache::Dense(c) => c.modified == 0,
            Cache::Reference(c) => c.lines.is_empty(),
        }
    }

    /// Applies a store to the cached image of `[offset, offset+len)`.
    pub(crate) fn write(&mut self, offset: u64, data: &[u8], media: &[u8]) {
        match self {
            Cache::Dense(c) => c.write(offset, data, media),
            Cache::Reference(c) => c.write(offset, data, media),
        }
    }

    /// Marks dirty lines in the range as write-back initiated.
    pub(crate) fn flush_range(&mut self, offset: u64, len: u64) {
        match self {
            Cache::Dense(c) => c.flush_range(offset, len),
            Cache::Reference(c) => c.flush_range(offset, len),
        }
    }

    /// Completes all pending write-backs into `media`.
    pub(crate) fn fence(&mut self, media: &mut [u8]) {
        match self {
            Cache::Dense(c) => c.fence(media),
            Cache::Reference(c) => c.fence(media),
        }
    }

    /// Completes pending write-backs for lines starting in `[lo, hi)` byte
    /// offsets; flushes pending outside the range stay pending. Used by the
    /// allocator so its internal fences order only the owning arena's
    /// metadata — a semantics that is identical across shard counts
    /// because it depends only on the (shard-independent) arena geometry.
    pub(crate) fn fence_range(&mut self, media: &mut [u8], lo: u64, hi: u64) {
        let lo_line = lo / CACHE_LINE;
        let hi_line = hi.div_ceil(CACHE_LINE);
        match self {
            Cache::Dense(c) => c.fence_lines(media, lo_line, hi_line),
            Cache::Reference(c) => c.fence_lines(media, lo_line, hi_line),
        }
    }

    /// Overlays cached line contents onto `buf` (already filled from media).
    pub(crate) fn overlay(&self, offset: u64, buf: &mut [u8]) {
        match self {
            Cache::Dense(c) => c.overlay(offset, buf),
            Cache::Reference(c) => c.overlay(offset, buf),
        }
    }

    /// Visits every modified line in ascending order as
    /// `(line, flush_pending, line_bytes)` — the crash-survival draw order.
    pub(crate) fn for_each_modified(&self, f: impl FnMut(u64, bool, &[u8])) {
        match self {
            Cache::Dense(c) => c.for_each_modified(f),
            Cache::Reference(c) => c.for_each_modified(f),
        }
    }
}

/// Dense line-indexed cache: per-line state bits plus one shadow buffer.
///
/// Invariants:
/// * `flush_pending ⊆ dirty` (a line's flush is voided by a later store and
///   cleared by the fence that writes it back, so it can never outlive
///   dirtiness).
/// * `modified` equals the number of set bits in `dirty`.
/// * For every dirty line, `shadow` holds the current (volatile) contents;
///   for clean lines `shadow` is meaningless and never read.
///
/// Nothing is allocated until the first store, which makes the shadow and
/// bitmaps as zeroed allocations whose pages are committed on first touch,
/// so resident memory is O(touched lines). After that, steady-state stores,
/// flushes and fences are allocation-free (the pending-flush list retains
/// its capacity across fences).
#[derive(Default)]
pub(crate) struct LineCache {
    /// Volatile contents of dirty lines, indexed like media.
    shadow: Vec<u8>,
    /// One bit per line: modified since last write-back.
    dirty: Vec<u64>,
    /// One bit per line: write-back initiated, not yet fenced.
    flush_pending: Vec<u64>,
    /// Lines pushed by flushes, drained by the next fence.
    pending_flushes: Vec<u64>,
    /// Number of set bits in `dirty`.
    modified: usize,
}

#[inline]
fn word_bit(line: u64) -> (usize, u64) {
    ((line / 64) as usize, 1u64 << (line % 64))
}

impl LineCache {
    pub(crate) fn new() -> LineCache {
        LineCache::default()
    }

    /// `vec![0; n]` is `alloc_zeroed`, so the OS commits a page only when a
    /// store first writes it; `resize` would write every byte. The zeroes
    /// are never read (third invariant).
    fn ensure(&mut self, media_len: usize) {
        if self.shadow.len() != media_len {
            debug_assert_eq!(self.modified, 0, "media length never changes");
            self.shadow = vec![0; media_len];
            let words = media_len.div_ceil(LINE).div_ceil(64);
            self.dirty = vec![0; words];
            self.flush_pending = vec![0; words];
        }
    }

    fn write(&mut self, offset: u64, data: &[u8], media: &[u8]) {
        self.ensure(media.len());
        let len = data.len() as u64;
        for line in lines_for_range(offset, len) {
            let (w, b) = word_bit(line);
            if self.dirty[w] & b == 0 {
                self.dirty[w] |= b;
                self.modified += 1;
                // Seed partially covered boundary lines from media; fully
                // covered lines are about to be overwritten below.
                let start = line * CACHE_LINE;
                if start < offset || start + CACHE_LINE > offset + len {
                    let s = start as usize;
                    self.shadow[s..s + LINE].copy_from_slice(&media[s..s + LINE]);
                }
            }
            // A store after a flush re-dirties the line; the earlier flush
            // no longer guarantees this data's durability.
            self.flush_pending[w] &= !b;
        }
        self.shadow[offset as usize..(offset + len) as usize].copy_from_slice(data);
    }

    fn flush_range(&mut self, offset: u64, len: u64) {
        if self.modified == 0 {
            return;
        }
        for line in lines_for_range(offset, len) {
            let (w, b) = word_bit(line);
            if self.dirty[w] & b != 0 && self.flush_pending[w] & b == 0 {
                self.flush_pending[w] |= b;
                self.pending_flushes.push(line);
            }
        }
    }

    fn fence(&mut self, media: &mut [u8]) {
        let mut pending = std::mem::take(&mut self.pending_flushes);
        for line in pending.drain(..) {
            let (w, b) = word_bit(line);
            if self.flush_pending[w] & b != 0 {
                let s = (line * CACHE_LINE) as usize;
                media[s..s + LINE].copy_from_slice(&self.shadow[s..s + LINE]);
                self.flush_pending[w] &= !b;
                self.dirty[w] &= !b;
                self.modified -= 1;
            }
        }
        // Hand the drained (empty) vector back so its capacity is reused.
        self.pending_flushes = pending;
    }

    fn fence_lines(&mut self, media: &mut [u8], lo_line: u64, hi_line: u64) {
        let mut pending = std::mem::take(&mut self.pending_flushes);
        pending.retain(|&line| {
            if line < lo_line || line >= hi_line {
                return true; // outside the fence's range: stays pending
            }
            let (w, b) = word_bit(line);
            if self.flush_pending[w] & b != 0 {
                let s = (line * CACHE_LINE) as usize;
                media[s..s + LINE].copy_from_slice(&self.shadow[s..s + LINE]);
                self.flush_pending[w] &= !b;
                self.dirty[w] &= !b;
                self.modified -= 1;
            }
            false
        });
        self.pending_flushes = pending;
    }

    fn overlay(&self, offset: u64, buf: &mut [u8]) {
        let len = buf.len() as u64;
        for line in lines_for_range(offset, len) {
            let (w, b) = word_bit(line);
            if self.dirty[w] & b != 0 {
                let line_start = line * CACHE_LINE;
                let copy_start = line_start.max(offset);
                let copy_end = (line_start + CACHE_LINE).min(offset + len);
                buf[(copy_start - offset) as usize..(copy_end - offset) as usize]
                    .copy_from_slice(&self.shadow[copy_start as usize..copy_end as usize]);
            }
        }
    }

    fn for_each_modified(&self, mut f: impl FnMut(u64, bool, &[u8])) {
        for (w, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let line = w as u64 * 64 + bits.trailing_zeros() as u64;
                bits &= bits - 1;
                let s = (line * CACHE_LINE) as usize;
                let fp = self.flush_pending[w] & (1u64 << (line % 64)) != 0;
                f(line, fp, &self.shadow[s..s + LINE]);
            }
        }
    }
}

/// State of one simulated cache line in the reference model.
struct RefLine {
    data: Vec<u8>,
    /// Modified since last write-back.
    dirty: bool,
    /// A flush was issued but no fence has ordered it yet.
    flush_pending: bool,
}

/// The original hash-map cache model, preserved as the executable
/// specification for [`LineCache`]. Lines written back by a fence stay in
/// the map as clean entries whose bytes equal media (they overlay reads as
/// no-ops and draw nothing on crash), exactly as the seed implementation
/// behaved.
#[derive(Default)]
pub(crate) struct RefCache {
    lines: HashMap<u64, RefLine>,
    pending_flushes: Vec<u64>,
}

impl RefCache {
    pub(crate) fn new() -> RefCache {
        RefCache::default()
    }

    fn write(&mut self, offset: u64, data: &[u8], media: &[u8]) {
        let len = data.len() as u64;
        for line in lines_for_range(offset, len) {
            let line_start = line * CACHE_LINE;
            let cl = self.lines.entry(line).or_insert_with(|| {
                let s = line_start as usize;
                RefLine {
                    data: media[s..s + LINE].to_vec(),
                    dirty: false,
                    flush_pending: false,
                }
            });
            let copy_start = line_start.max(offset);
            let copy_end = (line_start + CACHE_LINE).min(offset + len);
            cl.data[(copy_start - line_start) as usize..(copy_end - line_start) as usize]
                .copy_from_slice(
                    &data[(copy_start - offset) as usize..(copy_end - offset) as usize],
                );
            cl.dirty = true;
            cl.flush_pending = false;
        }
    }

    fn flush_range(&mut self, offset: u64, len: u64) {
        for line in lines_for_range(offset, len) {
            if let Some(cl) = self.lines.get_mut(&line) {
                if cl.dirty && !cl.flush_pending {
                    cl.flush_pending = true;
                    self.pending_flushes.push(line);
                }
            }
        }
    }

    fn fence(&mut self, media: &mut [u8]) {
        for line in self.pending_flushes.drain(..) {
            if let Some(cl) = self.lines.get_mut(&line) {
                if cl.flush_pending {
                    let s = (line * CACHE_LINE) as usize;
                    media[s..s + LINE].copy_from_slice(&cl.data);
                    cl.dirty = false;
                    cl.flush_pending = false;
                }
            }
        }
    }

    fn fence_lines(&mut self, media: &mut [u8], lo_line: u64, hi_line: u64) {
        let mut pending = std::mem::take(&mut self.pending_flushes);
        pending.retain(|&line| {
            if line < lo_line || line >= hi_line {
                return true;
            }
            if let Some(cl) = self.lines.get_mut(&line) {
                if cl.flush_pending {
                    let s = (line * CACHE_LINE) as usize;
                    media[s..s + LINE].copy_from_slice(&cl.data);
                    cl.dirty = false;
                    cl.flush_pending = false;
                }
            }
            false
        });
        self.pending_flushes = pending;
    }

    fn overlay(&self, offset: u64, buf: &mut [u8]) {
        let len = buf.len() as u64;
        for line in lines_for_range(offset, len) {
            if let Some(cl) = self.lines.get(&line) {
                let line_start = line * CACHE_LINE;
                let copy_start = line_start.max(offset);
                let copy_end = (line_start + CACHE_LINE).min(offset + len);
                let src =
                    &cl.data[(copy_start - line_start) as usize..(copy_end - line_start) as usize];
                buf[(copy_start - offset) as usize..(copy_end - offset) as usize]
                    .copy_from_slice(src);
            }
        }
    }

    fn for_each_modified(&self, mut f: impl FnMut(u64, bool, &[u8])) {
        // Deterministic iteration order: sort lines. Clean entries draw
        // nothing, matching the dense model where they simply don't exist.
        let mut lines: Vec<_> = self.lines.iter().collect();
        lines.sort_by_key(|(line, _)| **line);
        for (line, cl) in lines {
            if cl.flush_pending || cl.dirty {
                f(*line, cl.flush_pending, &cl.data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(media_len: usize) -> (Vec<u8>, Cache, Vec<u8>, Cache) {
        let media: Vec<u8> = (0..media_len).map(|i| i as u8).collect();
        (
            media.clone(),
            Cache::Dense(LineCache::new()),
            media,
            Cache::Reference(RefCache::new()),
        )
    }

    fn read(media: &[u8], cache: &Cache, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = media[offset as usize..offset as usize + len].to_vec();
        cache.overlay(offset, &mut buf);
        buf
    }

    #[test]
    fn line_count_matches_lines_for_range() {
        for offset in [0u64, 1, 63, 64, 65, 127, 4096] {
            for len in [0u64, 1, 63, 64, 65, 128, 130, 1000] {
                assert_eq!(
                    line_count(offset, len),
                    lines_for_range(offset, len).count() as u64,
                    "offset={offset} len={len}"
                );
            }
        }
    }

    #[test]
    fn models_agree_on_write_flush_fence_sequences() {
        let (mut m1, mut dense, mut m2, mut reference) = both(64 * 64);
        let script: &[(&str, u64, u64)] = &[
            ("w", 10, 30),
            ("w", 60, 10),
            ("f", 0, 128),
            ("w", 70, 4),
            ("s", 0, 0),
            ("w", 640, 64),
            ("f", 640, 64),
            ("s", 0, 0),
            ("w", 100, 200),
            ("f", 100, 200),
        ];
        for &(op, a, b) in script {
            match op {
                "w" => {
                    let data: Vec<u8> = (0..b).map(|i| (a + i) as u8).collect();
                    dense.write(a, &data, &m1);
                    reference.write(a, &data, &m2);
                }
                "f" => {
                    dense.flush_range(a, b);
                    reference.flush_range(a, b);
                }
                "s" => {
                    dense.fence(&mut m1);
                    reference.fence(&mut m2);
                }
                _ => unreachable!(),
            }
            assert_eq!(m1, m2, "durable media diverged after {op}({a},{b})");
            assert_eq!(
                read(&m1, &dense, 0, m1.len()),
                read(&m2, &reference, 0, m2.len()),
                "visible bytes diverged after {op}({a},{b})"
            );
        }
        // Crash draw order and flags must agree too.
        let mut d: Vec<(u64, bool, Vec<u8>)> = Vec::new();
        let mut r: Vec<(u64, bool, Vec<u8>)> = Vec::new();
        dense.for_each_modified(|l, fp, bytes| d.push((l, fp, bytes.to_vec())));
        reference.for_each_modified(|l, fp, bytes| r.push((l, fp, bytes.to_vec())));
        assert_eq!(d, r);
    }

    #[test]
    fn fence_only_writes_back_still_pending_lines() {
        let (mut media, mut dense, ..) = both(64 * 4);
        dense.write(0, &[0xAA; 8], &media);
        dense.flush_range(0, 8);
        dense.write(0, &[0xBB; 8], &media); // voids the pending flush
        dense.fence(&mut media);
        assert_ne!(&media[0..8], &[0xBB; 8], "voided flush must not persist");
        assert_eq!(read(&media, &dense, 0, 8), vec![0xBB; 8]);
    }

    #[test]
    fn fence_range_leaves_out_of_range_flushes_pending() {
        let (mut m1, mut dense, mut m2, mut reference) = both(64 * 8);
        for cache_media in [(&mut dense, &mut m1), (&mut reference, &mut m2)] {
            let (cache, media) = cache_media;
            cache.write(0, &[0x11; 8], media);
            cache.write(256, &[0x22; 8], media);
            cache.flush_range(0, 8);
            cache.flush_range(256, 8);
            // Fence only the first line's range.
            cache.fence_range(media, 0, 64);
            assert_eq!(&media[0..8], &[0x11; 8], "in-range flush persisted");
            let untouched: Vec<u8> = (0u8..8).collect();
            assert_eq!(
                &media[256..264],
                &untouched[..],
                "out-of-range stays pending"
            );
            // A later full fence completes the survivor.
            cache.fence(media);
            assert_eq!(&media[256..264], &[0x22; 8]);
        }
        assert_eq!(m1, m2, "models agree on range-fence semantics");
    }

    #[test]
    fn dense_clean_lines_are_dropped_from_membership() {
        let (mut media, mut dense, ..) = both(64 * 4);
        dense.write(64, &[1; 64], &media);
        dense.flush_range(64, 64);
        dense.fence(&mut media);
        assert!(dense.is_clean(), "fenced line must leave the cache");
    }
}
