// Package memctrl models the shared memory behind the bus: an inclusive
// last-level cache with an optional fixed-latency DRAM behind it. The paper's
// headline experiments use a perfect LLC (every access hits, isolating
// coherence interference); the non-perfect mode adds a fixed DRAM penalty and
// back-invalidations on inclusive evictions (§VIII, footnote 1).
package memctrl

import (
	"cohort/internal/cache"
	"cohort/internal/config"
	"cohort/internal/obs"
)

// LLC is the shared last-level cache controller.
type LLC struct {
	arr     *cache.Cache // nil in perfect mode: every access hits without it
	perfect bool
	dramLat int64

	// bypassed records lines served around the LLC because every candidate
	// way was timer-pinned: they may live in a private cache without an LLC
	// copy, the one sanctioned inclusion exception. Entries clear when the
	// line is eventually installed by a fetch or a writeback.
	bypassed map[uint64]bool

	// scratch backs the backInv slices returned by Fetch/WriteBack; reused
	// across calls so the steady state allocates nothing. curPinned +
	// pinAdapter bridge the caller's line-address predicate to the cache's
	// entry predicate through one closure built in New, instead of a fresh
	// capture per call.
	scratch    []uint64
	curPinned  func(uint64) bool
	pinAdapter func(*cache.Entry) bool

	hits, misses, evictions, bypasses obs.Counter
}

// New builds an LLC from its geometry. When perfect is true every fetch
// hits and no array is built — Fetch, WriteBack and Contains answer without
// one; dramLat is the penalty added on a miss otherwise.
func New(geom config.CacheGeometry, perfect bool, dramLat int64) *LLC {
	l := &LLC{
		perfect:  perfect,
		dramLat:  dramLat,
		bypassed: make(map[uint64]bool),
	}
	if !perfect {
		l.arr = cache.New(geom.SizeBytes, geom.LineBytes, geom.Ways)
	}
	l.pinAdapter = func(e *cache.Entry) bool {
		return l.curPinned != nil && l.curPinned(e.LineAddr)
	}
	return l
}

// Fetch serves a line fill toward a private cache and returns the extra
// latency beyond the bus data transfer (0 on an LLC hit, the DRAM latency on
// a miss) plus the line addresses that must be back-invalidated from private
// caches to preserve inclusion.
//
// pinned reports whether a line is currently timer-protected in some private
// cache; the controller never victimizes such lines (paper §III-B lists
// back-invalidation as an MSI-only invalidation cause). If every candidate
// way is pinned, the fill bypasses the LLC: the requester is served straight
// from DRAM and the line is not cached at this level.
//
// A non-nil backInv aliases a scratch buffer owned by the LLC: it is valid
// only until the next Fetch or WriteBack call.
//
//cohort:hotpath
func (l *LLC) Fetch(lineAddr uint64, now int64, pinned func(lineAddr uint64) bool) (penalty int64, backInv []uint64) {
	if l.perfect {
		l.hits.Inc()
		return 0, nil
	}
	if e := l.arr.Lookup(lineAddr); e != nil {
		l.hits.Inc()
		l.arr.Touch(e)
		return 0, nil
	}
	l.misses.Inc()
	l.curPinned = pinned
	victim := l.arr.VictimFor(lineAddr, l.pinAdapter)
	l.curPinned = nil
	if victim == nil {
		// All ways hold timer-protected lines: serve around the LLC.
		l.bypasses.Inc()
		l.bypassed[lineAddr] = true //cohort:allow hotalloc: bypass set bounded by pinned-capacity conflicts; first touch per line
		return l.dramLat, nil
	}
	if victim.Valid() {
		l.evictions.Inc()
		l.scratch = append(l.scratch[:0], victim.LineAddr) //cohort:allow hotalloc: one-element scratch reused across calls; grows once
		backInv = l.scratch
		l.arr.Invalidate(victim)
	}
	l.arr.Fill(victim, lineAddr, cache.Shared, now)
	delete(l.bypassed, lineAddr)
	return l.dramLat, backInv
}

// WriteBack absorbs a dirty line from a private cache and returns any lines
// that must be back-invalidated to make room. In perfect mode it is a no-op;
// otherwise the line is (re)installed so a future fetch hits. pinned has the
// same meaning as in Fetch, and backInv the same scratch-buffer lifetime.
//
//cohort:hotpath
func (l *LLC) WriteBack(lineAddr uint64, now int64, pinned func(lineAddr uint64) bool) (backInv []uint64) {
	if l.perfect {
		return nil
	}
	if e := l.arr.Lookup(lineAddr); e != nil {
		l.arr.Touch(e)
		return nil
	}
	// Writeback of a line the LLC no longer tracks (it was bypassed):
	// install it if possible without disturbing pinned lines.
	l.curPinned = pinned
	victim := l.arr.VictimFor(lineAddr, l.pinAdapter)
	l.curPinned = nil
	if victim == nil {
		return nil
	}
	if victim.Valid() {
		l.evictions.Inc()
		l.scratch = append(l.scratch[:0], victim.LineAddr) //cohort:allow hotalloc: one-element scratch reused across calls; grows once
		backInv = l.scratch
		l.arr.Invalidate(victim)
	}
	l.arr.Fill(victim, lineAddr, cache.Modified, now)
	delete(l.bypassed, lineAddr)
	return backInv
}

// Bypassed reports whether the line was last served around the LLC and has
// not been installed since — the one state in which a private copy may
// legally exist without an LLC copy.
func (l *LLC) Bypassed(lineAddr uint64) bool { return l.bypassed[lineAddr] }

// Contains reports whether the LLC currently caches the line (always true in
// perfect mode, matching an infinite cache).
func (l *LLC) Contains(lineAddr uint64) bool {
	if l.perfect {
		return true
	}
	return l.arr.Lookup(lineAddr) != nil
}

// Array exposes the underlying cache array for read-only state snapshots
// (the exhaustive model checker's canonical encoding). In perfect mode
// there is no array and Array returns nil.
func (l *LLC) Array() *cache.Cache { return l.arr }

// Stats returns the controller's counters.
func (l *LLC) Stats() (hits, misses, evictions, bypasses int64) {
	return l.hits.Value(), l.misses.Value(), l.evictions.Value(), l.bypasses.Value()
}

// RegisterMetrics exposes the controller's counters and occupancy through a
// metrics registry (core.System.SetMetrics calls this). No-op on nil.
func (l *LLC) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("llc_hits", &l.hits)
	reg.RegisterCounter("llc_misses", &l.misses)
	reg.RegisterCounter("llc_evictions", &l.evictions)
	reg.RegisterCounter("llc_bypasses", &l.bypasses)
	reg.RegisterFunc("llc_valid_lines", func() int64 {
		if l.perfect {
			return 0
		}
		return int64(l.arr.CountValid())
	})
	reg.RegisterFunc("llc_bypassed_lines", func() int64 { return int64(len(l.bypassed)) })
}
