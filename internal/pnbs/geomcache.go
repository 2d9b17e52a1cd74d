package pnbs

import (
	"math"
	"sync"
	"unsafe"

	"repro/internal/obs"
)

// The geometry cache. Most of a CostTable build reads only the capture
// geometry and the instants, never the samples: the tap spans, the κ/β
// trig seeds, and w(x)/x at each tap's prompt offset and at each
// Chebyshev node's delayed offset (the geometry pass, seriesFit.geomSpan
// and geomTaps). A campaign builds the same geometry over and over: every
// unit u of every cell draws its instants from TimesSeed + u and no
// stimulus or fault moves the band, the capture or the instant count, so a
// campaign of U units per cell has exactly 2U distinct table geometries.
// costGeoms keeps them, and a table over a cached geometry runs only the
// fold over its samples (seriesFit.fold).
//
// A key holds every input the geometry pass reads (geomKey); a lookup
// also compares the instants in full, so a digest collision is a miss,
// never a wrong hit. A key is stored only on its second sighting (the seen
// slots), so a stream of one-off geometries, such as a paper-size unit's,
// stores nothing. The store is bounded by geomCacheBytes: an entry that
// served none of the last geomIdleLookups lookups may be evicted to make
// room, and a candidate that would need a live entry evicted is refused,
// so a working set larger than the budget keeps the part that fits
// instead of thrashing.

// geomCacheBytes bounds the cached geometry. A scale-0.35 table (105
// instants, 61 taps of 7 values) takes ~0.37 MiB, a paper-size one (300
// instants) ~1.1 MiB. The budget is set by RSS, not by hit rate: the
// process's live heap is ~0.55 MB, under the runtime's 4 MiB minimum GC
// goal, so above ~1.5 MiB of cache every cached MiB costs ~2 MiB of RSS.
// 1.5 MiB holds a 2-unit scale-0.35 campaign's four tables (1.48 MiB by
// geomBound) and four of a 3-unit campaign's six.
const geomCacheBytes = 3 << 19

// geomIdleLookups is how many lookups an entry must go unused before it
// may be evicted.
const geomIdleLookups = 256

// geomSeenSlots is the size of the direct-mapped table of keys seen once.
const geomSeenSlots = 1024

// Geometry cache instruments. Their values depend on the process's
// history (which tables were built before), not on one run's
// configuration.
var (
	mGeomHits     = obs.C("pnbs.costtable.geometry.hits")
	mGeomMisses   = obs.C("pnbs.costtable.geometry.misses")
	mGeomAdmitted = obs.C("pnbs.costtable.geometry.admitted")
	mGeomBytes    = obs.G("pnbs.costtable.geometry.bytes")
)

// geomKey is every input of a table's geometry pass. Floats are compared
// by their bits; times is a digest of the instants, which a lookup also
// compares in full.
type geomKey struct {
	fLow, b, t0, tStep, beta, dLo, dHi uint64
	captureLen, halfTaps, deg, nTimes  int
	times                              uint64
}

// geomKey returns the key of the geometry of tab's build over ts.
func (r *Reconstructor) geomKey(ts []float64, tab *CostTable) geomKey {
	h := uint64(len(ts))
	for _, t := range ts {
		h = mix64(h, math.Float64bits(t))
	}
	band := r.kern.band
	return geomKey{
		fLow: math.Float64bits(band.FLow), b: math.Float64bits(band.B),
		t0: math.Float64bits(r.t0), tStep: math.Float64bits(r.tStep),
		beta: math.Float64bits(r.opt.KaiserBeta),
		dLo:  math.Float64bits(tab.dLo), dHi: math.Float64bits(tab.dHi),
		captureLen: len(r.ch0), halfTaps: r.opt.HalfTaps, deg: tab.deg, nTimes: len(ts),
		times: h,
	}
}

// digest folds the whole key into one word for the seen slots.
func (k *geomKey) digest() uint64 {
	h := k.times
	for _, v := range [...]uint64{k.fLow, k.b, k.t0, k.tStep, k.beta, k.dLo, k.dHi,
		uint64(k.captureLen), uint64(k.halfTaps), uint64(k.deg), uint64(k.nTimes)} {
		h = mix64(h, v)
	}
	return h | 1 // a zero slot is empty
}

// mix64 folds v into the running hash h.
func mix64(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// tableGeom is one cached table geometry: per instant a geomRow, whose
// tap values start at its off in wx, and deg+2 near-term slots per row
// in near (row i's terms are near[i·(deg+2):][:nNear]).
type tableGeom struct {
	key  geomKey
	ts   []float64
	rows []geomRow
	wx   []float64
	near []nearTerm
	// bytes is the entry's size; last is the cache tick of its last use.
	bytes int64
	last  uint64
}

// vals returns row g's tap values, m = deg+2 per tap.
func (geo *tableGeom) vals(g *geomRow, m int) []float64 {
	return geo.wx[g.off:][:int(g.cnt)*m]
}

// geomBound is an upper bound on the size of a geometry of n rows: every
// span full (2h+1 taps) and every near slot counted.
func (f *seriesFit) geomBound(n int) int64 {
	m := f.deg + 2
	perRow := (2*f.r.opt.HalfTaps+1)*m*8 + m*int(unsafe.Sizeof(nearTerm{})) +
		int(unsafe.Sizeof(geomRow{})) + 8
	return int64(n) * int64(perRow)
}

// newTableGeom allocates the geometry of key over ts and sets each row's
// span, seeds and tap-value offset; the build fills the tap values and
// near terms (geomTaps) row by row.
func (f *seriesFit) newTableGeom(key geomKey, ts []float64) *tableGeom {
	m := f.deg + 2
	geo := &tableGeom{key: key, ts: append([]float64(nil), ts...), rows: make([]geomRow, len(ts))}
	off := 0
	for i, t := range ts {
		g := &geo.rows[i]
		f.geomSpan(g, t)
		g.off = off
		off += int(g.cnt) * m
	}
	geo.wx = make([]float64, off)
	geo.near = make([]nearTerm, len(ts)*m)
	geo.bytes = int64(len(geo.ts)+len(geo.wx))*8 +
		int64(len(geo.rows))*int64(unsafe.Sizeof(geomRow{})) +
		int64(len(geo.near))*int64(unsafe.Sizeof(nearTerm{}))
	return geo
}

// geomUse is how the cache served one table build.
type geomUse int

const (
	geomMiss  geomUse = iota // built from scratch, not kept
	geomAdmit                // built from scratch and offered to the cache
	geomHit                  // folded over a cached geometry
)

// geomCache is a bounded store of table geometries. Its zero value is an
// empty cache.
type geomCache struct {
	mu    sync.Mutex
	tick  uint64
	bytes int64
	ents  map[geomKey]*tableGeom
	seen  [geomSeenSlots]uint64
}

// costGeoms is the process-wide geometry cache behind CostTable.
var costGeoms geomCache

// lookup returns the cached geometry of key over ts (geomHit), or says
// whether the caller should build the geometry and offer it (geomAdmit:
// the key's second sighting, and room for size bytes) or just build the
// table (geomMiss).
func (c *geomCache) lookup(key geomKey, ts []float64, size int64) (*tableGeom, geomUse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mGeomBytes.Set(c.bytes)
	c.tick++
	if e := c.ents[key]; e != nil && sameBits(e.ts, ts) {
		e.last = c.tick
		mGeomHits.Inc()
		return e, geomHit
	}
	mGeomMisses.Inc()
	d := key.digest()
	slot := &c.seen[(d>>1)%geomSeenSlots]
	if *slot != d {
		*slot = d
		return nil, geomMiss
	}
	if _, taken := c.ents[key]; taken || !c.makeRoom(size) {
		return nil, geomMiss
	}
	return nil, geomAdmit
}

// makeRoom evicts idle entries, least recently used first, until size
// more bytes fit the budget; it reports whether they do.
func (c *geomCache) makeRoom(size int64) bool {
	if size > geomCacheBytes {
		return false
	}
	for c.bytes+size > geomCacheBytes {
		var lru *tableGeom
		for _, e := range c.ents {
			if lru == nil || e.last < lru.last {
				lru = e
			}
		}
		if c.tick-lru.last <= geomIdleLookups {
			return false
		}
		delete(c.ents, lru.key)
		c.bytes -= lru.bytes
		mGeomBytes.Set(c.bytes)
	}
	return true
}

// admit stores geo unless its key is already stored (a concurrent
// builder won) or it no longer fits the budget.
func (c *geomCache) admit(geo *tableGeom) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.ents[geo.key]; ok || c.bytes+geo.bytes > geomCacheBytes {
		return
	}
	if c.ents == nil {
		c.ents = make(map[geomKey]*tableGeom)
	}
	geo.last = c.tick
	c.ents[geo.key] = geo
	c.bytes += geo.bytes
	mGeomAdmitted.Inc()
	mGeomBytes.Set(c.bytes)
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
