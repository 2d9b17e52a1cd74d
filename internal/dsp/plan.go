package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Plan is a precomputed transform descriptor for one (size, direction)
// pair: the per-stage twiddle-factor tables and the bit-reversal swap list
// for power-of-two sizes, or the cached chirp vector plus the
// pre-transformed chirp filter for Bluestein sizes. Building a plan costs
// the trigonometry once; Execute then runs the butterflies with table
// lookups only and performs zero allocations in steady state.
//
// Plans are immutable after construction and safe for concurrent use by
// any number of goroutines (the Bluestein work buffer comes from an
// internal pool). Obtain shared forward plans from the process-wide cache
// with PlanFFT (IFFT takes its inverse plans from the same cache); NewPlan
// builds an uncached private instance.
//
// The transform is the same one FFT/IFFT always computed — bit-identical,
// butterfly for butterfly, to the direct sincos-per-butterfly evaluation
// (retained as the fuzzing oracle in fftRadix2/bluestein) — so switching a
// call site to a plan never changes its numbers, only its cost.
type Plan struct {
	n       int
	inverse bool
	// swaps lists the (i, j) index pairs, flattened, of the bit-reversal
	// permutation with i < j, so Execute applies it with plain swaps.
	swaps []int32
	// tw holds the per-stage twiddle factors, concatenated in stage order
	// (size 2, 4, ..., n): stage "size" contributes size/2 entries
	// w[k] = exp(sign * i * 2 pi k / size).
	tw []complex128
	// bs holds the Bluestein state for non-power-of-two sizes; nil
	// otherwise.
	bs *bluesteinPlan
}

// bluesteinPlan caches everything the chirp-z transform of one
// (size, direction) pair can precompute: the chirp, the forward transform
// of the circular chirp kernel, and the two inner power-of-two plans. The
// per-call work buffer is pooled so concurrent Executes never contend and
// steady-state calls never allocate.
type bluesteinPlan struct {
	m       int          // padded power-of-two convolution length
	chirp   []complex128 // exp(sign * i * pi * k^2 / n)
	kernelT []complex128 // forward FFT of the circular conj-chirp kernel
	fwd     *Plan        // radix-2 forward plan of size m
	inv     *Plan        // radix-2 (un-normalised) inverse plan of size m
	scratch sync.Pool    // *[]complex128 of length m
}

// planKey indexes the process-wide plan cache.
type planKey struct {
	n       int
	inverse bool
}

// planCache holds one entry per (size, direction) ever requested. Entries
// are never evicted: a plan is a few multiples of its transform length
// (~48 bytes/point for radix-2), and a process works a small set of sizes
// (segment lengths, capture lengths), so the cache reaches a fixed point
// after warm-up. Concurrent first requests may build duplicate plans; the
// cache keeps exactly one and the losers are garbage.
var planCache sync.Map // planKey -> *planEntry

// planEntry pairs a cached plan with its per-size hit counter, so counting
// a hit costs one atomic add and no second map lookup.
type planEntry struct {
	p    *Plan
	hits *obs.Counter
}

// Cache instruments. The aggregate counters answer "is the cache hot";
// the per-size counters (registered lazily on the build path, where the
// fmt.Sprintf allocation is amortised into the one-time trigonometry)
// answer "which transform sizes does this workload actually run".
var (
	mPlanHits   = obs.C("dsp.plan.hits")
	mPlanMisses = obs.C("dsp.plan.misses")
	mPlanBuilds = obs.C("dsp.plan.builds")
)

// tnPlanBuild names the plan-build trace span: builds appear on a shared
// "dsp.plan" display track (they are the one-off trigonometry a capture
// should show as cold-start cost, not steady-state work). Cache traffic is
// counted once, by the dsp.plan.* registry counters.
var tnPlanBuild = trace.Intern("dsp.plan.build")

// planSizeName labels a per-size cache counter: dsp.plan.<what>.<n>.<dir>.
func planSizeName(what string, n int, inverse bool) string {
	dir := "fwd"
	if inverse {
		dir = "inv"
	}
	return fmt.Sprintf("dsp.plan.%s.%d.%s", what, n, dir)
}

// PlanFFT returns the shared forward-DFT plan for length n, building and
// caching it on first use. It panics for n < 0; n <= 1 yields a trivial
// identity plan.
func PlanFFT(n int) *Plan { return cachedPlan(n, false) }

func cachedPlan(n int, inverse bool) *Plan {
	key := planKey{n, inverse}
	if e, ok := planCache.Load(key); ok {
		ent := e.(*planEntry)
		mPlanHits.Inc()
		ent.hits.Inc()
		return ent.p
	}
	mPlanMisses.Inc()
	obs.C(planSizeName("misses", n, inverse)).Inc()
	sp := trace.StartOnTrack("dsp.plan", trace.Root, tnPlanBuild)
	sp.SetInt("n", int64(n))
	p := NewPlan(n, inverse)
	sp.End()
	mPlanBuilds.Inc()
	obs.C(planSizeName("builds", n, inverse)).Inc()
	ent := &planEntry{p: p, hits: obs.C(planSizeName("hits", n, inverse))}
	e, _ := planCache.LoadOrStore(key, ent)
	return e.(*planEntry).p
}

// NewPlan builds an uncached plan for length n. inverse selects the
// conjugate (un-normalised inverse) transform. Most callers want the
// shared PlanFFT instances instead.
func NewPlan(n int, inverse bool) *Plan {
	if n < 0 {
		panic(fmt.Sprintf("dsp: NewPlan: negative length %d", n))
	}
	p := &Plan{n: n, inverse: inverse}
	if n < 2 {
		return p
	}
	if IsPowerOfTwo(n) {
		p.buildRadix2()
		return p
	}
	p.buildBluestein()
	return p
}

// Len returns the transform length the plan was built for.
func (p *Plan) Len() int { return p.n }

func (p *Plan) buildRadix2() {
	n := p.n
	// Bit-reversal swap list: the same permutation fftRadix2 derives per
	// call, precomputed as (i, j) pairs with j > i.
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	sign := -1.0
	if p.inverse {
		sign = 1.0
	}
	// Per-stage twiddles, evaluated with the exact expressions fftRadix2
	// uses so the planned transform stays bit-identical to the oracle.
	p.tw = make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		for k := 0; k < half; k++ {
			s, c := math.Sincos(step * float64(k))
			p.tw = append(p.tw, complex(c, s))
		}
	}
}

func (p *Plan) buildBluestein() {
	n := p.n
	sign := -1.0
	if p.inverse {
		sign = 1.0
	}
	bs := &bluesteinPlan{m: NextPowerOfTwo(2*n - 1)}
	// chirp[k] = exp(sign * i * pi * k^2 / n); k^2 mod 2n keeps the phase
	// argument bounded so accuracy does not degrade for large k.
	bs.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		phi := sign * math.Pi * float64(kk) / float64(n)
		s, c := math.Sincos(phi)
		bs.chirp[k] = complex(c, s)
	}
	// Circular kernel b[k] = conj(chirp[|k|]), transformed once here
	// instead of once per call.
	bs.kernelT = make([]complex128, bs.m)
	bs.kernelT[0] = conj(bs.chirp[0])
	for k := 1; k < n; k++ {
		v := conj(bs.chirp[k])
		bs.kernelT[k] = v
		bs.kernelT[bs.m-k] = v
	}
	bs.fwd = cachedPlan(bs.m, false)
	bs.inv = cachedPlan(bs.m, true)
	bs.fwd.Execute(bs.kernelT)
	bs.scratch.New = func() any {
		buf := make([]complex128, bs.m)
		return &buf
	}
	p.bs = bs
}

// Execute transforms a in place. len(a) must equal Len(). Inverse plans
// leave the result un-normalised (scale by 1/n for the true inverse DFT).
// Steady-state calls perform zero allocations; concurrent calls on the
// same plan are safe.
func (p *Plan) Execute(a []complex128) {
	if len(a) != p.n {
		panic(fmt.Sprintf("dsp: Plan.Execute: length %d does not match plan size %d", len(a), p.n))
	}
	if p.n < 2 {
		return
	}
	if p.bs != nil {
		p.executeBluestein(a)
		return
	}
	p.executeRadix2(a)
}

// ExecuteInto transforms src into dst without modifying src (unless they
// alias, in which case it degenerates to Execute). Both must have the
// plan's length.
func (p *Plan) ExecuteInto(dst, src []complex128) {
	if len(src) != p.n || len(dst) != p.n {
		panic(fmt.Sprintf("dsp: Plan.ExecuteInto: lengths %d, %d do not match plan size %d",
			len(dst), len(src), p.n))
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	p.Execute(dst)
}

func (p *Plan) executeRadix2(a []complex128) {
	for s := 0; s < len(p.swaps); s += 2 {
		i, j := p.swaps[s], p.swaps[s+1]
		a[i], a[j] = a[j], a[i]
	}
	n := p.n
	off := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		tw := p.tw[off : off+half]
		off += half
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k]
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
			}
		}
	}
}

func (p *Plan) executeBluestein(a []complex128) {
	bs := p.bs
	n := p.n
	sp := bs.scratch.Get().(*[]complex128)
	fa := *sp
	for k := 0; k < n; k++ {
		fa[k] = a[k] * bs.chirp[k]
	}
	for k := n; k < bs.m; k++ {
		fa[k] = 0
	}
	bs.fwd.Execute(fa)
	for i := range fa {
		fa[i] *= bs.kernelT[i]
	}
	bs.inv.Execute(fa)
	scale := complex(1/float64(bs.m), 0)
	for k := 0; k < n; k++ {
		a[k] = fa[k] * scale * bs.chirp[k]
	}
	bs.scratch.Put(sp)
}
