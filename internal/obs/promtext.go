package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format 0.0.4) of the registry: every
// counter, gauge and histogram rendered as a `bist_`-prefixed metric
// family with HELP/TYPE lines derived from the interned dot-path name.
// The output is name-sorted, so two scrapes of identical metric state are
// byte-identical — the same determinism discipline MarshalSnapshot keeps
// for the canonical-JSON view.
//
// Mapping rules:
//
//   - Names: "par.queue.depth" → "bist_par_queue_depth" (dots and any
//     other non-[a-zA-Z0-9_] byte become underscores).
//   - Counters: one sample, monotonically increasing.
//   - Gauges: two families, the level and its "_max" high-water mark.
//   - Histograms: cumulative "_bucket{le="…"}" series ending at le="+Inf",
//     plus "_sum" and "_count".
//
// Registered names must stay unique across metric kinds — a counter and a
// gauge sharing one dot path would render two families with one name,
// which Prometheus rejects.

// WriteProm writes the registry's Prometheus text exposition to w.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	type family struct {
		prom string
		emit func(bw *bufio.Writer)
	}
	fams := make([]family, 0, len(counters)+2*len(gauges)+len(hists))
	for name, c := range counters {
		name, c := name, c
		prom := PromName(name)
		fams = append(fams, family{prom, func(bw *bufio.Writer) {
			head(bw, prom, name, "counter")
			bw.WriteString(prom)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(c.Value(), 10))
			bw.WriteByte('\n')
		}})
	}
	for name, g := range gauges {
		name, g := name, g
		prom := PromName(name)
		fams = append(fams,
			family{prom, func(bw *bufio.Writer) {
				head(bw, prom, name, "gauge")
				bw.WriteString(prom)
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatInt(g.Value(), 10))
				bw.WriteByte('\n')
			}},
			family{prom + "_max", func(bw *bufio.Writer) {
				head(bw, prom+"_max", name+" high-water mark", "gauge")
				bw.WriteString(prom + "_max")
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatInt(g.Max(), 10))
				bw.WriteByte('\n')
			}})
	}
	for name, h := range hists {
		name, h := name, h
		prom := PromName(name)
		fams = append(fams, family{prom, func(bw *bufio.Writer) {
			head(bw, prom, name, "histogram")
			var cum int64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				bw.WriteString(prom)
				bw.WriteString(`_bucket{le="`)
				bw.WriteString(strconv.FormatFloat(b, 'g', -1, 64))
				bw.WriteString(`"} `)
				bw.WriteString(strconv.FormatInt(cum, 10))
				bw.WriteByte('\n')
			}
			cum += h.counts[len(h.bounds)].Load()
			bw.WriteString(prom)
			bw.WriteString(`_bucket{le="+Inf"} `)
			bw.WriteString(strconv.FormatInt(cum, 10))
			bw.WriteByte('\n')
			bw.WriteString(prom)
			bw.WriteString("_sum ")
			bw.WriteString(strconv.FormatFloat(h.Sum(), 'g', -1, 64))
			bw.WriteByte('\n')
			bw.WriteString(prom)
			bw.WriteString("_count ")
			bw.WriteString(strconv.FormatInt(h.Count(), 10))
			bw.WriteByte('\n')
		}})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].prom < fams[j].prom })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.emit(bw)
	}
	return bw.Flush()
}

// WriteProm writes the default registry's Prometheus text exposition.
func WriteProm(w io.Writer) error { return def.WriteProm(w) }

// head writes the HELP/TYPE preamble of one family.
func head(bw *bufio.Writer, prom, source, kind string) {
	bw.WriteString("# HELP ")
	bw.WriteString(prom)
	bw.WriteString(" obs ")
	bw.WriteString(kind)
	bw.WriteByte(' ')
	bw.WriteString(source)
	bw.WriteByte('\n')
	bw.WriteString("# TYPE ")
	bw.WriteString(prom)
	bw.WriteByte(' ')
	bw.WriteString(kind)
	bw.WriteByte('\n')
}

// PromName maps an interned dot-path metric name to its Prometheus family
// name: the "bist_" namespace plus the name with every byte outside
// [a-zA-Z0-9_] replaced by an underscore.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 5)
	b.WriteString("bist_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// NormalizedTelemetry is the deterministic projection of the registry the
// telemetry goldens pin: structured-event counts by name, the registered
// family names, and histogram bucket shapes — everything the wall clock
// touches (gauge levels, bucket fills, sums, rates, quantiles) dropped.
// Watchdog-driven names are excluded too: the watchdog fires on a ticker,
// so whether (and how often) it spoke is wall-clock state, not workload
// state.
type NormalizedTelemetry struct {
	// Events maps a structured-event name (the "event." counter family
	// maintained by obs/eventlog, prefix stripped) to its emission count.
	// Zero-count names are omitted so previously registered but untouched
	// event counters cannot leak between runs.
	Events map[string]int64
	// Counters and Gauges list the registered family names under the
	// requested prefixes, values dropped.
	Counters []string
	Gauges   []string
	// Histograms maps each family to its bucket bounds.
	Histograms map[string][]float64
}

// eventPrefix is the counter namespace obs/eventlog counts emissions
// under; watchdogPrefix marks ticker-driven names the normalized view
// strips.
const (
	eventPrefix    = "event."
	watchdogPrefix = "watchdog."
)

// Normalized captures the registry's NormalizedTelemetry restricted to
// families whose interned name starts with one of the prefixes. Event
// counters are matched on the name inside the "event." namespace.
func (r *Registry) Normalized(prefixes ...string) *NormalizedTelemetry {
	match := func(name string) bool {
		if strings.Contains(name, watchdogPrefix) {
			return false
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	nt := &NormalizedTelemetry{
		Events:     map[string]int64{},
		Counters:   []string{},
		Gauges:     []string{},
		Histograms: map[string][]float64{},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		if ev, ok := strings.CutPrefix(name, eventPrefix); ok {
			if match(ev) && c.Value() > 0 {
				nt.Events[ev] = c.Value()
			}
			continue
		}
		if match(name) {
			nt.Counters = append(nt.Counters, name)
		}
	}
	for name := range r.gauges {
		if match(name) {
			nt.Gauges = append(nt.Gauges, name)
		}
	}
	for name, h := range r.hists {
		if match(name) {
			nt.Histograms[name] = append([]float64(nil), h.bounds...)
		}
	}
	sort.Strings(nt.Counters)
	sort.Strings(nt.Gauges)
	return nt
}

// Normalized builds the default registry's normalized telemetry snapshot.
func Normalized(prefixes ...string) *NormalizedTelemetry {
	return def.Normalized(prefixes...)
}
