package trace

import (
	"sort"
	"strings"

	"repro/internal/testkit"
)

// The normalized exporter projects a Recording onto what is deterministic
// about a run: span names, nesting, attribute key/values and occurrence
// counts — with timestamps removed, identical siblings merged, and
// scheduling-dependent spans filtered out (their children re-attached to
// the nearest kept ancestor). Two runs of the same configuration produce
// byte-identical normalized output at any worker count, which is what
// makes the span *structure* of a pipeline golden-pinnable the same way
// its numbers already are.

// Node is one normalized span: Count identical siblings collapsed into a
// single entry, children recursively normalized and canonically sorted.
type Node struct {
	Name     string
	Attrs    []string
	Count    int
	Children []*Node
}

// CounterSeries summarizes one counter track: how many samples it carries
// and its first and last values (for the LMS streams: the starting
// estimate and the converged one).
type CounterSeries struct {
	Name        string
	Events      int
	First, Last float64
}

// Normalized is the canonical structural form of a recording.
type Normalized struct {
	Spans    []*Node
	Counters []CounterSeries
}

// deterministic is the normalization filter: it drops the par.* spans
// (task-to-worker attribution is scheduling-dependent) and the dsp.* spans
// and counters (plan-cache traffic depends on process history, not on the
// run), keeping everything whose structure is fixed by the configuration.
func deterministic(name string) bool {
	return !strings.HasPrefix(name, "par.") && !strings.HasPrefix(name, "dsp.")
}

// Normalize projects the recording onto its deterministic spans and
// counters. Children of dropped spans are hoisted to their nearest kept
// ancestor, so filtering par.* leaves the spans that ran *inside* the pool
// attached to the span that dispatched the work.
func (rec *Recording) Normalize() (*Normalized, error) {
	byID := make(map[int32]*SpanData, len(rec.Spans))
	children := make(map[int32][]*SpanData, len(rec.Spans))
	for i := range rec.Spans {
		s := &rec.Spans[i]
		byID[s.ID] = s
	}
	// keptParent resolves a span's nearest ancestor that survives the
	// filter (0 = root). A parent id whose span record is missing (e.g. it
	// was still open at stop, or dropped on overflow) also falls through
	// to the root.
	var keptParent func(parent int32) int32
	keptParent = func(parent int32) int32 {
		for parent != 0 {
			p, ok := byID[parent]
			if !ok {
				return 0
			}
			if deterministic(p.Name) {
				return parent
			}
			parent = p.Parent
		}
		return 0
	}
	roots := []*SpanData{}
	for i := range rec.Spans {
		s := &rec.Spans[i]
		if !deterministic(s.Name) {
			continue
		}
		p := keptParent(s.Parent)
		if p == 0 {
			roots = append(roots, s)
		} else {
			children[p] = append(children[p], s)
		}
	}
	var build func(list []*SpanData) ([]*Node, error)
	build = func(list []*SpanData) ([]*Node, error) {
		type keyed struct {
			key  string
			node *Node
		}
		merged := map[string]*keyed{}
		order := []*keyed{}
		for _, s := range list {
			kids, err := build(children[s.ID])
			if err != nil {
				return nil, err
			}
			attrs := make([]string, 0, len(s.Attrs))
			for _, a := range s.Attrs {
				attrs = append(attrs, a.Key+"="+a.Val)
			}
			sort.Strings(attrs)
			n := &Node{Name: s.Name, Attrs: attrs, Count: 1, Children: kids}
			enc, err := testkit.MarshalCanonical(struct {
				Name     string
				Attrs    []string
				Children []*Node
			}{n.Name, n.Attrs, n.Children})
			if err != nil {
				return nil, err
			}
			k := string(enc)
			if prev, ok := merged[k]; ok {
				prev.node.Count++
				continue
			}
			kn := &keyed{key: k, node: n}
			merged[k] = kn
			order = append(order, kn)
		}
		sort.Slice(order, func(i, j int) bool { return order[i].key < order[j].key })
		out := make([]*Node, len(order))
		for i, kn := range order {
			out[i] = kn.node
		}
		return out, nil
	}
	top, err := build(roots)
	if err != nil {
		return nil, err
	}
	norm := &Normalized{Spans: top, Counters: []CounterSeries{}}
	// Counter series: samples grouped by name in emission (seq) order —
	// rec.Counters is already seq-sorted by StopRecording.
	series := map[string]*CounterSeries{}
	snames := []string{}
	for _, c := range rec.Counters {
		if !deterministic(c.Name) {
			continue
		}
		cs, ok := series[c.Name]
		if !ok {
			cs = &CounterSeries{Name: c.Name, First: c.Value}
			series[c.Name] = cs
			snames = append(snames, c.Name)
		}
		cs.Events++
		cs.Last = c.Value
	}
	sort.Strings(snames)
	for _, n := range snames {
		norm.Counters = append(norm.Counters, *series[n])
	}
	return norm, nil
}

// MarshalNormalized is the one-call form: normalize and encode
// canonically. The output of two runs of
// the same configuration is byte-identical at any worker count.
func (rec *Recording) MarshalNormalized() ([]byte, error) {
	n, err := rec.Normalize()
	if err != nil {
		return nil, err
	}
	return testkit.MarshalCanonical(n)
}
