package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

var (
	tnRoot  = Intern("test.root")
	tnChild = Intern("test.child")
	tnLeaf  = Intern("test.leaf")
	tnPool  = Intern("par.worker")
)

// stop drains a recording unconditionally so a failing test cannot leave
// the process-wide recorder active for later tests.
func stopAll(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { StopRecording() })
}

func TestDisabledIsInert(t *testing.T) {
	if Enabled() {
		t.Fatal("no recording started, Enabled() = true")
	}
	sp := Start(Root, tnRoot)
	if sp.Active() {
		t.Error("disabled Start returned an active span")
	}
	sp.SetAttr("k", "v")
	sp.SetInt("i", 1)
	sp.SetFloat("f", 0.5)
	if sp.Ctx() != Root {
		t.Error("disabled span ctx is not Root")
	}
	sp.End()
	Counter(Root, "test.counter", 1)
	if rec := StopRecording(); rec != nil {
		t.Error("StopRecording without StartRecording returned a recording")
	}
}

func TestSpanTreeRecorded(t *testing.T) {
	stopAll(t)
	if err := StartRecording(Config{}); err != nil {
		t.Fatal(err)
	}
	if err := StartRecording(Config{}); err == nil {
		t.Error("second StartRecording must fail")
	}
	root := Start(Root, tnRoot)
	root.SetAttr("scenario", "unit")
	child := Start(root.Ctx(), tnChild)
	child.SetInt("iter", 3)
	leaf := Start(child.Ctx(), tnLeaf)
	leaf.End()
	child.End()
	Counter(root.Ctx(), "test.counter", 1.5)
	Counter(root.Ctx(), "test.counter", 2.5)
	root.End()
	rec := StopRecording()
	if rec == nil {
		t.Fatal("no recording returned")
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(rec.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range rec.Spans {
		byName[s.Name] = s
	}
	r, c, l := byName["test.root"], byName["test.child"], byName["test.leaf"]
	if r.Parent != 0 {
		t.Errorf("root parent %d, want 0", r.Parent)
	}
	if c.Parent != r.ID || l.Parent != c.ID {
		t.Errorf("parent chain broken: root %d <- child(parent %d) <- leaf(parent %d)",
			r.ID, c.Parent, l.Parent)
	}
	if c.Track != r.Track || l.Track != r.Track {
		t.Error("children did not inherit the root track")
	}
	if rec.Tracks[r.Track] == "" || !strings.HasPrefix(rec.Tracks[r.Track], "test.root#") {
		t.Errorf("root track name %q, want test.root#<id>", rec.Tracks[r.Track])
	}
	if r.Dur < 0 || c.Dur < 0 || l.Dur < 0 {
		t.Error("negative span duration")
	}
	if len(r.Attrs) != 1 || r.Attrs[0] != (Attr{"scenario", "unit"}) {
		t.Errorf("root attrs %v", r.Attrs)
	}
	if len(c.Attrs) != 1 || c.Attrs[0] != (Attr{"iter", "3"}) {
		t.Errorf("child attrs %v", c.Attrs)
	}
	if len(rec.Counters) != 2 {
		t.Fatalf("recorded %d counter samples, want 2", len(rec.Counters))
	}
	if rec.Counters[0].Value != 1.5 || rec.Counters[1].Value != 2.5 {
		t.Errorf("counter order/values wrong: %+v", rec.Counters)
	}
	if rec.Counters[0].Track != r.Track {
		t.Error("counter did not inherit the ctx track")
	}
	if rec.Dropped != 0 {
		t.Errorf("dropped %d records on an under-capacity run", rec.Dropped)
	}
}

func TestNamedTrackShared(t *testing.T) {
	stopAll(t)
	if err := StartRecording(Config{}); err != nil {
		t.Fatal(err)
	}
	a := StartOnTrack("par.worker.00", Root, tnPool)
	b := StartOnTrack("par.worker.00", Root, tnPool)
	c := StartOnTrack("par.worker.01", Root, tnPool)
	a.End()
	b.End()
	c.End()
	rec := StopRecording()
	tracks := map[int32]bool{}
	for _, s := range rec.Spans {
		tracks[s.Track] = true
	}
	if len(tracks) != 2 {
		t.Errorf("expected 2 shared tracks, got %d", len(tracks))
	}
}

func TestCapacityOverflowDropsAndCounts(t *testing.T) {
	stopAll(t)
	if err := StartRecording(Config{MaxSpans: spanShards, MaxCounters: counterShards}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sp := Start(Root, tnLeaf)
		sp.End()
		Counter(Root, "test.counter", float64(i))
	}
	rec := StopRecording()
	if rec.Dropped == 0 {
		t.Error("overflow did not count drops")
	}
	if len(rec.Spans) > spanShards || len(rec.Counters) > counterShards {
		t.Errorf("kept %d spans / %d counters beyond capacity", len(rec.Spans), len(rec.Counters))
	}
}

func TestConcurrentSpansUnderRace(t *testing.T) {
	stopAll(t)
	if err := StartRecording(Config{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			root := Start(Root, tnRoot)
			for i := 0; i < 50; i++ {
				sp := Start(root.Ctx(), tnChild)
				sp.SetInt("i", int64(i))
				Counter(root.Ctx(), "test.concurrent", float64(i))
				sp.End()
			}
			root.End()
		}(g)
	}
	wg.Wait()
	rec := StopRecording()
	if got, want := len(rec.Spans), 8*50+8; got != want {
		t.Errorf("recorded %d spans, want %d", got, want)
	}
	if got, want := len(rec.Counters), 8*50; got != want {
		t.Errorf("recorded %d counters, want %d", got, want)
	}
	// Every child's parent must exist and carry the child's track.
	byID := map[int32]SpanData{}
	for _, s := range rec.Spans {
		byID[s.ID] = s
	}
	for _, s := range rec.Spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", s.ID, s.Parent)
		}
		if p.Track != s.Track {
			t.Fatalf("span %d on track %d, parent on %d", s.ID, s.Track, p.Track)
		}
	}
}

func TestNormalizeMergesFiltersAndSorts(t *testing.T) {
	stopAll(t)
	if err := StartRecording(Config{}); err != nil {
		t.Fatal(err)
	}
	root := Start(Root, tnRoot)
	// A filtered par.worker layer whose children must be hoisted to root.
	w := Start(root.Ctx(), tnPool)
	for i := 0; i < 3; i++ {
		leaf := Start(w.Ctx(), tnLeaf)
		leaf.End()
	}
	w.End()
	odd := Start(root.Ctx(), tnChild)
	odd.SetInt("iter", 1)
	odd.End()
	root.End()
	Counter(Root, "par.tasks", 3) // filtered
	Counter(Root, "test.series", 10)
	Counter(Root, "test.series", 20)
	rec := StopRecording()
	norm, err := rec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(norm.Spans) != 1 || norm.Spans[0].Name != "test.root" {
		t.Fatalf("normalized roots: %+v", norm.Spans)
	}
	kids := norm.Spans[0].Children
	if len(kids) != 2 {
		t.Fatalf("expected merged leaf + child nodes, got %d", len(kids))
	}
	var leafNode, childNode *Node
	for _, k := range kids {
		switch k.Name {
		case "test.leaf":
			leafNode = k
		case "test.child":
			childNode = k
		}
	}
	if leafNode == nil || leafNode.Count != 3 {
		t.Errorf("identical leaves not merged: %+v", leafNode)
	}
	if childNode == nil || childNode.Count != 1 || len(childNode.Attrs) != 1 || childNode.Attrs[0] != "iter=1" {
		t.Errorf("attributed child wrong: %+v", childNode)
	}
	if len(norm.Counters) != 1 || norm.Counters[0] != (CounterSeries{Name: "test.series", Events: 2, First: 10, Last: 20}) {
		t.Errorf("counter series: %+v", norm.Counters)
	}
}

// The normalized bytes must not depend on the order spans were committed
// in — the property that makes the tree identical at any worker count.
func TestNormalizedBytesOrderInvariant(t *testing.T) {
	capture := func(reverse bool) []byte {
		stopAll(t)
		if err := StartRecording(Config{}); err != nil {
			t.Fatal(err)
		}
		root := Start(Root, tnRoot)
		n := 4
		order := make([]int, n)
		for i := range order {
			if reverse {
				order[i] = n - 1 - i
			} else {
				order[i] = i
			}
		}
		for _, i := range order {
			sp := Start(root.Ctx(), tnChild)
			sp.SetInt("iter", int64(i))
			sp.End()
		}
		root.End()
		rec := StopRecording()
		b, err := rec.MarshalNormalized()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := capture(false), capture(true)
	if !bytes.Equal(a, b) {
		t.Errorf("normalized bytes depend on commit order:\n%s\nvs\n%s", a, b)
	}
}

func TestChromeExport(t *testing.T) {
	stopAll(t)
	if err := StartRecording(Config{}); err != nil {
		t.Fatal(err)
	}
	root := Start(Root, tnRoot)
	child := Start(root.Ctx(), tnChild)
	child.SetInt("iter", 0)
	child.End()
	Counter(root.Ctx(), "test.counter", 4.5)
	root.End()
	rec := StopRecording()
	rec.SetManifest(map[string]string{"Seed": "2014"})
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	var sawProvenance, sawSpan, sawCounter, sawThreadName bool
	for i, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "provenance" && ev.Ph == "I":
			sawProvenance = true
			if i > 1 {
				t.Errorf("provenance instant at index %d, want at the head", i)
			}
		case ev.Ph == "X" && ev.Name == "test.child":
			sawSpan = true
			if ev.Args["iter"] != "0" {
				t.Errorf("span args: %v", ev.Args)
			}
		case ev.Ph == "C" && ev.Name == "test.counter":
			sawCounter = true
			if ev.Args["value"] != 4.5 {
				t.Errorf("counter args: %v", ev.Args)
			}
		case ev.Ph == "M" && ev.Name == "thread_name":
			sawThreadName = true
		}
	}
	if !sawProvenance || !sawSpan || !sawCounter || !sawThreadName {
		t.Errorf("export missing events: provenance=%v span=%v counter=%v thread=%v",
			sawProvenance, sawSpan, sawCounter, sawThreadName)
	}
	if doc.OtherData["provenance"] == nil {
		t.Error("otherData missing the provenance manifest")
	}
}

func TestInternStable(t *testing.T) {
	a := Intern("test.intern.stable")
	b := Intern("test.intern.stable")
	if a != b {
		t.Errorf("Intern not idempotent: %d vs %d", a, b)
	}
	if nameOf(a) != "test.intern.stable" {
		t.Errorf("nameOf(%d) = %q", a, nameOf(a))
	}
}
