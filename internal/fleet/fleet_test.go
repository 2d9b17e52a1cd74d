package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs/eventlog"
)

func testContext(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// fleetGrid is the test campaign: two stimuli against two catalogue faults
// (plus the implicit healthy row) → 6 cells, small enough to run in
// milliseconds but wide enough to shard, interrupt and resume.
func fleetGrid() campaign.Grid {
	return campaign.Grid{
		Stimuli: []campaign.StimulusSpec{
			{
				Name:          "qpsk-tiny",
				Constellation: "QPSK",
				PRBSOrder:     7,
				PRBSSeed:      0x55,
				BurstLen:      64,
				Mask:          "wideband-qpsk-15M",
			},
			{
				Name:          "qam16-tiny",
				Constellation: "16QAM",
				PRBSOrder:     7,
				PRBSSeed:      0x2B,
				BurstLen:      64,
				Mask:          "wideband-qpsk-15M",
			},
		},
		Faults:         []string{"pa-compression", "dead-gain"},
		Units:          2,
		Seed:           42,
		Scale:          0.1,
		YieldThreshold: 0.5,
	}
}

// singleProcessMatrix is the reference bytes every fleet path must match.
func singleProcessMatrix(t *testing.T, g campaign.Grid) []byte {
	t.Helper()
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := testContext(5 * time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func submitAndWait(t *testing.T, s *Server, spec Spec) *Campaign {
	t.Helper()
	c, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := c.WaitState(30 * time.Second)
	if st.State != StateDone {
		t.Fatalf("campaign ended %s (%s), want done", st.State, st.Error)
	}
	return c
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Shard
		ok   bool
	}{
		{"0/1", Shard{0, 1}, true},
		{"2/3", Shard{2, 3}, true},
		{"3/3", Shard{}, false},
		{"-1/2", Shard{}, false},
		{"0/0", Shard{}, false},
		{"banana", Shard{}, false},
	} {
		got, err := ParseShard(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseShard(%q) accepted", tc.in)
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"Name":"x","Bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{} {}`)); err == nil {
		t.Error("trailing data accepted")
	}
}

// TestEndToEndHTTP drives the whole HTTP surface: submit → idempotent
// resubmit → stream replay → matrix/checkpoint/manifest/trace, and pins
// the served matrix to the single-process bytes.
func TestEndToEndHTTP(t *testing.T) {
	g := fleetGrid()
	want := singleProcessMatrix(t, g)

	s := newTestServer(t, Config{CheckpointDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	body, err := json.Marshal(Spec{Name: "e2e", Grid: g, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" || st.CellsTotal != 6 {
		t.Fatalf("submit status = %+v, want an ID and 6 cells", st)
	}

	// Identical resubmission must return the same campaign, not fork one.
	resp, err = http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st2 Status
	json.NewDecoder(resp.Body).Decode(&st2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st2.ID != st.ID {
		t.Errorf("resubmit: %s id=%s, want 200 with id %s", resp.Status, st2.ID, st.ID)
	}

	// The stream replays history and follows the campaign to its end.
	streamResp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content-type %q", ct)
	}
	var unitEvents, cellEvents int
	var finalState Status
	sc := bufio.NewScanner(streamResp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type   string
			Status Status
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "unit":
			unitEvents++
		case "cell":
			cellEvents++
		case "state":
			finalState = ev.Status
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if finalState.State != StateDone {
		t.Fatalf("stream ended in state %s (%s)", finalState.State, finalState.Error)
	}
	if cellEvents != 6 || unitEvents != 6*g.Units {
		t.Errorf("stream carried %d cell / %d unit events, want 6 / %d", cellEvents, unitEvents, 6*g.Units)
	}
	if finalState.UnitsRun != int64(6*g.Units) {
		t.Errorf("final status ran %d units, want %d", finalState.UnitsRun, 6*g.Units)
	}

	got := getOK(t, ts.URL+"/campaigns/"+st.ID+"/matrix")
	if !bytes.Equal(got, want) {
		t.Error("served matrix differs from single-process Grid.Run bytes")
	}

	ckB := getOK(t, ts.URL+"/campaigns/"+st.ID+"/checkpoint")
	ck, err := campaign.ParseCheckpoint(ckB)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Cells) != 6 {
		t.Errorf("served checkpoint has %d cells, want 6", len(ck.Cells))
	}

	man := getOK(t, ts.URL+"/campaigns/"+st.ID+"/manifest")
	if !bytes.Contains(man, []byte("bistd")) {
		t.Errorf("manifest does not name the tool: %s", man)
	}

	tr := getOK(t, ts.URL+"/campaigns/"+st.ID+"/trace")
	if !bytes.Contains(tr, []byte("traceEvents")) {
		t.Error("trace is not Chrome JSON")
	}

	list := getOK(t, ts.URL+"/campaigns")
	var all []Status
	if err := json.Unmarshal(list, &all); err != nil || len(all) != 1 {
		t.Errorf("list = %s (%v), want one campaign", list, err)
	}

	if r, err := http.Get(ts.URL + "/campaigns/nope"); err == nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("unknown campaign: %s, want 404", r.Status)
		}
	}
	if !bytes.Contains(getOK(t, ts.URL+"/healthz"), []byte("ok")) {
		t.Error("healthz not ok")
	}
}

func getOK(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(data)))
	}
	return data
}

// TestResumeFromCheckpointByteIdentity is the deterministic half of the
// kill-and-resume contract: a server finding a partial checkpoint on disk
// skips the finished cells and still produces the single-process bytes.
func TestResumeFromCheckpointByteIdentity(t *testing.T) {
	g := fleetGrid()
	want := singleProcessMatrix(t, g)
	spec := Spec{Name: "resume", Grid: g}

	// Learn the campaign's content-hash ID from a throwaway server.
	probe := newTestServer(t, Config{})
	pc, _, err := probe.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := pc.ID

	// Fabricate the partial state a killed server would have left: the
	// first half of the cells, completed and checkpointed.
	p, err := campaign.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := campaign.NewCheckpoint(p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const partial = 3
	for i := 0; i < partial; i++ {
		r, err := p.RunCell(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		ck.Add(r)
	}
	b, err := ck.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, id+".ckpt.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{CheckpointDir: dir})
	c := submitAndWait(t, s, spec)
	st := c.status()
	if st.CellsResumed != partial {
		t.Errorf("resumed %d cells, want %d", st.CellsResumed, partial)
	}
	c.mu.Lock()
	got := c.matrix
	c.mu.Unlock()
	if !bytes.Equal(got, want) {
		t.Error("resumed matrix differs from single-process bytes")
	}
}

// TestResumedCellsCountInStatus: a campaign whose every cell comes back
// from a checkpoint still reports the units those cells ran, so its
// running yield is the matrix's, not an empty campaign's 1.
func TestResumedCellsCountInStatus(t *testing.T) {
	g := fleetGrid()
	spec := Spec{Name: "resume-all", Grid: g}
	dir := t.TempDir()
	st1 := submitAndWait(t, newTestServer(t, Config{CheckpointDir: dir}), spec).status()

	c := submitAndWait(t, newTestServer(t, Config{CheckpointDir: dir}), spec)
	st := c.status()
	if st.CellsResumed != st.CellsTotal {
		t.Fatalf("resumed %d of %d cells", st.CellsResumed, st.CellsTotal)
	}
	c.mu.Lock()
	var m campaign.DetectionMatrix
	err := json.Unmarshal(c.matrix, &m)
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, r := range m.Cells {
		rejected += r.Rejected
	}
	if rejected == 0 {
		t.Fatal("test grid has no rejections; it cannot tell a resumed yield from 1")
	}
	if want := int64(len(m.Cells) * g.Units); st.UnitsRun != want {
		t.Errorf("UnitsRun = %d, want %d", st.UnitsRun, want)
	}
	if st.UnitsRejected != int64(rejected) {
		t.Errorf("UnitsRejected = %d, want %d", st.UnitsRejected, rejected)
	}
	if st.Yield != st1.Yield {
		t.Errorf("resumed Yield = %g, uninterrupted run had %g", st.Yield, st1.Yield)
	}
}

// lockedBuffer is an io.Writer whose contents can be read while event
// emitters on other goroutines may still write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCheckpointWriteFailureEmitsEvent: a checkpoint that cannot be
// written is reported as a fleet.checkpoint.error event, and the campaign
// still finishes with the single-process bytes. A directory squatting on
// the temp file's name makes every WriteFile fail while loadCheckpoint
// still finds no checkpoint.
func TestCheckpointWriteFailureEmitsEvent(t *testing.T) {
	g := fleetGrid()
	want := singleProcessMatrix(t, g)
	spec := Spec{Name: "ckpt-fail", Grid: g}
	id, err := campaignID(spec, Shard{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, id+".ckpt.json.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	var log lockedBuffer
	defer eventlog.Set(eventlog.Set(slog.New(slog.NewJSONHandler(&log, nil))))

	s := newTestServer(t, Config{CheckpointDir: dir})
	c := submitAndWait(t, s, spec)
	c.mu.Lock()
	got := c.matrix
	c.mu.Unlock()
	if !bytes.Equal(got, want) {
		t.Error("matrix with failing checkpoints differs from single-process bytes")
	}

	writeErrs := 0
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		if ev["msg"] != "fleet.checkpoint.error" {
			continue
		}
		if ev["campaign"] != id || ev["error"] == "" {
			t.Errorf("checkpoint error event lacks campaign/error: %s", line)
		}
		if ev["stage"] == "write" {
			writeErrs++
		}
	}
	if writeErrs == 0 {
		t.Errorf("no stage=write fleet.checkpoint.error event in:\n%s", log.String())
	}
}

// TestShutdownInterruptsAndResumes kills a server mid-campaign and
// resumes on a fresh one sharing the checkpoint dir: whatever progress
// survived the drain is skipped, and the final matrix is byte-identical.
func TestShutdownInterruptsAndResumes(t *testing.T) {
	g := fleetGrid()
	g.Units = 4 // slow the cells enough for the drain to land mid-campaign
	want := singleProcessMatrix(t, g)
	spec := Spec{Name: "kill", Grid: g}
	dir := t.TempDir()

	s1, err := NewServer(Config{CheckpointDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c1, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first completed cell, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for c1.status().CellsDone == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := testContext(30 * time.Second)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	st1 := c1.status()
	if st1.State != StateInterrupted && st1.State != StateDone {
		t.Fatalf("after shutdown campaign is %s (%s)", st1.State, st1.Error)
	}

	// The checkpoint on disk carries exactly the completed cells.
	data, err := os.ReadFile(filepath.Join(dir, c1.ID+".ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := campaign.ParseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Cells) != st1.CellsDone {
		t.Errorf("checkpoint has %d cells, status says %d done", len(ck.Cells), st1.CellsDone)
	}

	// Fresh process, same dir: resubmission resumes and finishes.
	s2 := newTestServer(t, Config{CheckpointDir: dir})
	c2 := submitAndWait(t, s2, spec)
	st2 := c2.status()
	if st2.CellsResumed != st1.CellsDone {
		t.Errorf("resumed %d cells, interrupted run had completed %d", st2.CellsResumed, st1.CellsDone)
	}
	if st1.State == StateInterrupted && st2.CellsResumed == 0 {
		t.Error("interrupted run left progress but resume skipped nothing")
	}
	c2.mu.Lock()
	got := c2.matrix
	c2.mu.Unlock()
	if !bytes.Equal(got, want) {
		t.Error("killed-and-resumed matrix differs from single-process bytes")
	}
}

// TestShardMergeEqualsSingleProcess is the multi-process contract at the
// service level, pinned at several worker counts: two shard servers'
// checkpoints merge into bytes identical to the unsharded run.
func TestShardMergeEqualsSingleProcess(t *testing.T) {
	g := fleetGrid()
	want := singleProcessMatrix(t, g)
	spec := Spec{Name: "sharded", Grid: g}

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var cks []*campaign.Checkpoint
			for idx := 0; idx < 2; idx++ {
				dir := t.TempDir()
				s := newTestServer(t, Config{
					CheckpointDir: dir,
					Shard:         Shard{Index: idx, Count: 2},
					Workers:       workers,
				})
				c := submitAndWait(t, s, spec)
				st := c.status()
				if st.ShardIndex != idx || st.ShardCount != 2 {
					t.Fatalf("status shard %d/%d, want %d/2", st.ShardIndex, st.ShardCount, idx)
				}
				data, err := os.ReadFile(filepath.Join(dir, c.ID+".ckpt.json"))
				if err != nil {
					t.Fatal(err)
				}
				ck, err := campaign.ParseCheckpoint(data)
				if err != nil {
					t.Fatal(err)
				}
				cks = append(cks, ck)
			}
			m, err := campaign.MergeCheckpoints(g, cks...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.MarshalCanonical()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("merged shard matrices differ from single-process bytes")
			}
		})
	}
}

// TestSubmitRejectsBadGridAndPoisonCheckpoint covers the refusal paths: an
// invalid grid 400s, and a checkpoint whose content does not validate
// refuses the submission instead of quietly discarding it.
func TestSubmitRejectsBadGridAndPoisonCheckpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	bad := fleetGrid()
	bad.Stimuli[0].Constellation = "NOPE"
	if _, _, err := s.Submit(Spec{Grid: bad}); err == nil {
		t.Error("invalid grid accepted")
	}

	// Poisoned checkpoint: right name, wrong grid hash.
	g := fleetGrid()
	spec := Spec{Name: "poison", Grid: g}
	probe := newTestServer(t, Config{})
	pc, _, err := probe.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	poison := []byte(`{"GridHash":"deadbeefdeadbeef","ShardIndex":0,"ShardCount":1,"Cells":[]}`)
	if err := os.WriteFile(filepath.Join(dir, pc.ID+".ckpt.json"), poison, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Config{CheckpointDir: dir})
	if _, _, err := s2.Submit(spec); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Errorf("poisoned checkpoint accepted: %v", err)
	}
}

// TestResumeRefusesCellOutsideShard: a shard 0/2 checkpoint file that
// carries a cell of shard 1's strided partition, with tallies a real run
// could produce, is refused on resume by the checkpoint's own validation.
func TestResumeRefusesCellOutsideShard(t *testing.T) {
	g := fleetGrid()
	spec := Spec{Name: "foreign-cell", Grid: g}
	shard := Shard{Index: 0, Count: 2}
	p, err := campaign.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := campaign.NewCheckpoint(p, shard.Index, shard.Count)
	if err != nil {
		t.Fatal(err)
	}
	foreign := p.Cells[1] // plan index 1 belongs to shard 1/2
	ck.Add(campaign.CellResult{
		Stimulus:   foreign.Stimulus.Name,
		Fault:      foreign.Fault.Name,
		ShouldFail: foreign.Fault.ShouldFail,
		Units:      g.Units,
	})
	data, err := ck.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	id, err := campaignID(spec, shard)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, id+".ckpt.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{CheckpointDir: dir, Shard: shard})
	_, _, err = s.Submit(spec)
	if want := "outside shard 0/2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("resume from a checkpoint carrying shard 1's cell: err %v, want %q", err, want)
	}
}

// TestAdmissionQueueBounded pins the 503 path: the admission queue is a
// fixed buffer, and overflow refuses rather than queues unboundedly.
func TestAdmissionQueueBounded(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1})
	// Stall the executor with a real campaign, then overfill admission
	// with distinct specs (distinct names → distinct IDs).
	specs := make([]Spec, 3)
	for i := range specs {
		specs[i] = Spec{Name: fmt.Sprintf("q%d", i), Grid: fleetGrid()}
	}
	var sawFull bool
	for _, sp := range specs {
		if _, _, err := s.Submit(sp); err != nil {
			if err != errQueueFull {
				t.Fatalf("unexpected submit error: %v", err)
			}
			sawFull = true
		}
	}
	if !sawFull {
		t.Log("admission queue drained faster than the test submitted; bound not exercised")
	}
}

// TestConcurrentRefusalsKeepAdmissionOrder submits many specs at once,
// some refused for a poisoned checkpoint and some for a full admission
// queue. A refusal must unregister only its own campaign: every accepted
// campaign appears in Statuses exactly once and no refused one does. The
// interleaving is up to the scheduler, so the scenario runs several rounds.
func TestConcurrentRefusalsKeepAdmissionOrder(t *testing.T) {
	const n = 96
	poison := []byte(`{"GridHash":"deadbeefdeadbeef","ShardIndex":0,"ShardCount":1,"Cells":[]}`)
	for round := 0; round < 4; round++ {
		dir := t.TempDir()
		s := newTestServer(t, Config{CheckpointDir: dir, QueueDepth: n / 2})
		specs := make([]Spec, n)
		for i := range specs {
			specs[i] = Spec{Name: fmt.Sprintf("r%d-c%02d", round, i), Grid: fleetGrid()}
			if i%3 == 0 {
				id, err := campaignID(specs[i], s.cfg.Shard)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, id+".ckpt.json"), poison, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		var (
			wg                   sync.WaitGroup
			mu                   sync.Mutex
			accepted             = map[string]bool{}
			poisoned, queueFulls int
		)
		for _, sp := range specs {
			sp := sp
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, _, err := s.Submit(sp)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					accepted[c.ID] = true
				case err == errQueueFull:
					queueFulls++
				case strings.Contains(err.Error(), "hash"):
					poisoned++
				default:
					t.Errorf("%s: unexpected submit error: %v", sp.Name, err)
				}
			}()
		}
		wg.Wait()
		if poisoned != n/3 {
			t.Errorf("round %d: %d poisoned submissions refused, want %d", round, poisoned, n/3)
		}
		if queueFulls == 0 {
			t.Logf("round %d: admission queue never filled; only the checkpoint refusals were exercised", round)
		}
		seen := map[string]int{}
		for _, st := range s.Statuses() {
			seen[st.ID]++
		}
		for id := range accepted {
			if seen[id] != 1 {
				t.Errorf("round %d: accepted campaign %s listed %d times in Statuses", round, id, seen[id])
			}
		}
		for id, k := range seen {
			if !accepted[id] {
				t.Errorf("round %d: refused campaign %s listed %d times in Statuses", round, id, k)
			}
		}
	}
}
