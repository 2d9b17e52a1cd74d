package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/httpx"
)

// fleet-stream: one client submits small campaigns one at a time to an
// in-process fleet.Server on loopback and follows each one's NDJSON stream
// to its end. A campaign is 2 stimuli x (healthy + 1 fault) x 2 units at
// scale 0.35: four cells, enough to keep both default workers busy, small
// enough that a run holds hundreds of campaigns. Checkpoints go to a
// temporary directory at the default cadence of one write per cell.
const (
	fleetUnits = 2
	fleetScale = 0.35
	// fleetCampaignSeconds is the nominal length of one campaign on a
	// 2-vCPU host.
	fleetCampaignSeconds = 0.09
	// fleetMinCampaigns keeps at least ten campaigns beyond p95.
	fleetMinCampaigns = 200
)

var (
	fleetStimuli = []string{"qam16-backoff6", "qpsk-nominal"}
	fleetFaults  = []string{"pa-compression"}
)

func fleetCampaigns(seconds int) int {
	return max(fleetMinCampaigns, int(math.Ceil(float64(seconds)/fleetCampaignSeconds)))
}

// fleetSpec is campaign i of a seed. Every campaign has its own grid seed:
// the campaign ID is a content hash, and a repeated submission would return
// the finished campaign without running it.
func fleetSpec(seed int64, i int) fleet.Spec {
	g := campaign.DefaultGrid()
	var stims []campaign.StimulusSpec
	for _, s := range g.Stimuli {
		for _, name := range fleetStimuli {
			if s.Name == name {
				stims = append(stims, s)
			}
		}
	}
	g.Stimuli = stims
	g.Faults = fleetFaults
	g.Units = fleetUnits
	g.Scale = fleetScale
	g.Seed = mixSeed(seed, int64(i))
	return fleet.Spec{Grid: g}
}

type fleetBench struct {
	seed    int64
	seconds int
	specs   []fleet.Spec
	plans   []*campaign.Plan

	dir    string
	srv    *fleet.Server
	hs     *httpx.Server
	base   string
	client *http.Client

	// Layer figures, accumulated per campaign.
	submitMS, foldMS   []float64
	streamBytes, units int
	ckptBytes, cells   int
}

func newFleetBench(seed int64, seconds int) bench {
	return &fleetBench{seed: seed, seconds: seconds}
}

func (b *fleetBench) setup() error {
	for i := 0; i < fleetCampaigns(b.seconds); i++ {
		spec := fleetSpec(b.seed, i)
		plan, err := campaign.NewPlan(spec.Grid)
		if err != nil {
			return err
		}
		b.specs = append(b.specs, spec)
		b.plans = append(b.plans, plan)
	}
	dir, err := os.MkdirTemp("", "perfbench-fleet-")
	if err != nil {
		return err
	}
	b.dir = dir
	b.srv, err = fleet.NewServer(fleet.Config{CheckpointDir: dir})
	if err != nil {
		return err
	}
	b.hs, err = httpx.Serve("127.0.0.1:0", b.srv.Handler(false))
	if err != nil {
		return err
	}
	b.base = "http://" + b.hs.Addr()
	b.client = &http.Client{Timeout: time.Minute}

	warm := fleetSpec(b.seed, -1)
	plan, err := campaign.NewPlan(warm.Grid)
	if err != nil {
		return err
	}
	if _, err := b.runCampaign(warm, plan); err != nil {
		return fmt.Errorf("warm-up campaign: %w", err)
	}
	b.submitMS, b.foldMS = nil, nil
	b.streamBytes, b.units, b.ckptBytes, b.cells = 0, 0, 0, 0
	return nil
}

func (b *fleetBench) passes() int { return fleetCampaigns(b.seconds) }

func (b *fleetBench) runPass(p int) ([]opStat, error) {
	st, err := b.runCampaign(b.specs[p], b.plans[p])
	if err != nil {
		st.failed = true
	}
	return []opStat{st}, err
}

// streamEvent is the union of the fleet's NDJSON event shapes.
type streamEvent struct {
	Type    string
	Verdict campaign.UnitVerdict
	Cell    campaign.CellResult
	Status  fleet.Status
}

// runCampaign submits one campaign, follows its stream to the terminal
// state and checks what the server produced: every cell against its unit
// verdicts, /matrix against Plan.Fold of the streamed cells, and the
// checkpoint file against the checkpoint of those cells.
func (b *fleetBench) runCampaign(spec fleet.Spec, plan *campaign.Plan) (opStat, error) {
	st := opStat{kind: "campaign"}
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	t0 := time.Now()
	var status fleet.Status
	if err := b.call(http.MethodPost, "/campaigns", body, http.StatusCreated, &status); err != nil {
		return st, err
	}
	b.submitMS = append(b.submitMS, msSince(t0))

	resp, err := b.client.Get(b.base + "/campaigns/" + status.ID + "/stream")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stream: %s", resp.Status)
	}
	verdicts := map[string][]campaign.UnitVerdict{}
	var cells []campaign.CellResult
	var final fleet.Status
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		b.streamBytes += len(sc.Bytes()) + 1
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return st, fmt.Errorf("stream: %w", err)
		}
		switch ev.Type {
		case "unit":
			if st.units == 0 {
				st.firstMS = msSince(t0)
			}
			st.units++
			key := ev.Verdict.Stimulus + "\x00" + ev.Verdict.Fault
			verdicts[key] = append(verdicts[key], ev.Verdict)
		case "cell":
			cells = append(cells, ev.Cell)
		case "state":
			switch ev.Status.State {
			case fleet.StateDone, fleet.StateFailed, fleet.StateInterrupted:
				st.ms = msSince(t0)
				final = ev.Status
			}
		}
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("stream: %w", err)
	}
	b.units += st.units
	if final.State != fleet.StateDone {
		return st, fmt.Errorf("campaign %s ended %q: %s", status.ID, final.State, final.Error)
	}
	if len(cells) != len(plan.Cells) {
		return st, fmt.Errorf("campaign %s streamed %d cells, want %d", status.ID, len(cells), len(plan.Cells))
	}
	for _, c := range cells {
		if err := checkCell(c, verdicts[c.Stimulus+"\x00"+c.Fault], plan.Grid.Units); err != nil {
			return st, err
		}
	}

	tFold := time.Now()
	want, err := plan.Fold(cells).MarshalCanonical()
	b.foldMS = append(b.foldMS, msSince(tFold))
	if err != nil {
		return st, err
	}
	var got bytes.Buffer
	if err := b.call(http.MethodGet, "/campaigns/"+status.ID+"/matrix", nil, http.StatusOK, &got); err != nil {
		return st, err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return st, fmt.Errorf("campaign %s: /matrix differs from the fold of its streamed cells", status.ID)
	}
	return st, b.checkCheckpoint(status.ID, plan, cells)
}

// checkCheckpoint compares the checkpoint file with the checkpoint of the
// streamed cells, and tallies the bytes the server wrote for it: each
// write rewrites the whole file, once per cell plus a final write.
func (b *fleetBench) checkCheckpoint(id string, plan *campaign.Plan, cells []campaign.CellResult) error {
	ck, err := campaign.NewCheckpoint(plan, 0, 1)
	if err != nil {
		return err
	}
	var last []byte
	for _, c := range cells {
		ck.Add(c)
		if last, err = ck.MarshalCanonical(); err != nil {
			return err
		}
		b.ckptBytes += len(last)
	}
	b.ckptBytes += len(last)
	b.cells += len(cells)
	disk, err := os.ReadFile(filepath.Join(b.dir, id+".ckpt.json"))
	if err != nil {
		return err
	}
	if !bytes.Equal(disk, last) {
		return fmt.Errorf("campaign %s: checkpoint file differs from its streamed cells", id)
	}
	return nil
}

// call does one request and decodes the response into out: JSON for a
// struct, raw bytes for a *bytes.Buffer.
func (b *fleetBench) call(method, path string, body []byte, wantCode int, out any) error {
	req, err := http.NewRequest(method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if buf, ok := out.(*bytes.Buffer); ok {
		_, err = buf.ReadFrom(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (b *fleetBench) layers(m metrics, plain []opStat) error {
	planMS, err := timePlan(b.specs[0].Grid)
	if err != nil {
		return err
	}
	m.set("campaign.plan_ms", planMS, "ms")
	m.set("campaign.fold_ms", median(b.foldMS), "ms")
	m.set("fleet.submit_ms", median(b.submitMS), "ms")
	m.set("fleet.checkpoint_kb_per_cell", float64(b.ckptBytes)/1024/float64(b.cells), "KiB")
	m.set("fleet.stream_kb_per_unit", float64(b.streamBytes)/1024/float64(b.units), "KiB")
	return nil
}

func (b *fleetBench) probe() ([]probeUnit, error) { return cellProbe(b.plans[0], 0) }

// close stops the HTTP server and the fleet (both wait for in-flight work)
// and removes the checkpoint directory.
func (b *fleetBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if b.hs != nil {
		b.client.CloseIdleConnections()
		if err := b.hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: http shutdown: %v\n", err)
		}
	}
	if b.srv != nil {
		if err := b.srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: fleet shutdown: %v\n", err)
		}
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}
