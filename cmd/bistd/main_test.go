package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

// testGrid is a two-stimulus, two-fault grid (plus the implicit healthy
// row): six cells, enough to split over two shards.
func testGrid() campaign.Grid {
	return campaign.Grid{
		Stimuli: []campaign.StimulusSpec{
			{Name: "qpsk", Constellation: "QPSK", PRBSOrder: 7, PRBSSeed: 0x55, BurstLen: 64, Mask: "wideband-qpsk-15M"},
			{Name: "qam16", Constellation: "16QAM", PRBSOrder: 7, PRBSSeed: 0x2B, BurstLen: 64, Mask: "wideband-qpsk-15M"},
		},
		Faults:         []string{"pa-compression", "dead-gain"},
		Units:          2,
		Seed:           42,
		Scale:          0.1,
		YieldThreshold: 0.5,
	}
}

// writeShardCheckpoints writes the grid file and one checkpoint per shard
// of a 2-way split. The cell results are synthetic: merge validates keys,
// unit counts, fault expectations, tally consistency and coverage, none of
// which needs a simulated device.
func writeShardCheckpoints(t *testing.T, dir string) (gridPath string, ckpts []string) {
	t.Helper()
	g := testGrid()
	p, err := campaign.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	gridPath = filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 2; shard++ {
		ck, err := campaign.NewCheckpoint(p, shard, 2)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := p.ShardIndices(shard, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range idx {
			c := p.Cells[i]
			ck.Add(campaign.CellResult{Stimulus: c.Stimulus.Name, Fault: c.Fault.Name,
				ShouldFail: c.Fault.ShouldFail, Units: g.Units})
		}
		b, err := ck.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.ckpt.json", shard))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, path)
	}
	return gridPath, ckpts
}

// TestRunRefusals drives the argument and input errors of every mode. None
// of them may boot a server: the -addr-file each case passes must never be
// written.
func TestRunRefusals(t *testing.T) {
	dir := t.TempDir()
	gridPath, ck := writeShardCheckpoints(t, dir)
	addrFile := filepath.Join(dir, "addr")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad shard", []string{"-shard", "2/2"}, "shard"},
		{"unparsable shard", []string{"-shard", "half"}, "shard"},
		{"merge without grid", []string{"-merge", ck[0], ck[1]}, "-grid is required"},
		{"merge without checkpoints", []string{"-merge", "-grid", gridPath}, "no checkpoint files"},
		{"merge duplicate shard", []string{"-merge", "-grid", gridPath, ck[0], ck[0]}, "covered twice"},
		{"merge missing shard", []string{"-merge", "-grid", gridPath, ck[1]}, "cells covered"},
		{"submit unreadable file", []string{"-submit", filepath.Join(dir, "absent.json"), "-server", "http://127.0.0.1:1"}, "absent.json"},
		{"unknown flag", []string{"-no-such-flag"}, "no-such-flag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, tc.args...)
			err := run(args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("refused run wrote %d bytes to stdout", stdout.Len())
			}
			if _, err := os.Stat(addrFile); !os.IsNotExist(err) {
				t.Fatalf("a server booted: %s exists (%v)", addrFile, err)
			}
		})
	}
}

// TestRunMergeWritesMatrix: merging every shard prints exactly the matrix
// campaign.MergeCheckpoints folds.
func TestRunMergeWritesMatrix(t *testing.T) {
	dir := t.TempDir()
	gridPath, paths := writeShardCheckpoints(t, dir)
	var cks []*campaign.Checkpoint
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := campaign.ParseCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		cks = append(cks, ck)
	}
	m, err := campaign.MergeCheckpoints(testGrid(), cks...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-merge", "-grid", gridPath}, paths...), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("merged matrix differs from campaign.MergeCheckpoints:\n%s\nwant\n%s", stdout.Bytes(), want)
	}
}

// TestRunClientAgainstLiveServer: client mode submits a grid to a live
// fleet server, relays its event stream and prints exactly the matrix
// Plan.Fold makes of the same grid's cells run in this process.
func TestRunClientAgainstLiveServer(t *testing.T) {
	g := testGrid()
	g.Stimuli = g.Stimuli[:1]
	g.Faults = []string{"dead-gain"}
	g.Units = 1
	p, err := campaign.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]campaign.CellResult, len(p.Cells))
	for i := range p.Cells {
		if cells[i], err = p.RunCell(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	want, err := p.Fold(cells).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}

	srv, err := fleet.NewServer(fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler(false))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	data, err := g.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	gridPath := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(gridPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout bytes.Buffer
	var stderr lockedBuffer
	if err := run([]string{"-submit", gridPath, "-server", ts.URL, "-name", "client-test"}, &stdout, &stderr); err != nil {
		t.Fatalf("client run: %v\n%s", err, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("served matrix differs from Plan.Fold:\n%s\nwant\n%s", stdout.Bytes(), want)
	}
	if !strings.Contains(stderr.String(), `"Type":"state"`) {
		t.Errorf("client relayed no state event to stderr:\n%s", stderr.String())
	}
}

// lockedBuffer is the test's stderr. The in-process server's event log
// writes to it from the server's goroutines while the client relays the
// stream; two processes would each own their stderr.
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
