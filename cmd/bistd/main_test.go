package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
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
// unit counts and coverage, none of which needs a simulated device.
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
			ck.Add(campaign.CellResult{Stimulus: c.Stimulus.Name, Fault: c.Fault.Name, Units: g.Units})
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
