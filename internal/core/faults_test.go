package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rf"
)

// TestCatalogEntriesWellFormed: every fault must have a unique name, a
// description, and an Apply that actually changes the configuration —
// otherwise escape analysis silently tests the healthy unit twice.
func TestCatalogEntriesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Catalog() {
		if f.Name == "" || f.Description == "" {
			t.Errorf("fault %+v missing name or description", f)
		}
		if seen[f.Name] {
			t.Errorf("duplicate fault name %q", f.Name)
		}
		seen[f.Name] = true
		if f.Apply == nil {
			t.Errorf("%s: nil Apply", f.Name)
			continue
		}
		healthy := PaperScenario()
		faulty := PaperScenario()
		f.Apply(&faulty)
		if reflect.DeepEqual(healthy, faulty) {
			t.Errorf("%s: Apply left the configuration unchanged", f.Name)
		}
	}
}

// TestCatalogConfigsConstructible: every faulty configuration must still be
// accepted by New — a fault models a broken DUT, not a broken simulation.
func TestCatalogConfigsConstructible(t *testing.T) {
	for _, f := range Catalog() {
		cfg := PaperScenario()
		f.Apply(&cfg)
		if _, err := New(cfg); err != nil {
			t.Errorf("%s: New rejected the faulty config: %v", f.Name, err)
		}
	}
}

func TestFaultByName(t *testing.T) {
	for _, f := range Catalog() {
		got, err := FaultByName(f.Name)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if got.Name != f.Name || got.ShouldFail != f.ShouldFail {
			t.Errorf("%s: lookup returned %q/%v", f.Name, got.Name, got.ShouldFail)
		}
	}
	if _, err := FaultByName("no-such-fault"); err == nil {
		t.Error("unknown fault name must fail")
	}
}

// TestCatalogFailureBalance: the library must exercise both sides of the
// escape/false-alarm analysis.
func TestCatalogFailureBalance(t *testing.T) {
	var fail, benign int
	for _, f := range Catalog() {
		if f.ShouldFail {
			fail++
		} else {
			benign++
		}
	}
	if fail == 0 || benign == 0 {
		t.Errorf("catalogue unbalanced: %d must-fail, %d benign", fail, benign)
	}
}

// TestBuildCatalogMirrorsCatalog: the error-returning constructor and its
// panicking wrapper must agree — same faults, same order, no panic.
func TestBuildCatalogMirrorsCatalog(t *testing.T) {
	built, err := BuildCatalog()
	if err != nil {
		t.Fatal(err)
	}
	viaPanic := Catalog()
	if len(built) != len(viaPanic) {
		t.Fatalf("BuildCatalog %d faults, Catalog %d", len(built), len(viaPanic))
	}
	for i := range built {
		if built[i].Name != viaPanic[i].Name || built[i].ShouldFail != viaPanic[i].ShouldFail {
			t.Errorf("entry %d differs: %s vs %s", i, built[i].Name, viaPanic[i].Name)
		}
	}
	ext, err := BuildExtendedCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != len(built)+3 {
		t.Errorf("extended catalogue: %d faults, want base %d + 3", len(ext), len(built))
	}
}

// TestExtendedCatalogWellFormed: the campaign-grade entries obey the same
// contract as the base library — unique named, constructible, and Apply
// actually mutates the configuration.
func TestExtendedCatalogWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range ExtendedCatalog() {
		if f.Name == "" || f.Description == "" {
			t.Errorf("fault %+v missing name or description", f)
		}
		if seen[f.Name] {
			t.Errorf("duplicate fault name %q", f.Name)
		}
		seen[f.Name] = true
		healthy := PaperScenario()
		faulty := PaperScenario()
		f.Apply(&faulty)
		if reflect.DeepEqual(healthy, faulty) {
			t.Errorf("%s: Apply left the configuration unchanged", f.Name)
		}
		if _, err := New(faulty); err != nil {
			t.Errorf("%s: New rejected the faulty config: %v", f.Name, err)
		}
	}
	if seen["healthy"] {
		t.Error(`catalogue entry named "healthy" collides with the campaign baseline row`)
	}
}

// TestNewFaultModelsApply: table test for the three campaign fault models
// — each sets exactly its own knobs, and Apply has value semantics (the
// original configuration passed by value elsewhere stays untouched).
func TestNewFaultModelsApply(t *testing.T) {
	cases := []struct {
		name  string
		check func(t *testing.T, c *Config)
	}{
		{"dcde-stuck", func(t *testing.T, c *Config) {
			if !c.TI.DCDE.Stuck || c.TI.DCDE.StuckAt != 8e-12 {
				t.Errorf("DCDE stuck state not set: %+v", c.TI.DCDE)
			}
			if c.Tx.PA != nil || c.Tx.Spurs != nil {
				t.Error("dcde-stuck touched the transmitter")
			}
		}},
		{"pa-memory", func(t *testing.T, c *Config) {
			if c.Tx.PA == nil {
				t.Fatal("PA not replaced")
			}
			if c.TI.DCDE.Stuck || c.Tx.Spurs != nil {
				t.Error("pa-memory touched unrelated knobs")
			}
		}},
		{"lo-spur-comb", func(t *testing.T, c *Config) {
			if c.Tx.Spurs == nil {
				t.Fatal("spur comb not installed")
			}
			dev := 0.0
			for i := 0; i < 16; i++ {
				dev = math.Max(dev, math.Abs(c.Tx.Spurs.Phi(float64(i)*7e-9)))
			}
			if dev <= 0 {
				t.Errorf("spur comb has no phase deviation: %g rad", dev)
			}
			if c.Tx.PA != nil || c.TI.DCDE.Stuck {
				t.Error("lo-spur-comb touched unrelated knobs")
			}
		}},
	}
	for _, tc := range cases {
		f, err := FaultByName(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !f.ShouldFail {
			t.Errorf("%s: must be a ShouldFail fault", tc.name)
		}
		orig := PaperScenario()
		cfg := orig
		f.Apply(&cfg)
		tc.check(t, &cfg)
		if !reflect.DeepEqual(orig, PaperScenario()) {
			t.Errorf("%s: Apply leaked into the original config", tc.name)
		}
	}
}

// TestFaultByNameFindsExtended: lookup spans the extended catalogue.
func TestFaultByNameFindsExtended(t *testing.T) {
	for _, name := range []string{"dcde-stuck", "pa-memory", "lo-spur-comb"} {
		if _, err := FaultByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestCatalogSharedModelsFreshSlices: the catalogue is built once per
// process, so every lookup installs the same read-only models (one
// lo-phase-noise process, one Φ table), while each call still returns its
// own slice — a caller's edit never reaches the next caller.
func TestCatalogSharedModelsFreshSlices(t *testing.T) {
	a := Catalog()
	name := a[0].Name
	a[0].Name = "mutated"
	a[1] = Fault{}
	if b := Catalog(); b[0].Name != name || b[1].Apply == nil {
		t.Fatalf("mutating one Catalog() slice leaked into the next: %q, %+v", b[0].Name, b[1])
	}
	if e := ExtendedCatalog(); e[0].Name != name {
		t.Fatalf("mutating Catalog() leaked into ExtendedCatalog(): %q", e[0].Name)
	}

	installed := func(f Fault) *rf.PhaseNoise {
		c := PaperScenario()
		f.Apply(&c)
		if c.Tx.PhaseNoise == nil {
			t.Fatalf("%s installed no phase noise", f.Name)
		}
		return c.Tx.PhaseNoise
	}
	var fromCatalog *rf.PhaseNoise
	for _, f := range Catalog() {
		if f.Name == "lo-phase-noise" {
			fromCatalog = installed(f)
		}
	}
	byName, err := FaultByName("lo-phase-noise")
	if err != nil {
		t.Fatal(err)
	}
	if fromCatalog == nil || installed(byName) != fromCatalog {
		t.Error("FaultByName and Catalog install different lo-phase-noise processes")
	}
}
