package platform

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"relpipe/internal/rng"
)

func TestHomogeneousConstructor(t *testing.T) {
	pl := Homogeneous(4, 2, 1e-8, 3, 1e-5, 2)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if pl.P() != 4 {
		t.Fatalf("P = %d", pl.P())
	}
	if !pl.Homogeneous() {
		t.Fatal("Homogeneous() = false for identical processors")
	}
	if pl.ComputeTime(0, 10) != 5 {
		t.Fatalf("ComputeTime = %v, want 5", pl.ComputeTime(0, 10))
	}
	if pl.CommTime(9) != 3 {
		t.Fatalf("CommTime = %v, want 3", pl.CommTime(9))
	}
}

func TestHeterogeneityDetection(t *testing.T) {
	pl := Homogeneous(3, 1, 1e-8, 1, 1e-5, 3)
	pl.Procs[1].Speed = 2
	if pl.Homogeneous() {
		t.Fatal("Homogeneous() = true with differing speeds")
	}
	pl2 := Homogeneous(3, 1, 1e-8, 1, 1e-5, 3)
	pl2.Procs[2].FailRate = 1e-7
	if pl2.Homogeneous() {
		t.Fatal("Homogeneous() = true with differing failure rates")
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() Platform { return Homogeneous(2, 1, 1e-8, 1, 1e-5, 3) }
	cases := []struct {
		name string
		mut  func(*Platform)
	}{
		{"no procs", func(p *Platform) { p.Procs = nil }},
		{"zero speed", func(p *Platform) { p.Procs[0].Speed = 0 }},
		{"negative rate", func(p *Platform) { p.Procs[1].FailRate = -1 }},
		{"zero bandwidth", func(p *Platform) { p.Bandwidth = 0 }},
		{"negative link rate", func(p *Platform) { p.LinkFailRate = -1 }},
		{"zero K", func(p *Platform) { p.MaxReplicas = 0 }},
		{"NaN speed", func(p *Platform) { p.Procs[1].Speed = math.NaN() }},
		{"NaN rate", func(p *Platform) { p.Procs[1].FailRate = math.NaN() }},
		{"NaN bandwidth", func(p *Platform) { p.Bandwidth = math.NaN() }},
		{"NaN link rate", func(p *Platform) { p.LinkFailRate = math.NaN() }},
	}
	for _, c := range cases {
		pl := base()
		c.mut(&pl)
		if err := pl.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid platform", c.name)
		}
	}
}

// TestValidateAcceptsInfFailRates pins that +Inf failure rates stay
// legal: they model certain failure.
func TestValidateAcceptsInfFailRates(t *testing.T) {
	pl := Homogeneous(2, 1, 1e-8, 1, 1e-5, 3)
	pl.Procs[0].FailRate = math.Inf(1)
	pl.LinkFailRate = math.Inf(1)
	if err := pl.Validate(); err != nil {
		t.Fatalf("Validate rejected +Inf failure rates: %v", err)
	}
}

func TestPaperHomogeneous(t *testing.T) {
	pl := PaperHomogeneous(10)
	if pl.P() != 10 || pl.Procs[0].Speed != 1 || pl.Procs[0].FailRate != 1e-8 ||
		pl.Bandwidth != 1 || pl.LinkFailRate != 1e-5 || pl.MaxReplicas != 3 {
		t.Fatalf("PaperHomogeneous mismatch: %+v", pl)
	}
}

func TestPaperHeterogeneous(t *testing.T) {
	pl := PaperHeterogeneous(rng.New(1), 10)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if pl.Homogeneous() {
		t.Fatal("PaperHeterogeneous produced a homogeneous platform")
	}
	for i, p := range pl.Procs {
		if p.Speed < 1 || p.Speed >= 100 {
			t.Fatalf("proc %d speed %v out of [1,100)", i, p.Speed)
		}
		if p.FailRate != 1e-8 {
			t.Fatalf("proc %d rate %v, want 1e-8", i, p.FailRate)
		}
	}
}

func TestPaperHomogeneousComparison(t *testing.T) {
	pl := PaperHomogeneousComparison(10)
	if pl.Procs[0].Speed != 5 {
		t.Fatalf("comparison platform speed = %v, want 5", pl.Procs[0].Speed)
	}
}

func TestRandomHeterogeneousRanges(t *testing.T) {
	pl := RandomHeterogeneous(rng.New(2), 20, 1, 10, 1e-9, 1e-7, 2, 1e-5, 4)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pl.Procs {
		if p.Speed < 1 || p.Speed >= 10 {
			t.Fatalf("proc %d speed out of range", i)
		}
		if p.FailRate < 1e-9 || p.FailRate >= 1e-7 {
			t.Fatalf("proc %d failRate out of range", i)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	pl := PaperHeterogeneous(rng.New(3), 5)
	b, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	var back Platform
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.P() != pl.P() || back.Bandwidth != pl.Bandwidth ||
		back.LinkFailRate != pl.LinkFailRate || back.MaxReplicas != pl.MaxReplicas {
		t.Fatal("JSON round trip lost fields")
	}
	for i := range pl.Procs {
		if back.Procs[i] != pl.Procs[i] {
			t.Fatalf("proc %d mismatch", i)
		}
	}
}

func TestUnmarshalValidates(t *testing.T) {
	var pl Platform
	err := json.Unmarshal([]byte(`{"procs":[],"bandwidth":1,"linkFailRate":0,"maxReplicas":1}`), &pl)
	if err == nil {
		t.Fatal("Unmarshal accepted platform without processors")
	}
}

func TestString(t *testing.T) {
	hom := PaperHomogeneous(3).String()
	if !strings.Contains(hom, "hom") {
		t.Fatalf("String() = %q", hom)
	}
	het := PaperHeterogeneous(rng.New(4), 3).String()
	if !strings.Contains(het, "het") {
		t.Fatalf("String() = %q", het)
	}
}
