package relpipe

import (
	"encoding/json"
	"math"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// TestCanonicalInjective: instances that differ anywhere — including
// where the task array ends and the processor array begins, and in the
// sign of a zero — must hash differently.
func TestCanonicalInjective(t *testing.T) {
	base := func() Instance {
		return Instance{
			Chain: chain.Chain{{Work: 1, Out: 2}, {Work: 3, Out: 0}},
			Platform: platform.Platform{
				Procs:     []platform.Processor{{Speed: 5, FailRate: 0}},
				Bandwidth: 1, LinkFailRate: 0, MaxReplicas: 1,
			},
		}
	}
	// The same float stream, split one task/processor pair later: a
	// digest without length prefixes would alias the two.
	shifted := base()
	shifted.Chain = shifted.Chain[:1]
	shifted.Platform.Procs = []platform.Processor{{Speed: 3, FailRate: 0}, {Speed: 5, FailRate: 0}}
	negZero := base()
	negZero.Platform.LinkFailRate = math.Copysign(0, -1)
	negOut := base()
	negOut.Chain[1].Out = math.Copysign(0, -1)
	replicas := base()
	replicas.Platform.MaxReplicas = 2
	ulp := base()
	ulp.Chain[0].Work = math.Nextafter(1, 2)

	want := base().Canonical()
	if len(want) != 64 {
		t.Fatalf("digest %q is not 64 hex characters", want)
	}
	if again := base().Canonical(); again != want {
		t.Fatalf("digest not deterministic: %s vs %s", again, want)
	}
	for name, in := range map[string]Instance{
		"boundary shift":      shifted,
		"-0 link failure":     negZero,
		"-0 last output":      negOut,
		"max replicas":        replicas,
		"one ulp in the work": ulp,
	} {
		if got := in.Canonical(); got == want {
			t.Errorf("%s: digest collides with the base instance", name)
		}
	}
}

// TestHotPathAllocs pins the allocation cost of what every request pays
// before the cache is consulted, on any machine: Canonical makes at most
// two allocations, and decoding a chain or a platform makes the same
// number whatever its length.
func TestHotPathAllocs(t *testing.T) {
	docs := map[int][2][]byte{}
	for _, n := range []int{12, 100} {
		r := rng.New(uint64(n))
		in := Instance{Chain: chain.PaperRandom(r, n), Platform: platform.PaperHeterogeneous(r, n)}
		if allocs := testing.AllocsPerRun(100, func() { _ = in.Canonical() }); allocs > 2 {
			t.Errorf("Canonical at n=%d: %v allocs, want <= 2", n, allocs)
		}
		cb, err := json.Marshal(in.Chain)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := json.Marshal(in.Platform)
		if err != nil {
			t.Fatal(err)
		}
		docs[n] = [2][]byte{cb, pb}
	}
	decodeAllocs := func(n int) (c, p float64) {
		var ch chain.Chain
		var pl platform.Platform
		c = testing.AllocsPerRun(100, func() {
			if err := ch.UnmarshalJSON(docs[n][0]); err != nil {
				t.Fatal(err)
			}
		})
		p = testing.AllocsPerRun(100, func() {
			if err := pl.UnmarshalJSON(docs[n][1]); err != nil {
				t.Fatal(err)
			}
		})
		return c, p
	}
	c12, p12 := decodeAllocs(12)
	c100, p100 := decodeAllocs(100)
	if c12 != c100 || c12 > 1 {
		t.Errorf("chain decode allocs: %v at n=12, %v at n=100; want one, independent of n", c12, c100)
	}
	if p12 != p100 || p12 > 1 {
		t.Errorf("platform decode allocs: %v at n=12, %v at n=100; want one, independent of n", p12, p100)
	}
}
