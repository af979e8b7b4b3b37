package platform

import (
	"errors"
	"fmt"
	"math"

	"relpipe/internal/jsonscan"
	"relpipe/internal/rng"
)

// Processor describes one computing resource: executing work w on it takes
// w/Speed time units, during which it fails with probability
// 1 - e^{-FailRate·w/Speed}.
type Processor struct {
	Speed    float64 `json:"speed"`
	FailRate float64 `json:"failRate"`
}

// Platform is the full hardware description.
type Platform struct {
	Procs []Processor `json:"procs"`
	// Bandwidth b of every point-to-point link; transmitting a data set
	// of size o takes o/Bandwidth time units.
	Bandwidth float64 `json:"bandwidth"`
	// LinkFailRate λ_ℓ, the failure rate per time unit of every link.
	LinkFailRate float64 `json:"linkFailRate"`
	// MaxReplicas K bounds both the number of simultaneous outgoing
	// connections of a processor (bounded multi-port model, §2.2) and,
	// consequently, the number of replicas per interval (§2.5).
	MaxReplicas int `json:"maxReplicas"`
}

// P returns the number of processors.
func (pl Platform) P() int { return len(pl.Procs) }

// Validate checks the structural invariants of the model.
func (pl Platform) Validate() error {
	if len(pl.Procs) == 0 {
		return errors.New("platform: no processors")
	}
	for i, p := range pl.Procs {
		if math.IsNaN(p.Speed) {
			return fmt.Errorf("platform: processor %d has NaN speed", i)
		}
		if math.IsNaN(p.FailRate) {
			return fmt.Errorf("platform: processor %d has NaN failure rate", i)
		}
		if p.Speed <= 0 {
			return fmt.Errorf("platform: processor %d has non-positive speed %v", i, p.Speed)
		}
		if p.FailRate < 0 {
			return fmt.Errorf("platform: processor %d has negative failure rate %v", i, p.FailRate)
		}
	}
	if math.IsNaN(pl.Bandwidth) {
		return errors.New("platform: NaN bandwidth")
	}
	if math.IsNaN(pl.LinkFailRate) {
		return errors.New("platform: NaN link failure rate")
	}
	if pl.Bandwidth <= 0 {
		return fmt.Errorf("platform: non-positive bandwidth %v", pl.Bandwidth)
	}
	if pl.LinkFailRate < 0 {
		return fmt.Errorf("platform: negative link failure rate %v", pl.LinkFailRate)
	}
	if pl.MaxReplicas < 1 {
		return fmt.Errorf("platform: MaxReplicas must be >= 1, got %d", pl.MaxReplicas)
	}
	return nil
}

// Homogeneous reports whether all processors share one speed and one
// failure rate, the case for which the paper's polynomial algorithms
// (Algorithms 1, 2, Algo-Alloc) are optimal.
func (pl Platform) Homogeneous() bool {
	if len(pl.Procs) == 0 {
		return true
	}
	first := pl.Procs[0]
	for _, p := range pl.Procs[1:] {
		if p.Speed != first.Speed || p.FailRate != first.FailRate {
			return false
		}
	}
	return true
}

// CommTime returns the time to ship a data set of size o over one link.
func (pl Platform) CommTime(o float64) float64 { return o / pl.Bandwidth }

// ComputeTime returns the time for processor u to execute work w.
func (pl Platform) ComputeTime(u int, w float64) float64 {
	return w / pl.Procs[u].Speed
}

// Homogeneous builds a platform of p identical processors.
func Homogeneous(p int, speed, failRate, bandwidth, linkFailRate float64, maxReplicas int) Platform {
	procs := make([]Processor, p)
	for i := range procs {
		procs[i] = Processor{Speed: speed, FailRate: failRate}
	}
	return Platform{
		Procs:        procs,
		Bandwidth:    bandwidth,
		LinkFailRate: linkFailRate,
		MaxReplicas:  maxReplicas,
	}
}

// PaperHomogeneous builds the homogeneous platform of the paper's §8.1
// experiments: p processors of speed 1, λ_p = 1e-8, b = 1, λ_ℓ = 1e-5,
// K = 3.
func PaperHomogeneous(p int) Platform {
	return Homogeneous(p, 1, 1e-8, 1, 1e-5, 3)
}

// PaperHeterogeneous builds a random heterogeneous platform with the
// paper's §8.2 recipe: p processors with speeds uniform in [1,100] and a
// constant failure rate of 1e-8 per time unit; b = 1, λ_ℓ = 1e-5, K = 3.
func PaperHeterogeneous(r *rng.Rand, p int) Platform {
	procs := make([]Processor, p)
	for i := range procs {
		procs[i] = Processor{Speed: r.Uniform(1, 100), FailRate: 1e-8}
	}
	return Platform{Procs: procs, Bandwidth: 1, LinkFailRate: 1e-5, MaxReplicas: 3}
}

// PaperHomogeneousComparison builds the homogeneous platform the paper
// pairs with each heterogeneous instance in §8.2: same processor count,
// speed 5.
func PaperHomogeneousComparison(p int) Platform {
	return Homogeneous(p, 5, 1e-8, 1, 1e-5, 3)
}

// RandomHeterogeneous generates a platform with speeds in [sMin, sMax] and
// failure rates in [lMin, lMax].
func RandomHeterogeneous(r *rng.Rand, p int, sMin, sMax, lMin, lMax, bandwidth, linkFailRate float64, maxReplicas int) Platform {
	procs := make([]Processor, p)
	for i := range procs {
		procs[i] = Processor{Speed: r.Uniform(sMin, sMax), FailRate: r.Uniform(lMin, lMax)}
	}
	return Platform{Procs: procs, Bandwidth: bandwidth, LinkFailRate: linkFailRate, MaxReplicas: maxReplicas}
}

// UnmarshalJSON implements json.Unmarshaler over the natural struct
// encoding and validates the result. The common document — the four
// known members with plain number values and a procs array of
// {"speed","failRate"} objects — is scanned in one pass; any other
// document goes to the strict encoding/json reference, which rejects
// unknown fields.
func (pl *Platform) UnmarshalJSON(b []byte) error {
	s := jsonscan.New(b)
	v := Scan(&s)
	if !s.Done() {
		type raw Platform
		var r raw
		if err := jsonscan.Strict(b, &r); err != nil {
			return err
		}
		v = Platform(r)
	}
	*pl = v
	return pl.Validate()
}

// platformMembers and procMembers are the member names of a platform
// and of a processor object.
var (
	platformMembers = []string{"procs", "bandwidth", "linkFailRate", "maxReplicas"}
	procMembers     = []string{"speed", "failRate"}
)

// Scan is the one-pass decode of the platform object at s's cursor,
// shared by UnmarshalJSON and whole-document decoders. It does not
// validate, and its result is meaningful only if s has not declined.
func Scan(s *jsonscan.Scanner) (pl Platform) {
	s.Members(platformMembers, func(name string) {
		switch name {
		case "procs":
			pl.Procs = make([]Processor, 0, s.ArrayCap(len(`{"speed":1}`)))
			s.Array(func() {
				var p Processor
				s.Members(procMembers, func(name string) {
					switch name {
					case "speed":
						p.Speed = s.Float()
					case "failRate":
						p.FailRate = s.Float()
					}
				})
				pl.Procs = append(pl.Procs, p)
			})
		case "bandwidth":
			pl.Bandwidth = s.Float()
		case "linkFailRate":
			pl.LinkFailRate = s.Float()
		case "maxReplicas":
			pl.MaxReplicas = s.Int()
		}
	})
	return pl
}

// String renders the platform compactly.
func (pl Platform) String() string {
	if pl.Homogeneous() && len(pl.Procs) > 0 {
		return fmt.Sprintf("platform{p=%d hom s=%.3g λ=%.3g b=%.3g λℓ=%.3g K=%d}",
			len(pl.Procs), pl.Procs[0].Speed, pl.Procs[0].FailRate,
			pl.Bandwidth, pl.LinkFailRate, pl.MaxReplicas)
	}
	return fmt.Sprintf("platform{p=%d het b=%.3g λℓ=%.3g K=%d}",
		len(pl.Procs), pl.Bandwidth, pl.LinkFailRate, pl.MaxReplicas)
}
