package failure

import (
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/rng"
)

func TestProbBasics(t *testing.T) {
	if Prob(0, 10) != 0 {
		t.Fatal("zero rate must never fail")
	}
	if Prob(1e-8, 0) != 0 {
		t.Fatal("zero duration must never fail")
	}
	// λd = ln 2 → f = 0.5
	if got := Prob(math.Ln2, 1); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("Prob(ln2,1) = %v", got)
	}
}

// TestProbInfiniteRateZeroDuration pins the +Inf·0 rule: a leg of zero
// duration fails with probability +0 at any rate, the same bits a
// finite rate gives it, while a positive duration at rate +Inf is a
// certain failure.
func TestProbInfiniteRateZeroDuration(t *testing.T) {
	inf := math.Inf(1)
	if got := Prob(inf, 0); math.Float64bits(got) != math.Float64bits(0) {
		t.Fatalf("Prob(+Inf, 0) = %v (bits %#x), want +0", got, math.Float64bits(got))
	}
	if got, want := Prob(inf, 0), Prob(1e-3, 0); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Prob(+Inf, 0) bits %#x differ from a finite rate's %#x", math.Float64bits(got), math.Float64bits(want))
	}
	if got := Prob(inf, 1e-300); got != 1 {
		t.Fatalf("Prob(+Inf, 1e-300) = %v, want 1", got)
	}
}

func TestProbSmallRateAccuracy(t *testing.T) {
	// For tiny λd, f ≈ λd - (λd)²/2; naive 1-exp loses all precision.
	lambda, d := 1e-8, 3.0
	got := Prob(lambda, d)
	want := lambda*d - lambda*d*lambda*d/2
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("Prob small = %v, want %v", got, want)
	}
	if got == 0 {
		t.Fatal("Prob underflowed to 0")
	}
}

func TestProbPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative rate did not panic")
		}
	}()
	Prob(-1, 1)
}

func TestSerialTwoComponents(t *testing.T) {
	// 1-(1-0.1)(1-0.2) = 0.28
	if got := Serial(0.1, 0.2); math.Abs(got-0.28) > 1e-15 {
		t.Fatalf("Serial(0.1,0.2) = %v", got)
	}
}

func TestSerialTinyAccuracy(t *testing.T) {
	// Serial of n tiny probabilities ≈ their sum.
	fs := []float64{1e-12, 2e-12, 3e-12}
	got := Serial(fs...)
	if math.Abs(got-6e-12)/6e-12 > 1e-6 {
		t.Fatalf("Serial tiny = %v, want ~6e-12", got)
	}
}

func TestParallel(t *testing.T) {
	if got := Parallel(0.1, 0.2); math.Abs(got-0.02) > 1e-16 {
		t.Fatalf("Parallel = %v", got)
	}
	if Parallel() != 1 {
		t.Fatal("empty Parallel should be 1 (certain failure of a zero-replica stage)")
	}
}

func TestReplicated(t *testing.T) {
	if Replicated(0.5, 3) != 0.125 {
		t.Fatal("Replicated(0.5,3) != 0.125")
	}
	if Replicated(0.5, 0) != 1 {
		t.Fatal("zero replicas must mean certain failure")
	}
	if got := Replicated(1e-6, 3); math.Abs(got-1e-18)/1e-18 > 1e-12 {
		t.Fatalf("Replicated tiny product = %v, want ~1e-18", got)
	}
}

func TestLogRelRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p := r.Float64() * 0.999999
		back := FromLogRel(LogRel(p))
		return math.Abs(back-p) <= 1e-12*(1+p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogRelTiny(t *testing.T) {
	// log(1-1e-15) must not round to 0.
	if LogRel(1e-15) == 0 {
		t.Fatal("LogRel(1e-15) rounded to 0")
	}
	if got := FromLogRel(-1e-15); got == 0 {
		t.Fatal("FromLogRel(-1e-15) rounded to 0")
	}
}

// SerialLogRel returns the log-reliability of a series composition,
// Σ log(1-f_i): the oracle that Serial and FromLogRel must agree with.
func SerialLogRel(fs ...float64) float64 {
	s := 0.0
	for _, f := range fs {
		s += math.Log1p(-f)
	}
	return s
}

func TestSerialLogRelConsistent(t *testing.T) {
	fs := []float64{0.1, 0.05, 0.2}
	viaLog := FromLogRel(SerialLogRel(fs...))
	direct := Serial(fs...)
	if math.Abs(viaLog-direct) > 1e-15 {
		t.Fatalf("SerialLogRel inconsistent: %v vs %v", viaLog, direct)
	}
}

func TestSerialBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(10)
		fs := make([]float64, n)
		maxF := 0.0
		for i := range fs {
			fs[i] = r.Float64()
			if fs[i] > maxF {
				maxF = fs[i]
			}
		}
		s := Serial(fs...)
		// Serial failure is at least the max component failure and at most 1.
		return s >= maxF-1e-12 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParallelBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(10)
		fs := make([]float64, n)
		minF := 1.0
		for i := range fs {
			fs[i] = r.Float64()
			if fs[i] < minF {
				minF = fs[i]
			}
		}
		p := Parallel(fs...)
		// Parallel failure is at most the min component failure.
		return p <= minF+1e-12 && p >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeMorganDuality(t *testing.T) {
	// Serial in failure space == parallel in reliability space.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b := r.Float64(), r.Float64()
		lhs := Serial(a, b)
		rhs := 1 - (1-a)*(1-b)
		return math.Abs(lhs-rhs) <= 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPaperScaleStage(t *testing.T) {
	// A paper-scale stage: interval of work 100 on a unit-speed processor
	// with λ=1e-8, comms of size 10 at λℓ=1e-5, replicated 3 times.
	fComp := Prob(1e-8, 100)
	fComm := Prob(1e-5, 10)
	perReplica := Serial(fComm, fComp, fComm)
	stage := Replicated(perReplica, 3)
	// per-replica failure ≈ 2e-4 + 1e-6 ≈ 2.01e-4; cubed ≈ 8.1e-12.
	if stage < 1e-12 || stage > 1e-10 {
		t.Fatalf("paper-scale stage failure = %v, want ~8e-12", stage)
	}
}

func BenchmarkSerial(b *testing.B) {
	fs := []float64{1e-8, 2e-7, 3e-6, 4e-5}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Serial(fs...)
	}
	_ = sink
}

// Parallel returns the failure probability of a parallel composition: the
// system fails only if every component fails. Products of small failure
// probabilities are exactly representable down to ~1e-300, so a plain
// product is accurate.
func Parallel(fs ...float64) float64 {
	p := 1.0
	for _, f := range fs {
		p *= f
	}
	return p
}
