package dist

import (
	"fmt"
	"math"
	"testing"

	"holdcsim/internal/rng"
)

func TestWeibullFromMean(t *testing.T) {
	// Shape 1 is the exponential: scale == mean.
	w := WeibullFromMean(2, 1)
	if math.Abs(w.Scale-2) > 1e-12 || w.Shape != 1 {
		t.Errorf("WeibullFromMean(2, 1) = %+v, want scale 2 shape 1", w)
	}
	if got := w.Mean(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %g, want 2", got)
	}
	// Nonpositive shape falls back to exponential.
	if w := WeibullFromMean(3, 0); w.Shape != 1 || math.Abs(w.Mean()-3) > 1e-12 {
		t.Errorf("WeibullFromMean(3, 0) = %+v, want exponential mean 3", w)
	}
	if w := WeibullFromMean(3, -2); w.Shape != 1 {
		t.Errorf("WeibullFromMean(3, -2).Shape = %g, want 1", w.Shape)
	}
	// Mean inverts the Gamma scaling for any shape.
	for _, k := range []float64{0.7, 1.4, 2.5} {
		w := WeibullFromMean(5, k)
		if got := w.Mean(); math.Abs(got-5) > 1e-9 {
			t.Errorf("WeibullFromMean(5, %g).Mean() = %g, want 5", k, got)
		}
	}
}

func TestWeibullSampleMean(t *testing.T) {
	r := rng.New(42)
	for _, k := range []float64{1, 1.8} {
		w := WeibullFromMean(2, k)
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			x := w.Sample(r)
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("shape %g: sample %g out of range", k, x)
			}
			sum += x
		}
		if got := sum / n; math.Abs(got-2) > 0.1 {
			t.Errorf("shape %g: sample mean = %g, want ~2", k, got)
		}
	}
}

func TestWeibullDeterministic(t *testing.T) {
	w := WeibullFromMean(1.5, 2)
	a, b := rng.New(7), rng.New(7)
	for i := 0; i < 100; i++ {
		if x, y := w.Sample(a), w.Sample(b); x != y {
			t.Fatalf("draw %d: %g != %g from identical streams", i, x, y)
		}
	}
}

func TestWeibullString(t *testing.T) {
	w := Weibull{Scale: 2, Shape: 1.5}
	if got := w.String(); got != "weibull(λ=2,k=1.5)" {
		t.Errorf("String = %q", got)
	}
}

// sampleMean draws n values and fails on any negative or non-finite
// draw.
func sampleMean(t *testing.T, s Sampler, r *rng.Source, n int) float64 {
	t.Helper()
	var sum float64
	for i := 0; i < n; i++ {
		x := s.Sample(r)
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("%s: sample %g out of range", s, x)
		}
		sum += x
	}
	return sum / float64(n)
}

func TestSamplerMeans(t *testing.T) {
	r := rng.New(3)
	for _, c := range []struct {
		s    Sampler
		mean float64
	}{
		{Exponential{MeanValue: 0.005}, 0.005},
		{Uniform{Lo: 0.003, Hi: 0.010}, 0.0065},
		{Deterministic{Value: 0.25}, 0.25},
		{LogNormal{Mu: 0, Sigma: 0.5}, math.Exp(0.125)},
		{Pareto{Xm: 1, Alpha: 3}, 1.5},
	} {
		if got := c.s.Mean(); math.Abs(got-c.mean) > 1e-12 {
			t.Errorf("%s: Mean = %g, want %g", c.s, got, c.mean)
		}
		if got := sampleMean(t, c.s, r, 40000); math.Abs(got-c.mean) > 0.03*c.mean {
			t.Errorf("%s: sample mean %g, want ~%g", c.s, got, c.mean)
		}
	}
	if m := (Pareto{Xm: 1, Alpha: 1}).Mean(); !math.IsInf(m, 1) {
		t.Errorf("Pareto α=1 mean = %g, want +Inf", m)
	}
}

func TestUniformAndDeterministicRange(t *testing.T) {
	r := rng.New(5)
	u := Uniform{Lo: 2, Hi: 3}
	d := Deterministic{Value: 7}
	for i := 0; i < 1000; i++ {
		if x := u.Sample(r); x < 2 || x >= 3 {
			t.Fatalf("uniform sample %g outside [2, 3)", x)
		}
		if x := d.Sample(r); x != 7 {
			t.Fatalf("deterministic sample %g, want 7", x)
		}
	}
}

func TestSamplerStrings(t *testing.T) {
	for _, c := range []struct {
		s    fmt.Stringer
		want string
	}{
		{Exponential{MeanValue: 0.005}, "exp(mean=0.005)"},
		{Uniform{Lo: 1, Hi: 2}, "uniform[1,2)"},
		{Deterministic{Value: 4}, "det(4)"},
		{LogNormal{Mu: 1, Sigma: 2}, "lognormal(μ=1,σ=2)"},
		{Pareto{Xm: 1, Alpha: 2.5}, "pareto(xm=1,α=2.5)"},
		{&MMPP2{LambdaH: 10, LambdaL: 1, MeanBurst: 0.5, MeanQuiet: 1}, "mmpp2(λH=10,λL=1,burst=0.5s,quiet=1s)"},
	} {
		if got := c.s.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestNewMMPP2Rejects(t *testing.T) {
	for _, c := range [][4]float64{
		{0, 1, 1, 1},  // zero burst rate
		{1, -1, 1, 1}, // negative quiet rate
		{1, 2, 1, 1},  // burst below quiet
		{2, 1, 0, 1},  // zero burst duration
		{2, 1, 1, -1}, // negative quiet duration
	} {
		if m, err := NewMMPP2(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("NewMMPP2%v accepted: %v", c, m)
		}
	}
}

func TestMMPP2RatesAndNext(t *testing.T) {
	m, err := NewMMPP2(20, 2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RateRatio(); got != 10 {
		t.Errorf("RateRatio = %g, want 10", got)
	}
	if got := m.BurstyFraction(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("BurstyFraction = %g, want 1/3", got)
	}
	want := (20*0.5 + 2*1.0) / 1.5
	if got := m.MeanRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanRate = %g, want %g", got, want)
	}
	// Over many state flips the empirical rate converges on MeanRate.
	r := rng.New(9)
	const n = 100000
	var elapsed float64
	for i := 0; i < n; i++ {
		gap := m.Next(r)
		if gap < 0 || math.IsNaN(gap) || math.IsInf(gap, 0) {
			t.Fatalf("arrival %d: gap %g", i, gap)
		}
		elapsed += gap
	}
	if got := n / elapsed; math.Abs(got-want) > 0.05*want {
		t.Errorf("empirical rate %g, want ~%g", got, want)
	}
}
