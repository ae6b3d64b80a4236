package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestMeanVarStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, Mean(xs), 5, 1e-12, "Mean")
	almost(t, Variance(xs), 4, 1e-12, "Variance")
	almost(t, StdDev(xs), 2, 1e-12, "StdDev")
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestSumMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	almost(t, Sum(xs), 9, 0, "Sum")
	min, max := MinMax(xs)
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %v,%v want -1,7", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Error("MinMax(nil) should be 0,0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	almost(t, Quantile(xs, 0), 1, 0, "q0")
	almost(t, Quantile(xs, 1), 5, 0, "q1")
	almost(t, Quantile(xs, 0.5), 3, 0, "q0.5")
	almost(t, Quantile(xs, 0.25), 2, 0, "q0.25")
	almost(t, Quantile(xs, 0.1), 1.4, 1e-12, "q0.1 interpolated")
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) should be 0")
	}
	// clamping
	almost(t, Quantile(xs, -1), 1, 0, "q<0 clamps")
	almost(t, Quantile(xs, 2), 5, 0, "q>1 clamps")
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantilesBatch(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	got := Quantiles(xs, 0, 0.5, 1)
	want := []float64{1, 3, 5}
	for i := range want {
		almost(t, got[i], want[i], 0, "Quantiles")
	}
}

func TestBoxPlot(t *testing.T) {
	b := NewBoxPlot([]float64{1, 2, 3, 4, 100})
	if b.N != 5 || b.Min != 1 || b.Max != 100 || b.Median != 3 {
		t.Errorf("unexpected box plot: %v", b)
	}
	if NewBoxPlot(nil).N != 0 {
		t.Error("empty box plot should be zero")
	}
	if b.String() == "" {
		t.Error("String should render")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	almost(t, Pearson(xs, ys), 1, 1e-12, "Pearson positive")
	neg := []float64{8, 6, 4, 2}
	almost(t, Pearson(xs, neg), -1, 1e-12, "Pearson negative")
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 2}, []float64{1}) != 0 {
		t.Error("length mismatch should give 0")
	}
	if Pearson([]float64{1, 1}, []float64{1, 2}) != 0 {
		t.Error("zero variance should give 0")
	}
}

func TestPearsonBounds(t *testing.T) {
	// Property: |ρ| ≤ 1 for random vectors.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		rho := Pearson(xs, ys)
		return rho >= -1-1e-9 && rho <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	almost(t, c.At(0), 0, 0, "At(0)")
	almost(t, c.At(1), 0.25, 0, "At(1)")
	almost(t, c.At(2), 0.75, 0, "At(2)")
	almost(t, c.At(3), 1, 0, "At(3)")
	almost(t, c.At(99), 1, 0, "At(99)")
	if c.Quantile(0) != 1 || c.Max() != 3 {
		t.Error("Min/Max wrong")
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 || c.Max() != 0 || c.Quantile(0.5) != 0 {
		t.Error("empty CDF should degrade gracefully")
	}
}

func TestCDFMonotone(t *testing.T) {
	// Property: CDF is monotone non-decreasing and within [0,1].
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64() * 100
		}
		c := NewCDF(xs)
		prev := -1.0
		for x := 0.0; x < 500; x += 7.3 {
			y := c.At(x)
			if y < prev || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBucketsPaperCategories(t *testing.T) {
	// The Fig. 2b file-size categories in MB.
	b := NewBuckets(0.5, 1, 5, 25)
	b.Add(0.1, 0.1) // x<0.5
	b.Add(0.5, 0.5) // 0.5<=x<1
	b.Add(0.7, 0.7) // 0.5<=x<1
	b.Add(30, 30)   // 25<=x
	b.Add(4.9, 4.9) // 1<=x<5
	b.Add(25.0, 25) // 25<=x (boundary goes up)
	cf := b.CountFractions()
	if cf[0] != 1.0/6 || cf[1] != 2.0/6 || cf[2] != 1.0/6 || cf[4] != 2.0/6 {
		t.Errorf("count fractions = %v", cf)
	}
	wf := b.WeightFractions()
	almost(t, Sum(wf), 1, 1e-12, "weight fractions sum")
	if b.Label(0, "MB") != "x<0.5MB" || b.Label(4, "MB") != "25MB<x" || b.Label(1, "MB") != "0.5MB<x<1MB" {
		t.Errorf("labels wrong: %q %q %q", b.Label(0, "MB"), b.Label(4, "MB"), b.Label(1, "MB"))
	}
}

func TestBucketsPanicOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unsorted bounds")
		}
	}()
	NewBuckets(5, 1)
}

func TestLorenzAndGiniEquality(t *testing.T) {
	xs := []float64{5, 5, 5, 5}
	almost(t, Gini(xs), 0, 1e-12, "Gini equal incomes")
	pts := Lorenz(xs)
	if len(pts) != 5 {
		t.Fatalf("got %d lorenz points", len(pts))
	}
	for _, p := range pts {
		almost(t, p.Share, p.Population, 1e-12, "Lorenz diagonal")
	}
}

func TestGiniExtremeInequality(t *testing.T) {
	xs := make([]float64, 1000)
	xs[0] = 1 // one user owns everything
	g := Gini(xs)
	if g < 0.99 {
		t.Errorf("Gini = %v, want ≈ 1", g)
	}
}

func TestGiniKnownValue(t *testing.T) {
	// For {1,2,3,4}: G = 2*(1*1+2*2+3*3+4*4)/(4*10) - 5/4 = 60/40-1.25 = 0.25
	almost(t, Gini([]float64{4, 2, 3, 1}), 0.25, 1e-12, "Gini {1,2,3,4}")
}

func TestGiniProperties(t *testing.T) {
	// Property: 0 ≤ G < 1, and scaling all incomes leaves G unchanged.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64()
		}
		g := Gini(xs)
		if g < -1e-9 || g >= 1 {
			return false
		}
		scaled := make([]float64, n)
		for i := range xs {
			scaled[i] = xs[i] * 7.5
		}
		return math.Abs(Gini(scaled)-g) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopShare(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	xs[0] = 99 // top user has 99 of 198
	almost(t, TopShare(xs, 0.01), 0.5, 1e-9, "TopShare 1%")
	almost(t, TopShare(xs, 1), 1, 1e-12, "TopShare all")
	if TopShare(nil, 0.5) != 0 || TopShare(xs, 0) != 0 {
		t.Error("degenerate TopShare should be 0")
	}
}

func TestACFWhiteNoiseAndSine(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	noise := make([]float64, 2000)
	for i := range noise {
		noise[i] = r.NormFloat64()
	}
	acf := ACF(noise, 50)
	bound := ACFConfidence(len(noise))
	// Expect roughly 5% exceedances for white noise; allow generous slack.
	if ex := ACFExceedances(acf, bound); ex > 10 {
		t.Errorf("white noise exceedances = %d, want few", ex)
	}

	// A periodic series shows strong correlation at its period.
	period := 24
	sine := make([]float64, 2000)
	for i := range sine {
		sine[i] = math.Sin(2 * math.Pi * float64(i) / float64(period))
	}
	sacf := ACF(sine, 48)
	if sacf[period-1] < 0.9 {
		t.Errorf("ACF at period = %v, want ≈ 1", sacf[period-1])
	}
	if sacf[period/2-1] > -0.9 {
		t.Errorf("ACF at half period = %v, want ≈ -1", sacf[period/2-1])
	}
}

func TestACFDegenerate(t *testing.T) {
	if ACF([]float64{1}, 5) != nil {
		t.Error("single sample has no ACF")
	}
	flat := ACF([]float64{3, 3, 3, 3}, 2)
	for _, v := range flat {
		if v != 0 {
			t.Error("zero-variance series should give 0 ACF")
		}
	}
	if ACFConfidence(0) != 0 {
		t.Error("ACFConfidence(0) should be 0")
	}
}

func TestACFLagOneCorrelated(t *testing.T) {
	// AR(1) process with φ=0.9 must show high lag-1 autocorrelation.
	r := rand.New(rand.NewSource(7))
	xs := make([]float64, 5000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.9*xs[i-1] + r.NormFloat64()
	}
	acf := ACF(xs, 1)
	if acf[0] < 0.8 {
		t.Errorf("AR(1) lag-1 ACF = %v, want > 0.8", acf[0])
	}
}

func TestFitPowerLawRecoversAlpha(t *testing.T) {
	// Sample from a pure Pareto(α=1.54, θ=41.37) via inverse transform and
	// check the MLE recovers α.
	r := rand.New(rand.NewSource(1))
	alpha, theta := 1.54, 41.37
	xs := make([]float64, 20000)
	for i := range xs {
		u := r.Float64()
		xs[i] = theta * math.Pow(1-u, -1/(alpha-1))
	}
	fit := FitPowerLaw(xs, theta)
	almost(t, fit.Alpha, alpha, 0.05, "recovered alpha")
	if fit.NTail != len(xs) {
		t.Errorf("NTail = %d", fit.NTail)
	}
	if !fit.Bursty() {
		t.Error("1<α<2 fit should be flagged bursty")
	}
}

func TestFitPowerLawAuto(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	alpha, theta := 1.44, 19.51
	xs := make([]float64, 30000)
	for i := range xs {
		// Body below theta plus a Pareto tail: auto-fit must find the tail.
		if r.Float64() < 0.3 {
			xs[i] = r.Float64() * theta
		} else {
			xs[i] = theta * math.Pow(1-r.Float64(), -1/(alpha-1))
		}
	}
	fit := FitPowerLawAuto(xs, 50)
	if fit.NTail < 100 {
		t.Fatalf("auto fit found no tail: %+v", fit)
	}
	almost(t, fit.Alpha, alpha, 0.15, "auto-fit alpha")
}

func TestFitPowerLawDegenerate(t *testing.T) {
	if f := FitPowerLaw([]float64{1, 2, 3}, 0); f.Alpha != 0 {
		t.Error("theta<=0 should yield zero fit")
	}
	if f := FitPowerLaw([]float64{1}, 0.5); f.Alpha != 0 {
		t.Error("tiny tail should yield zero fit")
	}
	if f := FitPowerLawAuto([]float64{1, 2}, 10); f.Alpha != 0 {
		t.Error("tiny sample should yield zero auto fit")
	}
}
