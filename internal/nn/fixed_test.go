package nn

import (
	"math"
	"math/rand"
	"testing"
)

// mustQuantize wraps Quantize for tests that use a known-good frac.
func mustQuantize(t *testing.T, m *MLP, frac uint) *FixedMLP {
	t.Helper()
	f, err := Quantize(m, frac)
	if err != nil {
		t.Fatalf("Quantize(frac=%d): %v", frac, err)
	}
	return f
}

func TestQuantizeRoundTripAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewMLP(rng, ReLU, 4, 100, 5)
	f := mustQuantize(t, m, 10)
	maxErr := 0.0
	for trial := 0; trial < 200; trial++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		fo := f.Forward(x)
		mo := m.Forward(x)
		for i := range mo {
			if e := math.Abs(fo[i] - mo[i]); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 0.1 {
		t.Errorf("max quantization error %v, want <= 0.1 at 10 fractional bits", maxErr)
	}
}

func TestQuantizedArgmaxAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := NewMLP(rng, ReLU, 4, 100, 5)
	// Shape the network a little so outputs are not razor-thin ties.
	for i := 0; i < 2000; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		m.TrainStep(x, int(x[0]*4.99), 2*x[1]-1, 0.05)
	}
	f := mustQuantize(t, m, 10)
	inputs := make([][]float64, 300)
	for i := range inputs {
		inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	if got := ArgmaxAgreement(m, f, inputs); got < 0.9 {
		t.Errorf("argmax agreement = %.3f, want >= 0.9", got)
	}
	if got := ArgmaxAgreement(m, f, nil); got != 1 {
		t.Errorf("empty agreement = %v, want 1", got)
	}
}

func TestQuantizeFracBitsTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := NewMLP(rng, ReLU, 4, 50, 5)
	x := []float64{0.25, 0.5, 0.75, 1.0}
	ref := append([]float64(nil), m.Forward(x)...)
	errAt := func(frac uint) float64 {
		fo := mustQuantize(t, m, frac).Forward(x)
		var e float64
		for i := range ref {
			e += math.Abs(fo[i] - ref[i])
		}
		return e
	}
	if e4, e12 := errAt(4), errAt(12); e12 > e4 {
		t.Errorf("more fractional bits increased error: frac4=%v frac12=%v", e4, e12)
	}
}

func TestQuantizeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := NewMLP(rng, ReLU, 4, 100, 5)
	f := mustQuantize(t, m, 8)
	// 1005 parameters at 16 bits each = 2010 bytes.
	if got := f.Bytes(); got != 2*m.NumParams() {
		t.Errorf("Bytes = %d, want %d", got, 2*m.NumParams())
	}
	if f.Frac() != 8 {
		t.Errorf("Frac = %d", f.Frac())
	}
	if f.InputDim() != 4 || f.OutputDim() != 5 {
		t.Errorf("dims = (%d, %d), want (4, 5)", f.InputDim(), f.OutputDim())
	}
}

func TestQuantizeBadFracError(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := NewMLP(rng, ReLU, 2, 4, 2)
	for _, frac := range []uint{0, 15, 64} {
		if f, err := Quantize(m, frac); err == nil || f != nil {
			t.Errorf("Quantize(frac=%d) = (%v, %v), want nil snapshot and an error", frac, f, err)
		}
	}
	if _, err := Quantize(m, 14); err != nil {
		t.Errorf("Quantize(frac=14): %v, want success at the range edge", err)
	}
}

func TestQuantizeSaturates(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m := NewMLP(rng, ReLU, 2, 4, 2)
	// Inject an out-of-range weight; quantization must clamp, not wrap.
	m.w[0][0] = 1e9
	f := mustQuantize(t, m, 14)
	if f.w[0][0] != math.MaxInt16 {
		t.Errorf("weight did not saturate: %d", f.w[0][0])
	}
	m.w[0][0] = -1e9
	f = mustQuantize(t, m, 14)
	if f.w[0][0] != math.MinInt16 {
		t.Errorf("negative weight did not saturate: %d", f.w[0][0])
	}
}

func TestQuantizedTanhNetwork(t *testing.T) {
	// Non-ReLU activations use the lookup-table fallback; outputs must
	// still track the float network.
	rng := rand.New(rand.NewSource(27))
	m := NewMLP(rng, Tanh, 3, 16, 2)
	f := mustQuantize(t, m, 10)
	x := []float64{0.3, -0.4, 0.9}
	fo := f.Forward(x)
	mo := m.Forward(x)
	for i := range mo {
		if math.Abs(fo[i]-mo[i]) > 0.1 {
			t.Errorf("output %d: fixed %v vs float %v", i, fo[i], mo[i])
		}
	}
}

func TestRequantizeTracksRetrainedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	m := NewMLP(rng, ReLU, 4, 32, 5)
	f := mustQuantize(t, m, 10)
	// Drift the float network, then refresh the snapshot in place: it
	// must match a freshly quantized copy exactly.
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		m.TrainStep(x, i%5, rng.Float64(), 0.05)
	}
	if err := f.Requantize(m); err != nil {
		t.Fatalf("Requantize: %v", err)
	}
	fresh := mustQuantize(t, m, 10)
	for l := range f.w {
		for i := range f.w[l] {
			if f.w[l][i] != fresh.w[l][i] {
				t.Fatalf("w[%d][%d]: requantized %d != fresh %d", l, i, f.w[l][i], fresh.w[l][i])
			}
		}
		for i := range f.b[l] {
			if f.b[l][i] != fresh.b[l][i] {
				t.Fatalf("b[%d][%d]: requantized %d != fresh %d", l, i, f.b[l][i], fresh.b[l][i])
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := f.Requantize(m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Requantize allocates %v per run, want 0", allocs)
	}
}

func TestRequantizeArchitectureMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := mustQuantize(t, NewMLP(rng, ReLU, 4, 32, 5), 10)
	for _, other := range []*MLP{
		NewMLP(rng, ReLU, 4, 16, 5),    // different width
		NewMLP(rng, ReLU, 4, 32, 5, 5), // different depth
		NewMLP(rng, Tanh, 4, 32, 5),    // different activation
	} {
		if err := f.Requantize(other); err == nil {
			t.Errorf("Requantize accepted mismatched network %v/%v", other.Sizes(), other.act)
		}
	}
}

// TestFixedForwardIntoZeroAlloc: both serving paths, fixed-point and
// float (FixedFrac 0), run ForwardInto allocation-free with a reused
// dst and agree with Forward.
func TestFixedForwardIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m := NewMLP(rng, ReLU, 4, 100, 5)
	f := mustQuantize(t, m, 10)
	x := []float64{0.1, 0.9, 0.4, 0.7}
	for _, net := range []struct {
		name string
		fw   interface {
			Forward(x []float64) []float64
			ForwardInto(dst, x []float64) []float64
		}
	}{{"fixed", f}, {"float", m}} {
		dst := make([]float64, f.OutputDim())
		want := append([]float64(nil), net.fw.Forward(x)...)
		if allocs := testing.AllocsPerRun(100, func() {
			dst = net.fw.ForwardInto(dst, x)
		}); allocs != 0 {
			t.Errorf("%s ForwardInto allocates %v per run, want 0", net.name, allocs)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Errorf("%s ForwardInto[%d] = %v, Forward = %v", net.name, i, dst[i], want[i])
			}
		}
	}
	// Forward reuses its internal scratch after the first call.
	f.Forward(x)
	if allocs := testing.AllocsPerRun(100, func() {
		f.Forward(x)
	}); allocs != 0 {
		t.Errorf("steady-state Forward allocates %v per run, want 0", allocs)
	}
}
