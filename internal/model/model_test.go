package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, c := range []Config{OPT13B(), OPT66B(), OPT175B(), LLaMA3_70B()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "no-layers", Hidden: 8, Heads: 2, FFN: 32, BlockSize: 4},
		{Name: "no-hidden", Layers: 2, Heads: 2, FFN: 32, BlockSize: 4},
		{Name: "heads", Layers: 2, Hidden: 10, Heads: 3, FFN: 32, BlockSize: 4},
		{Name: "no-ffn", Layers: 2, Hidden: 8, Heads: 2, BlockSize: 4},
		{Name: "no-block", Layers: 2, Hidden: 8, Heads: 2, FFN: 32},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", c.Name)
		}
	}
}

func TestParamCountsMatchNames(t *testing.T) {
	cases := []struct {
		cfg     Config
		billion float64
	}{
		{OPT13B(), 13}, {OPT66B(), 66}, {OPT175B(), 175}, {LLaMA3_70B(), 70},
	}
	for _, c := range cases {
		got := float64(c.cfg.NumParams()) / 1e9
		if got < c.billion*0.85 || got > c.billion*1.25 {
			t.Errorf("%s: %0.1fB params, want ~%gB", c.cfg.Name, got, c.billion)
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	c := OPT66B()
	// OPT-66B KV cache is famously ~2.4 MB/token at FP16.
	kv := c.KVBytesPerToken()
	if kv < 2_200_000 || kv > 2_500_000 {
		t.Errorf("KV bytes/token = %d, want ~2.36 MB", kv)
	}
	if got := c.KVBytesPerTokenPerGPU(4, 2); got != kv/8 {
		t.Errorf("sharded KV = %d, want %d", got, kv/8)
	}
	w := c.WeightBytesPerGPU(4, 2)
	if w != c.ParamBytes()/8 {
		t.Errorf("sharded weights = %d", w)
	}
	// 66B at FP16 = 132 GB: needs >= 4 x 40 GB GPUs even with full memory.
	if got := c.MinGPUs(40 << 30); got < 4 {
		t.Errorf("MinGPUs(40GB) = %d, want >= 4", got)
	}
	if got := OPT13B().MinGPUs(40 << 30); got != 1 {
		t.Errorf("OPT-13B MinGPUs = %d, want 1", got)
	}
}

func TestMinGPUsPanicsOnBadBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	OPT66B().MinGPUs(0)
}

func TestSyncVolumes(t *testing.T) {
	c := OPT66B()
	if got := c.SyncBytes(1000); got != 1000*9216*2 {
		t.Errorf("SyncBytes = %d", got)
	}
	if got := c.SyncStepsPerPass(); got != 128 {
		t.Errorf("SyncStepsPerPass = %d, want 128 (2 x 64 layers)", got)
	}
	if got := c.PipelineActivationBytes(10); got != 10*9216*2 {
		t.Errorf("PipelineActivationBytes = %d", got)
	}
	if got := c.KVTransferBytes(100); got != c.KVBytesPerToken()*100 {
		t.Errorf("KVTransferBytes = %d", got)
	}
}

func TestGPUByName(t *testing.T) {
	for _, name := range []string{"A100", "V100", "L40", "RTX2080Ti"} {
		g, err := GPUByName(name)
		if err != nil || g.Name != name {
			t.Errorf("GPUByName(%q) = %v, %v", name, g.Name, err)
		}
	}
	if _, err := GPUByName("H100"); err == nil {
		t.Error("unknown GPU accepted")
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{"opt-13b": "OPT-13B", "opt-66b": "OPT-66B", "opt-175b": "OPT-175B"} {
		c, err := ByName(name)
		if err != nil || c.Name != want {
			t.Errorf("ByName(%q) = %v, %v", name, c.Name, err)
		}
	}
	if _, err := ByName("opt-30b"); err == nil || !strings.Contains(err.Error(), "opt-13b | opt-66b | opt-175b") {
		t.Errorf("unknown model: err %v, want one naming the allowed values", err)
	}
}

func TestRooflineScaling(t *testing.T) {
	c := OPT66B()
	g := A100()
	// Prefill scales ~linearly down with tensor parallelism (minus overhead).
	t1 := g.MeasurePrefill(c, 8192, 8192*8192/8, 1)
	t4 := g.MeasurePrefill(c, 8192, 8192*8192/8, 4)
	if ratio := (t1 - prefillOverhead) / (t4 - prefillOverhead); math.Abs(ratio-4) > 0.01 {
		t.Errorf("prefill TP scaling ratio = %g, want 4", ratio)
	}
	// Decode is memory-bound: a V100 (slower HBM) must be slower than A100.
	dA := A100().MeasureDecode(c, 4096, 4, 1)
	dV := V100().MeasureDecode(c, 4096, 4, 1)
	if dV <= dA {
		t.Errorf("V100 decode %g should exceed A100 %g", dV, dA)
	}
	// More pipeline stages add fill bubble.
	d1 := g.MeasureDecode(c, 4096, 4, 1)
	d2 := g.MeasureDecode(c, 4096, 2, 2) // same shard count, one more stage
	if d2 <= d1 {
		t.Errorf("pipeline bubble missing: %g vs %g", d2, d1)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 2a + 3b + 5
	rows := [][]float64{{1, 0, 1}, {0, 1, 1}, {1, 1, 1}, {2, 3, 1}}
	b := []float64{7, 8, 10, 18}
	x, err := LeastSquares(rows, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 5}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLeastSquaresOverdeterminedNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var rows [][]float64
	var b []float64
	for i := 0; i < 200; i++ {
		a1 := rng.Float64() * 10
		a2 := rng.Float64() * 10
		rows = append(rows, []float64{a1, a2, 1})
		b = append(b, 1.5*a1-2*a2+4+rng.NormFloat64()*0.01)
	}
	x, err := LeastSquares(rows, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1.5, -2, 4} {
		if math.Abs(x[i]-want) > 0.05 {
			t.Errorf("x[%d] = %g, want ~%g", i, x[i], want)
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := LeastSquares([][]float64{{}}, []float64{1}); err == nil {
		t.Error("no features accepted")
	}
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix accepted")
	}
	// Singular: duplicate feature column.
	rows := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	if _, err := LeastSquares(rows, []float64{1, 2, 3}); err == nil {
		t.Error("singular system accepted")
	}
}

func TestFitRecoversRoofline(t *testing.T) {
	for _, g := range []GPUSpec{A100(), L40()} {
		cm := MustFit(OPT66B(), g)
		// Out-of-grid points: fitted model must track ground truth within a
		// few percent despite the injected profiling noise.
		cases := []struct {
			kin, kin2 int64
			pt        int
		}{
			{3000, 3000 * 3000 / 6, 2},
			{10000, 10000 * 10000 / 10, 4},
		}
		for _, c := range cases {
			got := cm.Prefill(c.kin, c.kin2, c.pt)
			want := g.MeasurePrefill(OPT66B(), c.kin, c.kin2, c.pt)
			if rel := math.Abs(got-want) / want; rel > 0.03 {
				t.Errorf("%s prefill(%d,%d,%d): %g vs %g (%.1f%%)", g.Name, c.kin, c.kin2, c.pt, got, want, rel*100)
			}
		}
		for _, kv := range []int64{2000, 30000} {
			got := cm.Decode(kv, 4, 2)
			want := g.MeasureDecode(OPT66B(), kv, 4, 2)
			if rel := math.Abs(got-want) / want; rel > 0.03 {
				t.Errorf("%s decode(%d): %g vs %g (%.1f%%)", g.Name, kv, got, want, rel*100)
			}
		}
	}
}

func TestFitRejectsBadConfig(t *testing.T) {
	if _, err := Fit(Config{Name: "bad"}, A100()); err == nil {
		t.Error("bad config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustFit did not panic")
		}
	}()
	MustFit(Config{Name: "bad"}, A100())
}

func TestCostModelPanics(t *testing.T) {
	cm := MustFit(OPT13B(), A100())
	for _, fn := range []func(){
		func() { cm.Prefill(10, 100, 0) },
		func() { cm.Decode(10, 0, 1) },
		func() { cm.Decode(10, 1, 0) },
		func() { OPT13B().WeightBytesPerGPU(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

func TestDecodeLatencyOrdersOfMagnitude(t *testing.T) {
	// Sanity: OPT-66B decode on 8 A100s should be tens of milliseconds per
	// token — the regime in which a 0.15 s TPOT SLA is meaningful.
	cm := MustFit(OPT66B(), A100())
	d := cm.Decode(4096, 4, 2)
	if d < 5e-3 || d > 100e-3 {
		t.Errorf("decode latency %g s out of plausible range", d)
	}
	p := cm.Prefill(8192, 8192*8192/8, 4)
	if p < 0.1 || p > 10 {
		t.Errorf("prefill latency %g s out of plausible range", p)
	}
}

func BenchmarkFitOPT66B(b *testing.B) {
	c := OPT66B()
	g := A100()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(c, g); err != nil {
			b.Fatal(err)
		}
	}
}
