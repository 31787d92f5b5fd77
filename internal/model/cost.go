package model

import (
	"fmt"
	"math/rand"
)

// ComputeModel is the fitted computation-latency model of Eq. 12–13:
//
//	T_c^pre = C1/P_tens * (4h^2 K_in + 2hm K_in) + C2/(b P_tens) * 3h K_in2 + C3
//	T_c^dec = C4/(P_tens P_pipe) * (4h^2 + 2hm) + C5/(P_tens P_pipe) * 3h K_in + C6
//
// with C6 = C6Base + C6Fill*(P_pipe-1), splitting the paper's pipeline-fill
// overhead constant into its base and per-extra-stage parts (vpipe's fill
// model). Constants come from Fit: profiling + least-squares interpolation.
type ComputeModel struct {
	Config Config
	GPU    GPUSpec

	C1, C2, C3     float64
	C4, C5         float64
	C6Base, C6Fill float64
}

// prefillFeatures returns the Eq. 12 feature vector (without constants).
func (cm *ComputeModel) prefillFeatures(kin, kin2 int64, ptens int) (x1, x2 float64) {
	h := float64(cm.Config.Hidden)
	m := float64(cm.Config.FFN)
	b := float64(cm.Config.BlockSize)
	x1 = (4*h*h*float64(kin) + 2*h*m*float64(kin)) / float64(ptens)
	x2 = 3 * h * float64(kin2) / (b * float64(ptens))
	return x1, x2
}

// decodeFeatures returns the Eq. 13 feature vector.
func (cm *ComputeModel) decodeFeatures(kin int64, ptens, ppipe int) (y1, y2 float64) {
	h := float64(cm.Config.Hidden)
	m := float64(cm.Config.FFN)
	shard := float64(ptens * ppipe)
	y1 = (4*h*h + 2*h*m) / shard
	y2 = 3 * h * float64(kin) / shard
	return y1, y2
}

// Prefill returns T_c^pre in seconds for kin total input tokens, kin2 the
// squared sum of the batch's input lengths, and ptens tensor-parallel ways.
func (cm *ComputeModel) Prefill(kin, kin2 int64, ptens int) float64 {
	if ptens <= 0 {
		panic(fmt.Sprintf("model: ptens %d", ptens))
	}
	x1, x2 := cm.prefillFeatures(kin, kin2, ptens)
	return cm.C1*x1 + cm.C2*x2 + cm.C3
}

// Decode returns T_c^dec in seconds per output token for a batch whose KV
// history totals kin tokens, under ptens x ppipe sharding.
func (cm *ComputeModel) Decode(kin int64, ptens, ppipe int) float64 {
	if ptens <= 0 || ppipe <= 0 {
		panic(fmt.Sprintf("model: parallelism %dx%d", ptens, ppipe))
	}
	y1, y2 := cm.decodeFeatures(kin, ptens, ppipe)
	return cm.C4*y1 + cm.C5*y2 + cm.C6Base + cm.C6Fill*float64(ppipe-1)
}

// profileNoise is the relative amplitude of the deterministic measurement
// noise injected into profiled latencies, standing in for real-system jitter.
const profileNoise = 0.01

// Fit profiles the (config, GPU) pair over a grid of batch shapes and
// parallelism degrees against the roofline ground truth and fits C1..C6 by
// least squares — the paper's "profiling and interpolation approach".
func Fit(c Config, g GPUSpec) (*ComputeModel, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cm := &ComputeModel{Config: c, GPU: g}
	rng := rand.New(rand.NewSource(0x5eed))
	noise := func() float64 { return 1 + profileNoise*(2*rng.Float64()-1) }

	// Prefill profile: vary total tokens, batch splits (which move kin2
	// relative to kin), and tensor ways.
	var prows [][]float64
	var pobs []float64
	for _, kin := range []int64{128, 512, 1024, 2048, 4096, 8192, 16384} {
		for _, q := range []int64{1, 4, 8, 16} {
			if kin < q {
				continue
			}
			kin2 := (kin / q) * (kin / q) * q // Q equal-length requests
			for _, pt := range []int{1, 2, 4, 8} {
				x1, x2 := cm.prefillFeatures(kin, kin2, pt)
				prows = append(prows, []float64{x1, x2, 1})
				pobs = append(pobs, g.MeasurePrefill(c, kin, kin2, pt)*noise())
			}
		}
	}
	pc, err := LeastSquares(prows, pobs)
	if err != nil {
		return nil, fmt.Errorf("prefill fit: %w", err)
	}
	cm.C1, cm.C2, cm.C3 = pc[0], pc[1], pc[2]

	// Decode profile: vary KV history, tensor ways, pipeline stages.
	var drows [][]float64
	var dobs []float64
	for _, kin := range []int64{128, 1024, 4096, 16384, 65536} {
		for _, pt := range []int{1, 2, 4, 8} {
			for _, pp := range []int{1, 2, 4} {
				y1, y2 := cm.decodeFeatures(kin, pt, pp)
				drows = append(drows, []float64{y1, y2, float64(pp - 1), 1})
				dobs = append(dobs, g.MeasureDecode(c, kin, pt, pp)*noise())
			}
		}
	}
	dc, err := LeastSquares(drows, dobs)
	if err != nil {
		return nil, fmt.Errorf("decode fit: %w", err)
	}
	cm.C4, cm.C5, cm.C6Fill, cm.C6Base = dc[0], dc[1], dc[2], dc[3]
	return cm, nil
}
