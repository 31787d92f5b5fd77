// Package model captures the LLM side of the paper's system model: model
// configurations (OPT family, LLaMA-3-70B), GPU specifications, memory
// accounting for weights and KV cache, communication volumes of
// tensor-parallel synchronization, and the computation latency model of
// Eq. 12–13 with constants C1..C6 obtained the way the paper obtains them —
// profiling plus least-squares interpolation (here against a synthetic
// roofline GPU standing in for hardware).
package model

import "fmt"

// BytesPerParam is the FP16 weight precision used in all of the paper's
// experiments.
const BytesPerParam = 2

// BytesPerActivation is the FP16 activation element size used for
// synchronization traffic.
const BytesPerActivation = 2

// Config describes a Transformer decoder model (paper Table I symbols in
// comments).
type Config struct {
	Name      string
	Layers    int // L
	Hidden    int // h
	Heads     int // A
	FFN       int // m, intermediate size
	Vocab     int
	BlockSize int // b, attention-kernel block size
}

// OPT13B returns the OPT-13B configuration.
func OPT13B() Config {
	return Config{Name: "OPT-13B", Layers: 40, Hidden: 5120, Heads: 40, FFN: 20480, Vocab: 50272, BlockSize: 64}
}

// OPT66B returns the OPT-66B configuration (testbed model, §V).
func OPT66B() Config {
	return Config{Name: "OPT-66B", Layers: 64, Hidden: 9216, Heads: 72, FFN: 36864, Vocab: 50272, BlockSize: 64}
}

// OPT175B returns the OPT-175B configuration (simulation model, §V).
func OPT175B() Config {
	return Config{Name: "OPT-175B", Layers: 96, Hidden: 12288, Heads: 96, FFN: 49152, Vocab: 50272, BlockSize: 64}
}

// LLaMA3_70B returns the LLaMA-3-70B configuration used in Fig. 1.
func LLaMA3_70B() Config {
	return Config{Name: "LLaMA-3-70B", Layers: 80, Hidden: 8192, Heads: 64, FFN: 28672, Vocab: 128256, BlockSize: 64}
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("model %q: Layers must be positive", c.Name)
	case c.Hidden <= 0:
		return fmt.Errorf("model %q: Hidden must be positive", c.Name)
	case c.Heads <= 0 || c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %q: Heads must divide Hidden", c.Name)
	case c.FFN <= 0:
		return fmt.Errorf("model %q: FFN must be positive", c.Name)
	case c.BlockSize <= 0:
		return fmt.Errorf("model %q: BlockSize must be positive", c.Name)
	}
	return nil
}

// NumParams returns the approximate parameter count: per-layer attention
// (4h^2) and FFN (2hm) weights plus the embedding/unembedding matrices.
func (c Config) NumParams() int64 {
	perLayer := int64(4)*int64(c.Hidden)*int64(c.Hidden) + int64(2)*int64(c.Hidden)*int64(c.FFN)
	return int64(c.Layers)*perLayer + int64(2)*int64(c.Vocab)*int64(c.Hidden)
}

// ParamBytes returns R (Table I): total weight bytes at FP16.
func (c Config) ParamBytes() int64 {
	return c.NumParams() * BytesPerParam
}

// WeightBytesPerGPU returns the per-GPU weight footprint when sharded over
// ptens tensor ways and ppipe pipeline stages.
func (c Config) WeightBytesPerGPU(ptens, ppipe int) int64 {
	if ptens <= 0 || ppipe <= 0 {
		panic(fmt.Sprintf("model: invalid parallelism %dx%d", ptens, ppipe))
	}
	return c.ParamBytes() / int64(ptens) / int64(ppipe)
}

// KVBytesPerToken returns the KV-cache bytes one token occupies across the
// whole model: 2 tensors (K and V) x L layers x h elements x FP16.
func (c Config) KVBytesPerToken() int64 {
	return 2 * int64(c.Layers) * int64(c.Hidden) * BytesPerParam
}

// SyncBytes returns the data volume of one tensor-parallel synchronization
// step for kin batched tokens: D_col(a) = D_col(f) = K_in * h activation
// elements (paper §III-C2) at FP16. Each layer performs two such steps
// (attention output and FFN output).
func (c Config) SyncBytes(kin int64) int64 {
	return kin * int64(c.Hidden) * BytesPerActivation
}

// SyncStepsPerPass returns the number of tensor-parallel synchronization
// steps in one forward pass: two per layer (S in Eq. 5).
func (c Config) SyncStepsPerPass() int {
	return 2 * c.Layers
}

// PipelineActivationBytes returns the activation volume handed between
// adjacent pipeline stages for kin tokens: K_in * h elements at FP16 (the
// T_pp transfer of Eq. 6).
func (c Config) PipelineActivationBytes(kin int64) int64 {
	return kin * int64(c.Hidden) * BytesPerActivation
}

// KVTransferBytes returns the total KV-cache volume migrated from the
// prefill cluster to the decode cluster for a batch with kin total input
// tokens (Eq. 15's sum over layers and tensor segments).
func (c Config) KVTransferBytes(kin int64) int64 {
	return c.KVBytesPerToken() * kin
}

// MinGPUs returns the minimum number of GPUs needed to hold the weights
// given a per-GPU usable memory budget (Alg. 1 step 1:
// R / (M_g * R_frac)), rounded up.
func (c Config) MinGPUs(usableBytesPerGPU int64) int {
	if usableBytesPerGPU <= 0 {
		panic("model: usable memory must be positive")
	}
	r := c.ParamBytes()
	n := r / usableBytesPerGPU
	if r%usableBytesPerGPU != 0 {
		n++
	}
	if n < 1 {
		n = 1
	}
	return int(n)
}

// ByName returns the configuration a command line names: opt-13b, opt-66b or
// opt-175b.
func ByName(name string) (Config, error) {
	switch name {
	case "opt-13b":
		return OPT13B(), nil
	case "opt-66b":
		return OPT66B(), nil
	case "opt-175b":
		return OPT175B(), nil
	}
	return Config{}, fmt.Errorf("unknown model %q (allowed: opt-13b | opt-66b | opt-175b)", name)
}
