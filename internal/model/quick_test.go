package model

import (
	"math/rand"
	"testing"
)

// Property tests over the cost and memory models.

func TestQuickPrefillMonotoneInTokens(t *testing.T) {
	cm := mustFit(t, OPT13B(), A100())
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		kin := int64(rng.Intn(8000) + 16)
		extra := int64(rng.Intn(4000) + 1)
		pt := []int{1, 2, 4, 8}[rng.Intn(4)]
		kin2a := kin * kin / 4
		kin2b := (kin + extra) * (kin + extra) / 4
		a := cm.Prefill(kin, kin2a, pt)
		b := cm.Prefill(kin+extra, kin2b, pt)
		if b <= a {
			t.Fatalf("prefill not monotone: T(%d)=%g >= T(%d)=%g", kin, a, kin+extra, b)
		}
	}
}

func TestQuickDecodeMonotoneInHistory(t *testing.T) {
	cm := mustFit(t, OPT66B(), V100())
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		kv := int64(rng.Intn(60000) + 16)
		extra := int64(rng.Intn(30000) + 1)
		pt := []int{2, 4, 8}[rng.Intn(3)]
		pp := []int{1, 2}[rng.Intn(2)]
		if cm.Decode(kv+extra, pt, pp) <= cm.Decode(kv, pt, pp) {
			t.Fatalf("decode not monotone in KV history")
		}
	}
}

func TestQuickTensorParallelismNeverHurtsPrefill(t *testing.T) {
	cm := mustFit(t, OPT66B(), A100())
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		kin := int64(rng.Intn(8000) + 64)
		kin2 := kin * kin / 8
		for _, pair := range [][2]int{{1, 2}, {2, 4}, {4, 8}} {
			if cm.Prefill(kin, kin2, pair[1]) >= cm.Prefill(kin, kin2, pair[0]) {
				t.Fatalf("prefill TP=%d not faster than TP=%d at kin=%d", pair[1], pair[0], kin)
			}
		}
	}
}

func TestQuickWeightShardingConserves(t *testing.T) {
	for _, cfg := range []Config{OPT13B(), OPT66B(), OPT175B(), LLaMA3_70B()} {
		total := cfg.ParamBytes()
		for _, pt := range []int{1, 2, 4, 8} {
			for _, pp := range []int{1, 2, 4} {
				shard := cfg.WeightBytesPerGPU(pt, pp)
				recon := shard * int64(pt) * int64(pp)
				// Integer division may drop at most (pt*pp - 1) bytes.
				if recon > total || total-recon >= int64(pt*pp) {
					t.Fatalf("%s %dx%d: shards reconstruct to %d of %d", cfg.Name, pt, pp, recon, total)
				}
			}
		}
	}
}

func TestQuickKVScalesLinearlyInTokens(t *testing.T) {
	cfg := OPT66B()
	if cfg.KVTransferBytes(100)*3 != cfg.KVTransferBytes(300) {
		t.Error("KV transfer not linear in tokens")
	}
	if cfg.SyncBytes(100)*7 != cfg.SyncBytes(700) {
		t.Error("sync bytes not linear in tokens")
	}
}

func TestQuickFitStableAcrossGPUs(t *testing.T) {
	// All fitted constants must be non-negative (they are physical times
	// per feature unit) across every (model, GPU) combination.
	for _, cfg := range []Config{OPT13B(), OPT66B(), OPT175B()} {
		for _, g := range []GPUSpec{A100(), V100(), L40(), RTX2080Ti()} {
			cm := mustFit(t, cfg, g)
			for name, c := range map[string]float64{
				"C1": cm.C1, "C2": cm.C2, "C4": cm.C4, "C5": cm.C5,
			} {
				if c <= 0 {
					t.Errorf("%s on %s: %s = %g, want positive", cfg.Name, g.Name, name, c)
				}
			}
			// The intercepts absorb noise but must stay near the configured
			// overheads (well under a second).
			if cm.C3 < 0 || cm.C3 > 0.1 {
				t.Errorf("%s on %s: C3 = %g out of range", cfg.Name, g.Name, cm.C3)
			}
		}
	}
}
