package experiments

import (
	"reflect"
	"testing"

	"heroserve/internal/telemetry"
)

func TestExtPCIeShape(t *testing.T) {
	rep, err := ExtPCIe(Env{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 3 {
		t.Fatalf("unexpected report shape: %+v", rep.Tables)
	}
	// Each row's "sim gain" column must be a positive percentage: the
	// NUMA-aware variant always wins on PCIe servers.
	for _, row := range rep.Tables[0].Rows {
		gain := row[len(row)-1]
		if len(gain) == 0 || gain[0] == '-' {
			t.Errorf("non-positive NUMA gain %q in row %v", gain, row)
		}
	}
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("serving runs under -short")
	}
	t.Parallel()
	data, err := AblationData(Env{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string]AblationResult{}
	for _, d := range data {
		byVariant[d.Variant] = d
	}
	full := byVariant["online scheduler (full)"]
	ring := byVariant["forced always-ring"]
	eth := byVariant["ethernet-only policies"]
	if full.MeanTPOT >= ring.MeanTPOT {
		t.Errorf("full scheduler TPOT %.4f not below always-ring %.4f", full.MeanTPOT, ring.MeanTPOT)
	}
	if full.MeanTPOT >= eth.MeanTPOT {
		t.Errorf("full scheduler TPOT %.4f not below ethernet-only %.4f", full.MeanTPOT, eth.MeanTPOT)
	}
}

// TestAblationsReportToTheEnv: every ablation variant's run reaches the
// environment's hub and observer under the variant's name, with the offered
// request count, and arming them leaves the results unchanged.
func TestAblationsReportToTheEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("serving runs under -short")
	}
	t.Parallel()
	plain, err := AblationData(Env{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var runs []telemetry.RunSummary
	env := Env{Scale: Quick, Seed: 1, Hub: telemetry.New(),
		OnRun: func(run telemetry.RunSummary) { runs = append(runs, run) }}
	armed, err := AblationData(env)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, armed) {
		t.Errorf("arming the env changed the ablations:\nplain %+v\narmed %+v", plain, armed)
	}
	if len(runs) != len(armed) {
		t.Fatalf("observer saw %d runs, want one per variant (%d)", len(runs), len(armed))
	}
	for i, run := range runs {
		if run.System != armed[i].Variant || run.Requests != 40 || run.Served != 40 {
			t.Errorf("run %d = %+v, want variant %q with 40 offered and served", i, run, armed[i].Variant)
		}
	}
	if done, _ := env.Hub.Metrics.Value("serving_requests_completed_total"); done != float64(40*len(armed)) {
		t.Errorf("hub counted %g completed requests, want %d", done, 40*len(armed))
	}
}
