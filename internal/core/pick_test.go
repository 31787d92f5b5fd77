package core

import (
	"io"
	"testing"

	"heroserve/internal/collective"
	"heroserve/internal/scheduler"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/topology"
)

// warmPicker returns an online policy with a warm table for a 4-GPU group on
// the testbed, auditing into a hub whose tracer streams to io.Discard, and
// the group's context. With ledger set the policy also keeps a decision
// ledger.
func warmPicker(tb testing.TB, ledger bool) (*OnlinePolicy, *serving.GroupCtx) {
	tb.Helper()
	g := topology.Testbed()
	eng, _, comm := newNet(g)
	hub := telemetry.New()
	if err := hub.Trace.StreamTo(io.Discard); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { hub.Trace.CloseStream() })
	hub.Attach(eng.Now, "HeroServe")
	comm.SetTelemetry(hub)
	p := NewOnlinePolicy(scheduler.DefaultConfig())
	if ledger {
		p.Ledger = decisions.NewLedger()
	}
	group := append(append([]topology.NodeID{}, g.ServerGPUs(0)[:2]...), g.ServerGPUs(1)[:2]...)
	ctx := &serving.GroupCtx{
		Comm:   comm,
		ID:     serving.GroupID{Role: serving.RoleDecode, Instance: 1},
		Group:  collective.NewGroup(g, group),
		Switch: g.Switches()[0],
		Reqs:   []int{3, 4, 9},
	}
	// Warm up: the table, the counter handles, the audit and encode
	// buffers and the ledger's table and first chunk.
	for i := 0; i < 256; i++ {
		p.pick(ctx, 1<<20, 2)
	}
	return p, ctx
}

// TestPolicyPickAllocs pins what the audit's typed arguments are for: once
// warm, an online pick, its audit and the policy-select instant it streams
// allocate nothing, and neither does a decision ledger's row: the ledger
// allocates one chunk per 512 picks, which AllocsPerRun's whole-allocation
// count rounds away. A ledger has no cap, so the uncapped case first grows
// it over many chunks: a long run's ledger, with its chunk list regrown
// along the way, must still cost a pick nothing.
func TestPolicyPickAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		ledger bool
		grow   int // picks recorded before measuring
	}{{"tracer", false, 0}, {"tracer+ledger", true, 0}, {"tracer+uncapped-ledger", true, 64 * 512}} {
		t.Run(c.name, func(t *testing.T) {
			p, ctx := warmPicker(t, c.ledger)
			for i := 0; i < c.grow; i++ {
				p.pick(ctx, 1<<20, 2)
			}
			if got := testing.AllocsPerRun(1000, func() { p.pick(ctx, 1<<20, 2) }); got != 0 {
				t.Errorf("%.2f allocs per pick, want 0", got)
			}
		})
	}
}

func BenchmarkPolicyPick(b *testing.B) {
	for _, c := range []struct {
		name   string
		ledger bool
	}{{"tracer", false}, {"tracer+ledger", true}} {
		b.Run(c.name, func(b *testing.B) {
			p, ctx := warmPicker(b, c.ledger)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.pick(ctx, 1<<20, 2)
			}
		})
	}
}
