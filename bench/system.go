package main

import (
	"fmt"
	"io"
	"time"

	"heroserve/internal/collective"
	"heroserve/internal/core"
	"heroserve/internal/netsim"
	"heroserve/internal/planner"
	"heroserve/internal/scheduler"
	"heroserve/internal/serving"
	"heroserve/internal/sim"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/perf"
	"heroserve/internal/telemetry/slo"
	"heroserve/internal/topology"
)

// probes are the traced run's observers. Every one of them wraps or arms a
// public entry point of a module; none changes what is simulated.
type probes struct {
	sampler *perf.Sampler
	policy  *policyProbe
	router  *routerProbe
	events  *eventTimer
	spans   *countingWriter // telemetry workloads only
	planS   float64         // core.Plan
	buildS  float64         // serving.New
}

// assembled is a system ready to Run, with the handles the checks and the
// per-layer metrics read afterwards.
type assembled struct {
	sys    *serving.System
	online *core.OnlinePolicy // nil under PlannedPolicy
	hub    *telemetry.Hub     // nil with telemetry off
	plan   *planner.Plan
}

// assemble plans the deployment and builds the serving system for the
// inputs. tel arms telemetry, with spans streamed to spans. pr, when non-nil,
// installs the traced run's probes; the system is then put together the way
// core.NewSystem does it so the wrapped policy is the one that runs.
func (s *spec) assemble(in *inputs, tel bool, spans io.Writer, pr *probes) (*assembled, error) {
	t0 := time.Now()
	plan, err := core.Plan(in.plan)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	planned := time.Now()

	sla := s.sla
	opts := serving.Options{Faults: in.faults}
	a := &assembled{plan: plan}
	if tel {
		a.hub = telemetry.New()
		if err := a.hub.Trace.StreamTo(spans); err != nil {
			return nil, fmt.Errorf("stream spans: %w", err)
		}
		opts.Telemetry = a.hub
		opts.SLA = &sla
		opts.SLO = &slo.Config{Rules: slo.DefaultRules(sla.TTFT, sla.TPOT)}
	}
	if s.autoscale {
		law, err := serving.NewScalePolicy("adaptive")
		if err != nil {
			return nil, err
		}
		// Four active instances keep the scale-out transient short: started
		// from one, its first seconds would set the TPOT tail of every run.
		opts.Autoscale = &serving.AutoscaleConfig{InitialActive: 4, Policy: law}
	}

	if pr == nil && s.hero {
		a.sys, _, a.online, err = core.NewSystem(in.plan, plan, opts)
	} else {
		a.sys, a.online, err = s.build(in.plan.Graph, plan, opts, pr)
	}
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	if pr != nil {
		pr.planS = planned.Sub(t0).Seconds()
		pr.buildS = time.Since(planned).Seconds()
	}
	if s.elephants > 0 {
		a.sys.InjectElephants(s.elephants, s.elephantBytes, in.horizon+120, in.elephantSeed)
	}
	if len(in.bursts) > 0 {
		a.sys.InjectBursts(in.bursts, in.burstGPUsSeed)
	}
	return a, nil
}

// build makes the system with serving.New directly: PlannedPolicy workloads
// always, HeroServe ones when probes must wrap the online policy and the
// load-aware router (core.NewSystem would overwrite the policy).
func (s *spec) build(g *topology.Graph, plan *planner.Plan, opts serving.Options, pr *probes) (*serving.System, *core.OnlinePolicy, error) {
	var online *core.OnlinePolicy
	var policy serving.CommPolicy = serving.PlannedPolicy{}
	newRouter := func(*netsim.Network) collective.Router { return collective.NewStaticRouter(g) }
	if s.hero {
		online = core.NewOnlinePolicy(scheduler.DefaultConfig())
		policy = online
		newRouter = func(net *netsim.Network) collective.Router {
			r := collective.NewLoadAwareRouter(g, 3)
			r.Bind(net)
			return r
		}
	}
	if pr != nil {
		pr.policy = &policyProbe{inner: policy}
		policy = pr.policy
		inner := newRouter
		newRouter = func(net *netsim.Network) collective.Router {
			pr.router = &routerProbe{inner: inner(net), net: net}
			return pr.router
		}
		opts.Perf = pr.sampler
	}
	opts.Policy = policy
	opts.RouterFactory = newRouter
	sys, err := serving.New(g, plan.Deployment, opts)
	if err != nil {
		return nil, nil, err
	}
	if pr != nil {
		// serving.New installed the sampler as the engine's profiler; the
		// timer takes its place and hands every event on to it.
		pr.events = &eventTimer{inner: pr.sampler}
		sys.Engine().SetProfiler(pr.events)
	}
	if online != nil {
		online.Injector = sys.FaultInjector()
		online.Ledger = sys.DecisionLedger()
		online.Shares = sys.StageShares()
	}
	return sys, online, nil
}

// eventTimer times every event callback the engine runs and hands each
// event on to the perf sampler. Events never nest, so one start suffices.
type eventTimer struct {
	inner   sim.Profiler
	start   time.Time
	elapsed time.Duration
}

func (e *eventTimer) BeginEvent(at sim.Time) int64 {
	tok := e.inner.BeginEvent(at)
	e.start = time.Now()
	return tok
}

func (e *eventTimer) EndEvent(tok int64) {
	e.elapsed += time.Since(e.start)
	e.inner.EndEvent(tok)
}

// policyProbe times and counts every tensor-parallel synchronization the
// serving layer launches through its communication policy. The time is the
// launch only: the collective itself completes later, in simulated time.
type policyProbe struct {
	inner   serving.CommPolicy
	calls   int64
	elapsed time.Duration
}

func (p *policyProbe) Name() string { return p.inner.Name() }

func (p *policyProbe) AllReduce(ctx *serving.GroupCtx, msgBytes int64, steps int, done func()) {
	t := time.Now()
	p.inner.AllReduce(ctx, msgBytes, steps, done)
	p.elapsed += time.Since(t)
	p.calls++
}

// routerProbe times and counts path lookups, and samples the network's
// active-flow count at each one (a read, so no events are added).
type routerProbe struct {
	inner      collective.Router
	net        *netsim.Network
	calls      int64
	elapsed    time.Duration
	peakActive int
}

func (r *routerProbe) Route(a, b topology.NodeID, size int64) (topology.Path, bool) {
	if n := r.net.ActiveFlows(); n > r.peakActive {
		r.peakActive = n
	}
	t := time.Now()
	p, ok := r.inner.Route(a, b, size)
	r.elapsed += time.Since(t)
	r.calls++
	return p, ok
}

// countingWriter counts the span bytes the tracer streams and the time its
// writes take.
type countingWriter struct {
	w       io.Writer
	bytes   int64
	elapsed time.Duration
}

func (c *countingWriter) Write(b []byte) (int, error) {
	t := time.Now()
	n, err := c.w.Write(b)
	c.elapsed += time.Since(t)
	c.bytes += int64(n)
	return n, err
}
