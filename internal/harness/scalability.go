package harness

import (
	"fmt"
	"math/rand"
	"time"

	"itcfs"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/workload"
)

// E14 — scalability sweep. The paper's revised design exists to push "a
// server load of 20 typical users per cluster server" (§5.2) further; the
// two remaining storms at scale are callback fan-out (one RPC per broken
// promise per mutation) and revalidation (one TestValid per cached entry
// per sweep). E14 drives 100/300/1000 Venus instances through a seeded
// open/write/revalidate mix in virtual time, once with the batched
// BulkBreak/BulkTestValid plane and once with the legacy per-promise,
// per-entry protocol, and reports server utilization, p90 open latency,
// callback RPCs per broken promise, and revalidation round trips.

// E14Config sizes the scalability sweep.
type E14Config struct {
	Clients []int // client counts to sweep (e.g. 100, 300, 1000)
	Seed    int64
	Scale   workload.ScaleConfig // per-client mix (Seed and Root are derived per cluster)
}

// e14CallbackTTL bounds promise trust so the periodic sweeps have entries
// to revalidate. It is above the sweep cadence (SweepEvery ops of mean
// Think), so the forced sweeps refresh promises before they lapse and opens
// almost never pay a one-off validation.
const e14CallbackTTL = 4 * time.Hour

// DefaultE14 returns the standard configuration.
func DefaultE14() E14Config {
	return E14Config{
		Clients: []int{100, 300, 1000},
		Seed:    14,
		Scale:   workload.DefaultScale(14),
	}
}

// quickE14 is DefaultE14 with a lighter per-client mix of the same shape:
// enough ops to touch every hot path (browse, hot-set reads, bursts,
// sweeps), few enough that a 10k-client smoke fits in CI.
func quickE14() E14Config {
	cfg := DefaultE14()
	cfg.Scale.Ops = 10
	cfg.Scale.Browse = 4
	cfg.Scale.Stagger = 2 * time.Hour
	return cfg
}

// e14Side is one (client count, protocol) measurement.
type e14Side struct {
	util       float64       // server CPU utilization over the run
	p90        time.Duration // p90 venus.open latency
	breaks     int64         // promises broken
	breakRPCs  int64         // callback RPCs delivering them
	revalRPCs  int64         // revalidation round trips (TestValid + BulkTestValid)
	revalItems int64         // cached entries revalidated by sweeps
}

// unbatched switches a campus to the legacy protocol: one callback RPC per
// broken promise, one TestValid per revalidated entry.
func unbatched(cc *itcfs.CellConfig) {
	cc.UnbatchedBreaks = true
	cc.RevalidateBatch = 1
	cc.BreakWindow = 0
}

// E14Scalability runs the sweep and reports unbatched vs. batched columns
// per client count.
func E14Scalability(cfg E14Config) (*Report, error) {
	r := newReport("E14", "scalability: batched callback breaks + bulk revalidation",
		"callbacks add an invalidation message on each update and state on the server (§3.2); "+
			"batching both planes is what lets a cluster server face hundreds of Venera",
		"clients · metric", "unbatched", "batched")
	for _, n := range cfg.Clients {
		var sides [2]e14Side
		for i, mut := range []func(*itcfs.CellConfig){unbatched, nil} {
			c, err := runCampus(cfg, n, 1, mut)
			if err != nil {
				return nil, err
			}
			sides[i] = c.e14Side()
		}
		un, ba := sides[0], sides[1]
		row := func(metric, a, b string) {
			r.addRow(fmt.Sprintf("%d · %s", n, metric), a, b)
		}
		row("server CPU util", pct(un.util), pct(ba.util))
		row("p90 open latency", un.p90.Round(time.Millisecond).String(), ba.p90.Round(time.Millisecond).String())
		row("promises broken", fmt.Sprintf("%d", un.breaks), fmt.Sprintf("%d", ba.breaks))
		row("callback RPCs", fmt.Sprintf("%d", un.breakRPCs), fmt.Sprintf("%d", ba.breakRPCs))
		row("RPCs per break", ratio(un.breakRPCs, un.breaks), ratio(ba.breakRPCs, ba.breaks))
		row("revalidation RPCs", fmt.Sprintf("%d", un.revalRPCs), fmt.Sprintf("%d", ba.revalRPCs))
		row("entries revalidated", fmt.Sprintf("%d", un.revalItems), fmt.Sprintf("%d", ba.revalItems))
		r.Metrics[fmt.Sprintf("util_unbatched_%d", n)] = un.util
		r.Metrics[fmt.Sprintf("util_batched_%d", n)] = ba.util
		r.Metrics[fmt.Sprintf("p90_unbatched_ms_%d", n)] = float64(un.p90) / float64(time.Millisecond)
		r.Metrics[fmt.Sprintf("p90_batched_ms_%d", n)] = float64(ba.p90) / float64(time.Millisecond)
		r.Metrics[fmt.Sprintf("break_rpcs_unbatched_%d", n)] = float64(un.breakRPCs)
		r.Metrics[fmt.Sprintf("break_rpcs_batched_%d", n)] = float64(ba.breakRPCs)
		if ba.breakRPCs > 0 {
			r.Metrics[fmt.Sprintf("break_rpc_reduction_%d", n)] = float64(un.breakRPCs) / float64(ba.breakRPCs)
		}
		r.Metrics[fmt.Sprintf("reval_rpcs_unbatched_%d", n)] = float64(un.revalRPCs)
		r.Metrics[fmt.Sprintf("reval_rpcs_batched_%d", n)] = float64(ba.revalRPCs)
	}
	return r, nil
}

func ratio(a, b int64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// campus is one run of the E14 mix: the cell, its client workstations, the
// virtual time the client phase took, and server0's counters when it began.
type campus struct {
	cell                *itcfs.Cell
	ws                  []*itcfs.Workstation
	elapsed             time.Duration
	cpu0                time.Duration
	breaks0, breakRPCs0 int64
}

// runCampus drives the E14 mix at n clients over the given number of
// clusters, clients round-robin over them. Each cluster has its own load
// user, shared pool, publisher (the cluster's client 0) and seed, like
// independent buildings on one campus; a setup workstation per cluster
// writes the pool and then stays idle, so every client starts cold and
// every client's copy is broken when a writer strikes. One cluster is the
// E14 campus: load user "load", every client logging in at once. A sharded
// campus names its load users load0…k-1 and ramps arrivals (see
// scaleArrivalSpacing). mut, when non-nil, adjusts the cell configuration
// before the cell is built — how E14 switches protocols and E17 ablates
// tracing over the identical workload.
func runCampus(cfg E14Config, n, clusters int, mut func(*itcfs.CellConfig)) (*campus, error) {
	cc := itcfs.CellConfig{
		Mode:        itcfs.Revised,
		Clusters:    clusters,
		CallbackTTL: e14CallbackTTL,
		Metrics:     trace.NewRegistry(),
		// Patient retries: load spikes (a burst's refetch wave) can push
		// queueing past one call timeout.
		Retry: rpc.RetryPolicy{Attempts: 4, Backoff: 15 * time.Second, MaxBackoff: 2 * time.Minute},
		// Let a busy server linger a few seconds before each BulkBreak
		// drain: install bursts serialize on server CPU, so their breaks
		// for one workstation arrive seconds apart and need a window that
		// wide to share RPCs. Updates still reply only after delivery.
		BreakWindow: 8 * time.Second,
	}
	if mut != nil {
		mut(&cc)
	}
	cell := itcfs.NewCell(cc)

	sharded := clusters > 1
	stagger := cfg.Scale.Stagger
	loadUser := func(int) string { return "load" }
	if sharded {
		// Widen the arrival ramp (login spawn ramp plus each client's own
		// start stagger) so arrivals never exceed the shared-root
		// custodian's sustainable rate — workstation populations this size
		// don't power on at one instant anyway.
		stagger = max(stagger, time.Duration(n)*scaleArrivalSpacing)
		loadUser = func(c int) string { return fmt.Sprintf("load%d", c) }
	}
	perCluster := func(c int) workload.ScaleConfig {
		sc := cfg.Scale
		sc.Seed = cfg.Seed + int64(c)*1_000_003
		sc.Root = "/vice/usr/" + loadUser(c) + "/shared"
		sc.Stagger = stagger
		return sc
	}

	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		for c := 0; c < clusters; c++ {
			if _, err := admin.NewUserAt(p, loadUser(c), "pw", 0, cell.Servers[c].Vice.Name()); err != nil {
				return err
			}
		}
		return nil
	})
	for c := 0; c < clusters && err == nil; c++ {
		setup, sc := cell.AddWorkstation(c, fmt.Sprintf("setup%d", c)), perCluster(c)
		cell.Run(func(p *sim.Proc) {
			if err = setup.Login(p, loadUser(c), "pw"); err == nil {
				err = workload.PopulateShared(p, setup.FS, sc, rand.New(rand.NewSource(sc.Seed)))
			}
		})
	}
	if err != nil {
		return nil, err
	}

	run := &campus{cell: cell, ws: make([]*itcfs.Workstation, n)}
	for i := range run.ws {
		run.ws[i] = cell.AddWorkstation(i%clusters, fmt.Sprintf("scale-ws%05d", i))
	}
	srv := cell.Servers[0]
	run.cpu0 = srv.CPU.BusyTime()
	run.breaks0 = breaksOf(srv)
	run.breakRPCs0 = srv.Vice.Callbacks().BreakRPCs()
	t0 := cell.Now()
	errs := make([]error, n)
	for i, ws := range run.ws {
		i, ws, c := i, ws, i%clusters
		u := workload.NewScaleUser(i/clusters, perCluster(c))
		start := t0
		if sharded {
			start = start.Add(stagger * time.Duration(i) / time.Duration(n))
		}
		cell.Kernel.SpawnAt(start, fmt.Sprintf("scale-%05d", i), func(p *sim.Proc) {
			if errs[i] = ws.Login(p, loadUser(c), "pw"); errs[i] == nil {
				errs[i] = u.Run(p, ws.FS, ws.Venus)
			}
		})
	}
	cell.Kernel.Run()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	run.elapsed = cell.Now().Sub(t0)
	return run, nil
}

// e14Side reads E14's measurements off a single-cluster campus run.
func (c *campus) e14Side() e14Side {
	srv := c.cell.Servers[0]
	var side e14Side
	if c.elapsed > 0 {
		side.util = float64(srv.CPU.BusyTime()-c.cpu0) / float64(c.elapsed)
	}
	if h := c.cell.Metrics.FindHistogram(trace.MetricVenusOpenLatency); h != nil {
		side.p90 = h.Quantile(0.90)
	}
	side.breaks = breaksOf(srv) - c.breaks0
	side.breakRPCs = srv.Vice.Callbacks().BreakRPCs() - c.breakRPCs0
	for _, w := range c.ws {
		st := w.Venus.Stats()
		side.revalRPCs += st.Validations + st.BulkValidations
		side.revalItems += st.Revalidated
	}
	return side
}

func breaksOf(srv *itcfs.Server) int64 {
	_, breaks := srv.Vice.Callbacks().Stats()
	return breaks
}
