package main

// sim_campus: the batched E14 mix at 1,000 simulated workstations in
// deterministic virtual time — the workload BENCH_scale.json's 1k point
// measures — built through the root itcfs package and internal/workload's
// scale users.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"itcfs"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/workload"
)

const simClients = 1000

// simOutcome is what the simulated campus did. It depends only on the seed,
// so every rep of one seed must produce the same value.
type simOutcome struct {
	Ops         int64
	Virtual     time.Duration
	Breaks      int64
	BreakRPCs   int64
	RPCCalls    int64
	Hits, Opens int64
	NetBytes    int64
}

type simRep struct {
	setup       float64 // s: cell, users, pool, workstations
	wall        float64 // s: client phase
	clientHours float64
	out         simOutcome
	failed      int64
	allocsRun   uint64  // set-up plus client phase, as BENCH_scale.json counts
	allocsOps   uint64  // client phase only
	heapMB      float64 // live heap after a full collection at the end
	cpu         float64 // s, process CPU in the client phase
	gcCPU       float64
}

// runSimRep builds the campus and runs its client phase once.
func runSimRep(seed int64, prof *cpuProfile) (*simRep, error) {
	out := &simRep{}
	scale := workload.DefaultScale(seed)
	runtime.GC()
	rt0 := readRuntime()
	t0 := time.Now()
	reg := trace.NewRegistry()
	cell := itcfs.NewCell(itcfs.CellConfig{
		Mode:        itcfs.Revised,
		Clusters:    1,
		CallbackTTL: 4 * time.Hour,
		Metrics:     reg,
		Retry:       rpc.RetryPolicy{Attempts: 4, Backoff: 15 * time.Second, MaxBackoff: 2 * time.Minute},
		BreakWindow: 8 * time.Second,
	})
	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		err = admin.NewUser(p, "load", "pw", 0)
	})
	if err != nil {
		return nil, fmt.Errorf("sim set-up: %w", err)
	}
	// The pool is written by a set-up workstation that then stays idle, so
	// every client starts cold.
	setup := cell.AddWorkstation(0, "setup")
	cell.Run(func(p *sim.Proc) {
		if err = setup.Login(p, "load", "pw"); err != nil {
			return
		}
		err = workload.PopulateShared(p, setup.FS, scale, rand.New(rand.NewSource(seed)))
	})
	if err != nil {
		return nil, fmt.Errorf("sim populate: %w", err)
	}
	ws := make([]*itcfs.Workstation, simClients)
	for i := range ws {
		ws[i] = cell.AddWorkstation(0, fmt.Sprintf("scale-ws%04d", i))
	}
	out.setup = time.Since(t0).Seconds()

	if prof != nil {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	rt1 := readRuntime()
	srv := cell.Servers[0]
	_, breaks0 := srv.Vice.Callbacks().Stats()
	breakRPCs0 := srv.Vice.Callbacks().BreakRPCs()
	rpc0, net0 := simCounters(cell, reg)
	v0 := cell.Now()
	users := make([]*workload.ScaleUser, simClients)
	errs := make([]error, simClients)
	for i := range ws {
		i := i
		users[i] = workload.NewScaleUser(i, scale)
		cell.Kernel.SpawnAt(cell.Now(), fmt.Sprintf("scale-%04d", i), func(p *sim.Proc) {
			if lerr := ws[i].Login(p, "load", "pw"); lerr != nil {
				errs[i] = lerr
				return
			}
			errs[i] = users[i].Run(p, ws[i].FS, ws[i].Venus)
		})
	}
	c0 := time.Now()
	cell.Kernel.Run()
	out.wall = time.Since(c0).Seconds()
	rt2 := readRuntime()
	if prof != nil {
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}
	out.allocsRun = rt2.allocs - rt0.allocs
	out.allocsOps = rt2.allocs - rt1.allocs
	out.cpu = (rt2.procCPU - rt1.procCPU).Seconds()
	out.gcCPU = gcShare(rt1, rt2)
	out.heapMB = liveHeapMB()

	o := &out.out
	o.Virtual = cell.Now().Sub(v0)
	for i, u := range users {
		o.Ops += u.Ops()
		if errs[i] != nil {
			out.failed++
		}
		st := ws[i].Venus.Stats()
		o.Hits += st.Hits
		o.Opens += st.Opens
	}
	_, breaks := srv.Vice.Callbacks().Stats()
	o.Breaks = breaks - breaks0
	o.BreakRPCs = srv.Vice.Callbacks().BreakRPCs() - breakRPCs0
	rpc1, net1 := simCounters(cell, reg)
	o.RPCCalls, o.NetBytes = rpc1-rpc0, net1-net0
	out.clientHours = float64(simClients) * o.Virtual.Hours()
	return out, nil
}

// simCounters reads the cell's cumulative RPC calls and network bytes.
func simCounters(cell *itcfs.Cell, reg *trace.Registry) (calls, bytes int64) {
	if h := reg.FindHistogram(trace.MetricRPCCallLatency); h != nil {
		calls = h.Count()
	}
	for _, l := range cell.Net.Links() {
		bytes += l.Bytes()
	}
	return calls, bytes
}
