package harness

import (
	"fmt"
	"math/rand"
	"time"

	"itcfs"
	"itcfs/internal/replica"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/workload"
)

// E16Config sizes the replication-availability experiment.
type E16Config struct {
	Seed     int64
	SysFiles int           // released system binaries
	Window   time.Duration // reader loop duration
}

// The E16 cell and its load. e16Clusters is the number of cluster servers;
// server0 is the custodian of the system-binary volume and the server that
// dies mid-run. e16ReadersPerCluster stations per cluster read the released
// binaries in a round-robin loop. Cluster-0 readers prefer the (doomed)
// custodian and must fail over; other clusters' readers prefer their own
// local replica and should never notice the crash.
const (
	e16Clusters          = 3
	e16ReadersPerCluster = 2
	e16Think             = 2 * time.Second // reader pause between binary reads
	// e16CacheBytes keeps the Venus caches small enough that the binaries
	// cycle out: post-crash reads are real fetches, not cache hits, or the
	// unreplicated leg would ride out the crash on cached copies.
	e16CacheBytes = 96 << 10
	// e16AndrewStart delays the Andrew run so its Copy phase — the window
	// where it reads every released source file — brackets the kill.
	e16AndrewStart = 30 * time.Second
	e16KillAfter   = 45 * time.Second // custodian crash, from load start
	// Fault-tolerance knobs passed to the cell (failure is detected by
	// timeout, so the timeout must be short relative to Window).
	e16CallTimeout      = 10 * time.Second
	e16ReconnectRetries = 1
	e16FlightEvents     = 512
)

// e16Andrew is the Andrew run over the released tree: a small source tree
// and a fast compiler, since E16 measures availability, not benchmark time.
func e16Andrew() workload.AndrewConfig {
	andrew := workload.DefaultAndrew()
	andrew.Files = 24
	andrew.Dirs = 3
	andrew.MeanFileBytes = 4 << 10
	andrew.CompilePerKB = 200 * time.Millisecond
	andrew.CompilePerFile = 250 * time.Millisecond
	return andrew
}

// DefaultE16 returns the standard configuration: three cluster servers, the
// binaries released to the two non-custodians, and the custodian killed
// while readers in every cluster and an Andrew run are consuming the
// released tree.
func DefaultE16() E16Config {
	return E16Config{
		Seed:     1,
		SysFiles: 24,
		Window:   6 * time.Minute,
	}
}

// E16Result is the experiment outcome plus the two cells, kept alive so
// tests can inspect metrics and flight recorders.
type E16Result struct {
	Report       *Report
	Replicated   *itcfs.Cell
	Unreplicated *itcfs.Cell
	// DedupRatio is the replicated leg's content-addressed block index
	// ratio (logical bytes interned / physical bytes stored).
	DedupRatio float64
}

// e16Leg is one cell's worth of measurements.
type e16Leg struct {
	cell            *itcfs.Cell
	blocks          *replica.Index
	attempted       int64
	failed          int64
	localAttempted  int64 // readers homed on surviving replicas
	localFailed     int64
	failovers       int64
	releaseInstalls int64
	andrewErr       error
	andrewTotal     time.Duration
}

// E16Replication measures what read-only replication buys when the
// custodian dies (§3.2: "frequently read but rarely modified" subtrees are
// replicated read-only at many sites; §5.3 names availability as the
// motivation). Two identical cells run the same seeded load — readers in
// every cluster looping over the released system binaries, plus an Andrew
// run whose source tree lives in the released volume — and in both, the
// custodian of the binaries is killed mid-run. The only difference: one
// cell released the volume to replicas on every other cluster server first.
// The replicated leg must show zero failed reads (cluster-0 readers fail
// over to replicas; the others were already reading their local replica),
// while the unreplicated leg shows the outage. The replicated release also
// exercises the content-addressed block index: N+1 copies of every released
// byte intern to one, and the report prints the measured dedup ratio.
func E16Replication(cfg E16Config) (*E16Result, error) {
	rep, err := e16RunLeg(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("E16 replicated leg: %w", err)
	}
	unrep, err := e16RunLeg(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("E16 unreplicated leg: %w", err)
	}

	// The experiment's claims, checked here so a regression fails loudly
	// rather than printing a subtly wrong table.
	if rep.failed != 0 {
		return nil, fmt.Errorf("E16: replicated leg had %d failed reads (want 0)", rep.failed)
	}
	if rep.andrewErr != nil {
		return nil, fmt.Errorf("E16: replicated leg Andrew run failed: %w", rep.andrewErr)
	}
	if unrep.failed == 0 {
		return nil, fmt.Errorf("E16: unreplicated leg had no failed reads; the crash did not bite")
	}
	ratio := rep.blocks.Ratio()
	if ratio < 1.5 {
		return nil, fmt.Errorf("E16: dedup ratio %.2f below 1.5 on the replicated leg", ratio)
	}

	logical, physical, blocks := rep.blocks.Stats()
	andrewCell := func(l *e16Leg) string {
		if l.andrewErr != nil {
			return fmt.Sprintf("failed: %v", l.andrewErr)
		}
		return fmt.Sprintf("completed (%s)", secs(l.andrewTotal))
	}
	r := newReport("E16", "Read-only replication: release, failover, dedup",
		"replicating read-only subtrees \"at many sites\" keeps them available (§3.2, §5.3)",
		"metric", "replicated", "unreplicated")
	r.addRow("reads attempted", fmt.Sprintf("%d", rep.attempted), fmt.Sprintf("%d", unrep.attempted))
	r.addRow("reads failed", fmt.Sprintf("%d", rep.failed), fmt.Sprintf("%d", unrep.failed))
	r.addRow("… by replica-local readers", fmt.Sprintf("%d of %d", rep.localFailed, rep.localAttempted),
		fmt.Sprintf("%d of %d", unrep.localFailed, unrep.localAttempted))
	r.addRow("Venus failovers", fmt.Sprintf("%d", rep.failovers), fmt.Sprintf("%d", unrep.failovers))
	r.addRow("release installs pushed", fmt.Sprintf("%d", rep.releaseInstalls), fmt.Sprintf("%d", unrep.releaseInstalls))
	r.addRow("Andrew run over released tree", andrewCell(rep), andrewCell(unrep))
	r.addRow("dedup ratio (system binaries)",
		fmt.Sprintf("%.2fx (%d KB over %d KB, %d blocks)", ratio, logical>>10, physical>>10, blocks),
		fmt.Sprintf("%.2fx", unrep.blocks.Ratio()))
	r.addRow("flight events recorded", fmt.Sprintf("%d", rep.cell.Flight.Total()),
		fmt.Sprintf("%d", unrep.cell.Flight.Total()))

	r.Metrics["attempted_replicated"] = float64(rep.attempted)
	r.Metrics["failed_replicated"] = float64(rep.failed)
	r.Metrics["attempted_unreplicated"] = float64(unrep.attempted)
	r.Metrics["failed_unreplicated"] = float64(unrep.failed)
	r.Metrics["failovers_replicated"] = float64(rep.failovers)
	r.Metrics["release_installs"] = float64(rep.releaseInstalls)
	r.Metrics["dedup_ratio"] = ratio
	r.Metrics["andrew_ok_replicated"] = boolMetric(rep.andrewErr == nil)
	r.Metrics["andrew_ok_unreplicated"] = boolMetric(unrep.andrewErr == nil)

	return &E16Result{
		Report:       r,
		Replicated:   rep.cell,
		Unreplicated: unrep.cell,
		DedupRatio:   ratio,
	}, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// e16RunLeg provisions one cell, releases the binaries (with or without
// replicas), applies the reader + Andrew load, kills the custodian on
// schedule, and collects the counters.
func e16RunLeg(cfg E16Config, replicate bool) (*e16Leg, error) {
	metrics := trace.NewRegistry()
	leg := &e16Leg{blocks: replica.NewIndex(metrics)}
	cell := itcfs.NewCell(itcfs.CellConfig{
		Mode:             itcfs.Revised,
		Clusters:         e16Clusters,
		CacheBytes:       e16CacheBytes,
		CallTimeout:      e16CallTimeout,
		ReconnectRetries: e16ReconnectRetries,
		Metrics:          metrics,
		FlightEvents:     e16FlightEvents,
		Blocks:           leg.blocks,
	})
	leg.cell = cell

	// Provision: the binaries and the Andrew source tree in one volume on
	// server0; the Andrew user's home on server1, where it survives.
	andrew := e16Andrew()
	drive := workload.DefaultConfig(cfg.Seed)
	drive.SysFiles = cfg.SysFiles
	srcRW := "/vice" + drive.SysRoot + "/src"
	var sysVol uint32
	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		if err := admin.MkdirAll(p, "/unix"); err != nil {
			return err
		}
		var err error
		if sysVol, err = admin.CreateVolume(p, "sys.bin", drive.SysRoot, "operator", 0); err != nil {
			return err
		}
		_, err = admin.NewUserAt(p, "andrew", "pw", 0, cell.Servers[1].Vice.Name())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	opWS := cell.AddWorkstation(0, "op-console")
	cell.Run(func(p *sim.Proc) {
		if err = opWS.Login(p, "operator", "operator-password"); err != nil {
			return
		}
		r := rand.New(rand.NewSource(cfg.Seed))
		if err = workload.PopulateSystem(p, opWS.FS, drive, r); err != nil {
			return
		}
		_, err = workload.GenerateTree(p, opWS.FS, srcRW, andrew)
	})
	if err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}

	// Release. The read-only clone mounts beside the read-write volume; in
	// the replicated leg it is also pushed to every other cluster server.
	roRoot := drive.SysRoot + "-ro"
	var replicas []string
	if replicate {
		for _, s := range cell.Servers[1:] {
			replicas = append(replicas, s.Vice.Name())
		}
	}
	err = asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		_, err := admin.CloneVolume(p, sysVol, roRoot, replicas...)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("release: %w", err)
	}
	leg.releaseInstalls = metrics.Counter(trace.MetricReplicaReleaseInstalls).Value()

	// Stations: readers in every cluster (logged in as the operator — the
	// released tree is world-readable) plus the Andrew runner next to its
	// home server in cluster 1.
	type station struct {
		ws    *itcfs.Workstation
		local bool // homed on a server that carries a replica
	}
	var readers []station
	for c := 0; c < e16Clusters; c++ {
		for i := 0; i < e16ReadersPerCluster; i++ {
			ws, err := loggedIn(cell, c, fmt.Sprintf("read%d-%d", c, i), "operator", "operator-password")
			if err != nil {
				return nil, err
			}
			readers = append(readers, station{ws: ws, local: replicate && c > 0})
		}
	}
	andrewWS, err := loggedIn(cell, 1, "andrew-ws", "andrew", "pw")
	if err != nil {
		return nil, err
	}
	// Warm the name-space spine: resolve the build area once while every
	// server is up, caching the upper-level directories under callback. The
	// root volume's upper levels are exactly what §3.2 prescribes
	// replicating "at many sites"; this cell leaves them on server0, so a
	// workstation that never resolved /usr before the crash would lose it
	// with the custodian — a real exposure, but not the one E16 measures.
	cell.Run(func(p *sim.Proc) { _, err = andrewWS.FS.ReadDir(p, "/vice/usr/andrew") })
	if err != nil {
		return nil, err
	}

	// Load. Staggers are drawn deterministically from the seed in a fixed
	// order so the stations never march in lockstep.
	rng := rand.New(rand.NewSource(cfg.Seed + 16))
	start := cell.Now()
	until := start.Add(cfg.Window)
	for _, st := range readers {
		st := st
		stagger := time.Duration(rng.Int63n(int64(e16Think)))
		cell.Kernel.Spawn("read-"+st.ws.Name, func(p *sim.Proc) {
			p.Sleep(stagger)
			for f := 0; p.Now() < until; f++ {
				path := fmt.Sprintf("/vice%s/bin%03d", roRoot, f%cfg.SysFiles)
				leg.attempted++
				if st.local {
					leg.localAttempted++
				}
				if _, rerr := st.ws.FS.ReadFile(p, path); rerr != nil {
					leg.failed++
					if st.local {
						leg.localFailed++
					}
				}
				p.Sleep(e16Think)
			}
		})
	}
	cell.Kernel.Spawn("andrew", func(p *sim.Proc) {
		p.Sleep(e16AndrewStart)
		pt, aerr := workload.RunAndrew(p, andrewWS.FS, "/vice"+roRoot+"/src", "/vice/usr/andrew/build", andrew)
		leg.andrewErr = aerr
		leg.andrewTotal = pt.Total()
	})
	cell.Kernel.Spawn("kill-custodian", func(p *sim.Proc) {
		p.Sleep(e16KillAfter)
		cell.CrashServer(0)
	})
	cell.Kernel.Run()

	for _, st := range readers {
		leg.failovers += st.ws.Venus.Stats().Failovers
	}
	leg.failovers += andrewWS.Venus.Stats().Failovers
	return leg, nil
}
