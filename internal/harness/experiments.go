package harness

import (
	"fmt"
	"time"

	"itcfs"
	"itcfs/internal/sim"
	"itcfs/internal/workload"
)

// E1Config sizes the call-mix experiment.
type E1Config struct {
	Load    LoadConfig
	Warm    time.Duration
	Measure time.Duration
}

// DefaultE1 returns the standard configuration: the paper's operating point
// of 20 workstations on one prototype server.
func DefaultE1() E1Config {
	return E1Config{
		Load:    DefaultLoad(itcfs.Prototype),
		Warm:    30 * time.Minute,
		Measure: 2 * time.Hour,
	}
}

// E1CallMix reproduces the histogram of calls received by servers in actual
// use (§5.2): cache-validity checks 65%, file status 27%, fetch 4%,
// store 2% — more than 98% of all calls.
func E1CallMix(cfg E1Config) (*Report, error) {
	lc, err := BuildLoadedCell(cfg.Load)
	if err != nil {
		return nil, err
	}
	if err := lc.Drive(cfg.Load, cfg.Warm, cfg.Measure); err != nil {
		return nil, err
	}
	mix, total := lc.CallMix()
	r := newReport("E1", "Histogram of calls received by servers",
		"validity checks 65%, status 27%, fetch 4%, store 2% (>98% of calls)",
		"call", "paper", "measured")
	paper := map[string]string{
		"TestValid (cache validity)": "65%",
		"GetFileStat (status)":       "27%",
		"Fetch":                      "4%",
		"Store":                      "2%",
	}
	for _, name := range sortedKeys(mix) {
		p := paper[name]
		if p == "" {
			p = "—"
		}
		r.addRow(name, p, pct(mix[name]))
	}
	r.addRow("total calls", "—", fmt.Sprintf("%d", total))
	r.Metrics["validate"] = mix["TestValid (cache validity)"]
	r.Metrics["status"] = mix["GetFileStat (status)"]
	r.Metrics["fetch"] = mix["Fetch"]
	r.Metrics["store"] = mix["Store"]
	r.Metrics["top4"] = r.Metrics["validate"] + r.Metrics["status"] + r.Metrics["fetch"] + r.Metrics["store"]
	r.Metrics["total"] = float64(total)
	return r, nil
}

// E2Config sizes the utilization experiment.
type E2Config struct {
	Load    LoadConfig
	Warm    time.Duration
	Measure time.Duration
}

// e2PeakWindow is the span the CPU-peak column averages over: the paper's
// "short-term peaks".
const e2PeakWindow = 5 * time.Minute

// DefaultE2 approximates the paper's deployment: 6 cluster servers with 20
// workstations each (120 total), measured over a working day. The measure
// interval is shorter than 8 hours by default; cmd/itcbench -full runs the
// full day.
func DefaultE2() E2Config {
	load := DefaultLoad(itcfs.Prototype)
	load.Clusters = 6
	load.UsersPer = 20
	load.ReplicateSys = true
	return E2Config{
		Load:    load,
		Warm:    20 * time.Minute,
		Measure: time.Hour,
	}
}

// E2Utilization reproduces the server utilization measurements: CPU
// averaging ≈40% on the most heavily loaded servers, disk ≈14%, short-term
// peaks near 98% — the server CPU is the bottleneck.
func E2Utilization(cfg E2Config) (*Report, error) {
	lc, err := BuildLoadedCell(cfg.Load)
	if err != nil {
		return nil, err
	}
	gauges := make([]*sim.Gauge, len(lc.Cell.Servers))
	err = lc.DriveHook(cfg.Load, cfg.Warm, cfg.Measure, func() {
		horizon := lc.Cell.Now().Add(cfg.Measure)
		for i, s := range lc.Cell.Servers {
			gauges[i] = sim.NewGauge(lc.Cell.Kernel, s.CPU, e2PeakWindow, horizon)
		}
	})
	if err != nil {
		return nil, err
	}

	r := newReport("E2", "Server CPU and disk utilization",
		"CPU ≈40% avg on busiest servers (peaks to 98%), disk ≈14%; CPU is the bottleneck",
		"server", "CPU avg", "CPU peak (5 min)", "disk avg")
	var maxCPU, maxDisk, maxPeak float64
	for i, s := range lc.Cell.Servers {
		cpu, disk := lc.windowUtil(s)
		peak := gauges[i].Peak()
		r.addRow(s.Vice.Name(), pct(cpu), pct(peak), pct(disk))
		if cpu > maxCPU {
			maxCPU = cpu
		}
		if disk > maxDisk {
			maxDisk = disk
		}
		if peak > maxPeak {
			maxPeak = peak
		}
	}
	r.Metrics["cpu_busiest"] = maxCPU
	r.Metrics["disk_busiest"] = maxDisk
	r.Metrics["cpu_peak"] = maxPeak
	r.Metrics["cpu_over_disk"] = maxCPU / maxDisk
	return r, nil
}

// E3Config sizes the hit-ratio experiment.
type E3Config struct {
	Load    LoadConfig
	Warm    time.Duration
	Measure time.Duration
}

// DefaultE3 returns the standard configuration.
func DefaultE3() E3Config {
	return E3Config{
		Load:    DefaultLoad(itcfs.Prototype),
		Warm:    30 * time.Minute,
		Measure: time.Hour,
	}
}

// E3HitRatio reproduces "an average cache hit ratio of over 80% during
// actual use".
func E3HitRatio(cfg E3Config) (*Report, error) {
	lc, err := BuildLoadedCell(cfg.Load)
	if err != nil {
		return nil, err
	}
	if err := lc.Drive(cfg.Load, cfg.Warm, cfg.Measure); err != nil {
		return nil, err
	}
	total := lc.aggregateStats()
	r := newReport("E3", "Workstation cache hit ratio",
		"average cache hit ratio over 80% during actual use",
		"metric", "paper", "measured")
	ratio := total.HitRatio()
	r.addRow("hit ratio", ">80%", pct(ratio))
	r.addRow("opens", "—", fmt.Sprintf("%d", total.Opens))
	r.addRow("whole-file fetches", "—", fmt.Sprintf("%d", total.Fetches))
	r.addRow("bytes fetched", "—", fmt.Sprintf("%d", total.BytesFetched))
	r.Metrics["hit_ratio"] = ratio
	r.Metrics["opens"] = float64(total.Opens)
	return r, nil
}

// E4Config selects the implementation the five-phase benchmark runs on;
// the benchmark itself is the calibrated workload.DefaultAndrew.
type E4Config struct {
	Mode itcfs.Mode
}

// DefaultE4 returns the prototype configuration.
func DefaultE4() E4Config {
	return E4Config{Mode: itcfs.Prototype}
}

// E4AndrewBenchmark reproduces the controlled experiment of §5.2: the
// five-phase benchmark over ~70 files takes about 1000 seconds with all
// files local, and about 80% longer when every file comes from an unloaded
// Vice server.
func E4AndrewBenchmark(cfg E4Config) (*Report, error) {
	andrew := workload.DefaultAndrew()
	// Local run: source and target both on the workstation's own disk.
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: cfg.Mode, Clusters: 1})
	if err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		return admin.NewUser(p, "bench", "pw", 0)
	}); err != nil {
		return nil, err
	}

	runOne := func(ws *itcfs.Workstation, src, dst string, generate bool) (workload.PhaseTimes, error) {
		var pt workload.PhaseTimes
		var err error
		cell.Run(func(p *sim.Proc) {
			if lerr := ws.Login(p, "bench", "pw"); lerr != nil {
				err = lerr
				return
			}
			if generate {
				if _, gerr := workload.GenerateTree(p, ws.FS, src, andrew); gerr != nil {
					err = gerr
					return
				}
			}
			pt, err = workload.RunAndrew(p, ws.FS, src, dst, andrew)
		})
		return pt, err
	}

	localWS := cell.AddWorkstation(0, "bench-local")
	local, err := runOne(localWS, "/src", "/dst", true)
	if err != nil {
		return nil, fmt.Errorf("local run: %w", err)
	}
	// The remote source tree is installed by a separate workstation, so the
	// benchmark workstation's cache is genuinely cold.
	setupWS := cell.AddWorkstation(0, "bench-setup")
	var genErr error
	cell.Run(func(p *sim.Proc) {
		if genErr = setupWS.Login(p, "bench", "pw"); genErr != nil {
			return
		}
		_, genErr = workload.GenerateTree(p, setupWS.FS, "/vice/usr/bench/src", andrew)
	})
	if genErr != nil {
		return nil, fmt.Errorf("remote tree: %w", genErr)
	}
	// Remote run: a fresh workstation; every file comes from the unloaded
	// server.
	remoteWS := cell.AddWorkstation(0, "bench-remote")
	remote, err := runOne(remoteWS, "/vice/usr/bench/src", "/vice/usr/bench/dst", false)
	if err != nil {
		return nil, fmt.Errorf("remote run: %w", err)
	}
	// Warm run: the same workstation repeats the benchmark (fresh target)
	// with the source tree already cached. In revised mode callbacks make
	// the cached reads free; the prototype still validates each one.
	var warm workload.PhaseTimes
	var warmErr error
	cell.Run(func(p *sim.Proc) {
		warm, warmErr = workload.RunAndrew(p, remoteWS.FS,
			"/vice/usr/bench/src", "/vice/usr/bench/dst2", andrew)
	})
	if warmErr != nil {
		return nil, fmt.Errorf("warm run: %w", warmErr)
	}

	r := newReport("E4", "Five-phase benchmark, local vs all-remote",
		"≈1000 s local on a Sun; ≈80% longer with all files from an unloaded server",
		"phase", "local", "remote (cold)", "remote/local", "remote (warm cache)")
	lp, rp, wp := local.Phases(), remote.Phases(), warm.Phases()
	for i := range lp {
		ratio := float64(rp[i].D) / float64(lp[i].D)
		r.addRow(lp[i].Name, secs(lp[i].D), secs(rp[i].D), fmt.Sprintf("%.2fx", ratio), secs(wp[i].D))
	}
	overall := float64(remote.Total()) / float64(local.Total())
	r.addRow("Total", secs(local.Total()), secs(remote.Total()),
		fmt.Sprintf("%.2fx", overall), secs(warm.Total()))
	r.Metrics["local_s"] = local.Total().Seconds()
	r.Metrics["remote_s"] = remote.Total().Seconds()
	r.Metrics["warm_s"] = warm.Total().Seconds()
	r.Metrics["overhead"] = overall - 1
	r.Metrics["warm_overhead"] = float64(warm.Total())/float64(local.Total()) - 1
	return r, nil
}

// E5Config sizes the scalability sweep. The benchmark is the calibrated
// workload.DefaultAndrew on the prototype.
type E5Config struct {
	Drive  workload.Config
	LoadWS []int // concurrent load workstations per sweep point
}

// DefaultE5 sweeps the client/server ratio through the paper's operating
// point of 20.
func DefaultE5() E5Config {
	drive := workload.DefaultConfig(0)
	drive.Think = 4 * time.Second // "intense file system activity"
	return E5Config{
		Drive:  drive,
		LoadWS: []int{0, 5, 10, 20, 40},
	}
}

// E5Scalability measures the five-phase benchmark against a server serving
// N active workstations: the paper operated at ≈20 workstations per server
// with performance comparable to timesharing, and observed that a few users
// with intense activity could drastically lower everyone's performance.
func E5Scalability(cfg E5Config) (*Report, error) {
	r := newReport("E5", "Benchmark time vs concurrent workstations per server",
		"≈20 WS/server ≈ timesharing; intense activity by a few degrades all",
		"load WS", "benchmark", "vs unloaded", "server CPU")
	var base time.Duration
	for _, n := range cfg.LoadWS {
		elapsed, cpu, err := e5Point(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("load %d: %w", n, err)
		}
		if n == cfg.LoadWS[0] {
			base = elapsed
		}
		ratio := float64(elapsed) / float64(base)
		r.addRow(fmt.Sprintf("%d", n), secs(elapsed), fmt.Sprintf("%.2fx", ratio), pct(cpu))
		r.Metrics[fmt.Sprintf("t_%d", n)] = elapsed.Seconds()
		r.Metrics[fmt.Sprintf("ratio_%d", n)] = ratio
	}
	return r, nil
}

// e5Point runs the benchmark with n load workstations on one server.
func e5Point(cfg E5Config, n int) (time.Duration, float64, error) {
	andrew := workload.DefaultAndrew()
	lc, err := BuildLoadedCell(LoadConfig{
		Mode:     itcfs.Prototype,
		Clusters: 1,
		UsersPer: n,
		Seed:     7,
		Drive:    cfg.Drive,
	})
	if err != nil {
		return 0, 0, err
	}
	cell := lc.Cell
	if err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		return admin.NewUser(p, "bench", "pw", 0)
	}); err != nil {
		return 0, 0, err
	}
	ws := cell.AddWorkstation(0, "bench-ws")

	// Generate the remote source tree before measuring.
	var genErr error
	cell.Run(func(p *sim.Proc) {
		if err := ws.Login(p, "bench", "pw"); err != nil {
			genErr = err
			return
		}
		_, genErr = workload.GenerateTree(p, ws.FS, "/vice/usr/bench/src", andrew)
	})
	if genErr != nil {
		return 0, 0, genErr
	}

	// Load users run continuously; the benchmark runs once among them.
	lc.resetResourceWindow(cell.Servers[0])
	var bench workload.PhaseTimes
	var benchErr error
	done := false
	for i, name := range lc.Users {
		i, name := i, name
		drv := cfg.Drive
		drv.Seed = 500 + int64(i)
		u := workload.NewUser(name, "/usr/"+name, drv)
		lc.Cell.Kernel.Spawn("load-"+name, func(p *sim.Proc) {
			for !done {
				if err := u.Step(p, lc.WS[i].FS); err != nil {
					return
				}
			}
		})
	}
	cell.Kernel.Spawn("bench", func(p *sim.Proc) {
		bench, benchErr = workload.RunAndrew(p, ws.FS, "/vice/usr/bench/src", "/vice/usr/bench/dst", andrew)
		done = true
	})
	cell.Kernel.Run()
	if benchErr != nil {
		return 0, 0, benchErr
	}
	cpu, _ := lc.windowUtil(cell.Servers[0])
	return bench.Total(), cpu, nil
}
