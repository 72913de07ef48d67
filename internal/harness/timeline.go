package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"itcfs"
	"itcfs/internal/monitor"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// E15Config sizes the saturation-timeline experiment: the hot-volume cell's
// shape, plus the grace between the hot phase and the volume move.
type E15Config struct {
	hotShape
	// MoveGrace separates phases B and C: the first half drains in-flight
	// phase-B operations, then the operator moves the hot volume.
	MoveGrace time.Duration
}

// hotShape times the two-cluster hot-volume cell that E15 and E17's breach
// leg both drive; its fields are promoted into E15Config.
type hotShape struct {
	Seed int64
	// Cadence is the telemetry sampling window; Phase is how long each load
	// phase runs. The overload detector (monitor.DefaultOverloadConfig)
	// needs MinWindows full windows of overload inside phase B, so Phase
	// should be several times Cadence.
	Cadence time.Duration
	Phase   time.Duration
}

// The hot-volume cell's population. hotReaders and warmReaders are
// cluster-1 stations hammering the two public volumes hosted (initially) on
// server0; lightPerCluster stations per cluster read their own local home
// volumes throughout.
const (
	hotReaders      = 6
	warmReaders     = 4
	lightPerCluster = 2
	hotFiles        = 6 // files per volume, read round-robin
	hotFileBytes    = 8 << 10
	// Per-group think times between reads; the hot group's shorter think is
	// what pushes server0 over its CPU ceiling in phase B.
	hotThink   = 1700 * time.Millisecond
	warmThink  = 1250 * time.Millisecond
	lightThink = 1200 * time.Millisecond
	// hotFlightEvents bounds the cell's flight-recorder ring.
	hotFlightEvents = 512
)

// DefaultE15 returns the standard configuration: phase B offers roughly 110%
// of one server's CPU (hot + warm + background), and after the hot volume
// moves, each server carries well under the detection threshold.
func DefaultE15() E15Config {
	return E15Config{
		hotShape: hotShape{
			Seed:    1,
			Cadence: 30 * time.Second,
			Phase:   10 * time.Minute,
		},
		MoveGrace: time.Minute,
	}
}

// E15Result is the experiment outcome plus its rendered telemetry surfaces,
// which itcbench -out writes and the determinism test byte-compares.
type E15Result struct {
	Report  *Report
	Cell    *itcfs.Cell
	Finding monitor.HotVolume
	// Timeline is the sampler's text dashboard; Flight the recorder dump.
	Timeline string
	Flight   string
}

// hotCell is the two-cluster cell E15 and E17's breach leg load: two public
// volumes (owners pub-hot, pub-warm) stay on server0 where CreateVolume put
// them; each background user's home is moved to their own cluster server,
// the standard placement. The shared-volume readers all sit in cluster 1 —
// their load crosses the backbone to server0 — and every volume is
// populated from one logged-in station each.
type hotCell struct {
	cell   *itcfs.Cell
	hotVol uint32
	hot    []*itcfs.Workstation
	warm   []*itcfs.Workstation
	bg     [2][]*itcfs.Workstation
	bgUser [2][]string
	// stagger is each station's start offset, drawn deterministically from
	// the seed in a fixed order, so the stations never march in lockstep.
	stagger map[*itcfs.Workstation]time.Duration
	loadErr error
}

// newHotCell provisions and populates the cell, drawing start staggers from
// seed; a non-nil tracePolicy turns tracing on under that sampling policy.
func newHotCell(seed int64, tracePolicy *trace.SamplePolicy) (*hotCell, error) {
	h := &hotCell{cell: itcfs.NewCell(itcfs.CellConfig{
		Mode:         itcfs.Prototype,
		Clusters:     2,
		Metrics:      trace.NewRegistry(),
		FlightEvents: hotFlightEvents,
		Trace:        tracePolicy != nil,
		TracePolicy:  tracePolicy,
	})}
	cell := h.cell
	for c := 0; c < 2; c++ {
		for i := 0; i < lightPerCluster; i++ {
			h.bgUser[c] = append(h.bgUser[c], fmt.Sprintf("bg%d-%d", c, i))
		}
	}
	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		var err error
		if h.hotVol, err = admin.NewUserAt(p, "pub-hot", "pw", 0, ""); err != nil {
			return err
		}
		if _, err = admin.NewUserAt(p, "pub-warm", "pw", 0, ""); err != nil {
			return err
		}
		for c := 0; c < 2; c++ {
			for _, name := range h.bgUser[c] {
				if _, err = admin.NewUserAt(p, name, "pw", 0, cell.Servers[c].Vice.Name()); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("hot-volume cell provisioning: %w", err)
	}

	group := func(n, cluster int, prefix string, user func(int) string) []*itcfs.Workstation {
		var g []*itcfs.Workstation
		for i := 0; i < n && err == nil; i++ {
			var ws *itcfs.Workstation
			ws, err = loggedIn(cell, cluster, fmt.Sprintf("%s%d", prefix, i), user(i), "pw")
			g = append(g, ws)
		}
		return g
	}
	h.hot = group(hotReaders, 1, "hot-ws", func(int) string { return "pub-hot" })
	h.warm = group(warmReaders, 1, "warm-ws", func(int) string { return "pub-warm" })
	for c := 0; c < 2; c++ {
		h.bg[c] = group(lightPerCluster, c, fmt.Sprintf("bg%d-ws", c), func(i int) string { return h.bgUser[c][i] })
	}
	if err != nil {
		return nil, err
	}

	populate := func(ws *itcfs.Workstation, owner string) {
		cell.Run(func(p *sim.Proc) {
			for f := 0; f < hotFiles && err == nil; f++ {
				body := make([]byte, hotFileBytes)
				for b := range body {
					body[b] = byte(f)
				}
				err = ws.FS.WriteFile(p, fmt.Sprintf("/vice/usr/%s/f%d", owner, f), body)
			}
		})
	}
	populate(h.hot[0], "pub-hot")
	populate(h.warm[0], "pub-warm")
	for c := 0; c < 2; c++ {
		for i, ws := range h.bg[c] {
			if err == nil {
				populate(ws, h.bgUser[c][i])
			}
		}
	}
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	h.stagger = make(map[*itcfs.Workstation]time.Duration)
	draw := func(group []*itcfs.Workstation, think time.Duration) {
		for _, ws := range group {
			h.stagger[ws] = time.Duration(rng.Int63n(int64(think)))
		}
	}
	draw(h.hot, hotThink)
	draw(h.warm, warmThink)
	draw(h.bg[0], lightThink)
	draw(h.bg[1], lightThink)
	return h, nil
}

// spawn starts readers that loop over their volume's files until the given
// time: the hot and warm groups on the public volumes when shared is set,
// then the background stations on their own homes when background is.
func (h *hotCell) spawn(until sim.Time, shared, background bool) {
	reader := func(ws *itcfs.Workstation, owner string, think time.Duration) {
		h.cell.Kernel.Spawn("read-"+ws.Name, func(p *sim.Proc) {
			p.Sleep(h.stagger[ws])
			for f := 0; p.Now() < until; f++ {
				if _, rerr := ws.FS.ReadFile(p, fmt.Sprintf("/vice/usr/%s/f%d", owner, f%hotFiles)); rerr != nil {
					if h.loadErr == nil {
						h.loadErr = fmt.Errorf("reader %s: %w", ws.Name, rerr)
					}
					return
				}
				p.Sleep(think)
			}
		})
	}
	if shared {
		for _, ws := range h.hot {
			reader(ws, "pub-hot", hotThink)
		}
		for _, ws := range h.warm {
			reader(ws, "pub-warm", warmThink)
		}
	}
	if background {
		for c := 0; c < 2; c++ {
			for i, ws := range h.bg[c] {
				reader(ws, h.bgUser[c][i], lightThink)
			}
		}
	}
}

// runUntil advances the cell to t and reports the first reader failure.
func (h *hotCell) runUntil(t sim.Time) error {
	h.cell.Kernel.RunUntil(t)
	return h.loadErr
}

// E15HotVolume replays §5.2's saturation story in time-resolved form. Two
// public volumes live on server0; in phase B a burst of cluster-1 readers
// drives server0 over its CPU ceiling while server1 idles. The windowed
// overload detector reads the sampled telemetry, names the onset window and
// the hottest volume, and recommends moving it to the coolest peer; a
// simulated operator applies the move, and phase C runs the same load with
// both servers below threshold. Everything — series, dashboard, flight
// recorder, the report — replays byte-identically under one seed.
func E15HotVolume(cfg E15Config) (*E15Result, error) {
	h, err := newHotCell(cfg.Seed, nil)
	if err != nil {
		return nil, err
	}
	cell := h.cell

	// Telemetry on. From here the kernel is driven with RunUntil only: the
	// sampler's tick events extend to the horizon, and Run() would drain
	// straight through it.
	t0 := cell.Now()
	horizon := 3*cfg.Phase + cfg.MoveGrace + cfg.Cadence
	sampler := cell.StartSampling(cfg.Cadence, horizon)

	// Phase A: background load only — the calm before.
	aEnd := t0.Add(cfg.Phase)
	h.spawn(aEnd, false, true)
	if err := h.runUntil(aEnd); err != nil {
		return nil, err
	}

	// Phase B: the cluster-1 readers pile onto server0's public volumes.
	bEnd := aEnd.Add(cfg.Phase)
	h.spawn(bEnd, true, true)
	if err := h.runUntil(bEnd); err != nil {
		return nil, err
	}

	// The detector reads the sampled series as they stand at the end of B.
	adv := monitor.New(cell, monitor.DefaultConfig())
	findings := adv.DetectOverload(sampler, monitor.DefaultOverloadConfig())
	if len(findings) == 0 {
		return nil, fmt.Errorf("E15: overload detector found nothing at end of phase B")
	}
	hv := findings[0]
	if hv.To == "" {
		return nil, fmt.Errorf("E15: detector produced no destination for volume %d", hv.Volume)
	}

	// Let in-flight phase-B operations drain, then the operator moves the
	// hot volume and salvages it at its new custodian.
	drainEnd := bEnd.Add(cfg.MoveGrace / 2)
	cell.Kernel.RunUntil(drainEnd)
	target := -1
	for i, s := range cell.Servers {
		if s.Vice.Name() == hv.To {
			target = i
		}
	}
	if target < 0 {
		return nil, fmt.Errorf("E15: detector recommended unknown server %s", hv.To)
	}
	moved := false
	cell.Kernel.Spawn("operator-move", func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		if err = admin.MoveVolume(p, hv.Volume, hv.To); err != nil {
			return
		}
		dst, aerr := cell.Admin(p, target)
		if aerr != nil {
			err = aerr
			return
		}
		if _, err = dst.Salvage(p, hv.Volume); err != nil {
			return
		}
		moved = true
	})
	moveEnd := bEnd.Add(cfg.MoveGrace)
	cell.Kernel.RunUntil(moveEnd)
	if err != nil {
		return nil, fmt.Errorf("E15 operator: %w", err)
	}
	if !moved {
		return nil, fmt.Errorf("E15: volume move did not finish within the grace window")
	}

	// Phase C: the same load, rebalanced.
	cEnd := moveEnd.Add(cfg.Phase)
	h.spawn(cEnd, true, true)
	if err := h.runUntil(cEnd); err != nil {
		return nil, err
	}

	utilStats := func(server string, from, to sim.Time) (mean, peak float64) {
		n := 0
		for _, p := range sampler.Points(itcfs.ServerCPUSeries(server)) {
			if p.At > from && p.At <= to {
				u := float64(p.V) / float64(cfg.Cadence)
				mean += u
				n++
				if u > peak {
					peak = u
				}
			}
		}
		if n > 0 {
			mean /= float64(n)
		}
		return mean, peak
	}
	s0, s1 := cell.Servers[0].Vice.Name(), cell.Servers[1].Vice.Name()
	meanA0, _ := utilStats(s0, t0, aEnd)
	meanA1, _ := utilStats(s1, t0, aEnd)
	meanB0, peakB0 := utilStats(s0, aEnd, bEnd)
	meanB1, peakB1 := utilStats(s1, aEnd, bEnd)
	meanC0, peakC0 := utilStats(s0, moveEnd, cEnd)
	meanC1, peakC1 := utilStats(s1, moveEnd, cEnd)
	postMove0 := adv.MeanUtilSince(sampler, s0, moveEnd)
	postMove1 := adv.MeanUtilSince(sampler, s1, moveEnd)

	r := newReport("E15", "Time-series telemetry: detect and relieve a saturated server",
		"server CPU \"sometimes peaking at 98% utilization\" (§5.2); volume moves rebalance load (§3.6)",
		"phase / metric", s0, s1)
	r.addRow("A background · mean CPU util", pct(meanA0), pct(meanA1))
	r.addRow("B hot volumes · mean CPU util", pct(meanB0), pct(meanB1))
	r.addRow("B hot volumes · peak CPU util", pct(peakB0), pct(peakB1))
	r.addRow("C after move · mean CPU util", pct(meanC0), pct(meanC1))
	r.addRow("C after move · peak CPU util", pct(peakC0), pct(peakC1))
	r.addRow("overload onset (virtual time)", hv.Onset.String(), "—")
	r.addRow("windows over threshold", fmt.Sprintf("%d", hv.Windows), "—")
	r.addRow("hottest volume", fmt.Sprintf("vol %d (%d sampled ops)", hv.Volume, hv.VolumeOps), "—")
	r.addRow("applied move", fmt.Sprintf("vol %d → %s", hv.Volume, hv.To), "—")
	r.addRow("post-move advisor check", pct(postMove0), pct(postMove1))
	r.addRow("flight events recorded", fmt.Sprintf("%d", cell.Flight.Total()), "—")

	r.Metrics["detector_fired"] = 1
	r.Metrics["onset_s"] = hv.Onset.Seconds()
	r.Metrics["b_start_s"] = aEnd.Seconds()
	r.Metrics["b_end_s"] = bEnd.Seconds()
	r.Metrics["hot_volume"] = float64(hv.Volume)
	r.Metrics["expected_hot_volume"] = float64(h.hotVol)
	r.Metrics["overload_windows"] = float64(hv.Windows)
	r.Metrics["mean_a_s0"] = meanA0
	r.Metrics["mean_b_s0"] = meanB0
	r.Metrics["mean_b_s1"] = meanB1
	r.Metrics["peak_b_s0"] = peakB0
	r.Metrics["peak_b_s1"] = peakB1
	r.Metrics["mean_c_s0"] = meanC0
	r.Metrics["mean_c_s1"] = meanC1
	r.Metrics["peak_c_s0"] = peakC0
	r.Metrics["peak_c_s1"] = peakC1
	r.Metrics["imbalance_b"] = meanB0 - meanB1
	r.Metrics["imbalance_c"] = meanC0 - meanC1
	r.Metrics["flight_events"] = float64(cell.Flight.Total())

	var tl, fl strings.Builder
	sampler.WriteDashboard(&tl)
	cell.Flight.WriteText(&fl)
	return &E15Result{
		Report:   r,
		Cell:     cell,
		Finding:  hv,
		Timeline: tl.String(),
		Flight:   fl.String(),
	}, nil
}
