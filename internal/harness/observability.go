package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"itcfs"
	"itcfs/internal/monitor"
	"itcfs/internal/trace"
)

// E17 — observability at scale. PR 9 pushed the kernel to 30k clients; this
// experiment proves the observability plane can stay on at that population.
// Leg one ablates tracing off/sampled/full over the identical sharded E14
// quick mix and measures what each mode costs in real seconds and heap
// allocations per simulated client-hour — the sampled plane must ride within
// 5% wall and 5 allocs/client-hour of tracing-off at 30k clients, with full
// tracing measured for contrast. The ablation doubles as a sampling-inertness
// guard: all three legs must produce the identical virtual timeline and a
// byte-identical metrics registry, or the tracer perturbed the workload. Leg
// two seeds an E15-shaped hot-volume cell with tracing, SLO objectives and
// burn-rate evaluation attached, and requires at least one slo.breach flight
// event whose embedded exemplar critical path names the saturated server.
// BENCH_obs.json, emitted here and committed at the repo root, records both
// legs; ci.sh re-emits the 10k point and compares the schema.

// E17Config sizes the observability bench.
type E17Config struct {
	Clients []int // client counts for the ablation sweep
	Reps    int   // wall-clock repetitions per leg, best-of (0 = 1)
	// Rate shapes the sampled leg's policy: keep one root in Rate per op
	// class, plus every root slower than e17SlowKeep.
	Rate int
}

// The sampled leg's slow always-keep threshold and sampling seed.
const (
	e17SlowKeep = 5 * time.Minute
	e17Seed     = 17 // rotates per-class keep phases
)

// The breach leg's venus.open SLO and its cell's trace policy — sampled, so
// the breach attribution exercises the exemplar path, not full retention.
const (
	breachObjective  = 250 * time.Millisecond
	breachTarget     = 0.95
	breachWindow     = 4
	breachBurn       = 2.0
	breachSampleRate = 4
	breachSlowKeep   = 2 * time.Second
)

// DefaultE17 returns the standard configuration: the tentpole's 10k/30k
// ablation at rate-1024 sampling.
func DefaultE17() E17Config {
	return E17Config{
		Clients: []int{10000, 30000},
		Rate:    1024,
	}
}

// e17BreachShape times the breach leg's cell: E15's hot-volume cell at
// E15-quick cadence and phase length.
func e17BreachShape() hotShape {
	shape := DefaultE15().hotShape
	shape.Cadence = 15 * time.Second
	shape.Phase = 150 * time.Second
	return shape
}

// ObsLeg is one tracing mode measured at one client count.
type ObsLeg struct {
	Mode        string  `json:"mode"` // off | sampled | full
	WallSeconds float64 `json:"wall_seconds"`
	Allocs      uint64  `json:"allocs"`
	// WallPerClientHour and AllocsPerClientHour normalize by the simulated
	// client-hours, mirroring BENCH_scale.json.
	WallPerClientHour   float64 `json:"wall_seconds_per_client_hour"`
	AllocsPerClientHour float64 `json:"allocs_per_client_hour"`
	// SpansKept is how many spans the tracer retained over the whole run —
	// the retention the sampling policy is bounding.
	SpansKept int `json:"spans_kept"`
}

// ObsPoint is the three-leg ablation at one client count, with the sampled
// and full overheads relative to the off leg.
type ObsPoint struct {
	Clients     int      `json:"clients"`
	ClientHours float64  `json:"client_hours"`
	Legs        []ObsLeg `json:"legs"` // off, sampled, full
	// Overheads: wall as a percentage of the off leg, allocations as the
	// absolute increase in allocs per client-hour (the acceptance units).
	SampledWallOverheadPct float64 `json:"sampled_wall_overhead_pct"`
	SampledAllocsPerCHOver float64 `json:"sampled_allocs_per_client_hour_over"`
	FullWallOverheadPct    float64 `json:"full_wall_overhead_pct"`
	FullAllocsPerCHOver    float64 `json:"full_allocs_per_client_hour_over"`
}

// ObsBreach is the breach leg's outcome.
type ObsBreach struct {
	Breaches        int    `json:"breaches"`
	SaturatedServer string `json:"saturated_server"` // the server the load design saturates
	HotNode         string `json:"hot_node"`         // the node the breach event blamed
	// FirstDetail is the first slo.breach event's detail — the burn numbers
	// and the exemplar critical-path decomposition.
	FirstDetail   string `json:"first_breach_detail"`
	BurnMilliPeak int64  `json:"burn_milli_peak"`
	Recovered     bool   `json:"recovered"`
	// AdvisorReason is the overload detector's finding with the SLO burn
	// citation appended (empty if the detector did not fire).
	AdvisorReason string `json:"advisor_reason"`
}

// ObsBench is the full experiment, serialized as BENCH_obs.json.
type ObsBench struct {
	Schema     string     `json:"schema"`
	Workload   string     `json:"workload"`
	SampleRate int        `json:"sample_rate"`
	SlowKeepMs int64      `json:"slow_keep_ms"`
	Points     []ObsPoint `json:"points"`
	Breach     *ObsBreach `json:"breach"`
	Note       string     `json:"note"`
}

// obsLegModes orders the ablation; "off" must come first (it is the
// baseline the overheads divide by).
var obsLegModes = []string{"off", "sampled", "full"}

// RunObsBench measures the ablation sweep and runs the breach leg. As in the
// scale bench, wall-clock time is the measurement, not a hidden dependency:
// every simulated outcome is deterministic, and the run fails if the three
// legs' virtual timelines or metric registries diverge.
func RunObsBench(cfg E17Config) (*ObsBench, error) {
	// E17 always uses the quick-mix shape: overhead per client-hour is a
	// ratio, so the mix only needs to touch every hot path — and the full
	// leg must retain every span of whatever is simulated.
	e14 := quickE14()
	ob := &ObsBench{
		Schema: "itcfs-bench-obs/v1",
		Workload: "E14 batched quick mix, tracing ablated off/sampled/full; " +
			"E15-shaped hot-volume cell for the SLO breach leg",
		SampleRate: cfg.Rate,
		SlowKeepMs: int64(e17SlowKeep / time.Millisecond),
		Note: "sampled = seeded per-class rate with slow always-keep; legs are " +
			"inert: identical virtual timelines and byte-identical registries",
	}
	for _, n := range cfg.Clients {
		pt := ObsPoint{Clients: n}
		var base cost
		for _, mode := range obsLegModes {
			c, err := measure(e14, n, shards(n), cfg.Reps, cfg.traceMode(mode))
			if err != nil {
				return nil, fmt.Errorf("obs bench %s at %d clients: %w", mode, n, err)
			}
			if mode == "off" {
				base = c
				pt.ClientHours = round3(c.clientHours)
			} else if c.elapsed != base.elapsed {
				// The inertness guard: tracing may cost real time, never
				// virtual time or a single metric count.
				return nil, fmt.Errorf("obs bench at %d clients: %s leg took %v virtual, off took %v — tracing perturbed the workload",
					n, mode, c.elapsed, base.elapsed)
			} else if c.registry != base.registry {
				return nil, fmt.Errorf("obs bench at %d clients: %s leg's metrics registry diverged from off — tracing perturbed the workload", n, mode)
			}
			pt.Legs = append(pt.Legs, ObsLeg{
				Mode:                mode,
				WallSeconds:         c.wall,
				Allocs:              c.allocs,
				WallPerClientHour:   c.wallPerCH,
				AllocsPerClientHour: c.allocsPerCH,
				SpansKept:           c.spans,
			})
		}
		off, sampled, full := pt.Legs[0], pt.Legs[1], pt.Legs[2]
		if off.WallSeconds > 0 {
			pt.SampledWallOverheadPct = round3((sampled.WallSeconds - off.WallSeconds) / off.WallSeconds * 100)
			pt.FullWallOverheadPct = round3((full.WallSeconds - off.WallSeconds) / off.WallSeconds * 100)
		}
		pt.SampledAllocsPerCHOver = round3(sampled.AllocsPerClientHour - off.AllocsPerClientHour)
		pt.FullAllocsPerCHOver = round3(full.AllocsPerClientHour - off.AllocsPerClientHour)
		ob.Points = append(ob.Points, pt)
	}
	br, err := e17Breach(e17BreachShape())
	if err != nil {
		return nil, err
	}
	ob.Breach = br
	return ob, nil
}

// traceMode is the cell mutation for one ablation leg.
func (cfg E17Config) traceMode(mode string) func(*itcfs.CellConfig) {
	return func(cc *itcfs.CellConfig) {
		switch mode {
		case "sampled":
			cc.Trace = true
			cc.TracePolicy = &trace.SamplePolicy{
				Seed:    e17Seed,
				Default: trace.ClassPolicy{Rate: cfg.Rate, SlowKeep: e17SlowKeep},
			}
		case "full":
			cc.Trace = true // no policy: keep every root
		}
	}
}

// e17Breach drives the seeded hot-volume cell: phase A is background load
// only, phase B adds cluster-1 readers hammering server0's public volumes
// past its CPU ceiling. The SLO monitor rides the sampling cadence; the leg
// requires at least one slo.breach whose exemplar critical path names the
// saturated server.
func e17Breach(cfg hotShape) (*ObsBreach, error) {
	h, err := newHotCell(cfg.Seed, &trace.SamplePolicy{
		Seed:    cfg.Seed,
		Default: trace.ClassPolicy{Rate: breachSampleRate, SlowKeep: breachSlowKeep},
	})
	if err != nil {
		return nil, fmt.Errorf("E17 breach: %w", err)
	}
	cell := h.cell
	saturated := cell.Servers[0].Vice.Name()

	// Telemetry and the SLO layer on. The pre-phase Sample absorbs the
	// provisioning traffic into the monitor's histogram baselines, so phase A
	// starts with clean windows.
	t0 := cell.Now()
	horizon := 3*cfg.Phase + cfg.Cadence
	sampler := cell.StartSampling(cfg.Cadence, horizon)
	mon := monitor.AttachSLO(sampler, cell.Metrics, cell.Tracer, cell.Flight, monitor.SLOConfig{
		Objectives: []monitor.SLOObjective{{
			Class:   trace.SpanVenusOpen,
			Latency: breachObjective,
			Target:  breachTarget,
		}},
		Window:     breachWindow,
		BreachBurn: breachBurn,
	})
	if mon == nil {
		return nil, fmt.Errorf("E17 breach: AttachSLO returned nil")
	}
	sampler.Sample(t0)

	// Phase A: background only — the burn rate should idle at zero.
	aEnd := t0.Add(cfg.Phase)
	h.spawn(aEnd.Add(2*cfg.Phase), false, true)
	if err := h.runUntil(aEnd); err != nil {
		return nil, err
	}
	if mon.Breaching(trace.SpanVenusOpen) {
		return nil, fmt.Errorf("E17 breach: SLO breached during the calm phase")
	}

	// Phase B: the cluster-1 readers pile onto server0.
	bEnd := aEnd.Add(cfg.Phase)
	h.spawn(bEnd, true, false)
	if err := h.runUntil(bEnd); err != nil {
		return nil, err
	}

	// The overload detector reads the same telemetry; with UseSLO it cites
	// the burn rate in its finding.
	adv := monitor.New(cell, monitor.DefaultConfig())
	adv.UseSLO(mon)
	findings := adv.DetectOverload(sampler, monitor.DefaultOverloadConfig())

	// Phase C: hot load gone — the episode should close.
	if err := h.runUntil(bEnd.Add(cfg.Phase)); err != nil {
		return nil, err
	}

	br := &ObsBreach{SaturatedServer: saturated}
	for _, e := range cell.Flight.Events() {
		switch e.Kind {
		case trace.EventSLOBreach:
			br.Breaches++
			if br.Breaches == 1 {
				br.HotNode = e.Node
				br.FirstDetail = e.Detail
			}
		case trace.EventSLORecover:
			br.Recovered = true
		}
	}
	for _, p := range sampler.Points(trace.SLOBurnSeries(trace.SpanVenusOpen)) {
		if p.V > br.BurnMilliPeak {
			br.BurnMilliPeak = p.V
		}
	}
	if len(findings) > 0 {
		br.AdvisorReason = findings[0].Reason
	}
	if br.Breaches == 0 {
		return nil, fmt.Errorf("E17 breach: no %s flight event fired (peak burn %dm)", trace.EventSLOBreach, br.BurnMilliPeak)
	}
	return br, nil
}

// WriteJSON emits the bench as deterministic, indented JSON (struct field
// order; no map keys anywhere in the schema).
func (ob *ObsBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ob)
}

// Report renders both legs as a standard experiment table.
func (ob *ObsBench) Report() *Report {
	r := newReport("E17", "observability at scale: sampled tracing overhead + SLO breach attribution",
		"the trace plane established the paper's CPU-bound-servers claim; at 30k clients it must "+
			"stay on without distorting what it measures",
		"clients · leg", "wall s", "wall s/ch", "allocs/ch", "spans kept")
	for _, pt := range ob.Points {
		for _, leg := range pt.Legs {
			r.addRow(fmt.Sprintf("%d · %s", pt.Clients, leg.Mode),
				fmt.Sprintf("%.2f", leg.WallSeconds),
				fmt.Sprintf("%.6f", leg.WallPerClientHour),
				fmt.Sprintf("%.1f", leg.AllocsPerClientHour),
				fmt.Sprintf("%d", leg.SpansKept))
		}
		r.addRow(fmt.Sprintf("%d · sampled overhead", pt.Clients),
			fmt.Sprintf("%+.1f%%", pt.SampledWallOverheadPct), "",
			fmt.Sprintf("%+.1f", pt.SampledAllocsPerCHOver), "")
		r.addRow(fmt.Sprintf("%d · full overhead", pt.Clients),
			fmt.Sprintf("%+.1f%%", pt.FullWallOverheadPct), "",
			fmt.Sprintf("%+.1f", pt.FullAllocsPerCHOver), "")
		r.Metrics[fmt.Sprintf("sampled_wall_overhead_pct_%d", pt.Clients)] = pt.SampledWallOverheadPct
		r.Metrics[fmt.Sprintf("sampled_allocs_per_ch_over_%d", pt.Clients)] = pt.SampledAllocsPerCHOver
		r.Metrics[fmt.Sprintf("full_wall_overhead_pct_%d", pt.Clients)] = pt.FullWallOverheadPct
		r.Metrics[fmt.Sprintf("spans_sampled_%d", pt.Clients)] = float64(pt.Legs[1].SpansKept)
		r.Metrics[fmt.Sprintf("spans_full_%d", pt.Clients)] = float64(pt.Legs[2].SpansKept)
	}
	if br := ob.Breach; br != nil {
		r.addRow("slo.breach events", fmt.Sprintf("%d", br.Breaches), "", "", "")
		r.addRow("breach blamed node", br.HotNode, "", "", "")
		r.addRow("saturated server", br.SaturatedServer, "", "", "")
		r.addRow("peak burn rate", fmt.Sprintf("%.1fx", float64(br.BurnMilliPeak)/1000), "", "", "")
		r.addRow("episode recovered", fmt.Sprintf("%v", br.Recovered), "", "", "")
		r.Metrics["breaches"] = float64(br.Breaches)
		r.Metrics["burn_milli_peak"] = float64(br.BurnMilliPeak)
		if br.HotNode == br.SaturatedServer {
			r.Metrics["breach_named_saturated_server"] = 1
		}
		if br.Recovered {
			r.Metrics["breach_recovered"] = 1
		}
		if strings.Contains(br.AdvisorReason, "slo burn") {
			r.Metrics["advisor_cites_burn"] = 1
		}
	}
	return r
}
