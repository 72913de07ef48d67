package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"itcfs"
)

// Scale bench — the simulator's own performance trajectory. Every other
// experiment measures the simulated system in virtual time; this one measures
// the simulator in real time: wall-clock seconds and heap allocations per
// simulated client-hour of the batched E14 mix, at increasing client counts.
// The numbers gate the kernel-scale refactor (bucketed timetable, pooled
// messages and frames, flattened receive paths): BENCH_scale.json, emitted
// from this code and committed at the repo root, records the trajectory, and
// ci.sh re-emits it and compares the schema so the file cannot silently rot.

// ScalePoint is one measured client count.
type ScalePoint struct {
	Clients int `json:"clients"`
	// ClientHours is clients times the virtual hours the client phase took —
	// the work actually simulated, and the normalizer for the two unit costs.
	ClientHours float64 `json:"client_hours"`
	WallSeconds float64 `json:"wall_seconds"`
	Allocs      uint64  `json:"allocs"`
	// WallPerClientHour and AllocsPerClientHour are the headline unit costs:
	// real seconds and heap allocations spent to simulate one client-hour.
	WallPerClientHour   float64 `json:"wall_seconds_per_client_hour"`
	AllocsPerClientHour float64 `json:"allocs_per_client_hour"`
}

// ScaleImprovement compares the reference point against the pre-refactor
// baseline, as ratios (baseline cost / current cost; higher is better).
type ScaleImprovement struct {
	ReferenceClients int     `json:"reference_clients"`
	Wall             float64 `json:"wall"`
	Allocs           float64 `json:"allocs"`
}

// ScaleBench is the full trajectory, serialized as BENCH_scale.json.
type ScaleBench struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Quick    bool   `json:"quick"`
	// Baseline is the pre-refactor kernel at 1000 clients, measured from the
	// same tree with the refactor stashed (best of 3). It is embedded as data
	// rather than re-measured because the pre-refactor code no longer exists
	// in the tree.
	Baseline    ScalePoint        `json:"baseline"`
	Points      []ScalePoint      `json:"points"`
	Improvement *ScaleImprovement `json:"improvement"`
	// Note records measurement caveats; see the refactor discussion in
	// DESIGN.md §11 for why allocations improved far more than wall time.
	Note string `json:"note"`
}

// preRefactorBaseline is the unrefactored kernel (heap-per-event timetable,
// per-message allocation, per-name metric lookups, dispatcher processes)
// driving batched E14 at 1000 clients: best of 3 runs of the same
// measurement loop, taken via `git stash` from the refactored tree.
var preRefactorBaseline = ScalePoint{
	Clients:             1000,
	ClientHours:         26392.4,
	WallSeconds:         5.417,
	Allocs:              14569414,
	WallPerClientHour:   0.000205,
	AllocsPerClientHour: 552,
}

// ScaleBenchConfig sizes a scale-bench run.
type ScaleBenchConfig struct {
	Clients []int // client counts, in reporting order
	Reps    int   // measurement repetitions per count, best-of (0 = 1)
	Quick   bool  // shrink the per-client mix for CI smoke runs
}

// DefaultScaleBench returns the standard trajectory: the tentpole's 1k/10k/30k
// sweep at one rep.
func DefaultScaleBench() ScaleBenchConfig {
	return ScaleBenchConfig{Clients: []int{1000, 10000, 30000}}
}

// RunScaleBench measures the trajectory. Wall-clock time is the measurement
// here, not a hidden dependency: the simulated outcome is deterministic and
// unaffected.
func RunScaleBench(cfg ScaleBenchConfig) (*ScaleBench, error) {
	e14 := DefaultE14()
	if cfg.Quick {
		e14 = quickE14()
	}
	sb := &ScaleBench{
		Schema:   "itcfs-bench-scale/v1",
		Workload: "E14 batched: shared-pool browse + zipf re-reads + publisher bursts + TTL sweeps",
		Quick:    cfg.Quick,
		Baseline: preRefactorBaseline,
		Note: "allocs improved ~7x; wall ~2x, floored by real AES-CTR/HMAC sealing " +
			"and goroutine-based process switches (see DESIGN.md)",
	}
	for _, n := range cfg.Clients {
		// At or below 1000 clients the campus is the single-cluster E14 one
		// the pre-refactor baseline was measured on, so the improvement
		// ratio compares identical workloads.
		clusters := shards(n)
		if n <= 1000 {
			clusters = 1
		}
		c, err := measure(e14, n, clusters, cfg.Reps, nil)
		if err != nil {
			return nil, fmt.Errorf("scale bench at %d clients: %w", n, err)
		}
		sb.Points = append(sb.Points, ScalePoint{
			Clients:             n,
			ClientHours:         round3(c.clientHours),
			WallSeconds:         c.wall,
			Allocs:              c.allocs,
			WallPerClientHour:   c.wallPerCH,
			AllocsPerClientHour: c.allocsPerCH,
		})
	}
	ref := sb.Points[0]
	sb.Improvement = &ScaleImprovement{
		ReferenceClients: ref.Clients,
		Wall:             round3(sb.Baseline.WallPerClientHour / ref.WallPerClientHour),
		Allocs:           round3(sb.Baseline.AllocsPerClientHour / ref.AllocsPerClientHour),
	}
	return sb, nil
}

// scaleClusterSize is the client population one cluster server carries in
// the sharded scale bench. Beyond the E14 sweep's single-server range the
// deployment grows with the population — one cluster server per
// scaleClusterSize clients, each cluster with its own shared pool — exactly
// how the paper's cell scales (§3.1). The bench measures the simulator's
// cost per client-hour, so the simulated system must stay inside its own
// operating envelope (a server drowning under 30k clients would measure
// timeout storms, not kernel throughput); 1000 clients already run one
// server at ~55% CPU with minute-scale p90 open latency, so the shards are
// half that, leaving headroom for the cross-cluster traffic every cluster
// sends the root volume's custodian (login stats, cold browse walks, sweep
// revalidations of the cached root path).
const scaleClusterSize = 500

// scaleArrivalSpacing floors the mean time between client arrivals in the
// sharded bench. Each arriving client's login and cold walk of /vice and
// /vice/usr land on the root volume's custodian regardless of cluster, so
// the sustainable arrival rate is a property of that one server, not of the
// population; 3.6 s/client is the rate the 10,000-clients-over-10-hours
// point sustains with headroom.
const scaleArrivalSpacing = 3600 * time.Millisecond

// shards is the number of clusters a sharded campus of n clients spans.
func shards(n int) int { return (n + scaleClusterSize - 1) / scaleClusterSize }

// cost is one timed campus run: real seconds and heap allocations around the
// whole run (setup included: at 30k clients, building the cell is part of
// what must scale), normalized by the client-hours simulated, plus the
// outcome E17's inertness guard compares across tracing modes.
type cost struct {
	elapsed     time.Duration // virtual time the client phase took
	clientHours float64       // clients times the client phase's virtual hours
	wall        float64       // s
	allocs      uint64
	wallPerCH   float64
	allocsPerCH float64
	registry    string // sha256 of the metrics registry's text
	spans       int    // spans the tracer retained
}

// measure runs the campus reps times (at least once) and returns the fastest
// run's cost. Wall-clock time is the measurement here, not a hidden
// dependency: the simulated outcome is deterministic and unaffected.
func measure(cfg E14Config, n, clusters, reps int, mut func(*itcfs.CellConfig)) (cost, error) {
	var best cost
	for rep := 0; rep < max(reps, 1); rep++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now() //itcvet:allow wallclock -- the sim benches measure real elapsed time by design
		run, err := runCampus(cfg, n, clusters, mut)
		if err != nil {
			return cost{}, err
		}
		wall := time.Since(start).Seconds() //itcvet:allow wallclock -- the sim benches measure real elapsed time by design
		runtime.ReadMemStats(&after)
		c := cost{
			elapsed:     run.elapsed,
			clientHours: float64(n) * run.elapsed.Seconds() / 3600,
			wall:        round3(wall),
			allocs:      after.Mallocs - before.Mallocs,
			spans:       len(run.cell.Tracer.Spans()),
		}
		if c.clientHours > 0 {
			c.wallPerCH = round6(wall / c.clientHours)
			c.allocsPerCH = round3(float64(c.allocs) / c.clientHours)
		}
		// The fingerprint comes after the measurement window so the guard
		// itself costs the runs nothing.
		var reg strings.Builder
		run.cell.Metrics.WriteText(&reg)
		sum := sha256.Sum256([]byte(reg.String()))
		c.registry = hex.EncodeToString(sum[:])
		if rep == 0 || c.wall < best.wall {
			best = c
		}
	}
	return best, nil
}

func round3(v float64) float64 { return roundTo(v, 1e3) }
func round6(v float64) float64 { return roundTo(v, 1e6) }

func roundTo(v, scale float64) float64 {
	if v < 0 {
		return -roundTo(-v, scale)
	}
	return float64(int64(v*scale+0.5)) / scale
}

// WriteJSON emits the bench as deterministic, indented JSON (struct field
// order; no map keys anywhere in the schema).
func (sb *ScaleBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sb)
}

// Report renders the trajectory as a standard experiment table.
func (sb *ScaleBench) Report() *Report {
	r := newReport("SCALE", "sim-kernel cost per simulated client-hour (batched E14)",
		"the revised design exists to serve many more clients per server; the simulator "+
			"itself must scale to drive that population",
		"clients", "client-hours", "wall s", "wall s/ch", "allocs/ch")
	base := sb.Baseline
	r.addRow(fmt.Sprintf("%d (pre-refactor)", base.Clients),
		fmt.Sprintf("%.1f", base.ClientHours),
		fmt.Sprintf("%.2f", base.WallSeconds),
		fmt.Sprintf("%.6f", base.WallPerClientHour),
		fmt.Sprintf("%.0f", base.AllocsPerClientHour))
	for _, p := range sb.Points {
		r.addRow(fmt.Sprintf("%d", p.Clients),
			fmt.Sprintf("%.1f", p.ClientHours),
			fmt.Sprintf("%.2f", p.WallSeconds),
			fmt.Sprintf("%.6f", p.WallPerClientHour),
			fmt.Sprintf("%.0f", p.AllocsPerClientHour))
		r.Metrics[fmt.Sprintf("wall_per_ch_%d", p.Clients)] = p.WallPerClientHour
		r.Metrics[fmt.Sprintf("allocs_per_ch_%d", p.Clients)] = p.AllocsPerClientHour
	}
	if imp := sb.Improvement; imp != nil {
		r.addRow(fmt.Sprintf("improvement @%d", imp.ReferenceClients), "",
			"", fmt.Sprintf("%.1fx", imp.Wall), fmt.Sprintf("%.1fx", imp.Allocs))
		r.Metrics["improvement_wall"] = imp.Wall
		r.Metrics["improvement_allocs"] = imp.Allocs
	}
	return r
}
