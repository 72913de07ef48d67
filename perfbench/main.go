// Command perfbench is the itcfs benchmark. It runs one named workload for
// a fixed measuring time, checks the outputs, prints every end-to-end metric
// by name with its unit and sample count, and ends with one JSON line:
//
//	go build -o perfbench . && ./perfbench -workload tcp_fetch -seed 1 -seconds 10 -trace 0
//
// Workloads: tcp_fetch and tcp_store drive a real Vice server over loopback
// TCP with walstore fsync on (see tcp.go, tcpwork.go); sim_campus runs the
// simulator's 1,000-client batched E14 mix (simwork.go). With -trace 1 the
// run measures an untraced leg and then a traced leg — pass-through
// wrappers at the layer seams plus a CPU profile — and the JSON line holds
// the per-layer metrics and the tracing overhead instead. README.md has the
// workload records and the layer-to-metric predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tcpReps is how many times a TCP leg sets up a fresh server and measures;
// medians over reps damp a noisy neighbour's burst.
const tcpReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2e is one end-to-end metric with the sample count behind it.
type e2e struct {
	name, unit string
	value      float64
	n          int64
	ok         bool // false when the samples cannot support the value
}

// common lists the end-to-end metrics every workload reports; a traced run
// reports the tracing overhead of each.
var common = []string{"ops_per_s", "cpu_us_per_op", "allocs_per_op", "heap_peak_mb", "setup_s"}

// gated lists the end-to-end metrics BENCHMARK.json bounds: the common ones
// that repeat from run to run on a shared machine. Throughput and CPU time
// swing with the neighbours' load and are printed, not bounded (README.md,
// "Which metrics are bounded").
var gated = []string{"allocs_per_op", "heap_peak_mb", "setup_s"}

// legResult is one leg's outcome: the end-to-end metrics, op counts, and
// (traced legs) the per-layer metrics.
type legResult struct {
	e2e       []e2e
	attempted int64
	failed    int64
	layer     map[string]float64
}

func (r *legResult) get(name string) (e2e, bool) {
	for _, m := range r.e2e {
		if m.name == name {
			return m, true
		}
	}
	return e2e{}, false
}

// checks collects failed correctness checks by name, keeping the first
// detail of each.
type checks struct {
	mu     sync.Mutex
	failed map[string]string // guarded by mu
	order  []string          // guarded by mu
}

func (c *checks) fail(name, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed == nil {
		c.failed = map[string]string{}
	}
	if _, ok := c.failed[name]; !ok {
		c.failed[name] = fmt.Sprintf(format, args...)
		c.order = append(c.order, name)
	}
}

func (c *checks) list() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, n+": "+c.failed[n])
	}
	return out
}

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "tcp_fetch", "workload: tcp_fetch, tcp_store or sim_campus")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = untraced leg then traced leg, print per-layer metrics")
	data := flag.String("data", filepath.Join(os.TempDir(), "perfbench"), "scratch directory for server data")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	switch *wl {
	case "tcp_fetch", "tcp_store", "sim_campus":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	dir := filepath.Join(*data, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	window := time.Duration(*seconds) * time.Second
	ck := &checks{}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *wl, *seed, *seconds, *traceFlag)
	var legs []*legResult
	simOutcomes := map[int64]simOutcome{}
	legNames := []string{"untraced"}
	if *traceFlag == 1 {
		legNames = append(legNames, "traced")
	}
	for _, name := range legNames {
		traced := name == "traced"
		var r *legResult
		var err error
		if *wl == "sim_campus" {
			// simSeeds seeds; with --trace 1 two per leg, the same in both
			// legs. The first leg warms up on its first seed.
			var seeds []int64
			for k := 0; k < simSeeds; k++ {
				seeds = append(seeds, simDerivedSeed(*seed, k))
			}
			if *traceFlag == 1 {
				seeds = seeds[:2]
			}
			r, err = simLeg(seeds, !traced, traced, simOutcomes, ck)
		} else {
			spec := tcpFetch
			if *wl == "tcp_store" {
				spec = tcpStore
			}
			w := window
			if *traceFlag == 1 {
				w = window / 2
			}
			r, err = tcpLeg(spec, *seed, w, traced, filepath.Join(dir, name), ck)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s leg: %v\n", name, err)
			return 1
		}
		fmt.Printf("%s leg:\n", name)
		for _, m := range r.e2e {
			printE2E(m)
		}
		legs = append(legs, r)
	}

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, l := range legs {
		res.Attempted += l.attempted
		res.Failed += l.failed
	}
	if *traceFlag == 0 {
		for _, name := range gated {
			m, _ := legs[0].get(name)
			res.Metrics[name] = metric{m.value, m.unit}
		}
	} else {
		base, tr := legs[0], legs[1]
		fmt.Println("tracing overhead (traced leg vs untraced leg):")
		for _, m := range base.e2e {
			t, _ := tr.get(m.name)
			if m.value != 0 {
				fmt.Printf("  overhead %-28s %+8.2f %%\n", m.name, 100*(t.value-m.value)/m.value)
			}
		}
		for _, name := range common {
			m, _ := base.get(name)
			t, _ := tr.get(name)
			if m.value != 0 {
				tr.layer["overhead."+name] = 100 * (t.value - m.value) / m.value
			}
		}
		fmt.Println("per-layer metrics (traced leg):")
		for _, pl := range perLayer {
			v := tr.layer[pl.name]
			fmt.Printf("  %-32s %14.4f %-12s %s is better\n", pl.name, v, pl.unit, pl.better)
			res.Metrics[pl.name] = metric{v, pl.unit}
		}
	}
	failures := ck.list()
	res.Correct = len(failures) == 0 && res.Failed == 0
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printE2E(m e2e) {
	if !m.ok {
		fmt.Printf("  %-28s %14s %-10s n=%d (too few samples)\n", m.name, "n/a", m.unit, m.n)
		return
	}
	fmt.Printf("  %-28s %14.4f %-10s n=%d\n", m.name, m.value, m.unit, m.n)
}

// tcpLeg runs tcpReps set-up-and-measure reps of a TCP workload, splitting
// the window between them, and reduces each metric to its median over reps.
func tcpLeg(spec tcpSpec, seed int64, window time.Duration, traced bool, dir string, ck *checks) (*legResult, error) {
	var lay *layers
	var prof *cpuProfile
	if traced {
		lay, prof = &layers{}, &cpuProfile{}
	}
	var reps []*tcpRep
	for i := 0; i < tcpReps; i++ {
		r, err := runTCPRep(spec, seed, i, window/tcpReps, filepath.Join(dir, fmt.Sprint(i)), lay, prof, ck)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  rep %d: set-up %.3f s, %d ops in %.3f s (%.3f CPU s)\n", i, r.setup, r.attempted, r.wall, r.cpu)
		reps = append(reps, r)
	}
	res := &legResult{}
	var reads, writes, completed int64
	perRep := func(f func(r *tcpRep) float64) float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return median(vs)
	}
	for _, r := range reps {
		res.attempted += r.attempted
		res.failed += r.failed
		reads += int64(len(r.reads))
		writes += int64(len(r.writes))
	}
	completed = res.attempted - res.failed
	n := int64(len(reps))
	add := func(name, unit string, v float64, samples int64, ok bool) {
		res.e2e = append(res.e2e, e2e{name: name, unit: unit, value: v, n: samples, ok: ok})
	}
	add("ops_per_s", "ops/s", perRep(func(r *tcpRep) float64 { return float64(r.attempted-r.failed) / r.wall }), completed, true)
	latency := func(prefix string, pick func(r *tcpRep) []float64, count int64) {
		for _, p := range []struct {
			suffix string
			q      float64
		}{{"_p50_ms", 0.50}, {"_p99_ms", 0.99}} {
			ok := true
			v := perRep(func(r *tcpRep) float64 {
				s := append([]float64(nil), pick(r)...)
				sort.Float64s(s)
				x, good := quantile(s, p.q)
				ok = ok && good
				return x
			})
			add(prefix+p.suffix, "ms", v, count, ok)
		}
	}
	latency("read", func(r *tcpRep) []float64 { return r.reads }, reads)
	if spec.writeFrac > 0 {
		latency("write", func(r *tcpRep) []float64 { return r.writes }, writes)
	}
	add("error_rate", "ratio", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted, true)
	add("cpu_us_per_op", "us/op", perRep(func(r *tcpRep) float64 { return 1e6 * r.cpu / float64(max(r.attempted-r.failed, 1)) }), completed, true)
	add("allocs_per_op", "allocs/op", perRep(func(r *tcpRep) float64 { return float64(r.allocs) / float64(max(r.attempted-r.failed, 1)) }), completed, true)
	add("heap_peak_mb", "MiB", perRep(func(r *tcpRep) float64 { return r.heapMB }), n, true)
	add("setup_s", "s", perRep(func(r *tcpRep) float64 { return r.setup }), n, true)
	if spec.writeFrac > 0 {
		fmt.Printf("  durability check: data directory reopened with walstore.Open after each rep, median %.4f s\n",
			perRep(func(r *tcpRep) float64 { return r.recoverS }))
	}
	if traced {
		res.layer = tcpLayers(spec, reps, lay, prof, completed, writes)
		res.layer["walstore.recover_s"] = perRep(func(r *tcpRep) float64 { return r.recoverS })
		res.layer["gc.cpu_fraction"] = perRep(func(r *tcpRep) float64 { return r.gcCPU })
	}
	return res, nil
}

// simSeeds is how many campus runs, each with its own seed derived from
// the run's seed, one untraced sim_campus run makes. The E14 mix's file
// sizes are drawn from the seed and a few hot files dominate the caches, so
// one seed's live heap sits up to 25% from another's; a run reports means
// over simSeeds seeds. The first derived seed is the run's own, so seed 14
// reproduces BENCH_scale.json's 1k point exactly.
const simSeeds = 8

// simDerivedSeed is the k-th campus seed of a run.
func simDerivedSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// simLeg runs one campus rep per seed and reduces the metrics to their
// means over the reps (set-up time to its median). With warm set, it first
// runs the first seed once unmeasured: the process's first campus grows the
// heap from nothing and costs up to 17% more CPU than a repeat of the same
// seed, and running that seed twice checks that its outcome repeats.
// outcomes holds the outcome of every seed run so far in this process.
func simLeg(seeds []int64, warm, traced bool, outcomes map[int64]simOutcome, ck *checks) (*legResult, error) {
	var prof *cpuProfile
	if traced {
		prof = &cpuProfile{}
	}
	res := &legResult{}
	var reps []*simRep
	runs := seeds
	if warm {
		runs = append([]int64{seeds[0]}, seeds...)
	}
	for i, seed := range runs {
		r, err := runSimRep(seed, prof)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  rep %d: seed %d, set-up %.3f s, %d clients, %.1f client-hours in %.3f s (%.3f CPU s), %d ops, live heap %.1f MiB\n",
			i, seed, r.setup, simClients, r.clientHours, r.wall, r.cpu, r.out.Ops, r.heapMB)
		res.attempted += r.out.Ops
		res.failed += r.failed
		if r.failed > 0 {
			ck.fail("sim-failed-ops", "seed %d: %d of %d clients failed", seed, r.failed, simClients)
		}
		if prev, ok := outcomes[seed]; ok && prev != r.out {
			ck.fail("sim-determinism", "seed %d: outcome %+v, earlier rep %+v", seed, r.out, prev)
		}
		outcomes[seed] = r.out
		if !warm || i > 0 {
			reps = append(reps, r)
		}
	}
	mean := func(f func(r *simRep) float64) float64 {
		var sum float64
		for _, r := range reps {
			sum += f(r)
		}
		return sum / float64(len(reps))
	}
	setups := make([]float64, len(reps))
	var ops int64
	for i, r := range reps {
		setups[i] = r.setup
		ops += r.out.Ops
	}
	n := int64(len(reps))
	add := func(name, unit string, v float64, samples int64) {
		res.e2e = append(res.e2e, e2e{name: name, unit: unit, value: v, n: samples, ok: true})
	}
	add("ops_per_s", "ops/s", mean(func(r *simRep) float64 { return float64(r.out.Ops) / r.wall }), ops)
	add("sim_client_hours_per_s", "ch/s", mean(func(r *simRep) float64 { return r.clientHours / r.wall }), n)
	add("sim_allocs_per_client_hour", "allocs/ch", mean(func(r *simRep) float64 { return float64(r.allocsRun) / r.clientHours }), n)
	add("error_rate", "ratio", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted)
	add("cpu_us_per_op", "us/op", mean(func(r *simRep) float64 { return 1e6 * r.cpu / float64(r.out.Ops) }), ops)
	add("allocs_per_op", "allocs/op", mean(func(r *simRep) float64 { return float64(r.allocsOps) / float64(r.out.Ops) }), ops)
	add("heap_peak_mb", "MiB", mean(func(r *simRep) float64 { return r.heapMB }), n)
	add("setup_s", "s", median(setups), n)
	if traced {
		res.layer = map[string]float64{}
		addShares(res.layer, prof)
		res.layer["gc.cpu_fraction"] = mean(func(r *simRep) float64 { return r.gcCPU })
		res.layer["sim.rpc_calls_per_ch"] = mean(func(r *simRep) float64 { return float64(r.out.RPCCalls) / r.clientHours })
		res.layer["sim.break_rpcs_per_ch"] = mean(func(r *simRep) float64 { return float64(r.out.BreakRPCs) / r.clientHours })
		res.layer["sim.net_bytes_per_ch"] = mean(func(r *simRep) float64 { return float64(r.out.NetBytes) / r.clientHours })
		res.layer["sim.cache_hit_ratio"] = mean(func(r *simRep) float64 { return ratio(float64(r.out.Hits), float64(r.out.Opens)) })
	}
	return res, nil
}

// cpuModules are the modules whose CPU shares the traced leg reports; the
// rest fold into cpu.other.
var cpuModules = []string{"secure", "wire", "rpc", "venus", "vice", "walstore", "unixfs",
	"sim", "netsim", "trace", "malloc", "gc", "syscall", "runtime", "bench"}

func addShares(layer map[string]float64, prof *cpuProfile) {
	shares, total := prof.merged.shares()
	other := 1.0
	for _, m := range cpuModules {
		layer["cpu."+m] = shares[m]
		other -= shares[m]
	}
	if total > 0 {
		layer["cpu.other"] = other
	}
	var mods []string
	for m := range shares {
		mods = append(mods, m)
	}
	sort.Slice(mods, func(i, j int) bool { return shares[mods[i]] > shares[mods[j]] })
	fmt.Printf("  cpu by module (%d samples):", total)
	for _, m := range mods {
		fmt.Printf(" %s %.1f%%", m, 100*shares[m])
	}
	fmt.Println()
}
