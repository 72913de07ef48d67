// Command itcbench regenerates the paper's evaluation (§5.2): every
// quantitative claim has an experiment (E1–E17; E12, the chaos suite, runs
// as tests in internal/fault) that runs the corresponding workload on the
// simulated cell and prints a paper-vs-measured table, and SCALE measures
// the simulator itself.
//
// Usage:
//
//	itcbench            # run the standard suite (all but SCALE and E17)
//	itcbench -quick     # scaled-down versions of everything
//	itcbench -full      # the paper-sized deployment (120 WS, 8-hour day)
//	itcbench -run E4    # one experiment (comma-separated list accepted)
//	itcbench -run E13,E15 -out DIR
//	                    # also write the experiments' artifacts to DIR:
//	                    # E13 trace.json (Chrome trace-event JSON of the
//	                    # revised-mode Andrew run; load in Perfetto), E15
//	                    # timeline.txt and series.csv/series.json, SCALE
//	                    # BENCH_scale.json, E17 BENCH_obs.json
//	itcbench -run SCALE -clients 1000,10000 -reps 3
//	                    # -clients sets the client counts of E14, SCALE
//	                    # and E17; -reps the best-of repetitions of the
//	                    # last two
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"itcfs"
	"itcfs/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// artifact is a file an experiment writes under -out.
type artifact struct {
	name  string
	write func(io.Writer) error
}

type experiment struct {
	id string
	fn func() (*harness.Report, []artifact, error)
}

// report adapts an experiment without artifacts.
func report(r *harness.Report, err error) (*harness.Report, []artifact, error) {
	return r, nil, err
}

// run is main with explicit arguments, output streams and exit code, so the
// command line can be tested in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("itcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "scaled-down experiments (fast)")
	full := fs.Bool("full", false, "paper-sized deployment (slow)")
	runIDs := fs.String("run", "", "comma-separated experiment IDs (default: all but SCALE and E17)")
	clientsFlag := fs.String("clients", "", "comma-separated client counts for E14, SCALE and E17")
	reps := fs.Int("reps", 1, "SCALE and E17 measurement repetitions per client count (best-of)")
	out := fs.String("out", "", "directory to write the selected experiments' artifacts to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *quick && *full {
		fmt.Fprintln(stderr, "itcbench: -quick and -full are mutually exclusive")
		return 2
	}
	var clients []int
	if *clientsFlag != "" {
		for _, s := range strings.Split(*clientsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fmt.Fprintf(stderr, "itcbench: bad -clients entry %q\n", s)
				return 2
			}
			clients = append(clients, n)
		}
	}

	scale := 1.0
	if *quick {
		scale = 0.25
	}
	if *full {
		scale = 4.0
	}
	dur := func(d time.Duration) time.Duration { return time.Duration(float64(d) * scale) }
	users := func(n int) int {
		u := int(float64(n) * scale)
		if u < 4 {
			u = 4
		}
		return u
	}

	experiments := []experiment{
		{"E1", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultE1()
			cfg.Load.UsersPer = users(20)
			cfg.Warm = dur(30 * time.Minute)
			cfg.Measure = dur(2 * time.Hour)
			return report(harness.E1CallMix(cfg))
		}},
		{"E2", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultE2()
			if *quick {
				cfg.Load.Clusters = 2
				cfg.Load.UsersPer = 8
			}
			if *full {
				cfg.Measure = 8 * time.Hour
			}
			return report(harness.E2Utilization(cfg))
		}},
		{"E3", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultE3()
			cfg.Load.UsersPer = users(20)
			cfg.Warm = dur(30 * time.Minute)
			cfg.Measure = dur(time.Hour)
			return report(harness.E3HitRatio(cfg))
		}},
		{"E4", func() (*harness.Report, []artifact, error) {
			return report(harness.E4AndrewBenchmark(harness.DefaultE4()))
		}},
		{"E4r", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultE4()
			cfg.Mode = itcfs.Revised
			r, err := harness.E4AndrewBenchmark(cfg)
			if err == nil {
				r.ID = "E4r"
				r.Title += " (revised implementation)"
			}
			return r, nil, err
		}},
		{"E5", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultE5()
			if *quick {
				cfg.LoadWS = []int{0, 10, 20}
			}
			if *full {
				cfg.LoadWS = []int{0, 5, 10, 20, 30, 40, 50}
			}
			return report(harness.E5Scalability(cfg))
		}},
		{"E6", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultE6()
			cfg.UsersPer = users(20)
			cfg.Warm = dur(30 * time.Minute)
			cfg.Measure = dur(time.Hour)
			return report(harness.E6ValidationAblation(cfg))
		}},
		{"E7", func() (*harness.Report, []artifact, error) {
			return report(harness.E7PathnameAblation())
		}},
		{"E8", func() (*harness.Report, []artifact, error) {
			return report(harness.E8WholeFileVsPaged())
		}},
		{"E9", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultE9()
			cfg.Readers = users(10)
			return report(harness.E9ReadOnlyReplication(cfg))
		}},
		{"E10", func() (*harness.Report, []artifact, error) {
			return report(harness.E10Revocation(harness.DefaultE10()))
		}},
		{"E11", func() (*harness.Report, []artifact, error) {
			return report(harness.E11Rebalance(harness.DefaultE11()))
		}},
		{"E13", func() (*harness.Report, []artifact, error) {
			r, revised, err := harness.E13LatencyBreakdown(harness.DefaultE13())
			if err != nil {
				return nil, nil, err
			}
			return r, []artifact{{"trace.json", revised.ExportChrome}}, nil
		}},
		{"E14", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultE14()
			if *quick {
				cfg.Clients = []int{25, 50}
			}
			if clients != nil {
				cfg.Clients = clients
			}
			return report(harness.E14Scalability(cfg))
		}},
		{"E15", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultE15()
			if *quick {
				cfg.Cadence = 15 * time.Second
				cfg.Phase = dur(10 * time.Minute)
				cfg.MoveGrace = 30 * time.Second
			}
			res, err := harness.E15HotVolume(cfg)
			if err != nil {
				return nil, nil, err
			}
			return res.Report, []artifact{
				{"timeline.txt", func(w io.Writer) error {
					_, err := io.WriteString(w, res.Timeline+"\n"+res.Flight)
					return err
				}},
				{"series.csv", res.Cell.Sampler.WriteCSV},
				{"series.json", res.Cell.Sampler.WriteJSON},
			}, nil
		}},
		{"E16", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultE16()
			if *quick {
				cfg.Window = 3 * time.Minute
				cfg.SysFiles = 12
			}
			res, err := harness.E16Replication(cfg)
			if err != nil {
				return nil, nil, err
			}
			return res.Report, nil, nil
		}},
		{"E17", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultE17()
			if clients != nil {
				cfg.Clients = clients
			}
			cfg.Reps = *reps
			ob, err := harness.RunObsBench(cfg)
			if err != nil {
				return nil, nil, err
			}
			return ob.Report(), []artifact{{"BENCH_obs.json", ob.WriteJSON}}, nil
		}},
		{"SCALE", func() (*harness.Report, []artifact, error) {
			cfg := harness.DefaultScaleBench()
			if clients != nil {
				cfg.Clients = clients
			}
			cfg.Quick = *quick
			cfg.Reps = *reps
			sb, err := harness.RunScaleBench(cfg)
			if err != nil {
				return nil, nil, err
			}
			return sb.Report(), []artifact{{"BENCH_scale.json", sb.WriteJSON}}, nil
		}},
	}

	// The default sweep regenerates the paper's evaluation; SCALE and E17
	// measure the simulator itself (minutes at 30k clients) and run only on
	// explicit request.
	want := map[string]bool{}
	for _, e := range experiments {
		want[strings.ToUpper(e.id)] = *runIDs == "" && e.id != "SCALE" && e.id != "E17"
	}
	if *runIDs != "" {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := want[id]; !ok {
				valid := make([]string, len(experiments))
				for i, e := range experiments {
					valid[i] = e.id
				}
				fmt.Fprintf(stderr, "itcbench: unknown experiment %q (valid: %s)\n", id, strings.Join(valid, ", "))
				return 2
			}
			want[id] = true
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "itcbench: %v\n", err)
			return 1
		}
	}

	fmt.Fprintln(stdout, "itcbench — reproduction of 'The ITC Distributed File System' (SOSP 1985), §5.2")
	failed := 0
	for _, e := range experiments {
		if !want[strings.ToUpper(e.id)] {
			continue
		}
		start := time.Now() //itcvet:allow wallclock -- reports how long the experiment took to simulate
		r, artifacts, err := e.fn()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.id, err)
			failed++
			continue
		}
		r.Print(stdout)
		fmt.Fprintf(stdout, "  (%.1fs wall clock)\n", time.Since(start).Seconds()) //itcvet:allow wallclock -- operator-facing elapsed time, not in any result
		if *out == "" {
			continue
		}
		for _, a := range artifacts {
			path := filepath.Join(*out, a.name)
			if err := writeFile(path, a.write); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", e.id, err)
				failed++
				continue
			}
			fmt.Fprintf(stdout, "  wrote %s\n", path)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
