package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"itcfs"
	"itcfs/internal/fault"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestKernelRefactorEquivalence pins the end-to-end behavior of the sim
// kernel across refactors. The goldens under testdata/ were recorded from
// the pre-refactor kernel (one goroutine per process, single global event
// heap, one heap pop per event); any kernel, mailbox, resource or netsim
// change that reorders a single event, shifts a virtual timestamp, or
// perturbs a seeded random stream shows up here as a byte diff against
// them. Two slices cover the two behavioral extremes:
//
//   - E12: the chaos harness — fault injection, retries, duplicate
//     suppression, a full server crash/restart — where event order decides
//     which frames the injector's seeded schedule drops.
//   - E14: the scalability mix — thousands of same-instant callback events,
//     coalescing flushers, concurrent install bursts — where same-instant
//     FIFO order decides batch contents.
//
// Three more pin the harness drivers themselves, so a refactor of how cells
// are provisioned and driven cannot move an outcome: the E15 quick run's
// every text surface, the E17 breach record, and a sharded campus (the
// quick E14 mix at 1,100 clients over three clusters) as virtual elapsed
// time plus the full metrics registry.
//
// Run with -update to re-record after an intentional behavior change (never
// as part of a kernel performance refactor).
func TestKernelRefactorEquivalence(t *testing.T) {
	compareGolden(t, "equivalence_e12.golden", e12Fingerprint(t, 1985))
	compareGolden(t, "equivalence_e14.golden", e14Fingerprint(t, 14))
	compareGolden(t, "equivalence_e15.golden", e15Fingerprint(t))
	compareGolden(t, "equivalence_e17_breach.golden", e17BreachFingerprint(t))
	compareGolden(t, "equivalence_campus.golden", campusFingerprint(t, 1100))
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("kernel behavior diverged from pre-refactor golden %s\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// e12Fingerprint runs a compact chaos slice — the Andrew workload under a
// seeded fault injector with one mid-run server crash/restart — and renders
// every order-sensitive surface: the injector's fault schedule (which
// frames it dropped/duplicated/corrupted/delayed depends on exact frame
// order), frame-conservation counters, RPC retry/dup counts, and per-
// workstation cache stats.
func e12Fingerprint(t *testing.T, seed int64) []byte {
	t.Helper()
	cell := itcfs.NewCell(itcfs.CellConfig{
		Mode:        itcfs.Revised,
		Clusters:    1,
		Costs:       &itcfs.CostConfig{},
		CallTimeout: 10 * time.Second,
		Retry: rpc.RetryPolicy{
			Attempts:   6,
			Backoff:    2 * time.Second,
			MaxBackoff: 20 * time.Second,
			Jitter:     0.3,
			Seed:       seed,
		},
		CallbackTTL:      2 * time.Minute,
		ReconnectRetries: 3,
	})

	var err error
	cell.Run(func(p *sim.Proc) {
		admin, aerr := cell.Admin(p, 0)
		if aerr != nil {
			err = aerr
			return
		}
		err = admin.NewUser(p, "satya", "pw", 0)
	})
	if err != nil {
		t.Fatalf("provision: %v", err)
	}
	ws1 := cell.AddWorkstation(0, "ws-a")
	ws2 := cell.AddWorkstation(0, "ws-b")
	wcfg := workload.AndrewConfig{Seed: seed, Files: 10, Dirs: 2, MeanFileBytes: 512}
	cell.Run(func(p *sim.Proc) {
		if err = ws1.Login(p, "satya", "pw"); err != nil {
			return
		}
		if err = ws2.Login(p, "satya", "pw"); err != nil {
			return
		}
		_, err = workload.GenerateTree(p, ws1.FS, "/src", wcfg)
	})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}

	inj := fault.New(fault.Config{
		Seed:        seed,
		DropProb:    0.05,
		DupProb:     0.05,
		CorruptProb: 0.03,
		DelayProb:   0.10,
		MaxDelay:    2 * time.Second,
	})
	cell.Net.SetFaultInjector(inj)
	inj.SetActive(true)
	cell.Kernel.Spawn("chaos-crash", func(p *sim.Proc) {
		p.Sleep(45 * time.Second)
		cell.CrashServer(0)
		p.Sleep(30 * time.Second)
		cell.RestartServer(0)
	})
	var runErr error
	cell.Run(func(p *sim.Proc) {
		_, runErr = workload.RunAndrew(p, ws1.FS, "/src", "/vice/usr/satya/andrew", wcfg)
	})
	if runErr != nil {
		t.Fatalf("andrew under faults: %v", runErr)
	}
	inj.SetActive(false)

	var retries, dupSuppressed int64
	retries += cell.Servers[0].Endpoint.Retries()
	dupSuppressed += cell.Servers[0].Endpoint.DupSuppressed()
	var wsStats []string
	for _, ws := range cell.Workstations() {
		retries += ws.Endpoint.Retries()
		dupSuppressed += ws.Endpoint.DupSuppressed()
		s := ws.Venus.Stats()
		wsStats = append(wsStats, fmt.Sprintf(
			"  %s: opens=%d hits=%d misses=%d fetches=%d stores=%d degraded=%d reconnects=%d",
			ws.Name, s.Opens, s.Hits, s.Misses, s.Fetches, s.Stores, s.DegradedReads, s.Reconnects))
	}
	sort.Strings(wsStats)
	net := cell.Net
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "E12 slice (seed %d) at %v\n", seed, cell.Kernel.Now())
	fmt.Fprintf(&buf, "frames: offered=%d delivered=%d partition=%d fault=%d down=%d dup=%d corrupt=%d delay=%d\n",
		net.Offered(), net.Delivered(), net.Drops(), net.FaultDrops(), net.DownDrops(),
		net.FaultDups(), net.FaultCorrupts(), net.FaultDelays())
	fmt.Fprintf(&buf, "rpc: retries=%d dup-suppressed=%d restarts=%d\n", retries, dupSuppressed,
		cell.Servers[0].Vice.Restarts())
	buf.WriteString(strings.Join(wsStats, "\n"))
	buf.WriteString("\nfault schedule:\n")
	buf.WriteString(inj.Report())
	return buf.Bytes()
}

// e14Fingerprint reuses the determinism surface: the printed E14 report
// table at a small population, batched and unbatched planes both included.
func e14Fingerprint(t *testing.T, seed int64) []byte {
	t.Helper()
	return e14Text(t, seed)
}

// e15Fingerprint is the E15 quick run's report, dashboard, flight recorder
// and CSV series.
func e15Fingerprint(t *testing.T) []byte {
	t.Helper()
	res, err := E15HotVolume(e15Quick(1))
	if err != nil {
		t.Fatalf("E15: %v", err)
	}
	return e15Text(t, res)
}

// e17BreachFingerprint renders the default E17 breach leg's whole record.
func e17BreachFingerprint(t *testing.T) []byte {
	t.Helper()
	br, err := e17Breach(e17BreachShape())
	if err != nil {
		t.Fatalf("E17 breach: %v", err)
	}
	return []byte(fmt.Sprintf("%+v\n", *br))
}

// campusFingerprint drives the quick E14 mix over a sharded campus of n
// clients and renders the virtual time the client phase took plus the
// metrics registry.
func campusFingerprint(t *testing.T, n int) []byte {
	t.Helper()
	run, err := runCampus(quickE14(), n, shards(n), nil)
	if err != nil {
		t.Fatalf("campus at %d clients: %v", n, err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "campus %d clients, %d clusters, elapsed %v\n", n, len(run.cell.Servers), run.elapsed)
	run.cell.Metrics.WriteText(&buf)
	return buf.Bytes()
}
