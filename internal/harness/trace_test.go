package harness

import (
	"bytes"
	"os"
	"testing"

	"itcfs"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/workload"
)

func smallAndrew(seed int64) workload.AndrewConfig {
	a := workload.DefaultAndrew()
	a.Seed = seed
	a.Files = 10
	a.Dirs = 2
	return a
}

func TestE13ComponentsSumToTotal(t *testing.T) {
	cfg := DefaultE13()
	cfg.Andrew = smallAndrew(42)
	r, _, err := E13LatencyBreakdown(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Print(os.Stderr)
	for _, mode := range []string{"prototype", "revised"} {
		if se := r.Metrics[mode+"_sum_err"]; se > 0.01 {
			t.Errorf("%s: components miss end-to-end total by %.2f%%, want ≤1%%", mode, 100*se)
		}
		if mc := r.Metrics[mode+"_min_client_ns"]; mc < 0 {
			t.Errorf("%s: negative client residual (%v ns): network/server time over-attributed", mode, mc)
		}
		if r.Metrics[mode+"_server_frac"] <= 0 {
			t.Errorf("%s: no server time attributed at all", mode)
		}
		if r.Metrics[mode+"_net_frac"] <= 0 {
			t.Errorf("%s: no network time attributed at all", mode)
		}
	}
	// The revised design's whole point: less of the end-to-end time is spent
	// waiting on servers than in the prototype.
	if r.Metrics["revised_server_frac"] >= r.Metrics["prototype_server_frac"] {
		t.Errorf("revised server share (%.3f) not below prototype's (%.3f)",
			r.Metrics["revised_server_frac"], r.Metrics["prototype_server_frac"])
	}
}

// tracedRun executes a small traced Andrew benchmark and returns the
// exported Chrome trace bytes.
func tracedRun(t *testing.T, seed int64) []byte {
	t.Helper()
	cell := itcfs.NewCell(itcfs.CellConfig{
		Mode:    itcfs.Revised,
		Trace:   true,
		Metrics: trace.NewRegistry(),
	})
	andrew := smallAndrew(seed)
	var err error
	cell.Run(func(p *sim.Proc) {
		var admin *itcfs.Admin
		if admin, err = cell.Admin(p, 0); err != nil {
			return
		}
		err = admin.NewUser(p, "bench", "pw", 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := cell.AddWorkstation(0, "ws-det")
	cell.Run(func(p *sim.Proc) {
		if err = ws.Login(p, "bench", "pw"); err != nil {
			return
		}
		if _, err = workload.GenerateTree(p, ws.FS, "/vice/usr/bench/src", andrew); err != nil {
			return
		}
		_, err = workload.RunAndrew(p, ws.FS, "/vice/usr/bench/src", "/vice/usr/bench/dst", andrew)
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cell.Tracer.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceDeterminism(t *testing.T) {
	a := tracedRun(t, 7)
	b := tracedRun(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different trace exports (%d vs %d bytes)", len(a), len(b))
	}
	c := tracedRun(t, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced byte-identical traces; the clock or IDs are not flowing")
	}
	if len(a) < 1000 {
		t.Fatalf("trace export suspiciously small (%d bytes): tracing not recording", len(a))
	}
}
