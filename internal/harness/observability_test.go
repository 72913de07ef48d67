package harness

import (
	"strings"
	"testing"

	"itcfs/internal/trace"
)

// e17Small shrinks the ablation to one small cluster so the smoke test runs
// in seconds; the committed BENCH_obs.json carries the 10k/30k numbers.
func e17Small() E17Config {
	cfg := DefaultE17()
	cfg.Clients = []int{120}
	cfg.Reps = 1
	cfg.Rate = 64 // small population still keeps a visible sampled fraction
	return cfg
}

func TestE17ObsBenchSmoke(t *testing.T) {
	ob, err := RunObsBench(e17Small())
	if err != nil {
		t.Fatal(err)
	}
	if ob.Schema != "itcfs-bench-obs/v1" || len(ob.Points) != 1 {
		t.Fatalf("schema %q with %d points", ob.Schema, len(ob.Points))
	}
	pt := ob.Points[0]
	if len(pt.Legs) != 3 {
		t.Fatalf("legs = %d, want off/sampled/full", len(pt.Legs))
	}
	off, sampled, full := pt.Legs[0], pt.Legs[1], pt.Legs[2]
	if off.Mode != "off" || sampled.Mode != "sampled" || full.Mode != "full" {
		t.Fatalf("leg order = %s/%s/%s", off.Mode, sampled.Mode, full.Mode)
	}
	if off.SpansKept != 0 {
		t.Errorf("tracing-off leg kept %d spans", off.SpansKept)
	}
	if full.SpansKept == 0 {
		t.Error("full leg kept no spans")
	}
	if sampled.SpansKept >= full.SpansKept {
		t.Errorf("sampled kept %d spans, full kept %d — sampling retained too much",
			sampled.SpansKept, full.SpansKept)
	}
	if pt.ClientHours <= 0 {
		t.Errorf("client hours = %v", pt.ClientHours)
	}

	br := ob.Breach
	if br == nil || br.Breaches == 0 {
		t.Fatalf("breach leg fired no slo.breach events: %+v", br)
	}
	if br.HotNode != br.SaturatedServer {
		t.Errorf("breach blamed %q, load design saturates %q", br.HotNode, br.SaturatedServer)
	}
	for _, want := range []string{"class=" + trace.SpanVenusOpen, "burn=", "path[client=", "hot=" + br.SaturatedServer} {
		if !strings.Contains(br.FirstDetail, want) {
			t.Errorf("breach detail %q missing %q", br.FirstDetail, want)
		}
	}
	if br.BurnMilliPeak < 2000 {
		t.Errorf("peak burn = %dm, want >= breach threshold 2000m", br.BurnMilliPeak)
	}
	if !br.Recovered {
		t.Error("breach episode never recovered after the hot phase ended")
	}
	if !strings.Contains(br.AdvisorReason, "slo burn") {
		t.Errorf("advisor reason %q does not cite the SLO burn", br.AdvisorReason)
	}

	rep := ob.Report()
	if rep.Metrics["breaches"] < 1 || rep.Metrics["breach_named_saturated_server"] != 1 {
		t.Errorf("report metrics = %+v", rep.Metrics)
	}
}

// TestE17SamplingInert is the tentpole's perturbation guard in isolation:
// turning the tracer on — sampled or full — must not shift the virtual
// timeline or any metric count of the identical workload. It runs a
// two-cluster campus so the guard covers the sharded driver path (load0…k-1,
// arrival ramp) that the 10k/30k legs measure.
func TestE17SamplingInert(t *testing.T) {
	cfg := e17Small()
	var legs [3]cost
	for i, mode := range obsLegModes {
		c, err := measure(quickE14(), 120, 2, 1, cfg.traceMode(mode))
		if err != nil {
			t.Fatalf("%s leg: %v", mode, err)
		}
		legs[i] = c
		if c.wall < 0 {
			t.Fatalf("%s leg wall = %v", mode, c.wall)
		}
	}
	for i := 1; i < 3; i++ {
		if legs[i].elapsed != legs[0].elapsed {
			t.Errorf("%s leg virtual time %v != off %v", obsLegModes[i], legs[i].elapsed, legs[0].elapsed)
		}
		if legs[i].registry != legs[0].registry {
			t.Errorf("%s leg metrics registry diverged from off", obsLegModes[i])
		}
	}
}

// TestE17BreachDeterminism reruns the breach leg and requires every surfaced
// string and number to match byte-for-byte — the flight event detail embeds
// trace IDs and durations, all of which must be seed-stable.
func TestE17BreachDeterminism(t *testing.T) {
	cfg := e17BreachShape()
	a, err := e17Breach(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e17Breach(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("breach runs diverged:\n  %+v\n  %+v", a, b)
	}
}
