package harness

import (
	"bytes"
	"testing"
)

// e16Text runs E16 and returns the printed report — the surface
// EXPERIMENTS.md quotes — so determinism is checked on exactly what a
// reader sees.
func e16Text(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := DefaultE16()
	cfg.Seed = seed
	// Small but not degenerate: the window must comfortably cover the
	// crash plus enough post-crash reads to distinguish the two legs.
	cfg.Window = 4 * 60 * 1e9 // 4 minutes
	res, err := E16Replication(cfg)
	if err != nil {
		t.Fatalf("E16 (seed %d): %v", seed, err)
	}
	var buf bytes.Buffer
	res.Report.Print(&buf)
	return buf.Bytes()
}

// TestE16Determinism re-runs the replication experiment with one seed and
// demands byte-identical report tables: the release pushes, the crash, the
// failovers, the dedup counters and the Andrew run must all replay exactly.
// A different seed must move the table, or the check is vacuous. The
// experiment's own invariants (zero failed reads on the replicated leg, a
// real outage on the unreplicated one, dedup ratio >= 1.5) are asserted
// inside E16Replication, so a pass here also certifies them twice.
func TestE16Determinism(t *testing.T) {
	a := e16Text(t, 16)
	b := e16Text(t, 16)
	if !bytes.Equal(a, b) {
		t.Errorf("same seed produced different E16 reports:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if len(a) < 200 {
		t.Errorf("E16 report suspiciously small (%d bytes)", len(a))
	}
	c := e16Text(t, 17)
	if bytes.Equal(a, c) {
		t.Error("different seeds produced byte-identical E16 reports; seed is not flowing")
	}
}

// TestE16Claims pins the numbers the report's availability story rests on:
// replica-local readers never even fail over, the custodian's cluster
// keeps reading through failover, and the release actually pushed one
// install per replica.
func TestE16Claims(t *testing.T) {
	cfg := DefaultE16()
	cfg.Window = 4 * 60 * 1e9
	res, err := E16Replication(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Report.Metrics
	if m["failed_replicated"] != 0 {
		t.Errorf("replicated leg failed reads = %v, want 0", m["failed_replicated"])
	}
	if m["failed_unreplicated"] == 0 {
		t.Error("unreplicated leg shows no outage; the experiment proves nothing")
	}
	if m["failovers_replicated"] == 0 {
		t.Error("no failovers on the replicated leg: cluster-0 readers never exercised the fallback path")
	}
	if got, want := m["release_installs"], float64(e16Clusters-1); got != want {
		t.Errorf("release installs = %v, want %v (one per replica)", got, want)
	}
	if res.DedupRatio < 1.5 {
		t.Errorf("dedup ratio = %.2f, want >= 1.5", res.DedupRatio)
	}
	if m["andrew_ok_replicated"] != 1 {
		t.Error("Andrew run over the replicated tree did not complete")
	}
}
