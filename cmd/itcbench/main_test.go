package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestQuickSuiteGolden pins every table the quick suite prints (E1–E11,
// E13–E16) byte for byte, so a refactor that moves any simulated outcome
// shows up as a diff. Only the wall-clock lines, which vary run to run, are
// dropped. Run with -update to re-record after an intentional change.
func TestQuickSuiteGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d\nstderr:\n%s", code, stderr.String())
	}
	var kept []string
	for _, line := range strings.SplitAfter(stdout.String(), "\n") {
		if !strings.HasSuffix(line, "s wall clock)\n") {
			kept = append(kept, line)
		}
	}
	got := []byte(strings.Join(kept, ""))
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("quick suite output diverged from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestUnknownExperimentFails: an ID that names no experiment is a usage
// error that lists the valid IDs, not a silent run of nothing.
func TestUnknownExperimentFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "E99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown experiment still printed:\n%s", stdout.String())
	}
	for _, want := range []string{`"E99"`, "E1, ", "E4r", "SCALE"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("error %q does not mention %s", stderr.String(), want)
		}
	}
}

// TestQuickFullExclusive: -quick and -full scale the suite in opposite
// directions; together they are a usage error, not a hybrid run.
func TestQuickFullExclusive(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-full", "-run", "E4"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("conflicting flags still printed:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "mutually exclusive") {
		t.Errorf("error %q does not explain the conflict", stderr.String())
	}
}

// TestOutWritesE15Artifacts: -out DIR receives exactly the selected
// experiment's artifacts under their fixed names, and they are not empty.
func TestOutWritesE15Artifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-run", "E15", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d\nstderr:\n%s", code, stderr.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		if info, err := e.Info(); err != nil || info.Size() == 0 {
			t.Errorf("%s is empty (%v)", e.Name(), err)
		}
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), "series.csv series.json timeline.txt"; got != want {
		t.Errorf("artifacts = %s, want %s", got, want)
	}
	if !strings.Contains(stdout.String(), "E15 — ") {
		t.Errorf("E15 report missing from stdout:\n%s", stdout.String())
	}
}
