package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

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
