package main

import (
	"strings"
	"testing"
	"time"
)

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestParseProfileFindsHotFunction(t *testing.T) {
	var c cpuProfile
	if err := c.start(); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	if err := c.stop(); err != nil {
		t.Fatal(err)
	}
	shares, total := c.merged.shares()
	if total == 0 {
		t.Skip("profile recorded no samples")
	}
	found := false
	for _, st := range c.merged.stacks {
		for _, fn := range st {
			found = found || strings.HasSuffix(fn, ".spinForProfile")
		}
	}
	if !found || shares["bench"] < 0.5 {
		t.Fatalf("spin loop not attributed: found=%v shares=%v", found, shares)
	}
}

func TestModuleOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/sha256.block", "crypto/hmac.(*hmac).Write", "itcfs/internal/secure.(*Box).Seal", "itcfs/internal/rpc.(*Peer).writeSealed"}, "secure"},
		{[]string{"runtime.memmove", "itcfs/internal/wire.ReadFrame"}, "wire"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "itcfs/internal/wire.ReadFrame"}, "malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "itcfs/internal/wire.WriteFrame"}, "syscall"},
		{[]string{"itcfs/internal/store/walstore.(*Store).Commit"}, "walstore"},
		{[]string{"sort.Slice", "itcfs.(*Cell).Run"}, "cell"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "runtime"},
		{[]string{"sort.Slice"}, "other"},
		{nil, "other"},
	} {
		if got := moduleOf(tc.stack); got != tc.want {
			t.Errorf("moduleOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}
