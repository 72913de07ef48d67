package main

// CPU attribution per module. runtime/pprof writes a gzipped protobuf
// profile (github.com/google/pprof/proto/profile.proto); this file decodes
// the few fields attribution needs — samples, locations, functions and the
// string table — and charges each sample to one module by the rules in
// moduleOf.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profile is a decoded CPU profile: each sample's stack as function names,
// leaf first, with its sample count.
type profile struct {
	stacks [][]string
	counts []int64
}

// pbMsg iterates the fields of one protobuf message.
type pbMsg struct {
	b []byte
}

var errProfile = errors.New("perfbench: malformed profile")

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (m *pbMsg) next() (field int, wt int, v uint64, payload []byte, err error) {
	key, n := binary.Uvarint(m.b)
	if n <= 0 {
		return 0, 0, 0, nil, errProfile
	}
	m.b = m.b[n:]
	field, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, n = binary.Uvarint(m.b)
		if n <= 0 {
			return 0, 0, 0, nil, errProfile
		}
		m.b = m.b[n:]
	case 1:
		if len(m.b) < 8 {
			return 0, 0, 0, nil, errProfile
		}
		v = binary.LittleEndian.Uint64(m.b)
		m.b = m.b[8:]
	case 2:
		l, n := binary.Uvarint(m.b)
		if n <= 0 || uint64(len(m.b)-n) < l {
			return 0, 0, 0, nil, errProfile
		}
		payload = m.b[n : n+int(l)]
		m.b = m.b[n+int(l):]
	case 5:
		if len(m.b) < 4 {
			return 0, 0, 0, nil, errProfile
		}
		v = uint64(binary.LittleEndian.Uint32(m.b))
		m.b = m.b[4:]
	default:
		return 0, 0, 0, nil, errProfile
	}
	return field, wt, v, payload, nil
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wt int, v uint64, payload []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, errProfile
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples  []sample
		locLines = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	m := pbMsg{raw}
	for len(m.b) > 0 {
		field, wt, _, payload, err := m.next()
		if err != nil {
			return nil, err
		}
		sub := pbMsg{payload}
		switch {
		case field == 2 && wt == 2: // Sample
			var s sample
			for len(sub.b) > 0 {
				f, w, v, p, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, v, p)
				case 2:
					s.vals, err = uints(s.vals, w, v, p)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case field == 4 && wt == 2: // Location
			var id uint64
			var fns []uint64
			for len(sub.b) > 0 {
				f, _, v, p, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					line := pbMsg{p}
					for len(line.b) > 0 {
						lf, _, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case field == 5 && wt == 2: // Function
			var id, name uint64
			for len(sub.b) > 0 {
				f, _, v, _, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case field == 6 && wt == 2: // string_table
			strs = append(strs, string(payload))
		}
	}
	p := &profile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		var n int64 = 1
		if len(s.vals) > 0 {
			n = int64(s.vals[0])
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, n)
	}
	return p, nil
}

// gcFrames and mallocFrames mark runtime work charged to the collector and
// the allocator wherever in the program it happens.
var (
	gcFrames     = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.scanobject", "runtime.gcDrain"}
	mallocFrames = []string{"runtime.mallocgc"}
	sysFrames    = []string{"syscall.", "internal/poll.", "runtime.netpoll"}
)

func anyFrame(stack []string, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// moduleOf charges one stack (leaf first) to a module: "gc" and "malloc"
// for collector and allocator work anywhere, "syscall" for socket and file
// system calls, else the innermost itcfs package ("secure" includes the
// crypto it calls, "wire" the copies it makes), else "runtime" or "other".
func moduleOf(stack []string) string {
	switch {
	case anyFrame(stack, gcFrames):
		return "gc"
	case anyFrame(stack, mallocFrames):
		return "malloc"
	case anyFrame(stack, sysFrames):
		return "syscall"
	}
	for _, fn := range stack {
		if pkg, ok := itcfsPackage(fn); ok {
			return pkg
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		return "runtime"
	}
	return "other"
}

// itcfsPackage maps a function name to its itcfs module: the last element
// of an internal package path ("itcfs/internal/store/walstore.(*Store).Sync"
// is "walstore"), "cell" for the root package and "bench" for this
// benchmark's own code (package main, or itcfs/perfbench in its tests).
func itcfsPackage(fn string) (string, bool) {
	var path string
	switch {
	case strings.HasPrefix(fn, "itcfs/internal/"):
		path = strings.TrimPrefix(fn, "itcfs/internal/")
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "itcfs/perfbench."):
		return "bench", true
	case strings.HasPrefix(fn, "itcfs."):
		return "cell", true
	default:
		return "", false
	}
	if i := strings.IndexByte(path, '.'); i >= 0 {
		path = path[:i]
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path, true
}

// shares returns each module's share of the profile's samples.
func (p *profile) shares() (map[string]float64, int64) {
	by := map[string]int64{}
	var total int64
	for i, st := range p.stacks {
		by[moduleOf(st)] += p.counts[i]
		total += p.counts[i]
	}
	out := map[string]float64{}
	for k, v := range by {
		if total > 0 {
			out[k] = float64(v) / float64(total)
		}
	}
	return out, total
}

// cpuProfile accumulates CPU profiles over the traced windows of a leg.
type cpuProfile struct {
	buf    bytes.Buffer
	merged profile
}

func (c *cpuProfile) start() error {
	c.buf.Reset()
	return pprof.StartCPUProfile(&c.buf)
}

func (c *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	p, err := parseProfile(c.buf.Bytes())
	if err != nil {
		return err
	}
	c.merged.stacks = append(c.merged.stacks, p.stacks...)
	c.merged.counts = append(c.merged.counts, p.counts...)
	return nil
}
