package main

// The two TCP workloads. Both are closed loops: two workstations in this
// process, each with its own Venus and its own authenticated connection,
// each issuing its next whole-file operation only when the last returned.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"itcfs/internal/venus"
)

// tcpSpec sizes one TCP workload.
type tcpSpec struct {
	files     int
	size      int     // bytes per file
	writeFrac float64 // share of ops that overwrite a file
	zipf      float64 // file popularity skew (0 = uniform)
	warmup    int     // unmeasured ops per workstation before each window
}

var (
	// tcpFetch: read-only, uniform over 60 MiB, three times the 20 MiB
	// Venus cache, so about two opens in three miss and fetch 64 KiB.
	tcpFetch = tcpSpec{files: 960, size: 64 << 10, warmup: 500}
	// tcpStore: half overwrites of Zipf-chosen 4 KiB files from a 2 MiB
	// set both caches hold, so writes break the other workstation's
	// callback and its next read of the file refetches.
	tcpStore = tcpSpec{files: 512, size: 4 << 10, writeFrac: 0.5, zipf: 1.1, warmup: 1000}
)

const workstations = 2

// Payload layout: magic, file index, version, CRC-32C of the body, then a
// body generated from (seed, file, version).
const (
	payloadMagic = "ITCB"
	hdrLen       = 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fillPayload writes version ver of file id into buf (grown to size).
func fillPayload(buf []byte, size int, seed int64, id int, ver uint64) []byte {
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	copy(buf, payloadMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(id))
	binary.LittleEndian.PutUint64(buf[8:], ver)
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(id)<<32 ^ ver
	var word [8]byte
	for i := hdrLen; i < size; i += 8 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(word[:], z^z>>31)
		copy(buf[i:], word[:])
	}
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(buf[hdrLen:], castagnoli))
	return buf
}

// checkPayload verifies that data is an intact payload of file id and
// returns its version.
func checkPayload(data []byte, size, id int) (uint64, error) {
	switch {
	case len(data) != size:
		return 0, fmt.Errorf("length %d, want %d", len(data), size)
	case string(data[:4]) != payloadMagic:
		return 0, fmt.Errorf("bad magic %q", data[:4])
	case int(binary.LittleEndian.Uint32(data[4:])) != id:
		return 0, fmt.Errorf("holds file %d", binary.LittleEndian.Uint32(data[4:]))
	case binary.LittleEndian.Uint32(data[16:]) != crc32.Checksum(data[hdrLen:], castagnoli):
		return 0, fmt.Errorf("checksum mismatch")
	}
	return binary.LittleEndian.Uint64(data[8:]), nil
}

// fileVer is the benchmark's record of one file's versions. Overwrites of
// one file are serialized here, so the server's order of acknowledged
// stores is the version order.
type fileVer struct {
	mu      sync.Mutex
	acked   uint64        // guarded by mu; last acknowledged version
	started atomic.Uint64 // highest version any writer has begun to store
}

// tcpRep is one set-up-and-measure repetition.
type tcpRep struct {
	setup     float64 // s
	wall      float64 // s, measured window
	reads     []float64
	writes    []float64 // ms
	attempted int64
	failed    int64
	allocs    uint64
	heapMB    float64 // live heap after a full collection at the window's end
	cpu       float64 // s, process CPU in the window
	recoverS  float64 // tcp_store: reopen time of the durability check
	gcCPU     float64 // collector CPU over total CPU in the window
	venus     venus.Stats
}

// wsLoop is one workstation's measured (or warm-up) loop.
type wsLoop struct {
	ws       *workstation
	r        *rand.Rand
	zipf     *rand.Zipf
	lastSeen []uint64 // per file: newest version this workstation has seen
	buf      []byte
	reads    []float64
	writes   []float64
	attempt  int64
	failed   int64
}

// runTCPRep sets up a fresh cell, warms the caches, measures for the given
// window, and (tcp_store) checks durability after shutdown.
func runTCPRep(spec tcpSpec, seed int64, rep int, window time.Duration, dir string, lay *layers, prof *cpuProfile, ck *checks) (*tcpRep, error) {
	out := &tcpRep{}
	paths := make([]string, spec.files)
	for i := range paths {
		paths[i] = benchDir + "/" + fileName(i)
	}
	files := make([]fileVer, spec.files)
	for i := range files {
		files[i].acked = 1
		files[i].started.Store(1)
	}

	runtime.GC()
	t0 := time.Now()
	cell, err := startCell(dir, lay)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			cell.stop()
		}
		os.RemoveAll(dir)
	}()
	if err := cell.addBenchUser(); err != nil {
		return nil, err
	}
	if err := cell.populate(paths, func(i int, buf []byte) []byte {
		return fillPayload(buf, spec.size, seed, i, 1)
	}); err != nil {
		return nil, err
	}
	loops := make([]*wsLoop, workstations)
	for i := range loops {
		ws := cell.connect(fmt.Sprintf("ws%d", i), benchUser, benchPass)
		defer ws.close()
		if _, err := ws.fs.Stat(nil, benchDir); err != nil {
			return nil, fmt.Errorf("connect ws%d: %w", i, err)
		}
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(rep)*7919 + int64(i)))
		l := &wsLoop{ws: ws, r: r, lastSeen: make([]uint64, spec.files)}
		if spec.zipf > 0 {
			l.zipf = rand.NewZipf(r, spec.zipf, 1, uint64(spec.files-1))
		}
		loops[i] = l
	}
	out.setup = time.Since(t0).Seconds()

	run := func(ops int, deadline time.Time, record bool) {
		var wg sync.WaitGroup
		for _, l := range loops {
			l := l
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ops == 0 || n < ops; n++ {
					if ops == 0 && !time.Now().Before(deadline) {
						return
					}
					l.step(spec, seed, paths, files, lay, record, ck)
				}
			}()
		}
		wg.Wait()
	}
	run(spec.warmup, time.Time{}, false)

	var before []venus.Stats
	for _, l := range loops {
		before = append(before, l.ws.v.Stats())
	}
	if lay != nil {
		lay.on.Store(true)
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	rt0 := readRuntime()
	m0 := time.Now()
	run(0, m0.Add(window), true)
	out.wall = time.Since(m0).Seconds()
	rt1 := readRuntime()
	if lay != nil {
		lay.on.Store(false)
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}
	out.allocs = rt1.allocs - rt0.allocs
	out.cpu = (rt1.procCPU - rt0.procCPU).Seconds()
	out.gcCPU = gcShare(rt0, rt1)
	out.heapMB = liveHeapMB()
	for i, l := range loops {
		out.reads = append(out.reads, l.reads...)
		out.writes = append(out.writes, l.writes...)
		out.attempted += l.attempt
		out.failed += l.failed
		out.venus = addStats(out.venus, subStats(l.ws.v.Stats(), before[i]))
		l.ws.close()
	}
	stopped = true
	if err := cell.stop(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}

	if spec.writeFrac > 0 {
		got, took, err := recoverFiles(dir, spec.files)
		if err != nil {
			ck.fail("durability", "%v", err)
			return out, nil
		}
		out.recoverS = took.Seconds()
		for i := range files {
			want := files[i].acked
			v, err := checkPayload(got[i], spec.size, i)
			if err != nil || v != want {
				ck.fail("durability", "file %d: recovered version %d (%v), acknowledged %d", i, v, err, want)
			}
		}
	}
	return out, nil
}

// step performs one whole-file operation.
func (l *wsLoop) step(spec tcpSpec, seed int64, paths []string, files []fileVer, lay *layers, record bool, ck *checks) {
	write := spec.writeFrac > 0 && l.r.Float64() < spec.writeFrac
	var f int
	if l.zipf != nil {
		f = int(l.zipf.Uint64())
	} else {
		f = l.r.Intn(spec.files)
	}
	own0 := l.ws.own.Load()
	var took time.Duration
	ok := true
	if write {
		fv := &files[f]
		fv.mu.Lock()
		ver := fv.acked + 1
		fv.started.Store(ver)
		l.buf = fillPayload(l.buf, spec.size, seed, f, ver)
		t0 := time.Now()
		err := l.ws.fs.WriteFile(nil, paths[f], l.buf)
		took = time.Since(t0)
		if err == nil {
			fv.acked = ver
			l.lastSeen[f] = ver
		} else {
			ok = false
			ck.fail("op-error", "write %s: %v", paths[f], err)
		}
		fv.mu.Unlock()
	} else {
		t0 := time.Now()
		data, err := l.ws.fs.ReadFile(nil, paths[f])
		took = time.Since(t0)
		switch {
		case err != nil:
			ok = false
			ck.fail("op-error", "read %s: %v", paths[f], err)
		default:
			ok = l.checkRead(spec, f, data, files, ck)
		}
	}
	if !record {
		return
	}
	l.attempt++
	if !ok {
		l.failed++
	}
	ms := float64(took) / float64(time.Millisecond)
	if write {
		l.writes = append(l.writes, ms)
	} else {
		l.reads = append(l.reads, ms)
	}
	if lay != nil {
		lay.add(&lay.venus, took-time.Duration(l.ws.own.Load()-own0))
	}
}

// checkRead verifies a read: the right file, intact, and (tcp_fetch) the
// generated version or (tcp_store) no older than anything this workstation
// has seen and no newer than any store begun.
func (l *wsLoop) checkRead(spec tcpSpec, f int, data []byte, files []fileVer, ck *checks) bool {
	ver, err := checkPayload(data, spec.size, f)
	if err != nil {
		name := "fetch-content"
		if spec.writeFrac > 0 {
			name = "store-payload"
		}
		ck.fail(name, "file %d: %v", f, err)
		return false
	}
	if spec.writeFrac == 0 {
		if ver != 1 {
			ck.fail("fetch-content", "file %d: version %d, generated 1", f, ver)
			return false
		}
		return true
	}
	if ver < l.lastSeen[f] {
		ck.fail("store-monotonic", "file %d: read version %d after seeing %d", f, ver, l.lastSeen[f])
		return false
	}
	if started := files[f].started.Load(); ver > started {
		ck.fail("store-monotonic", "file %d: read version %d, newest begun %d", f, ver, started)
		return false
	}
	l.lastSeen[f] = ver
	return true
}

func subStats(a, b venus.Stats) venus.Stats {
	return venus.Stats{
		Opens: a.Opens - b.Opens, Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		Fetches: a.Fetches - b.Fetches, Stores: a.Stores - b.Stores,
		CallbackBreaks: a.CallbackBreaks - b.CallbackBreaks,
	}
}

func addStats(a, b venus.Stats) venus.Stats {
	return venus.Stats{
		Opens: a.Opens + b.Opens, Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses,
		Fetches: a.Fetches + b.Fetches, Stores: a.Stores + b.Stores,
		CallbackBreaks: a.CallbackBreaks + b.CallbackBreaks,
	}
}
