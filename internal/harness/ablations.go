package harness

import (
	"fmt"
	"time"

	"itcfs"
	"itcfs/internal/baseline"
	"itcfs/internal/netsim"
	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
)

// E6Config sizes the validation-policy ablation.
type E6Config struct {
	UsersPer int
	Warm     time.Duration
	Measure  time.Duration
}

// DefaultE6 returns the standard configuration.
func DefaultE6() E6Config {
	return E6Config{UsersPer: 20, Warm: 30 * time.Minute, Measure: time.Hour}
}

// E6ValidationAblation compares the prototype's check-on-open validation
// against the revised callback scheme under identical load. The paper
// concluded from the prototype's 65%-validation call mix that "major
// performance improvement is possible if cache validity checks are
// minimized" (§5.2) — this experiment quantifies that conclusion.
func E6ValidationAblation(cfg E6Config) (*Report, error) {
	r := newReport("E6", "Check-on-open vs callback invalidation (identical load)",
		"prototype validation traffic dominates; callbacks eliminate it (§3.2, §5.2)",
		"metric", "check-on-open", "callback")
	type side struct {
		calls    int64
		valid    float64
		cpu      float64
		breaks   int64
		promises int64
	}
	var sides [2]side
	for i, mode := range []itcfs.Mode{itcfs.Prototype, itcfs.Revised} {
		load := DefaultLoad(mode)
		load.UsersPer = cfg.UsersPer
		lc, err := BuildLoadedCell(load)
		if err != nil {
			return nil, err
		}
		if err := lc.Drive(load, cfg.Warm, cfg.Measure); err != nil {
			return nil, err
		}
		mix, total := lc.CallMix()
		cpu, _ := lc.windowUtil(lc.Cell.Servers[0])
		promised, breaks := lc.Cell.Servers[0].Vice.Callbacks().Stats()
		sides[i] = side{
			calls:    total,
			valid:    mix["TestValid (cache validity)"],
			cpu:      cpu,
			breaks:   breaks,
			promises: promised,
		}
	}
	r.addRow("total server calls", fmt.Sprintf("%d", sides[0].calls), fmt.Sprintf("%d", sides[1].calls))
	r.addRow("validation share", pct(sides[0].valid), pct(sides[1].valid))
	r.addRow("server CPU", pct(sides[0].cpu), pct(sides[1].cpu))
	r.addRow("callback promises", "0", fmt.Sprintf("%d", sides[1].promises))
	r.addRow("callback breaks", "0", fmt.Sprintf("%d", sides[1].breaks))
	r.Metrics["calls_proto"] = float64(sides[0].calls)
	r.Metrics["calls_revised"] = float64(sides[1].calls)
	r.Metrics["call_reduction"] = 1 - float64(sides[1].calls)/float64(sides[0].calls)
	r.Metrics["cpu_proto"] = sides[0].cpu
	r.Metrics["cpu_revised"] = sides[1].cpu
	return r, nil
}

// The pathname-traversal ablation's size: e7Users workstations each stat a
// file e7Depth directories deep e7OpsEach times.
const (
	e7Users   = 10
	e7Depth   = 6
	e7OpsEach = 150
)

// E7PathnameAblation measures server-side pathname traversal (prototype)
// against client-side traversal with FIDs (revised): "the offloading of
// pathname traversal from servers to clients will reduce the utilization of
// the server CPU and hence improve the scalability of our design" (§5.3).
func E7PathnameAblation() (*Report, error) {
	r := newReport("E7", "Server-side vs client-side pathname traversal",
		"moving traversal to workstations cuts server CPU per operation (§5.3)",
		"metric", "prototype (server walks)", "revised (FIDs)")
	type side struct {
		walked    int64
		cpu       time.Duration
		calls     int64
		perOpCPU  time.Duration
		elapsedWS time.Duration
	}
	var sides [2]side
	for i, mode := range []itcfs.Mode{itcfs.Prototype, itcfs.Revised} {
		cell := itcfs.NewCell(itcfs.CellConfig{Mode: mode, Clusters: 1})
		err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
			return admin.NewUser(p, "deep", "pw", 0)
		})
		if err != nil {
			return nil, err
		}
		// Build a deep directory chain and a file at the bottom.
		dir := "/vice/usr/deep"
		setup := cell.AddWorkstation(0, "setup")
		cell.Run(func(p *sim.Proc) {
			if err = setup.Login(p, "deep", "pw"); err != nil {
				return
			}
			for d := 0; d < e7Depth; d++ {
				dir = fmt.Sprintf("%s/d%d", dir, d)
				if err = setup.FS.Mkdir(p, dir, 0o755); err != nil {
					return
				}
			}
			err = setup.FS.WriteFile(p, dir+"/leaf", []byte("deep data"))
		})
		if err != nil {
			return nil, err
		}
		leaf := dir + "/leaf"
		srv := cell.Servers[0]
		cpu0 := srv.CPU.BusyTime()
		_, _, walked0 := srv.Vice.TrafficStats()
		calls0 := srv.Endpoint.CallsTotal()
		start := cell.Now()
		for u := 0; u < e7Users; u++ {
			ws := cell.AddWorkstation(0, fmt.Sprintf("deep-ws%d", u))
			cell.Run(func(p *sim.Proc) {
				if lerr := ws.Login(p, "deep", "pw"); lerr != nil {
					err = lerr
					return
				}
				for op := 0; op < e7OpsEach; op++ {
					if _, serr := ws.FS.Stat(p, leaf); serr != nil {
						err = serr
						return
					}
				}
			})
			if err != nil {
				return nil, err
			}
		}
		_, _, walked1 := srv.Vice.TrafficStats()
		calls := srv.Endpoint.CallsTotal() - calls0
		cpu := srv.CPU.BusyTime() - cpu0
		sides[i] = side{
			walked:    walked1 - walked0,
			cpu:       cpu,
			calls:     calls,
			perOpCPU:  cpu / time.Duration(e7Users*e7OpsEach),
			elapsedWS: cell.Now().Sub(start),
		}
	}
	r.addRow("components walked on server",
		fmt.Sprintf("%d", sides[0].walked), fmt.Sprintf("%d", sides[1].walked))
	r.addRow("server CPU total",
		sides[0].cpu.Round(time.Millisecond).String(), sides[1].cpu.Round(time.Millisecond).String())
	r.addRow("server CPU per stat",
		sides[0].perOpCPU.Round(time.Microsecond).String(), sides[1].perOpCPU.Round(time.Microsecond).String())
	r.addRow("server calls",
		fmt.Sprintf("%d", sides[0].calls), fmt.Sprintf("%d", sides[1].calls))
	r.Metrics["walked_proto"] = float64(sides[0].walked)
	r.Metrics["walked_revised"] = float64(sides[1].walked)
	r.Metrics["cpu_per_op_proto_ms"] = float64(sides[0].perOpCPU) / float64(time.Millisecond)
	r.Metrics["cpu_per_op_revised_ms"] = float64(sides[1].perOpCPU) / float64(time.Millisecond)
	r.Metrics["cpu_saving"] = 1 - float64(sides[1].cpu)/float64(sides[0].cpu)
	return r, nil
}

// The transfer-granularity ablation's size.
const (
	e8FileKB   = 128 // size of the sequentially-read file
	e8Rereads  = 5   // how many times the same file is re-read
	e8BigMB    = 4   // size of the partially-read file
	e8PartialB = 256 // bytes read out of the big file
)

// E8WholeFileVsPaged compares whole-file transfer with caching against
// page-at-a-time remote access: "the total network protocol overhead in
// transmitting a file is lower when it is sent en masse" and custodians are
// contacted only on opens and closes (§3.2). The partial-access row shows
// the honest flip side that bounds the design to files of a few megabytes.
func E8WholeFileVsPaged() (*Report, error) {
	// Whole-file side: a standard cell.
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Revised, Clusters: 1})
	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		return admin.NewUser(p, "u", "pw", 0)
	})
	if err != nil {
		return nil, err
	}
	ws := cell.AddWorkstation(0, "ws")
	seq := make([]byte, e8FileKB<<10)
	big := make([]byte, e8BigMB<<20)
	var wholeSeq, wholeRe, wholePartial time.Duration
	cell.Run(func(p *sim.Proc) {
		if err = ws.Login(p, "u", "pw"); err != nil {
			return
		}
		if err = ws.FS.WriteFile(p, "/vice/usr/u/seq", seq); err != nil {
			return
		}
		if err = ws.FS.WriteFile(p, "/vice/usr/u/big", big); err != nil {
			return
		}
	})
	if err != nil {
		return nil, err
	}
	// Fresh workstation: cold cache for the measured reads.
	cold := cell.AddWorkstation(0, "cold")
	var wholeSeqBytes int64
	cell.Run(func(p *sim.Proc) {
		if err = cold.Login(p, "u", "pw"); err != nil {
			return
		}
		t0 := p.Now()
		lan0 := cell.Clusters[0].LAN.Bytes()
		if _, err = cold.FS.ReadFile(p, "/vice/usr/u/seq"); err != nil {
			return
		}
		wholeSeqBytes = cell.Clusters[0].LAN.Bytes() - lan0
		wholeSeq = p.Now().Sub(t0)
		t0 = p.Now()
		for i := 0; i < e8Rereads; i++ {
			if _, err = cold.FS.ReadFile(p, "/vice/usr/u/seq"); err != nil {
				return
			}
		}
		wholeRe = p.Now().Sub(t0) / time.Duration(e8Rereads)
		// Partial access: whole-file caching must fetch all of it.
		t0 = p.Now()
		f, oerr := cold.FS.Open(p, "/vice/usr/u/big", itcfs.FlagRead)
		if oerr != nil {
			err = oerr
			return
		}
		buf := make([]byte, e8PartialB)
		if _, err = f.ReadAt(buf, 1<<20); err != nil {
			return
		}
		f.Close(p)
		wholePartial = p.Now().Sub(t0)
	})
	if err != nil {
		return nil, err
	}
	wsCalls := cell.Servers[0].Endpoint.CallsTotal()

	// Page side: a dedicated page server on an identical network.
	k := sim.NewKernel()
	net := netsim.New(k, netsim.ITCDefaults())
	cl := net.AddCluster("c0")
	sn := net.AddNode("pgserver", cl)
	cn := net.AddNode("client", cl)
	psrv := baseline.NewServer(unixfs.New(nil))
	key := secure.DeriveKey("u", "pw")
	costs := itcfs.DefaultCosts()
	cpu := sim.NewResource(k, "pg-cpu")
	disk := sim.NewResource(k, "pg-disk")
	// The page server pays the same per-call fixed cost a light Vice call
	// does (dispatch, process switch, request handling) and the same
	// per-byte costs, so the comparison isolates protocol structure.
	pageOpCPU := costs.BaseCPU + costs.ProcessSwitch + costs.ValidCPU
	rpc.NewEndpoint(net, sn, rpc.EndpointConfig{
		Keys:   func(user string) (secure.Key, bool) { return key, user == "u" },
		Server: psrv.Dispatcher(),
		Meters: rpc.Meters{CPU: cpu, Disk: disk},
		Model:  baseline.Costs(pageOpCPU, costs.PerKBCPU, costs.FetchDisk, costs.PerKBDisk),
	})
	cep := rpc.NewEndpoint(net, cn, rpc.EndpointConfig{})
	if err := psrv.FS().WriteFile("/seq", seq, 0o644, ""); err != nil {
		return nil, err
	}
	if err := psrv.FS().WriteFile("/big", big, 0o644, ""); err != nil {
		return nil, err
	}
	var pageSeq, pageRe, pagePartial time.Duration
	var pageSeqBytes int64
	var pageErr error
	k.Spawn("client", func(p *sim.Proc) {
		conn, derr := cep.Dial(p, sn.ID, "u", key)
		if derr != nil {
			pageErr = derr
			return
		}
		c := baseline.NewClient(conn)
		t0 := p.Now()
		lan0 := cl.LAN.Bytes()
		if _, pageErr = c.ReadFile(p, "/seq"); pageErr != nil {
			return
		}
		pageSeqBytes = cl.LAN.Bytes() - lan0
		pageSeq = p.Now().Sub(t0)
		t0 = p.Now()
		for i := 0; i < e8Rereads; i++ {
			if _, pageErr = c.ReadFile(p, "/seq"); pageErr != nil {
				return
			}
		}
		pageRe = p.Now().Sub(t0) / time.Duration(e8Rereads)
		t0 = p.Now()
		f, oerr := c.Open(p, "/big", false)
		if oerr != nil {
			pageErr = oerr
			return
		}
		buf := make([]byte, e8PartialB)
		if _, pageErr = f.ReadAt(p, buf, 1<<20); pageErr != nil {
			return
		}
		f.Close(p)
		pagePartial = p.Now().Sub(t0)
	})
	k.Run()
	if pageErr != nil {
		return nil, pageErr
	}
	_, pgReads, _ := psrv.OpCounts()

	r := newReport("E8", "Whole-file transfer + caching vs page-at-a-time access",
		"whole-file wins on protocol overhead and repeat access; paging only wins partial reads of huge files (§2.2, §3.2)",
		"scenario", "whole-file", "page-at-a-time")
	r.addRow(fmt.Sprintf("first sequential read (%d KB)", e8FileKB),
		wholeSeq.Round(time.Millisecond).String(), pageSeq.Round(time.Millisecond).String())
	r.addRow("re-read (cached)",
		wholeRe.Round(time.Millisecond).String(), pageRe.Round(time.Millisecond).String())
	r.addRow(fmt.Sprintf("read %d B of a %d MB file (cold)", e8PartialB, e8BigMB),
		wholePartial.Round(time.Millisecond).String(), pagePartial.Round(time.Millisecond).String())
	r.addRow("network bytes, first read",
		fmt.Sprintf("%d", wholeSeqBytes), fmt.Sprintf("%d", pageSeqBytes))
	r.addRow("server calls (whole run)",
		fmt.Sprintf("%d", wsCalls), fmt.Sprintf("%d page reads", pgReads))
	r.Metrics["whole_seq_ms"] = float64(wholeSeq) / float64(time.Millisecond)
	r.Metrics["page_seq_ms"] = float64(pageSeq) / float64(time.Millisecond)
	r.Metrics["whole_reread_ms"] = float64(wholeRe) / float64(time.Millisecond)
	r.Metrics["page_reread_ms"] = float64(pageRe) / float64(time.Millisecond)
	r.Metrics["whole_partial_ms"] = float64(wholePartial) / float64(time.Millisecond)
	r.Metrics["page_partial_ms"] = float64(pagePartial) / float64(time.Millisecond)
	return r, nil
}

// E9Config sizes the replication experiment.
type E9Config struct {
	Readers  int // workstations in the second cluster reading binaries
	Binaries int
	Reads    int // reads per workstation
}

// DefaultE9 returns the standard configuration.
func DefaultE9() E9Config {
	return E9Config{Readers: 10, Binaries: 12, Reads: 30}
}

// E9ReadOnlyReplication measures read-only replication of system binaries:
// without it, every fetch from another cluster crosses the backbone and
// lands on the custodian; with a replica on the local cluster server, reads
// are served locally, balancing load and cutting cross-cluster traffic
// (§3.2, §4 "localize if possible").
func E9ReadOnlyReplication(cfg E9Config) (*Report, error) {
	run := func(replicate bool) (backbone int64, custodianFetch, replicaFetch int64, mean time.Duration, err error) {
		cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Revised, Clusters: 2})
		err = asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
			if err := admin.MkdirAll(p, "/unix"); err != nil {
				return err
			}
			vid, err := admin.CreateVolume(p, "sys.bin", "/unix/bin", "operator", 0)
			if err != nil {
				return err
			}
			op := cell.AddWorkstation(0, "op")
			if err := op.Login(p, "operator", "operator-password"); err != nil {
				return err
			}
			for i := 0; i < cfg.Binaries; i++ {
				data := make([]byte, 20<<10)
				if err := op.FS.WriteFile(p, fmt.Sprintf("/vice/unix/bin/b%02d", i), data); err != nil {
					return err
				}
			}
			if replicate {
				if _, err := admin.CloneVolume(p, vid, "/unix/bin-ro", "server1"); err != nil {
					return err
				}
			}
			for u := 0; u < cfg.Readers; u++ {
				if err := admin.NewUser(p, fmt.Sprintf("reader%d", u), "pw", 0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return
		}
		root := "/vice/unix/bin"
		if replicate {
			root = "/vice/unix/bin-ro"
		}
		frames0 := cell.Net.CrossClusterFrames()
		f0, _, _ := cell.Servers[0].Vice.TrafficStats()
		f1, _, _ := cell.Servers[1].Vice.TrafficStats()
		var totalTime time.Duration
		var reads int
		for u := 0; u < cfg.Readers; u++ {
			ws := cell.AddWorkstation(1, fmt.Sprintf("dorm%d", u))
			u := u
			cell.Run(func(p *sim.Proc) {
				if lerr := ws.Login(p, fmt.Sprintf("reader%d", u), "pw"); lerr != nil {
					err = lerr
					return
				}
				for i := 0; i < cfg.Reads; i++ {
					path := fmt.Sprintf("%s/b%02d", root, i%cfg.Binaries)
					t0 := p.Now()
					if _, rerr := ws.FS.ReadFile(p, path); rerr != nil {
						err = rerr
						return
					}
					totalTime += p.Now().Sub(t0)
					reads++
				}
			})
			if err != nil {
				return
			}
		}
		backbone = cell.Net.CrossClusterFrames() - frames0
		f0b, _, _ := cell.Servers[0].Vice.TrafficStats()
		f1b, _, _ := cell.Servers[1].Vice.TrafficStats()
		custodianFetch = f0b - f0
		replicaFetch = f1b - f1
		mean = totalTime / time.Duration(reads)
		return
	}

	bbNo, custNo, replNo, meanNo, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("unreplicated: %w", err)
	}
	bbYes, custYes, replYes, meanYes, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("replicated: %w", err)
	}

	r := newReport("E9", "Read-only replication of system binaries",
		"replicas serve from the nearest cluster server, balancing load and localizing traffic (§3.2)",
		"metric", "single custodian", "replicated")
	r.addRow("backbone frames", fmt.Sprintf("%d", bbNo), fmt.Sprintf("%d", bbYes))
	r.addRow("bytes fetched from custodian", fmt.Sprintf("%d", custNo), fmt.Sprintf("%d", custYes))
	r.addRow("bytes fetched from replica", fmt.Sprintf("%d", replNo), fmt.Sprintf("%d", replYes))
	r.addRow("mean read latency", meanNo.Round(time.Millisecond).String(), meanYes.Round(time.Millisecond).String())
	r.Metrics["backbone_single"] = float64(bbNo)
	r.Metrics["backbone_replicated"] = float64(bbYes)
	r.Metrics["latency_single_ms"] = float64(meanNo) / float64(time.Millisecond)
	r.Metrics["latency_replicated_ms"] = float64(meanYes) / float64(time.Millisecond)
	r.Metrics["replica_bytes"] = float64(replYes)
	return r, nil
}

// E10Config sizes the revocation experiment.
type E10Config struct {
	Servers int // replicas the protection database update must reach
	Groups  int // groups granting the victim access
}

// DefaultE10 returns the standard configuration.
func DefaultE10() E10Config {
	return E10Config{Servers: 6, Groups: 8}
}

// E10Revocation compares the two ways to revoke a user's access (§3.4):
// removing the user from every group that grants access — a replicated
// protection-database update coordinated across all servers — against a
// single negative-rights entry on the object's access list, the rapid
// revocation mechanism.
func E10Revocation(cfg E10Config) (*Report, error) {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Prototype, Clusters: cfg.Servers})
	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		if err := admin.NewUser(p, "victim", "pw", 0); err != nil {
			return err
		}
		if err := admin.NewUser(p, "owner", "pw", 0); err != nil {
			return err
		}
		// The victim gets access through several nested groups.
		for g := 0; g < cfg.Groups; g++ {
			name := fmt.Sprintf("grp%d", g)
			if err := admin.Protect(p, prot.Mutation{Kind: prot.MutAddGroup, Name: name, Owner: "owner"}); err != nil {
				return err
			}
			if err := admin.Protect(p, prot.Mutation{Kind: prot.MutAddMember, Name: name, Member: "victim"}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	owner := cell.AddWorkstation(0, "owner-ws")
	cell.Run(func(p *sim.Proc) {
		if err = owner.Login(p, "owner", "pw"); err != nil {
			return
		}
		acl := prot.NewACL()
		acl.Grant("owner", prot.RightsAll)
		for g := 0; g < cfg.Groups; g++ {
			acl.Grant(fmt.Sprintf("grp%d", g), prot.RightsAll)
		}
		if err = owner.Venus.SetACL(p, "/usr/owner", proto.ACLEncode(acl)); err != nil {
			return
		}
		err = owner.FS.WriteFile(p, "/vice/usr/owner/doc", []byte("sensitive"))
	})
	if err != nil {
		return nil, err
	}

	// Path A: negative rights — one SetACL at one site. Elapsed time is
	// measured inside the process: kernel runs sweep past lingering call
	// timeouts, which must not count.
	negCalls0 := totalCalls(cell)
	var negTime time.Duration
	cell.Run(func(p *sim.Proc) {
		acl := prot.NewACL()
		acl.Grant("owner", prot.RightsAll)
		for g := 0; g < cfg.Groups; g++ {
			acl.Grant(fmt.Sprintf("grp%d", g), prot.RightsAll)
		}
		acl.Deny("victim", prot.RightsAll)
		t0 := p.Now()
		err = owner.Venus.SetACL(p, "/usr/owner", proto.ACLEncode(acl))
		negTime = p.Now().Sub(t0)
	})
	if err != nil {
		return nil, err
	}
	negCalls := totalCalls(cell) - negCalls0

	// Path B: group removal — one protection-server mutation per group,
	// each replicated to every server.
	dbCalls0 := totalCalls(cell)
	var dbTime time.Duration
	err = asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		t0 := p.Now()
		for g := 0; g < cfg.Groups; g++ {
			if err := admin.Protect(p, prot.Mutation{
				Kind: prot.MutRemoveMember, Name: fmt.Sprintf("grp%d", g), Member: "victim",
			}); err != nil {
				return err
			}
		}
		dbTime = p.Now().Sub(t0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	dbCalls := totalCalls(cell) - dbCalls0

	// Both paths leave the victim locked out.
	victim := cell.AddWorkstation(0, "victim-ws")
	var victimErr error
	cell.Run(func(p *sim.Proc) {
		if lerr := victim.Login(p, "victim", "pw"); lerr != nil {
			err = lerr
			return
		}
		_, victimErr = victim.FS.ReadFile(p, "/vice/usr/owner/doc")
	})
	if err != nil {
		return nil, err
	}
	if victimErr == nil {
		return nil, fmt.Errorf("E10: victim still has access after both revocations")
	}

	r := newReport("E10", "Rapid revocation: negative rights vs protection-database update",
		"negative rights revoke at a single site; group changes must update every server (§3.4)",
		"metric", "negative right", fmt.Sprintf("group removal (%d groups, %d servers)", cfg.Groups, cfg.Servers))
	r.addRow("server calls", fmt.Sprintf("%d", negCalls), fmt.Sprintf("%d", dbCalls))
	r.addRow("elapsed (virtual)", negTime.Round(time.Millisecond).String(), dbTime.Round(time.Millisecond).String())
	r.addRow("sites touched", "1", fmt.Sprintf("%d", cfg.Servers))
	r.Metrics["neg_calls"] = float64(negCalls)
	r.Metrics["db_calls"] = float64(dbCalls)
	r.Metrics["neg_ms"] = float64(negTime) / float64(time.Millisecond)
	r.Metrics["db_ms"] = float64(dbTime) / float64(time.Millisecond)
	return r, nil
}

func totalCalls(cell *itcfs.Cell) int64 {
	var n int64
	for _, s := range cell.Servers {
		n += s.Endpoint.CallsTotal()
	}
	return n
}
