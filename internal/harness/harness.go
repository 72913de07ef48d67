// Package harness builds and runs the paper's evaluation (§5.2): it
// assembles cells, applies synthetic load in virtual time, collects server
// and network statistics, and renders each experiment as a table comparing
// the paper's reported numbers with the measured reproduction.
//
// Experiment index (see DESIGN.md §3):
//
//	E1  server call-mix histogram          (validate 65%, stat 27%, fetch 4%, store 2%)
//	E2  server CPU/disk utilization        (CPU ≈40% avg, disk ≈14%, peaks ≈98%)
//	E3  cache hit ratio                    (>80%)
//	E4  five-phase benchmark local/remote  (≈1000 s local, ≈80% longer remote)
//	E5  benchmark time vs server load      (≈20 WS/server acceptable)
//	E6  check-on-open vs callbacks         (motivates the revised design)
//	E7  server-side vs client-side walks   (server CPU per op)
//	E8  whole-file vs page-at-a-time       (protocol overhead, crossover)
//	E9  read-only replication              (locality, load spread)
//	E10 negative rights vs database update (rapid revocation)
//	E11 monitoring and volume rebalancing  (§3.6)
//	E13 traced critical-path breakdown     (server time bounds the prototype)
//	E14 batched callback/revalidation      (the E14 campus, one cluster)
//	E15 saturation timeline + volume move  (CPU peaks to 98%)
//	E16 read-only replication failover     (availability, dedup)
//	E17 tracing overhead + SLO breach      (sharded campus, hot-volume cell)
//	SCALE simulator cost per client-hour   (the E14 campus, sharded past 1k)
//
// E12, the chaos suite, runs as tests in internal/fault.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"itcfs"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/workload"
)

// Report is one experiment's outcome.
type Report struct {
	ID         string
	Title      string
	PaperClaim string
	Header     []string
	Rows       [][]string
	// Metrics carries machine-checkable numbers for tests and benches.
	Metrics map[string]float64
}

func newReport(id, title, claim string, header ...string) *Report {
	return &Report{ID: id, Title: title, PaperClaim: claim, Header: header,
		Metrics: make(map[string]float64)}
}

func (r *Report) addRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(w, "paper: %s\n", r.PaperClaim)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(b.String(), " "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// secs formats a duration in whole seconds.
func secs(d time.Duration) string { return fmt.Sprintf("%.0f s", d.Seconds()) }

// asAdmin runs step as the cell administrator in one kernel run.
func asAdmin(cell *itcfs.Cell, step func(*sim.Proc, *itcfs.Admin) error) error {
	var err error
	cell.Run(func(p *sim.Proc) {
		var admin *itcfs.Admin
		if admin, err = cell.Admin(p, 0); err == nil {
			err = step(p, admin)
		}
	})
	return err
}

// loggedIn adds a workstation to a cluster and logs user in on it, in a
// kernel run of its own.
func loggedIn(cell *itcfs.Cell, cluster int, name, user, password string) (*itcfs.Workstation, error) {
	ws := cell.AddWorkstation(cluster, name)
	var err error
	cell.Run(func(p *sim.Proc) { err = ws.Login(p, user, password) })
	return ws, err
}

// LoadedCell is a provisioned cell with system binaries and per-user home
// volumes, ready for synthetic load.
type LoadedCell struct {
	Cell  *itcfs.Cell
	Users []string
	// WS[i] is user i's workstation; user i's home server is the cluster
	// server of WS[i]'s cluster.
	WS []*itcfs.Workstation
	// SysRoot is the Vice directory drivers read system binaries from: the
	// read-write volume, or its read-only replicated clone.
	SysRoot string
	marks   map[*itcfs.Server]windowMark
}

// LoadConfig sizes a loaded cell.
type LoadConfig struct {
	Mode     itcfs.Mode
	Clusters int
	UsersPer int // users (each with a workstation) per cluster
	Seed     int64
	Drive    workload.Config // per-user driver shape (Seed is overridden)
	// ReplicateSys clones the system-binary volume read-only onto every
	// cluster server, the deployment the paper describes for frequently
	// read, rarely modified files (§3.2). Multi-cluster cells default to
	// it in DefaultLoad.
	ReplicateSys bool
}

// DefaultLoad returns the standard small configuration: one cluster of 20
// workstations on one server, the paper's operating point.
func DefaultLoad(mode itcfs.Mode) LoadConfig {
	return LoadConfig{
		Mode:     mode,
		Clusters: 1,
		UsersPer: 20,
		Seed:     1,
		Drive:    workload.DefaultConfig(0),
	}
}

// BuildLoadedCell provisions the cell: system binaries in a shared volume,
// one user+volume+workstation per seat, every home populated and every
// user logged in at their station.
func BuildLoadedCell(cfg LoadConfig) (*LoadedCell, error) {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: cfg.Mode, Clusters: cfg.Clusters})
	lc := &LoadedCell{Cell: cell, SysRoot: cfg.Drive.SysRoot, marks: make(map[*itcfs.Server]windowMark)}
	setupErr := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		if err := admin.MkdirAll(p, "/unix"); err != nil {
			return err
		}
		sysVol, err := admin.CreateVolume(p, "sys.bin", cfg.Drive.SysRoot, "operator", 0)
		if err != nil {
			return fmt.Errorf("system volume: %w", err)
		}
		opWS := cell.AddWorkstation(0, "op-console")
		if err := opWS.Login(p, "operator", "operator-password"); err != nil {
			return err
		}
		r := rand.New(rand.NewSource(cfg.Seed))
		if err := workload.PopulateSystem(p, opWS.FS, cfg.Drive, r); err != nil {
			return err
		}
		if cfg.ReplicateSys {
			// Release the binaries as a read-only clone replicated to
			// every other cluster server; drivers read the released tree.
			var replicas []string
			for _, s := range cell.Servers[1:] {
				replicas = append(replicas, s.Vice.Name())
			}
			roRoot := cfg.Drive.SysRoot + "-ro"
			if _, err := admin.CloneVolume(p, sysVol, roRoot, replicas...); err != nil {
				return fmt.Errorf("replicate system volume: %w", err)
			}
			lc.SysRoot = roRoot
		}
		for c := 0; c < cfg.Clusters; c++ {
			for u := 0; u < cfg.UsersPer; u++ {
				name := fmt.Sprintf("user%d-%d", c, u)
				// The home volume lives on the user's own cluster server:
				// custodianship placement balances load and localizes
				// references (§3.1).
				home := cell.Servers[c].Vice.Name()
				if _, err := admin.NewUserAt(p, name, "pw-"+name, 0, home); err != nil {
					return fmt.Errorf("provision %s: %w", name, err)
				}
				lc.Users = append(lc.Users, name)
			}
		}
		return nil
	})
	if setupErr != nil {
		return nil, setupErr
	}
	// One workstation per user, logged in, home populated.
	for i, name := range lc.Users {
		cluster := i / cfg.UsersPer
		ws := cell.AddWorkstation(cluster, "ws-"+name)
		lc.WS = append(lc.WS, ws)
	}
	for i, name := range lc.Users {
		i, name := i, name
		cell.Run(func(p *sim.Proc) {
			if err := lc.WS[i].Login(p, name, "pw-"+name); err != nil {
				setupErr = err
				return
			}
			drv := cfg.Drive
			drv.Seed = cfg.Seed + int64(i)
			drv.Think = 0
			u := workload.NewUser(name, "/usr/"+name, drv)
			if err := u.PopulateHome(p, lc.WS[i].FS); err != nil {
				setupErr = fmt.Errorf("populate %s: %w", name, err)
			}
		})
		if setupErr != nil {
			return nil, setupErr
		}
	}
	return lc, nil
}

// Drive runs every user's driver concurrently for the given virtual
// duration (after a warm-up of the same shape), then returns. Venus stats
// are reset after warm-up so measurements cover only the steady state.
func (lc *LoadedCell) Drive(cfg LoadConfig, warm, measure time.Duration) error {
	return lc.DriveHook(cfg, warm, measure, nil)
}

// DriveHook is Drive with a callback invoked at the boundary between
// warm-up and measurement — the place to attach gauges, whose self-renewing
// tick events must not be scheduled before a kernel run that would drain
// them through idle time.
func (lc *LoadedCell) DriveHook(cfg LoadConfig, warm, measure time.Duration, atMeasureStart func()) error {
	var driveErr error
	run := func(until sim.Time) {
		for i, name := range lc.Users {
			i, name := i, name
			drv := cfg.Drive
			drv.Seed = cfg.Seed + 1000 + int64(i)
			drv.SysRoot = lc.SysRoot
			u := workload.NewUser(name, "/usr/"+name, drv)
			lc.Cell.Kernel.Spawn("drive-"+name, func(p *sim.Proc) {
				if err := u.RunUntil(p, lc.WS[i].FS, until); err != nil && driveErr == nil {
					driveErr = fmt.Errorf("driver %s: %w", name, err)
				}
			})
		}
		lc.Cell.Kernel.Run()
	}
	start := lc.Cell.Now()
	if warm > 0 {
		run(start.Add(warm))
		if driveErr != nil {
			return driveErr
		}
	}
	for _, ws := range lc.WS {
		ws.Venus.ResetStats()
	}
	for _, s := range lc.Cell.Servers {
		lc.resetResourceWindow(s)
	}
	if atMeasureStart != nil {
		atMeasureStart()
	}
	mid := lc.Cell.Now()
	run(mid.Add(measure))
	return driveErr
}

// window bookkeeping: utilization and call counts over the measured
// interval only.
type windowMark struct {
	at    sim.Time
	cpu   time.Duration
	disk  time.Duration
	calls map[rpc.Op]int64
}

func (lc *LoadedCell) resetResourceWindow(s *itcfs.Server) {
	lc.marks[s] = windowMark{
		at:    s.CPU.Kernel().Now(),
		cpu:   s.CPU.BusyTime(),
		disk:  s.Disk.BusyTime(),
		calls: s.Endpoint.CallCounts(),
	}
}

// windowUtil returns CPU and disk utilization since the last reset.
func (lc *LoadedCell) windowUtil(s *itcfs.Server) (cpu, disk float64) {
	m, ok := lc.marks[s]
	if !ok {
		return s.CPU.Utilization(0), s.Disk.Utilization(0)
	}
	elapsed := s.CPU.Kernel().Now().Sub(m.at)
	if elapsed <= 0 {
		return 0, 0
	}
	return float64(s.CPU.BusyTime()-m.cpu) / float64(elapsed),
		float64(s.Disk.BusyTime()-m.disk) / float64(elapsed)
}

// aggregateStats sums Venus counters over all workstations.
func (lc *LoadedCell) aggregateStats() itcfs.Stats {
	var total itcfs.Stats
	for _, ws := range lc.WS {
		s := ws.Venus.Stats()
		total.Opens += s.Opens
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Validations += s.Validations
		total.Fetches += s.Fetches
		total.Stores += s.Stores
		total.StatRPCs += s.StatRPCs
		total.OtherRPCs += s.OtherRPCs
		total.CallbackBreaks += s.CallbackBreaks
		total.Evictions += s.Evictions
		total.BytesFetched += s.BytesFetched
		total.BytesStored += s.BytesStored
	}
	return total
}

// CallMix aggregates server histograms over the measured window into
// fractions of total calls, grouped by human-readable op name.
func (lc *LoadedCell) CallMix() (map[string]float64, int64) {
	counts := map[rpc.Op]int64{}
	var total int64
	for _, s := range lc.Cell.Servers {
		base := map[rpc.Op]int64{}
		if m, ok := lc.marks[s]; ok && m.calls != nil {
			base = m.calls
		}
		for op, n := range s.Endpoint.CallCounts() {
			d := n - base[op]
			counts[op] += d
			total += d
		}
	}
	names := map[string]float64{}
	for op, n := range counts {
		if total > 0 {
			names[opName(op)] += float64(n) / float64(total)
		}
	}
	return names, total
}

func opName(op rpc.Op) string {
	switch uint16(op) {
	case proto.OpTestValid:
		return "TestValid (cache validity)"
	case proto.OpFetchStatus:
		return "GetFileStat (status)"
	case proto.OpFetch:
		return "Fetch"
	case proto.OpStore:
		return "Store"
	case proto.OpGetCustodian:
		return "GetCustodian"
	case proto.OpCreate, proto.OpMakeDir, proto.OpRemove, proto.OpRemoveDir,
		proto.OpRename, proto.OpSymlink, proto.OpLink, proto.OpSetACL, proto.OpGetACL:
		return "directory ops"
	default:
		return fmt.Sprintf("other (op %d)", op)
	}
}

// sortedKeys returns map keys ordered by descending value, ties broken by
// name: without the tie-break, equal-valued rows would keep the order the
// keys came out of the map in, and the table would shuffle run to run.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
