package harness

import (
	"fmt"
	"time"

	"itcfs"
	"itcfs/internal/monitor"
	"itcfs/internal/sim"
)

// E11Config sizes the rebalancing experiment.
type E11Config struct {
	// Movers is the number of users whose volumes start on the wrong
	// cluster (they "moved dormitories", §3.1's example).
	Movers  int
	OpsEach int
}

// DefaultE11 returns the standard configuration.
func DefaultE11() E11Config {
	return E11Config{Movers: 6, OpsEach: 60}
}

// E11Rebalance exercises the monitoring tools of §3.6 end to end: users
// whose volumes live in the wrong cluster generate cross-cluster traffic;
// the Advisor detects the misplacement from the servers' access counters;
// a (simulated) human operator applies the recommended volume moves; and
// the same workload afterwards stays inside its clusters. This is the
// paper's "if a student moves from one dormitory to another he may request
// that his files be moved to the cluster server at his new location",
// automated up to the human decision.
func E11Rebalance(cfg E11Config) (*Report, error) {
	cell := itcfs.NewCell(itcfs.CellConfig{Mode: itcfs.Prototype, Clusters: 2})
	err := asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		for i := 0; i < cfg.Movers; i++ {
			// Volumes created on server0 — but the users work in cluster 1.
			if err := admin.NewUser(p, fmt.Sprintf("mover%d", i), "pw", 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var stations []*itcfs.Workstation
	for i := 0; i < cfg.Movers; i++ {
		ws := cell.AddWorkstation(1, fmt.Sprintf("dorm%d", i))
		stations = append(stations, ws)
		i := i
		cell.Run(func(p *sim.Proc) {
			if lerr := ws.Login(p, fmt.Sprintf("mover%d", i), "pw"); lerr != nil {
				err = lerr
				return
			}
			for f := 0; f < 5; f++ {
				if err = ws.FS.WriteFile(p, fmt.Sprintf("/vice/usr/mover%d/f%d", i, f), []byte("contents")); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}

	burst := func() (time.Duration, int64, error) {
		frames0 := cell.Net.CrossClusterFrames()
		var total time.Duration
		var derr error
		for i, ws := range stations {
			i, ws := i, ws
			cell.Run(func(p *sim.Proc) {
				t0 := p.Now()
				for op := 0; op < cfg.OpsEach; op++ {
					if _, rerr := ws.FS.ReadFile(p, fmt.Sprintf("/vice/usr/mover%d/f%d", i, op%5)); rerr != nil {
						derr = rerr
						return
					}
				}
				total += p.Now().Sub(t0)
			})
			if derr != nil {
				return 0, 0, derr
			}
		}
		return total / time.Duration(len(stations)), cell.Net.CrossClusterFrames() - frames0, nil
	}

	adv := monitor.New(cell, monitor.DefaultConfig())
	adv.Reset()
	beforeTime, beforeFrames, err := burst()
	if err != nil {
		return nil, err
	}
	recs := adv.Recommend()
	if len(recs) == 0 {
		return nil, fmt.Errorf("E11: advisor produced no recommendations")
	}
	// The operator applies every recommendation.
	err = asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error {
		for _, r := range recs {
			if err := admin.MoveVolume(p, r.Volume, r.To); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	afterTime, afterFrames, err := burst()
	if err != nil {
		return nil, err
	}

	r := newReport("E11", "Monitoring tools: detect and repair misplaced volumes",
		"monitor access patterns, recommend reassignment, operator applies it (§3.6)",
		"metric", "before rebalancing", "after")
	r.addRow("volumes recommended to move", fmt.Sprintf("%d", len(recs)), "0 (all applied)")
	r.addRow("cross-cluster frames per burst", fmt.Sprintf("%d", beforeFrames), fmt.Sprintf("%d", afterFrames))
	r.addRow("mean user burst time", beforeTime.Round(time.Millisecond).String(), afterTime.Round(time.Millisecond).String())
	r.Metrics["recommendations"] = float64(len(recs))
	r.Metrics["frames_before"] = float64(beforeFrames)
	r.Metrics["frames_after"] = float64(afterFrames)
	r.Metrics["time_before_ms"] = float64(beforeTime) / float64(time.Millisecond)
	r.Metrics["time_after_ms"] = float64(afterTime) / float64(time.Millisecond)
	return r, nil
}
