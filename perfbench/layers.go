package main

import "fmt"

// layerMetric is one per-layer metric of the traced leg. Every traced run
// reports all of them, as zero where the workload gives a layer no work:
// tcp_fetch never writes, and sim_campus has no socket, store or device.
// better says which direction an improvement moves it; a timing's count is
// work done in the fixed window, so more is better.
type layerMetric struct{ name, unit, better string }

var perLayer = func() []layerMetric {
	var out []layerMetric
	lower := func(name, unit string) { out = append(out, layerMetric{name, unit, "lower"}) }
	higher := func(name, unit string) { out = append(out, layerMetric{name, unit, "higher"}) }
	timing := func(prefix string) {
		lower(prefix+".p50", "us")
		lower(prefix+".p99", "us")
		higher(prefix+".count", "count")
	}
	for _, m := range cpuModules {
		lower("cpu."+m, "share")
	}
	lower("cpu.other", "share")
	lower("gc.cpu_fraction", "share")

	lower("net.bytes_per_op", "bytes/op")
	lower("net.bytes_per_user_byte", "ratio")
	lower("net.writes_per_rpc", "calls/rpc")
	lower("net.reads_per_rpc", "calls/rpc")

	for _, c := range classNames {
		timing("rpc." + c + "_us")
	}
	lower("rpc.calls_per_op", "calls/op")
	for _, c := range classNames {
		lower("rpc.transport_us_mean."+c, "us")
	}

	higher("venus.hit_ratio", "ratio")
	lower("venus.fetches_per_op", "fetches/op")
	timing("venus.self_us")
	lower("venus.breaks_per_write", "breaks/write")

	timing("vice.fetch_us")
	timing("vice.store_us")
	lower("vice.self_us_mean", "us")

	lower("callback.break_rpcs_per_write", "rpcs/write")
	timing("callback.handle_us")
	timing("callback.deliver_us")

	timing("walstore.commit_us")
	timing("walstore.sync_us")
	lower("walstore.fsyncs_per_sync", "fsyncs/sync")
	lower("walstore.recover_s", "s")

	timing("fs.fsync_us")
	lower("fs.fsyncs_per_write", "fsyncs/write")
	lower("fs.bytes_per_user_byte", "ratio")

	lower("sim.rpc_calls_per_ch", "calls/ch")
	lower("sim.break_rpcs_per_ch", "rpcs/ch")
	higher("sim.cache_hit_ratio", "ratio")
	lower("sim.net_bytes_per_ch", "bytes/ch")

	// Tracing overhead: the traced leg's change against the untraced leg,
	// in percent, for each end-to-end metric every workload reports.
	for _, g := range common {
		if g == "ops_per_s" {
			higher("overhead."+g, "%")
		} else {
			lower("overhead."+g, "%")
		}
	}
	return out
}()

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tcpLayers derives the per-layer metrics of a traced TCP leg from what the
// wrappers recorded over its measured windows. A layer's self time is its
// wrapper's time minus the time its children's wrappers cover.
func tcpLayers(spec tcpSpec, reps []*tcpRep, lay *layers, prof *cpuProfile, completed, writes int64) map[string]float64 {
	m := map[string]float64{}
	addShares(m, prof)
	timing := func(prefix string, t *timer) summary {
		s := t.summary()
		m[prefix+".p50"] = s.P50
		m[prefix+".p99"] = s.P99
		m[prefix+".count"] = float64(s.N)
		return s
	}
	total := func(s summary) float64 { return s.Mean * float64(s.N) }
	ops, size := float64(completed), float64(spec.size)

	var calls, dispatched int
	var dispatchUS float64
	for c := opClass(0); c < numClasses; c++ {
		cs := timing(fmt.Sprintf("rpc.%s_us", classNames[c]), &lay.call[c])
		ds := lay.dispatch[c].summary()
		calls += cs.N
		dispatched += ds.N
		dispatchUS += total(ds)
		if cs.N > 0 && ds.N > 0 {
			m["rpc.transport_us_mean."+classNames[c]] = cs.Mean - ds.Mean
		}
	}
	m["rpc.calls_per_op"] = ratio(float64(calls), ops)

	deliver := timing("callback.deliver_us", &lay.deliver)
	handle := timing("callback.handle_us", &lay.handle)
	m["callback.break_rpcs_per_write"] = ratio(float64(handle.N), float64(writes))

	rpcs := float64(calls + deliver.N)
	m["net.writes_per_rpc"] = ratio(float64(lay.netWrites.Load()), rpcs)
	m["net.reads_per_rpc"] = ratio(float64(lay.netReads.Load()), rpcs)
	m["net.bytes_per_op"] = ratio(float64(lay.netBytes.Load()), ops)
	m["net.bytes_per_user_byte"] = ratio(float64(lay.netBytes.Load()), ops*size)

	var hits, opens, fetches, breaks int64
	for _, r := range reps {
		hits += r.venus.Hits
		opens += r.venus.Opens
		fetches += r.venus.Fetches
		breaks += r.venus.CallbackBreaks
	}
	m["venus.hit_ratio"] = ratio(float64(hits), float64(opens))
	m["venus.fetches_per_op"] = ratio(float64(fetches), ops)
	m["venus.breaks_per_write"] = ratio(float64(breaks), float64(writes))
	timing("venus.self_us", &lay.venus)

	timing("vice.fetch_us", &lay.dispatch[classFetch])
	timing("vice.store_us", &lay.dispatch[classStore])
	commit := timing("walstore.commit_us", &lay.commit)
	sync := timing("walstore.sync_us", &lay.sync)
	if dispatched > 0 {
		m["vice.self_us_mean"] = (dispatchUS - total(commit) - total(sync) - total(deliver)) / float64(dispatched)
	}

	fsyncs := float64(lay.fsyncs.Load())
	m["walstore.fsyncs_per_sync"] = ratio(fsyncs, float64(sync.N))
	timing("fs.fsync_us", &lay.fsync)
	m["fs.fsyncs_per_write"] = ratio(fsyncs, float64(writes))
	m["fs.bytes_per_user_byte"] = ratio(float64(lay.devBytes.Load()), float64(writes)*size)
	return m
}
