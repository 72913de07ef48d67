package rpc

import (
	"runtime"
	"testing"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/sim"
)

// corruptFirstReply damages the first frame the server sends the client
// once armed, and passes every other frame untouched.
type corruptFirstReply struct {
	server, client netsim.NodeID
	armed          bool
	corrupted      int
}

func (f *corruptFirstReply) Decide(_ sim.Time, src, dst netsim.NodeID, _ int) netsim.FaultAction {
	if !f.armed || f.corrupted > 0 || src != f.server || dst != f.client {
		return netsim.FaultAction{}
	}
	f.corrupted++
	return netsim.FaultAction{Corrupt: true}
}

func (f *corruptFirstReply) Corrupt(wire []byte) { wire[len(wire)/2] ^= 0xFF }

// A reply corrupted in flight must not poison the at-most-once cache: the
// retransmitted call is answered with a freshly sealed copy, so it succeeds
// without executing the handler again.
func TestSimReplayAfterCorruptedReply(t *testing.T) {
	srv := NewServer()
	ran := 0
	srv.Handle(opEcho, func(_ Ctx, req Request) Response {
		ran++
		return Response{Body: req.Body}
	})
	r := newRig(t, EndpointConfig{Server: srv})
	r.client = NewEndpoint(r.net, r.client.Node(), EndpointConfig{
		CallTimeout: time.Second,
		Retry:       RetryPolicy{Attempts: 3, Backoff: time.Second},
	})
	fi := &corruptFirstReply{server: r.server.Node().ID, client: r.client.Node().ID}
	r.net.SetFaultInjector(fi)
	var got Response
	var callErr error
	r.k.Spawn("test", func(p *sim.Proc) {
		conn, err := r.client.Dial(p, r.server.Node().ID, "satya", userKey)
		if err != nil {
			callErr = err
			return
		}
		fi.armed = true
		got, callErr = conn.Call(p, Request{Op: opEcho, Body: []byte("ping")})
	})
	r.k.Run()
	if fi.corrupted != 1 {
		t.Fatalf("corrupted %d frames, want 1", fi.corrupted)
	}
	if callErr != nil {
		t.Fatalf("call: %v (a replay resent the corrupted reply)", callErr)
	}
	if string(got.Body) != "ping" {
		t.Fatalf("resp = %+v", got)
	}
	if ran != 1 {
		t.Errorf("handler ran %d times, want 1", ran)
	}
	if n := r.server.DupSuppressed(); n != 1 {
		t.Errorf("DupSuppressed = %d, want 1", n)
	}
}

// The reply cache keeps what the handler returned, not a sealed copy of it:
// replies that share one immutable Bulk slice must not each pin a
// ciphertext copy of it until they are evicted.
func TestSimReplyCacheRetainsNoCiphertext(t *testing.T) {
	const calls, bulkSize = 200, 64 << 10
	bulk := make([]byte, bulkSize)
	srv := NewServer()
	srv.Handle(opStat, func(Ctx, Request) Response { return Response{Bulk: bulk} })
	r := newRig(t, EndpointConfig{Server: srv})
	var conn *SimConn
	r.k.Spawn("dial", func(p *sim.Proc) {
		var err error
		if conn, err = r.client.Dial(p, r.server.Node().ID, "satya", userKey); err != nil {
			t.Errorf("dial: %v", err)
		}
	})
	r.k.Run()
	if conn == nil {
		t.FailNow()
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	r.k.Spawn("calls", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			if resp, err := conn.Call(p, Request{Op: opStat}); err != nil || len(resp.Bulk) != bulkSize {
				t.Errorf("call %d: %v (bulk %d bytes)", i, err, len(resp.Bulk))
				return
			}
		}
	})
	r.k.Run()
	after := heap()
	runtime.KeepAlive(r)
	runtime.KeepAlive(conn)
	if r.server.CallsTotal() != calls {
		t.Fatalf("served %d calls, want %d", r.server.CallsTotal(), calls)
	}
	const limit = 2 << 20
	if after > before && after-before >= limit {
		t.Errorf("heap grew %d KiB over %d cached replies sharing one %d KiB Bulk; limit %d KiB",
			(after-before)>>10, calls, bulkSize>>10, limit>>10)
	}
}
