package main

// Pass-through wrappers for the traced leg. Each one stands at a seam the
// real deployment already has — the venus.Conn a workstation calls through,
// the net.Conn under each rpc.Peer, the server's dispatcher, the client's
// callback-break handler, store.Store and store.FS — forwards every call
// unchanged, and times or counts it into a layers record. The untraced leg
// uses the bare objects.

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/venus"
)

// opClass groups RPCs the way the per-layer metrics report them.
type opClass int

const (
	classFetch opClass = iota
	classStore
	classOther
	numClasses
)

var classNames = [numClasses]string{"fetch", "store", "other"}

func classOf(op rpc.Op) opClass {
	switch op {
	case rpc.Op(proto.OpFetch):
		return classFetch
	case rpc.Op(proto.OpStore):
		return classStore
	}
	return classOther
}

// layers is what one traced leg records at the seams. Recording is on only
// inside measured windows, so set-up and warm-up traffic stay out.
type layers struct {
	on atomic.Bool

	call     [numClasses]timer // client rpc.Peer.Call, by op class
	dispatch [numClasses]timer // server dispatch, by op class
	deliver  timer             // server-side callback-break RPCs
	handle   timer             // client break handler
	commit   timer             // store.Store.Commit
	sync     timer             // store.Store.Sync
	fsync    timer             // store.File.Sync
	venus    timer             // per whole-file op: wall minus its RPC time

	fsyncs   atomic.Int64 // File.Sync calls plus two per WriteFileAtomic
	devBytes atomic.Int64 // bytes appended or written through store.FS

	netReads, netWrites atomic.Int64 // net.Conn calls, both ends
	netBytes            atomic.Int64 // bytes written, both ends
}

func (l *layers) add(t *timer, d time.Duration) {
	if l.on.Load() {
		t.add(d)
	}
}

func (l *layers) count(c *atomic.Int64, n int64) {
	if l.on.Load() {
		c.Add(n)
	}
}

// tracedConn is a workstation's venus.Conn. own accumulates the
// workstation's time inside calls, so the op loop can subtract it.
type tracedConn struct {
	inner venus.Conn
	l     *layers
	own   *atomic.Int64
}

func (c *tracedConn) Call(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	t0 := time.Now()
	resp, err := c.inner.Call(p, req)
	d := time.Since(t0)
	c.l.add(&c.l.call[classOf(req.Op)], d)
	c.own.Add(int64(d))
	return resp, err
}

// countedConn counts socket calls and bytes under an rpc.Peer.
type countedConn struct {
	net.Conn
	l *layers
}

func (c countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.count(&c.l.netReads, 1)
	return n, err
}

func (c countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.count(&c.l.netWrites, 1)
	c.l.count(&c.l.netBytes, int64(n))
	return n, err
}

// tracedDispatcher times the server's dispatcher and wraps each client's
// back-channel, one stable wrapper per connection: the callback table keys
// promises by back-channel, so the same client must always present the
// same value.
type tracedDispatcher struct {
	inner *rpc.Server
	l     *layers

	mu    sync.Mutex
	backs map[rpc.Backchannel]*tracedBack // guarded by mu
}

func newTracedDispatcher(inner *rpc.Server, l *layers) *tracedDispatcher {
	return &tracedDispatcher{inner: inner, l: l, backs: make(map[rpc.Backchannel]*tracedBack)}
}

// server returns the dispatcher to hand rpc.AcceptPeer.
func (d *tracedDispatcher) server() *rpc.Server {
	s := rpc.NewServer()
	s.HandleFallback(d.dispatch)
	return s
}

func (d *tracedDispatcher) dispatch(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	if ctx.Back != nil {
		ctx.Back = d.back(ctx.Back)
	}
	t0 := time.Now()
	resp := d.inner.Dispatch(ctx, req)
	d.l.add(&d.l.dispatch[classOf(req.Op)], time.Since(t0))
	return resp
}

// back returns the wrapper standing for b.
func (d *tracedDispatcher) back(b rpc.Backchannel) rpc.Backchannel {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.backs[b]
	if w == nil {
		w = &tracedBack{inner: b, l: d.l}
		d.backs[b] = w
	}
	return w
}

// forget drops b's wrapper once its connection is gone and returns it, for
// the server's per-connection callback cleanup.
func (d *tracedDispatcher) forget(b rpc.Backchannel) rpc.Backchannel {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.backs[b]
	if !ok {
		return b
	}
	delete(d.backs, b)
	return w
}

type tracedBack struct {
	inner rpc.Backchannel
	l     *layers
}

func (b *tracedBack) CallBack(p *sim.Proc, req rpc.Request) (rpc.Response, error) {
	t0 := time.Now()
	resp, err := b.inner.CallBack(p, req)
	b.l.add(&b.l.deliver, time.Since(t0))
	return resp, err
}

func (b *tracedBack) BackUser() string { return b.inner.BackUser() }

// tracedHandler times a client's callback-break handler.
func tracedHandler(h rpc.HandlerFunc, l *layers) rpc.HandlerFunc {
	return func(ctx rpc.Ctx, req rpc.Request) rpc.Response {
		t0 := time.Now()
		resp := h(ctx, req)
		l.add(&l.handle, time.Since(t0))
		return resp
	}
}

// tracedStore times the server's durable store.
type tracedStore struct {
	inner store.Store
	l     *layers
}

func (s tracedStore) BeginVolume(id uint32, image []byte) error {
	return s.inner.BeginVolume(id, image)
}

func (s tracedStore) DropVolume(id uint32) error {
	return s.inner.DropVolume(id)
}

func (s tracedStore) Commit(c store.Commit) error {
	t0 := time.Now()
	err := s.inner.Commit(c)
	s.l.add(&s.l.commit, time.Since(t0))
	return err
}

func (s tracedStore) PutLoc(entries []proto.LocEntry, remove []string) error {
	return s.inner.PutLoc(entries, remove)
}

func (s tracedStore) PutProt(m prot.Mutation) error {
	return s.inner.PutProt(m)
}

func (s tracedStore) Sync() error {
	t0 := time.Now()
	err := s.inner.Sync()
	s.l.add(&s.l.sync, time.Since(t0))
	return err
}

func (s tracedStore) Recover() (*store.Recovery, error) { return s.inner.Recover() }

func (s tracedStore) Checkpoint(cp store.Checkpoint) error {
	return s.inner.Checkpoint(cp)
}

func (s tracedStore) Close() error { return s.inner.Close() }

// tracedFS counts what the store engine writes to the device and times its
// fsyncs.
type tracedFS struct {
	inner store.FS
	l     *layers
}

func (f tracedFS) Open(name string) (store.File, error) {
	fl, err := f.inner.Open(name)
	if fl == nil {
		return nil, err
	}
	return tracedFile{inner: fl, l: f.l}, err
}

func (f tracedFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

func (f tracedFS) WriteFileAtomic(name string, data []byte) error {
	err := f.inner.WriteFileAtomic(name, data)
	f.l.count(&f.l.devBytes, int64(len(data)))
	f.l.count(&f.l.fsyncs, 2) // the file, then its directory
	return err
}

func (f tracedFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

func (f tracedFS) Remove(name string) error { return f.inner.Remove(name) }

type tracedFile struct {
	inner store.File
	l     *layers
}

func (f tracedFile) Append(b []byte) error {
	err := f.inner.Append(b)
	f.l.count(&f.l.devBytes, int64(len(b)))
	return err
}

func (f tracedFile) Sync() error {
	t0 := time.Now()
	err := f.inner.Sync()
	f.l.add(&f.l.fsync, time.Since(t0))
	f.l.count(&f.l.fsyncs, 1)
	return err
}

func (f tracedFile) Close() error { return f.inner.Close() }
