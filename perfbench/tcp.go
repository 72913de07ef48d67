package main

// The real deployment path, in one process: a Vice server assembled the way
// cmd/itcfsd's run() assembles it (protection database bootstrap, walstore
// over a fresh data directory, recovery, root volume, per-connection
// cleanup), serving authenticated rpc.Peer connections on a loopback TCP
// listener, and Virtue workstations that dial it the way cmd/itcfs does.
// Running both ends here lets the traced leg wrap the seams between layers.

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
	"itcfs/internal/trace"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/vice"
	"itcfs/internal/virtue"
	"itcfs/internal/volume"
)

const (
	serverName = "server0"
	opPassword = "operator-pw"
	benchUser  = "bench"
	benchPass  = "bench-pw"
	benchVol   = "user." + benchUser
	benchDir   = "/vice/usr/" + benchUser
)

// tcpCell is one in-process itcfsd.
type tcpCell struct {
	addr string
	db   *prot.DB
	srv  *vice.Server
	st   store.Store
	l    net.Listener
	disp *rpc.Server
	td   *tracedDispatcher // nil when untraced
	lay  *layers           // nil when untraced
	wg   sync.WaitGroup

	mu    sync.Mutex
	peers []*rpc.Peer // guarded by mu
}

// startCell boots a server on a fresh data directory. With lay set, the
// store, the device, the dispatcher and every accepted connection are
// wrapped.
func startCell(dir string, lay *layers) (*tcpCell, error) {
	db := prot.NewDB()
	for _, m := range []prot.Mutation{
		{Kind: prot.MutAddUser, Name: "operator", Key: secure.DeriveKey("operator", opPassword)},
		{Kind: prot.MutAddGroup, Name: vice.AdminGroup, Owner: "operator"},
		{Kind: prot.MutAddMember, Name: vice.AdminGroup, Member: "operator"},
	} {
		if err := db.Apply(m); err != nil {
			return nil, fmt.Errorf("bootstrap: %w", err)
		}
	}
	start := time.Now()
	clock := func() int64 { return time.Now().UnixNano() }
	uptime := func() sim.Time { return sim.Time(time.Since(start)) }
	metrics := trace.NewRegistry()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var fsys store.FS = store.DirFS(dir)
	if lay != nil {
		fsys = tracedFS{inner: fsys, l: lay}
	}
	ws, err := walstore.Open(fsys)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	var st store.Store = ws
	if lay != nil {
		st = tracedStore{inner: ws, l: lay}
	}

	nextVol := uint32(1)
	srv := vice.New(vice.Config{
		Name:          serverName,
		Mode:          vice.Revised,
		DB:            db,
		Loc:           vice.NewLocDB(),
		Clock:         clock,
		ProtAuthority: true,
		AllocVolID:    func() uint32 { nextVol++; return nextVol },
		Metrics:       metrics,
		Flight:        trace.NewRecorder(1024, uptime),
		Store:         st,
	})
	if _, err := srv.RecoverStore(); err != nil {
		st.Close()
		return nil, fmt.Errorf("recover store: %w", err)
	}
	rootACL := prot.NewACL()
	rootACL.Grant(prot.AnyUser, prot.RightLookup|prot.RightRead)
	rootACL.Grant(vice.AdminGroup, prot.RightsAll)
	if err := srv.AddVolume(volume.New(1, "root", rootACL, 0, "operator", clock)); err != nil {
		st.Close()
		return nil, fmt.Errorf("root volume: %w", err)
	}
	if err := srv.InstallLoc([]proto.LocEntry{{Prefix: "/", Volume: 1, Custodian: serverName}}, nil); err != nil {
		st.Close()
		return nil, fmt.Errorf("root location: %w", err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	c := &tcpCell{addr: l.Addr().String(), db: db, srv: srv, st: st, l: l, disp: srv.Dispatcher(), lay: lay}
	if lay != nil {
		c.td = newTracedDispatcher(c.disp, lay)
		c.disp = c.td.server()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serve(conn, metrics)
			}()
		}
	}()
	return c, nil
}

// serve runs one client connection the way itcfsd does: handshake, serve
// until the client goes away, then release its locks and promises.
func (c *tcpCell) serve(conn net.Conn, metrics *trace.Registry) {
	var rwc io.ReadWriteCloser = conn
	if c.lay != nil {
		rwc = countedConn{Conn: conn, l: c.lay}
	}
	acceptStart := time.Now()
	peer, err := rpc.AcceptPeer(rwc, c.db.LookupKey, c.disp)
	if err != nil {
		conn.Close()
		return
	}
	metrics.Histogram(trace.MetricRPCAcceptLatency).Observe(time.Since(acceptStart))
	peer.SetMetrics(metrics)
	c.mu.Lock()
	c.peers = append(c.peers, peer)
	c.mu.Unlock()
	<-peer.Done()
	c.srv.Locks().ReleaseAllFor(peer.User())
	var back rpc.Backchannel = peer
	if c.td != nil {
		back = c.td.forget(peer)
	}
	c.srv.Callbacks().Drop(back)
}

// stop closes the listener and every connection, waits for the serving
// goroutines, and closes the store without a checkpoint, so a reopen must
// replay the log.
func (c *tcpCell) stop() error {
	c.l.Close()
	c.mu.Lock()
	peers := c.peers
	c.peers = nil
	c.mu.Unlock()
	for _, p := range peers {
		p.Close()
	}
	c.wg.Wait()
	return c.st.Close()
}

// workstation is one Virtue workstation: local file system, Venus, and the
// connections Venus has dialed.
type workstation struct {
	fs  *virtue.FS
	v   *venus.Venus
	own atomic.Int64 // traced: nanoseconds spent inside RPCs

	mu    sync.Mutex
	peers []*rpc.Peer // guarded by mu
}

// connect builds a workstation for user and logs it in; Venus dials on the
// first call.
func (c *tcpCell) connect(machine, user, password string) *workstation {
	w := &workstation{}
	key := secure.DeriveKey(user, password)
	cbServer := rpc.NewServer()
	local := unixfs.New(nil)
	w.v = venus.New(venus.Config{
		Mode:       vice.Revised,
		Machine:    machine,
		Local:      local,
		HomeServer: serverName,
		Connect: func(_ *sim.Proc, server string) (venus.Conn, error) {
			if server != serverName {
				return nil, fmt.Errorf("unknown server %q", server)
			}
			nc, err := net.Dial("tcp", c.addr)
			if err != nil {
				return nil, err
			}
			var rwc io.ReadWriteCloser = nc
			if c.lay != nil {
				rwc = countedConn{Conn: nc, l: c.lay}
			}
			peer, err := rpc.DialPeer(rwc, user, key, cbServer)
			if err != nil {
				nc.Close()
				return nil, err
			}
			w.mu.Lock()
			w.peers = append(w.peers, peer)
			w.mu.Unlock()
			if c.lay != nil {
				return &tracedConn{inner: peer, l: c.lay, own: &w.own}, nil
			}
			return peer, nil
		},
	})
	h := rpc.HandlerFunc(w.v.HandleCallbackBreak)
	if c.lay != nil {
		h = tracedHandler(h, c.lay)
	}
	cbServer.Handle(rpc.Op(proto.OpCallbackBreak), h)
	w.v.Login(user)
	w.fs = virtue.New(local, w.v)
	return w
}

// call places one raw RPC on the workstation's first connection, the way
// the itcfs shell issues operator calls.
func (w *workstation) call(op uint16, body []byte) error {
	w.mu.Lock()
	if len(w.peers) == 0 {
		w.mu.Unlock()
		return fmt.Errorf("no connection")
	}
	peer := w.peers[0]
	w.mu.Unlock()
	resp, err := peer.Call(nil, rpc.Request{Op: rpc.Op(op), Body: body})
	if err != nil {
		return err
	}
	if !resp.OK() {
		return proto.CodeToErr(resp.Code, string(resp.Body))
	}
	return nil
}

func (w *workstation) close() {
	w.mu.Lock()
	peers := w.peers
	w.peers = nil
	w.mu.Unlock()
	for _, p := range peers {
		p.Close()
	}
}

// addBenchUser does what `itcfs adduser bench` does as the operator: the
// user, /vice/usr, and a home volume mounted at /usr/bench.
func (c *tcpCell) addBenchUser() error {
	op := c.connect("operator-ws", "operator", opPassword)
	defer op.close()
	if err := op.fs.Mkdir(nil, "/vice/usr", 0o755); err != nil {
		return fmt.Errorf("mkdir /vice/usr: %w", err)
	}
	if err := op.call(proto.OpProtMutate, proto.Marshal(prot.Mutation{
		Kind: prot.MutAddUser, Name: benchUser, Key: secure.DeriveKey(benchUser, benchPass),
	})); err != nil {
		return fmt.Errorf("add user: %w", err)
	}
	if err := op.call(proto.OpVolCreate, proto.Marshal(proto.VolCreateArgs{
		Name: benchVol, Path: "/usr/" + benchUser, Owner: benchUser,
	})); err != nil {
		return fmt.Errorf("create volume: %w", err)
	}
	return nil
}

// populate writes the files from a set-up workstation, then disconnects
// it, so the measured workstations start cold. content fills (or reuses)
// buf with file i's bytes. One writer, as one `itcfs put` session would:
// the Vice server does not yet guard volume state against concurrent
// handlers, and a file create racing another call crashes it with a
// concurrent map access (see README.md, "Known defect").
func (c *tcpCell) populate(paths []string, content func(i int, buf []byte) []byte) error {
	w := c.connect("setup-ws", benchUser, benchPass)
	defer w.close()
	var buf []byte
	for i, p := range paths {
		buf = content(i, buf)
		if err := w.fs.WriteFile(nil, p, buf); err != nil {
			return fmt.Errorf("populate %s: %w", p, err)
		}
	}
	return nil
}

// fileName is the name of bench file i inside the bench volume.
func fileName(i int) string { return fmt.Sprintf("f%04d", i) }

// recoverFiles reopens a stopped cell's data directory with walstore.Open
// and returns the recovered contents of the bench volume's files by index,
// and how long the reopen took.
func recoverFiles(dir string, n int) (map[int][]byte, time.Duration, error) {
	t0 := time.Now()
	ws, err := walstore.Open(store.DirFS(dir))
	if err != nil {
		return nil, 0, fmt.Errorf("reopen: %w", err)
	}
	rec, err := ws.Recover()
	took := time.Since(t0)
	if err != nil {
		ws.Close()
		return nil, 0, fmt.Errorf("recover: %w", err)
	}
	defer ws.Close()
	for _, v := range rec.Volumes {
		if v.Name() != benchVol {
			continue
		}
		out := make(map[int][]byte, n)
		for i := 0; i < n; i++ {
			de, err := v.Lookup(v.Root(), fileName(i))
			if err != nil {
				continue
			}
			if data, ok := v.DataOf(de.FID.Vnode); ok {
				out[i] = data
			}
		}
		return out, took, nil
	}
	return nil, 0, fmt.Errorf("volume %s not recovered", benchVol)
}
