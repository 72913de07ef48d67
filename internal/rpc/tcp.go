package rpc

import (
	"fmt"
	"io"
	"sync"
	"time"

	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// defaultCallTimeout is the netsim call bound when EndpointConfig leaves it
// zero; a quarter of it bounds server-to-client callbacks on both carriers.
const defaultCallTimeout = 60 * time.Second

// maxHandshakeFrame caps every frame read before authentication. The
// largest real handshake message is a hello, 72 bytes plus the user name,
// so this leaves room for any plausible name while an unauthenticated
// client can no longer make the server allocate wire.MaxField.
const maxHandshakeFrame = 4 << 10

// handshakeTimeout bounds a whole stream handshake, so a client that
// connects and stalls cannot hold the accepting goroutine forever. A
// variable only so tests can shorten it.
var handshakeTimeout = 10 * time.Second

// backTimeout bounds a server-to-client call on an accepted Peer, like the
// netsim default CallbackTimeout: a stalled cache holder must not block
// every writer to the files it caches. A variable only so tests can
// shorten it.
var backTimeout = defaultCallTimeout / 4

// Peer is an authenticated, encrypted, full-duplex RPC connection over a
// real byte stream (typically TCP): a session on the stream carrier. Both
// sides may place calls; both sides may serve them. It carries exactly the
// bytes the simulated transport models, so cmd/itcfsd is the same Vice the
// simulator evaluates.
type Peer struct {
	session
	host host
	conn io.ReadWriteCloser
	wmu  sync.Mutex    // serializes frame writes
	done chan struct{} // closed once the session closes
}

// SetTracer installs a tracer recording a span per call this peer serves.
// Real clients do not propagate trace context, so each served call begins a
// new root (see Tracer.StartRemote). Safe while calls are being served.
func (p *Peer) SetTracer(t *trace.Tracer) { p.host.tracer.Store(t) }

// SetMetrics installs a registry observing the wall-clock service time of
// every call this peer serves into the canonical rpc.serve.latency
// histogram. Safe while calls are being served; a nil registry is inert.
func (p *Peer) SetMetrics(reg *trace.Registry) {
	p.host.serveLat.Store(reg.Histogram(trace.MetricRPCServeLatency))
}

// DialPeer authenticates as user over conn (handshake messages 1-4) and
// returns a connected peer. server, which may be nil, handles calls the far
// side places on this connection (callbacks).
func DialPeer(conn io.ReadWriteCloser, user string, key secure.Key, server *Server) (*Peer, error) {
	lift := bound(conn)
	box, err := clientHandshake(user, key, func(_ uint8, msg []byte) ([]byte, error) {
		return exchange(conn, msg)
	})
	lift()
	if err != nil {
		return nil, err
	}
	return startPeer(conn, box, user, "server", true, server), nil
}

// AcceptPeer performs the server side of the handshake on conn, resolving
// client keys through keys, and returns the authenticated peer. server
// handles the client's calls. Handshake frames are capped at
// maxHandshakeFrame, and the whole handshake at handshakeTimeout when conn
// supports deadlines.
func AcceptPeer(conn io.ReadWriteCloser, keys secure.KeyLookup, server *Server) (*Peer, error) {
	lift := bound(conn)
	box, user, err := serverHandshake(conn, keys)
	lift()
	if err != nil {
		return nil, err
	}
	return startPeer(conn, box, user, user, false, server), nil
}

func serverHandshake(conn io.ReadWriter, keys secure.KeyLookup) (*secure.Box, string, error) {
	hs := secure.NewServerHandshake(keys)
	hello, err := exchange(conn, nil)
	if err != nil {
		return nil, "", err
	}
	challenge, err := hs.Challenge(hello)
	if err != nil {
		return nil, "", err
	}
	proof, err := exchange(conn, challenge)
	if err != nil {
		return nil, "", err
	}
	final, key, err := hs.Complete(proof)
	if err != nil {
		return nil, "", err
	}
	if err := wire.WriteFrame(conn, final); err != nil {
		return nil, "", fmt.Errorf("rpc: handshake: %w", err)
	}
	return secure.NewBox(key), hs.User(), nil
}

// bound puts the handshake deadline on conn if it has deadlines, returning
// the function that lifts it again.
func bound(conn io.ReadWriteCloser) (lift func()) {
	d, ok := conn.(interface{ SetDeadline(time.Time) error })
	if !ok {
		return func() {}
	}
	_ = d.SetDeadline(time.Now().Add(handshakeTimeout)) //itcvet:allow wallclock -- real handshake deadline
	return func() { _ = d.SetDeadline(time.Time{}) }
}

// exchange sends one handshake message (none for the server's first read)
// and reads the answer through the pre-authentication size cap.
func exchange(conn io.ReadWriter, msg []byte) ([]byte, error) {
	if msg != nil {
		if err := wire.WriteFrame(conn, msg); err != nil {
			return nil, fmt.Errorf("rpc: handshake: %w", err)
		}
	}
	in, err := wire.ReadFrameLimit(conn, maxHandshakeFrame)
	if err != nil {
		return nil, fmt.Errorf("rpc: handshake: %w", err)
	}
	return in, nil
}

func startPeer(conn io.ReadWriteCloser, box *secure.Box, user, name string, dialed bool, server *Server) *Peer {
	if server == nil {
		server = NewServer() // answers every call with CodeUnknownOp
	}
	p := &Peer{conn: conn, done: make(chan struct{})}
	p.host.server, p.host.node = server, name
	p.session = session{host: &p.host, box: box, user: user, peer: name, dialed: dialed, inband: true,
		pending: make(map[uint32]waiter)}
	go p.readLoop()
	return p
}

// Call performs one RPC and blocks until the reply arrives or the
// connection dies. The proc argument exists for signature compatibility
// with the simulated transport and is ignored. Real clients do not trace;
// the trace header rides zeroed.
func (p *Peer) Call(_ *sim.Proc, req Request) (Response, error) {
	out, _ := p.call(p, make(replyChan, 1), nil, p.next(), wire.TraceHeader{}, req, 0)
	return out.resp, out.err
}

// CallBack implements Backchannel. On an accepted peer it is a
// server-to-client call, bounded by backTimeout; on a dialed peer it is an
// ordinary call.
func (p *Peer) CallBack(_ *sim.Proc, req Request) (Response, error) {
	if p.dialed {
		return p.Call(nil, req)
	}
	out, _ := p.call(p, make(replyChan, 1), nil, p.next(), wire.TraceHeader{}, req, backTimeout)
	return out.resp, out.err
}

func (p *Peer) write(sealed []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	//itcvet:allowblocking wmu exists to serialize frame writes; writers expect to pace each other on socket I/O
	return wire.WriteFrame(p.conn, sealed)
}

// roundTrip makes Peer the session's carrier. Its wait needs no watch on
// the connection: closing the session fails every pending waiter.
func (p *Peer) roundTrip(_ *sim.Proc, w waiter, sealed []byte, op Op, timeout time.Duration) (outcome, *pkt) {
	if err := p.write(sealed); err != nil {
		return outcome{err: err}, nil
	}
	ch := w.(replyChan)
	if timeout == 0 {
		return <-ch, nil
	}
	t := time.NewTimer(timeout) //itcvet:allow wallclock -- real transport: callbacks are bounded in wall time
	defer t.Stop()
	select {
	case out := <-ch:
		return out, nil
	case <-t.C:
		return outcome{err: fmt.Errorf("%w: op %d to %s", ErrTimeout, op, p.peer)}, nil
	}
}

// Close tears the connection down and fails all in-flight calls.
func (p *Peer) Close() error {
	if !p.close(ErrClosed) {
		return nil
	}
	close(p.done)
	return p.conn.Close()
}

// Done is closed when the connection has terminated.
func (p *Peer) Done() <-chan struct{} { return p.done }

// readLoop demultiplexes inbound frames until the connection dies. Any
// frame that fails authentication or decoding drops the connection, per
// mutual suspicion.
func (p *Peer) readLoop() {
	defer p.Close()
	for {
		frame, err := wire.ReadFrame(p.conn)
		if err != nil {
			return
		}
		kind, plain, ok := p.open(frame)
		if !ok {
			return
		}
		switch kind {
		case kindCall:
			seq, tc, req, err := decodeCall(plain)
			if err != nil {
				return
			}
			go func() {
				_ = p.write(p.serve(nil, p, seq, tc, req)) // a write failure kills the readLoop shortly
			}()
		case kindReply:
			if !p.resolve(plain, nil) {
				return
			}
		default:
			return
		}
	}
}
