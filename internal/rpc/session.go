package rpc

import (
	"sync"
	"sync/atomic"
	"time"

	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// outcome is how a call attempt ends, as its waiter receives it.
type outcome struct {
	resp Response
	err  error
	svc  time.Duration // server-reported service time, echoed in the reply
	pkt  *pkt          // the netsim reply packet, carrying its network delays
}

// waiter is a pending call's reply slot: a *sim.Future[outcome] on the
// netsim carrier, a replyChan on the stream carrier. Both are pointers
// underneath, so holding one in the pending table allocates nothing.
type waiter interface{ TrySet(outcome) bool }

// replyChan is the stream carrier's waiter. Its one-slot buffer takes the
// single outcome a call ever receives, so filling it never blocks.
type replyChan chan outcome

func (c replyChan) TrySet(o outcome) bool {
	select {
	case c <- o:
		return true
	default:
		return false
	}
}

// carrier moves one call attempt of a session across its transport.
type carrier interface {
	// roundTrip transmits a sealed call and blocks until w is filled or
	// timeout passes; a zero timeout waits for the reply or the end of the
	// session. It also returns the netsim packet that carried the call
	// (nil on a stream), for latency attribution.
	roundTrip(p *sim.Proc, w waiter, sealed []byte, op Op, timeout time.Duration) (outcome, *pkt)
}

// host is the serving side a session dispatches through: one per netsim
// Endpoint, one per stream Peer. The tracer and latency histogram are
// atomic because daemons install them on a Peer that is already serving.
type host struct {
	server   *Server
	node     string // node name on served-call spans
	tracer   atomic.Pointer[trace.Tracer]
	serveLat atomic.Pointer[trace.Histogram]
	cfg      *EndpointConfig // netsim only: cost model and Observe hook
}

// wallEpoch anchors the stream carrier's clock.
var wallEpoch = time.Now() //itcvet:allow wallclock -- stream carrier: service time is wall time

// clock reads virtual time for a simulated worker and wall time for a nil
// one (the stream carrier, where service time is real).
func clock(p *sim.Proc) time.Duration {
	if p != nil {
		return time.Duration(p.Now())
	}
	return time.Since(wallEpoch) //itcvet:allow wallclock -- stream carrier: service time is wall time
}

// session is one authenticated, encrypted connection, whichever carrier
// moves its packets. It owns the seq counter, the pending table, reply
// resolution, the served-call body and failing calls on close; see the
// package comment for what stays with each carrier.
type session struct {
	host   *host
	box    *secure.Box // nil until the handshake completes
	user   string      // identity the connection authenticated as
	peer   string      // far side's name, for Ctx.Peer
	dialed bool        // this side dialed, so the far side is a server
	inband bool        // packet kinds ride inside the seal (stream carrier)

	mu      sync.Mutex
	nextSeq uint32            // guarded by mu
	pending map[uint32]waiter // guarded by mu
	closed  bool              // guarded by mu
}

// User returns the identity the connection authenticated as: on the
// accepting side the client's user, on the dialing side the local user.
func (s *session) User() string { return s.user }

// BackUser implements Backchannel.
func (s *session) BackUser() string { return s.user }

func (s *session) next() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq++
	return s.nextSeq
}

func (s *session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// call is the call path of every session: register the fresh waiter w
// under seq, seal and send the call, and wait for the reply, the timeout or
// the end of the session. Retries reuse seq, so they call it again.
func (s *session) call(c carrier, w waiter, p *sim.Proc, seq uint32, tc wire.TraceHeader, req Request, timeout time.Duration) (outcome, *pkt) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return outcome{err: ErrClosed}, nil
	}
	s.pending[seq] = w
	s.mu.Unlock()
	out, sent := c.roundTrip(p, w, s.sealCall(seq, tc, req), req.Op, timeout)
	if out.err != nil {
		// Only this attempt's w can sit under seq: retries register after
		// it returns, and a reply that filled w already removed it.
		s.mu.Lock()
		delete(s.pending, seq)
		s.mu.Unlock()
	}
	return out, sent
}

// sealCall encodes and seals a call in one pass: the plaintext lives only
// in a pooled encoder, never in a fresh allocation of its own. A stream has
// no packet header, so its kind byte leads the plaintext and stays under
// the MAC; netsim packets carry the kind in their header instead.
func (s *session) sealCall(seq uint32, tc wire.TraceHeader, req Request) []byte {
	e := wire.GetEncoder()
	if s.inband {
		e.U8(kindCall)
	}
	encodeCallInto(e, seq, tc, req)
	sealed := s.box.Seal(e.Buf())
	wire.PutEncoder(e)
	return sealed
}

// sealReply is sealCall for replies. Fetch replies carry whole files in
// Bulk, so the skipped plaintext copy is the file.
func (s *session) sealReply(seq uint32, svc time.Duration, resp Response) []byte {
	e := wire.GetEncoder()
	if s.inband {
		e.U8(kindReply)
	}
	encodeReplyInto(e, seq, svc, resp)
	sealed := s.box.Seal(e.Buf())
	wire.PutEncoder(e)
	return sealed
}

// open authenticates a sealed packet, splitting off the kind byte on a
// stream (netsim callers know the kind from the packet header).
func (s *session) open(sealed []byte) (kind uint8, plain []byte, ok bool) {
	plain, err := s.box.Open(sealed)
	switch {
	case err != nil || s.inband && len(plain) == 0:
		return 0, nil, false
	case s.inband:
		return plain[0], plain[1:], true
	}
	return 0, plain, true
}

// resolve decodes a reply and fills the waiter of the call it answers; a
// reply nobody waits for (late, or duplicated in flight) is dropped. It
// reports false for an undecodable reply.
func (s *session) resolve(plain []byte, pk *pkt) bool {
	seq, svc, resp, err := decodeReply(plain)
	if err != nil {
		return false
	}
	s.mu.Lock()
	w := s.pending[seq]
	delete(s.pending, seq)
	s.mu.Unlock()
	if w != nil {
		w.TrySet(outcome{resp: resp, svc: svc, pkt: pk})
	}
	return true
}

// serve is the served-call body of both carriers: server span, dispatch,
// service time and the serve-latency metric. It returns the response and
// the service time for the carrier to seal with sealReply (the netsim
// carrier also keeps both for replays). On the netsim carrier p is the
// worker process, time is virtual and the endpoint's cost model charges the
// call before service time is read, so the reply echoes the whole interval
// the server held it.
func (s *session) serve(p *sim.Proc, back Backchannel, tc wire.TraceHeader, req Request) (Response, time.Duration) {
	h := s.host
	started := clock(p)
	var sp *trace.Span
	if tr := h.tracer.Load(); p != nil {
		sp = tr.BeginRemote(p, tc, trace.SpanRPCServe, h.node)
	} else {
		sp = tr.StartRemote(tc, trace.SpanRPCServe, h.node) // a zero context starts a new root
	}
	sp.SetInt(trace.AttrOp, int64(req.Op))
	ctx := Ctx{User: s.user, Peer: s.peer, Back: back, Proc: p, Span: sp}
	if s.dialed {
		ctx.User = "" // calls from a server carry no user
	}
	resp := h.server.Dispatch(ctx, req)
	if h.cfg != nil && h.cfg.Model != nil {
		h.cfg.Meters.charge(p, h.cfg.Model(ctx, req, resp))
	}
	svc := clock(p) - started
	if h.cfg != nil && h.cfg.Observe != nil {
		h.cfg.Observe(ctx, req, resp, svc)
	}
	h.serveLat.Load().Observe(svc)
	sp.End()
	return resp, svc
}

// close ends the session, reporting whether this call did. A non-nil err
// fails every pending call with it. The netsim carrier passes nil: its
// callers keep waiting out their timeouts, as they would for a peer that
// vanished from a lossy network.
func (s *session) close(err error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	if err != nil {
		// Filling a waiter never blocks, and each is independent, so the
		// order they fail in is unobservable.
		for _, w := range s.pending {
			w.TrySet(outcome{err: err})
		}
		s.pending = nil
	}
	return true
}

// clientHandshake runs the client side of the four-message handshake as
// user and returns the session box. step sends one message across the
// carrier and returns the server's answer.
func clientHandshake(user string, key secure.Key, step func(kind uint8, msg []byte) ([]byte, error)) (*secure.Box, error) {
	hs := secure.NewClientHandshake(user, key)
	challenge, err := step(kindHello, hs.Hello())
	if err != nil {
		return nil, err
	}
	proof, err := hs.Proof(challenge)
	if err != nil {
		return nil, err
	}
	final, err := step(kindProof, proof)
	if err != nil {
		return nil, err
	}
	key, err = hs.Session(final)
	if err != nil {
		return nil, err
	}
	return secure.NewBox(key), nil
}
