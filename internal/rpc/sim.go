package rpc

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
)

// pkt is the unit carried through the simulated network. Data is real
// encrypted bytes — the simulation does not fake the cryptography, only the
// passage of time.
type pkt struct {
	Conn uint64
	Kind uint8
	Data []byte
	From netsim.NodeID

	// Network-delay accounting, stamped by netsim (the DelaySink interface)
	// as the frame traverses links. The RPC client reads the request and
	// reply packets' delays to attribute call latency between queueing,
	// serialization and propagation. A frame duplicated by the fault plane
	// shares the pkt and accumulates twice; the fault-free runs the
	// critical-path analyzer measures are unaffected.
	queueDelay  time.Duration
	serialDelay time.Duration
	propDelay   time.Duration
}

func (p *pkt) size() int { return packetOverhead + len(p.Data) }

// AddNetDelay implements netsim.DelaySink.
func (p *pkt) AddNetDelay(queue, serial, prop time.Duration) {
	p.queueDelay += queue
	p.serialDelay += serial
	p.propDelay += prop
}

// WirePayload exposes the packet's bytes to the netsim corruption fault.
// Damaged packets fail the seal's MAC (or handshake verification) at the
// receiver and are discarded, exactly like a frame with a bad checksum.
func (p *pkt) WirePayload() []byte { return p.Data }

// RetryPolicy bounds retransmission of calls (and handshake steps) over the
// simulated transport. The zero value means a single attempt per call. Each
// retry reuses the call's sequence number, so the receiver's at-most-once
// reply cache recognizes retransmissions and never executes a call twice.
type RetryPolicy struct {
	Attempts   int           // total attempts per call; <= 1 disables retries
	Backoff    time.Duration // delay before the 2nd attempt; doubles per retry
	MaxBackoff time.Duration // cap on the backoff (0 = uncapped)
	Jitter     float64       // +/- fraction of random spread per backoff
	Seed       int64         // seeds the deterministic jitter source
}

// replyCache gives a connection at-most-once call semantics: the fault plane
// can duplicate frames and clients retransmit on timeout, so the receiver
// must recognize a sequence number it has already executed and resend the
// saved reply instead of running the operation again.
type replyCache struct {
	done  map[uint32][]byte // seq -> sealed reply packet; nil while executing
	order []uint32          // finished seqs, oldest first
}

const replyCacheSize = 512

func (rc *replyCache) finish(seq uint32, sealed []byte) {
	rc.done[seq] = sealed
	rc.order = append(rc.order, seq)
	for len(rc.order) > replyCacheSize {
		delete(rc.done, rc.order[0])
		rc.order = rc.order[1:]
	}
}

// EndpointConfig configures an Endpoint.
type EndpointConfig struct {
	// Keys authenticates inbound connections; nil endpoints refuse them.
	Keys secure.KeyLookup
	// Server handles inbound calls; nil endpoints refuse them.
	Server *Server
	// Model computes per-call resource charges (may be nil).
	Model CostModel
	// Meters are the devices charges apply to (fields may be nil).
	Meters Meters
	// AuthCost is charged per handshake message served.
	AuthCost Cost
	// CallTimeout bounds Dial and Call waits; 0 means 60 simulated seconds.
	CallTimeout time.Duration
	// Retry enables bounded retransmission with exponential backoff and
	// jitter; the zero value keeps the original single-attempt behavior.
	Retry RetryPolicy
	// CallbackTimeout bounds a server-to-client callback break. 0 means a
	// quarter of CallTimeout: a dead cache holder must not stall a
	// mutation for the caller's full call deadline.
	CallbackTimeout time.Duration
	// Tracer records distributed spans for calls through this endpoint.
	// Nil disables tracing at near-zero cost (one nil check per call).
	Tracer *trace.Tracer
	// Metrics receives RPC counters and latency histograms. Nil disables.
	Metrics *trace.Registry
	// Flight, when set, receives operational events (call and handshake
	// retransmissions) for the flight recorder. Nil disables.
	Flight *trace.Recorder
	// Observe, when set, is invoked after every served call with the
	// measured virtual service time (dispatch plus cost-model charges).
	// The Vice server uses it to feed per-volume latency histograms.
	Observe func(ctx Ctx, req Request, resp Response, svc time.Duration)
}

// Endpoint binds RPC to one node of the simulated network. It serves
// inbound connections (if configured with keys and a server) and originates
// outbound ones. It registers itself as the node's frame sink at
// construction, so received frames dispatch in kernel event context with no
// receive loop to wake.
type Endpoint struct {
	k    *sim.Kernel
	net  *netsim.Network
	node *netsim.Node
	cfg  EndpointConfig
	host host // serving side of every session on this endpoint

	nextConn uint64
	outbound map[uint64]*SimConn
	inbound  map[inKey]*inConn

	down bool
	rng  *rand.Rand // deterministic jitter source for retry backoff

	callCounts    map[Op]int64
	callsTotal    int64
	retries       int64
	dupSuppressed int64

	// mInflight gauges the calls currently executing in worker processes on
	// this endpoint (server endpoints only). Nil without a registry.
	mInflight *trace.Gauge

	// Cached handles for the per-call metrics. Registry lookups hash the
	// metric name under a mutex; resolving once at construction keeps the
	// call hot path free of them. All are nil (and their methods no-ops)
	// without a registry. The cell-wide counters every endpoint shares by
	// name are striped: mShard (this endpoint's node-name hash) pins each
	// machine's increments to one shard, so 30k clients retrying at once
	// don't serialize on a single cache line.
	mShard    uint64
	mRetries  *trace.StripedCounter
	mTimeouts *trace.StripedCounter
	mReplays  *trace.StripedCounter
	mDupSup   *trace.StripedCounter
	mCallLat  *trace.Histogram
}

type inKey struct {
	from netsim.NodeID
	conn uint64
}

// simLink is the netsim carrier under one session: the far node, the
// connection id (chosen by the dialing endpoint) and the at-most-once
// cache for calls arriving on the connection.
type simLink struct {
	session
	ep     *Endpoint
	remote netsim.NodeID
	id     uint64
	served *replyCache
}

// SimConn is an authenticated outbound connection.
type SimConn struct {
	simLink
	hsReply *sim.Future[[]byte] // in-flight handshake step
}

// inConn is the server-side state of an accepted connection.
type inConn struct {
	simLink
	hs      *secure.ServerHandshake
	hsFinal []byte // saved final handshake message, resent on duplicate proofs
}

// NewEndpoint attaches an endpoint to node and registers its receive sink.
func NewEndpoint(net *netsim.Network, node *netsim.Node, cfg EndpointConfig) *Endpoint {
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = defaultCallTimeout
	}
	if cfg.CallbackTimeout == 0 {
		cfg.CallbackTimeout = cfg.CallTimeout / 4
	}
	ep := &Endpoint{
		k:          net.Kernel(),
		net:        net,
		node:       node,
		cfg:        cfg,
		outbound:   make(map[uint64]*SimConn),
		inbound:    make(map[inKey]*inConn),
		callCounts: make(map[Op]int64),
		rng:        rand.New(rand.NewSource(cfg.Retry.Seed ^ int64(node.ID)*0x5851f42d4c957f2d)),
	}
	if cfg.Metrics != nil && cfg.Keys != nil {
		// Only authenticating (server) endpoints gauge their worker queue:
		// a thousand workstations' callback endpoints would pollute the
		// registry with idle series.
		ep.mInflight = cfg.Metrics.Gauge(trace.RPCInflightGauge(node.Name))
	}
	ep.mShard = trace.ShardKey(node.Name)
	ep.mRetries = cfg.Metrics.Striped(trace.MetricRPCRetries)
	ep.mTimeouts = cfg.Metrics.Striped(trace.MetricRPCCallTimeouts)
	ep.mReplays = cfg.Metrics.Striped(trace.MetricRPCReplyCacheReplays)
	ep.mDupSup = cfg.Metrics.Striped(trace.MetricRPCDupSuppressed)
	ep.mCallLat = cfg.Metrics.Histogram(trace.MetricRPCCallLatency)
	ep.host.server, ep.host.node, ep.host.cfg = cfg.Server, node.Name, &ep.cfg
	ep.host.tracer.Store(cfg.Tracer)
	ep.host.serveLat.Store(cfg.Metrics.Histogram(trace.MetricRPCServeLatency))
	node.SetSink(ep.deliver)
	return ep
}

// Crash power-fails the endpoint: every connection (inbound and outbound)
// and all at-most-once reply state is lost, and until Restart the endpoint
// neither sends nor receives. In-flight callers see their calls time out.
func (ep *Endpoint) Crash() {
	ep.down = true
	ep.outbound = make(map[uint64]*SimConn)
	ep.inbound = make(map[inKey]*inConn)
}

// Restart brings a crashed endpoint back up with empty connection state.
// Peers must redial: their old connections are gone on this side and their
// calls on them will time out.
func (ep *Endpoint) Restart() { ep.down = false }

// Retries returns the number of call/handshake retransmissions sent.
func (ep *Endpoint) Retries() int64 { return ep.retries }

// DupSuppressed returns inbound calls recognized as duplicates by the
// at-most-once reply cache (answered from the cache or ignored while the
// original is still executing).
func (ep *Endpoint) DupSuppressed() int64 { return ep.dupSuppressed }

// pause counts and logs retry attempt a (a >= 1) of a call or handshake
// step to remote, then sleeps out its backoff.
func (ep *Endpoint) pause(p *sim.Proc, a int, remote netsim.NodeID, what string, id int) {
	ep.retries++
	ep.mRetries.Inc(ep.mShard)
	if fl := ep.cfg.Flight; fl != nil {
		fl.Log(trace.EventRPCRetry, ep.node.Name, fmt.Sprintf("%s %d attempt %d to node %d", what, id, a+1, remote))
	}
	p.Sleep(ep.backoff(a))
}

// backoff returns the delay before retry attempt a (a >= 1): exponential in
// the attempt number with deterministic jitter.
func (ep *Endpoint) backoff(a int) time.Duration {
	d := ep.cfg.Retry.Backoff
	if d <= 0 {
		d = time.Second
	}
	ceil := ep.cfg.Retry.MaxBackoff
	for i := 1; i < a && (ceil <= 0 || d < ceil); i++ {
		d *= 2
	}
	if ceil > 0 && d > ceil {
		d = ceil
	}
	if j := ep.cfg.Retry.Jitter; j > 0 {
		d = time.Duration(float64(d) * (1 + j*(2*ep.rng.Float64()-1)))
	}
	return max(d, 0)
}

// Node returns the network node the endpoint is bound to.
func (ep *Endpoint) Node() *netsim.Node { return ep.node }

// CallCounts returns a copy of the per-op histogram of calls served. This is
// the raw data behind the paper's "histogram of calls received by servers".
func (ep *Endpoint) CallCounts() map[Op]int64 { return maps.Clone(ep.callCounts) }

// CallsTotal returns the total number of calls served.
func (ep *Endpoint) CallsTotal() int64 { return ep.callsTotal }

func (ep *Endpoint) send(to netsim.NodeID, p *pkt) {
	if ep.down {
		return // a crashed host transmits nothing
	}
	p.From = ep.node.ID
	ep.net.Send(ep.node.ID, to, p.size(), p)
}

// deliver is the endpoint's receive path, registered as the node's frame
// sink: it runs in kernel event context, one scheduling hop after final
// propagation — exactly where the old dispatcher process resumed from its
// inbox park, minus the park/resume round trip per frame. It never blocks;
// all potentially-blocking work runs in per-call worker processes, which is
// exactly the single-process/many-LWPs server structure of the revised
// implementation (§3.5.2).
func (ep *Endpoint) deliver(msg netsim.Message) {
	pk, ok := msg.Payload.(*pkt)
	if !ok || ep.down {
		return // not ours, or a crashed host, which hears nothing
	}
	switch pk.Kind {
	case kindHello, kindProof:
		ep.handleHandshake(pk)
	case kindChallenge, kindSession:
		if c := ep.outbound[pk.Conn]; c != nil && c.remote == pk.From && c.hsReply != nil {
			f := c.hsReply
			c.hsReply = nil
			f.Set(pk.Data)
		}
	case kindCall:
		ep.handleCall(pk)
	case kindReply:
		ep.handleReply(pk)
	case kindClose:
		delete(ep.inbound, inKey{pk.From, pk.Conn})
	}
}

// workerNames caches per-op worker process names: a server spawns one worker
// per inbound call, and formatting the name fresh each time was a measurable
// allocation site at tens of thousands of clients.
var workerNames sync.Map // Op -> string

func workerName(op Op) string {
	if n, ok := workerNames.Load(op); ok {
		return n.(string)
	}
	n := fmt.Sprintf("rpc-worker-op%d", op)
	workerNames.Store(op, n)
	return n
}

// link makes l a fresh session of this endpoint's to remote.
func (ep *Endpoint) link(l *simLink, remote netsim.NodeID, id uint64, user string, dialed bool) {
	l.session = session{host: &ep.host, user: user, peer: ep.net.Node(remote).Name, dialed: dialed,
		pending: make(map[uint32]waiter)}
	l.ep, l.remote, l.id, l.served = ep, remote, id, &replyCache{done: make(map[uint32][]byte)}
}

// handleHandshake serves handshake messages 1 and 3 in a worker process,
// charging the configured authentication cost.
func (ep *Endpoint) handleHandshake(pk *pkt) {
	if ep.cfg.Keys == nil {
		return // not accepting connections; silence, like a dark host
	}
	key := inKey{pk.From, pk.Conn}
	ep.k.Spawn("rpc-auth", func(p *sim.Proc) {
		ep.cfg.Meters.charge(p, ep.cfg.AuthCost)
		switch pk.Kind {
		case kindHello:
			if ic := ep.inbound[key]; ic != nil && ic.box != nil {
				return // duplicate hello on an established connection
			}
			hs := secure.NewServerHandshake(ep.cfg.Keys)
			challenge, err := hs.Challenge(pk.Data)
			if err != nil {
				return // authentication failure: no reply, client times out
			}
			ic := &inConn{hs: hs}
			ep.link(&ic.simLink, pk.From, pk.Conn, "", false)
			ep.inbound[key] = ic
			ep.send(pk.From, &pkt{Conn: pk.Conn, Kind: kindChallenge, Data: challenge})
		case kindProof:
			ic := ep.inbound[key]
			if ic == nil {
				return
			}
			if ic.hs == nil {
				// Retransmitted proof for a handshake that already finished
				// (our final message was lost or duplicated in flight):
				// resend it so the client can complete.
				if ic.box != nil && ic.hsFinal != nil {
					ep.send(pk.From, &pkt{Conn: pk.Conn, Kind: kindSession, Data: append([]byte(nil), ic.hsFinal...)})
				}
				return
			}
			final, session, err := ic.hs.Complete(pk.Data)
			if err != nil {
				delete(ep.inbound, key)
				return
			}
			ic.user = ic.hs.User()
			ic.box = secure.NewBox(session)
			ic.hs = nil
			ic.hsFinal = append([]byte(nil), final...)
			ep.send(pk.From, &pkt{Conn: pk.Conn, Kind: kindSession, Data: final})
		}
	})
}

// handleCall decrypts and dedupes one inbound call and serves it in a
// worker process. Calls arrive on inbound connections (a client calling
// the server) or on outbound ones (the server breaking a callback to us).
func (ep *Endpoint) handleCall(pk *pkt) {
	var l *simLink
	var back Backchannel
	if ic := ep.inbound[inKey{pk.From, pk.Conn}]; ic != nil && ic.box != nil {
		l, back = &ic.simLink, ic
	} else if c := ep.outbound[pk.Conn]; c != nil && c.remote == pk.From && c.box != nil {
		l, back = &c.simLink, c
	} else {
		return // unknown or unauthenticated connection
	}
	_, plain, ok := l.open(pk.Data)
	if !ok {
		return // tampered or replayed under the wrong key
	}
	seq, tc, req, err := decodeCall(plain)
	if err != nil || ep.cfg.Server == nil {
		return
	}
	// At-most-once: a retransmitted or duplicated call must not execute
	// again. Answer finished calls from the reply cache; stay silent while
	// the original is still executing (its reply will cover both frames).
	// The cached sealed reply carries the original execution's service
	// time, so replays attribute latency truthfully.
	if sealed, seen := l.served.done[seq]; seen {
		ep.dupSuppressed++
		if sealed == nil {
			ep.mDupSup.Inc(ep.mShard)
			return
		}
		ep.mReplays.Inc(ep.mShard)
		ep.send(pk.From, &pkt{Conn: pk.Conn, Kind: kindReply, Data: sealed})
		return
	}
	l.served.done[seq] = nil
	ep.callCounts[req.Op]++
	ep.callsTotal++
	ep.mInflight.Add(1)
	ep.k.Spawn(workerName(req.Op), func(p *sim.Proc) {
		defer ep.mInflight.Add(-1)
		sealed := l.serve(p, back, seq, tc, req)
		l.served.finish(seq, sealed)
		ep.send(pk.From, &pkt{Conn: pk.Conn, Kind: kindReply, Data: sealed})
	})
}

// handleReply resolves a reply to a call this endpoint originated — on an
// outbound connection, or a callback on an inbound one.
func (ep *Endpoint) handleReply(pk *pkt) {
	var s *session
	if c := ep.outbound[pk.Conn]; c != nil && c.remote == pk.From && c.box != nil {
		s = &c.session
	} else if ic := ep.inbound[inKey{pk.From, pk.Conn}]; ic != nil && ic.box != nil {
		s = &ic.session
	} else {
		return
	}
	if _, plain, ok := s.open(pk.Data); ok {
		s.resolve(plain, pk)
	}
}

// roundTrip makes simLink the session's carrier.
func (l *simLink) roundTrip(p *sim.Proc, w waiter, sealed []byte, op Op, timeout time.Duration) (outcome, *pkt) {
	pk := &pkt{Conn: l.id, Kind: kindCall, Data: sealed}
	l.ep.send(l.remote, pk)
	f := w.(*sim.Future[outcome])
	l.ep.k.After(timeout, func() {
		if !f.Done() { // answered calls build no timeout error
			f.Set(outcome{err: fmt.Errorf("%w: op %d to node %d", ErrTimeout, op, l.remote)})
		}
	})
	return f.Wait(p), pk
}

// invoke wraps the session call path in the client span, retransmission
// with backoff and latency attribution. Every attempt reuses one sequence
// number, so the far side's at-most-once cache executes the operation
// exactly once no matter how often frames are lost or duplicated.
func (l *simLink) invoke(p *sim.Proc, req Request, attempts int, timeout time.Duration) (Response, error) {
	ep := l.ep
	sp := ep.cfg.Tracer.Begin(p, trace.SpanRPCCall, ep.node.Name)
	sp.SetInt(trace.AttrOp, int64(req.Op))
	started := p.Now()
	seq := l.next()
	tc := sp.Context()
	var lastErr error
	for a := 0; a < max(attempts, 1); a++ {
		if a > 0 {
			ep.pause(p, a, l.remote, "op", int(req.Op))
			if l.isClosed() {
				sp.End()
				return Response{}, lastErr
			}
		}
		out, reqPkt := l.call(l, sim.NewFuture[outcome](ep.k), p, seq, tc, req, timeout)
		if out.err == nil {
			ep.finishCall(sp, p, started, reqPkt, out)
			return out.resp, nil
		}
		ep.mTimeouts.Inc(ep.mShard)
		lastErr = out.err
	}
	sp.End()
	return Response{}, lastErr
}

// finishCall stamps network and server accounting on a completed call span
// and records client-observed latency. Attribution reads the delays netsim
// accumulated on the request packet of the answered attempt and on the reply
// packet, plus the service time the server echoed in the reply. On a
// fault-free network every call is one attempt and the components sum
// exactly to the span's duration; under retries the reply may answer an
// earlier attempt, so attribution is approximate.
func (ep *Endpoint) finishCall(sp *trace.Span, p *sim.Proc, started sim.Time, reqPkt *pkt, out outcome) {
	q, s, pr := reqPkt.queueDelay, reqPkt.serialDelay, reqPkt.propDelay
	if rp := out.pkt; rp != nil {
		q += rp.queueDelay
		s += rp.serialDelay
		pr += rp.propDelay
	}
	sp.SetInt(trace.AttrNetQueueNs, int64(q))
	sp.SetInt(trace.AttrNetSerialNs, int64(s))
	sp.SetInt(trace.AttrNetPropNs, int64(pr))
	sp.SetInt(trace.AttrServerNs, int64(out.svc))
	sp.End()
	ep.mCallLat.Observe(p.Now().Sub(started))
}

// Dial establishes an authenticated connection to the endpoint on the
// remote node, performing the full four-message handshake in virtual time.
// It must be called from a simulated process.
func (ep *Endpoint) Dial(p *sim.Proc, remote netsim.NodeID, user string, key secure.Key) (*SimConn, error) {
	ep.nextConn++
	c := &SimConn{}
	ep.link(&c.simLink, remote, ep.nextConn, user, true)
	ep.outbound[c.id] = c
	box, err := clientHandshake(user, key, func(kind uint8, msg []byte) ([]byte, error) {
		return c.handshakeStep(p, kind, msg)
	})
	if err != nil {
		delete(ep.outbound, c.id)
		return nil, err
	}
	c.box = box
	return c, nil
}

// handshakeStep sends one handshake message and waits for its reply,
// retransmitting with backoff under the endpoint's retry policy. Each
// attempt sends a fresh copy of the message so an in-flight corruption
// fault cannot poison later retransmissions.
func (c *SimConn) handshakeStep(p *sim.Proc, kind uint8, data []byte) ([]byte, error) {
	for a := 0; a < max(c.ep.cfg.Retry.Attempts, 1); a++ {
		if a > 0 {
			c.ep.pause(p, a, c.remote, "handshake kind", int(kind))
		}
		f := sim.NewFuture[[]byte](c.ep.k)
		c.hsReply = f
		c.ep.send(c.remote, &pkt{Conn: c.id, Kind: kind, Data: append([]byte(nil), data...)})
		c.ep.k.After(c.ep.cfg.CallTimeout, func() {
			if f.TrySet(nil) && c.hsReply == f {
				c.hsReply = nil
			}
		})
		if reply := f.Wait(p); reply != nil {
			return reply, nil
		}
	}
	return nil, fmt.Errorf("%w: handshake timeout to node %d", ErrUnreachable, c.remote)
}

// Call performs one RPC and waits (in virtual time) for the reply. Under a
// retry policy, unanswered attempts are retransmitted with exponential
// backoff and jitter.
func (c *SimConn) Call(p *sim.Proc, req Request) (Response, error) {
	if c.isClosed() {
		return Response{}, ErrClosed
	}
	return c.invoke(p, req, c.ep.cfg.Retry.Attempts, c.ep.cfg.CallTimeout)
}

// Close tears down the connection; the server forgets its state.
func (c *SimConn) Close() {
	if !c.close(nil) {
		return
	}
	c.ep.send(c.remote, &pkt{Conn: c.id, Kind: kindClose})
	delete(c.ep.outbound, c.id)
}

// CallBack places a call from the server back to the client on an accepted
// connection (callback breaking): one attempt, bounded by CallbackTimeout.
// The call rides the worker's ambient serve span, so the break appears in
// the same distributed trace as the mutation that caused it. It implements
// Backchannel.
func (ic *inConn) CallBack(p *sim.Proc, req Request) (Response, error) {
	return ic.invoke(p, req, 1, ic.ep.cfg.CallbackTimeout)
}

// CallBack on an outbound connection is an ordinary call: the client side of
// a connection reaches the server the same way in both roles. It implements
// Backchannel so callback handlers can answer the server symmetrically.
func (c *SimConn) CallBack(p *sim.Proc, req Request) (Response, error) { return c.Call(p, req) }
