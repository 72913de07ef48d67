// Package rpc implements the connection-based remote procedure call package
// of Section 3.5.3: mutual client/server authentication and end-to-end
// encryption are integrated into the RPC layer, whole-file transfer is a
// side effect of a call (the Bulk payload), and a server is a single process
// with lightweight threads of control per call.
//
// One session core (session.go) is the connection: the session box, the
// authenticated user, the seq counter and pending table, reply resolution,
// the served-call body (span, dispatch, service time, serve-latency metric,
// a fused seal of the reply) and failing calls on close. The client side of
// the handshake is shared too. Sessions are full duplex: either side may
// place calls and serve them, which is how Vice breaks callbacks to Venus.
// Two thin carriers move a session's sealed packets:
//
//   - The netsim carrier (sim.go: Endpoint, SimConn) runs over the simulated
//     campus network in virtual time, which can lose and duplicate frames.
//     So it alone keeps retransmission with backoff, the at-most-once reply
//     cache, retransmission-tolerant server handshake steps, per-call worker
//     processes and cost-model charging. The evaluation harness uses it.
//   - The stream carrier (tcp.go: Peer) runs over any io.ReadWriteCloser,
//     typically TCP, which never duplicates a frame. It keeps framed writes,
//     a read loop and a goroutine per served call, with no reply cache: one
//     would pin whole fetch replies for nothing. It bounds the unauthenticated
//     handshake in size and time. cmd/itcfsd and cmd/itcfs use it.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// Op identifies a remote procedure.
type Op uint16

// Request is one remote procedure call. Body carries the marshalled
// arguments; Bulk carries a whole-file side effect, kept separate so
// transports and the cost model can account data bytes apart from protocol
// bytes (the paper's protocol-overhead argument for whole-file transfer).
type Request struct {
	Op   Op
	Body []byte
	Bulk []byte
}

// Response is the result of a call. Code 0 is success; other codes are
// service-level errors defined by the application protocol. Transport-level
// failures are reported as Go errors, never as codes.
type Response struct {
	Code uint16
	Body []byte
	Bulk []byte
}

// OK reports whether the response carries a success code.
func (r Response) OK() bool { return r.Code == 0 }

// WireSize returns the approximate on-wire byte count of a request,
// including per-packet protocol overhead. The simulator charges network
// links with it.
func (r Request) WireSize() int { return packetOverhead + len(r.Body) + len(r.Bulk) }

// WireSize returns the approximate on-wire byte count of a response.
func (r Response) WireSize() int { return packetOverhead + len(r.Body) + len(r.Bulk) }

// packetOverhead approximates header plus seal overhead per packet.
const packetOverhead = 96

// Errors returned by transports.
var (
	ErrClosed      = errors.New("rpc: connection closed")
	ErrUnreachable = errors.New("rpc: peer unreachable")
	ErrBadPacket   = errors.New("rpc: malformed packet")

	// ErrTimeout reports a call that got no reply in time on an established
	// connection: the request may or may not have executed. It wraps
	// ErrUnreachable, so callers treating timeouts as unreachability keep
	// working, while tests can tell "no reply in time" (matches both) from
	// "could not even connect" (matches only ErrUnreachable).
	ErrTimeout = fmt.Errorf("rpc: call timed out: %w", ErrUnreachable)
)

// Ctx describes the authenticated origin of an incoming call.
type Ctx struct {
	User string // authenticated identity from the handshake
	Peer string // transport-level peer name (node or address), for logging
	// Back lets the handler place calls to the originating client on the
	// same connection (callback breaking). Nil when the transport or
	// direction does not support it.
	Back Backchannel
	// Proc is the simulated worker process serving the call, for handlers
	// that must block (callbacks, forwarded calls). Nil on real transports,
	// whose handlers run on ordinary goroutines and may just block.
	Proc *sim.Proc
	// Span is the server-side trace span of this call, nil or suppressed
	// when the call is untraced. Handlers may annotate it.
	Span *trace.Span
}

// Backchannel lets a server place calls back to a connected client (the
// callback path of the revised design). The proc argument is the calling
// simulated process; real transports accept nil.
type Backchannel interface {
	CallBack(p *sim.Proc, req Request) (Response, error)
	BackUser() string
}

// HandlerFunc serves one call.
type HandlerFunc func(ctx Ctx, req Request) Response

// Server dispatches incoming calls by opcode. It is safe for concurrent use
// and may be shared across transports and connections.
type Server struct {
	mu       sync.RWMutex
	handlers map[Op]HandlerFunc // guarded by mu
	fallback HandlerFunc        // guarded by mu
}

// NewServer returns a server with no handlers.
func NewServer() *Server {
	return &Server{handlers: make(map[Op]HandlerFunc)}
}

// Handle registers fn for op, replacing any previous handler.
func (s *Server) Handle(op Op, fn HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[op] = fn
}

// HandleFallback registers fn for ops with no specific handler.
func (s *Server) HandleFallback(fn HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fallback = fn
}

// CodeUnknownOp is the response code for calls nobody handles.
const CodeUnknownOp = 0xFFFF

// Dispatch routes one call. A missing handler yields CodeUnknownOp.
func (s *Server) Dispatch(ctx Ctx, req Request) Response {
	s.mu.RLock()
	fn, ok := s.handlers[req.Op]
	if !ok {
		fn = s.fallback
	}
	s.mu.RUnlock()
	if fn == nil {
		return Response{Code: CodeUnknownOp, Body: []byte(fmt.Sprintf("unknown op %d", req.Op))}
	}
	return fn(ctx, req)
}

// Packet kinds. Handshake packets are cleartext (their contents are sealed
// records from the secure package); call and reply packets are sealed in
// their entirety under the session key. Netsim packets carry the kind in
// their header; a stream's handshake frames come in fixed order, and its
// call and reply kinds ride inside the seal.
const (
	kindHello     = 1 // client -> server, handshake message 1
	kindChallenge = 2 // server -> client, handshake message 2
	kindProof     = 3 // client -> server, handshake message 3
	kindSession   = 4 // server -> client, handshake message 4
	kindCall      = 5
	kindReply     = 6
	kindClose     = 7
)

// encodeCallInto encodes the plaintext of a call packet (seq, trace
// context, op, body, bulk). The trace header is always present — zero when
// untraced — so packet sizes, and with them simulated time, never depend on
// whether tracing is enabled.
func encodeCallInto(e *wire.Encoder, seq uint32, tc wire.TraceHeader, req Request) {
	e.U32(seq)
	tc.Encode(e)
	e.U16(uint16(req.Op))
	e.Bytes(req.Body)
	e.Bytes(req.Bulk)
}

// decodeCall decodes a call packet. The returned request's Body and Bulk
// alias plain, which the caller must treat as surrendered: every transport
// hands decodeCall a freshly allocated buffer (Box.Open output or a frame
// read), so aliasing saves two copies per call without sharing hazards.
func decodeCall(plain []byte) (seq uint32, tc wire.TraceHeader, req Request, err error) {
	var d wire.Decoder
	d.Reset(plain)
	seq = d.U32()
	tc = wire.DecodeTraceHeader(&d)
	req.Op = Op(d.U16())
	req.Body = d.Bytes()
	req.Bulk = d.Bytes()
	if err := d.Close(); err != nil {
		return 0, wire.TraceHeader{}, Request{}, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	return seq, tc, req, nil
}

// encodeReplyInto encodes the plaintext of a reply packet (seq, service
// time, code, body, bulk). The server echoes its measured service time so
// the client can attribute call latency between network and server; like
// the trace header it is always present.
func encodeReplyInto(e *wire.Encoder, seq uint32, svc time.Duration, resp Response) {
	e.U32(seq)
	e.U64(uint64(svc))
	e.U16(resp.Code)
	e.Bytes(resp.Body)
	e.Bytes(resp.Bulk)
}

// decodeReply decodes a reply packet. Body and Bulk alias plain (see
// decodeCall).
func decodeReply(plain []byte) (seq uint32, svc time.Duration, resp Response, err error) {
	var d wire.Decoder
	d.Reset(plain)
	seq = d.U32()
	svc = time.Duration(d.U64())
	resp.Code = d.U16()
	resp.Body = d.Bytes()
	resp.Bulk = d.Bytes()
	if err := d.Close(); err != nil {
		return 0, 0, Response{}, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	return seq, svc, resp, nil
}
