package rpc

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"itcfs/internal/secure"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/wire"
)

// pipePair connects a dialed and an accepted peer over an in-memory duplex
// stream.
func pipePair(t *testing.T, clientSrv, serverSrv *Server) (*Peer, *Peer) {
	t.Helper()
	cc, sc := net.Pipe()
	var wg sync.WaitGroup
	var accepted *Peer
	var acceptErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		accepted, acceptErr = AcceptPeer(sc, keys, serverSrv)
	}()
	dialed, dialErr := DialPeer(cc, "satya", userKey, clientSrv)
	wg.Wait()
	if dialErr != nil || acceptErr != nil {
		t.Fatalf("dial: %v accept: %v", dialErr, acceptErr)
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

func TestPeerCallRoundTrip(t *testing.T) {
	dialed, accepted := pipePair(t, nil, echoServer())
	if accepted.User() != "satya" {
		t.Fatalf("accepted user = %q", accepted.User())
	}
	resp, err := dialed.Call(nil, Request{Op: opEcho, Body: []byte("over tcp"), Bulk: []byte("bulk")})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(resp.Body) != "over tcp" || string(resp.Bulk) != "bulk" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestPeerConcurrentCalls(t *testing.T) {
	dialed, _ := pipePair(t, nil, echoServer())
	var wg sync.WaitGroup
	errs := make([]error, 20)
	for i := 0; i < 20; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte{byte(i)}
			resp, err := dialed.Call(nil, Request{Op: opEcho, Body: body})
			if err != nil {
				errs[i] = err
				return
			}
			if len(resp.Body) != 1 || resp.Body[0] != byte(i) {
				errs[i] = errors.New("reply mismatch")
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestPeerServerCallback(t *testing.T) {
	clientSrv := NewServer()
	clientSrv.Handle(opPoke, func(_ Ctx, _ Request) Response {
		return Response{Body: []byte("acked")}
	})
	serverSrv := NewServer()
	serverSrv.Handle(opStat, func(ctx Ctx, _ Request) Response {
		resp, err := ctx.Back.CallBack(nil, Request{Op: opPoke})
		if err != nil || string(resp.Body) != "acked" {
			return Response{Code: 2}
		}
		return Response{Body: []byte("stored")}
	})
	dialed, _ := pipePair(t, clientSrv, serverSrv)
	resp, err := dialed.Call(nil, Request{Op: opStat})
	if err != nil || !resp.OK() || string(resp.Body) != "stored" {
		t.Fatalf("resp = %+v err = %v", resp, err)
	}
}

func TestPeerWrongPasswordRejected(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	go func() {
		// The server rejects at Challenge and drops the connection.
		if _, err := AcceptPeer(sc, keys, nil); err == nil {
			t.Error("server accepted a bad password")
		}
		sc.Close()
	}()
	if _, err := DialPeer(cc, "satya", userKey2(), nil); err == nil {
		t.Fatal("client connected with wrong password")
	}
}

func userKey2() [32]byte {
	k := userKey
	k[0] ^= 0xFF
	return k
}

func TestPeerCloseFailsInflight(t *testing.T) {
	stall := make(chan struct{})
	srv := NewServer()
	srv.Handle(opEcho, func(_ Ctx, req Request) Response {
		<-stall
		return Response{}
	})
	dialed, _ := pipePair(t, nil, srv)
	done := make(chan error, 1)
	go func() {
		_, err := dialed.Call(nil, Request{Op: opEcho})
		done <- err
	}()
	dialed.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	close(stall)
	if _, err := dialed.Call(nil, Request{Op: opEcho}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close call err = %v", err)
	}
}

func TestPeerNoServerReturnsUnknownOp(t *testing.T) {
	dialed, accepted := pipePair(t, nil, echoServer())
	// The accepted side calls the dialed side, which has no server.
	resp, err := accepted.Call(nil, Request{Op: opEcho})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if resp.Code != CodeUnknownOp {
		t.Fatalf("code = %d, want CodeUnknownOp", resp.Code)
	}
	_ = dialed
}

func TestPeerOverRealTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		if _, err := AcceptPeer(c, keys, echoServer()); err != nil {
			t.Errorf("accept: %v", err)
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := DialPeer(c, "satya", userKey, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer peer.Close()
	resp, err := peer.Call(nil, Request{Op: opEcho, Body: []byte("real tcp")})
	if err != nil || string(resp.Body) != "real tcp" {
		t.Fatalf("resp = %+v err = %v", resp, err)
	}
}

// shorten sets *v to d for the rest of the test.
func shorten(t testing.TB, v *time.Duration, d time.Duration) {
	old := *v
	*v = d
	t.Cleanup(func() { *v = old })
}

func TestHandshakeFrameCapAboveLargestMessage(t *testing.T) {
	// A long user name makes the hello the largest handshake message; every
	// message a real handshake sends must pass the pre-auth cap.
	user := strings.Repeat("u", 256)
	key := secure.DeriveKey(user, "pw")
	client := secure.NewClientHandshake(user, key)
	server := secure.NewServerHandshake(func(string) (secure.Key, bool) { return key, true })
	hello := client.Hello()
	challenge, err := server.Challenge(hello)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := client.Proof(challenge)
	if err != nil {
		t.Fatal(err)
	}
	final, _, err := server.Complete(proof)
	if err != nil {
		t.Fatal(err)
	}
	for i, msg := range [][]byte{hello, challenge, proof, final} {
		if len(msg) > maxHandshakeFrame {
			t.Errorf("handshake message %d is %d bytes, above the %d-byte pre-auth cap", i+1, len(msg), maxHandshakeFrame)
		}
	}
}

func TestAcceptPeerOversizedHeaderBoundsHeap(t *testing.T) {
	// Eight unauthenticated clients each declare a wire.MaxField frame and
	// send nothing more. The server must reject every header without
	// allocating what it declares.
	shorten(t, &handshakeTimeout, 2*time.Second)
	const conns = 8
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], wire.MaxField)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	errs := make(chan error, conns)
	var clients []net.Conn
	for i := 0; i < conns; i++ {
		cc, sc := net.Pipe()
		clients = append(clients, cc)
		go func() {
			_, err := AcceptPeer(sc, keys, echoServer())
			sc.Close()
			errs <- err
		}()
		go cc.Write(hdr[:])
	}
	for i := 0; i < conns; i++ {
		if err := <-errs; err == nil {
			t.Error("AcceptPeer accepted a bare oversized header")
		}
	}
	runtime.ReadMemStats(&after)
	for _, cc := range clients {
		cc.Close()
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 4<<20 {
		t.Fatalf("%d oversized headers allocated %d MiB before authentication", conns, grown>>20)
	}
}

func TestAcceptPeerStalledClientTimesOut(t *testing.T) {
	shorten(t, &handshakeTimeout, 100*time.Millisecond)
	cc, sc := net.Pipe()
	defer cc.Close()
	done := make(chan error, 1)
	go func() {
		_, err := AcceptPeer(sc, keys, echoServer())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("AcceptPeer accepted a client that sent nothing")
		}
	case <-time.After(5 * time.Second): //itcvet:allow wallclock -- real stream carrier, bounded in wall time
		t.Fatal("AcceptPeer still blocked on a silent client well past the handshake deadline")
	}
}

func TestHandshakeDeadlineLiftedAfterAuth(t *testing.T) {
	// The deadline bounds only the handshake: an authenticated connection
	// idle for longer must keep working.
	shorten(t, &handshakeTimeout, 50*time.Millisecond)
	dialed, _ := pipePair(t, nil, echoServer())
	time.Sleep(150 * time.Millisecond) //itcvet:allow wallclock -- real stream carrier, bounded in wall time
	if resp, err := dialed.Call(nil, Request{Op: opEcho, Body: []byte("later")}); err != nil || string(resp.Body) != "later" {
		t.Fatalf("call after idle: %+v %v", resp, err)
	}
}

func TestPeerSetMetricsWhileServing(t *testing.T) {
	// Daemons install the registry and tracer after AcceptPeer has started
	// serving; under -race this must not race the served calls.
	dialed, accepted := pipePair(t, nil, echoServer())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := dialed.Call(nil, Request{Op: opEcho}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	reg := trace.NewRegistry()
	for i := 0; i < 20; i++ {
		accepted.SetMetrics(reg)
		accepted.SetTracer(trace.New(func() sim.Time { return 0 }))
	}
	wg.Wait()
	if _, err := dialed.Call(nil, Request{Op: opEcho}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Histogram(trace.MetricRPCServeLatency).Count(); n == 0 {
		t.Fatal("no served call reached the installed registry")
	}
}

func TestPeerCallBackBoundedOnAcceptedSide(t *testing.T) {
	shorten(t, &backTimeout, 100*time.Millisecond)
	release := make(chan struct{})
	defer close(release)
	clientSrv := NewServer()
	clientSrv.Handle(opPoke, func(_ Ctx, _ Request) Response {
		<-release
		return Response{}
	})
	_, accepted := pipePair(t, clientSrv, echoServer())
	start := time.Now() //itcvet:allow wallclock -- real stream carrier, bounded in wall time
	if _, err := accepted.CallBack(nil, Request{Op: opPoke}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el > 5*time.Second { //itcvet:allow wallclock -- real stream carrier, bounded in wall time
		t.Fatalf("callback to a stalled client took %v", el)
	}
}
