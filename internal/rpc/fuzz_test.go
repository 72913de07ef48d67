package rpc

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"itcfs/internal/fault"
	"itcfs/internal/proto"
	"itcfs/internal/secure"
	"itcfs/internal/wire"
)

// th builds a distinct trace header per seed frame so the corpus exercises
// both zero and non-zero context bytes.
func th(n uint64) wire.TraceHeader {
	if n%2 == 0 {
		return wire.TraceHeader{}
	}
	return wire.TraceHeader{Trace: n, Span: n * 31}
}

// The call/reply codec sits directly behind the session box: whatever the
// box emits — including frames the fault injector flipped bits in before
// the MAC caught them in transit, and hostile plaintexts under a stolen key
// — must decode to an error or a message, never a panic, and successful
// decodes must be canonical (re-encoding reproduces the input bytes, which
// is what makes the at-most-once reply cache safe to replay).

// chaosCallFrames returns call plaintexts for the operations the chaos
// harness drives, plus fault-injector-corrupted copies of each, seeding the
// corpus with the frames this codec actually meets under fault injection.
func chaosCallFrames() [][]byte {
	ref := proto.Ref{Path: "/vice/usr/satya/andrew/src000.c"}
	fidRef := proto.Ref{FID: proto.FID{Volume: 2, Vnode: 7, Uniq: 3}}
	frames := [][]byte{
		callPlain(1, th(1), Request{Op: Op(proto.OpFetch), Body: proto.Marshal(proto.FetchArgs{Ref: ref})}),
		callPlain(2, th(2), Request{Op: Op(proto.OpStore),
			Body: proto.Marshal(proto.StoreArgs{Ref: fidRef, Mode: 0o644}),
			Bulk: []byte("int fn1(int x) { return x * 7; }\n")}),
		callPlain(3, th(3), Request{Op: Op(proto.OpTestValid),
			Body: proto.Marshal(proto.TestValidArgs{Ref: fidRef, Version: 4})}),
		callPlain(4, th(4), Request{Op: Op(proto.OpMakeDir),
			Body: proto.Marshal(proto.NameArgs{Dir: ref, Name: "sub0", Mode: 0o755})}),
		callPlain(5, th(5), Request{Op: Op(proto.OpGetCustodian),
			Body: proto.Marshal(proto.CustodianArgs{Path: "/usr/satya"})}),
	}
	inj := fault.New(fault.Config{Seed: 1985})
	for _, f := range frames[:len(frames):len(frames)] {
		damaged := append([]byte(nil), f...)
		inj.Corrupt(damaged)
		frames = append(frames, damaged)
	}
	return frames
}

func FuzzDecodeCall(f *testing.F) {
	for _, frame := range chaosCallFrames() {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, plain []byte) {
		seq, tc, req, err := decodeCall(plain)
		if err != nil {
			return
		}
		if re := callPlain(seq, tc, req); !bytes.Equal(re, plain) {
			t.Fatalf("decode accepted non-canonical call frame:\n in %x\nout %x", plain, re)
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	st := proto.Status{FID: proto.FID{Volume: 2, Vnode: 7, Uniq: 3}, Size: 33, Version: 5}
	frames := [][]byte{
		replyPlain(1, time.Millisecond, Response{Body: proto.Marshal(st), Bulk: []byte("file body bytes")}),
		replyPlain(2, 0, Response{Code: proto.CodeNoEnt, Body: []byte("vice: no such file")}),
		replyPlain(3, 42*time.Microsecond, Response{Code: CodeUnknownOp, Body: []byte("unknown op 9999")}),
	}
	inj := fault.New(fault.Config{Seed: 823})
	for _, frame := range frames[:len(frames):len(frames)] {
		damaged := append([]byte(nil), frame...)
		inj.Corrupt(damaged)
		frames = append(frames, damaged)
	}
	for _, frame := range frames {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, plain []byte) {
		seq, svc, resp, err := decodeReply(plain)
		if err != nil {
			return
		}
		if re := replyPlain(seq, svc, resp); !bytes.Equal(re, plain) {
			t.Fatalf("decode accepted non-canonical reply frame:\n in %x\nout %x", plain, re)
		}
	})
}

// FuzzAcceptPeer drives the stream carrier's attacker-facing surface. pre
// is everything an unauthenticated client sends: AcceptPeer must reject it
// (the fuzzer cannot forge a proof) without panicking or outliving the
// handshake deadline, and the pre-auth frame cap keeps any declared length
// from becoming an allocation. post is the frame stream an authenticated
// client sends next, raw or — when its first byte is odd — the rest sealed
// under the session key as one frame, so kinds, codecs and dispatch are
// reached too. The accepted peer must serve or drop it and shut down when
// the client hangs up; ReadFrame grows buffers only as bytes arrive, so a
// lying length costs at most one chunk.
func FuzzAcceptPeer(f *testing.F) {
	var hello bytes.Buffer
	_ = wire.WriteFrame(&hello, secure.NewClientHandshake("satya", userKey).Hello())
	call := append([]byte{1, kindCall}, callPlain(1, th(1), Request{Op: opEcho, Body: []byte("x")})...)
	reply := append([]byte{1, kindReply}, replyPlain(9, 0, Response{Body: []byte("stray")})...)
	f.Add(hello.Bytes(), call)
	f.Add([]byte{0, 0, 0, 4}, []byte{0, 0, 0, 4}) // bare wire.MaxField headers
	f.Add([]byte{}, reply)
	f.Add([]byte{3, 0, 0, 0, 'a', 'b', 'c'}, []byte{1})
	shorten(f, &handshakeTimeout, 200*time.Millisecond)
	f.Fuzz(func(t *testing.T, pre, post []byte) {
		anon, sc := net.Pipe()
		go func() { _, _ = io.Copy(io.Discard, anon) }() // never let a server write stall
		go func() {
			_, _ = anon.Write(pre)
			anon.Close()
		}()
		if p, err := AcceptPeer(sc, keys, echoServer()); err == nil {
			p.Close()
			t.Fatal("AcceptPeer authenticated arbitrary bytes")
		}
		sc.Close()

		cc, sc := net.Pipe()
		accepted := make(chan *Peer, 1)
		go func() {
			p, _ := AcceptPeer(sc, keys, echoServer())
			accepted <- p
		}()
		box, err := clientHandshake("satya", userKey, func(_ uint8, msg []byte) ([]byte, error) {
			return exchange(cc, msg)
		})
		p := <-accepted
		if err != nil || p == nil {
			t.Fatalf("handshake failed: %v", err)
		}
		go func() { _, _ = io.Copy(io.Discard, cc) }()
		go func() {
			if len(post) > 0 && post[0]&1 == 1 {
				_ = wire.WriteFrame(cc, box.Seal(post[1:]))
			} else {
				_, _ = cc.Write(post)
			}
			cc.Close()
		}()
		select {
		case <-p.Done():
		case <-time.After(5 * time.Second): //itcvet:allow wallclock -- real stream carrier, bounded in wall time
			t.Fatal("accepted peer still running after its client hung up")
		}
	})
}
