package rpc

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"itcfs/internal/wire"
)

// callPlain and replyPlain encode a packet's plaintext through the same
// pooled encoder the carriers seal from, copied out so the tests may keep it.
func callPlain(seq uint32, tc wire.TraceHeader, req Request) []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	encodeCallInto(e, seq, tc, req)
	return append([]byte(nil), e.Buf()...)
}

func replyPlain(seq uint32, svc time.Duration, resp Response) []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	encodeReplyInto(e, seq, svc, resp)
	return append([]byte(nil), e.Buf()...)
}

func TestCallCodecRoundTrip(t *testing.T) {
	f := func(seq uint32, traceID, spanID uint64, op uint16, body, bulk []byte) bool {
		tc := wire.TraceHeader{Trace: traceID, Span: spanID}
		plain := callPlain(seq, tc, Request{Op: Op(op), Body: body, Bulk: bulk})
		gotSeq, gotTC, req, err := decodeCall(plain)
		if err != nil || gotSeq != seq || gotTC != tc || req.Op != Op(op) {
			return false
		}
		return bytes.Equal(req.Body, body) && bytes.Equal(req.Bulk, bulk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyCodecRoundTrip(t *testing.T) {
	f := func(seq uint32, svcNs int64, code uint16, body, bulk []byte) bool {
		svc := time.Duration(svcNs)
		plain := replyPlain(seq, svc, Response{Code: code, Body: body, Bulk: bulk})
		gotSeq, gotSvc, resp, err := decodeReply(plain)
		if err != nil || gotSeq != seq || gotSvc != svc || resp.Code != code {
			return false
		}
		return bytes.Equal(resp.Body, body) && bytes.Equal(resp.Bulk, bulk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Decoding arbitrary garbage must fail cleanly, never panic, and never
// fabricate an oversized allocation.
func TestCodecGarbageSafe(t *testing.T) {
	f := func(garbage []byte) bool {
		if _, _, _, err := decodeCall(garbage); err == nil {
			// A successful decode must re-encode to an equivalent packet.
			seq, tc, req, _ := decodeCall(garbage)
			back := callPlain(seq, tc, req)
			_, _, req2, err2 := decodeCall(back)
			if err2 != nil || !bytes.Equal(req.Body, req2.Body) {
				return false
			}
		}
		_, _, _, _ = decodeReply(garbage)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCallAliasesBuffer(t *testing.T) {
	// Decoded payloads alias the wire buffer: the caller surrenders the
	// buffer to decodeCall (every transport hands it a freshly allocated
	// one), which saves two copies per call — with bulk transfers, the
	// copy would be the whole file. This test pins the zero-copy contract;
	// a transport that wants to reuse decryption buffers must copy first.
	plain := callPlain(1, wire.TraceHeader{Trace: 9, Span: 4}, Request{Op: 5, Body: []byte("body"), Bulk: []byte("bulk")})
	_, _, req, err := decodeCall(plain)
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Body) != "body" || string(req.Bulk) != "bulk" {
		t.Fatalf("decoded payload wrong: %q %q", req.Body, req.Bulk)
	}
	if len(req.Body) > 0 && &req.Body[0] != &plain[4+16+2+4] {
		t.Fatal("decodeCall copied Body; expected it to alias the wire buffer")
	}
}

func TestTraceHeaderAlwaysOnWire(t *testing.T) {
	// The trace header occupies the same 16 bytes whether or not the call is
	// traced, so enabling tracing cannot change packet sizes — and with them
	// the virtual-time behavior of the simulation.
	req := Request{Op: 5, Body: []byte("body")}
	untraced := callPlain(1, wire.TraceHeader{}, req)
	traced := callPlain(1, wire.TraceHeader{Trace: 123456, Span: 789}, req)
	if len(untraced) != len(traced) {
		t.Fatalf("traced call is %d bytes, untraced %d", len(traced), len(untraced))
	}
}

func TestWireSizeAccountsPayloads(t *testing.T) {
	small := Request{Op: 1}.WireSize()
	big := Request{Op: 1, Bulk: make([]byte, 10_000)}.WireSize()
	if big-small != 10_000 {
		t.Fatalf("WireSize delta = %d, want 10000", big-small)
	}
}
