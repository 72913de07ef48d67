package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/store"
)

// recorder notes each call a fake receives and hands back a per-method
// error, so a test can tell that a wrapper passed both through.
type recorder struct{ calls []string }

func (r *recorder) rec(method string, args ...any) error {
	r.calls = append(r.calls, fmt.Sprint(append([]any{method}, args...)...))
	return errors.New("err from " + method)
}

func wantCall(t *testing.T, r *recorder, method string, args ...any) {
	t.Helper()
	want := fmt.Sprint(append([]any{method}, args...)...)
	if len(r.calls) == 0 || r.calls[len(r.calls)-1] != want {
		t.Fatalf("last call %v, want %q", r.calls, want)
	}
}

func wantErr(t *testing.T, err error, method string) {
	t.Helper()
	if err == nil || err.Error() != "err from "+method {
		t.Fatalf("%s returned %v, want the inner error", method, err)
	}
}

type fakeConn struct {
	got  rpc.Request
	resp rpc.Response
	err  error
}

func (f *fakeConn) Call(_ *sim.Proc, req rpc.Request) (rpc.Response, error) {
	f.got = req
	return f.resp, f.err
}

func TestTracedConnForwards(t *testing.T) {
	l := &layers{}
	var own atomic.Int64
	inner := &fakeConn{resp: rpc.Response{Code: 3, Body: []byte("b"), Bulk: []byte("k")}, err: errors.New("inner")}
	c := &tracedConn{inner: inner, l: l, own: &own}
	req := rpc.Request{Op: rpc.Op(proto.OpStore), Body: []byte("x"), Bulk: []byte("y")}
	for _, on := range []bool{false, true} {
		l.on.Store(on)
		resp, err := c.Call(nil, req)
		if !reflect.DeepEqual(inner.got, req) || !reflect.DeepEqual(resp, inner.resp) || err != inner.err {
			t.Fatalf("forwarded %+v, returned %+v, %v", inner.got, resp, err)
		}
	}
	if n := l.call[classStore].summary().N; n != 1 {
		t.Errorf("recorded %d store calls, want 1 (recording on for one)", n)
	}
	if own.Load() <= 0 {
		t.Error("workstation RPC time not accumulated")
	}
}

func TestCountedConnForwards(t *testing.T) {
	a, b := net.Pipe()
	l := &layers{}
	l.on.Store(true)
	ca := countedConn{Conn: a, l: l}
	go func() {
		buf := make([]byte, 3)
		io.ReadFull(b, buf)
		b.Write(append(buf, '!'))
	}()
	if n, err := ca.Write([]byte("abc")); n != 3 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(ca, buf); err != nil || string(buf) != "abc!" {
		t.Fatalf("read %q, %v", buf, err)
	}
	if l.netWrites.Load() != 1 || l.netBytes.Load() != 3 || l.netReads.Load() < 1 {
		t.Errorf("counted %d writes, %d bytes, %d reads", l.netWrites.Load(), l.netBytes.Load(), l.netReads.Load())
	}
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(buf); err == nil {
		t.Error("Close not forwarded")
	}
}

type fakeBack struct {
	got  rpc.Request
	resp rpc.Response
	err  error
}

func (f *fakeBack) CallBack(_ *sim.Proc, req rpc.Request) (rpc.Response, error) {
	f.got = req
	return f.resp, f.err
}

func (f *fakeBack) BackUser() string { return "carol" }

func TestTracedDispatcherForwards(t *testing.T) {
	l := &layers{}
	l.on.Store(true)
	inner := rpc.NewServer()
	var seen []rpc.Ctx
	var gotReq rpc.Request
	inner.Handle(rpc.Op(proto.OpFetch), func(ctx rpc.Ctx, req rpc.Request) rpc.Response {
		seen = append(seen, ctx)
		gotReq = req
		return rpc.Response{Code: 2, Body: []byte("body"), Bulk: req.Bulk}
	})
	d := newTracedDispatcher(inner, l)
	s := d.server()
	back := &fakeBack{resp: rpc.Response{Code: 9}, err: errors.New("back")}
	req := rpc.Request{Op: rpc.Op(proto.OpFetch), Body: []byte("args"), Bulk: []byte("bulk")}
	for i := 0; i < 2; i++ {
		resp := s.Dispatch(rpc.Ctx{User: "carol", Peer: "p", Back: back}, req)
		if !reflect.DeepEqual(resp, rpc.Response{Code: 2, Body: []byte("body"), Bulk: []byte("bulk")}) || !reflect.DeepEqual(gotReq, req) {
			t.Fatalf("dispatch returned %+v for %+v", resp, gotReq)
		}
	}
	if seen[0].User != "carol" || seen[0].Peer != "p" {
		t.Fatalf("context not forwarded: %+v", seen[0])
	}
	w := seen[0].Back
	if w == rpc.Backchannel(back) || w != seen[1].Back {
		t.Fatal("back-channel not wrapped by one stable wrapper")
	}
	if w.BackUser() != "carol" {
		t.Error("BackUser not forwarded")
	}
	breq := rpc.Request{Op: rpc.Op(proto.OpCallbackBreak), Body: []byte("fid")}
	resp, err := w.CallBack(nil, breq)
	if !reflect.DeepEqual(back.got, breq) || resp.Code != 9 || err != back.err {
		t.Fatalf("CallBack forwarded %+v, returned %+v, %v", back.got, resp, err)
	}
	if l.dispatch[classFetch].summary().N != 2 || l.deliver.summary().N != 1 {
		t.Error("dispatch or delivery not timed")
	}
	if d.forget(back) != w || d.forget(back) != rpc.Backchannel(back) {
		t.Error("forget must return the wrapper once, then the bare back-channel")
	}
	if resp := s.Dispatch(rpc.Ctx{}, rpc.Request{Op: 999}); resp.Code != rpc.CodeUnknownOp {
		t.Errorf("unknown op answered %+v", resp)
	}
}

func TestTracedHandlerForwards(t *testing.T) {
	l := &layers{}
	l.on.Store(true)
	var got rpc.Request
	h := tracedHandler(func(ctx rpc.Ctx, req rpc.Request) rpc.Response {
		got = req
		return rpc.Response{Code: uint16(len(ctx.User))}
	}, l)
	req := rpc.Request{Op: 50, Body: []byte("x")}
	if resp := h(rpc.Ctx{User: "abc"}, req); resp.Code != 3 || !reflect.DeepEqual(got, req) {
		t.Fatalf("handler returned %+v for %+v", resp, got)
	}
	if l.handle.summary().N != 1 {
		t.Error("handler not timed")
	}
}

type fakeStore struct{ recorder }

func (f *fakeStore) BeginVolume(id uint32, image []byte) error {
	return f.rec("BeginVolume", id, image)
}
func (f *fakeStore) DropVolume(id uint32) error    { return f.rec("DropVolume", id) }
func (f *fakeStore) Commit(c store.Commit) error   { return f.rec("Commit", c.Vol, c.Deletes) }
func (f *fakeStore) PutProt(m prot.Mutation) error { return f.rec("PutProt", m.Name) }
func (f *fakeStore) Sync() error                   { return f.rec("Sync") }
func (f *fakeStore) Close() error                  { return f.rec("Close") }
func (f *fakeStore) PutLoc(entries []proto.LocEntry, remove []string) error {
	return f.rec("PutLoc", entries, remove)
}
func (f *fakeStore) Checkpoint(cp store.Checkpoint) error {
	return f.rec("Checkpoint", cp.Prot)
}
func (f *fakeStore) Recover() (*store.Recovery, error) {
	return &store.Recovery{ProtSnapshot: []byte("snap")}, f.rec("Recover")
}

func TestTracedStoreForwards(t *testing.T) {
	l := &layers{}
	l.on.Store(true)
	f := &fakeStore{}
	var s store.Store = tracedStore{inner: f, l: l}
	wantErr(t, s.BeginVolume(7, []byte("img")), "BeginVolume")
	wantCall(t, &f.recorder, "BeginVolume", uint32(7), []byte("img"))
	wantErr(t, s.DropVolume(8), "DropVolume")
	wantCall(t, &f.recorder, "DropVolume", uint32(8))
	wantErr(t, s.Commit(store.Commit{Vol: 9, Deletes: []uint32{1, 2}}), "Commit")
	wantCall(t, &f.recorder, "Commit", uint32(9), []uint32{1, 2})
	entries := []proto.LocEntry{{Prefix: "/a", Volume: 3, Custodian: "s"}}
	wantErr(t, s.PutLoc(entries, []string{"/b"}), "PutLoc")
	wantCall(t, &f.recorder, "PutLoc", entries, []string{"/b"})
	wantErr(t, s.PutProt(prot.Mutation{Name: "dave"}), "PutProt")
	wantCall(t, &f.recorder, "PutProt", "dave")
	wantErr(t, s.Sync(), "Sync")
	wantCall(t, &f.recorder, "Sync")
	rec, err := s.Recover()
	wantErr(t, err, "Recover")
	if string(rec.ProtSnapshot) != "snap" {
		t.Errorf("Recover returned %+v", rec)
	}
	wantErr(t, s.Checkpoint(store.Checkpoint{Prot: []byte("p")}), "Checkpoint")
	wantCall(t, &f.recorder, "Checkpoint", []byte("p"))
	wantErr(t, s.Close(), "Close")
	wantCall(t, &f.recorder, "Close")
	if l.commit.summary().N != 1 || l.sync.summary().N != 1 {
		t.Error("Commit or Sync not timed")
	}
}

type fakeFS struct{ recorder }

func (f *fakeFS) Open(name string) (store.File, error) {
	return &fakeFile{fs: f}, f.rec("Open", name)
}
func (f *fakeFS) ReadFile(name string) ([]byte, error) {
	return []byte("contents"), f.rec("ReadFile", name)
}
func (f *fakeFS) WriteFileAtomic(name string, data []byte) error {
	return f.rec("WriteFileAtomic", name, data)
}
func (f *fakeFS) Truncate(name string, size int64) error { return f.rec("Truncate", name, size) }
func (f *fakeFS) Remove(name string) error               { return f.rec("Remove", name) }

type fakeFile struct{ fs *fakeFS }

func (f *fakeFile) Append(b []byte) error { return f.fs.rec("Append", b) }
func (f *fakeFile) Sync() error           { return f.fs.rec("FileSync") }
func (f *fakeFile) Close() error          { return f.fs.rec("FileClose") }

func TestTracedFSForwards(t *testing.T) {
	l := &layers{}
	l.on.Store(true)
	f := &fakeFS{}
	var fsys store.FS = tracedFS{inner: f, l: l}
	file, err := fsys.Open("wal.log")
	wantErr(t, err, "Open")
	wantCall(t, &f.recorder, "Open", "wal.log")
	if tf, ok := file.(tracedFile); !ok || tf.inner.(*fakeFile).fs != f {
		t.Fatalf("Open returned %#v, want the inner file wrapped", file)
	}
	data, err := fsys.ReadFile("ckpt")
	wantErr(t, err, "ReadFile")
	wantCall(t, &f.recorder, "ReadFile", "ckpt")
	if string(data) != "contents" {
		t.Errorf("ReadFile returned %q", data)
	}
	wantErr(t, fsys.WriteFileAtomic("ckpt", []byte("abcd")), "WriteFileAtomic")
	wantCall(t, &f.recorder, "WriteFileAtomic", "ckpt", []byte("abcd"))
	wantErr(t, fsys.Truncate("wal.log", 12), "Truncate")
	wantCall(t, &f.recorder, "Truncate", "wal.log", int64(12))
	wantErr(t, fsys.Remove("x"), "Remove")
	wantCall(t, &f.recorder, "Remove", "x")

	fl := tracedFile{inner: &fakeFile{fs: f}, l: l}
	wantErr(t, fl.Append([]byte("rec")), "Append")
	wantCall(t, &f.recorder, "Append", []byte("rec"))
	wantErr(t, fl.Sync(), "FileSync")
	wantErr(t, fl.Close(), "FileClose")
	if l.devBytes.Load() != 7 || l.fsyncs.Load() != 3 || l.fsync.summary().N != 1 {
		t.Errorf("device counts: %d bytes, %d fsyncs, %d timed", l.devBytes.Load(), l.fsyncs.Load(), l.fsync.summary().N)
	}
}
