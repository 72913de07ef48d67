package rpc_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"itcfs/internal/prot"
	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/vice"
	"itcfs/internal/volume"
	"itcfs/internal/wire"
)

// A workstation that holds a callback promise but never answers the break
// must not stall other writers to the file: on the stream carrier the
// server's break is bounded like the simulator's callback breaks.
func TestStalledCallbackHolderBoundsStoreOnTCP(t *testing.T) {
	const bound = 300 * time.Millisecond
	t.Cleanup(rpc.SetBackTimeout(bound))

	db := prot.NewDB()
	for _, m := range []prot.Mutation{
		{Kind: prot.MutAddUser, Name: "satya", Key: secure.DeriveKey("satya", "pw")},
		{Kind: prot.MutAddUser, Name: "howard", Key: secure.DeriveKey("howard", "pw")},
	} {
		if err := db.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	srv := vice.New(vice.Config{Name: "tcp0", Mode: vice.Revised, DB: db})
	acl := prot.NewACL()
	acl.Grant(prot.AnyUser, prot.RightsAll)
	srv.AddVolume(volume.New(1, "root", acl, 0, "satya", nil))
	srv.Loc().Install([]proto.LocEntry{{Prefix: "/", Volume: 1, Custodian: "tcp0"}}, nil)

	connect := func(user string, cb *rpc.Server) *rpc.Peer {
		t.Helper()
		cc, sc := net.Pipe()
		go func() {
			peer, err := rpc.AcceptPeer(sc, db.LookupKey, srv.Dispatcher())
			if err != nil {
				sc.Close()
				return
			}
			<-peer.Done()
			srv.Callbacks().Drop(peer)
		}()
		peer, err := rpc.DialPeer(cc, user, secure.DeriveKey(user, "pw"), cb)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { peer.Close() })
		return peer
	}
	call := func(peer *rpc.Peer, op uint16, args wire.Message, bulk []byte) error {
		resp, err := peer.Call(nil, rpc.Request{Op: rpc.Op(op), Body: proto.Marshal(args), Bulk: bulk})
		if err == nil && !resp.OK() {
			err = fmt.Errorf("op %d: code %d %q", op, resp.Code, resp.Body)
		}
		return err
	}

	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	stalled := rpc.NewServer()
	stalled.Handle(rpc.Op(proto.OpCallbackBreak), func(rpc.Ctx, rpc.Request) rpc.Response {
		<-release // connected, but never answers the break
		return rpc.Response{}
	})
	holder := connect("satya", stalled)
	writer := connect("howard", rpc.NewServer())

	if err := call(writer, proto.OpCreate, proto.NameArgs{Dir: proto.Ref{Path: "/"}, Name: "f", Mode: 0o644}, nil); err != nil {
		t.Fatal(err)
	}
	// The fetch takes a callback promise on the holder's connection.
	if err := call(holder, proto.OpFetch, proto.FetchArgs{Ref: proto.Ref{Path: "/f"}}, nil); err != nil {
		t.Fatal(err)
	}

	stored := make(chan error, 1)
	start := time.Now() //itcvet:allow wallclock -- real stream carrier, bounded in wall time
	go func() {
		stored <- call(writer, proto.OpStore, proto.StoreArgs{Ref: proto.Ref{Path: "/f"}, Mode: 0o644}, []byte("v2"))
	}()
	select {
	case err := <-stored:
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < bound { //itcvet:allow wallclock -- real stream carrier, bounded in wall time
			t.Fatalf("store returned in %v, before the break to the stalled holder could time out", took)
		}
	case <-time.After(bound + 10*time.Second): //itcvet:allow wallclock -- real stream carrier, bounded in wall time
		t.Fatal("store blocked on a stalled callback holder far past the callback bound")
	}
}
