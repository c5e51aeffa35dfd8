package wire

import (
	"encoding/hex"
	"testing"

	"dup/internal/proto"
)

// goldenVectors pins the byte-exact payload encoding of every message
// kind under the version-7 layout. They are the executable proof that the
// wire format did not drift: regenerate them only on a deliberate format
// change, and say so in the change's notes, because a running cluster
// and every dupd state dir depend on these bytes.
//
// Every vector encodes the same field values (To=31, Origin=42, Subject=7,
// Old=7, New=11, Seq=99, Version=12345, Hops=3, Expiry=1.7e9,
// Path=[5,1000]) at Key 0; request and push also appear at Key 64. Push
// carries a piggybacked subscribe(7); the replica kinds carry Epoch=2 and
// Term=5; the batch envelope holds two keyed pushes.
var goldenVectors = []struct {
	name string
	msg  *proto.Message
	hex  string
}{
	{"request/key=0", goldenMsg(proto.KindRequest, 0), "0700003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"request/key=64", goldenMsg(proto.KindRequest, 64), "0700003e540e0e16c601f2c00106800141d954fc40000000040ad00f"},
	{"reply", goldenMsg(proto.KindReply, 0), "0701003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"push/key=0", goldenMsg(proto.KindPush, 0), "0702013e540e0e16c601f2c001060041d954fc40000000040ad00f030e"},
	{"push/key=64", goldenMsg(proto.KindPush, 64), "0702013e540e0e16c601f2c00106800141d954fc40000000040ad00f030e"},
	{"subscribe", goldenMsg(proto.KindSubscribe, 0), "0703003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"unsubscribe", goldenMsg(proto.KindUnsubscribe, 0), "0704003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"substitute", goldenMsg(proto.KindSubstitute, 0), "0705003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"interest", goldenMsg(proto.KindInterest, 0), "0706003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"uninterest", goldenMsg(proto.KindUninterest, 0), "0707003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"keepalive", goldenMsg(proto.KindKeepAlive, 0), "0708003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"keepalive-ack", goldenMsg(proto.KindKeepAliveAck, 0), "0709003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"ack", goldenMsg(proto.KindAck, 0), "070a003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"join", goldenMsg(proto.KindJoin, 0), "070b003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"leave", goldenMsg(proto.KindLeave, 0), "070c003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"state", goldenMsg(proto.KindState, 0), "070d003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"batch", goldenBatch(), "070e003e5480808001042e0702003e5400000000f2c001000041d954fc40000000002e0702003e5400000000f2c001000241d954fc4000000000"},
	{"prepare", goldenMsg(proto.KindPrepare, 0), "070f023e540e0e16c601f2c001060041d954fc40000000040ad00f040a"},
	{"promise", goldenMsg(proto.KindPromise, 0), "0710023e540e0e16c601f2c001060041d954fc40000000040ad00f040a"},
	{"accept", goldenMsg(proto.KindAccept, 0), "0711023e540e0e16c601f2c001060041d954fc40000000040ad00f040a"},
	{"commit", goldenMsg(proto.KindCommit, 0), "0712023e540e0e16c601f2c001060041d954fc40000000040ad00f040a"},
	{"lease", goldenMsg(proto.KindLease, 0), "0713023e540e0e16c601f2c001060041d954fc40000000040ad00f040a"},
	{"root-announce", goldenMsg(proto.KindRootAnnounce, 0), "0714003e540e0e16c601f2c001060041d954fc40000000040ad00f"},
	{"reconfig", goldenMsg(proto.KindReconfig, 0), "0715023e540e0e16c601f2c001060041d954fc40000000040ad00f040a"},
	{"state-xfer", goldenMsg(proto.KindStateXfer, 0), "0716023e540e0e16c601f2c001060041d954fc40000000040ad00f040a"},
}

// goldenMsg builds the fixed-field message the vectors were generated
// from. Field values deliberately exercise multi-byte varints and the
// float expiry.
func goldenMsg(k proto.Kind, key int) *proto.Message {
	m := &proto.Message{
		Kind: k, To: 31, Origin: 42, Subject: 7, Old: 7, New: 11,
		Key: key, Seq: 99, Version: 12345, Hops: 3,
		Expiry: 1.7e9, Path: []int{5, 1000},
	}
	switch k {
	case proto.KindPush:
		m.SetPiggy(proto.KindSubscribe, 7)
	case proto.KindPrepare, proto.KindPromise, proto.KindAccept, proto.KindCommit,
		proto.KindLease, proto.KindReconfig, proto.KindStateXfer:
		m.Epoch, m.Term = 2, 5
	}
	return m
}

// goldenBatch builds the envelope vector: two keyed pushes coalesced for
// one neighbour, under an envelope Seq with multi-byte varint encoding.
func goldenBatch() *proto.Message {
	mk := func(key int) *proto.Message {
		return &proto.Message{Kind: proto.KindPush, To: 31, Origin: 42, Key: key,
			Version: 12345, Expiry: 1.7e9}
	}
	return &proto.Message{Kind: proto.KindBatch, To: 31, Origin: 42, Seq: 1 << 20,
		Batch: []*proto.Message{mk(0), mk(1)}}
}

// TestGoldenEncodings asserts every kind encodes to its pinned bytes, and
// that those bytes decode back to the same message.
func TestGoldenEncodings(t *testing.T) {
	covered := map[proto.Kind]bool{}
	for _, g := range goldenVectors {
		covered[g.msg.Kind] = true
		got := hex.EncodeToString(AppendMessage(nil, g.msg))
		if got != g.hex {
			t.Errorf("%s: encoding drifted from the pinned wire format\n got  %s\n want %s",
				g.name, got, g.hex)
			continue
		}
		raw, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad vector: %v", g.name, err)
		}
		m, err := DecodeMessage(raw)
		if err != nil {
			t.Errorf("%s: golden bytes no longer decode: %v", g.name, err)
			continue
		}
		if !equalMessage(g.msg, m) {
			t.Errorf("%s: golden bytes decode to a different message:\n in  %+v\n out %+v",
				g.name, g.msg, m)
		}
		proto.Release(m)
	}
	// A kind added to the vocabulary must get a vector deliberately.
	for k := proto.Kind(0); int(k) < proto.NumKinds; k++ {
		if !covered[k] {
			t.Errorf("kind %s has no golden vector", k)
		}
	}
}
