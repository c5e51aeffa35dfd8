package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"testing"

	"dup/internal/proto"
	"dup/internal/raceflag"
)

// sampleMessages returns one representative message per kind, plus
// variants exercising every field: negative sentinels, long paths and a
// piggyback rider.
func sampleMessages() []*proto.Message {
	msgs := []*proto.Message{
		{Kind: proto.KindRequest, To: 3, Origin: 7, Seq: 41, Hops: 2, Path: []int{7, 3}},
		{Kind: proto.KindReply, To: 7, Origin: 7, Seq: 41, Version: 9, Expiry: 1234.5, Hops: 3, Path: []int{7}},
		{Kind: proto.KindPush, To: 5, Origin: 0, Version: 2, Expiry: 17.25},
		{Kind: proto.KindSubscribe, To: 4, Subject: 5},
		{Kind: proto.KindUnsubscribe, To: 4, Subject: 5},
		{Kind: proto.KindSubstitute, To: 1, Old: 5, New: 2},
		{Kind: proto.KindInterest, To: 2, Subject: 9},
		{Kind: proto.KindUninterest, To: 2, Subject: 9},
		{Kind: proto.KindKeepAlive, To: 0, Origin: 12},
		{Kind: proto.KindKeepAliveAck, To: 12, Origin: 0},
		{Kind: proto.KindAck, To: 0, Origin: 5, Seq: 17, Subject: int(proto.KindPush)},
		{Kind: proto.KindJoin, To: 2, Origin: 9, Seq: 3, Version: 4},
		{Kind: proto.KindLeave, To: 2, Origin: 9, Seq: 5, Subject: -1},
		{Kind: proto.KindState, To: 9, Origin: 2, Version: 7, Expiry: 321.5},
		// Negative sentinels (-1 parents) and a piggyback rider.
		{Kind: proto.KindRequest, To: -1, Origin: -1, Old: -1, New: -1, Subject: -1, Hops: 1,
			Piggy: &proto.Piggyback{Kind: proto.KindSubscribe, Subject: 6}},
		// A long path.
		{Kind: proto.KindReply, To: 1, Version: 1 << 40, Expiry: -2.5,
			Path: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		// Keyed variants: the Key varint travels in every payload.
		{Kind: proto.KindPush, To: 5, Origin: 2, Key: 8, Version: 6, Expiry: 90.5},
		{Kind: proto.KindRequest, To: 3, Origin: 7, Key: 64, Seq: 8, Hops: 1, Path: []int{7}},
		{Kind: proto.KindJoin, To: 2, Origin: 9, Key: 3, Seq: 6, Version: 4},
		// Replica kinds carry the Epoch/Term trailer: term alone, epoch
		// alone (a config request below), both, and neither.
		{Kind: proto.KindPrepare, To: 1, Origin: 2, Term: 3, Expiry: 444.25},
		{Kind: proto.KindPromise, To: 2, Origin: 1, Term: 3, Subject: 0, Path: []int{0, 7, 2, 9}},
		{Kind: proto.KindPromise, To: 0, Origin: 1, Term: 3, Epoch: 1, Subject: 1, Key: 2, Seq: 12},
		{Kind: proto.KindAccept, To: 1, Origin: 0, Term: 3, Key: 2, Version: 12, Expiry: 90.5},
		{Kind: proto.KindAccept, To: 1, Origin: 0, Term: 1 << 40, Epoch: 2, Version: 13, Expiry: 91.5},
		{Kind: proto.KindCommit, To: 1, Origin: 0, Term: 3, Key: 2, Version: 12},
		{Kind: proto.KindLease, To: 1, Origin: 0, Term: 3, Seq: 5, Expiry: 445.25},
		{Kind: proto.KindLease, To: 1, Origin: 0, Expiry: 445.25},
		// Soft-state tree beacon.
		{Kind: proto.KindRootAnnounce, To: 4, Origin: 1, Subject: 0, Seq: 97},
		{Kind: proto.KindRootAnnounce, To: 7, Origin: 4, Subject: 0, Key: 3, Seq: 98},
		// Quorum reconfiguration kinds.
		{Kind: proto.KindReconfig, To: 1, Origin: 0, Term: 3, Epoch: 2, Subject: 0, New: 3, Path: []int{0, 1, 2, 0, 1, 3}},
		{Kind: proto.KindReconfig, To: 0, Origin: 1, Term: 3, Epoch: 2, Subject: 2, Key: 1, Version: 3},
		{Kind: proto.KindReconfig, To: 0, Origin: 1, Epoch: 2, Subject: 3},
		{Kind: proto.KindStateXfer, To: 3, Origin: 0, Term: 3, Epoch: 1, Subject: 1, New: 1, Path: []int{0, 12, 1, 7}, Expiry: 1025},
		// A coalescing envelope with mixed-kind, mixed-key members.
		{Kind: proto.KindBatch, To: 4, Origin: 1, Seq: 33, Batch: []*proto.Message{
			{Kind: proto.KindPush, To: 4, Origin: 1, Key: 8, Version: 12, Expiry: 64.5},
			{Kind: proto.KindAck, To: 4, Origin: 1, Seq: 17, Subject: int(proto.KindPush)},
			{Kind: proto.KindSubscribe, To: 4, Origin: 1, Key: 3, Subject: 9},
			{Kind: proto.KindState, To: 4, Origin: 1, Version: 7, Expiry: 321.5},
		}},
	}
	return msgs
}

// equalMessage compares every field; an empty and a nil path are the same
// path.
func equalMessage(a, b *proto.Message) bool {
	if a.Kind != b.Kind || a.To != b.To || a.Origin != b.Origin ||
		a.Subject != b.Subject || a.Old != b.Old || a.New != b.New ||
		a.Key != b.Key || a.Seq != b.Seq || a.Version != b.Version ||
		math.Float64bits(a.Expiry) != math.Float64bits(b.Expiry) ||
		a.Hops != b.Hops || a.Epoch != b.Epoch || a.Term != b.Term ||
		len(a.Path) != len(b.Path) ||
		len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	for i := range a.Batch {
		if !equalMessage(a.Batch[i], b.Batch[i]) {
			return false
		}
	}
	if (a.Piggy == nil) != (b.Piggy == nil) {
		return false
	}
	if a.Piggy != nil && *a.Piggy != *b.Piggy {
		return false
	}
	return true
}

func TestRoundTripEveryKind(t *testing.T) {
	seen := map[proto.Kind]bool{}
	for _, m := range sampleMessages() {
		seen[m.Kind] = true
		payload := AppendMessage(nil, m)
		got, err := DecodeMessage(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", m, err)
		}
		if !equalMessage(m, got) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", m, got)
		}
		proto.Release(got)
	}
	if len(seen) != proto.NumKinds {
		t.Fatalf("samples cover %d kinds, want %d", len(seen), proto.NumKinds)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	m := &proto.Message{Kind: proto.KindPush, To: 9, Origin: 1, Version: 4, Expiry: 99.5}
	frame := AppendFrame(nil, m)
	r := NewReader(bytes.NewReader(frame))
	got, err := r.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if !equalMessage(m, got) {
		t.Fatalf("frame round trip mismatch: %+v vs %+v", m, got)
	}
	proto.Release(got)
	if _, err := r.ReadMessage(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestStreamManyMessages(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	msgs := sampleMessages()
	for _, m := range msgs {
		if err := w.WriteMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range msgs {
		got, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !equalMessage(want, got) {
			t.Fatalf("message %d mismatch: %+v vs %+v", i, want, got)
		}
		proto.Release(got)
	}
	if _, err := r.ReadMessage(); err != io.EOF {
		t.Fatalf("after stream: %v, want io.EOF", err)
	}
}

func TestStreamOverSocketPair(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	want := &proto.Message{Kind: proto.KindRequest, To: 2, Origin: 5, Seq: 7, Hops: 1, Path: []int{5}}
	go func() {
		w := NewWriter(a)
		if err := w.WriteMessage(want); err == nil {
			w.Flush()
		}
	}()
	got, err := NewReader(b).ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if !equalMessage(want, got) {
		t.Fatalf("mismatch over pipe: %+v vs %+v", want, got)
	}
	proto.Release(got)
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := AppendMessage(nil, &proto.Message{Kind: proto.KindSubscribe, To: 1, Subject: 2})
	cases := []struct {
		name string
		p    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad version", append([]byte{99}, good[1:]...), ErrVersion},
		{"zero version", append([]byte{0}, good[1:]...), ErrVersion},
		{"version 6", append([]byte{6}, good[1:]...), ErrVersion},
		{"unknown kind", append([]byte{good[0], 200}, good[2:]...), ErrUnknownKind},
		{"unknown flags", append([]byte{good[0], good[1], 0x80}, good[3:]...), ErrBadFlags},
		{"truncated fields", good[:4], ErrTruncated},
		{"trailing bytes", append(append([]byte{}, good...), 0), ErrTrailing},
		// The epoch/term flag is only ever set to carry a non-zero field;
		// a flagged zero pair would be a second encoding of the same
		// message.
		{"epoch/term flag with zero fields",
			append(append([]byte{Version, good[1], flagEpochTerm}, good[3:]...), 0, 0), ErrNonCanonical},
		{"epoch/term flag without fields",
			append([]byte{Version, good[1], flagEpochTerm}, good[3:]...), ErrTruncated},
		{"batch stamped v6",
			func() []byte {
				p := batchPayload()
				p[0] = 6
				return p
			}(), ErrVersion},
		{"batch with piggy flag", []byte{Version, byte(proto.KindBatch), flagPiggy}, ErrBadFlags},
		{"batch with epoch/term flag", []byte{Version, byte(proto.KindBatch), flagEpochTerm}, ErrBadFlags},
		{"truncated batch member",
			func() []byte {
				p := batchPayload()
				return p[:len(p)-1]
			}(), ErrTruncated},
		{"nested batch",
			AppendMessage(nil, &proto.Message{Kind: proto.KindBatch, To: 1, Batch: []*proto.Message{
				{Kind: proto.KindBatch, To: 1, Batch: []*proto.Message{{Kind: proto.KindPush, To: 1}}},
			}}), ErrUnknownKind},
	}
	for _, c := range cases {
		if _, err := DecodeMessage(c.p); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// Zero-member and oversized batch envelopes.
	bz := []byte{Version, byte(proto.KindBatch), 0, 0, 0, 0} // To, Origin, Seq zeros
	if _, err := DecodeMessage(appendVarintBytes(append([]byte{}, bz...), 0)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("empty batch: err = %v, want %v", err, ErrTooLarge)
	}
	if _, err := DecodeMessage(appendVarintBytes(append([]byte{}, bz...), MaxBatch+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized batch: err = %v, want %v", err, ErrTooLarge)
	}
	// A member whose declared length leaves slack inside the sub-payload.
	slack := append([]byte{}, bz...)
	slack = appendVarintBytes(slack, 1) // one member
	member := AppendMessage(nil, &proto.Message{Kind: proto.KindPush, To: 1})
	slack = appendVarintBytes(slack, int64(len(member)+1))
	slack = append(slack, member...)
	slack = append(slack, 0)
	if _, err := DecodeMessage(slack); !errors.Is(err, ErrTrailing) {
		t.Errorf("slack batch member: err = %v, want %v", err, ErrTrailing)
	}
	// Oversized path length.
	huge := []byte{Version, byte(proto.KindRequest), 0}
	for i := 0; i < 9; i++ {
		huge = append(huge, 0) // To..Key zeros
	}
	huge = append(huge, make([]byte, 8)...) // expiry
	huge = appendVarintBytes(huge, MaxPath+1)
	if _, err := DecodeMessage(huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized path: err = %v, want %v", err, ErrTooLarge)
	}
	// Negative path length.
	neg := huge[:len(huge)-varintLen(MaxPath+1)]
	neg = appendVarintBytes(neg, -1)
	if _, err := DecodeMessage(neg); !errors.Is(err, ErrTooLarge) {
		t.Errorf("negative path: err = %v, want %v", err, ErrTooLarge)
	}
}

func TestReaderRejectsBadFrames(t *testing.T) {
	// Oversized frame header.
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := NewReader(bytes.NewReader(hdr[:])).ReadMessage(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized frame: %v, want %v", err, ErrTooLarge)
	}
	// Zero-length frame.
	if _, err := NewReader(bytes.NewReader(make([]byte, 4))).ReadMessage(); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty frame: %v, want %v", err, ErrTruncated)
	}
	// Partial header.
	if _, err := NewReader(bytes.NewReader([]byte{0, 0})).ReadMessage(); !errors.Is(err, ErrTruncated) {
		t.Errorf("partial header: %v, want %v", err, ErrTruncated)
	}
	// Header promising more than the stream holds.
	frame := AppendFrame(nil, &proto.Message{Kind: proto.KindPush, To: 1})
	if _, err := NewReader(bytes.NewReader(frame[:len(frame)-2])).ReadMessage(); !errors.Is(err, ErrTruncated) {
		t.Errorf("short body: %v, want %v", err, ErrTruncated)
	}
}

func TestDecodedMessageIsPooledAndClean(t *testing.T) {
	payload := AppendMessage(nil, &proto.Message{Kind: proto.KindRequest, To: 1, Path: []int{1, 2, 3}})
	m, err := DecodeMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	proto.Release(m)
	fresh := proto.NewMessage()
	defer proto.Release(fresh)
	if fresh.Kind != 0 || len(fresh.Path) != 0 || fresh.To != 0 {
		t.Fatalf("released decoded message leaked state: %+v", fresh)
	}
}

// batchPayload encodes a small valid envelope for the malformed-decode
// cases to corrupt.
func batchPayload() []byte {
	return AppendMessage(nil, &proto.Message{Kind: proto.KindBatch, To: 2, Origin: 1, Seq: 5,
		Batch: []*proto.Message{{Kind: proto.KindPush, To: 2, Origin: 1, Key: 3, Version: 9}}})
}

func appendVarintBytes(p []byte, v int64) []byte {
	u := uint64(v<<1) ^ uint64(v>>63)
	for u >= 0x80 {
		p = append(p, byte(u)|0x80)
		u >>= 7
	}
	return append(p, byte(u))
}

func varintLen(v int64) int {
	return len(appendVarintBytes(nil, v))
}

// codecMix is the TCP hot path's message mix: every kind with a path as
// long as its kind number, a push carrying a piggybacked subscribe, the
// replica kinds carrying the Epoch/Term trailer, the batch envelope
// holding four keyed pushes, and a keyed request for a multi-byte key
// varint.
func codecMix() []*proto.Message {
	var mix []*proto.Message
	for k := 0; k < proto.NumKinds; k++ {
		m := &proto.Message{Kind: proto.Kind(k), To: k * 31, Origin: 42, Seq: int64(k) << 20}
		if m.Kind == proto.KindBatch {
			// The envelope kind carries members, not fields of its own.
			for i := 0; i < 4; i++ {
				m.Batch = append(m.Batch, &proto.Message{Kind: proto.KindPush, To: k * 31, Origin: 42,
					Key: i, Version: 12345, Expiry: 1.7e9})
			}
			mix = append(mix, m)
			continue
		}
		m.Subject, m.Old, m.New = 7, 7, 11
		m.Version, m.Hops, m.Expiry = 12345, k, 1.7e9+float64(k)
		for p := 0; p < k; p++ {
			m.Path = append(m.Path, p*1000)
		}
		if m.Kind == proto.KindPush {
			m.SetPiggy(proto.KindSubscribe, 7)
		}
		if m.Kind >= proto.KindPrepare && m.Kind != proto.KindRootAnnounce {
			m.Epoch, m.Term = 2, int64(k)<<40
		}
		mix = append(mix, m)
	}
	return append(mix, &proto.Message{Kind: proto.KindRequest, To: 9, Origin: 42, Key: 64,
		Seq: 77, Hops: 2, Path: []int{42, 17}})
}

func TestEncodeDecodeAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector, so decode is not allocation-free there")
	}
	for _, m := range codecMix() {
		t.Run(fmt.Sprintf("%s/key=%d", m.Kind, m.Key), func(t *testing.T) {
			buf := AppendFrame(nil, m)
			// The first decode checks the round trip and warms the pool so
			// the measured loop reuses its messages.
			got, err := DecodeMessage(buf[frameHeader:])
			if err != nil {
				t.Fatal(err)
			}
			if !equalMessage(m, got) {
				t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", m, got)
			}
			proto.Release(got)
			allocs := testing.AllocsPerRun(200, func() {
				buf = AppendFrame(buf[:0], m)
				got, err := DecodeMessage(buf[frameHeader:])
				if err != nil {
					t.Fatal(err)
				}
				proto.Release(got)
			})
			if allocs > 0.5 {
				t.Errorf("encode+decode allocates %.1f times per message, want 0", allocs)
			}
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	m := &proto.Message{Kind: proto.KindReply, To: 3, Origin: 9, Seq: 2, Version: 7, Expiry: 5.5, Hops: 4, Path: []int{9, 4, 3}}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendMessage(buf[:0], m)
	}
}

func BenchmarkDecode(b *testing.B) {
	m := &proto.Message{Kind: proto.KindReply, To: 3, Origin: 9, Seq: 2, Version: 7, Expiry: 5.5, Hops: 4, Path: []int{9, 4, 3}}
	buf := AppendMessage(nil, m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := DecodeMessage(buf)
		if err != nil {
			b.Fatal(err)
		}
		proto.Release(got)
	}
}
