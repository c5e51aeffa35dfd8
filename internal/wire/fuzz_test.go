package wire

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"

	"dup/internal/proto"
)

// FuzzDecodeEncode feeds arbitrary bytes to the decoder. Whatever decodes
// must re-encode byte-identically (the format has one canonical encoding)
// and re-decode to an equal message; whatever fails to decode must fail
// with a wire error, not a panic. The corpus is seeded with a valid
// payload for every proto.Kind plus the field-coverage variants.
func FuzzDecodeEncode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(AppendMessage(nil, m))
	}
	// A few deliberately broken seeds steer the fuzzer at the reject paths.
	f.Add([]byte{})
	f.Add([]byte{99})
	f.Add([]byte{Version, 200, 0})
	f.Add([]byte{Version, 0, 0xff})
	// Batch reject paths: bare envelope header, zero member count, and a
	// nested envelope.
	f.Add([]byte{Version, byte(proto.KindBatch), 0})
	f.Add([]byte{Version, byte(proto.KindBatch), 0, 0, 0, 0, 0})
	f.Add(AppendMessage(nil, &proto.Message{Kind: proto.KindBatch, To: 1, Batch: []*proto.Message{
		{Kind: proto.KindBatch, To: 1, Batch: []*proto.Message{{Kind: proto.KindPush, To: 1}}},
	}}))
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeMessage(p)
		if err != nil {
			return // rejected without panicking: fine
		}
		if int(m.Kind) >= proto.NumKinds {
			t.Fatalf("decoder accepted unknown kind %d", m.Kind)
		}
		re := AppendMessage(nil, m)
		if !bytes.Equal(re, p) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", p, re)
		}
		m2, err := DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !equalMessage(m, m2) {
			t.Fatalf("re-decode mismatch:\n %+v\n %+v", m, m2)
		}
		proto.Release(m)
		proto.Release(m2)
	})
}

// FuzzReadBurst feeds arbitrary byte streams to the burst decoder and
// holds it to the ReadMessage contract: for the same bytes both paths
// must produce the same message sequence and fail at the same point,
// whatever the burst cap and however the stream is torn across reads.
// The corpus seeds torn frames, oversized length prefixes and trailing
// garbage on top of a valid multi-frame stream.
func FuzzReadBurst(f *testing.F) {
	var stream []byte
	for _, m := range sampleMessages() {
		stream = AppendFrame(stream, m)
	}
	f.Add(stream, uint8(7), uint8(0))
	f.Add(stream[:len(stream)-3], uint8(2), uint8(3)) // torn body, tiny reads
	f.Add(append(append([]byte(nil), stream...), 0xff, 0xff, 0xff, 0xff, 1), uint8(64), uint8(9))
	f.Add(append(append([]byte(nil), stream...), 0, 0, 0, 2, 0x99, 0x99), uint8(1), uint8(1))
	f.Add([]byte{0, 0, 0, 0}, uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, p []byte, cap8, chunk8 uint8) {
		one := NewReader(bytes.NewReader(p))
		var src io.Reader = bytes.NewReader(p)
		if chunk8 > 0 {
			src = iotest.OneByteReader(bytes.NewReader(p))
			if chunk8 > 1 {
				src = &fuzzChunkReader{data: p, n: int(chunk8)}
			}
		}
		burst := NewReader(src)
		var ms1 []*proto.Message
		var err1 error
		for err1 == nil && len(ms1) < 1024 {
			var m *proto.Message
			m, err1 = one.ReadMessage()
			if err1 == nil {
				ms1 = append(ms1, m)
			}
		}
		var ms2 []*proto.Message
		var err2 error
		for err2 == nil && len(ms2) < 1024 {
			var got []*proto.Message
			got, err2 = burst.ReadBurst(int(cap8))
			if len(got) > int(cap8) && cap8 > 0 {
				t.Fatalf("burst of %d frames exceeds cap %d", len(got), cap8)
			}
			ms2 = append(ms2, got...)
		}
		if len(ms1) >= 1024 || len(ms2) >= 1024 {
			// Hit the iteration backstop before either stream ended; the
			// prefixes are not comparable frame-for-frame.
			for _, m := range append(ms1, ms2...) {
				proto.Release(m)
			}
			return
		}
		if len(ms1) != len(ms2) {
			t.Fatalf("%d messages via ReadMessage, %d via ReadBurst", len(ms1), len(ms2))
		}
		for i := range ms1 {
			if !equalMessage(ms1[i], ms2[i]) {
				t.Fatalf("message %d differs:\n %+v\n %+v", i, ms1[i], ms2[i])
			}
		}
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("errors diverge: %v vs %v", err1, err2)
		}
		for _, m := range ms1 {
			proto.Release(m)
		}
		for _, m := range ms2 {
			proto.Release(m)
		}
	})
}

// fuzzChunkReader tears the stream into n-byte reads.
type fuzzChunkReader struct {
	data []byte
	n    int
}

func (c *fuzzChunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.n
	if n > len(c.data) {
		n = len(c.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// FuzzFrameReader feeds arbitrary byte streams to the frame reader: it
// must either produce valid messages or return an error, never panic or
// read past the declared frame.
func FuzzFrameReader(f *testing.F) {
	var stream []byte
	for _, m := range sampleMessages() {
		stream = AppendFrame(stream, m)
	}
	f.Add(stream)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		r := NewReader(bytes.NewReader(p))
		for i := 0; i < 64; i++ {
			m, err := r.ReadMessage()
			if err != nil {
				return
			}
			if int(m.Kind) >= proto.NumKinds {
				t.Fatalf("reader surfaced unknown kind %d", m.Kind)
			}
			proto.Release(m)
		}
	})
}
