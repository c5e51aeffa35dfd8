// Package wire is the binary codec that carries proto messages between
// peers over a byte stream. Frames are length-prefixed and versioned:
//
//	| u32 payload length (big endian) | payload |
//
// and every non-batch payload has one layout:
//
//	| 7 | kind | flags | To | Origin | Subject | Old | New | Seq | Version | Hops | Key | Expiry | path | [piggy] | [Epoch Term] |
//
// with every integer field as a signed varint (zigzag, so the protocol's
// -1 sentinels stay one byte), the expiry as 8 IEEE-754 big-endian bytes,
// the path as a count-prefixed varint list, and two optional trailers,
// each behind its own flag bit: a piggyback record, and the replica
// protocol's Epoch and Term. KindBatch envelopes use their own compact
// layout carrying a count-prefixed list of length-delimited member
// payloads. Encoding appends to a caller buffer; decoding fills a pooled
// proto.Message whose Path backing array is reused, so a busy connection
// round-trips messages without per-message allocation.
//
// Decoding is strict: unknown versions, unknown kinds, unknown flag bits,
// truncated fields, oversized paths or batches, nested envelopes and
// trailing bytes are all rejected, so a malformed or hostile frame can not
// smuggle state into a node.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"dup/internal/proto"
)

const (
	// Version is the payload format version; it is the first byte of every
	// payload, and the decoder accepts no other.
	Version = 7

	// MaxFrame bounds the payload length a reader accepts (and a writer
	// produces). Protocol messages are tens of bytes; the megabyte bound
	// only exists to cap what a broken or hostile peer can make us buffer.
	MaxFrame = 1 << 20

	// MaxPath bounds the request/reply path length. No index search tree
	// here is remotely that deep; like MaxFrame it is an input-sanity cap.
	MaxPath = 1 << 12

	// MaxBatch bounds how many member messages one batch envelope may
	// carry. A node's coalescer flushes per loop iteration, so real
	// envelopes hold at most an inbox's worth of messages.
	MaxBatch = 1 << 12

	// frameHeader is the byte length of the frame length prefix.
	frameHeader = 4

	// flagPiggy marks a trailing piggyback record.
	flagPiggy = 1 << 0
	// flagEpochTerm marks the trailing Epoch and Term varints. It is set
	// only when at least one of them is non-zero, so data-plane frames
	// never carry them.
	flagEpochTerm = 1 << 1
	// knownFlags masks the flag bits this version defines.
	knownFlags = flagPiggy | flagEpochTerm
)

// Decode errors. Errors wrap these sentinels, so callers can classify with
// errors.Is while still seeing the offending detail.
var (
	ErrVersion      = errors.New("wire: unsupported version")
	ErrUnknownKind  = errors.New("wire: unknown message kind")
	ErrBadFlags     = errors.New("wire: unknown flag bits")
	ErrTruncated    = errors.New("wire: truncated payload")
	ErrTrailing     = errors.New("wire: trailing bytes after payload")
	ErrTooLarge     = errors.New("wire: frame exceeds size bound")
	ErrNonCanonical = errors.New("wire: non-canonical varint")
)

// bufPool recycles encode buffers across senders. The transport's write
// path and the batch encoder both borrow from it, so steady-state encoding
// reuses the same few buffers instead of allocating one per frame.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// GetBuf borrows a reusable byte buffer (length 0) from the shared encode
// pool. Return it with PutBuf when the encoded bytes have been copied out
// or written.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a buffer borrowed with GetBuf to the pool. The caller
// must not retain the slice afterwards.
func PutBuf(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// AppendMessage appends m's payload encoding (no length prefix) to dst and
// returns the extended slice.
func AppendMessage(dst []byte, m *proto.Message) []byte {
	if m.Kind == proto.KindBatch {
		return appendBatch(dst, m)
	}
	flags := byte(0)
	if m.Piggy != nil {
		flags |= flagPiggy
	}
	if m.Epoch != 0 || m.Term != 0 {
		flags |= flagEpochTerm
	}
	dst = append(dst, Version, byte(m.Kind), flags)
	dst = binary.AppendVarint(dst, int64(m.To))
	dst = binary.AppendVarint(dst, int64(m.Origin))
	dst = binary.AppendVarint(dst, int64(m.Subject))
	dst = binary.AppendVarint(dst, int64(m.Old))
	dst = binary.AppendVarint(dst, int64(m.New))
	dst = binary.AppendVarint(dst, m.Seq)
	dst = binary.AppendVarint(dst, m.Version)
	dst = binary.AppendVarint(dst, int64(m.Hops))
	dst = binary.AppendVarint(dst, int64(m.Key))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Expiry))
	dst = binary.AppendVarint(dst, int64(len(m.Path)))
	for _, p := range m.Path {
		dst = binary.AppendVarint(dst, int64(p))
	}
	if m.Piggy != nil {
		dst = append(dst, byte(m.Piggy.Kind))
		dst = binary.AppendVarint(dst, int64(m.Piggy.Subject))
	}
	if flags&flagEpochTerm != 0 {
		dst = binary.AppendVarint(dst, m.Epoch)
		dst = binary.AppendVarint(dst, m.Term)
	}
	return dst
}

// appendBatch encodes a KindBatch envelope: only the envelope's routing
// identity (To, Origin, Seq) and its members travel, each member as a
// length-delimited full payload encoding:
//
//	| 7 | KindBatch | 0 | To | Origin | Seq | count | { len | payload }* |
//
// Keeping the envelope this narrow makes decode→re-encode byte-identical.
func appendBatch(dst []byte, m *proto.Message) []byte {
	dst = append(dst, Version, byte(proto.KindBatch), 0)
	dst = binary.AppendVarint(dst, int64(m.To))
	dst = binary.AppendVarint(dst, int64(m.Origin))
	dst = binary.AppendVarint(dst, m.Seq)
	dst = binary.AppendVarint(dst, int64(len(m.Batch)))
	sp := GetBuf()
	for _, sub := range m.Batch {
		*sp = AppendMessage((*sp)[:0], sub)
		dst = binary.AppendVarint(dst, int64(len(*sp)))
		dst = append(dst, *sp...)
	}
	PutBuf(sp)
	return dst
}

// AppendFrame appends the length-prefixed frame for m to dst.
func AppendFrame(dst []byte, m *proto.Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = AppendMessage(dst, m)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeader))
	return dst
}

// decoder walks a payload, remembering the first error.
type decoder struct {
	p   []byte
	err error
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.p) == 0 {
		d.err = fmt.Errorf("%w: missing byte", ErrTruncated)
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.p)
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad varint", ErrTruncated)
		return 0
	}
	// A multi-byte varint ending in a zero byte carries redundant
	// continuation groups; rejecting it keeps the encoding canonical (one
	// byte sequence per message), which the fuzzer relies on.
	if n > 1 && d.p[n-1] == 0 {
		d.err = ErrNonCanonical
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.p) < 8 {
		d.err = fmt.Errorf("%w: missing float64", ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.p))
	d.p = d.p[8:]
	return v
}

// DecodeMessage decodes one payload (as produced by AppendMessage) into a
// pooled proto.Message. On success the caller owns the message and must
// eventually proto.Release it (or hand it to a transport that does). On
// error no message is retained.
func DecodeMessage(p []byte) (*proto.Message, error) {
	return decodeMessage(p, 0)
}

// decodeMessage is DecodeMessage with a nesting depth: batch members
// decode at depth 1, where a further envelope is rejected (envelopes never
// nest).
func decodeMessage(p []byte, depth int) (*proto.Message, error) {
	d := decoder{p: p}
	if v := d.byte(); d.err == nil && v != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	kind := d.byte()
	if d.err == nil && int(kind) >= proto.NumKinds {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
	k := proto.Kind(kind)
	if k == proto.KindBatch && depth > 0 {
		return nil, fmt.Errorf("%w: nested batch envelope", ErrUnknownKind)
	}
	flags := d.byte()
	if d.err == nil && flags&^byte(knownFlags) != 0 {
		return nil, fmt.Errorf("%w: %#x", ErrBadFlags, flags)
	}
	if d.err == nil && k == proto.KindBatch && flags != 0 {
		return nil, fmt.Errorf("%w: %#x on batch envelope", ErrBadFlags, flags)
	}
	if d.err != nil {
		return nil, d.err
	}
	if k == proto.KindBatch {
		return decodeBatch(&d, depth)
	}
	m := proto.NewMessage()
	m.Kind = k
	m.To = int(d.varint())
	m.Origin = int(d.varint())
	m.Subject = int(d.varint())
	m.Old = int(d.varint())
	m.New = int(d.varint())
	m.Seq = d.varint()
	m.Version = d.varint()
	m.Hops = int(d.varint())
	m.Key = int(d.varint())
	m.Expiry = d.float()
	pathLen := d.varint()
	if d.err == nil && (pathLen < 0 || pathLen > MaxPath) {
		proto.Release(m)
		return nil, fmt.Errorf("%w: path length %d", ErrTooLarge, pathLen)
	}
	for i := int64(0); i < pathLen && d.err == nil; i++ {
		m.Path = append(m.Path, int(d.varint()))
	}
	if flags&flagPiggy != 0 {
		pk := d.byte()
		if d.err == nil && int(pk) >= proto.NumKinds {
			proto.Release(m)
			return nil, fmt.Errorf("%w: piggy kind %d", ErrUnknownKind, pk)
		}
		m.SetPiggy(proto.Kind(pk), int(d.varint()))
	}
	if flags&flagEpochTerm != 0 {
		m.Epoch = d.varint()
		m.Term = d.varint()
		// The flag is only ever set to carry a non-zero field; a second
		// encoding of a zero pair would break canonical re-encoding.
		if d.err == nil && m.Epoch == 0 && m.Term == 0 {
			proto.Release(m)
			return nil, fmt.Errorf("%w: epoch/term flag with zero fields", ErrNonCanonical)
		}
	}
	if d.err != nil {
		proto.Release(m)
		return nil, d.err
	}
	if len(d.p) != 0 {
		proto.Release(m)
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.p))
	}
	return m, nil
}

// decodeBatch decodes the envelope body after version/kind/flags. Each
// member payload is decoded strictly (its declared length must be consumed
// exactly), so a valid envelope re-encodes byte-identically.
func decodeBatch(d *decoder, depth int) (*proto.Message, error) {
	m := proto.NewMessage()
	m.Kind = proto.KindBatch
	m.To = int(d.varint())
	m.Origin = int(d.varint())
	m.Seq = d.varint()
	count := d.varint()
	if d.err == nil && (count < 1 || count > MaxBatch) {
		proto.Release(m)
		return nil, fmt.Errorf("%w: batch of %d members", ErrTooLarge, count)
	}
	for i := int64(0); i < count && d.err == nil; i++ {
		sublen := d.varint()
		if d.err != nil {
			break
		}
		if sublen < 1 || sublen > int64(len(d.p)) {
			d.err = fmt.Errorf("%w: batch member length %d of %d", ErrTruncated, sublen, len(d.p))
			break
		}
		sub, err := decodeMessage(d.p[:sublen], depth+1)
		if err != nil {
			d.err = err
			break
		}
		d.p = d.p[sublen:]
		m.Batch = append(m.Batch, sub)
	}
	if d.err != nil {
		proto.Release(m) // cascades into any members decoded so far
		return nil, d.err
	}
	if len(d.p) != 0 {
		proto.Release(m)
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.p))
	}
	return m, nil
}
