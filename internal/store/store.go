// Package store persists per-node protocol state — the authority's
// (version, subscriber list) and every node's subscription set — so a
// killed process can resume where it crashed instead of losing its index
// to the mid-fail-over vacuum.
//
// The layout is a classic append-only log plus snapshot. Every state
// change appends one CRC-framed record to wal.log:
//
//	| u32 payload length (big endian) | u32 CRC-32 (IEEE) of payload | payload |
//
// where the payload reuses the wire codec: a KindState message carrying
// the node id (Origin), parent (Subject), root flag (Old), version and
// expiry, with the subscriber list in Path — or, for replica log entries
// (dup/internal/replica), a KindAccept message carrying the accepted
// (term, version, expiry) per keyed tree. Recovery replays the snapshot
// and then the log, keeping the last record per node (per record type); a
// torn tail (a record cut short by the crash) is truncated, never
// propagated, while a whole record that does not decode fails recovery
// with ErrCorrupt and leaves the files alone. When the log outgrows
// CompactAt the store writes a fresh snapshot (tmp + fsync + rename, so a
// crash mid-compaction leaves the old one intact) and resets the log.
// Root version bumps fsync before Record returns — the authority never
// acknowledges a version it could forget.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dup/internal/proto"
	"dup/internal/wire"
)

const (
	walName  = "wal.log"
	snapName = "snapshot.dat"

	// recHeader is the byte length of the per-record length + CRC prefix.
	recHeader = 8

	// DefaultCompactAt is the log size that triggers a snapshot + log
	// reset. State records are tens of bytes, so this keeps recovery
	// replay bounded at a few thousand records.
	DefaultCompactAt = 1 << 18
)

// ErrCorrupt marks state recovery refuses: a snapshot that fails its CRC
// or decode, or a journal record whose CRC holds but whose payload does
// not decode (say, one written by a build with another wire format).
// Snapshots are written atomically and a checksummed record was written
// whole, so unlike a torn log tail these indicate real damage and are
// surfaced rather than repaired silently; the files are left as found.
var ErrCorrupt = errors.New("store: corrupt snapshot or journal")

// errTorn marks a record cut short or garbled mid-write, the signature of
// a crash mid-append, which the log repairs by truncation.
var errTorn = errors.New("torn record")

// NodeState is the durable protocol state of one node for one keyed
// index tree: everything needed to resume its role after a crash. A node
// participating in several keys records one NodeState per key; Key 0 is
// the base index. Expiry is the wire representation (absolute unix
// seconds as float64); the live layer converts.
type NodeState struct {
	ID          int
	Key         int
	Parent      int
	IsRoot      bool
	Version     int64
	Expiry      float64
	Subscribers []int
}

// nodeKey identifies one (node, keyed tree) record.
type nodeKey struct{ id, key int }

// ReplicaState is one durable entry of a node's replica log
// (dup/internal/replica): the highest (term, version) the node has
// accepted for one keyed index tree. The quorum protocol's safety rests on
// these surviving a crash — a replica that forgot an accepted version
// could promise a stale log during failover — so RecordReplica fsyncs on
// every version advance.
type ReplicaState struct {
	ID      int
	Key     int
	Term    int64
	Version int64
	Expiry  float64
}

// Journal receives state records as a node's durable state changes. The
// file-backed Store and the in-memory Mem both implement it; the live
// layer records through this interface so tests and the chaos harness can
// capture state without touching disk.
//
// The caller reuses ns.Subscribers for its next record, so an
// implementation must copy anything it keeps from it before Record
// returns.
type Journal interface {
	Record(ns NodeState)
}

// ReplicaJournal receives replica log records. Store and Mem both
// implement it; the replica layer type-asserts its journal to this
// interface, so any plain Journal still works for non-replicated clusters.
// As with Journal, an implementation copies whatever it keeps from a
// record's slices; Store and Mem, which implement both, copy
// NodeState.Subscribers because the live layer reuses it.
type ReplicaJournal interface {
	RecordReplica(rs ReplicaState)
}

// ReplicaConfig is one durable membership record of the replica group:
// the config epoch a member adopted and the sets it names. Term is the
// proposer term the config was adopted under — with the epoch it names
// the exact proposal, so a recovered member keeps refusing same-epoch
// rivals from no newer a term. During the joint phase of an online
// reconfiguration both sets are recorded (Joint true, Old the outgoing
// set); a stable config records only New. Only the highest epoch per
// node survives recovery (ties go to the later record, which carries
// the higher adoption term) — configs are totally ordered by (epoch,
// term) and adoption is irrevocable below that order.
type ReplicaConfig struct {
	ID    int
	Epoch int64
	Term  int64
	Joint bool
	Old   []int
	New   []int
}

// ReplicaConfigJournal receives replica membership records. Store and
// Mem both implement it; the replica layer type-asserts its journal, so
// plain journals keep working for fixed-membership clusters.
type ReplicaConfigJournal interface {
	RecordReplicaConfig(rc ReplicaConfig)
}

// Store is a file-backed Journal rooted at one directory. It is safe for
// concurrent use by multiple node goroutines.
type Store struct {
	mu        sync.Mutex
	dir       string
	wal       *os.File
	walBytes  int64
	compactAt int64
	nodes     map[nodeKey]NodeState
	reps      map[nodeKey]ReplicaState
	confs     map[int]ReplicaConfig
	lastRoot  map[nodeKey]int64 // last fsynced root version per (node, key)
	lastRep   map[nodeKey]int64 // last fsynced replica-log version per (node, key)
	buf       []byte
	err       error // first write error; surfaced by Err/Close
}

// Open opens (or creates) the store in dir, replaying any snapshot and
// log found there. A torn or checksum-failing log record — the normal
// signature of a crash mid-append — is truncated away with everything
// after it; a checksummed record that does not decode is ErrCorrupt.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		compactAt: DefaultCompactAt,
		nodes:     make(map[nodeKey]NodeState),
		reps:      make(map[nodeKey]ReplicaState),
		confs:     make(map[int]ReplicaConfig),
		lastRoot:  make(map[nodeKey]int64),
		lastRep:   make(map[nodeKey]int64),
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.loadWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	if fi, err := wal.Stat(); err == nil {
		s.walBytes = fi.Size()
	}
	for nk, ns := range s.nodes {
		if ns.IsRoot {
			s.lastRoot[nk] = ns.Version
		}
	}
	for nk, rs := range s.reps {
		s.lastRep[nk] = rs.Version
	}
	return s, nil
}

// SetCompactAt overrides the log size that triggers compaction (tests use
// tiny values to force the path).
func (s *Store) SetCompactAt(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > 0 {
		s.compactAt = n
	}
}

// Node returns the recovered key-0 state for id, if any.
func (s *Store) Node(id int) (NodeState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns, ok := s.nodes[nodeKey{id, 0}]
	if ok {
		ns.Subscribers = append([]int(nil), ns.Subscribers...)
	}
	return ns, ok
}

// States returns every recovered record for id, one per keyed index
// tree, sorted by key (nil when the store has none).
func (s *Store) States(id int) []NodeState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return statesOf(s.nodes, id)
}

// ReplicaStates returns every recovered replica log entry for id, one per
// keyed index tree, sorted by key (nil when the store has none).
func (s *Store) ReplicaStates(id int) []ReplicaState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return replicaStatesOf(s.reps, id)
}

// ReplicaConfig returns the recovered membership record for id, if any.
func (s *Store) ReplicaConfig(id int) (ReplicaConfig, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rc, ok := s.confs[id]
	if ok {
		rc.Old = append([]int(nil), rc.Old...)
		rc.New = append([]int(nil), rc.New...)
	}
	return rc, ok
}

// replicaStatesOf collects and sorts id's replica entries out of a
// (node, key) map.
func replicaStatesOf(reps map[nodeKey]ReplicaState, id int) []ReplicaState {
	var out []ReplicaState
	for nk, rs := range reps {
		if nk.id != id {
			continue
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Nodes returns a copy of every recovered key-0 node state, keyed by id.
func (s *Store) Nodes() map[int]NodeState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]NodeState, len(s.nodes))
	for nk, ns := range s.nodes {
		if nk.key != 0 {
			continue
		}
		ns.Subscribers = append([]int(nil), ns.Subscribers...)
		out[nk.id] = ns
	}
	return out
}

// statesOf collects and sorts id's records out of a (node, key) map.
func statesOf(nodes map[nodeKey]NodeState, id int) []NodeState {
	var out []NodeState
	for nk, ns := range nodes {
		if nk.id != id {
			continue
		}
		ns.Subscribers = append([]int(nil), ns.Subscribers...)
		out = append(out, ns)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Record appends one state record to the log. A root version bump fsyncs
// before returning; everything else rides on the OS page cache (a crash
// loses at most the most recent subscription flux, which the protocol
// rebuilds anyway). Write errors are sticky and surfaced by Err/Close —
// Record itself stays fire-and-forget so node goroutines never block on
// error handling.
func (s *Store) Record(ns NodeState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.wal == nil {
		return
	}
	s.buf = appendRecord(s.buf[:0], &ns)
	if _, err := s.wal.Write(s.buf); err != nil {
		s.err = err
		return
	}
	s.walBytes += int64(len(s.buf))
	nk := nodeKey{ns.ID, ns.Key}
	// Readers copy lists out, so the entry's own buffer is refilled.
	ns.Subscribers = append(s.nodes[nk].Subscribers[:0], ns.Subscribers...)
	s.nodes[nk] = ns
	if ns.IsRoot && ns.Version != s.lastRoot[nk] {
		if err := s.wal.Sync(); err != nil {
			s.err = err
			return
		}
		s.lastRoot[nk] = ns.Version
	}
	if s.walBytes >= s.compactAt {
		s.compactLocked()
	}
}

// RecordReplica appends one replica log record. Every version advance
// fsyncs before returning: an accepted version the disk could forget
// would let a crashed replica promise a stale log during failover, which
// is exactly the regression the quorum exists to rule out.
func (s *Store) RecordReplica(rs ReplicaState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.wal == nil {
		return
	}
	s.buf = appendReplicaRecord(s.buf[:0], &rs)
	if _, err := s.wal.Write(s.buf); err != nil {
		s.err = err
		return
	}
	s.walBytes += int64(len(s.buf))
	nk := nodeKey{rs.ID, rs.Key}
	s.reps[nk] = rs
	if rs.Version != s.lastRep[nk] {
		if err := s.wal.Sync(); err != nil {
			s.err = err
			return
		}
		s.lastRep[nk] = rs.Version
	}
	if s.walBytes >= s.compactAt {
		s.compactLocked()
	}
}

// RecordReplicaConfig appends one replica membership record. Every
// config record fsyncs before returning: a member that voted under an
// epoch its disk could forget might recover into an older set and form
// a quorum the new config no longer intersects.
func (s *Store) RecordReplicaConfig(rc ReplicaConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.wal == nil {
		return
	}
	s.buf = appendReplicaConfigRecord(s.buf[:0], &rc)
	if _, err := s.wal.Write(s.buf); err != nil {
		s.err = err
		return
	}
	s.walBytes += int64(len(s.buf))
	rc.Old = append([]int(nil), rc.Old...)
	rc.New = append([]int(nil), rc.New...)
	if old, ok := s.confs[rc.ID]; !ok || rc.Epoch >= old.Epoch {
		s.confs[rc.ID] = rc
	}
	if err := s.wal.Sync(); err != nil {
		s.err = err
		return
	}
	if s.walBytes >= s.compactAt {
		s.compactLocked()
	}
}

// Sync flushes the log to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// Err returns the first write error, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close syncs and closes the log, returning the first error seen.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return s.err
	}
	if err := s.wal.Sync(); err != nil && s.err == nil {
		s.err = err
	}
	if err := s.wal.Close(); err != nil && s.err == nil {
		s.err = err
	}
	s.wal = nil
	return s.err
}

// compactLocked writes every node's latest state into a fresh snapshot
// (atomically, via tmp + fsync + rename) and resets the log.
func (s *Store) compactLocked() {
	tmp := filepath.Join(s.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		s.err = err
		return
	}
	s.buf = s.buf[:0]
	for _, ns := range s.nodes {
		s.buf = appendRecord(s.buf, &ns)
	}
	for _, rs := range s.reps {
		s.buf = appendReplicaRecord(s.buf, &rs)
	}
	for _, rc := range s.confs {
		s.buf = appendReplicaConfigRecord(s.buf, &rc)
	}
	if _, err := f.Write(s.buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, snapName))
	}
	if err == nil {
		err = syncDir(s.dir)
	}
	if err == nil {
		err = s.wal.Truncate(0)
	}
	if err == nil {
		_, err = s.wal.Seek(0, io.SeekStart)
	}
	if err == nil {
		err = s.wal.Sync()
	}
	if err != nil {
		s.err = err
		return
	}
	s.walBytes = 0
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Not every platform supports it; failure to open is ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	err = d.Sync()
	d.Close()
	return err
}

func (s *Store) loadSnapshot() error {
	p, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if _, err := replay(p, s.nodes, s.reps, s.confs); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, snapName, err)
	}
	return nil
}

func (s *Store) loadWAL() error {
	path := filepath.Join(s.dir, walName)
	p, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	good, err := replay(p, s.nodes, s.reps, s.confs)
	if errors.Is(err, errTorn) {
		// Torn tail from a crash mid-append: keep the good prefix.
		return os.Truncate(path, int64(good))
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, walName, err)
	}
	return nil
}

// replay applies every complete record in p to nodes (KindState
// records), reps (KindAccept replica log records) or confs (KindReconfig
// membership records), returning the byte offset of the last
// fully-applied record and the error that stopped it.
func replay(p []byte, nodes map[nodeKey]NodeState, reps map[nodeKey]ReplicaState, confs map[int]ReplicaConfig) (int, error) {
	off := 0
	for off < len(p) {
		if len(p)-off < recHeader {
			return off, fmt.Errorf("%w: short header at %d", errTorn, off)
		}
		n := int(binary.BigEndian.Uint32(p[off:]))
		sum := binary.BigEndian.Uint32(p[off+4:])
		if n <= 0 || n > wire.MaxFrame || len(p)-off-recHeader < n {
			return off, fmt.Errorf("%w: short body at %d", errTorn, off)
		}
		payload := p[off+recHeader : off+recHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return off, fmt.Errorf("%w: crc mismatch at %d", errTorn, off)
		}
		if err := applyRecord(payload, nodes, reps, confs); err != nil {
			return off, fmt.Errorf("record at %d: %w", off, err)
		}
		off += recHeader + n
	}
	return off, nil
}

// applyRecord decodes one record payload and applies it to the map its
// kind belongs to.
func applyRecord(payload []byte, nodes map[nodeKey]NodeState, reps map[nodeKey]ReplicaState, confs map[int]ReplicaConfig) error {
	m, err := wire.DecodeMessage(payload)
	if err != nil {
		return err
	}
	defer proto.Release(m)
	switch m.Kind {
	case proto.KindState:
		ns := NodeState{
			ID:      m.Origin,
			Key:     m.Key,
			Parent:  m.Subject,
			IsRoot:  m.Old == 1,
			Version: m.Version,
			Expiry:  m.Expiry,
		}
		if len(m.Path) > 0 {
			ns.Subscribers = append([]int(nil), m.Path...)
		}
		nodes[nodeKey{ns.ID, ns.Key}] = ns
	case proto.KindAccept:
		rs := ReplicaState{
			ID:      m.Origin,
			Key:     m.Key,
			Term:    m.Term,
			Version: m.Version,
			Expiry:  m.Expiry,
		}
		reps[nodeKey{rs.ID, rs.Key}] = rs
	case proto.KindReconfig:
		if m.New < 0 || m.New > len(m.Path) {
			return fmt.Errorf("reconfig record split %d outside path of %d", m.New, len(m.Path))
		}
		rc := ReplicaConfig{
			ID:    m.Origin,
			Epoch: m.Epoch,
			Term:  m.Term,
			Joint: m.Subject == 0,
		}
		if m.New > 0 {
			rc.Old = append([]int(nil), m.Path[:m.New]...)
		}
		rc.New = append([]int(nil), m.Path[m.New:]...)
		if old, ok := confs[rc.ID]; !ok || rc.Epoch > old.Epoch ||
			(rc.Epoch == old.Epoch && rc.Term >= old.Term) {
			confs[rc.ID] = rc
		}
	default:
		return fmt.Errorf("record kind %s, want state, accept or reconfig", m.Kind)
	}
	return nil
}

// appendRecord appends the CRC-framed encoding of ns to dst. The payload
// is the wire encoding of a KindState message, so the store shares the
// codec's canonical varints and strict decoding instead of inventing a
// second format.
func appendRecord(dst []byte, ns *NodeState) []byte {
	m := proto.NewMessage()
	m.Kind = proto.KindState
	m.Key = ns.Key
	m.Origin = ns.ID
	m.Subject = ns.Parent
	if ns.IsRoot {
		m.Old = 1
	}
	m.Version = ns.Version
	m.Expiry = ns.Expiry
	m.Path = append(m.Path, ns.Subscribers...)
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = wire.AppendMessage(dst, m)
	payload := dst[start+recHeader:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	proto.Release(m)
	return dst
}

// appendReplicaConfigRecord appends the CRC-framed encoding of rc: the
// wire encoding of a KindReconfig message with the node id in Origin,
// the epoch in Epoch, the adoption term in Term, the joint flag in
// Subject (0 joint, 1 final) and the membership in Path as old-set ++
// new-set with the split point in New.
func appendReplicaConfigRecord(dst []byte, rc *ReplicaConfig) []byte {
	m := proto.NewMessage()
	m.Kind = proto.KindReconfig
	m.Origin = rc.ID
	m.Epoch = rc.Epoch
	m.Term = rc.Term
	if !rc.Joint {
		m.Subject = 1
	}
	m.New = len(rc.Old)
	m.Path = append(m.Path, rc.Old...)
	m.Path = append(m.Path, rc.New...)
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = wire.AppendMessage(dst, m)
	payload := dst[start+recHeader:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	proto.Release(m)
	return dst
}

// appendReplicaRecord appends the CRC-framed encoding of rs: the wire
// encoding of a KindAccept message with the node id in Origin and the
// term in Term, the same layout as the live protocol's Accept frames.
func appendReplicaRecord(dst []byte, rs *ReplicaState) []byte {
	m := proto.NewMessage()
	m.Kind = proto.KindAccept
	m.Key = rs.Key
	m.Origin = rs.ID
	m.Term = rs.Term
	m.Version = rs.Version
	m.Expiry = rs.Expiry
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = wire.AppendMessage(dst, m)
	payload := dst[start+recHeader:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	proto.Release(m)
	return dst
}
