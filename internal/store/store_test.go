package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"dup/internal/raceflag"
)

func reopen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func equalState(a, b NodeState) bool {
	if a.ID != b.ID || a.Parent != b.Parent || a.IsRoot != b.IsRoot ||
		a.Version != b.Version || a.Expiry != b.Expiry || len(a.Subscribers) != len(b.Subscribers) {
		return false
	}
	for i := range a.Subscribers {
		if a.Subscribers[i] != b.Subscribers[i] {
			return false
		}
	}
	return true
}

func TestRecordAndRecover(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	root := NodeState{ID: 0, Parent: -1, IsRoot: true, Version: 7, Expiry: 1234.5, Subscribers: []int{3, 5}}
	leaf := NodeState{ID: 5, Parent: 2, Version: 7, Expiry: 1234.5, Subscribers: []int{5}}
	s.Record(root)
	s.Record(leaf)
	// Later records supersede earlier ones for the same node.
	root.Version = 9
	root.Subscribers = []int{3, 5, 8}
	s.Record(root)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir)
	got, ok := r.Node(0)
	if !ok || !equalState(got, root) {
		t.Fatalf("recovered root = %+v (ok=%v), want %+v", got, ok, root)
	}
	got, ok = r.Node(5)
	if !ok || !equalState(got, leaf) {
		t.Fatalf("recovered leaf = %+v (ok=%v), want %+v", got, ok, leaf)
	}
	if _, ok := r.Node(99); ok {
		t.Fatal("recovered state for a node never recorded")
	}
	if len(r.Nodes()) != 2 {
		t.Fatalf("Nodes() has %d entries, want 2", len(r.Nodes()))
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	s.Record(NodeState{ID: 0, IsRoot: true, Parent: -1, Version: 3})
	s.Record(NodeState{ID: 1, Parent: 0, Version: 3, Subscribers: []int{1}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the log tail, simulating a crash mid-append.
	path := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir)
	if got, ok := r.Node(0); !ok || got.Version != 3 {
		t.Fatalf("intact first record lost: %+v ok=%v", got, ok)
	}
	if _, ok := r.Node(1); ok {
		t.Fatal("torn record surfaced as state")
	}
	// The store must remain appendable after repair: new records land
	// cleanly where the torn bytes were cut.
	r.Record(NodeState{ID: 1, Parent: 0, Version: 4})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := reopen(t, dir)
	if got, ok := r2.Node(1); !ok || got.Version != 4 {
		t.Fatalf("post-repair record lost: %+v ok=%v", got, ok)
	}
}

func TestCorruptRecordInMiddleTruncatesRest(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	s.Record(NodeState{ID: 0, IsRoot: true, Parent: -1, Version: 1})
	s.Record(NodeState{ID: 1, Parent: 0, Version: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload: CRC catches it and
	// the replay keeps only the prefix before it.
	path := filepath.Join(dir, "wal.log")
	p, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p[len(p)-1] ^= 0xff
	if err := os.WriteFile(path, p, 0o644); err != nil {
		t.Fatal(err)
	}
	r := reopen(t, dir)
	if _, ok := r.Node(0); !ok {
		t.Fatal("record before corruption lost")
	}
	if _, ok := r.Node(1); ok {
		t.Fatal("corrupt record surfaced as state")
	}
}

// TestUndecodableRecordIsAnError pins that a journal record whose CRC
// holds but whose payload does not decode (a journal written by a build
// with another wire format) fails Open instead of being truncated away
// as a torn tail: the authority must not silently restart at version 0.
func TestUndecodableRecordIsAnError(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	s.Record(NodeState{ID: 0, IsRoot: true, Parent: -1, Version: 5})
	s.Record(NodeState{ID: 1, Parent: 0, Version: 5})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-stamp the first record's payload version byte and recompute its
	// CRC, so the record is whole but speaks an unknown format.
	path := filepath.Join(dir, "wal.log")
	p, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(p)
	p[recHeader] = 99
	binary.BigEndian.PutUint32(p[4:], crc32.ChecksumIEEE(p[recHeader:recHeader+n]))
	if err := os.WriteFile(path, p, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with an undecodable record: %v, want %v", err, ErrCorrupt)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, p) {
		t.Fatalf("refused journal was modified: %d bytes before, %d after", len(p), len(after))
	}
}

func TestCompactionKeepsStateAndShrinksLog(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	s.SetCompactAt(256)
	for v := int64(1); v <= 64; v++ {
		s.Record(NodeState{ID: 0, IsRoot: true, Parent: -1, Version: v, Subscribers: []int{1, 2, 3}})
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= 64*20 {
		t.Fatalf("log never compacted: %d bytes", fi.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.dat")); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := reopen(t, dir)
	if got, ok := r.Node(0); !ok || got.Version != 64 {
		t.Fatalf("post-compaction recovery = %+v ok=%v, want version 64", got, ok)
	}
}

func TestCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	s.SetCompactAt(1) // compact on first record
	s.Record(NodeState{ID: 0, IsRoot: true, Parent: -1, Version: 2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot.dat")
	p, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p[len(p)-1] ^= 0xff
	if err := os.WriteFile(path, p, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt snapshot: %v, want %v", err, ErrCorrupt)
	}
}

func TestMemJournal(t *testing.T) {
	m := NewMem()
	if _, ok := m.Node(3); ok {
		t.Fatal("empty journal has state")
	}
	m.Record(NodeState{ID: 3, Parent: 1, Version: 2, Subscribers: []int{4}})
	m.Record(NodeState{ID: 3, Parent: 1, Version: 5, Subscribers: []int{4, 6}})
	got, ok := m.Node(3)
	if !ok || got.Version != 5 || len(got.Subscribers) != 2 {
		t.Fatalf("mem journal state = %+v ok=%v", got, ok)
	}
	// Mutating the returned copy must not touch the journal.
	got.Subscribers[0] = 99
	again, _ := m.Node(3)
	if again.Subscribers[0] != 4 {
		t.Fatal("Node returned aliased subscriber slice")
	}
}

// recorder is the part of a journal the Record reuse tests drive, on
// both the file-backed Store and Mem.
type recorder interface {
	Journal
	Node(id int) (NodeState, bool)
	States(id int) []NodeState
}

func recorders(t *testing.T) []struct {
	name string
	j    recorder
} {
	return []struct {
		name string
		j    recorder
	}{{"Store", reopen(t, t.TempDir())}, {"Mem", NewMem()}}
}

// TestRecordRepeatAllocs pins a repeat Record of a same-length
// subscriber list at zero allocations: the list is copied into the
// entry's existing buffer.
func TestRecordRepeatAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, r := range recorders(t) {
		ns := NodeState{ID: 1, Parent: 0, Version: 4, Subscribers: []int{2, 3, 4}}
		r.j.Record(ns)
		if allocs := testing.AllocsPerRun(100, func() {
			ns.Subscribers[0]++
			r.j.Record(ns)
		}); allocs != 0 {
			t.Errorf("%s: repeat Record allocates %.0f objects, want 0", r.name, allocs)
		}
		if got, _ := r.j.Node(1); !equalState(got, ns) {
			t.Errorf("%s: Node(1) = %+v, want %+v", r.name, got, ns)
		}
	}
}

// TestRecordLeavesEarlierReadsAlone checks that refilling an entry's
// buffer in place never reaches lists handed out before: Node, States
// and (on Store) Nodes return copies, and Record copies the caller's
// list rather than keeping it.
func TestRecordLeavesEarlierReadsAlone(t *testing.T) {
	for _, r := range recorders(t) {
		subs := []int{2, 3}
		r.j.Record(NodeState{ID: 1, Parent: 0, Version: 1, Subscribers: subs})
		node, _ := r.j.Node(1)
		reads := map[string][]int{"Node": node.Subscribers, "States": r.j.States(1)[0].Subscribers}
		if s, ok := r.j.(*Store); ok {
			reads["Nodes"] = s.Nodes()[1].Subscribers
		}
		// The caller reuses its list, and the entry's buffer is refilled.
		subs[0], subs[1] = 7, 8
		r.j.Record(NodeState{ID: 1, Parent: 0, Version: 2, Subscribers: []int{5, 6}})
		for what, got := range reads {
			if !equalInts(got, []int{2, 3}) {
				t.Errorf("%s: %s list read before the second Record changed to %v", r.name, what, got)
			}
		}
		if got, _ := r.j.Node(1); !equalInts(got.Subscribers, []int{5, 6}) {
			t.Errorf("%s: Node(1) list = %v, want [5 6]", r.name, got.Subscribers)
		}
	}
}

func TestReplicaRecordAndRecover(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	s.RecordReplica(ReplicaState{ID: 1, Key: 0, Term: 2, Version: 7, Expiry: 1234.5})
	s.RecordReplica(ReplicaState{ID: 1, Key: 3, Term: 2, Version: 9, Expiry: 1235.5})
	// Later entries supersede earlier ones for the same (node, key).
	s.RecordReplica(ReplicaState{ID: 1, Key: 0, Term: 3, Version: 11, Expiry: 1236.5})
	// Replica and node records share one log without clobbering each other.
	s.Record(NodeState{ID: 1, Parent: 0, Version: 4, Subscribers: []int{2}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir)
	got := r.ReplicaStates(1)
	if len(got) != 2 {
		t.Fatalf("recovered %d replica entries, want 2: %+v", len(got), got)
	}
	if got[0] != (ReplicaState{ID: 1, Key: 0, Term: 3, Version: 11, Expiry: 1236.5}) {
		t.Fatalf("key-0 entry = %+v", got[0])
	}
	if got[1] != (ReplicaState{ID: 1, Key: 3, Term: 2, Version: 9, Expiry: 1235.5}) {
		t.Fatalf("key-3 entry = %+v", got[1])
	}
	if r.ReplicaStates(99) != nil {
		t.Fatal("recovered replica entries for a node never recorded")
	}
	if ns, ok := r.Node(1); !ok || ns.Version != 4 {
		t.Fatalf("node record lost next to replica records: %+v ok=%v", ns, ok)
	}
}

func TestReplicaTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	s.RecordReplica(ReplicaState{ID: 0, Key: 0, Term: 1, Version: 5})
	s.RecordReplica(ReplicaState{ID: 0, Key: 1, Term: 1, Version: 6})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the log tail, simulating a crash mid-append of a
	// replica record: the intact prefix must survive, the torn entry must
	// vanish rather than decode as garbage.
	path := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir)
	got := r.ReplicaStates(0)
	if len(got) != 1 || got[0].Key != 0 || got[0].Version != 5 {
		t.Fatalf("after torn tail: %+v, want only the key-0 entry at version 5", got)
	}
	// The store must remain appendable after repair.
	r.RecordReplica(ReplicaState{ID: 0, Key: 1, Term: 2, Version: 8})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := reopen(t, dir)
	got = r2.ReplicaStates(0)
	if len(got) != 2 || got[1] != (ReplicaState{ID: 0, Key: 1, Term: 2, Version: 8}) {
		t.Fatalf("post-repair replica entries = %+v", got)
	}
}

func TestReplicaRecordsSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	s.SetCompactAt(256)
	for v := int64(1); v <= 64; v++ {
		s.RecordReplica(ReplicaState{ID: 2, Key: 0, Term: 1, Version: v})
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := reopen(t, dir)
	got := r.ReplicaStates(2)
	if len(got) != 1 || got[0].Version != 64 {
		t.Fatalf("post-compaction replica entries = %+v, want version 64", got)
	}
}

func TestMemReplicaJournal(t *testing.T) {
	m := NewMem()
	if m.ReplicaStates(1) != nil {
		t.Fatal("empty journal has replica entries")
	}
	m.RecordReplica(ReplicaState{ID: 1, Key: 2, Term: 1, Version: 3})
	m.RecordReplica(ReplicaState{ID: 1, Key: 2, Term: 1, Version: 4})
	got := m.ReplicaStates(1)
	if len(got) != 1 || got[0].Version != 4 {
		t.Fatalf("mem replica entries = %+v", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReplicaConfigRecordAndRecover(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	s.RecordReplicaConfig(ReplicaConfig{ID: 0, Epoch: 1, Term: 3, Joint: true, Old: []int{0, 1, 2}, New: []int{0, 1, 3}})
	// A later epoch supersedes; per-id entries stay independent.
	s.RecordReplicaConfig(ReplicaConfig{ID: 0, Epoch: 2, Term: 3, New: []int{0, 1, 3}})
	s.RecordReplicaConfig(ReplicaConfig{ID: 1, Epoch: 1, Term: 3, Joint: true, Old: []int{0, 1, 2}, New: []int{0, 1, 3}})
	// A same-epoch record from a higher adoption term supersedes (a new
	// leader re-drove a contested change); a lower term cannot.
	s.RecordReplicaConfig(ReplicaConfig{ID: 1, Epoch: 1, Term: 5, Joint: true, Old: []int{0, 1, 2}, New: []int{0, 1, 4}})
	// Config records share the log with node and replica records.
	s.Record(NodeState{ID: 0, Parent: -1, IsRoot: true, Version: 4})
	s.RecordReplica(ReplicaState{ID: 0, Key: 0, Term: 1, Version: 4})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir)
	rc, ok := r.ReplicaConfig(0)
	if !ok || rc.Epoch != 2 || rc.Term != 3 || rc.Joint || len(rc.Old) != 0 || !equalInts(rc.New, []int{0, 1, 3}) {
		t.Fatalf("recovered config for 0 = (%+v, %v), want stable epoch 2 term 3 over [0 1 3]", rc, ok)
	}
	rc, ok = r.ReplicaConfig(1)
	if !ok || rc.Epoch != 1 || rc.Term != 5 || !rc.Joint || !equalInts(rc.Old, []int{0, 1, 2}) || !equalInts(rc.New, []int{0, 1, 4}) {
		t.Fatalf("recovered config for 1 = (%+v, %v), want the term-5 joint epoch-1 pair", rc, ok)
	}
	if _, ok := r.ReplicaConfig(9); ok {
		t.Fatal("recovered a config for a node never recorded")
	}
	if ns, found := r.Node(0); !found || ns.Version != 4 {
		t.Fatalf("node record lost next to config records: %+v found=%v", ns, found)
	}
	if rs := r.ReplicaStates(0); len(rs) != 1 || rs[0].Version != 4 {
		t.Fatalf("replica record lost next to config records: %+v", rs)
	}
}

func TestReplicaConfigTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	s.RecordReplicaConfig(ReplicaConfig{ID: 0, Epoch: 1, New: []int{0, 1, 2}})
	s.RecordReplicaConfig(ReplicaConfig{ID: 0, Epoch: 2, Joint: true, Old: []int{0, 1, 2}, New: []int{0, 1, 3}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the log tail, simulating a crash mid-append of the
	// newest config record: the member must recover into the last intact
	// epoch, never into half a membership change.
	path := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir)
	rc, ok := r.ReplicaConfig(0)
	if !ok || rc.Epoch != 1 || rc.Joint || !equalInts(rc.New, []int{0, 1, 2}) {
		t.Fatalf("after torn tail: (%+v, %v), want the intact epoch-1 config", rc, ok)
	}
	// The store must remain appendable after repair.
	r.RecordReplicaConfig(ReplicaConfig{ID: 0, Epoch: 3, New: []int{0, 1, 3}})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := reopen(t, dir)
	rc, ok = r2.ReplicaConfig(0)
	if !ok || rc.Epoch != 3 || !equalInts(rc.New, []int{0, 1, 3}) {
		t.Fatalf("post-repair config = (%+v, %v), want epoch 3", rc, ok)
	}
}

func TestReplicaConfigSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	s.SetCompactAt(256)
	s.RecordReplicaConfig(ReplicaConfig{ID: 2, Epoch: 1, Joint: true, Old: []int{0, 1, 2}, New: []int{0, 1, 3}})
	for v := int64(1); v <= 64; v++ {
		s.RecordReplica(ReplicaState{ID: 2, Key: 0, Term: 1, Version: v})
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := reopen(t, dir)
	rc, ok := r.ReplicaConfig(2)
	if !ok || rc.Epoch != 1 || !rc.Joint || !equalInts(rc.Old, []int{0, 1, 2}) || !equalInts(rc.New, []int{0, 1, 3}) {
		t.Fatalf("post-compaction config = (%+v, %v), want the joint epoch-1 pair", rc, ok)
	}
}

func TestMemReplicaConfigJournal(t *testing.T) {
	m := NewMem()
	if _, ok := m.ReplicaConfig(0); ok {
		t.Fatal("empty journal has a config")
	}
	m.RecordReplicaConfig(ReplicaConfig{ID: 0, Epoch: 2, Term: 4, New: []int{0, 1, 3}})
	// An older epoch never overwrites a newer one.
	m.RecordReplicaConfig(ReplicaConfig{ID: 0, Epoch: 1, Joint: true, Old: []int{0, 1, 2}, New: []int{0, 1, 3}})
	// Nor does a same-epoch record from a lower adoption term.
	m.RecordReplicaConfig(ReplicaConfig{ID: 0, Epoch: 2, Term: 2, New: []int{0, 1, 9}})
	rc, ok := m.ReplicaConfig(0)
	if !ok || rc.Epoch != 2 || rc.Term != 4 || rc.Joint || !equalInts(rc.New, []int{0, 1, 3}) {
		t.Fatalf("mem config = (%+v, %v), want the term-4 stable epoch-2 set", rc, ok)
	}
}
