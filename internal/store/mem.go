package store

import "sync"

// Mem is an in-memory Journal: the chaos harness uses one per simulated
// process so a restart-with-recovery event can reload the state a real
// deployment would have read from disk, without touching the filesystem.
type Mem struct {
	mu    sync.Mutex
	nodes map[nodeKey]NodeState
	reps  map[nodeKey]ReplicaState
	confs map[int]ReplicaConfig
}

// NewMem returns an empty in-memory journal.
func NewMem() *Mem {
	return &Mem{
		nodes: make(map[nodeKey]NodeState),
		reps:  make(map[nodeKey]ReplicaState),
		confs: make(map[int]ReplicaConfig),
	}
}

// Record keeps the latest state per (node, key), copying the subscriber
// list into the entry's own buffer (readers copy it out again).
func (m *Mem) Record(ns NodeState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	nk := nodeKey{ns.ID, ns.Key}
	ns.Subscribers = append(m.nodes[nk].Subscribers[:0], ns.Subscribers...)
	m.nodes[nk] = ns
}

// Node returns the recorded key-0 state for id, if any.
func (m *Mem) Node(id int) (NodeState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ns, ok := m.nodes[nodeKey{id, 0}]
	if ok {
		ns.Subscribers = append([]int(nil), ns.Subscribers...)
	}
	return ns, ok
}

// States returns every recorded record for id, one per keyed index tree,
// sorted by key (nil when there are none).
func (m *Mem) States(id int) []NodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return statesOf(m.nodes, id)
}

// RecordReplica keeps the latest replica log entry per (node, key).
func (m *Mem) RecordReplica(rs ReplicaState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reps[nodeKey{rs.ID, rs.Key}] = rs
}

// ReplicaStates returns every recorded replica log entry for id, one per
// keyed index tree, sorted by key (nil when there are none).
func (m *Mem) ReplicaStates(id int) []ReplicaState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return replicaStatesOf(m.reps, id)
}

// RecordReplicaConfig keeps the highest-(epoch, term) membership record
// per node.
func (m *Mem) RecordReplicaConfig(rc ReplicaConfig) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rc.Old = append([]int(nil), rc.Old...)
	rc.New = append([]int(nil), rc.New...)
	if old, ok := m.confs[rc.ID]; !ok || rc.Epoch > old.Epoch ||
		(rc.Epoch == old.Epoch && rc.Term >= old.Term) {
		m.confs[rc.ID] = rc
	}
}

// ReplicaConfig returns the recorded membership record for id, if any.
func (m *Mem) ReplicaConfig(id int) (ReplicaConfig, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rc, ok := m.confs[id]
	if ok {
		rc.Old = append([]int(nil), rc.Old...)
		rc.New = append([]int(nil), rc.New...)
	}
	return rc, ok
}
