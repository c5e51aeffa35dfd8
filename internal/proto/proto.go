// Package proto defines the message vocabulary of the index caching and
// update propagation protocols. The same kinds are used by the
// discrete-event simulator and by the live goroutine network; only the
// transport differs.
package proto

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind identifies a protocol message type.
type Kind uint8

const (
	// KindRequest is a query for the index travelling up the index search
	// tree toward the authority node.
	KindRequest Kind = iota
	// KindReply carries the index back along the reverse request path;
	// every node on the way caches it (path caching).
	KindReply
	// KindPush proactively delivers a fresh index version. In CUP a push
	// travels hop-by-hop down the index search tree; in DUP it travels
	// directly between DUP-tree neighbours.
	KindPush
	// KindSubscribe announces that Subject wants index updates; it travels
	// upstream until the root or an existing DUP-tree node absorbs it
	// (paper Fig. 3 B).
	KindSubscribe
	// KindUnsubscribe withdraws Subject's interest (paper Fig. 3 E).
	KindUnsubscribe
	// KindSubstitute asks upstream nodes to replace Old with New in their
	// subscriber lists (paper Fig. 3 C).
	KindSubstitute
	// KindInterest is CUP's interest announcement: it marks the sender's
	// branch as interested at each node on the way to the root.
	KindInterest
	// KindUninterest withdraws a CUP branch interest marking.
	KindUninterest
	// KindKeepAlive is the hosting node's periodic liveness signal to the
	// authority node. It is not charged to the query cost metric: the
	// underlying network requires it for all schemes alike.
	KindKeepAlive
	// KindKeepAliveAck answers a keep-alive. The live network uses it for
	// ack-based failure detection; the simulator models detection delay
	// directly and never sends it.
	KindKeepAliveAck
	// KindAck acknowledges one reliable message (push, subscribe,
	// unsubscribe, substitute) by echoing its sender-assigned Seq. Subject
	// carries the acknowledged kind so the sender can keep per-kind
	// counters. Acks themselves are best-effort: a lost ack just means one
	// idempotent retransmission. The simulator's lossless event queue never
	// sends them.
	KindAck
	// KindJoin announces a node attaching to a running cluster. The joiner
	// sends it (reliably) to the parent the directory assigned; the parent
	// adopts the joiner into its keep-alive fabric and answers with a
	// KindState transfer when it holds a valid index copy. Version carries
	// the directory membership epoch at send time.
	KindJoin
	// KindLeave announces a graceful departure. Sent to the parent with
	// Subject = the leaver's remaining representative subscriber (or -1),
	// it runs the paper's substitute/unsubscribe logic proactively instead
	// of waiting for keep-alive death; copies sent to the leaver's
	// keep-alive children (Subject = -1) trigger immediate re-homing.
	KindLeave
	// KindState is a point-to-point index state transfer (Version, Expiry)
	// answering a KindJoin, so a rejoining subscriber re-syncs in one
	// message instead of a TTL of misses. Best-effort: a lost transfer
	// degrades to the ordinary query path.
	KindState
	// KindBatch is a coalescing envelope: several messages bound for the
	// same neighbour, sent as one frame (Batch holds the members). When the
	// envelope carries reliable members its own Seq is set and one ack for
	// the envelope settles all of them at once. Envelopes never nest.
	KindBatch
	// KindPrepare opens a replica leadership round (dup/internal/replica):
	// a candidate authority asks every member of the replica set to promise
	// Term and to report its accepted log. Expiry proposes the candidate's
	// lease deadline. Every replica frame carries the sender's term in Term
	// and its config epoch in Epoch. Replica kinds are not in the reliable
	// class — the replica layer retransmits on its own tick until quorum.
	KindPrepare
	// KindPromise answers the replica protocol's round-trips. Subject
	// discriminates: 0 = prepare promise (Path carries key,version pairs of
	// the sender's accepted log), 1 = accept ack (Key, Seq = the sender's
	// accepted version for that key), 2 = lease ack (Seq echoes the
	// renewal counter). Term always carries the term being answered.
	KindPromise
	// KindAccept replicates one ordered log entry: the leaseholder asks a
	// replica to durably accept (Key, Version, Expiry) under Term.
	KindAccept
	// KindCommit tells a replica that a quorum has accepted (Key, Version)
	// under Term, advancing its committed watermark. Advisory: safety
	// rests on the accepted log, commit only bounds failover work.
	KindCommit
	// KindLease renews the leaseholder's time-based lease: under Term,
	// renewal counter Seq, proposed deadline Expiry. A quorum of lease acks
	// lets the leader keep serving reads and pushes locally.
	KindLease
	// KindRootAnnounce is the root's soft-state beacon: the authority
	// periodically bumps a root sequence number (Seq) and floods it down
	// the keep-alive tree (Subject = the announcing root, Origin = the
	// forwarding neighbour). A node whose observed root sequence stops
	// advancing times out its root path and re-selects a parent by score
	// instead of waiting for a keep-alive miss. Best-effort: the next
	// beacon refreshes whatever a lost one missed.
	KindRootAnnounce
	// KindReconfig carries the replica set's membership-change protocol
	// (dup/internal/replica). Subject discriminates: 0 = joint config
	// proposal (Path carries old members then new members, New = the old
	// set's length), 1 = final config (Path carries the new members),
	// 2 = config ack (Epoch is the adopted epoch, Version echoes the
	// answered proposal's term), 3 = config request from a member that saw
	// a newer epoch stamped on a frame. Term carries the sender's term and
	// Epoch the config epoch the frame names.
	KindReconfig
	// KindStateXfer is the snapshot-style state transfer that brings a
	// replacement member's accepted log up to date before it gains a
	// vote. Subject discriminates: 0 = begin (Path carries the current
	// member set, Version the sender's failover floor, New the chunk
	// count), 1 = a chunk of the accepted log (Path carries key,version
	// pairs, Version the chunk index), 2 = the replacement's completion
	// ack. Term carries the sender's term and Epoch the config epoch the
	// transfer belongs to.
	KindStateXfer
)

var kindNames = [...]string{
	"request", "reply", "push", "subscribe", "unsubscribe",
	"substitute", "interest", "uninterest", "keepalive", "keepalive-ack",
	"ack", "join", "leave", "state", "batch",
	"prepare", "promise", "accept", "commit", "lease",
	"root-announce", "reconfig", "state-xfer",
}

// NumKinds is the number of defined message kinds; Kind values in
// [0, NumKinds) are valid. The wire codec rejects anything else.
const NumKinds = len(kindNames)

// String returns the lower-case message kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Control reports whether the kind is a tree-maintenance message
// (subscribe, unsubscribe, substitute, interest, uninterest) — the class
// the paper charges to cost as "messages used to propagate interests" and
// "messages used to maintain the DUP tree".
func (k Kind) Control() bool {
	switch k {
	case KindSubscribe, KindUnsubscribe, KindSubstitute, KindInterest, KindUninterest:
		return true
	}
	return false
}

// Message is one in-flight protocol message in the discrete-event
// simulator. Field use by kind:
//
//	Request:     To (next hop), Origin, Hops, Path (nodes visited)
//	Reply:       To, Origin, Hops (of the request), Path (remaining
//	             reverse path), Version, Expiry
//	Push:        To, Version, Expiry, Origin (the pushing node)
//	Subscribe:   To, Subject
//	Unsubscribe: To, Subject
//	Substitute:  To, Old, New
//	Interest:    To, Subject (the child whose branch became interested)
//	Uninterest:  To, Subject
type Message struct {
	Kind    Kind
	To      int        // delivery target (next hop)
	Origin  int        // query originator / pushing node / keep-alive sender
	Subject int        // subscribe/unsubscribe/interest subject
	Old     int        // substitute: node to remove
	New     int        // substitute: node to insert
	Key     int        // which keyed index tree the message belongs to (0 = default)
	Seq     int64      // request/reply correlation id (live transports only)
	Version int64      // index version carried by replies and pushes
	Expiry  float64    // absolute expiry of that version
	Hops    int        // hops travelled by the request (latency accounting)
	Epoch   int64      // replica frames: the sender's config epoch
	Term    int64      // replica frames: the sender's (or proposer's) term
	Path    []int      // request: visited nodes; reply: remaining reverse path
	Batch   []*Message // KindBatch only: the coalesced member messages
	Piggy   *Piggyback

	// piggyStore is inline backing for Piggy (see SetPiggy), so decoding a
	// piggybacked message does not allocate.
	piggyStore Piggyback
}

// SetPiggy attaches a piggyback using the message's inline storage, so hot
// paths (the wire decoder, Clone) stay allocation-free. The Piggy pointer
// is only valid while the caller owns the message.
func (m *Message) SetPiggy(k Kind, subject int) {
	m.piggyStore = Piggyback{Kind: k, Subject: subject}
	m.Piggy = &m.piggyStore
}

// pool recycles Message values between simulator runs and hops. Pooled
// messages keep their Path backing array, so a steady-state simulation
// reuses the same few hundred messages (and path slices) indefinitely
// instead of allocating one per send.
var pool = sync.Pool{New: func() any { return new(Message) }}

// inUse tracks NewMessage calls minus Release calls, so harnesses can
// assert that every pooled message handed out came back (no leaks through
// abandoned inboxes or queues). An atomic add per checkout is noise next
// to the send it accompanies and allocates nothing, so the hot path keeps
// its alloc-free guarantee.
var inUse atomic.Int64

// InUse reports how many pooled messages are currently checked out
// (NewMessage minus Release). Messages built as plain literals and then
// Released skew the count down, so callers comparing before/after a
// workload should take a baseline snapshot rather than assume zero.
func InUse() int64 { return inUse.Load() }

// NewMessage returns a zeroed Message, reusing a pooled one when
// available. Callers hand the message to the transport with Send; the
// transport releases it after final delivery.
func NewMessage() *Message {
	inUse.Add(1)
	return pool.Get().(*Message)
}

// Clone returns a pooled deep copy of m: the Path contents are copied into
// the clone's own backing array, any Piggyback is duplicated into the
// clone's inline storage, and batch members are cloned recursively, so the
// clone and the original can be released independently. The fault
// injection layer uses it to duplicate in-flight messages.
func Clone(m *Message) *Message {
	c := NewMessage()
	path, batch := c.Path, c.Batch
	*c = *m
	c.Path = append(path[:0], m.Path...)
	c.Batch = batch[:0]
	for _, sub := range m.Batch {
		c.Batch = append(c.Batch, Clone(sub))
	}
	if m.Piggy != nil {
		c.piggyStore = *m.Piggy
		c.Piggy = &c.piggyStore
	}
	return c
}

// Reset zeroes every field but keeps the Path and Batch capacity for
// reuse. It does not release batch members — that is Release's job; a
// caller that detached them resets with an empty Batch.
func (m *Message) Reset() {
	path := m.Path[:0]
	batch := m.Batch
	for i := range batch {
		batch[i] = nil // do not pin released members past the next reuse
	}
	*m = Message{Path: path, Batch: batch[:0]}
}

// Release resets m and returns it to the pool, first releasing any batch
// members still attached (an envelope owns its members). The caller must
// be the message's sole owner: after Release any retained pointer to m (or
// to its Path slice) is invalid, because the next NewMessage may hand it
// out again.
func Release(m *Message) {
	for _, sub := range m.Batch {
		if sub != nil {
			Release(sub)
		}
	}
	inUse.Add(-1)
	m.Reset()
	pool.Put(m)
}

// Piggyback is a control item riding on a request packet instead of
// travelling as its own message, so its hops are free: the paper lets a
// node "piggyback subscribe(N6) by setting the interest bit in the request
// packet it sends out". Each node a carrying request visits processes the
// piggyback; the scheme decides whether it continues riding. When the
// request is served before the piggyback is absorbed, the remainder
// continues as an ordinary (charged) control message.
type Piggyback struct {
	Kind    Kind // KindSubscribe (DUP) or KindInterest (CUP)
	Subject int
}

// String renders a compact human-readable form for traces.
func (m *Message) String() string {
	switch m.Kind {
	case KindRequest:
		return fmt.Sprintf("request{to:%d origin:%d hops:%d}", m.To, m.Origin, m.Hops)
	case KindReply:
		return fmt.Sprintf("reply{to:%d origin:%d v:%d}", m.To, m.Origin, m.Version)
	case KindPush:
		return fmt.Sprintf("push{to:%d from:%d v:%d}", m.To, m.Origin, m.Version)
	case KindSubscribe, KindUnsubscribe, KindInterest, KindUninterest:
		return fmt.Sprintf("%s{to:%d subject:%d}", m.Kind, m.To, m.Subject)
	case KindSubstitute:
		return fmt.Sprintf("substitute{to:%d old:%d new:%d}", m.To, m.Old, m.New)
	case KindAck:
		return fmt.Sprintf("ack{to:%d seq:%d of:%s}", m.To, m.Seq, Kind(m.Subject))
	case KindJoin:
		return fmt.Sprintf("join{to:%d origin:%d epoch:%d}", m.To, m.Origin, m.Version)
	case KindLeave:
		return fmt.Sprintf("leave{to:%d origin:%d rep:%d}", m.To, m.Origin, m.Subject)
	case KindState:
		return fmt.Sprintf("state{to:%d from:%d v:%d}", m.To, m.Origin, m.Version)
	case KindBatch:
		return fmt.Sprintf("batch{to:%d from:%d seq:%d n:%d}", m.To, m.Origin, m.Seq, len(m.Batch))
	case KindPrepare:
		return fmt.Sprintf("prepare{to:%d from:%d term:%d}", m.To, m.Origin, m.Term)
	case KindPromise:
		return fmt.Sprintf("promise{to:%d from:%d term:%d sub:%d}", m.To, m.Origin, m.Term, m.Subject)
	case KindAccept:
		return fmt.Sprintf("accept{to:%d key:%d term:%d v:%d}", m.To, m.Key, m.Term, m.Version)
	case KindCommit:
		return fmt.Sprintf("commit{to:%d key:%d term:%d v:%d}", m.To, m.Key, m.Term, m.Version)
	case KindLease:
		return fmt.Sprintf("lease{to:%d from:%d term:%d seq:%d}", m.To, m.Origin, m.Term, m.Seq)
	case KindRootAnnounce:
		return fmt.Sprintf("root-announce{to:%d from:%d root:%d seq:%d}", m.To, m.Origin, m.Subject, m.Seq)
	case KindReconfig:
		return fmt.Sprintf("reconfig{to:%d from:%d term:%d epoch:%d sub:%d}", m.To, m.Origin, m.Term, m.Epoch, m.Subject)
	case KindStateXfer:
		return fmt.Sprintf("state-xfer{to:%d from:%d term:%d epoch:%d sub:%d}", m.To, m.Origin, m.Term, m.Epoch, m.Subject)
	default:
		return fmt.Sprintf("%s{to:%d}", m.Kind, m.To)
	}
}
