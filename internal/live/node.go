package live

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dup/internal/core"
	"dup/internal/proto"
	"dup/internal/replica"
	"dup/internal/store"
	"dup/internal/transport"
)

// ctrlKind enumerates local control injections (never on the wire). The
// first block arrives from the hosting Network; the second block is
// inter-lane coordination on sharded nodes — lane 0 owns the node-level
// fabric (parent, keep-alives, suspects) and fans node-wide effects out to
// the data lanes, which report peer observations back.
type ctrlKind uint8

const (
	cQuery      ctrlKind = iota // external query injection
	cReset                      // recovery: blank state, adopt new parent
	cBecomeRoot                 // case 5: take over as authority
	cInspect                    // state snapshot for Network.Inspect
	cLeave                      // graceful departure: proactive substitute
	cReboot                     // crash-and-restart with durable state
	cJoinKey                    // join one keyed index tree
	cLeaveKey                   // depart one keyed index tree

	cResetLane // lane 0 -> data lane: blank lane state after recovery
	cRootLane  // lane 0 -> data lane: this node became authority
	cAbdicate  // lane 0 -> data lane: lost the quorum race; serve as inner node again
	cReparent  // lane 0 -> data lane: re-homed; drop old parent's queue, re-announce
	cAdoptLane // lane 0 -> data lane: resume from durable per-key records
	cLaneLeave // lane 0 -> data lane: graceful departure started
	cPeerJoin  // lane 0 -> data lane: peer rejoined; reset its window, transfer state
	cUnsubPeer // lane 0 -> data lane: peer died; splice it out of lane shards
	cSuspect   // data lane -> lane 0: peer stopped acking reliable messages
	cAlive     // data lane -> lane 0: peers whose messages this lane saw
)

// ctrlMsg is one local control injection into a lane.
type ctrlMsg struct {
	kind     ctrlKind
	parent   int
	key      int
	peer     int     // cReparent/cPeerJoin/cUnsubPeer/cSuspect/cRootLane subject
	asRoot   bool    // cAdoptLane: resume as the designated authority
	w        *waiter // cQuery/cInspect/cLeave: completed with the outcome
	deadline time.Time
	children []int             // cLeave: keep-alive children to notify
	peers    []int             // cAlive: peers seen since the last digest
	states   []store.NodeState // cReboot/cAdoptLane: durable state to resume from
}

// reliableKind reports whether k carries tree, index or membership state
// that must survive message loss: such messages are seq-stamped,
// acknowledged by the receiver, and retransmitted until acked or given up
// on.
func reliableKind(k proto.Kind) bool {
	switch k {
	case proto.KindPush, proto.KindSubscribe, proto.KindUnsubscribe, proto.KindSubstitute,
		proto.KindJoin, proto.KindLeave:
		return true
	}
	return false
}

// relEntry is one reliable message awaiting acknowledgement: enough of
// the payload to rebuild it for a retransmission. Entries are pooled on a
// per-lane freelist so the steady-state send path allocates nothing.
// sentAt/ps feed the per-neighbour delivery stats when the ack arrives.
type relEntry struct {
	kind              proto.Kind
	to                int
	subject, old, new int
	key               int
	version           int64
	expiry            float64
	retryAt, deadline time.Time
	backoff           time.Duration
	sentAt            time.Time
	ps                *peerStat
}

// peerStat is one neighbour's observed delivery quality, feeding the
// scored parent selection that replaces a blind nearest-ancestor walk
// when a root path expires: sent/acked give ack reliability, srttNs a
// smoothed ack round-trip latency (EWMA, gain 1/8), beaconAt the last
// time a root-announce beacon arrived through this neighbour. All
// counters are atomics so any lane can update them on its hot path.
type peerStat struct {
	sent     atomic.Int64
	acked    atomic.Int64
	srttNs   atomic.Int64
	beaconAt atomic.Int64
}

// batchRec remembers which reliable member seqs one batch envelope
// carried, so the envelope's single ack can settle all of them. Entries
// expire at the members' retransmit deadline: by then every member has
// either been settled or given up on. Records are pooled per lane.
type batchRec struct {
	seqs     []int64
	deadline time.Time
}

// seqWindow dedups inbound (origin, seq) pairs so retransmissions and
// transport-level duplicates are absorbed instead of re-applied. It
// remembers the most recent dedupWindow sequence numbers; eviction is
// FIFO, which is safe because a sender only ever retransmits its few most
// recent unacknowledged messages.
type seqWindow struct {
	seen map[int64]struct{}
	fifo []int64
	next int
}

// observe records seq and reports whether it was already seen.
func (w *seqWindow) observe(seq int64) bool {
	if _, ok := w.seen[seq]; ok {
		return true
	}
	if len(w.fifo) < dedupWindow {
		w.fifo = append(w.fifo, seq)
	} else {
		delete(w.seen, w.fifo[w.next])
		w.fifo[w.next] = seq
		w.next = (w.next + 1) % dedupWindow
	}
	w.seen[seq] = struct{}{}
	return false
}

// pendingQuery is a query issued at this node that is waiting for its
// reply to retrace the request path back here.
type pendingQuery struct {
	w       *waiter
	expires time.Time
}

// copyCell is one index copy — a (version, expiry) pair — that the owning
// lane alone writes and any goroutine may read: KeyHandle.Query serves
// hits from it without entering the lane. expiry is unix nanoseconds, 0
// when there is no copy. The store and load orders make a torn read
// harmless: set writes the version before the expiry, and zeroes the
// expiry first when the new one is earlier; load reads the expiry, then
// the version, then the expiry again and reports no copy when it moved. A
// loaded version is therefore never judged by an expiry later than its
// own.
type copyCell struct {
	ver atomic.Int64
	exp atomic.Int64
}

func (c *copyCell) set(v, exp int64) {
	if exp < c.exp.Load() {
		c.exp.Store(0)
	}
	c.ver.Store(v)
	c.exp.Store(exp)
}

// drop invalidates the copy; the version stays as a lower-bound hint for
// the lane.
func (c *copyCell) drop() { c.exp.Store(0) }

func (c *copyCell) load() (v, exp int64) {
	exp = c.exp.Load()
	v = c.ver.Load()
	if c.exp.Load() != exp {
		return 0, 0
	}
	return v, exp
}

// shard is one keyed index tree's per-node state: the DUP-tree state
// machine plus the cache, authority schedule, interest window and durable
// record for that key. The routing tree (parent, keep-alive fabric,
// retransmit queue, dedup windows) stays node-level — the underlying DHT
// routes every key through the same neighbours — so a shard is exactly
// the per-key state the paper hangs off one index.
type shard struct {
	key int
	st  *core.State

	// The copies a query is answered from: cache is the copy pushes and
	// replies refresh (haveCopy false means it holds none), auth the
	// authority's own version, live while root is set. root and interested
	// mirror st.IsRoot and st.Interested for readers off the lane; the lane
	// republishes them whenever it changes st (setRoot, emit, resetLane).
	cache      copyCell
	haveCopy   bool
	lastPushed int64
	auth       copyCell
	root       atomic.Bool
	interested atomic.Bool

	// Access tracking (interest policy). count is bumped by the lane and
	// by inline hits alike; tick swaps it to zero at the interval boundary.
	count         atomic.Int64
	intervalStart time.Time

	// Per-key stats sink (registry entry shared with KeyHandle.Stats).
	kc *keyCounters

	// Durable state. lastRec is the last journal record written for this
	// key, so state that did not change does not hit the log again.
	lastRec  store.NodeState
	recValid bool
}

// node is one live peer. With Config.ShardLoops > 1 the node runs several
// lanes — independent receive/ctrl loops that partition the keyed shards
// by key % L, so independent keys process in parallel across cores. Lane
// 0 additionally owns the node-level fabric: the routing parent, the
// keep-alive protocol, child liveness, suspicion, membership and graceful
// departure. The fields grouped as "lane-0-owned" below are touched only
// on lane 0's goroutine; parent and lastAck are atomics because data
// lanes read the parent on every send and refresh lastAck when the parent
// acks lane traffic.
type node struct {
	nw   *Network
	id   int
	quit chan struct{}

	dead   atomic.Bool
	isRoot atomic.Bool

	// rep is the node's replicated-authority group (Config.Replicas >= 2
	// only; nil otherwise — the zero-cost off switch). Members carry one
	// from birth; a non-member carries one from the moment the directory
	// promotes it. The Group is internally synchronised, so any lane may
	// Step inbound replica traffic or Bump through it; the pointer itself
	// is atomic because promotion (lane 0) can race data-lane reads.
	rep atomic.Pointer[replica.Group]

	// parentV is the routing parent id (-1 for the root), read by every
	// lane on the send path and written by lane 0 during repair.
	parentV atomic.Int64

	// lastAckV is the last time the parent acknowledged anything from this
	// node, in unix nanoseconds: keep-alive suppression and parent-death
	// detection read it on lane 0; any lane stores it when a parent ack
	// settles.
	lastAckV atomic.Int64

	lanes []*lane

	// Lane-0-owned liveness. suspects holds peers this node has watched
	// miss their keep-alive window; the directory skips them when
	// re-homing. childSeen tracks keep-alive children.
	childSeen map[int]time.Time
	suspects  map[int]time.Time

	// Soft-state root path (Config.RootAnnounceEvery > 0, else dormant).
	// rootSeqV is the highest root-announce sequence this node observed
	// (or issued, on a root); rootSeqAtV is the unix-nano instant it last
	// advanced. Lane 0 drives expiry off them; they are atomics so info()
	// can snapshot from any lane. lastAnnounce is lane-0-owned: the last
	// time this node originated a beacon as root.
	rootSeqV     atomic.Int64
	rootSeqAtV   atomic.Int64
	lastAnnounce time.Time

	// peerMu guards peers, the per-neighbour delivery-quality table behind
	// scored parent selection. Entries are created on first touch and
	// never removed; the counters inside are atomics, so steady-state
	// updates take only the read lock.
	peerMu sync.RWMutex
	peers  map[int]*peerStat

	// keyMu guards allKeys, the node-wide sorted key registry behind
	// NodeInfo.Keys: shards live per lane, so the union is kept here.
	keyMu   sync.Mutex
	allKeys []int

	// Membership. announce makes the node introduce itself to its parent
	// (KindJoin) when lane 0 starts — set for joiners and for nodes
	// resuming from recovered state. leaving/leaveDone/leaveLanes track a
	// graceful departure: each lane signals once its reliable queue
	// drains, and the last one completes leaveDone.
	announce   bool
	leaving    bool
	leaveDone  *waiter
	leaveLanes atomic.Int32
	stopOnce   sync.Once
}

// lane is one receive/ctrl loop of a node: a partition of the keyed
// shards (key % ShardLoops == idx) with its own inbox, reliable-delivery
// machinery and send-side coalescer. Every field is owned by the lane's
// goroutine. Reliable seq streams are strided — lane i issues seqs
// congruent to i modulo the lane count — so a receiver routes acks and
// envelopes to the owning lane from the seq alone.
type lane struct {
	n      *node
	idx    int
	stride int64

	inbox chan *proto.Message
	ctrl  chan ctrlMsg

	// Per-key data plane: the shards this lane owns, sorted by key so
	// iteration is deterministic. The slice is never changed in place:
	// addShard and dropShard (both rare) replace it with an edited copy
	// and publish that through index, which is how KeyHandle.Query finds
	// a shard without entering the lane.
	shards []*shard
	index  atomic.Pointer[[]*shard]

	// targets is pushOut's scratch slice, reused across pushes.
	targets []int
	// acts collects one state-machine transition's upstream actions; emit
	// empties it. send never re-enters core, so one slice per lane serves.
	acts []core.Action
	// repOut collects the replica group's outbound frames; sendAll empties
	// it. It is per lane because data lanes Bump the group concurrently.
	repOut []*proto.Message

	// Query correlation: queries born on this lane wait in pending, keyed
	// by the Seq their request carried.
	nextSeq int64
	pending map[int64]pendingQuery

	// Delivery guarantees. Reliable outbound messages wait in unacked
	// (keyed by their seq) until the receiver's ack arrives, re-sent with
	// doubling backoff until the retransmit deadline; seen dedups inbound
	// (origin, seq) pairs so retries are idempotent.
	relSeq  int64
	unacked map[int64]*relEntry
	seen    map[int]*seqWindow

	// Send-side coalescer: messages bound for the same neighbour within
	// one lane-loop iteration are flushed together — bare when alone,
	// inside one KindBatch envelope when several — so a busy link carries
	// many protocol messages per frame and one ack settles all of them.
	// batches maps an envelope's seq to the reliable member seqs it
	// carried.
	obOrder []int
	obBins  map[int][]*proto.Message
	batches map[int64]*batchRec

	// Freelists: settled retransmit entries and batch records are reused
	// so the steady-state push path allocates nothing.
	relFree []*relEntry
	recFree []*batchRec

	// seenPeers accumulates message origins on data lanes between ticks;
	// each tick flushes a cAlive digest to lane 0, which refreshes
	// childSeen — the sharded equivalent of "any message from a child
	// proves it alive". Nil on lane 0.
	seenPeers map[int]struct{}

	// Graceful departure: leaving is set by beginLeave (lane 0) or
	// cLaneLeave; leaveSent records that this lane already reported its
	// queue drained.
	leaving   bool
	leaveSent bool
}

// maxEnvelope bounds how many members one flushed envelope carries; it is
// comfortably below wire.MaxBatch so every envelope the coalescer builds
// is decodable.
const maxEnvelope = 1 << 10

func newNode(nw *Network, id, parent int) *node {
	loops := nw.cfg.shardLoops()
	n := &node{
		nw:        nw,
		id:        id,
		quit:      make(chan struct{}),
		childSeen: map[int]time.Time{},
		suspects:  map[int]time.Time{},
		peers:     map[int]*peerStat{},
	}
	n.setParent(parent)
	if parent == -1 {
		n.isRoot.Store(true)
	}
	if r := nw.cfg.replicas(); r > 1 && id < r {
		n.rep.Store(replica.New(n.replicaConfig()))
	}
	// Seeding relSeq from the clock keeps seqs unique across process
	// restarts, so a rebooted peer's fresh stream is not mistaken for
	// retransmissions of its previous incarnation's. The base is rounded
	// down to a multiple of the lane count and lane i starts at base+i:
	// every seq a lane ever issues stays congruent to its index, which is
	// what lets receivers route acks by seq alone.
	base := time.Now().UnixNano()
	base -= base % int64(loops)
	n.lanes = make([]*lane, loops)
	for i := range n.lanes {
		l := &lane{
			n:       n,
			idx:     i,
			stride:  int64(loops),
			inbox:   make(chan *proto.Message, inboxDepth),
			ctrl:    make(chan ctrlMsg, 16),
			pending: map[int64]pendingQuery{},
			relSeq:  base + int64(i),
			unacked: map[int64]*relEntry{},
			seen:    map[int]*seqWindow{},
			obBins:  map[int][]*proto.Message{},
			batches: map[int64]*batchRec{},
		}
		if i > 0 {
			l.seenPeers = map[int]struct{}{}
		}
		n.lanes[i] = l
	}
	n.lanes[0].addShard(0, time.Now())
	return n
}

// replicaConfig builds this node's replica-group configuration: the
// replica set is nodes 0..Replicas-1, the lease runs one TTL (the same
// freshness horizon as the index itself), and accepted log entries land
// in the Network's journal when it is replica-capable. With Replicas <=
// 1 no Group is ever built, so this is only called in replicated mode.
func (n *node) replicaConfig() replica.Config {
	r := n.nw.cfg.replicas()
	members := make([]int, r)
	for i := range members {
		members[i] = i
	}
	var rj store.ReplicaJournal
	if j, ok := n.nw.journal.(store.ReplicaJournal); ok {
		rj = j
	}
	return replica.Config{
		ID:      n.id,
		Members: members,
		Lease:   n.nw.cfg.TTL,
		Journal: rj,
	}
}

// replicaKind reports whether k belongs to the replicated-authority
// quorum protocol; such messages bypass the DUP state machine and step
// the node's replica group instead.
func replicaKind(k proto.Kind) bool {
	switch k {
	case proto.KindPrepare, proto.KindPromise, proto.KindAccept,
		proto.KindCommit, proto.KindLease, proto.KindReconfig, proto.KindStateXfer:
		return true
	}
	return false
}

// parent returns the current routing parent (-1 for the root).
func (n *node) parent() int { return int(n.parentV.Load()) }

func (n *node) setParent(p int) { n.parentV.Store(int64(p)) }

func (n *node) lastAck() time.Time { return time.Unix(0, n.lastAckV.Load()) }

func (n *node) sawParentAck(now time.Time) { n.lastAckV.Store(now.UnixNano()) }

// peerView returns the delivery-stat entry for id without creating one;
// nil means the neighbour has never been observed.
func (n *node) peerView(id int) *peerStat {
	n.peerMu.RLock()
	ps := n.peers[id]
	n.peerMu.RUnlock()
	return ps
}

// peerStatFor returns the delivery-stat entry for id, creating it on
// first touch.
func (n *node) peerStatFor(id int) *peerStat {
	if ps := n.peerView(id); ps != nil {
		return ps
	}
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if ps := n.peers[id]; ps != nil {
		return ps
	}
	ps := &peerStat{}
	n.peers[id] = ps
	return ps
}

// laneForKey returns the lane owning one keyed shard.
func (n *node) laneForKey(key int) *lane {
	if len(n.lanes) == 1 {
		return n.lanes[0]
	}
	i := key % len(n.lanes)
	if i < 0 {
		i += len(n.lanes)
	}
	return n.lanes[i]
}

// laneForSeq returns the lane that issued a reliable seq: streams are
// strided, so seq mod the lane count is the issuing lane's index. This
// only holds when every process of the cluster runs the same ShardLoops,
// which Config documents as a requirement (like Nodes and Seed).
func (n *node) laneForSeq(seq int64) *lane {
	i := int(seq % int64(len(n.lanes)))
	if i < 0 {
		i += len(n.lanes)
	}
	return n.lanes[i]
}

// laneFor routes one inbound message to the lane that owns its state:
// keyed traffic by key, acks and reliable envelopes by the seq stride,
// node-level fabric (keep-alives, key-0 membership) to lane 0. Every
// member of a coalesced envelope routes to the same lane as the envelope
// itself, because a lane only coalesces its own traffic.
func (n *node) laneFor(m *proto.Message) *lane {
	if len(n.lanes) == 1 {
		return n.lanes[0]
	}
	switch m.Kind {
	case proto.KindAck:
		return n.laneForSeq(m.Seq)
	case proto.KindBatch:
		if m.Seq > 0 {
			return n.laneForSeq(m.Seq)
		}
		if len(m.Batch) > 0 && m.Batch[0] != nil {
			return n.laneFor(m.Batch[0])
		}
		return n.lanes[0]
	case proto.KindKeepAlive, proto.KindKeepAliveAck, proto.KindRootAnnounce:
		return n.lanes[0]
	}
	return n.laneForKey(m.Key)
}

// handler is the node's transport-facing inbox: it takes ownership of
// accepted messages (the owning lane releases them after handling) and
// refuses delivery — so the transport counts a drop — when the node is
// dead or the lane's inbox is full. Refusals also count toward
// Stats.InboxDrops, the saturation signal shared with the burst path.
func (n *node) handler() transport.Handler {
	return func(m *proto.Message) bool {
		if n.dead.Load() {
			n.nw.stats.inboxDrops.Add(1)
			return false
		}
		select {
		case n.laneFor(m).inbox <- m:
			return true
		default:
			n.nw.stats.inboxDrops.Add(1)
			return false
		}
	}
}

// burstHandler is the node's burst-dispatch inbox, registered alongside
// handler on transports that decode inbound frames in bursts (TCP). It
// owns every message in the burst: accepted ones route to their lane's
// inbox exactly like the per-message path, refused ones (dead node, full
// lane inbox) are released here and counted as Stats.InboxDrops — the
// transport is out of the loop, which is what keeps the hot path
// lock-free.
func (n *node) burstHandler() transport.BurstHandler {
	return func(ms []*proto.Message) {
		if n.dead.Load() {
			n.nw.stats.inboxDrops.Add(int64(len(ms)))
			for _, m := range ms {
				proto.Release(m)
			}
			return
		}
		for _, m := range ms {
			select {
			case n.laneFor(m).inbox <- m:
			default:
				n.nw.stats.inboxDrops.Add(1)
				proto.Release(m)
			}
		}
	}
}

// postCtrl delivers a control injection unless the lane is wedged.
func (l *lane) postCtrl(c ctrlMsg) bool {
	select {
	case l.ctrl <- c:
		return true
	default:
		return false
	}
}

// bcast fans a control injection out to every data lane; lane 0 calls it
// to apply node-level transitions (recovery, promotion, re-homing,
// departure) to the whole node. Best-effort like any postCtrl.
func (l *lane) bcast(c ctrlMsg) {
	for _, dl := range l.n.lanes[1:] {
		dl.postCtrl(c)
	}
}

// registerKey and unregisterKey maintain the node-wide key registry
// behind NodeInfo.Keys; shard ownership itself is per lane.
func (n *node) registerKey(key int) {
	n.keyMu.Lock()
	defer n.keyMu.Unlock()
	i := sort.SearchInts(n.allKeys, key)
	if i < len(n.allKeys) && n.allKeys[i] == key {
		return
	}
	n.allKeys = append(n.allKeys, 0)
	copy(n.allKeys[i+1:], n.allKeys[i:])
	n.allKeys[i] = key
}

func (n *node) unregisterKey(key int) {
	n.keyMu.Lock()
	defer n.keyMu.Unlock()
	i := sort.SearchInts(n.allKeys, key)
	if i < len(n.allKeys) && n.allKeys[i] == key {
		n.allKeys = append(n.allKeys[:i], n.allKeys[i+1:]...)
	}
}

// newMsg builds an outbound message; the transport owns it after Send.
func (l *lane) newMsg(kind proto.Kind, to int) *proto.Message {
	m := proto.NewMessage()
	m.Kind = kind
	m.To = to
	m.Origin = l.n.id
	return m
}

// shard returns the state for one keyed index tree, creating it on first
// touch: a push or request for a key this node has never seen makes it a
// participant in that key's tree.
func (l *lane) shard(key int) *shard {
	if sh := l.lookup(key); sh != nil {
		return sh
	}
	return l.addShard(key, time.Now())
}

func (l *lane) addShard(key int, now time.Time) *shard {
	root := l.n.isRoot.Load()
	sh := &shard{
		key:           key,
		st:            core.NewState(l.n.id, root),
		lastPushed:    -1,
		intervalStart: now,
		kc:            l.n.nw.kc(key),
	}
	if root {
		sh.auth.set(0, now.Add(l.n.nw.cfg.TTL).UnixNano())
		sh.root.Store(true)
	}
	i, _ := findShard(l.shards, key)
	l.publish(slices.Insert(slices.Clone(l.shards), i, sh))
	l.n.registerKey(key)
	return sh
}

// publish replaces the lane's shard slice, for the lane and for readers
// off it.
func (l *lane) publish(shards []*shard) {
	l.shards = shards
	l.index.Store(&shards)
}

// findShard binary-searches a key-sorted shard slice.
func findShard(shards []*shard, key int) (int, bool) {
	return slices.BinarySearchFunc(shards, key, func(sh *shard, key int) int { return cmp.Compare(sh.key, key) })
}

// lookup finds one keyed shard from any goroutine; nil when the lane does
// not hold the key.
func (l *lane) lookup(key int) *shard {
	if p := l.index.Load(); p != nil {
		if i, ok := findShard(*p, key); ok {
			return (*p)[i]
		}
	}
	return nil
}

// setRoot switches one shard between authority and inner-node serving.
// Callers bring auth (or cache) up to date first: a reader that sees the
// new role must find the copy that goes with it.
func (sh *shard) setRoot(root bool) {
	sh.st.SetRoot(root)
	sh.root.Store(root)
}

// dropShard removes one keyed shard (KeyHandle.Leave); key 0 never drops.
func (l *lane) dropShard(key int) {
	if key == 0 {
		return
	}
	if i, ok := findShard(l.shards, key); ok {
		l.publish(slices.Delete(slices.Clone(l.shards), i, i+1))
	}
	l.n.unregisterKey(key)
}

// getRel and putRel run the pooled retransmit-entry freelist.
func (l *lane) getRel() *relEntry {
	if n := len(l.relFree); n > 0 {
		e := l.relFree[n-1]
		l.relFree = l.relFree[:n-1]
		return e
	}
	return &relEntry{}
}

func (l *lane) putRel(e *relEntry) {
	*e = relEntry{}
	l.relFree = append(l.relFree, e)
}

// getRec and putRec run the pooled batch-record freelist; seqs keeps its
// capacity across reuses.
func (l *lane) getRec() *batchRec {
	if n := len(l.recFree); n > 0 {
		b := l.recFree[n-1]
		l.recFree = l.recFree[:n-1]
		return b
	}
	return &batchRec{}
}

func (l *lane) putRec(b *batchRec) {
	b.seqs = b.seqs[:0]
	b.deadline = time.Time{}
	l.recFree = append(l.recFree, b)
}

// send queues m for this loop iteration's flush, first registering
// reliable kinds for acknowledgement tracking so a lost message is
// retransmitted.
func (l *lane) send(m *proto.Message) {
	if m.To < 0 || m.To == l.n.id {
		proto.Release(m)
		return
	}
	if reliableKind(m.Kind) {
		l.track(m)
	}
	l.out(m)
}

// sendAll queues a replica group's outbound messages, which the caller
// appended to l.repOut[:0]. Their backing array becomes the next call's
// repOut, with the pointers cleared: the transport owns the messages now.
func (l *lane) sendAll(msgs []*proto.Message) {
	for _, m := range msgs {
		l.send(m)
	}
	clear(msgs)
	l.repOut = msgs[:0]
}

// out bins m by target for the end-of-iteration flush, keeping bins in
// first-touch order so flushing is deterministic.
func (l *lane) out(m *proto.Message) {
	bin, ok := l.obBins[m.To]
	if !ok || len(bin) == 0 {
		l.obOrder = append(l.obOrder, m.To)
	}
	l.obBins[m.To] = append(bin, m)
}

// flush drains the outbox: a lone message to a target goes out bare
// (byte-identical to the unbatched protocol, and kind-level fault
// injection still sees it); two or more are coalesced into one KindBatch
// envelope — one frame, one syscall, and when any member is reliable one
// envelope ack settles them all. Retransmissions never pass through here:
// tick re-sends them bare so they are individually acknowledged.
func (l *lane) flush() {
	for _, to := range l.obOrder {
		bin := l.obBins[to]
		for len(bin) > 0 {
			if len(bin) == 1 {
				l.n.nw.tr.Send(bin[0])
				bin = bin[1:]
				break
			}
			chunk := bin
			if len(chunk) > maxEnvelope {
				chunk = chunk[:maxEnvelope]
			}
			env := l.newMsg(proto.KindBatch, to)
			env.Batch = append(env.Batch, chunk...)
			var rec *batchRec
			for _, m := range chunk {
				if reliableKind(m.Kind) && m.Seq > 0 {
					if rec == nil {
						rec = l.getRec()
					}
					rec.seqs = append(rec.seqs, m.Seq)
				}
			}
			if rec != nil {
				l.relSeq += l.stride
				env.Seq = l.relSeq
				rec.deadline = time.Now().Add(l.n.nw.cfg.DeadAfter)
				l.batches[env.Seq] = rec
			}
			l.n.nw.tr.Send(env)
			bin = bin[len(chunk):]
		}
		l.obBins[to] = l.obBins[to][:0]
	}
	l.obOrder = l.obOrder[:0]
}

// track assigns m the next reliable sequence number and files a
// retransmit entry. The queue is bounded: at capacity the message still
// goes out once, untracked, counted as a give-up. A newer push to the
// same target and key supersedes any older unacked push to it — the
// receiver only wants the latest version anyway — but inherits the
// superseded entry's deadline: the clock measures how long the peer has
// gone without acking, and must not reset just because fresh versions
// keep coming.
func (l *lane) track(m *proto.Message) {
	now := time.Now()
	deadline := now.Add(l.n.nw.cfg.DeadAfter)
	if m.Kind == proto.KindPush {
		for seq, e := range l.unacked {
			if e.kind == proto.KindPush && e.to == m.To && e.key == m.Key {
				if e.deadline.Before(deadline) {
					deadline = e.deadline
				}
				// The superseded push will never be acked through no fault of
				// the peer's; take it back out of the reliability denominator
				// so a healthy stream of fresh versions does not read as loss.
				if e.ps != nil {
					e.ps.sent.Add(-1)
				}
				delete(l.unacked, seq)
				l.putRel(e)
			}
		}
	}
	if len(l.unacked) >= maxUnacked {
		l.n.nw.stats.giveUps.Add(1)
		return
	}
	l.relSeq += l.stride
	m.Seq = l.relSeq
	backoff := l.n.nw.cfg.KeepAliveEvery
	e := l.getRel()
	e.kind = m.Kind
	e.to = m.To
	e.subject, e.old, e.new = m.Subject, m.Old, m.New
	e.key = m.Key
	e.version, e.expiry = m.Version, m.Expiry
	e.retryAt = now.Add(backoff)
	e.deadline = deadline
	e.backoff = backoff
	e.sentAt = now
	e.ps = l.n.peerStatFor(m.To)
	e.ps.sent.Add(1)
	l.unacked[l.relSeq] = e
}

// nsToUnix and unixToNs convert between the unix nanoseconds a copyCell
// keeps and the float64 unix seconds that cross the wire; zero (no
// expiry) maps to zero both ways. nsToTime is the NodeInfo form.
func nsToUnix(ns int64) float64 { return float64(ns) / 1e9 }

func unixToNs(f float64) int64 { return int64(f * 1e9) }

func nsToTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// run is one lane's goroutine body. Lane 0 additionally runs the
// node-level fabric: the initial join announcement, keep-alives and
// failure detection happen there.
func (l *lane) run() {
	n := l.n
	defer n.nw.wg.Done()
	now := time.Now()
	if l.idx == 0 {
		n.sawParentAck(now)
		// The root-path clock starts fresh: a joiner has not missed any
		// beacons yet.
		n.rootSeqAtV.Store(now.UnixNano())
	}
	for _, sh := range l.shards {
		sh.intervalStart = now
		// A recovered authority enters with its pre-crash version already
		// adopted; only a genuinely fresh root starts the schedule at zero.
		if _, exp := sh.auth.load(); n.isRoot.Load() && exp == 0 {
			sh.auth.set(0, now.Add(n.nw.cfg.TTL).UnixNano())
		}
	}
	if l.idx == 0 && n.announce {
		n.announce = false
		l.sendJoin()
	}
	if l.idx == 0 && n.isRoot.Load() {
		if g := n.rep.Load(); g != nil {
			// A fresh cluster's boot root leads term 1 outright (there is
			// nothing to floor above); a root resuming a recovered log
			// re-runs the quorum promise round so its floors rise above
			// every version any quorum ever accepted.
			if g.Term() == 0 {
				g.BootLeader()
			} else if !g.Leading() {
				l.sendAll(g.AppendStartCandidate(l.repOut[:0], now))
			}
		}
	}
	l.record()
	l.flush()
	tick := time.NewTicker(n.nw.cfg.KeepAliveEvery)
	defer tick.Stop()
	for {
		select {
		case <-n.quit:
			l.drain()
			return
		case m := <-l.inbox:
			if n.dead.Load() {
				proto.Release(m) // raced in just before death
				continue
			}
			l.handleMsg(m, false)
			// Opportunistic batch drain: one wakeup handles whatever else
			// the inbox already holds (bounded by drainBatch), so the
			// select, the journal record and the outbox flush amortize
			// across the burst — the receive-side mirror of the writer's
			// gather. Bounded so ctrl injections and ticks stay live under
			// sustained inbound load.
			batch := 1
		drain:
			for batch < drainBatch {
				select {
				case m := <-l.inbox:
					if n.dead.Load() {
						proto.Release(m)
						break drain
					}
					l.handleMsg(m, false)
					batch++
				default:
					break drain
				}
			}
			l.observeBurst(int64(batch))
			l.record()
		case c := <-l.ctrl:
			l.control(c)
			l.record()
		case <-tick.C:
			if !n.dead.Load() {
				l.tick(time.Now())
				l.record()
			}
		}
		l.flush()
	}
}

// observeBurst folds one wakeup's drained batch size into the network's
// inbox-pressure counters behind Stats.InboxBurstMax / InboxBurstMean.
func (l *lane) observeBurst(batch int64) {
	s := &l.n.nw.stats
	s.burstSum.Add(batch)
	s.burstN.Add(1)
	for {
		cur := s.burstMax.Load()
		if batch <= cur || s.burstMax.CompareAndSwap(cur, batch) {
			return
		}
	}
}

// stop closes the quit channel exactly once: Leave and Network.Stop can
// race to shut the same node down. Every lane watches it.
func (n *node) stop() {
	n.stopOnce.Do(func() { close(n.quit) })
}

// tick runs one lane's periodic work: the authority refresh schedule and
// interest-loss policy for the lane's shards, retransmits for its
// reliable queue — plus, on lane 0 only, keep-alives with parent-death
// detection, child-death detection and suspicion expiry. Data lanes flush
// their peer-observation digest to lane 0 instead.
func (l *lane) tick(now time.Time) {
	n := l.n
	cfg := n.nw.cfg
	if n.isRoot.Load() {
		rep := n.rep.Load()
		for _, sh := range l.shards {
			version, expiry := sh.auth.load()
			if now.UnixNano() > expiry-int64(cfg.Lead) {
				next, exp := version+1, now.Add(cfg.TTL).UnixNano()
				if rep != nil {
					// Quorum gate: the bump goes through the replicated
					// log — it may stall (no lease yet, or the reserve
					// ahead of quorum acknowledgement is exhausted), in
					// which case the old version keeps serving until its
					// expiry and the next tick retries; and it may jump
					// (a fail-over floor), which the stream adopts.
					v, msgs, ok := rep.AppendBump(l.repOut[:0], sh.key, next, nsToUnix(exp), now)
					l.sendAll(msgs)
					if !ok {
						continue
					}
					next = v
				}
				sh.auth.set(next, exp)
				l.pushOut(sh, next, exp)
			}
		}
	} else if l.idx == 0 {
		// Keep-alive to the parent, suppressed while acks are flowing: any
		// ack from the parent — on any lane — is liveness proof as good as
		// a keep-alive ack, so a busy link carries no keep-alive frames at
		// all. Declare the parent dead after the timeout as before.
		parent := n.parent()
		last := n.lastAck()
		if parent >= 0 && now.Sub(last) >= cfg.KeepAliveEvery {
			n.nw.stats.keepAlive.Add(1)
			l.send(l.newMsg(proto.KindKeepAlive, parent))
		}
		if now.Sub(last) > cfg.DeadAfter {
			l.parentDied(now)
		}
	}
	if l.idx == 0 {
		// Soft-state tree: a root originates its sequence beacon; an inner
		// node whose root sequence stopped advancing for a full expiry —
		// its parent is alive (keep-alive acks flow) but the path above it
		// has gone stale — re-homes under the best-scored alternative.
		if cfg.announceOn() && !n.leaving {
			if n.isRoot.Load() {
				l.announceRoot(now)
			} else if n.parent() >= 0 &&
				now.Sub(time.Unix(0, n.rootSeqAtV.Load())) > cfg.rootExpireAfter() {
				l.expireRootPath(now)
			}
		}
		// Replica-group periodic work: lease renewal and anti-entropy for
		// a leader, prepare retransmission for a candidate, commit
		// watermarks. Followers return nothing. A directory-promoted root
		// first reconciles its role against the quorum: if someone else
		// provably holds the lease it abdicates and re-homes under them
		// (multi-process fail-over can promote one root per process — the
		// quorum picks the survivor); if its own leadership went stale it
		// re-elects rather than serving nothing forever.
		if g := n.rep.Load(); g != nil {
			if n.isRoot.Load() {
				if to, ok := g.LeaseHolder(now); ok && to != n.id && !n.suspected(to) {
					l.abdicate(to, now)
				} else if g.StaleLeader(now) {
					l.sendAll(g.AppendStartCandidate(l.repOut[:0], now))
				}
			}
			l.sendAll(g.AppendTick(l.repOut[:0], now))
			// Permanent-failure horizon: a member silent past PermanentAfter
			// (well beyond DeadAfter's restartable suspicion) is gone for
			// good — the leaseholder heals the quorum by replacing it with a
			// directory member through the two-phase reconfiguration.
			if cfg.PermanentAfter > 0 && g.Leading() && !g.ReconfigInFlight() {
				if dead := g.DeadMembers(now, cfg.PermanentAfter); len(dead) > 0 {
					if repl := n.pickReplacement(g, dead); repl >= 0 {
						msgs, _ := g.AppendProposeReplace(l.repOut[:0], dead[0], repl, now)
						l.sendAll(msgs)
					}
				}
			}
		}
		// Child-death detection (case 2: the upstream virtual-path
		// neighbour notices and clears the path) — across every keyed tree,
		// so the splice fans out to the data lanes.
		for child, seen := range n.childSeen {
			if now.Sub(seen) > cfg.DeadAfter {
				delete(n.childSeen, child)
				l.unsubscribePeer(child)
				l.bcast(ctrlMsg{kind: cUnsubPeer, peer: child})
			}
		}
		// Forget old suspicions so a recovered peer becomes routable again.
		for id, when := range n.suspects {
			if now.Sub(when) > 4*cfg.DeadAfter {
				delete(n.suspects, id)
			}
		}
	} else if len(l.seenPeers) > 0 {
		peers := make([]int, 0, len(l.seenPeers))
		for p := range l.seenPeers {
			peers = append(peers, p)
		}
		clear(l.seenPeers)
		n.lanes[0].postCtrl(ctrlMsg{kind: cAlive, peers: peers})
	}
	// Retransmit unacknowledged reliable messages with doubling backoff;
	// at the deadline give up and escalate exactly like a keep-alive miss.
	// Retransmissions go out bare (not through the coalescer) so the
	// receiver acks them individually.
	for seq, e := range l.unacked {
		if now.After(e.deadline) {
			delete(l.unacked, seq)
			n.nw.stats.giveUps.Add(1)
			to := e.to
			l.putRel(e)
			l.escalate(to, now)
			continue
		}
		if now.After(e.retryAt) {
			e.backoff *= 2
			if limit := 8 * cfg.KeepAliveEvery; e.backoff > limit {
				e.backoff = limit
			}
			e.retryAt = now.Add(e.backoff)
			n.nw.stats.retransmits.Add(1)
			n.nw.stats.retransmitsByKind[e.kind].Add(1)
			m := l.newMsg(e.kind, e.to)
			m.Seq = seq
			m.Subject, m.Old, m.New = e.subject, e.old, e.new
			m.Key = e.key
			m.Version, m.Expiry = e.version, e.expiry
			n.nw.tr.Send(m)
		}
	}
	// Settled or abandoned batch envelopes.
	for seq, b := range l.batches {
		if now.After(b.deadline) {
			delete(l.batches, seq)
			l.putRec(b)
		}
	}
	// Abandoned queries: the caller timed out long ago.
	for seq, p := range l.pending {
		if now.After(p.expires) {
			delete(l.pending, seq)
		}
	}
	// Interval boundary per key: interest loss (Figure 3 D).
	for _, sh := range l.shards {
		if now.Sub(sh.intervalStart) >= cfg.TTL {
			if count := sh.count.Swap(0); sh.st.Interested() && count <= int64(cfg.Threshold) {
				l.emit(sh, sh.st.AppendLoseInterest(l.acts[:0]))
			}
			sh.intervalStart = now
		}
	}
	l.maybeFinishLeave()
}

// suspected is the node's local failure-detector verdict, consulted by the
// directory when picking a replacement ancestor (on lane 0's goroutine).
func (n *node) suspected(id int) bool {
	_, ok := n.suspects[id]
	return ok
}

// pickReplacement chooses the replica-set replacement for a permanently
// dead member: the lowest-id directory member that is not already in the
// set, not this node (a leader cannot state-transfer to itself), not
// locally suspected and not itself on the dead list. -1 when the
// directory has nobody to offer.
func (n *node) pickReplacement(g *replica.Group, dead []int) int {
	members := g.Members()
	in := func(set []int, id int) bool {
		for _, m := range set {
			if m == id {
				return true
			}
		}
		return false
	}
	roster := n.nw.Members()
	sort.Ints(roster)
	for _, id := range roster {
		if id == n.id || in(members, id) || in(dead, id) || n.suspected(id) {
			continue
		}
		return id
	}
	return -1
}

// unsubscribePeer clears a dead or departed peer out of every keyed tree
// it subscribed to on this lane.
func (l *lane) unsubscribePeer(id int) {
	for _, sh := range l.shards {
		if sh.st.Contains(id) {
			l.emit(sh, sh.st.AppendHandleUnsubscribe(l.acts[:0], id))
		}
	}
}

// escalate reacts to a peer that stopped acknowledging reliable
// messages: treat it exactly like a keep-alive miss. On lane 0 that runs
// the full repair (a dead parent re-homes the node, cases 3/4/5; a dead
// DUP-tree neighbour is unsubscribed, case 2). A data lane splices the
// peer out of its own shards and reports the suspicion to lane 0, which
// owns the node-level verdict.
func (l *lane) escalate(to int, now time.Time) {
	n := l.n
	if l.idx != 0 {
		l.unsubscribePeer(to)
		n.lanes[0].postCtrl(ctrlMsg{kind: cSuspect, peer: to})
		return
	}
	n.suspects[to] = now
	if to == n.parent() {
		l.parentDied(now)
		return
	}
	delete(n.childSeen, to)
	l.unsubscribePeer(to)
	l.bcast(ctrlMsg{kind: cUnsubPeer, peer: to})
}

// onSuspect is lane 0's half of a data lane's escalation.
func (l *lane) onSuspect(peer int, now time.Time) {
	n := l.n
	n.suspects[peer] = now
	if peer == n.parent() {
		l.parentDied(now)
		return
	}
	delete(n.childSeen, peer)
	l.unsubscribePeer(peer)
	l.bcast(ctrlMsg{kind: cUnsubPeer, peer: peer})
}

// parentDied repairs after a keep-alive timeout (lane 0): re-home under
// the nearest believed-alive ancestor (the underlying DHT's routing
// repair), re-announce any virtual path per keyed tree (cases 3/4), or
// take over as authority when no root is left (case 5). Data lanes follow
// through cReparent or cRootLane.
func (l *lane) parentDied(now time.Time) {
	n := l.n
	n.sawParentAck(now) // do not re-trigger while repairing
	// A keep-alive repair restarts the soft-state clock too: the new
	// parent gets a full expiry to prove its path before beacons are due.
	n.rootSeqAtV.Store(now.UnixNano())
	old := n.parent()
	if old >= 0 {
		n.suspects[old] = now
		// Abandon reliable messages aimed at the dead parent: re-homing
		// re-announces the virtual path, which supersedes them.
		l.dropUnackedTo(old)
	}
	newParent := n.nw.dir.AliveAncestor(n.id, n.suspected)
	if newParent == -1 || newParent == n.id {
		if n.nw.dir.Promote(n.id) {
			l.becomeRoot(now, old)
		}
		return
	}
	n.setParent(newParent)
	n.nw.dir.SetParent(n.id, newParent)
	l.reannounce(newParent)
	l.bcast(ctrlMsg{kind: cReparent, parent: newParent, peer: old})
}

// dropUnackedTo abandons every reliable message queued for one peer.
func (l *lane) dropUnackedTo(to int) {
	for seq, e := range l.unacked {
		if e.to == to {
			delete(l.unacked, seq)
			l.putRel(e)
		}
	}
}

// reannounce re-subscribes this lane's virtual paths under a new parent.
func (l *lane) reannounce(parent int) {
	if parent < 0 {
		return
	}
	for _, sh := range l.shards {
		if sh.st.OnVirtualPath() {
			l.n.nw.stats.subscribes.Add(1)
			sh.kc.subscribes.Add(1)
			m := l.newMsg(proto.KindSubscribe, parent)
			m.Key = sh.key
			m.Subject = sh.st.Representative()
			l.send(m)
		}
	}
}

// onReparent is a data lane's half of re-homing: lane 0 already updated
// the parent atomically, so drop the queue aimed at the old parent and
// re-announce this lane's virtual paths to the new one.
func (l *lane) onReparent(parent, old int) {
	if old >= 0 {
		l.dropUnackedTo(old)
	}
	l.reannounce(parent)
}

// announceRoot originates the root's soft-state beacon (lane 0): bump
// the root sequence and flood it to every keep-alive child. A replicated
// authority draws the sequence from its quorum group — term in the high
// bits, so it resumes strictly above every predecessor's — and only
// while it provably leads: a deposed or partitioned root falls silent,
// which is exactly what lets its old subtree's paths expire over to the
// live leader. A promoted non-replicated root continues one past the
// highest sequence it ever observed, keeping the stream monotone.
func (l *lane) announceRoot(now time.Time) {
	n := l.n
	if now.Sub(n.lastAnnounce) < n.nw.cfg.RootAnnounceEvery {
		return
	}
	seq := n.rootSeqV.Load() + 1
	if g := n.rep.Load(); g != nil {
		s, ok := g.NextAnnounce(now)
		if !ok {
			return // no live lease: stay silent
		}
		if s > seq {
			seq = s
		}
	}
	n.lastAnnounce = now
	n.rootSeqV.Store(seq)
	n.rootSeqAtV.Store(now.UnixNano())
	for child := range n.childSeen {
		l.sendBeacon(child, n.id, seq)
	}
}

// sendBeacon emits one root-announce frame. Best-effort by design: a
// lost beacon is refreshed by the next one, so beacons never enter the
// reliable queue.
func (l *lane) sendBeacon(to, root int, seq int64) {
	l.n.nw.stats.rootAnnounces.Add(1)
	m := l.newMsg(proto.KindRootAnnounce, to)
	m.Subject = root
	m.Seq = seq
	l.send(m)
}

// onRootAnnounce ingests a root-sequence beacon (lane 0). Any beacon
// refreshes the forwarding neighbour's freshness stat — proof it has a
// live path to the root, scored at selection time — but only a strictly
// newer sequence arriving from the current parent advances this node's
// own root path and propagates down: beacons from other neighbours must
// not keep a stale parent's path looking fresh.
func (l *lane) onRootAnnounce(m *proto.Message, now time.Time) {
	n := l.n
	if !n.nw.cfg.announceOn() || n.isRoot.Load() {
		return
	}
	n.peerStatFor(m.Origin).beaconAt.Store(now.UnixNano())
	if m.Origin != n.parent() || m.Seq <= n.rootSeqV.Load() {
		return
	}
	n.rootSeqV.Store(m.Seq)
	n.rootSeqAtV.Store(now.UnixNano())
	for child := range n.childSeen {
		if child != m.Origin {
			l.sendBeacon(child, m.Subject, m.Seq)
		}
	}
}

// expireRootPath repairs a root path whose sequence stopped advancing
// (lane 0): the parent still acks — it is alive — but everything above
// it has gone stale (an upstream partition, a deposed authority still
// chattering). Re-home under the best-scored alternative ancestor. The
// old parent is NOT suspected: the keep-alive detector (DeadAfter <
// RootExpireAfter by Validate) already had first claim on a truly dead
// one, and a merely-stale parent must stay routable for its own subtree.
func (l *lane) expireRootPath(now time.Time) {
	n := l.n
	old := n.parent()
	// Restart the expiry clock whatever happens below: with no better
	// candidate the node keeps its parent and re-evaluates one expiry
	// later.
	n.rootSeqAtV.Store(now.UnixNano())
	best := n.selectParent(old, now)
	if best < 0 || best == old {
		return
	}
	n.nw.stats.rootExpiries.Add(1)
	// Reliable traffic aimed at the stale parent is abandoned: re-homing
	// re-announces the virtual paths, which supersedes it.
	l.dropUnackedTo(old)
	n.setParent(best)
	n.nw.dir.SetParent(n.id, best)
	n.sawParentAck(now) // fresh keep-alive clock for the new parent
	l.reannounce(best)
	l.bcast(ctrlMsg{kind: cReparent, parent: best, peer: old})
}

// selectParent picks the replacement parent for an expired root path:
// walk the stale parent's ancestor chain (nearest first) plus the
// designated authority, skipping self, the stale parent and suspects,
// and keep the highest-scoring candidate. The strictly-greater
// comparison keeps ties on the nearest ancestor, so a chain with no
// observed history degrades to exactly the AliveAncestor choice.
func (n *node) selectParent(old int, now time.Time) int {
	best, bestScore := -1, 0.0
	consider := func(id int) {
		if id < 0 || id == n.id || id == old || n.suspected(id) {
			return
		}
		if s := n.scorePeer(id, now); best < 0 || s > bestScore {
			best, bestScore = id, s
		}
	}
	maxHops := n.nw.cfg.Nodes
	if maxHops <= 0 {
		maxHops = 1 << 12 // preset-tree configs leave Nodes unset
	}
	p := n.nw.dir.Parent(old)
	for hops := 0; p >= 0 && hops < maxHops; hops++ {
		consider(p)
		p = n.nw.dir.Parent(p)
	}
	consider(n.nw.dir.RootID())
	return best
}

// scorePeer ranks one candidate parent by observed delivery quality:
// ack reliability (with a +1 optimistic prior so a quiet neighbour is
// not punished for silence), smoothed ack latency normalised against the
// keep-alive period, and a freshness boost — up to 2x — for neighbours
// whose beacons arrived recently. An entirely unobserved candidate
// scores the neutral 1.0: better than a proven-lossy peer, worse than a
// proven-fresh one.
func (n *node) scorePeer(id int, now time.Time) float64 {
	ps := n.peerView(id)
	if ps == nil {
		return 1.0
	}
	sent, acked := ps.sent.Load(), ps.acked.Load()
	rel := float64(acked+1) / float64(sent+1)
	if rel > 1 {
		rel = 1
	}
	lat := 1.0
	if srtt := ps.srttNs.Load(); srtt > 0 {
		ka := float64(n.nw.cfg.KeepAliveEvery.Nanoseconds())
		lat = ka / (ka + float64(srtt))
	}
	fresh := 1.0
	if at := ps.beaconAt.Load(); at > 0 {
		age := float64(now.UnixNano() - at)
		if age < 0 {
			age = 0
		}
		exp := float64(n.nw.cfg.rootExpireAfter().Nanoseconds())
		fresh = 1 + exp/(exp+age)
	}
	return rel * lat * fresh
}

// becomeRoot is case 5 (lane 0): this node takes over the failed
// authority's indexes (every key, every lane) with refreshed information
// and resumes update propagation.
func (l *lane) becomeRoot(now time.Time, old int) {
	n := l.n
	n.setParent(-1)
	n.nw.dir.SetParent(n.id, -1)
	n.isRoot.Store(true)
	if n.nw.cfg.replicas() > 1 {
		// The new authority must win a quorum promise round before it may
		// expose versions: promotion floors its streams above everything
		// any quorum ever accepted. Replica-set members carry their group
		// from birth; a promoted outsider builds one here and leads from
		// outside the set (its quorum counts purely among the members).
		g := n.rep.Load()
		if g == nil {
			g = replica.New(n.replicaConfig())
			n.rep.Store(g)
		}
		if !g.Leading() {
			l.sendAll(g.AppendStartCandidate(l.repOut[:0], now))
		}
	}
	l.rootLane(now, old)
	l.bcast(ctrlMsg{kind: cRootLane, peer: old})
}

// abdicate is fail-over's losing side (lane 0): this directory-promoted
// root lost the quorum race — the replica group proved a live lease held
// by someone else — so it re-homes under the true leaseholder and goes
// back to being an inner node. Its subtree keeps resolving through it:
// whatever it exposed during its own brief lease survives as a cached
// copy, and the winner's floored stream re-enters through the renewed
// subscription.
func (l *lane) abdicate(to int, now time.Time) {
	n := l.n
	if g := n.rep.Load(); g != nil {
		// The abandoned candidacy must not keep escalating terms against
		// the leader this node is about to adopt.
		g.StandDown()
	}
	n.isRoot.Store(false)
	n.setParent(to)
	n.nw.dir.SetParent(n.id, to)
	n.sawParentAck(now) // fresh keep-alive clock for the new parent
	n.rootSeqAtV.Store(now.UnixNano())
	delete(n.suspects, to)
	l.abdicateLane(to, now)
	l.bcast(ctrlMsg{kind: cAbdicate, parent: to})
}

// abdicateLane applies an abdication to one lane's shards: back to inner-
// node serving, with the lost candidacy's exposures preserved as cached
// copies (per-site monotonicity: this node may never again resolve below
// a version it served as root).
func (l *lane) abdicateLane(parent int, now time.Time) {
	for _, sh := range l.shards {
		if v, exp := sh.auth.load(); v > sh.cache.ver.Load() {
			sh.cache.set(v, exp)
			sh.haveCopy = true
		}
		sh.setRoot(false)
	}
	l.reannounce(parent)
}

// rootLane applies a promotion to one lane's shards: refresh every
// version past any cached copy and push. old (when >= 0) is the dead
// parent whose queued messages are abandoned.
func (l *lane) rootLane(now time.Time, old int) {
	if old >= 0 {
		l.dropUnackedTo(old)
	}
	rep := l.n.rep.Load()
	for _, sh := range l.shards {
		version := max(sh.auth.ver.Load(), sh.cache.ver.Load())
		if rep != nil {
			// Nothing is exposed or pushed yet: the expired schedule makes
			// the next tick bump through the replicated log, which floors
			// the stream above every version the old authority could have
			// served — the cached version is only a lower-bound hint.
			sh.auth.set(version, now.UnixNano())
			sh.setRoot(true)
			continue
		}
		exp := now.Add(l.n.nw.cfg.TTL).UnixNano()
		sh.auth.set(version+1, exp)
		sh.setRoot(true)
		l.pushOut(sh, version+1, exp)
	}
}

// control processes one local injection.
func (l *lane) control(c ctrlMsg) {
	switch c.kind {
	case cQuery:
		l.localQuery(c)
	case cReset:
		l.reset(c.parent)
	case cBecomeRoot:
		l.becomeRoot(time.Now(), -1)
	case cInspect:
		c.w.info = l.info(c.key)
		c.w.complete()
	case cLeave:
		l.beginLeave(c)
	case cReboot:
		l.reboot(c.states)
	case cJoinKey:
		l.joinKey(c.key)
	case cLeaveKey:
		l.leaveKey(c.key)
	case cResetLane:
		l.resetLane()
	case cRootLane:
		l.rootLane(time.Now(), c.peer)
	case cAbdicate:
		l.abdicateLane(c.parent, time.Now())
	case cReparent:
		l.onReparent(c.parent, c.peer)
	case cAdoptLane:
		l.adoptLane(c.states, c.asRoot)
	case cLaneLeave:
		l.leaving = true
		l.leaveAnnounce()
		l.maybeFinishLeave()
	case cPeerJoin:
		l.onPeerJoin(c.peer)
	case cUnsubPeer:
		l.unsubscribePeer(c.peer)
	case cSuspect:
		l.onSuspect(c.peer, time.Now())
	case cAlive:
		now := time.Now()
		for _, p := range c.peers {
			if _, ok := l.n.childSeen[p]; ok {
				l.n.childSeen[p] = now
			}
		}
	}
}

// info snapshots one keyed shard's protocol state for Network.Inspect.
// Unacked counts the inspected key's lane only: each lane runs its own
// reliable queue, and with ShardLoops == 1 (the default) that is the
// whole node. Keys, Subscribers and PushTargets share one allocation,
// handed out as capacity-clipped sub-slices so appending to one can never
// write into the next.
func (l *lane) info(key int) NodeInfo {
	n := l.n
	in := NodeInfo{
		ID:      n.id,
		Key:     key,
		Parent:  n.parent(),
		IsRoot:  n.isRoot.Load(),
		Dead:    n.dead.Load(),
		Unacked: len(l.unacked),
	}
	if n.nw.cfg.announceOn() {
		in.RootSeq = n.rootSeqV.Load()
		if at := n.rootSeqAtV.Load(); at > 0 {
			in.RootSeqAge = time.Since(time.Unix(0, at))
		}
	}
	sh := l.lookup(key)
	subs := 0
	if sh != nil {
		subs = sh.st.Len()
	}
	n.keyMu.Lock()
	buf := make([]int, 0, len(n.allKeys)+2*subs)
	buf = append(buf, n.allKeys...)
	n.keyMu.Unlock()
	in.Keys = buf[:len(buf):len(buf)]
	if sh == nil {
		return in
	}
	in.Interested = sh.st.Interested()
	mark := len(buf)
	buf = sh.st.AppendSubscribers(buf)
	in.Subscribers = buf[mark:len(buf):len(buf)]
	mark = len(buf)
	buf = sh.st.AppendPushTargets(buf)
	in.PushTargets = buf[mark:len(buf):len(buf)]
	if in.IsRoot {
		v, exp := sh.auth.load()
		in.HaveCopy, in.Version, in.Expiry = true, v, nsToTime(exp)
	} else if sh.haveCopy {
		v, exp := sh.cache.load()
		in.HaveCopy, in.Version, in.Expiry = true, v, nsToTime(exp)
	}
	return in
}

// drain releases whatever is still parked in one lane's inbox or
// unflushed outbox; called on the lane goroutine at quit and again by
// Stop after the goroutine exits (a handler may have raced one last
// message in).
func (l *lane) drain() {
	for _, to := range l.obOrder {
		for _, m := range l.obBins[to] {
			proto.Release(m)
		}
		l.obBins[to] = l.obBins[to][:0]
	}
	l.obOrder = l.obOrder[:0]
	for {
		select {
		case m := <-l.inbox:
			proto.Release(m)
		default:
			return
		}
	}
}

// drain drains every lane; Network.Stop calls it after the goroutines
// have exited.
func (n *node) drain() {
	for _, l := range n.lanes {
		l.drain()
	}
}

// handleMsg processes one protocol message; batched members skip the
// individual acknowledgement (the envelope was acked once for all of
// them) but still pass the dedup window. Each case either forwards m
// (ownership moves back to the transport) or falls through to the final
// Release.
func (l *lane) handleMsg(m *proto.Message, batched bool) {
	n := l.n
	if m.Kind == proto.KindBatch {
		if batched {
			proto.Release(m) // envelopes never nest
			return
		}
		l.onBatch(m)
		return
	}
	// Any message from a known keep-alive child proves it alive, which is
	// what lets busy children suppress their keep-alive frames entirely.
	// Lane 0 owns childSeen; data lanes accumulate origins and digest them
	// to lane 0 each tick.
	if l.idx == 0 {
		if _, ok := n.childSeen[m.Origin]; ok {
			n.childSeen[m.Origin] = time.Now()
		}
	} else {
		l.seenPeers[m.Origin] = struct{}{}
	}
	if m.Kind == proto.KindAck {
		l.onAck(m)
		proto.Release(m)
		return
	}
	// Reliable kinds with a seq are acknowledged; duplicates (a
	// retransmission whose original got through, or a transport-level
	// copy) are re-acked — the first ack may have been the loss — and
	// absorbed without touching protocol state. A node-level KindJoin is
	// the exception: it marks a new incarnation of the origin, whose
	// clock-seeded seq stream could overlap the previous incarnation's
	// window if its clock lags, so it is processed regardless (onJoin is
	// idempotent) and resets the origin's window.
	if reliableKind(m.Kind) && m.Seq > 0 {
		nodeJoin := m.Kind == proto.KindJoin && m.Key == 0
		if l.dedup(m.Origin, m.Seq) && !nodeJoin {
			n.nw.stats.dups.Add(1)
			n.nw.stats.dupsByKind[m.Kind].Add(1)
			if !batched {
				l.ackTo(m)
			}
			proto.Release(m)
			return
		}
		if !batched {
			l.ackTo(m)
		}
	}
	if replicaKind(m.Kind) {
		// Quorum-protocol traffic steps the replica group directly; the
		// Group is internally synchronised, so whichever lane the keyed
		// routing delivered to may step it. Nodes with no group (outside
		// the replica set, never promoted) drop the frame — except a
		// reconfiguration or state-transfer frame addressed to this node,
		// which is the leaseholder recruiting it as a replacement member:
		// that builds a learner group on the spot, which then adopts the
		// real member set and epoch from the frames themselves.
		g := n.rep.Load()
		if g == nil && n.nw.cfg.replicas() > 1 && m.To == n.id &&
			(m.Kind == proto.KindReconfig || m.Kind == proto.KindStateXfer) {
			fresh := replica.New(n.replicaConfig())
			if !n.rep.CompareAndSwap(nil, fresh) {
				fresh = n.rep.Load()
			}
			g = fresh
		}
		if g != nil {
			l.sendAll(g.AppendStep(l.repOut[:0], m, time.Now()))
		}
		proto.Release(m)
		return
	}
	switch m.Kind {
	case proto.KindRequest:
		l.onRequest(m)
		return
	case proto.KindReply:
		l.onReply(m)
		return
	case proto.KindPush:
		l.onPush(m)
	case proto.KindSubscribe:
		sh := l.shard(m.Key)
		l.emit(sh, sh.st.AppendHandleSubscribe(l.acts[:0], m.Subject))
	case proto.KindUnsubscribe:
		sh := l.shard(m.Key)
		l.emit(sh, sh.st.AppendHandleUnsubscribe(l.acts[:0], m.Subject))
	case proto.KindSubstitute:
		sh := l.shard(m.Key)
		l.emit(sh, sh.st.AppendHandleSubstitute(l.acts[:0], m.Old, m.New))
	case proto.KindKeepAlive:
		n.childSeen[m.Origin] = time.Now()
		l.send(l.newMsg(proto.KindKeepAliveAck, m.Origin))
	case proto.KindKeepAliveAck:
		n.sawParentAck(time.Now())
		delete(n.suspects, m.Origin)
	case proto.KindRootAnnounce:
		if l.idx == 0 {
			l.onRootAnnounce(m, time.Now())
		}
	case proto.KindJoin:
		l.onJoin(m)
	case proto.KindLeave:
		l.onLeave(m)
	case proto.KindState:
		sh := l.shard(m.Key)
		l.storeIn(sh, m.Version, unixToNs(m.Expiry))
	}
	proto.Release(m)
}

// onBatch unpacks a coalescing envelope: acknowledge the envelope once
// (settling every reliable member at the sender), then process the
// members in order. Members are detached before the envelope is released
// so the pooled envelope cannot take them down with it. Routing by the
// envelope's strided seq (or its first member) delivered it to the lane
// that owns every member.
func (l *lane) onBatch(m *proto.Message) {
	if m.Seq > 0 {
		a := l.newMsg(proto.KindAck, m.Origin)
		a.Seq = m.Seq
		a.Subject = int(proto.KindBatch)
		l.send(a)
	}
	subs := m.Batch
	m.Batch = m.Batch[:0]
	for i, sub := range subs {
		subs[i] = nil
		if sub != nil {
			l.handleMsg(sub, true)
		}
	}
	proto.Release(m)
}

// onJoin adopts a joining (or recovering) child into the keep-alive
// fabric and answers with best-effort state transfers, so the joiner
// holds servable index copies without waiting out a TTL of misses. A
// node-level join (key 0, always lane 0) resets the origin's incarnation
// and transfers every key's state — the data lanes theirs via cPeerJoin;
// a key-scoped join transfers just that key.
func (l *lane) onJoin(m *proto.Message) {
	now := time.Now()
	n := l.n
	if l.idx == 0 {
		n.childSeen[m.Origin] = now
		delete(n.suspects, m.Origin)
	}
	if m.Key != 0 {
		if sh := l.lookup(m.Key); sh != nil {
			l.transferState(sh, m.Origin, now)
		}
		return
	}
	// A join starts the origin's incarnation afresh: drop the dedup window
	// its predecessor filled, so the newcomer's messages can never be
	// absorbed as duplicates of messages it never sent.
	delete(l.seen, m.Origin)
	for _, sh := range l.shards {
		l.transferState(sh, m.Origin, now)
	}
	l.bcast(ctrlMsg{kind: cPeerJoin, peer: m.Origin})
}

// onPeerJoin is a data lane's half of a node-level join: reset the
// peer's dedup window for this lane's seq stream and transfer this
// lane's keys.
func (l *lane) onPeerJoin(peer int) {
	now := time.Now()
	delete(l.seen, peer)
	for _, sh := range l.shards {
		l.transferState(sh, peer, now)
	}
}

// transferState sends one key's valid index copy to a joiner.
func (l *lane) transferState(sh *shard, to int, now time.Time) {
	v, exp, ok := l.valid(sh, now)
	if !ok {
		return
	}
	s := l.newMsg(proto.KindState, to)
	s.Key = sh.key
	s.Version = v
	s.Expiry = nsToUnix(exp)
	l.send(s)
}

// onLeave handles a peer's departure announcement. A key-scoped leave
// splices the departing node out of that key's subscriber list only —
// substitute its remaining representative (Figure 3 C) or unsubscribe the
// branch (Figure 3 E). A node-level leave (key 0, always lane 0)
// additionally retires the origin from the keep-alive fabric; from the
// parent it triggers immediate re-homing — the same repair a keep-alive
// death would cause, minus the detection delay. A departing multi-key
// node sends one leave per key, key 0 last, so the per-key splices land
// before the node-level effects.
func (l *lane) onLeave(m *proto.Message) {
	now := time.Now()
	n := l.n
	if sh := l.lookup(m.Key); sh != nil && sh.st.Contains(m.Origin) {
		if m.Subject >= 0 && m.Subject != n.id {
			l.emit(sh, sh.st.AppendHandleSubstitute(l.acts[:0], m.Origin, m.Subject))
		} else {
			l.emit(sh, sh.st.AppendHandleUnsubscribe(l.acts[:0], m.Origin))
		}
	}
	if m.Key != 0 {
		return
	}
	delete(n.childSeen, m.Origin)
	delete(l.seen, m.Origin) // a departed peer's window is dead state
	n.suspects[m.Origin] = now
	if m.Origin == n.parent() {
		l.parentDied(now)
	}
}

// ackTo acknowledges a reliable message back to its sender.
func (l *lane) ackTo(m *proto.Message) {
	a := l.newMsg(proto.KindAck, m.Origin)
	a.Seq = m.Seq
	a.Subject = int(m.Kind)
	l.send(a)
}

// dedup records the (origin, seq) pair and reports a duplicate. Windows
// are per lane: with strided seq streams each lane only ever sees the
// slice of an origin's seqs congruent to its own index.
func (l *lane) dedup(origin int, seq int64) bool {
	w := l.seen[origin]
	if w == nil {
		w = &seqWindow{seen: map[int64]struct{}{}}
		l.seen[origin] = w
	}
	return w.observe(seq)
}

// settle removes one reliable message from the retransmit queue if origin
// is the peer it was sent to, counting the ack.
func (l *lane) settle(seq int64, origin int) bool {
	e, ok := l.unacked[seq]
	if !ok || e.to != origin {
		return false
	}
	delete(l.unacked, seq)
	l.n.nw.stats.acks.Add(1)
	l.n.nw.stats.acksByKind[e.kind].Add(1)
	if e.ps != nil {
		e.ps.acked.Add(1)
		if rtt := time.Since(e.sentAt).Nanoseconds(); rtt > 0 {
			if old := e.ps.srttNs.Load(); old == 0 {
				e.ps.srttNs.Store(rtt)
			} else {
				// EWMA with gain 1/8; a racing store from another lane loses
				// one sample, which the next ack smooths over anyway.
				e.ps.srttNs.Store(old - old/8 + rtt/8)
			}
		}
	}
	l.putRel(e)
	return true
}

// onAck settles reliable messages: the peer has them. A batch-envelope
// ack settles every reliable member the envelope carried in one step. An
// ack is also a liveness proof at least as good as a keep-alive ack.
func (l *lane) onAck(m *proto.Message) {
	n := l.n
	settled := false
	if m.Subject == int(proto.KindBatch) {
		b, ok := l.batches[m.Seq]
		if !ok {
			return
		}
		delete(l.batches, m.Seq)
		for _, seq := range b.seqs {
			if l.settle(seq, m.Origin) {
				settled = true
			}
		}
		l.putRec(b)
	} else {
		settled = l.settle(m.Seq, m.Origin)
	}
	if !settled {
		return // late ack for a settled or abandoned message
	}
	if l.idx == 0 {
		delete(n.suspects, m.Origin)
	}
	if m.Origin == n.parent() {
		n.sawParentAck(time.Now())
	}
	l.maybeFinishLeave()
}

// sendJoin announces this node to its parent (lane 0): a reliable
// KindJoin carrying the membership epoch, answered by per-key state
// transfers when the parent holds valid copies.
func (l *lane) sendJoin() {
	parent := l.n.parent()
	if parent < 0 {
		return
	}
	m := l.newMsg(proto.KindJoin, parent)
	m.Version = int64(l.n.nw.dir.Epoch())
	l.send(m)
}

// joinKey makes this node a participant in one keyed index tree: create
// the shard and announce it upstream (key-scoped KindJoin, answered by a
// state transfer when the parent holds a valid copy of that key).
func (l *lane) joinKey(key int) {
	l.shard(key)
	parent := l.n.parent()
	if key == 0 || parent < 0 {
		return
	}
	m := l.newMsg(proto.KindJoin, parent)
	m.Key = key
	m.Version = int64(l.n.nw.dir.Epoch())
	l.send(m)
}

// leaveKey departs one keyed index tree: withdraw interest, tell the
// parent how to splice this node out of that key's subscriber list, and
// drop the shard. Key 0 is the node's own existence — use Network.Leave.
// Downstream subscribers of the dropped key self-heal: their queries still
// route through this node (routing is node-level), and a later push or
// request for the key lazily recreates the shard.
func (l *lane) leaveKey(key int) {
	if key == 0 {
		return
	}
	sh := l.lookup(key)
	if sh == nil {
		return
	}
	if sh.st.Interested() {
		l.emit(sh, sh.st.AppendLoseInterest(l.acts[:0]))
	}
	parent := l.n.parent()
	if parent >= 0 && sh.st.OnVirtualPath() {
		rep := -1
		if subs := sh.st.Subscribers(); len(subs) == 1 && subs[0] != l.n.id {
			rep = subs[0]
		}
		m := l.newMsg(proto.KindLeave, parent)
		m.Key = key
		m.Subject = rep
		l.send(m)
	}
	l.dropShard(key)
}

// beginLeave starts a graceful departure (lane 0): every lane withdraws
// interest the ordinary way (Figure 3 D) and tells the parent how to
// splice this node out of its keyed subscriber lists — lane 0's key-0
// leave carries the node-level departure and goes last within its lane —
// and the keep-alive children are told to re-home now rather than after a
// detection timeout. The node keeps running — acking, retransmitting —
// until every lane's departure announcements are acknowledged;
// maybeFinishLeave then completes the waiting Network.Leave.
func (l *lane) beginLeave(c ctrlMsg) {
	n := l.n
	if n.leaving {
		c.w.complete()
		return
	}
	n.leaving = true
	n.leaveDone = c.w
	n.leaveLanes.Store(int32(len(n.lanes)))
	l.leaving = true
	for _, dl := range n.lanes[1:] {
		if !dl.postCtrl(ctrlMsg{kind: cLaneLeave}) {
			n.laneLeaveDone()
		}
	}
	l.leaveAnnounce()
	for _, child := range c.children {
		if child == n.id {
			continue
		}
		m := l.newMsg(proto.KindLeave, child)
		m.Subject = -1
		l.send(m)
	}
	l.maybeFinishLeave()
}

// leaveAnnounce withdraws this lane's interest and announces its per-key
// departures upstream. With exactly one remaining subscriber the parent
// can substitute it in place (Figure 3 C). With more, no single node
// represents the branch: the parent unsubscribes it and the re-homed
// children re-announce their own virtual paths. One leave per key; shards
// are sorted by key and lane 0 always holds key 0, so iterating in
// reverse puts the node-level (key 0) leave last.
func (l *lane) leaveAnnounce() {
	n := l.n
	for _, sh := range l.shards {
		if sh.st.Interested() {
			l.emit(sh, sh.st.AppendLoseInterest(l.acts[:0]))
		}
	}
	parent := n.parent()
	if parent < 0 {
		return
	}
	for i := len(l.shards) - 1; i >= 0; i-- {
		sh := l.shards[i]
		if sh.key != 0 && !sh.st.OnVirtualPath() {
			continue
		}
		rep := -1
		if subs := sh.st.Subscribers(); len(subs) == 1 && subs[0] != n.id {
			rep = subs[0]
		}
		m := l.newMsg(proto.KindLeave, parent)
		m.Key = sh.key
		m.Subject = rep
		l.send(m)
	}
}

// maybeFinishLeave reports this lane's part of a pending departure done
// once nothing reliable is left unacknowledged (the retransmit deadline
// bounds how long that can take: give-ups empty the queue too). The last
// lane to drain completes the waiter.
func (l *lane) maybeFinishLeave() {
	if !l.leaving || l.leaveSent || len(l.unacked) != 0 {
		return
	}
	l.leaveSent = true
	l.n.laneLeaveDone()
}

func (n *node) laneLeaveDone() {
	if n.leaveLanes.Add(-1) == 0 {
		n.leaveDone.complete()
	}
}

// reboot models a crash-and-restart (lane 0): blank in-memory state, then
// resume from the durable per-key records as a restarted process would.
// Cold reboots (no records) come back like a plain recovery.
func (l *lane) reboot(states []store.NodeState) {
	n := l.n
	if len(states) > 0 {
		n.adopt(states, true)
		l.sendJoin()
		return
	}
	if n.nw.dir.RootID() == n.id {
		l.becomeRoot(time.Now(), -1)
		return
	}
	l.reset(n.nw.dir.Parent(n.id))
	l.sendJoin()
}

// adopt restores durable state recorded by a previous incarnation, one
// record per key. A still-designated authority resumes its exact
// pre-crash versions with fresh TTLs and immediately re-pushes them
// (subscribers accept an equal version, so the trees learn the authority
// is back without a version regression). Any other node re-homes under
// its recorded parent, adopts its recorded subscriber lists, and
// re-announces interest upstream per key. Records are partitioned to the
// lanes that own their keys; at boot (runtime false, no goroutines yet)
// lanes adopt directly, at runtime lane 0 adopts its own slice and fans
// the rest out via cAdoptLane.
func (n *node) adopt(states []store.NodeState, runtime bool) {
	if len(states) == 0 {
		return
	}
	// Role and parent are node-level, so every key's record agrees on them.
	asRoot := states[0].IsRoot && n.nw.dir.RootID() == n.id
	parent := -1
	if !asRoot {
		parent = states[0].Parent
		if parent < 0 || parent == n.id {
			parent = n.nw.dir.Parent(n.id)
		}
	}
	if g := n.rep.Load(); g != nil && !asRoot {
		// Resuming as a non-root: drop any pre-crash leadership or
		// candidacy so a stale high-term incarnation cannot depose the
		// live authority (same rule as reset).
		g.StandDown()
	}
	n.isRoot.Store(asRoot)
	n.setParent(parent)
	n.nw.dir.SetParent(n.id, parent)
	now := time.Now()
	n.sawParentAck(now)
	n.rootSeqAtV.Store(now.UnixNano())
	clear(n.childSeen)
	clear(n.suspects)
	parts := make([][]store.NodeState, len(n.lanes))
	for _, ns := range states {
		li := n.laneForKey(ns.Key).idx
		parts[li] = append(parts[li], ns)
	}
	if !runtime {
		for i, l := range n.lanes {
			l.adoptLane(parts[i], asRoot)
		}
		return
	}
	n.lanes[0].adoptLane(parts[0], asRoot)
	for i := 1; i < len(n.lanes); i++ {
		// Every data lane gets the injection even with no records: the
		// resetLane half still applies.
		n.lanes[i].postCtrl(ctrlMsg{kind: cAdoptLane, states: parts[i], asRoot: asRoot})
	}
}

// adoptLane applies one lane's slice of the durable records: blank the
// lane, then resume as authority or as subscriber per key.
func (l *lane) adoptLane(states []store.NodeState, asRoot bool) {
	n := l.n
	l.resetLane()
	now := time.Now()
	parent := n.parent()
	for _, ns := range states {
		sh := l.shard(ns.Key)
		if asRoot {
			for _, s := range ns.Subscribers {
				if s != n.id {
					sh.st.AdoptSubscriber(s)
				}
			}
			if n.rep.Load() != nil {
				// A replicated authority resuming from disk may hold a
				// stale (or torn) journal: nothing is served or pushed
				// until the quorum promise round floors the stream, then
				// the next tick bumps through the replicated log.
				sh.auth.set(ns.Version, now.UnixNano())
				sh.setRoot(true)
				continue
			}
			exp := now.Add(n.nw.cfg.TTL).UnixNano()
			sh.auth.set(ns.Version, exp)
			sh.setRoot(true)
			l.pushOut(sh, ns.Version, exp)
			continue
		}
		interested := false
		for _, s := range ns.Subscribers {
			if s == n.id {
				interested = true
				continue
			}
			sh.st.AdoptSubscriber(s)
		}
		if interested {
			l.emit(sh, sh.st.AppendBecomeInterested(l.acts[:0]))
		} else if sh.st.OnVirtualPath() && parent >= 0 {
			// Re-announce the virtual path: the parent may have dropped
			// this branch while the node was down.
			n.nw.stats.subscribes.Add(1)
			sh.kc.subscribes.Add(1)
			m := l.newMsg(proto.KindSubscribe, parent)
			m.Key = ns.Key
			m.Subject = sh.st.Representative()
			l.send(m)
		}
		if exp := unixToNs(ns.Expiry); exp > now.UnixNano() {
			l.storeIn(sh, ns.Version, exp)
		}
	}
}

// record journals the lane's durable state when it changed since the last
// record — one record per keyed shard: the lane loop calls it after every
// message, control injection and tick, so the journal tracks parent,
// role, version and subscriber lists without the protocol paths knowing
// about persistence.
func (l *lane) record() {
	n := l.n
	if n.nw.journal == nil || n.dead.Load() {
		return
	}
	parent := n.parent()
	isRoot := n.isRoot.Load()
	for _, sh := range l.shards {
		ns := store.NodeState{ID: n.id, Key: sh.key, Parent: parent, IsRoot: isRoot}
		if ns.IsRoot {
			v, exp := sh.auth.load()
			ns.Version, ns.Expiry = v, nsToUnix(exp)
		} else if sh.haveCopy {
			v, exp := sh.cache.load()
			ns.Version, ns.Expiry = v, nsToUnix(exp)
		}
		if sh.recValid && ns.Parent == sh.lastRec.Parent && ns.IsRoot == sh.lastRec.IsRoot &&
			ns.Version == sh.lastRec.Version && ns.Expiry == sh.lastRec.Expiry &&
			sh.st.EqualSubscribers(sh.lastRec.Subscribers) {
			continue
		}
		// The journal copies what it keeps, so the last record's list
		// buffer is refilled in place.
		ns.Subscribers = sh.st.AppendSubscribers(sh.lastRec.Subscribers[:0])
		sh.lastRec = ns
		sh.recValid = true
		n.nw.journal.Record(ns)
	}
}

// reset blanks the node after recovery and re-homes it under parent
// (lane 0): node-level liveness clears here, every lane blanks its
// shards — data lanes through cResetLane.
func (l *lane) reset(parent int) {
	n := l.n
	if g := n.rep.Load(); g != nil {
		// Rejoining as a non-root: any leadership or candidacy this
		// incarnation held is over. Without this, a revived ex-root whose
		// partitioned candidacy escalated the term would steal the lease
		// from the legitimate authority the moment it reconnects.
		g.StandDown()
	}
	n.isRoot.Store(false)
	n.setParent(parent)
	n.nw.dir.SetParent(n.id, parent)
	n.sawParentAck(time.Now())
	n.rootSeqAtV.Store(time.Now().UnixNano())
	clear(n.childSeen)
	clear(n.suspects)
	l.resetLane()
	l.bcast(ctrlMsg{kind: cResetLane})
}

// resetLane blanks one lane's protocol state: the underlying process
// restarted. It drops the retransmit queue (those messages described
// pre-failure state) but keeps the dedup windows and relSeq: peers' seq
// streams continue across our recovery, and ours must not restart.
func (l *lane) resetLane() {
	now := time.Now()
	for _, sh := range l.shards {
		sh.st.Reset()
		sh.interested.Store(false)
		sh.setRoot(false)
		sh.haveCopy = false
		sh.cache.drop()
		sh.lastPushed = -1
		sh.count.Store(0)
		sh.intervalStart = now
	}
	clear(l.pending)
	for seq, e := range l.unacked {
		delete(l.unacked, seq)
		l.putRel(e)
	}
	for seq, b := range l.batches {
		delete(l.batches, seq)
		l.putRec(b)
	}
}

// valid reports whether the node can serve one key's index right now,
// returning the version and expiry it would serve. A replicated
// authority additionally needs a live quorum lease and an unexpired
// version: a promoted or lease-less root refusing to serve (the caller
// retries) is what keeps resolved versions monotone across fail-over.
//
// It reads only what the lane publishes — the node's role and replica
// group, the shard's copies — so KeyHandle.Query applies the very same
// predicate off the lane (a dropped cache copy has expiry 0, so haveCopy
// needs no look). root is the caller's one reading of n.isRoot.
func (n *node) valid(sh *shard, root bool, now time.Time) (v, exp int64, ok bool) {
	if root {
		v, exp = sh.auth.load()
		if g := n.rep.Load(); g != nil && (!g.MayServe(now) || exp <= now.UnixNano()) {
			return 0, 0, false
		}
		return v, exp, true
	}
	v, exp = sh.cache.load()
	return v, exp, now.UnixNano() < exp
}

// valid is node.valid under the node's current role.
func (l *lane) valid(sh *shard, now time.Time) (int64, int64, bool) {
	return l.n.valid(sh, l.n.isRoot.Load(), now)
}

// hit answers a query for key on the caller's goroutine when doing so
// cannot change protocol state, and reports false when the query must go
// to the lane. It never touches core.State or any other lane-owned field.
// The conditions:
//   - the shard exists and its published role agrees with the node's, which
//     is false only while a promotion, abdication or reset is still
//     working its way through the lanes — the lane orders those;
//   - the node is the authority, or already in its own subscriber list:
//     only then can counting the access not fire Figure 3 (A);
//   - the copy is valid by lane.valid's predicate and unexpired (the lane
//     lets a non-replicated authority answer past its expiry; a reader
//     that cannot see the refresh schedule does not).
//
// The access lands in the same counters the lane bumps, so Figure 3 (D)
// and the statistics see an inline hit exactly as they see a lane-served
// one.
func (n *node) hit(key int, now time.Time) (int64, bool) {
	sh := n.laneForKey(key).lookup(key)
	if sh == nil {
		return 0, false
	}
	root := n.isRoot.Load()
	if sh.root.Load() != root || !(root || sh.interested.Load()) {
		return 0, false
	}
	v, exp, ok := n.valid(sh, root, now)
	if !ok || exp <= now.UnixNano() {
		return 0, false
	}
	sh.count.Add(1)
	n.nw.stats.queries.Add(1)
	sh.kc.queries.Add(1)
	n.nw.stats.localHits.Add(1)
	sh.kc.localHits.Add(1)
	return v, true
}

// access counts a query arrival on one key and applies the interest-gain
// policy (Figure 3 A).
func (l *lane) access(sh *shard) {
	if sh.count.Add(1) > int64(l.n.nw.cfg.Threshold) && !sh.st.Interested() && !l.n.isRoot.Load() {
		l.emit(sh, sh.st.AppendBecomeInterested(l.acts[:0]))
	}
}

// localQuery serves a query generated at this node, or sends a request
// upstream and parks the caller in pending until the reply retraces.
func (l *lane) localQuery(c ctrlMsg) {
	n := l.n
	sh := l.shard(c.key)
	l.access(sh)
	n.nw.stats.queries.Add(1)
	sh.kc.queries.Add(1)
	now := time.Now()
	if v, _, ok := l.valid(sh, now); ok {
		n.nw.stats.localHits.Add(1)
		sh.kc.localHits.Add(1)
		c.w.res = QueryResult{Version: v, Hops: 0, Local: true}
		c.w.complete()
		return
	}
	l.nextSeq++
	l.pending[l.nextSeq] = pendingQuery{w: c.w, expires: c.deadline}
	m := l.newMsg(proto.KindRequest, n.parent())
	m.Key = c.key
	m.Seq = l.nextSeq
	m.Hops = 1
	m.Path = append(m.Path, n.id)
	l.send(m)
}

// onRequest serves the query if possible, otherwise forwards it upstream.
func (l *lane) onRequest(m *proto.Message) {
	sh := l.shard(m.Key)
	l.access(sh)
	now := time.Now()
	if v, exp, ok := l.valid(sh, now); ok {
		// Turn the request into the reply and retrace the path; the origin
		// completes the waiting query when it arrives.
		last := len(m.Path) - 1
		if last < 0 {
			proto.Release(m)
			return
		}
		m.Kind = proto.KindReply
		m.To = m.Path[last]
		m.Path = m.Path[:last]
		m.Version = v
		m.Expiry = nsToUnix(exp)
		l.send(m)
		return
	}
	if l.n.isRoot.Load() {
		// The authority always serves; only a mid-fail-over vacuum gets
		// here, and the query times out and is retried by the caller.
		proto.Release(m)
		return
	}
	m.Path = append(m.Path, l.n.id)
	m.Hops++
	m.To = l.n.parent()
	l.send(m)
}

// onReply caches the index and keeps retracing the request path; at the
// origin it completes the pending query.
func (l *lane) onReply(m *proto.Message) {
	sh := l.shard(m.Key)
	l.storeIn(sh, m.Version, unixToNs(m.Expiry))
	if len(m.Path) == 0 {
		if p, ok := l.pending[m.Seq]; ok {
			delete(l.pending, m.Seq)
			l.n.nw.stats.queryHops.Add(int64(m.Hops))
			sh.kc.queryHops.Add(int64(m.Hops))
			p.w.res = QueryResult{Version: m.Version, Hops: m.Hops}
			p.w.complete()
		}
		proto.Release(m)
		return
	}
	last := len(m.Path) - 1
	m.To = m.Path[last]
	m.Path = m.Path[:last]
	l.send(m)
}

// onPush refreshes the key's cache and forwards across that key's DUP
// tree.
func (l *lane) onPush(m *proto.Message) {
	sh := l.shard(m.Key)
	l.n.nw.stats.pushes.Add(1)
	sh.kc.pushes.Add(1)
	exp := unixToNs(m.Expiry)
	l.storeIn(sh, m.Version, exp)
	if m.Version > sh.lastPushed {
		sh.lastPushed = m.Version
		l.pushOut(sh, m.Version, exp)
	}
}

// pushOut sends version v directly to every push target of one key's DUP
// tree.
func (l *lane) pushOut(sh *shard, v, exp int64) {
	l.targets = sh.st.AppendPushTargets(l.targets[:0])
	for _, target := range l.targets {
		m := l.newMsg(proto.KindPush, target)
		m.Key = sh.key
		m.Version = v
		m.Expiry = nsToUnix(exp)
		l.send(m)
	}
}

// storeIn updates one key's cached copy, ignoring stale versions.
func (l *lane) storeIn(sh *shard, v, exp int64) {
	if sh.haveCopy && v < sh.cache.ver.Load() {
		return
	}
	sh.haveCopy = true
	sh.cache.set(v, exp)
}

// emit sends one shard's state-machine actions, which the caller appended
// to l.acts[:0], to the current parent; their backing array becomes the
// next call's acts. Every handler that can put the node into or take it
// out of its own subscriber list returns its actions through here, so this
// is also where the shard's interested flag is republished.
func (l *lane) emit(sh *shard, acts []core.Action) {
	l.acts = acts[:0]
	sh.interested.Store(sh.st.Interested())
	parent := l.n.parent()
	for _, a := range acts {
		switch a.Kind {
		case core.SendSubscribe:
			l.n.nw.stats.subscribes.Add(1)
			sh.kc.subscribes.Add(1)
			m := l.newMsg(proto.KindSubscribe, parent)
			m.Key = sh.key
			m.Subject = a.Subject
			l.send(m)
		case core.SendUnsubscribe:
			m := l.newMsg(proto.KindUnsubscribe, parent)
			m.Key = sh.key
			m.Subject = a.Subject
			l.send(m)
		case core.SendSubstitute:
			l.n.nw.stats.substitutes.Add(1)
			sh.kc.substitutes.Add(1)
			m := l.newMsg(proto.KindSubstitute, parent)
			m.Key = sh.key
			m.Old, m.New = a.Old, a.New
			l.send(m)
		}
	}
}
