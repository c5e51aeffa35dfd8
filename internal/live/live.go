// Package live runs the DUP protocol on a real concurrent network: one
// goroutine per peer, messages delivered through a pluggable transport
// (in-process channels or TCP sockets, dup/internal/transport), periodic
// keep-alives with ack-based failure detection, and the paper's Section
// III-C recovery — including case 5, authority (root) fail-over.
//
// Where the discrete-event simulator (dup/internal/sim) reproduces the
// paper's measurements, this package demonstrates that the same protocol
// state machine (dup/internal/core) drives a working system under true
// concurrency. Start boots a self-contained cluster on the in-process
// transport; StartWith accepts any Transport and Directory, which is how
// cmd/dupd runs the identical state machine over real sockets and how the
// tests boot a multi-Network loopback cluster.
package live

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dup/internal/proto"
	"dup/internal/replica"
	"dup/internal/rng"
	"dup/internal/store"
	"dup/internal/topology"
	"dup/internal/transport"
)

// Config parametrises a live network.
type Config struct {
	// Nodes and MaxDegree shape the index search tree (node 0 is the
	// authority node for the index).
	Nodes     int
	MaxDegree int
	// TTL is the index version lifetime; the authority refreshes and
	// pushes Lead before each expiry.
	TTL  time.Duration
	Lead time.Duration
	// Threshold is the interest threshold c per TTL interval.
	Threshold int
	// HopDelay is the mean injected link latency (in-process transport
	// only; a TCP transport has real latency instead).
	HopDelay time.Duration
	// KeepAliveEvery is the keep-alive period; a peer that misses acks
	// for DeadAfter is declared failed.
	KeepAliveEvery time.Duration
	DeadAfter      time.Duration
	// RootAnnounceEvery is the soft-state tree beacon period: the authority
	// bumps a root sequence number that often and floods it down the
	// keep-alive tree, and every node re-advertises its root path by
	// forwarding the beacon to its children. Zero disables announces — the
	// tree is pure hard state repaired by keep-alive misses.
	RootAnnounceEvery time.Duration
	// RootExpireAfter is how long a node lets its observed root sequence
	// stall before declaring its root path stale and re-selecting a parent
	// by score (announce freshness, ack reliability, smoothed delivery
	// latency per neighbour). Zero means 4 × RootAnnounceEvery. It must
	// exceed DeadAfter so the keep-alive failure detector gets first shot
	// at a genuinely dead parent.
	RootExpireAfter time.Duration
	// Keys is how many keyed index trees every hosted node participates in
	// at boot (keys 0..Keys-1, each with its own DUP tree, authority
	// schedule and interest window over the shared routing tree). Zero
	// means 1 — the single-index protocol. Nodes also pick up keys lazily
	// when traffic for them arrives, and per node via Key(k).Join/Leave.
	Keys int
	// ShardLoops runs each hosted node as that many parallel receive/ctrl
	// loops ("lanes"), partitioning its keyed shards by key modulo the
	// lane count so independent keys process on independent cores. Lane 0
	// keeps the node-level fabric (parent, keep-alives, failure
	// detection, membership). Reliable sequence numbers are strided by
	// lane, which is how receivers route acknowledgements without parsing
	// payloads — so, like Nodes, MaxDegree and Seed, every process of a
	// cluster must use the same ShardLoops. Zero means 1: one loop per
	// node.
	ShardLoops int
	// Replicas is how many nodes replicate each key's authority version
	// stream (nodes 0..Replicas-1, the replica set of every key). With
	// Replicas R >= 2 the authority holds a quorum lease and appends every
	// version it exposes to a replicated update log before (or within a
	// bounded reserve ahead of) quorum acknowledgement, so losing the
	// authority's disk cannot regress the stream: fail-over floors the new
	// authority's versions above everything any quorum ever accepted. Zero
	// or one means no replication: no replica frame is ever sent. Like
	// Nodes and Seed, every process of a cluster must use the same
	// Replicas.
	Replicas int
	// PermanentAfter is the permanent-failure horizon for replica-set
	// members: when the leaseholder has heard nothing from a member for
	// this long it proposes replacing it through the two-phase quorum
	// reconfiguration, drawing the replacement from the directory. It
	// must exceed DeadAfter — keep-alive suspicion is restartable, this
	// is the verdict that the machine is gone for good. Zero disables
	// automatic replacement (membership only changes via recovery or an
	// operator). Only meaningful with Replicas >= 2.
	PermanentAfter time.Duration
	// Seed drives topology generation and latency jitter. Every process
	// of a multi-process cluster must use the same Seed (and Nodes and
	// MaxDegree) so they derive the same tree.
	Seed uint64
	// Tree optionally overrides topology generation, e.g. with an index
	// search tree extracted from a Chord ring or CAN torus
	// (overlay/chord.ExtractTree, overlay/can.ExtractTree). Node 0 must be
	// the root. Nodes is ignored when set.
	Tree *topology.Tree
}

// DefaultConfig returns a small, fast test-scale network.
func DefaultConfig() Config {
	return Config{
		Nodes:          64,
		MaxDegree:      4,
		TTL:            400 * time.Millisecond,
		Lead:           100 * time.Millisecond,
		Threshold:      3,
		HopDelay:       time.Millisecond,
		KeepAliveEvery: 40 * time.Millisecond,
		DeadAfter:      150 * time.Millisecond,
		// Beacon at a quarter of the TTL; paths expire after four missed
		// beacons (RootExpireAfter zero = 4 × RootAnnounceEvery = 400ms),
		// past DeadAfter so keep-alive detection still fires first on a
		// dead parent.
		RootAnnounceEvery: 100 * time.Millisecond,
		Seed:              1,
	}
}

// Fixed per-lane queue and window bounds.
const (
	// maxUnacked bounds each lane's retransmit queue; beyond it reliable
	// messages go out untracked and count as give-ups.
	maxUnacked = 256
	// dedupWindow is how many recent sequence numbers a receiver remembers
	// per origin when absorbing retransmissions and transport duplicates.
	dedupWindow = 128
	// inboxDepth is each lane's inbound message buffer; when it is full
	// the transport counts a drop.
	inboxDepth = 256
	// drainBatch bounds how many inbox messages one lane wakeup handles:
	// after blocking on one receive the lane opportunistically drains up
	// to drainBatch-1 more before recording state and flushing its
	// outbox, so per-wakeup costs amortize across the burst the way the
	// TCP writer's gather amortizes the write syscall. Pure scheduling —
	// no effect on the wire image.
	drainBatch = 64
)

// Validate reports the first configuration problem, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Tree == nil && c.Nodes < 2:
		return fmt.Errorf("live: need at least 2 nodes, got %d", c.Nodes)
	case c.Tree != nil && c.Tree.N() < 2:
		return fmt.Errorf("live: preset tree needs at least 2 nodes, got %d", c.Tree.N())
	case c.MaxDegree < 1:
		return fmt.Errorf("live: need MaxDegree >= 1, got %d", c.MaxDegree)
	case c.TTL <= 0 || c.Lead < 0 || c.Lead >= c.TTL:
		return fmt.Errorf("live: need 0 <= Lead < TTL, got TTL=%v Lead=%v", c.TTL, c.Lead)
	case c.Threshold < 0:
		return fmt.Errorf("live: need Threshold >= 0, got %d", c.Threshold)
	case c.HopDelay < 0:
		return fmt.Errorf("live: need HopDelay >= 0, got %v", c.HopDelay)
	case c.KeepAliveEvery <= 0 || c.DeadAfter <= c.KeepAliveEvery:
		return fmt.Errorf("live: need DeadAfter > KeepAliveEvery > 0, got %v, %v",
			c.DeadAfter, c.KeepAliveEvery)
	case c.RootAnnounceEvery < 0 || c.RootExpireAfter < 0:
		return fmt.Errorf("live: need RootAnnounceEvery and RootExpireAfter >= 0, got %v, %v",
			c.RootAnnounceEvery, c.RootExpireAfter)
	case c.RootAnnounceEvery == 0 && c.RootExpireAfter != 0:
		return fmt.Errorf("live: RootExpireAfter needs RootAnnounceEvery > 0, got %v, %v",
			c.RootExpireAfter, c.RootAnnounceEvery)
	case c.RootAnnounceEvery > 0 && c.RootAnnounceEvery >= c.TTL:
		return fmt.Errorf("live: need RootAnnounceEvery < TTL, got %v, %v",
			c.RootAnnounceEvery, c.TTL)
	case c.RootAnnounceEvery > 0 && c.rootExpireAfter() <= c.RootAnnounceEvery:
		return fmt.Errorf("live: need RootExpireAfter > RootAnnounceEvery, got %v, %v",
			c.rootExpireAfter(), c.RootAnnounceEvery)
	case c.RootAnnounceEvery > 0 && c.rootExpireAfter() <= c.DeadAfter:
		return fmt.Errorf("live: need RootExpireAfter > DeadAfter, got %v, %v",
			c.rootExpireAfter(), c.DeadAfter)
	case c.Keys < 0:
		return fmt.Errorf("live: need Keys >= 0, got %d", c.Keys)
	case c.ShardLoops < 0:
		return fmt.Errorf("live: need ShardLoops >= 0, got %d", c.ShardLoops)
	case c.Replicas < 0:
		return fmt.Errorf("live: need Replicas >= 0, got %d", c.Replicas)
	case c.PermanentAfter < 0:
		return fmt.Errorf("live: need PermanentAfter >= 0, got %v", c.PermanentAfter)
	case c.PermanentAfter > 0 && c.PermanentAfter <= c.DeadAfter:
		return fmt.Errorf("live: need PermanentAfter > DeadAfter, got %v, %v",
			c.PermanentAfter, c.DeadAfter)
	case c.Tree == nil && c.Nodes >= 2 && c.Replicas > c.Nodes:
		return fmt.Errorf("live: need Replicas <= Nodes, got %d > %d", c.Replicas, c.Nodes)
	case c.Tree != nil && c.Replicas > c.Tree.N():
		return fmt.Errorf("live: need Replicas <= tree size, got %d > %d", c.Replicas, c.Tree.N())
	}
	return nil
}

// keys resolves the effective boot-time key count.
func (c *Config) keys() int {
	if c.Keys > 0 {
		return c.Keys
	}
	return 1
}

// replicas resolves the effective authority replication factor.
func (c *Config) replicas() int {
	if c.Replicas > 0 {
		return c.Replicas
	}
	return 1
}

// shardLoops resolves the effective lane count per node.
func (c *Config) shardLoops() int {
	if c.ShardLoops > 0 {
		return c.ShardLoops
	}
	return 1
}

// rootExpireAfter resolves the effective root-path staleness bound:
// four beacon periods, stretched past DeadAfter when a config slows the
// keep-alive detector down — that detector must keep first claim on a
// truly dead parent, so the default expiry always sits above it.
func (c *Config) rootExpireAfter() time.Duration {
	if c.RootExpireAfter > 0 {
		return c.RootExpireAfter
	}
	e := 4 * c.RootAnnounceEvery
	if e <= c.DeadAfter {
		e = 2 * c.DeadAfter
	}
	return e
}

// announceOn reports whether the soft-state tree beacon is enabled.
func (c *Config) announceOn() bool { return c.RootAnnounceEvery > 0 }

// BuildTree returns the index search tree the configuration describes: the
// preset Tree when set, otherwise a deterministic function of Nodes,
// MaxDegree and Seed — so every process of a cluster derives the same one.
func (c *Config) BuildTree() *topology.Tree {
	if c.Tree != nil {
		return c.Tree
	}
	return topology.Generate(c.Nodes, c.MaxDegree, rng.New(c.Seed).Split())
}

// QueryResult is the outcome of one index query.
type QueryResult struct {
	Version int64
	Hops    int  // hops the request travelled before reaching a valid index
	Local   bool // served from the querying node's own cache
}

// Stats aggregates network-wide counters. In a multi-process cluster each
// Network counts only its hosted nodes' activity.
type Stats struct {
	Queries     int64
	QueryHops   int64
	LocalHits   int64
	Pushes      int64
	Subscribes  int64
	Substitutes int64
	KeepAlives  int64
	// Drops counts messages the transport dropped (dead or unreachable
	// nodes, full queues, injected faults); DropsByKind breaks it down by
	// message kind.
	Drops       int64
	DropsByKind [proto.NumKinds]int64
	// Receive-path pressure: InboxDrops counts inbound messages the
	// hosted nodes refused (dead node, or the owning lane's inbox full at
	// inboxDepth — the signal that ShardLoops is undersized for the
	// load); InboxBurstMax and InboxBurstMean describe how many messages
	// one lane wakeup drained from its inbox — a mean near 1 is an idle
	// cluster, a mean near drainBatch a saturated one.
	InboxDrops     int64
	InboxBurstMax  int64
	InboxBurstMean float64
	// Delivery guarantees: Retransmits counts re-sent reliable messages,
	// Acks counts acknowledgements received back, DupSuppressed counts
	// retransmitted or duplicated copies the receiver recognised and
	// absorbed, and RetransmitGiveUps counts reliable sends abandoned at
	// the retransmit deadline (each escalates into the Section III-C
	// repair path). The ByKind arrays are indexed by proto.Kind.
	Retransmits         int64
	RetransmitsByKind   [proto.NumKinds]int64
	Acks                int64
	AcksByKind          [proto.NumKinds]int64
	DupSuppressed       int64
	DupSuppressedByKind [proto.NumKinds]int64
	RetransmitGiveUps   int64
	// Soft-state tree: RootAnnounces counts beacons sent (root bumps plus
	// downstream forwards), RootExpiries counts root paths a node timed out
	// because the observed root sequence stalled, each re-homing the node
	// under the best-scored ancestor instead of waiting for a keep-alive
	// miss. Zero when Config.RootAnnounceEvery is 0.
	RootAnnounces int64
	RootExpiries  int64
	// Replication health (zero unless a node hosted here currently leads a
	// replica quorum): ReplicaLag is the widest gap between a key's log
	// head and the version a quorum has durably accepted; ReserveHeadroom
	// is how much of the version-reserve lease remains before the leader
	// would have to block on quorum acknowledgement.
	ReplicaLag      int64
	ReserveHeadroom int64
	// Quorum reconfiguration health (zero values unless a hosted node
	// carries a replica group): ConfigEpoch is the highest membership
	// epoch any hosted member has adopted and QuorumMembers that epoch's
	// member count; PermSuspects is how many members the hosted
	// leaseholder currently sees silent past Config.PermanentAfter;
	// ReconfigInFlight reports a membership change still in progress on
	// any hosted member (a proposal running, or a joint config awaiting
	// its final commit).
	ConfigEpoch      int64
	QuorumMembers    int
	PermSuspects     int
	ReconfigInFlight bool
}

// KeyStats aggregates one keyed index tree's counters across the nodes
// this Network hosts. The per-key counters are additive slices of the
// corresponding global Stats fields: summing a field over every key that
// carries traffic yields the global count.
type KeyStats struct {
	Key         int
	Queries     int64
	QueryHops   int64
	LocalHits   int64
	Pushes      int64
	Subscribes  int64
	Substitutes int64
}

// keyCounters is the mutable registry entry behind KeyStats, shared by
// every hosted shard of one key.
type keyCounters struct {
	queries, queryHops, localHits   atomic.Int64
	pushes, subscribes, substitutes atomic.Int64
}

// Options parametrises StartWith: which transport carries the messages,
// which directory stands in for the underlying DHT, and which node ids
// this Network hosts. Several Networks (or several processes) hosting
// disjoint id sets over a shared transport fabric form one cluster.
type Options struct {
	// Transport carries the protocol messages. The Network takes
	// ownership and closes it on Stop.
	Transport transport.Transport
	// Directory is the DHT routing stand-in. In-process clusters share
	// one, built by NewMemDirectory; cross-process clusters each hold one
	// built by NewStaticDirectory over the same tree.
	Directory *Directory
	// Hosts lists the node ids this Network runs. Ids must be in
	// [0, tree size). Hosts may be empty: such a Network starts with no
	// nodes and populates itself through Join.
	Hosts []int
	// Journal, when set, receives a durable state record every time a
	// hosted node's protocol state (parent, role, version, subscriber
	// list) changes. dupd wires a file-backed store.Store here; the chaos
	// harness a store.Mem.
	Journal store.Journal
	// Recovered seeds hosted nodes with state a previous incarnation
	// recorded, one record per keyed index tree: the authority resumes its
	// versions, subscribers re-adopt their lists and re-sync via a
	// join/state-transfer exchange.
	Recovered map[int][]store.NodeState
	// RecoveredReplicas seeds hosted replica-set members with the
	// replicated update log a previous incarnation accepted (one record
	// per keyed index tree, as recorded by a store.ReplicaJournal). Only
	// meaningful with Config.Replicas >= 2; a recovering authority
	// re-runs the quorum promise round before exposing versions, so a
	// stale or lost log never regresses the stream.
	RecoveredReplicas map[int][]store.ReplicaState
	// RecoveredConfigs seeds hosted replica-set members with the durable
	// membership record a previous incarnation journalled (as recorded by
	// a store.ReplicaConfigJournal), so every member reboots into the
	// config epoch it had adopted — including a joint config journalled
	// mid-reconfiguration, which the leaseholder resumes and commits. A
	// node whose record names it a member builds its replica group from
	// the record even when its id lies outside the seed set 0..Replicas-1
	// (it was admitted as a replacement).
	RecoveredConfigs map[int]store.ReplicaConfig
}

// Network runs the hosted subset of a live cluster.
type Network struct {
	cfg     Config
	tr      transport.Transport
	dir     *Directory
	journal store.Journal

	// mu guards the mutable membership below: hosted grows on Join and
	// shrinks on Leave, size tracks the highest id ever seen.
	mu     sync.RWMutex
	size   int // total cluster size, hosted or not
	hosted map[int]*node
	left   []*node // departed nodes, drained once more at Stop

	// kmu guards the lazily-populated per-key counter registry.
	kmu      sync.RWMutex
	keyStats map[int]*keyCounters

	stats struct {
		queries, queryHops, localHits              atomic.Int64
		pushes, subscribes, substitutes, keepAlive atomic.Int64
		retransmits, acks, dups, giveUps           atomic.Int64
		rootAnnounces, rootExpiries                atomic.Int64
		inboxDrops                                 atomic.Int64
		burstMax, burstSum, burstN                 atomic.Int64
		retransmitsByKind                          [proto.NumKinds]atomic.Int64
		acksByKind                                 [proto.NumKinds]atomic.Int64
		dupsByKind                                 [proto.NumKinds]atomic.Int64
	}

	stopped atomic.Bool
	wg      sync.WaitGroup
}

// ErrTimeout is returned when a query is not answered in time (e.g. its
// route passed through a failed node before repair finished).
var ErrTimeout = errors.New("live: query timed out")

// Start boots a self-contained network: builds the index search tree,
// wires every node over the in-process transport with injected link
// latency, and begins the authority's refresh schedule.
func Start(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tree := cfg.BuildTree()
	tr := transport.NewChan(transport.ChanConfig{HopDelay: cfg.HopDelay, Seed: cfg.Seed})
	hosts := make([]int, tree.N())
	for i := range hosts {
		hosts[i] = i
	}
	return boot(cfg, tree, tr, NewMemDirectory(tree), hosts, Options{})
}

// StartWith boots the hosted part of a cluster over the given transport
// and directory. The same state machine runs whether the transport is
// in-process channels or TCP sockets; cmd/dupd is StartWith plus flags.
func StartWith(cfg Config, opts Options) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Transport == nil || opts.Directory == nil {
		return nil, errors.New("live: StartWith needs a Transport and a Directory")
	}
	tree := cfg.BuildTree()
	for _, id := range opts.Hosts {
		if id < 0 || id >= tree.N() {
			return nil, fmt.Errorf("live: hosted node %d outside tree of %d", id, tree.N())
		}
	}
	return boot(cfg, tree, opts.Transport, opts.Directory, opts.Hosts, opts)
}

func boot(cfg Config, tree *topology.Tree, tr transport.Transport, dir *Directory, hosts []int, opts Options) (*Network, error) {
	nw := &Network{
		cfg:      cfg,
		tr:       tr,
		dir:      dir,
		journal:  opts.Journal,
		size:     tree.N(),
		hosted:   make(map[int]*node, len(hosts)),
		keyStats: make(map[int]*keyCounters),
	}
	now := time.Now()
	for _, id := range hosts {
		if nw.hosted[id] != nil {
			return nil, fmt.Errorf("live: node %d hosted twice", id)
		}
		n := newNode(nw, id, dir.Parent(id))
		for k := 1; k < cfg.keys(); k++ {
			n.laneForKey(k).addShard(k, now)
		}
		if states, ok := opts.Recovered[id]; ok {
			// Restore the previous incarnation's durable state before the
			// goroutines start; the node re-announces itself (join +
			// state-transfer) once running.
			n.adopt(states, false)
			n.announce = true
		}
		if rc, ok := opts.RecoveredConfigs[id]; ok {
			// A journalled membership record can make a node a replica-set
			// member even when its id lies outside the seed set (it was
			// admitted as a replacement before the reboot).
			if n.rep.Load() == nil && cfg.replicas() > 1 && memberOf(rc, id) {
				n.rep.Store(replica.New(n.replicaConfig()))
			}
			if g := n.rep.Load(); g != nil {
				g.RestoreConfig(rc)
			}
		}
		if rs := opts.RecoveredReplicas[id]; len(rs) > 0 {
			if g := n.rep.Load(); g != nil {
				g.Restore(rs)
			}
		}
		nw.hosted[id] = n
		tr.Register(id, n.handler())
		if br, ok := tr.(transport.BurstRegistrar); ok {
			br.RegisterBurst(id, n.burstHandler())
		}
	}
	for _, n := range nw.hosted {
		for _, l := range n.lanes {
			nw.wg.Add(1)
			go l.run()
		}
	}
	return nw, nil
}

// Stop shuts the network down: closes the transport, waits for every
// hosted node goroutine, and releases messages still parked in inboxes so
// pooled-message accounting stays balanced.
func (nw *Network) Stop() {
	if nw.stopped.Swap(true) {
		return
	}
	nw.tr.Close()
	nw.mu.Lock()
	hosted := make([]*node, 0, len(nw.hosted))
	for _, n := range nw.hosted {
		hosted = append(hosted, n)
	}
	left := nw.left
	nw.mu.Unlock()
	for _, n := range hosted {
		n.stop()
	}
	nw.wg.Wait()
	for _, n := range hosted {
		n.drain()
	}
	// Departed nodes drained themselves at exit, but a handler may have
	// raced one last message in before deregistration took effect.
	for _, n := range left {
		n.drain()
	}
}

// Stats returns a snapshot of the network counters.
func (nw *Network) Stats() Stats {
	s := Stats{
		Queries:           nw.stats.queries.Load(),
		QueryHops:         nw.stats.queryHops.Load(),
		LocalHits:         nw.stats.localHits.Load(),
		Pushes:            nw.stats.pushes.Load(),
		Subscribes:        nw.stats.subscribes.Load(),
		Substitutes:       nw.stats.substitutes.Load(),
		KeepAlives:        nw.stats.keepAlive.Load(),
		Drops:             nw.tr.Drops(),
		DropsByKind:       nw.tr.KindDrops(),
		Retransmits:       nw.stats.retransmits.Load(),
		Acks:              nw.stats.acks.Load(),
		DupSuppressed:     nw.stats.dups.Load(),
		RetransmitGiveUps: nw.stats.giveUps.Load(),
		RootAnnounces:     nw.stats.rootAnnounces.Load(),
		RootExpiries:      nw.stats.rootExpiries.Load(),
		InboxDrops:        nw.stats.inboxDrops.Load(),
		InboxBurstMax:     nw.stats.burstMax.Load(),
	}
	if n := nw.stats.burstN.Load(); n > 0 {
		s.InboxBurstMean = float64(nw.stats.burstSum.Load()) / float64(n)
	}
	for k := 0; k < proto.NumKinds; k++ {
		s.RetransmitsByKind[k] = nw.stats.retransmitsByKind[k].Load()
		s.AcksByKind[k] = nw.stats.acksByKind[k].Load()
		s.DupSuppressedByKind[k] = nw.stats.dupsByKind[k].Load()
	}
	now := time.Now()
	nw.mu.RLock()
	for _, n := range nw.hosted {
		g := n.rep.Load()
		if g == nil {
			continue
		}
		if lag, headroom, leading := g.ReserveStatus(); leading {
			if lag > s.ReplicaLag {
				s.ReplicaLag = lag
			}
			if s.ReserveHeadroom == 0 || headroom < s.ReserveHeadroom {
				s.ReserveHeadroom = headroom
			}
		}
		if e := g.Epoch(); s.QuorumMembers == 0 || e > s.ConfigEpoch {
			s.ConfigEpoch = e
			s.QuorumMembers = len(g.Members())
		}
		if g.ReconfigInFlight() {
			s.ReconfigInFlight = true
		}
		if nw.cfg.PermanentAfter > 0 {
			if d := len(g.DeadMembers(now, nw.cfg.PermanentAfter)); d > s.PermSuspects {
				s.PermSuspects = d
			}
		}
	}
	nw.mu.RUnlock()
	return s
}

// memberOf reports whether id belongs to a journalled membership record
// (either half of a joint config).
func memberOf(rc store.ReplicaConfig, id int) bool {
	for _, m := range rc.New {
		if m == id {
			return true
		}
	}
	for _, m := range rc.Old {
		if m == id {
			return true
		}
	}
	return false
}

// kc returns the counter registry entry for one key, creating it on first
// touch. Shards cache the returned pointer, so the lock is off the hot
// path.
func (nw *Network) kc(key int) *keyCounters {
	nw.kmu.RLock()
	c := nw.keyStats[key]
	nw.kmu.RUnlock()
	if c != nil {
		return c
	}
	nw.kmu.Lock()
	defer nw.kmu.Unlock()
	if c = nw.keyStats[key]; c == nil {
		c = &keyCounters{}
		nw.keyStats[key] = c
	}
	return c
}

// Keys returns every key that has a counter registry entry on this
// Network (every key any hosted node ever sharded), sorted ascending.
func (nw *Network) Keys() []int {
	nw.kmu.RLock()
	out := make([]int, 0, len(nw.keyStats))
	for k := range nw.keyStats {
		out = append(out, k)
	}
	nw.kmu.RUnlock()
	sort.Ints(out)
	return out
}

// NodeInfo is a consistent snapshot of one hosted node's protocol state,
// taken on the node's own goroutine.
type NodeInfo struct {
	ID int
	// Key is the keyed index tree this snapshot describes; Keys lists
	// every key the node currently participates in.
	Key    int
	Keys   []int
	Parent int
	IsRoot bool
	Dead   bool
	// HaveCopy/Version/Expiry describe the index copy the node would
	// serve right now: the authority's own version for the root, the
	// cached copy otherwise (HaveCopy false when there is none).
	HaveCopy bool
	Version  int64
	Expiry   time.Time
	// Interested reports whether the node's own query rate crossed the
	// interest threshold this interval window.
	Interested bool
	// Subscribers is the node's DUP subscriber list; PushTargets is who
	// it forwards a push to (subscribers minus virtual-path absorption).
	Subscribers []int
	PushTargets []int
	// Unacked counts reliable messages still awaiting acknowledgement on
	// the inspected key's lane; with ShardLoops == 1 (the default) that
	// is the whole node.
	Unacked int
	// RootSeq is the highest root sequence number the node has observed
	// (or issued, for the root) on the soft-state tree beacon; RootSeqAge
	// is how long ago it last advanced. Zero values when announces are
	// disabled (Config.RootAnnounceEvery == 0).
	RootSeq    int64
	RootSeqAge time.Duration
}

// Inspect returns a snapshot of a hosted node's protocol state for key 0,
// taken on the node's own goroutine so it is internally consistent. It
// works on dead nodes too — the chaos harness uses it to audit repaired
// trees.
func (nw *Network) Inspect(id int, timeout time.Duration) (NodeInfo, error) {
	return nw.Key(0).Inspect(id, timeout)
}

// node returns the hosted node for id, or nil.
func (nw *Network) node(id int) *node {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.hosted[id]
}

// Nodes returns the total cluster size (hosted here or not).
func (nw *Network) Nodes() int {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.size
}

// MeanLatency returns the average hops per resolved query so far.
func (nw *Network) MeanLatency() float64 {
	q := nw.stats.queries.Load()
	if q == 0 {
		return 0
	}
	return float64(nw.stats.queryHops.Load()) / float64(q)
}

// RootID returns the currently designated authority node's id (which may
// be momentarily dead while fail-over is in progress).
func (nw *Network) RootID() int { return nw.dir.RootID() }

// Query issues a key-0 index query at the given hosted node and waits up
// to timeout for the answer.
func (nw *Network) Query(at int, timeout time.Duration) (QueryResult, error) {
	return nw.Key(0).Query(at, timeout)
}

// Fail kills a hosted node abruptly: it stops processing messages.
// Neighbours discover the failure through keep-alive timeouts. Killing
// the current authority node exercises the paper's case 5 (a new
// authority takes over).
func (nw *Network) Fail(id int) {
	n := nw.node(id)
	if n == nil {
		return
	}
	n.dead.Store(true)
	nw.dir.SetDead(id, true)
}

// Recover brings a hosted node back. If it is still the designated
// authority (nobody was promoted while it was down) it resumes that role
// with a fresh version; otherwise it rejoins blank under the nearest
// alive node on its original ancestor path.
func (nw *Network) Recover(id int) {
	n := nw.node(id)
	if n == nil || !n.dead.Load() {
		return
	}
	// Revive decides atomically against a concurrent promotion, so a
	// recovering old root and a promoting substitute cannot both win.
	designated := nw.dir.Revive(id)
	n.dead.Store(false)
	if designated {
		n.lanes[0].postCtrl(ctrlMsg{kind: cBecomeRoot})
		return
	}
	n.lanes[0].postCtrl(ctrlMsg{kind: cReset, parent: nw.dir.AliveAncestor(id, nil)})
}

// Members returns the directory's current roster, ascending.
func (nw *Network) Members() []int { return nw.dir.Members() }

// Join attaches a brand-new node to the running cluster: the directory
// inserts it into the index search tree (epoch-stamped, so races against
// other membership changes resolve deterministically), and the node
// announces itself to its assigned parent with a KindJoin — the parent
// adopts it into the keep-alive fabric and answers with a state transfer
// when it holds a valid index copy. The joiner builds interest from
// scratch like any cold node.
func (nw *Network) Join(id int) error {
	if nw.stopped.Load() {
		return errors.New("live: network is stopped")
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.hosted[id] != nil {
		return fmt.Errorf("live: node %d is already hosted here", id)
	}
	parent, err := nw.dir.Join(id)
	if err != nil {
		return err
	}
	n := newNode(nw, id, parent)
	n.announce = true
	nw.hosted[id] = n
	if id >= nw.size {
		nw.size = id + 1
	}
	nw.tr.Register(id, n.handler())
	if br, ok := nw.tr.(transport.BurstRegistrar); ok {
		br.RegisterBurst(id, n.burstHandler())
	}
	for _, l := range n.lanes {
		nw.wg.Add(1)
		go l.run()
	}
	return nil
}

// Leave departs a hosted node gracefully: the directory re-homes its
// children, and the node runs the paper's substitute logic proactively —
// its parent splices the remaining representative into the subscriber
// list (or unsubscribes the branch) on receipt of KindLeave instead of
// waiting a keep-alive death to notice. Leave waits up to timeout for the
// departure announcements to be acknowledged, then deregisters the node.
func (nw *Network) Leave(id int, timeout time.Duration) error {
	nw.mu.Lock()
	n := nw.hosted[id]
	if n == nil {
		nw.mu.Unlock()
		return fmt.Errorf("live: node %d is not hosted here", id)
	}
	// Snapshot the children before the directory re-homes them: they are
	// exactly the peers whose keep-alive parent is about to vanish.
	children := nw.dir.Children(id)
	if err := nw.dir.Leave(id); err != nil {
		nw.mu.Unlock()
		return err
	}
	delete(nw.hosted, id)
	nw.left = append(nw.left, n)
	nw.mu.Unlock()

	// Best effort: a refused or unacknowledged departure still deregisters.
	if w, err := n.lanes[0].call(ctrlMsg{kind: cLeave, children: children}, timeout); err == nil {
		putWaiter(w)
	}
	// Deregister and stop: late messages to the departed id count as
	// transport drops from here on.
	nw.tr.Register(id, nil)
	if br, ok := nw.tr.(transport.BurstRegistrar); ok {
		br.RegisterBurst(id, nil)
	}
	n.dead.Store(true)
	n.stop()
	return nil
}

// Reboot models a crash-and-restart with durable state: the hosted node
// blanks its in-memory protocol state and resumes from states (one record
// per keyed index tree, as recorded by a Journal), re-announcing itself
// to its parent exactly like a restarted dupd with -state-dir. An empty
// slice reboots cold. The node set is unchanged — the directory still
// counts the node as a member throughout.
func (nw *Network) Reboot(id int, states []store.NodeState) error {
	n := nw.node(id)
	if n == nil {
		return fmt.Errorf("live: node %d is not hosted here", id)
	}
	if !n.lanes[0].postCtrl(ctrlMsg{kind: cReboot, states: states}) {
		return fmt.Errorf("live: node %d is overloaded", id)
	}
	return nil
}

// KeyHandle scopes Network operations to one keyed index tree. It is the
// keyed API surface: nw.Key(k).Query(...) for any key, with the key-0
// methods on Network as shorthands. Handles are cheap values — build them
// on the fly or keep one per key; they hold no state beyond the key.
type KeyHandle struct {
	nw  *Network
	key int
}

// Key returns the operation handle for one keyed index tree. Key 0 is
// the node-level tree every peer participates in; negative keys yield a
// handle whose operations fail with a validation error.
func (nw *Network) Key(key int) *KeyHandle {
	return &KeyHandle{nw: nw, key: key}
}

// Key reports which keyed index tree this handle scopes to.
func (h *KeyHandle) Key() int { return h.key }

// Query issues an index query for this key at the given hosted node and
// waits up to timeout for the answer. Querying a key the node has never
// seen makes it a lazy participant in that key's tree.
//
// A hit on a subscribed node or on the authority is served inline, on the
// caller's goroutine, from the copy the node's lane publishes: it does not
// wait, and it cannot be refused as overloaded. Every other query — a
// miss, or a hit that may tip the node into subscribing — is handed to the
// node's lane, whose bounded control queue refuses it when full.
func (h *KeyHandle) Query(at int, timeout time.Duration) (QueryResult, error) {
	nw := h.nw
	if at < 0 || at >= nw.Nodes() {
		return QueryResult{}, fmt.Errorf("live: no node %d", at)
	}
	if h.key < 0 {
		return QueryResult{}, fmt.Errorf("live: need key >= 0, got %d", h.key)
	}
	n := nw.node(at)
	if n == nil {
		return QueryResult{}, fmt.Errorf("live: node %d is not hosted here", at)
	}
	if nw.stopped.Load() || n.dead.Load() {
		return QueryResult{}, fmt.Errorf("live: node %d is down", at)
	}
	now := time.Now()
	if v, ok := n.hit(h.key, now); ok {
		return QueryResult{Version: v, Local: true}, nil
	}
	c := ctrlMsg{kind: cQuery, key: h.key, deadline: now.Add(timeout + time.Second)}
	w, err := n.laneForKey(h.key).call(c, timeout)
	if err != nil {
		return QueryResult{}, err
	}
	r := w.res
	putWaiter(w)
	return r, nil
}

// Stats returns this keyed index tree's counter snapshot across the
// nodes the Network hosts. Keys nobody touched report zeros.
func (h *KeyHandle) Stats() KeyStats {
	nw := h.nw
	s := KeyStats{Key: h.key}
	nw.kmu.RLock()
	c := nw.keyStats[h.key]
	nw.kmu.RUnlock()
	if c == nil {
		return s
	}
	s.Queries = c.queries.Load()
	s.QueryHops = c.queryHops.Load()
	s.LocalHits = c.localHits.Load()
	s.Pushes = c.pushes.Load()
	s.Subscribes = c.subscribes.Load()
	s.Substitutes = c.substitutes.Load()
	return s
}

// Inspect snapshots a hosted node's protocol state for this key, taken
// on the owning lane's goroutine so it is internally consistent. It
// works on dead nodes too — the chaos harness uses it to audit repaired
// trees. Inspecting a key the node does not participate in returns the
// node-level fields with empty shard state.
func (h *KeyHandle) Inspect(id int, timeout time.Duration) (NodeInfo, error) {
	nw := h.nw
	if h.key < 0 {
		return NodeInfo{}, fmt.Errorf("live: need key >= 0, got %d", h.key)
	}
	n := nw.node(id)
	if n == nil {
		return NodeInfo{}, fmt.Errorf("live: node %d is not hosted here", id)
	}
	w, err := n.laneForKey(h.key).call(ctrlMsg{kind: cInspect, key: h.key}, timeout)
	if err != nil {
		return NodeInfo{}, err
	}
	in := w.info
	putWaiter(w)
	return in, nil
}

// Join makes a hosted node a participant in this keyed index tree: it
// creates the key's shard and announces it upstream, so the parent
// adopts the branch and transfers its index copy when it holds a valid
// one. Key participation is per node — node-level membership is
// Network.Join and Network.Leave.
func (h *KeyHandle) Join(id int) error {
	if h.key < 0 {
		return fmt.Errorf("live: need key >= 0, got %d", h.key)
	}
	n := h.nw.node(id)
	if n == nil {
		return fmt.Errorf("live: node %d is not hosted here", id)
	}
	if !n.laneForKey(h.key).postCtrl(ctrlMsg{kind: cJoinKey, key: h.key}) {
		return fmt.Errorf("live: node %d is overloaded", id)
	}
	return nil
}

// Leave departs a hosted node from this keyed index tree: it withdraws
// interest, tells its parent how to splice it out of the key's
// subscriber list, and drops the shard. Key 0 cannot be left — it is the
// node's own existence; use Network.Leave.
func (h *KeyHandle) Leave(id int) error {
	if h.key <= 0 {
		return fmt.Errorf("live: need key > 0, got %d (key 0 is node-level: use Leave)", h.key)
	}
	n := h.nw.node(id)
	if n == nil {
		return fmt.Errorf("live: node %d is not hosted here", id)
	}
	if !n.laneForKey(h.key).postCtrl(ctrlMsg{kind: cLeaveKey, key: h.key}) {
		return fmt.Errorf("live: node %d is overloaded", id)
	}
	return nil
}
