// Package replica is the authority's quorum: a small-R ordered update
// log that replicates each key's version stream across a fixed set of
// nodes, so losing the authority's disk no longer loses the key. The
// protocol is a compact viewstamped/Paxos-style accept round driven
// entirely by the host layer (dup/internal/live), which owns the
// goroutines, the transport and the clock — a Group is a locked state
// machine that turns incoming frames and ticks into outgoing frames.
//
// # Version-reserve leases
//
// The hot path must stay a single local append: the leader may not cross
// the quorum per TTL refresh. The trick is a version reserve B: the
// leader may expose (serve or push) version v for a key only while some
// quorum has durably accepted at least v-B for it. Refreshes then run
// ahead of replication by up to B versions on nothing but a local fsync,
// while a lagging or partitioned quorum stalls the stream instead of
// silently un-replicating it.
//
// Failover rests on quorum intersection: a candidate gathers accepted-log
// snapshots from a quorum of members and starts every key at
//
//	floor(k) = max accepted version over the quorum + B + 1
//
// Any version a previous leader ever exposed had a quorum accepting at
// least v-B, every quorum intersects the candidate's, so floor(k) > v for
// every exposed v: the version stream never regresses across failover,
// even under dueling leaders (the DUP data plane already ignores version
// downgrades). The new floor entry must itself reach a quorum before it
// is exposed, which closes the loop for the next failover.
//
// The time-based lease is a liveness and freshness device on top: the
// leader serves only while a quorum has recently acknowledged its lease,
// so an isolated leader goes read-only stale within one lease instead of
// serving a diverging stream, and followers waiting out a valid lease
// avoid dueling-candidate churn for equal terms. Safety never depends on
// clocks — a expired-lease leader can only stop exposing, never regress.
//
// # Online reconfiguration
//
// Membership itself is soft state: a member dead for good is replaced
// without downtime by a two-phase, quorum-ordered config change driven
// by the leaseholder (single-member delta per step — add one or remove
// one). The replacement first receives a snapshot-style state transfer
// of the leader's accepted log, so it never votes on a log it does not
// hold. Then the joint config (old set ∧ new set) is journalled and
// broadcast: while it is in force every quorum decision — promotion,
// lease renewal, the exposure floor — needs independent majorities of
// both sets, so no decision can be made that a majority of either set
// would not intersect. Once a joint quorum has durably adopted it, the
// final config commits the same way under the new set alone. Every
// config carries an epoch, stamped with the sender's term on all replica
// frames (proto.Message's Epoch and Term fields); an epoch mismatch
// rejects the frame and triggers a config catch-up exchange instead of
// letting stale-config members vote.
package replica

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dup/internal/proto"
	"dup/internal/store"
)

// DefaultReserve is the version reserve B: how far version exposure may
// run ahead of quorum replication. TTL refreshes bump by one, so B=1024
// covers 1024 refresh cycles of replication lag before the stream stalls.
const DefaultReserve = 1024

// Promise and state-transfer frames pack int64 versions into the wire
// codec's []int Path; a 32-bit int would silently truncate any version
// past 2^31 and journal the corrupted value as accepted. Require 64-bit
// ints at compile time (this expression divides by zero on a 32-bit
// platform).
const _ = 1 / (^uint(0) >> 63)

// Config parametrises one node's view of the replica group.
type Config struct {
	// ID is this node's id. It need not be a member: a non-member DUP
	// root promoted by the directory leads the quorum from outside (its
	// own log stays volatile; safety comes from the member quorum).
	ID int
	// Members is the epoch-0 replica set, identical on every node. Later
	// epochs are installed by online reconfiguration
	// (AppendProposeReplace) and recovered from the journal with
	// RestoreConfig.
	Members []int
	// Lease is the leader lease duration (and the failover freshness
	// bound). Zero means one second.
	Lease time.Duration
	// Reserve overrides DefaultReserve when positive.
	Reserve int64
	// Journal, when non-nil, receives every accepted log entry before it
	// is acknowledged. Members must pass one for crash safety.
	Journal store.ReplicaJournal
}

type role uint8

const (
	follower role = iota
	candidate
	leader
)

// entry is one accepted log head: the highest (term, version) accepted
// for a key.
type entry struct {
	term    int64
	version int64
	expiry  float64
}

// promiseSubject discriminates the three KindPromise payloads.
const (
	subPrepare = 0 // prepare promise: Path carries key,version pairs
	subAccept  = 1 // accept ack: Key, Seq = accepted version
	subLease   = 2 // lease ack: Seq echoes the renewal counter
)

// maxPromisePairs bounds the key,version pairs per prepare-promise
// frame; larger logs are split into chunks (the final chunk sets New=1)
// so the wire codec's MaxPath is never exceeded. State-transfer chunks
// use the same bound.
const maxPromisePairs = 1024

// reconfigSubject discriminates the KindReconfig payloads.
const (
	subConfJoint = 0 // joint config: Path = old members then new, New = len(old)
	subConfFinal = 1 // final config: Path = the new members
	subConfAck   = 2 // member adopted the config at Epoch; Version echoes the proposal's term
	subConfNeed  = 3 // sender (at Epoch) saw a newer epoch; answer with the config
)

// xferSubject discriminates the KindStateXfer payloads.
const (
	subXferBegin = 0 // Path = current members, Version = the sender's default floor
	subXferChunk = 1 // Path = key,version pairs; New = 1 marks the final chunk
	subXferAck   = 2 // replacement holds the whole snapshot
)

// confState is the live membership view: the stable member set, or —
// while a reconfiguration's joint phase is in force — the old∧new pair.
// cur is always the set the group is moving to (equal to the stable set
// outside a reconfiguration); old is non-nil exactly in the joint phase.
// term is the proposer term the config was adopted under: together with
// the epoch it names the exact proposal, so a same-epoch config from a
// higher term (a new leader re-driving a contested change) supersedes
// this one, while an equal-or-lower term cannot.
type confState struct {
	epoch int64
	term  int64
	old   []int
	cur   []int
}

func (c *confState) joint() bool { return c.old != nil }

// sameConf reports whether two configs name the same membership (sets
// compare element-wise; every proposal is built from the proposer's own
// confState, so identical content always travels in identical order).
func sameConf(a, b *confState) bool {
	return a.joint() == b.joint() && sameMembers(a.old, b.old) && sameMembers(a.cur, b.cur)
}

func sameMembers(a, b []int) bool {
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

// union returns every node with a role in the config: cur plus, in the
// joint phase, any old member not also in cur.
func (c *confState) union() []int {
	if !c.joint() {
		return c.cur
	}
	u := append([]int(nil), c.cur...)
	for _, id := range c.old {
		seen := false
		for _, v := range c.cur {
			if v == id {
				seen = true
				break
			}
		}
		if !seen {
			u = append(u, id)
		}
	}
	sort.Ints(u)
	return u
}

// reconfig is the leaseholder's in-flight membership change.
type reconfig struct {
	phase    int   // rcXfer, rcJoint or rcFinal
	add      int   // the incoming member (-1 when resuming a recovered joint config)
	newSet   []int // the target stable member set
	acks     map[int]bool
	lastSend time.Time
}

const (
	rcXfer  = iota // state transfer streaming to the replacement
	rcJoint        // joint config out, gathering adoption acks from both sets
	rcFinal        // final config out, gathering acks from the new set
)

// Group is one node's replica state machine. All methods are safe for
// concurrent use from any lane goroutine; MayServe is lock-free so the
// read hot path can consult it per query.
type Group struct {
	mu      sync.Mutex
	cfg     Config
	conf    confState
	member  bool
	peers   []int // current config's union minus self
	lease   time.Duration
	reserve int64

	// rc is the leaseholder's in-flight reconfiguration, nil otherwise.
	rc *reconfig
	// lastAck is the leader's per-peer liveness view: the last time each
	// peer answered anything. The host's permanent-failure horizon reads
	// it through DeadMembers.
	lastAck map[int]time.Time

	role role
	term int64

	// Accepted log and committed watermarks (all roles).
	log       map[int]entry
	committed map[int]int64

	// Follower view of the current lease. leaseHolder/leaseUntil track any
	// claim (a prepare stakes one for its round); grantHolder/grantUntil
	// track only proven grants — KindLease frames an actual leader sent or
	// a member relayed — and drive the host's abdication decision.
	leaseHolder int
	leaseUntil  time.Time
	grantHolder int
	grantUntil  time.Time

	// Candidate state: merged snapshot per promising member, completion
	// flags, and the lease deadline stamped into this round's prepares.
	votes    map[int]map[int]int64
	voted    map[int]bool
	prepExp  float64
	lastPrep time.Time

	// Learner-side state-transfer progress: which chunks of the current
	// epoch's snapshot have arrived. The leader rebuilds and retransmits
	// the whole snapshot until acked, so chunks may arrive out of order
	// or twice; the ack waits for every chunk index.
	xferGot    map[int]bool
	xferChunks int
	xferEpoch  int64

	// Leader state.
	floors    map[int]int64
	floorDef  int64 // floor for keys absent from the promise quorum
	acked     map[int]map[int]int64
	commitOut map[int]int64
	leaseSeq  int64
	leaseAcks map[int]bool
	leaseSent time.Time
	// announceCtr counts root-announce beacons issued this term. The
	// beacon sequence is term<<announceTermShift | announceCtr, so a new
	// leader's beacons sort strictly above every beacon of every previous
	// term — the sequence resumes monotonically across failover without
	// any durable state beyond the term itself.
	announceCtr int64
	// lastGrant is the last time a lease quorum confirmed this leader (or
	// its first leader tick); a leader stale past 2x the lease is a
	// deposed or partitioned one, which the host resolves by re-election
	// or abdication.
	lastGrant time.Time

	// leaseGood is the UnixNano deadline until which this node may serve
	// as leader; zero whenever it is not a serving leader.
	leaseGood atomic.Int64
}

// New returns a follower Group. The caller seeds recovered log state
// with Restore, then either BootLeader (fresh cluster authority) or
// waits for prepares / a promotion.
func New(cfg Config) *Group {
	if cfg.Lease <= 0 {
		cfg.Lease = time.Second
	}
	if cfg.Reserve <= 0 {
		cfg.Reserve = DefaultReserve
	}
	g := &Group{
		cfg:         cfg,
		lease:       cfg.Lease,
		reserve:     cfg.Reserve,
		log:         make(map[int]entry),
		committed:   make(map[int]int64),
		leaseHolder: -1,
		grantHolder: -1,
	}
	g.installConfLocked(confState{epoch: 0, cur: append([]int(nil), cfg.Members...)}, false)
	return g
}

// majority is the quorum size of one member set.
func majority(n int) int { return n/2 + 1 }

// installConfLocked makes c the live config, recomputing the derived
// membership view and (when journal is set) recording it durably before
// it takes effect — a member must recover into the epoch it voted under.
func (g *Group) installConfLocked(c confState, journal bool) {
	if journal {
		if j, ok := g.cfg.Journal.(store.ReplicaConfigJournal); ok {
			j.RecordReplicaConfig(store.ReplicaConfig{
				ID: g.cfg.ID, Epoch: c.epoch, Term: c.term, Joint: c.joint(),
				Old: append([]int(nil), c.old...), New: append([]int(nil), c.cur...),
			})
		}
	}
	g.conf = c
	g.member = false
	g.peers = g.peers[:0]
	for _, id := range c.union() {
		if id == g.cfg.ID {
			g.member = true
		} else {
			g.peers = append(g.peers, id)
		}
	}
	// Leader-side tracking follows the membership: new peers get fresh
	// ack maps and a liveness clock starting now; departed peers keep
	// their stale entries harmlessly (no quorum rule consults them).
	if g.acked != nil {
		for _, p := range g.peers {
			if g.acked[p] == nil {
				g.acked[p] = make(map[int]int64)
			}
		}
	}
}

// quorumOKLocked reports whether the ids satisfying has form a quorum
// under the live config: a majority of the current set and — while the
// joint phase is in force — independently a majority of the old set.
// This is the single quorum-size read site, so every decision tracks
// reconfiguration instead of the boot-time member count.
func (g *Group) quorumOKLocked(has func(id int) bool) bool {
	count := func(set []int) int {
		n := 0
		for _, id := range set {
			if has(id) {
				n++
			}
		}
		return n
	}
	if count(g.conf.cur) < majority(len(g.conf.cur)) {
		return false
	}
	if g.conf.joint() && count(g.conf.old) < majority(len(g.conf.old)) {
		return false
	}
	return true
}

// Restore seeds the accepted log from journal recovery. Call before any
// traffic flows.
func (g *Group) Restore(states []store.ReplicaState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, rs := range states {
		g.log[rs.Key] = entry{term: rs.Term, version: rs.Version, expiry: rs.Expiry}
		if rs.Term > g.term {
			g.term = rs.Term
		}
	}
}

// RestoreConfig seeds the membership config from journal recovery: a
// rebooted member resumes in the exact epoch (joint phase included) it
// journalled before the crash. Call before any traffic flows.
func (g *Group) RestoreConfig(rc store.ReplicaConfig) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rc.Epoch < g.conf.epoch {
		return
	}
	c := confState{epoch: rc.Epoch, term: rc.Term, cur: append([]int(nil), rc.New...)}
	if rc.Joint {
		c.old = append([]int(nil), rc.Old...)
	}
	g.installConfLocked(c, false)
}

// BootLeader makes this node the term-1 leader of a genuinely fresh
// cluster (the designated authority at first boot). It must not be used
// after a crash or failover — those paths go through AppendStartCandidate,
// whose promise round re-establishes the exposure floor. The lease still
// has to be acquired through Tick before the leader may serve.
func (g *Group) BootLeader() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.term == 0 {
		g.term = 1
	}
	g.role = leader
	g.floors = make(map[int]int64)
	g.floorDef = 0
	g.resetLeaderLocked()
}

// resetLeaderLocked initialises the leader-side ack tracking.
func (g *Group) resetLeaderLocked() {
	g.acked = make(map[int]map[int]int64)
	for _, p := range g.peers {
		g.acked[p] = make(map[int]int64)
	}
	g.commitOut = make(map[int]int64)
	g.leaseAcks = make(map[int]bool)
	g.leaseSent = time.Time{}
	g.announceCtr = 0
	g.lastAck = make(map[int]time.Time)
	g.rc = nil
}

// AppendStartCandidate opens a new leadership round: bumps the term past
// everything seen and asks every member for a promise plus its accepted
// log. It appends the prepares to dst and returns it; they must be sent,
// and AppendTick retransmits them until a quorum answers.
func (g *Group) AppendStartCandidate(dst []*proto.Message, now time.Time) []*proto.Message {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.startRoundLocked(dst, now)
}

// startRoundLocked opens (or reopens, from the candidate retransmission
// path) a prepare round one term above everything seen. Reopening under
// a fresh term also outruns a competitor's still-valid lease within one
// retry, so a candidate that guessed a stale term is not stuck waiting
// the lease out.
func (g *Group) startRoundLocked(dst []*proto.Message, now time.Time) []*proto.Message {
	g.term++
	g.role = candidate
	g.leaseGood.Store(0)
	// A fresh round forgets stale grants (the dead incumbent's, usually):
	// only a grant proven after this point may talk the host into
	// abdicating the candidacy.
	g.grantHolder = -1
	g.votes = make(map[int]map[int]int64)
	g.voted = make(map[int]bool)
	if g.member {
		snap := make(map[int]int64, len(g.log))
		for k, e := range g.log {
			snap[k] = e.version
		}
		g.votes[g.cfg.ID] = snap
		g.voted[g.cfg.ID] = true
	}
	g.prepExp = timeToUnix(now.Add(g.lease))
	g.lastPrep = now
	dst = g.preparesLocked(dst)
	g.maybePromoteLocked(now)
	return dst
}

// preparesLocked appends one prepare per peer for the current term.
func (g *Group) preparesLocked(dst []*proto.Message) []*proto.Message {
	for _, p := range g.peers {
		m := proto.NewMessage()
		m.Kind = proto.KindPrepare
		m.To = p
		m.Origin = g.cfg.ID
		m.Term = g.term
		m.Epoch = g.conf.epoch
		m.Expiry = g.prepExp
		dst = append(dst, m)
	}
	return dst
}

// maybePromoteLocked checks the candidate's promise tally and, at
// quorum, assumes leadership: every key the quorum has ever accepted
// gets an exposure floor strictly above anything a previous leader can
// have exposed, and unseen keys get the zero-accept floor B+1.
func (g *Group) maybePromoteLocked(now time.Time) {
	if g.role != candidate {
		return
	}
	if !g.quorumOKLocked(func(id int) bool { return g.voted[id] }) {
		return
	}
	g.role = leader
	g.floors = make(map[int]int64)
	// floorDef only ever grows: a state-transferred default floor (or a
	// previous leadership's) stays in force, which is conservative — a
	// too-high floor just skips version numbers.
	if g.floorDef < g.reserve+1 {
		g.floorDef = g.reserve + 1
	}
	for _, snap := range g.votes {
		for k, v := range snap {
			if f := v + g.reserve + 1; f > g.floors[k] {
				g.floors[k] = f
			}
		}
	}
	g.resetLeaderLocked()
	// Seed ack tracking from the promises themselves — those versions are
	// known durable at their senders.
	for id, snap := range g.votes {
		if id == g.cfg.ID {
			continue
		}
		am := g.acked[id]
		if am == nil {
			am = make(map[int]int64)
			g.acked[id] = am
		}
		for k, v := range snap {
			if v > am[k] {
				am[k] = v
			}
		}
	}
	g.votes, g.voted = nil, nil
	g.lastGrant = now
	// The promise quorum doubles as the first lease grant: followers
	// granted the deadline stamped in the prepares. If candidacy outlived
	// it, the next Tick's renewal round re-acquires before serving.
	if until := unixToTime(g.prepExp); now.Before(until) {
		g.leaseGood.Store(until.UnixNano())
	}
}

// MayServe reports whether this node currently holds a live leader
// lease. Lock-free: the read and push hot paths gate on it per
// operation.
func (g *Group) MayServe(now time.Time) bool {
	return now.UnixNano() < g.leaseGood.Load()
}

// Leading reports whether the group is in the leader role (its lease may
// still be pending).
func (g *Group) Leading() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.role == leader
}

// LeaseHolder reports the node this group can prove currently holds a
// live leader lease, when that node is someone else. The proof is a
// KindLease frame — a renewal from the leader itself or a member's relay
// to a refused candidate — never a mere prepare claim. A directory-
// promoted root that lost the quorum race uses this to abdicate in
// favour of the true leaseholder.
func (g *Group) LeaseHolder(now time.Time) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.role == leader || g.grantHolder < 0 || g.grantHolder == g.cfg.ID || !now.Before(g.grantUntil) {
		return -1, false
	}
	return g.grantHolder, true
}

// StandDown abandons any candidacy or stale leadership: the host calls
// it while abdicating a lost fail-over so the dropped round cannot keep
// escalating terms against the leader it just adopted.
func (g *Group) StandDown() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.role = follower
	g.leaseGood.Store(0)
	g.votes, g.voted = nil, nil
}

// StaleLeader reports a leader whose lease quorum has been gone for over
// twice the lease: it has been deposed by a higher term it never heard
// of, or partitioned from every member. The host re-elects from this
// state (if it still believes it is the authority) rather than serving
// nothing forever.
func (g *Group) StaleLeader(now time.Time) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.role == leader && !g.lastGrant.IsZero() && now.Sub(g.lastGrant) > 2*g.lease
}

// Term returns the highest term seen.
func (g *Group) Term() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.term
}

// announceTermShift positions the term in the high bits of a beacon
// sequence, leaving 2^40 beacons per term before overflow (at one per
// 100ms that is over three millennia of leadership).
const announceTermShift = 40

// NextAnnounce issues the next root-announce beacon sequence number.
// Only a serving leader (live lease in hand) may announce: a deposed or
// partitioned leader returns false and stays silent, so its stale
// beacons can never refresh a subtree that should be expiring its path.
// Sequences are term<<announceTermShift | counter — strictly increasing
// within a term and, because terms only grow, strictly increasing
// across failover too.
func (g *Group) NextAnnounce(now time.Time) (int64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.role != leader || !g.MayServe(now) {
		return 0, false
	}
	g.announceCtr++
	return g.term<<announceTermShift | g.announceCtr, true
}

// ReserveStatus reports the leader's replication health: lag is the
// largest gap between an exposed log head and what a full quorum has
// durably accepted, and headroom is how much of the version reserve B
// remains before Bump starts refusing exposure. Followers report
// leading=false with zero lag/headroom.
func (g *Group) ReserveStatus() (lag, headroom int64, leading bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.role != leader {
		return 0, 0, false
	}
	for k, e := range g.log {
		if d := e.version - g.quorumAcceptedLocked(k); d > lag {
			lag = d
		}
	}
	return lag, g.reserve - lag, true
}

// Committed returns the quorum-committed watermark for key.
func (g *Group) Committed(key int) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.committed[key]
}

// Accepted returns this node's accepted log head for key.
func (g *Group) Accepted(key int) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log[key].version
}

// Bump is AppendBump into a fresh slice.
func (g *Group) Bump(key int, want int64, expiry float64, now time.Time) (int64, []*proto.Message, bool) {
	return g.AppendBump(nil, key, want, expiry, now)
}

// AppendBump is the leader hot path: expose version want (or the key's
// floor, whichever is higher) for key. It returns the version actually
// exposed, dst with any accept frames that must be sent appended, and
// whether exposure is allowed right now. Exposure is refused — with the
// stream left exactly where it was — when this node holds no live lease
// or when the version reserve is exhausted (a quorum has not yet
// accepted within B of the target); the returned accepts still must be
// sent so replication can catch up.
func (g *Group) AppendBump(dst []*proto.Message, key int, want int64, expiry float64, now time.Time) (int64, []*proto.Message, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.role != leader {
		return 0, dst, false
	}
	v := want
	if f, ok := g.floors[key]; ok {
		if v < f {
			v = f
		}
	} else if v < g.floorDef {
		v = g.floorDef
	}
	cur := g.log[key]
	if v < cur.version {
		v = cur.version
	}
	if v > cur.version {
		// Local append: durable before any frame leaves, so the accept we
		// advertise can never be forgotten.
		g.log[key] = entry{term: g.term, version: v, expiry: expiry}
		if g.member && g.cfg.Journal != nil {
			g.cfg.Journal.RecordReplica(store.ReplicaState{
				ID: g.cfg.ID, Key: key, Term: g.term, Version: v, Expiry: expiry,
			})
		}
		dst = g.acceptsLocked(dst, key)
	}
	if !g.MayServe(now) {
		return 0, dst, false
	}
	if v > g.quorumAcceptedLocked(key)+g.reserve {
		return 0, dst, false
	}
	return v, dst, true
}

// acceptsLocked appends accept frames for every peer still behind the
// log head of key.
func (g *Group) acceptsLocked(dst []*proto.Message, key int) []*proto.Message {
	e := g.log[key]
	for _, p := range g.peers {
		if g.acked[p][key] >= e.version {
			continue
		}
		m := proto.NewMessage()
		m.Kind = proto.KindAccept
		m.To = p
		m.Origin = g.cfg.ID
		m.Term = e.term
		m.Epoch = g.conf.epoch
		m.Key = key
		m.Version = e.version
		m.Expiry = e.expiry
		dst = append(dst, m)
	}
	return dst
}

// quorumAcceptedLocked returns the highest version a full quorum of
// members has durably accepted for key (this node's own log counts when
// it is a member). In the joint phase both sets must reach a version
// before it counts, so exposure can never outrun either quorum.
func (g *Group) quorumAcceptedLocked(key int) int64 {
	qa := g.setAcceptedLocked(g.conf.cur, key)
	if g.conf.joint() {
		if o := g.setAcceptedLocked(g.conf.old, key); o < qa {
			qa = o
		}
	}
	return qa
}

// setAcceptedLocked returns the highest version a majority of one member
// set has durably accepted for key: the largest member version v that at
// least a majority of the set has reached. Member sets are a handful of
// ids and this runs per key on every leader tick, so it counts instead of
// sorting a copy. Accepted versions are never negative, so 0 (also the
// answer for an empty set) is the floor.
func (g *Group) setAcceptedLocked(set []int, key int) int64 {
	need := majority(len(set))
	var best int64
	for _, a := range set {
		v := g.acceptedByLocked(a, key)
		if v <= best {
			continue
		}
		n := 0
		for _, b := range set {
			if g.acceptedByLocked(b, key) >= v {
				n++
			}
		}
		if n >= need {
			best = v
		}
	}
	return best
}

// acceptedByLocked returns the version member id is known to have durably
// accepted for key: this node's own log head, or a peer's latest ack.
func (g *Group) acceptedByLocked(id, key int) int64 {
	if id == g.cfg.ID {
		return g.log[key].version
	}
	return g.acked[id][key]
}

// Step is AppendStep into a fresh slice.
func (g *Group) Step(m *proto.Message, now time.Time) []*proto.Message {
	return g.AppendStep(nil, m, now)
}

// AppendStep feeds one replica frame to the state machine, appends the
// frames to send in response to dst and returns it. The caller keeps
// ownership of m.
func (g *Group) AppendStep(dst []*proto.Message, m *proto.Message, now time.Time) []*proto.Message {
	g.mu.Lock()
	defer g.mu.Unlock()
	term := m.Term
	if g.role == leader {
		g.lastAck[m.Origin] = now // any frame is a sign of life
	}
	switch m.Kind {
	case proto.KindReconfig:
		return g.onReconfigLocked(dst, m, term, now)
	case proto.KindStateXfer:
		return g.onXferLocked(dst, m, term, now)
	}
	// Config epoch gate: a frame from a different epoch must not vote.
	// When the sender is ahead we ask it for the config it holds; when it
	// is behind we teach it ours. Either way the dropped frame's round
	// recovers by retransmission once the epochs agree.
	if epoch := m.Epoch; epoch != g.conf.epoch {
		if epoch > g.conf.epoch {
			return append(dst, g.confNeedLocked(m.Origin))
		}
		return append(dst, g.confRecordLocked(m.Origin))
	}
	switch m.Kind {
	case proto.KindPrepare:
		return g.onPrepareLocked(dst, m, term, now)
	case proto.KindPromise:
		g.onPromiseLocked(m, term, now)
	case proto.KindAccept:
		return g.onAcceptLocked(dst, m, term)
	case proto.KindCommit:
		g.observeTermLocked(term)
		if term == g.term && m.Version > g.committed[m.Key] {
			g.committed[m.Key] = m.Version
		}
	case proto.KindLease:
		return g.onLeaseLocked(dst, m, term, now)
	}
	return dst
}

// observeTermLocked adopts a higher term, stepping down from any leader
// or candidate role: a superseded leader stops exposing immediately and
// for good (its lease can never renew under the old term).
func (g *Group) observeTermLocked(term int64) {
	if term <= g.term {
		return
	}
	g.term = term
	g.role = follower
	g.leaseGood.Store(0)
	g.votes, g.voted = nil, nil
}

func (g *Group) onPrepareLocked(dst []*proto.Message, m *proto.Message, term int64, now time.Time) []*proto.Message {
	if term < g.term {
		// Stale round. Teach the candidate who actually leads (when we can
		// prove it): a non-member root that lost a fail-over race has no
		// other way to learn it should abdicate.
		return g.relayGrantLocked(dst, m.Origin, now)
	}
	if term == g.term && g.leaseHolder != m.Origin && now.Before(g.leaseUntil) {
		// Same-term competition against a live lease: first candidate wins
		// this replica for the term.
		return g.relayGrantLocked(dst, m.Origin, now)
	}
	g.observeTermLocked(term)
	if term == g.term && g.role != follower && m.Origin != g.cfg.ID {
		if g.role == leader || m.Origin > g.cfg.ID {
			// Equal term, we are leader (our round already won) or the
			// rival candidate has the higher id: our round continues; the
			// competitor needs a higher term.
			return dst
		}
		// Equal-term candidate duel, rival has the lower id: stand down
		// and vote for it. Without a tie-break two member candidates can
		// refuse each other and re-escalate terms in lockstep forever —
		// exactly the dual-promotion race a partitioned multi-process
		// cluster produces when the old leaseholder's host dies.
		g.role = follower
		g.votes, g.voted = nil, nil
	}
	g.leaseHolder = m.Origin
	g.leaseUntil = unixToTime(m.Expiry)
	if !g.member {
		return dst
	}
	// Promise: ship the accepted log back, chunked under the wire codec's
	// path bound; the final chunk sets New=1 so the candidate counts the
	// vote only when the snapshot is whole.
	keys := make([]int, 0, len(g.log))
	for k := range g.log {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	pm := g.newPromiseLocked(m.Origin, subPrepare)
	for _, k := range keys {
		pm.Path = append(pm.Path, k, int(g.log[k].version))
		if len(pm.Path) >= 2*maxPromisePairs {
			dst = append(dst, pm)
			pm = g.newPromiseLocked(m.Origin, subPrepare)
		}
	}
	pm.New = 1
	return append(dst, pm)
}

// relayGrantLocked forwards the current proven lease grant to a refused
// candidate: Origin names the true holder, Seq 0 marks a relay (a real
// renewal's Seq is always positive, so any ack the receiver sends is
// ignored by the holder's renewal tally). Members only — the relay's
// authority is the member's own granted lease.
func (g *Group) relayGrantLocked(dst []*proto.Message, to int, now time.Time) []*proto.Message {
	if !g.member || g.grantHolder < 0 || g.grantHolder == to || !now.Before(g.grantUntil) {
		return dst
	}
	m := proto.NewMessage()
	m.Kind = proto.KindLease
	m.To = to
	m.Origin = g.grantHolder
	m.Term = g.term
	m.Epoch = g.conf.epoch
	m.Seq = 0
	m.Expiry = timeToUnix(g.grantUntil)
	return append(dst, m)
}

func (g *Group) newPromiseLocked(to, subject int) *proto.Message {
	pm := proto.NewMessage()
	pm.Kind = proto.KindPromise
	pm.To = to
	pm.Origin = g.cfg.ID
	pm.Term = g.term
	pm.Epoch = g.conf.epoch
	pm.Subject = subject
	return pm
}

func (g *Group) onPromiseLocked(m *proto.Message, term int64, now time.Time) {
	g.observeTermLocked(term)
	if term != g.term {
		return
	}
	switch m.Subject {
	case subPrepare:
		if g.role != candidate {
			return
		}
		snap := g.votes[m.Origin]
		if snap == nil {
			snap = make(map[int]int64)
			g.votes[m.Origin] = snap
		}
		for i := 0; i+1 < len(m.Path); i += 2 {
			k, v := m.Path[i], int64(m.Path[i+1])
			if v > snap[k] {
				snap[k] = v
			}
		}
		if m.New == 1 {
			g.voted[m.Origin] = true
		}
		g.maybePromoteLocked(now)
	case subAccept:
		if g.role != leader {
			return
		}
		am := g.acked[m.Origin]
		if am == nil {
			am = make(map[int]int64)
			g.acked[m.Origin] = am
		}
		if m.Seq > am[m.Key] {
			am[m.Key] = m.Seq
		}
	case subLease:
		if g.role != leader || m.Seq != g.leaseSeq {
			return
		}
		g.leaseAcks[m.Origin] = true
		granted := g.quorumOKLocked(func(id int) bool {
			return id == g.cfg.ID || g.leaseAcks[id] // our own grant counts when we are a member
		})
		if granted {
			g.lastGrant = now
			until := g.leaseSent.Add(g.lease)
			if until.UnixNano() > g.leaseGood.Load() {
				g.leaseGood.Store(until.UnixNano())
			}
		}
	}
}

func (g *Group) onAcceptLocked(dst []*proto.Message, m *proto.Message, term int64) []*proto.Message {
	if term < g.term {
		return dst // stale leader; no ack, let it stall
	}
	g.observeTermLocked(term)
	if !g.member {
		return dst
	}
	if m.Version > g.log[m.Key].version {
		g.log[m.Key] = entry{term: term, version: m.Version, expiry: m.Expiry}
		if g.cfg.Journal != nil {
			g.cfg.Journal.RecordReplica(store.ReplicaState{
				ID: g.cfg.ID, Key: m.Key, Term: term, Version: m.Version, Expiry: m.Expiry,
			})
		}
	}
	// Ack with the log head (even for duplicates), so a reordered or
	// retransmitted accept still teaches the leader where we are.
	pm := g.newPromiseLocked(m.Origin, subAccept)
	pm.Key = m.Key
	pm.Seq = g.log[m.Key].version
	return append(dst, pm)
}

func (g *Group) onLeaseLocked(dst []*proto.Message, m *proto.Message, term int64, now time.Time) []*proto.Message {
	if term < g.term {
		return dst
	}
	g.observeTermLocked(term)
	g.leaseHolder = m.Origin
	g.leaseUntil = unixToTime(m.Expiry)
	// A lease frame is proof of leadership (renewals come from the leader,
	// relays from a member vouching its own grant): record it for the
	// host's abdication decision.
	g.grantHolder = m.Origin
	g.grantUntil = g.leaseUntil
	if !g.member {
		return dst
	}
	pm := g.newPromiseLocked(m.Origin, subLease)
	pm.Seq = m.Seq
	return append(dst, pm)
}

// Tick is AppendTick into a fresh slice.
func (g *Group) Tick(now time.Time) []*proto.Message {
	return g.AppendTick(nil, now)
}

// AppendTick drives the timers: candidate prepare retransmission, leader
// lease renewal, accept anti-entropy for lagging peers, and commit
// watermark propagation. It appends the frames to send to dst and
// returns it. The host calls it from its periodic loop (the keep-alive
// cadence is fine).
func (g *Group) AppendTick(dst []*proto.Message, now time.Time) []*proto.Message {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch g.role {
	case candidate:
		// Retry cadence is staggered by id so rival candidates do not
		// re-escalate in lockstep: desynchronized rounds let one of them
		// reach the survivors first and win.
		stagger := g.lease * time.Duration(min(g.cfg.ID, 12)) / 64
		if now.Sub(g.lastPrep) < g.lease/4+stagger {
			return dst
		}
		return g.startRoundLocked(dst, now)
	case leader:
		if g.lastGrant.IsZero() {
			// First leader tick (BootLeader has no clock): start the
			// staleness window now.
			g.lastGrant = now
		}
		// Renew the lease at a third of its duration, so two consecutive
		// renewal round-trips can be lost before serving pauses.
		if g.leaseSent.IsZero() || now.Sub(g.leaseSent) >= g.lease/3 {
			g.leaseSeq++
			clear(g.leaseAcks)
			g.leaseSent = now
			for _, p := range g.peers {
				m := proto.NewMessage()
				m.Kind = proto.KindLease
				m.To = p
				m.Origin = g.cfg.ID
				m.Term = g.term
				m.Epoch = g.conf.epoch
				m.Seq = g.leaseSeq
				m.Expiry = timeToUnix(now.Add(g.lease))
				dst = append(dst, m)
			}
			// A sole-member group (degenerate R=1) self-renews.
			if len(g.peers) == 0 && g.member {
				g.leaseGood.Store(now.Add(g.lease).UnixNano())
			}
		}
		// Start the liveness clock for peers that have never answered.
		for _, p := range g.peers {
			if g.lastAck[p].IsZero() {
				g.lastAck[p] = now
			}
		}
		// A leader that won its round inside a joint config inherits the
		// unfinished reconfiguration and drives it home.
		if g.conf.joint() && g.rc == nil {
			g.rc = &reconfig{
				phase: rcJoint, add: -1,
				newSet: append([]int(nil), g.conf.cur...),
				acks:   make(map[int]bool),
			}
		}
		// Retransmit the in-flight reconfiguration phase until it acks out.
		if g.rc != nil && (g.rc.lastSend.IsZero() || now.Sub(g.rc.lastSend) >= g.lease/4) {
			g.rc.lastSend = now
			if g.rc.phase == rcXfer {
				dst = g.xferLocked(dst)
			} else {
				dst = g.confBroadcastLocked(dst)
			}
			dst = g.advanceReconfigLocked(dst, now)
		}
		// Anti-entropy: re-offer the log head to any peer behind it, and
		// advance the commit watermark when a quorum has caught up.
		for k := range g.log {
			dst = g.acceptsLocked(dst, k)
			if qa := g.quorumAcceptedLocked(k); qa > g.commitOut[k] {
				g.commitOut[k] = qa
				if qa > g.committed[k] {
					g.committed[k] = qa
				}
				e := g.log[k]
				for _, p := range g.peers {
					m := proto.NewMessage()
					m.Kind = proto.KindCommit
					m.To = p
					m.Origin = g.cfg.ID
					m.Term = e.term
					m.Epoch = g.conf.epoch
					m.Key = k
					m.Version = qa
					dst = append(dst, m)
				}
			}
		}
	}
	return dst
}

// AppendProposeReplace starts replacing the (presumed permanently dead)
// member dead with the non-member repl: first a snapshot-style state
// transfer streams the leader's accepted log to repl, then — once repl
// acks the whole snapshot — the joint config (old∧new) is journalled
// and broadcast, and once a quorum of both sets has adopted it the
// final config commits under the new set alone. Single-member deltas
// keep every old/new quorum pair intersecting, so no decision point
// exists where the two sets could diverge. Only a serving leaseholder
// with a stable config and no change in flight may propose; anything
// else returns dst, false. The frames appended to dst must be sent;
// AppendTick retransmits each phase until it completes.
func (g *Group) AppendProposeReplace(dst []*proto.Message, dead, repl int, now time.Time) ([]*proto.Message, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.role != leader || g.rc != nil || g.conf.joint() || !g.MayServe(now) {
		return dst, false
	}
	if dead == repl || repl == g.cfg.ID {
		return dst, false
	}
	isMember := false
	for _, id := range g.conf.cur {
		if id == dead {
			isMember = true
		}
		if id == repl {
			return dst, false
		}
	}
	if !isMember {
		return dst, false
	}
	newSet := make([]int, 0, len(g.conf.cur))
	for _, id := range g.conf.cur {
		if id != dead {
			newSet = append(newSet, id)
		}
	}
	newSet = append(newSet, repl)
	sort.Ints(newSet)
	g.rc = &reconfig{phase: rcXfer, add: repl, newSet: newSet, acks: make(map[int]bool), lastSend: now}
	return g.xferLocked(dst), true
}

// xferLocked appends the full state transfer for the in-flight
// replacement: a begin frame naming the current members, the default
// floor and the chunk count, then the accepted log (raised to its
// floors — the floor is the real exposure bound for keys this leader
// never bumped) as indexed key,version chunks. The whole snapshot is
// rebuilt per retransmission, so chunk indices always mean the same
// pairs within one epoch.
func (g *Group) xferLocked(dst []*proto.Message) []*proto.Message {
	rc := g.rc
	keys := make([]int, 0, len(g.log)+len(g.floors))
	for k := range g.log {
		keys = append(keys, k)
	}
	for k := range g.floors {
		if _, ok := g.log[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	chunks := (len(keys) + maxPromisePairs - 1) / maxPromisePairs
	b := g.newXferLocked(rc.add, subXferBegin)
	b.Path = append(b.Path, g.conf.cur...)
	b.Version = g.floorDef
	b.New = chunks
	dst = append(dst, b)
	for c := 0; c < chunks; c++ {
		cm := g.newXferLocked(rc.add, subXferChunk)
		cm.Version = int64(c)
		for _, k := range keys[c*maxPromisePairs : min((c+1)*maxPromisePairs, len(keys))] {
			v := g.log[k].version
			if f := g.floors[k]; f > v {
				v = f
			}
			cm.Path = append(cm.Path, k, int(v))
		}
		dst = append(dst, cm)
	}
	return dst
}

func (g *Group) newXferLocked(to, subject int) *proto.Message {
	m := proto.NewMessage()
	m.Kind = proto.KindStateXfer
	m.To = to
	m.Origin = g.cfg.ID
	m.Term = g.term
	m.Subject = subject
	m.Epoch = g.conf.epoch
	return m
}

// onXferLocked handles both ends of the state transfer: the replacement
// applies begin/chunk frames (journalling every entry before anything
// is acked, so a crash never forgets a snapshot it claimed), and the
// leader turns the completion ack into the joint config proposal.
func (g *Group) onXferLocked(dst []*proto.Message, m *proto.Message, term int64, now time.Time) []*proto.Message {
	switch m.Subject {
	case subXferBegin:
		// A transfer from a term below ours comes from a deposed or
		// partitioned ex-leader: refuse it, so a stale sender can never
		// plant a member set (or raise the floor) on a recruit that has
		// already heard from the real leadership.
		if term < g.term || m.Epoch < g.conf.epoch || len(m.Path) == 0 {
			return dst
		}
		g.observeTermLocked(term)
		if m.Epoch > g.conf.epoch {
			// A node drafted into a cluster whose config moved past its
			// boot-time member list adopts the sender's stable set first.
			g.installConfLocked(confState{epoch: m.Epoch, term: term, cur: append([]int(nil), m.Path...)}, true)
		}
		if m.Version > g.floorDef {
			g.floorDef = m.Version
		}
		if g.xferEpoch != m.Epoch || g.xferChunks != m.New || g.xferGot == nil {
			g.xferEpoch, g.xferChunks, g.xferGot = m.Epoch, m.New, make(map[int]bool)
		}
		return g.maybeXferAckLocked(dst, m.Origin)
	case subXferChunk:
		if term < g.term || g.xferGot == nil || m.Epoch != g.xferEpoch || m.Epoch < g.conf.epoch {
			return dst
		}
		g.observeTermLocked(term)
		for i := 0; i+1 < len(m.Path); i += 2 {
			k, v := m.Path[i], int64(m.Path[i+1])
			if v > g.log[k].version {
				g.log[k] = entry{term: term, version: v}
				if g.cfg.Journal != nil {
					g.cfg.Journal.RecordReplica(store.ReplicaState{
						ID: g.cfg.ID, Key: k, Term: term, Version: v,
					})
				}
			}
		}
		g.xferGot[int(m.Version)] = true
		return g.maybeXferAckLocked(dst, m.Origin)
	case subXferAck:
		g.observeTermLocked(term)
		if g.role != leader || g.rc == nil || g.rc.phase != rcXfer ||
			m.Origin != g.rc.add || m.Epoch != g.conf.epoch {
			return dst
		}
		// The replacement holds the snapshot: open the joint phase. The
		// joint config is journalled before it is proposed, so this
		// leader reboots into it rather than into the pre-change set.
		rc := g.rc
		old := append([]int(nil), g.conf.cur...)
		g.installConfLocked(confState{
			epoch: g.conf.epoch + 1, term: g.term, old: old,
			cur: append([]int(nil), rc.newSet...),
		}, true)
		rc.phase = rcJoint
		rc.acks = make(map[int]bool)
		rc.lastSend = now
		dst = g.confBroadcastLocked(dst)
		return g.advanceReconfigLocked(dst, now)
	}
	return dst
}

// maybeXferAckLocked acks the state transfer once every chunk of the
// current snapshot has been applied (and journalled).
func (g *Group) maybeXferAckLocked(dst []*proto.Message, to int) []*proto.Message {
	if g.xferGot == nil || len(g.xferGot) < g.xferChunks {
		return dst
	}
	m := g.newXferLocked(to, subXferAck)
	m.Epoch = g.xferEpoch
	return append(dst, m)
}

// onReconfigLocked handles the config-change frames: members adopt and
// journal proposed configs (idempotently re-acking retransmissions),
// the driving leader tallies adoption acks, and epoch-mismatch catch-up
// requests are answered with the config this node holds.
//
// Adoption is both term- and content-gated. A proposal from a term below
// ours is refused and taught our config (the answer's higher term steps
// the deposed proposer down), so a stale leaseholder's retransmissions
// stop polluting members that have heard from the new leadership. When
// the proposed epoch equals the held one, the membership content is
// compared: identical content re-acks idempotently, while a conflicting
// config is adopted only from a term strictly above the held config's
// adoption term — two rival leaders can never each install a different
// same-epoch config, because one of them is stale by term. Every ack
// echoes the answered proposal's term, so a driving leader only ever
// tallies acks for its own exact proposal, never a rival's same-epoch
// one — the split-brain the joint phase exists to prevent.
func (g *Group) onReconfigLocked(dst []*proto.Message, m *proto.Message, term int64, now time.Time) []*proto.Message {
	switch m.Subject {
	case subConfJoint, subConfFinal:
		if term < g.term {
			// Stale proposer (a deposed leader's retransmission): teach it.
			return append(dst, g.confRecordLocked(m.Origin))
		}
		epoch := m.Epoch
		if epoch < g.conf.epoch {
			// Old-epoch proposer (an old leader's retransmission): teach it.
			return append(dst, g.confRecordLocked(m.Origin))
		}
		var c confState
		if m.Subject == subConfJoint {
			n := m.New
			// Both resulting sets must be non-empty: a malformed frame could
			// otherwise durably install a config whose quorum can never be
			// satisfied, bricking the member for good.
			if n < 1 || n >= len(m.Path) {
				return dst
			}
			c = confState{
				epoch: epoch,
				term:  term,
				old:   append([]int(nil), m.Path[:n]...),
				cur:   append([]int(nil), m.Path[n:]...),
			}
		} else {
			if len(m.Path) == 0 {
				return dst
			}
			c = confState{epoch: epoch, term: term, cur: append([]int(nil), m.Path...)}
		}
		g.observeTermLocked(term)
		if epoch == g.conf.epoch {
			if sameConf(&c, &g.conf) {
				// Idempotent re-ack, naming the exact proposal answered (a
				// re-elected leader re-drives an inherited config under its
				// new term; the echo must follow the frame, not our journal).
				return append(dst, g.confAckLocked(m.Origin, term))
			}
			if term <= g.conf.term {
				// Conflicting same-epoch config from no newer a term: one
				// leader per term means this cannot be a legitimate rival.
				return dst
			}
			// A strictly higher term proposes a different config at our
			// epoch: its election quorum intersects whatever adopted ours,
			// so ours can never have committed — supersede it.
		}
		g.installConfLocked(c, true)
		return append(dst, g.confAckLocked(m.Origin, term))
	case subConfAck:
		g.observeTermLocked(term)
		if g.role != leader || g.rc == nil || m.Epoch != g.conf.epoch || m.Version != g.term {
			return dst
		}
		g.rc.acks[m.Origin] = true
		return g.advanceReconfigLocked(dst, now)
	case subConfNeed:
		g.observeTermLocked(term)
		if m.Epoch < g.conf.epoch {
			return append(dst, g.confRecordLocked(m.Origin))
		}
	}
	return dst
}

// advanceReconfigLocked moves the in-flight change forward whenever the
// current phase's adoption acks form a quorum: the joint phase commits
// into the final config (journalled, then broadcast), and the final
// phase completes the change. The loop handles degenerate groups whose
// own ack already is a quorum.
func (g *Group) advanceReconfigLocked(dst []*proto.Message, now time.Time) []*proto.Message {
	for g.rc != nil {
		rc := g.rc
		if rc.phase == rcXfer {
			return dst
		}
		if !g.quorumOKLocked(func(id int) bool { return id == g.cfg.ID || rc.acks[id] }) {
			return dst
		}
		if rc.phase == rcJoint {
			g.installConfLocked(confState{
				epoch: g.conf.epoch + 1, term: g.term,
				cur: append([]int(nil), rc.newSet...),
			}, true)
			rc.phase = rcFinal
			rc.acks = make(map[int]bool)
			rc.lastSend = now
			dst = g.confBroadcastLocked(dst)
			continue
		}
		g.rc = nil // final config adopted by its quorum: change complete
	}
	return dst
}

// confRecordLocked frames the config this node currently holds, for a
// proposal broadcast or a catch-up answer.
func (g *Group) confRecordLocked(to int) *proto.Message {
	m := proto.NewMessage()
	m.Kind = proto.KindReconfig
	m.To = to
	m.Origin = g.cfg.ID
	m.Term = g.term
	m.Epoch = g.conf.epoch
	if g.conf.joint() {
		m.Subject = subConfJoint
		m.New = len(g.conf.old)
		m.Path = append(m.Path, g.conf.old...)
		m.Path = append(m.Path, g.conf.cur...)
	} else {
		m.Subject = subConfFinal
		m.Path = append(m.Path, g.conf.cur...)
	}
	return m
}

// confNeedLocked asks to, which stamped a newer epoch than ours, for
// the config record we are missing.
func (g *Group) confNeedLocked(to int) *proto.Message {
	m := proto.NewMessage()
	m.Kind = proto.KindReconfig
	m.To = to
	m.Origin = g.cfg.ID
	m.Term = g.term
	m.Subject = subConfNeed
	m.Epoch = g.conf.epoch
	return m
}

// confAckLocked acknowledges that this node has adopted (and
// journalled) the config at the current epoch. echoTerm names the exact
// proposal being answered — the answered frame's proposer term, carried
// in Version — so the driving leader tallies only acks for its own
// proposal, never a rival's same-epoch one.
func (g *Group) confAckLocked(to int, echoTerm int64) *proto.Message {
	m := proto.NewMessage()
	m.Kind = proto.KindReconfig
	m.To = to
	m.Origin = g.cfg.ID
	m.Term = g.term
	m.Subject = subConfAck
	m.Version = echoTerm
	m.Epoch = g.conf.epoch
	return m
}

// confBroadcastLocked re-proposes the current config to every peer that
// has not acked the in-flight phase yet.
func (g *Group) confBroadcastLocked(dst []*proto.Message) []*proto.Message {
	for _, p := range g.peers {
		if g.rc != nil && g.rc.acks[p] {
			continue
		}
		dst = append(dst, g.confRecordLocked(p))
	}
	return dst
}

// DeadMembers reports current voting members (self excluded) that have
// answered nothing for at least horizon, as seen by a serving leader —
// the permanent-failure signal the host's replacement policy polls.
// A member merely restarting keeps answering within a lease or two, so
// a horizon of several leases only ever names members gone for good.
//
// The read is side-effect free: a peer whose liveness clock has not
// started (Tick seeds it on the leader's periodic loop) is simply not
// dead yet, so a monitoring caller polling stats can never move the
// permanent-failure horizon.
func (g *Group) DeadMembers(now time.Time, horizon time.Duration) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.role != leader {
		return nil
	}
	var dead []int
	for _, p := range g.peers {
		t := g.lastAck[p]
		if !t.IsZero() && now.Sub(t) >= horizon {
			dead = append(dead, p)
		}
	}
	return dead
}

// Epoch returns the current config epoch.
func (g *Group) Epoch() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.conf.epoch
}

// Members returns the current member set — the set being moved to, when
// a joint phase is in force.
func (g *Group) Members() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.conf.cur...)
}

// ReconfigInFlight reports an unfinished membership change: a joint
// config in force anywhere, or a change this leader is still driving.
func (g *Group) ReconfigInFlight() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rc != nil || g.conf.joint()
}

// timeToUnix and unixToTime mirror the live layer's wire-time
// convention (absolute unix seconds as float64).
func timeToUnix(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return float64(t.UnixNano()) / 1e9
}

func unixToTime(f float64) time.Time {
	if f == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(f*1e9))
}
