package live

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dup/internal/proto"
	"dup/internal/raceflag"
	"dup/internal/store"
	"dup/internal/topology"
	"dup/internal/transport"
)

// holdTransport parks every message hold selects instead of sending it,
// until release lets the ones keep selects go (in arrival order).
type holdTransport struct {
	transport.Transport
	mu   sync.Mutex
	hold func(*proto.Message) bool
	held []*proto.Message
}

func (h *holdTransport) Send(m *proto.Message) {
	h.mu.Lock()
	if h.hold != nil && h.hold(m) {
		h.held = append(h.held, m)
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	h.Transport.Send(m)
}

func (h *holdTransport) heldCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.held)
}

func (h *holdTransport) release(keep func(*proto.Message) bool) {
	h.mu.Lock()
	var out, rest []*proto.Message
	for _, m := range h.held {
		if keep(m) {
			out = append(out, m)
		} else {
			rest = append(rest, m)
		}
	}
	h.held = rest
	h.mu.Unlock()
	for _, m := range out {
		h.Transport.Send(m)
	}
}

// discard releases everything still parked back to the message pool.
func (h *holdTransport) discard() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, m := range h.held {
		proto.Release(m)
	}
	h.held = nil
}

// TestLateReplyNeverReachesLaterQuery times a miss out while its reply is
// held in the network, keeps waiting on lanes from the same goroutine —
// which is what would draw a wrongly recycled waiter back out of the pool
// — and then lets the late reply arrive while another query is in flight.
// Every caller must get its own outcome, and the abandoned queries' pending
// entries must be gone afterwards: the first removed by its late reply, a
// second, whose reply never comes, by tick.
func TestLateReplyNeverReachesLaterQuery(t *testing.T) {
	//   0 - 1 - 2
	cfg := DefaultConfig()
	cfg.Tree = topology.FromParents([]int{-1, 0, 1})
	cfg.Keys = 2
	cfg.Threshold = 1000 // nobody subscribes: every query goes to a lane
	cfg.HopDelay = 0
	hold := &holdTransport{Transport: transport.NewChan(transport.ChanConfig{Seed: cfg.Seed})}
	// Hold replies on their last hop, back into the querying node — alone
	// or coalesced into an envelope with whatever else was bound there.
	lastHop := func(m *proto.Message) bool { return m.Kind == proto.KindReply && len(m.Path) == 0 }
	hold.hold = func(m *proto.Message) bool {
		for _, sub := range m.Batch {
			if sub != nil && lastHop(sub) {
				return true
			}
		}
		return lastHop(m)
	}
	nw, err := StartWith(cfg, Options{
		Transport: hold,
		Directory: NewMemDirectory(cfg.Tree),
		Hosts:     []int{0, 1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	defer hold.discard()
	inUse := proto.InUse()

	// A: a miss at node 2 (two hops) whose reply is held past its timeout.
	const short = 30 * time.Millisecond
	if r, err := nw.Key(0).Query(2, short); !errors.Is(err, ErrTimeout) {
		t.Fatalf("query A = %+v, %v; want a timeout", r, err)
	}
	waitUntil(t, time.Second, "reply A held", func() bool { return hold.heldCount() == 1 })

	// Waits that complete at once, from the same goroutine.
	for i := 0; i < 4; i++ {
		in, err := nw.Key(1).Inspect(2, time.Second)
		if err != nil || in.ID != 2 || in.Key != 1 {
			t.Fatalf("inspect after the timeout = %+v, %v", in, err)
		}
	}

	// B: a miss at node 1 (one hop), also held. While B waits, A's reply is
	// let through, and only later B's own.
	released := make(chan struct{})
	go func() {
		defer close(released)
		deadline := time.Now().Add(2 * time.Second)
		for hold.heldCount() < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		hold.release(func(m *proto.Message) bool { return m.To == 2 })
		time.Sleep(50 * time.Millisecond)
		hold.release(func(m *proto.Message) bool { return m.To == 1 })
	}()
	r, err := nw.Key(1).Query(1, 3*time.Second)
	<-released
	if err != nil {
		t.Fatalf("query B: %v", err)
	}
	if r.Hops != 1 || r.Local {
		t.Fatalf("query B got %+v: not its own one-hop answer (A's late reply travelled two hops)", r)
	}

	// C: a miss whose reply never arrives. tick drops its pending entry once
	// the caller's timeout plus a second of grace has passed.
	if r, err := nw.Key(1).Query(2, short); !errors.Is(err, ErrTimeout) {
		t.Fatalf("query C = %+v, %v; want a timeout", r, err)
	}
	time.Sleep(short + time.Second + 3*cfg.KeepAliveEvery)
	hold.discard()
	n := nw.node(2)
	nw.Stop() // the lanes have exited: their state is safe to read
	for _, l := range n.lanes {
		if len(l.pending) != 0 {
			t.Fatalf("lane %d still holds %d pending queries", l.idx, len(l.pending))
		}
	}
	waitUntil(t, time.Second, "pooled messages to balance", func() bool { return proto.InUse() <= inUse })
}

// sinkTransport counts what it is sent by kind and releases it. It is for
// nodes driven from the test goroutine alone.
type sinkTransport struct{ kinds [proto.NumKinds]int }

func (s *sinkTransport) Register(int, transport.Handler) {}
func (s *sinkTransport) Send(m *proto.Message) {
	s.kinds[m.Kind]++
	proto.Release(m)
}
func (s *sinkTransport) Drops() int64                     { return 0 }
func (s *sinkTransport) KindDrops() [proto.NumKinds]int64 { return [proto.NumKinds]int64{} }
func (s *sinkTransport) Close() error                     { return nil }

// countJournal counts the records a lane writes.
type countJournal struct{ records int }

func (j *countJournal) Record(store.NodeState) { j.records++ }

// bareNode builds node id of tree with no goroutine running, so a test can
// drive its lane-0 handlers directly on the test goroutine.
func bareNode(tree *topology.Tree, id int, journal store.Journal) *node {
	cfg := DefaultConfig()
	cfg.Tree = tree
	nw := &Network{
		cfg:      cfg,
		tr:       &sinkTransport{},
		dir:      NewMemDirectory(tree),
		journal:  journal,
		size:     tree.N(),
		hosted:   map[int]*node{},
		keyStats: map[int]*keyCounters{},
	}
	n := newNode(nw, id, tree.Parent(id))
	nw.hosted[id] = n
	return n
}

func skipAllocsUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
}

// TestLocalHitQueryAllocs pins a hit on a subscribed node, and on the
// authority, at zero allocations: it is served on the caller's goroutine,
// with no waiter, no timer and no control-queue slot.
func TestLocalHitQueryAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	cfg := DefaultConfig()
	cfg.Tree = topology.FromParents([]int{-1, 0, 1})
	cfg.Threshold = 1
	cfg.HopDelay = 0
	nw, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	for i := 0; i < cfg.Threshold+1; i++ {
		query(t, nw, 2, time.Second)
	}
	waitUntil(t, 2*time.Second, "node 2 to subscribe", func() bool {
		in, err := nw.Inspect(2, time.Second)
		return err == nil && in.Interested && in.HaveCopy
	})
	h := nw.Key(0)
	for _, at := range []int{2, 0} {
		allocs := testing.AllocsPerRun(1000, func() {
			if r, err := h.Query(at, time.Second); err != nil || !r.Local {
				t.Fatalf("query at %d = %+v, %v; want a local hit", at, r, err)
			}
		})
		if allocs != 0 {
			t.Errorf("local hit at node %d allocates %.0f objects, want 0", at, allocs)
		}
	}
}

// TestRecordUnchangedAllocs pins the journal check a lane runs after every
// wake-up at zero allocations, and zero records, while nothing changed.
func TestRecordUnchangedAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	j := &countJournal{}
	n := bareNode(topology.FromParents([]int{-1, 0, 1, 1}), 1, j)
	l := n.lanes[0]
	for k := 0; k < 8; k++ {
		sh := l.shard(k)
		sh.st.AdoptSubscriber(2)
		sh.st.AdoptSubscriber(3)
		l.storeIn(sh, int64(k), time.Now().Add(time.Minute).UnixNano())
	}
	l.record()
	if j.records != 8 {
		t.Fatalf("first record wrote %d records, want 8", j.records)
	}
	if allocs := testing.AllocsPerRun(100, l.record); allocs != 0 {
		t.Errorf("record on unchanged state allocates %.0f objects, want 0", allocs)
	}
	if j.records != 8 {
		t.Errorf("record on unchanged state wrote %d more records", j.records-8)
	}
	l.lookup(3).st.AdoptSubscriber(9)
	l.record()
	if j.records != 9 {
		t.Errorf("a changed subscriber list wrote %d records, want 1", j.records-8)
	}
}

// TestRecordChangedAllocs pins the record a version bump writes: one
// record, with the unchanged subscriber list refilled into the last
// record's buffer instead of a fresh copy.
func TestRecordChangedAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	j := &countJournal{}
	n := bareNode(topology.FromParents([]int{-1, 0, 1, 1}), 1, j)
	l := n.lanes[0]
	sh := l.shard(0)
	sh.st.AdoptSubscriber(2)
	sh.st.AdoptSubscriber(3)
	exp := time.Now().Add(time.Minute).UnixNano()
	var v int64
	bump := func() {
		v++
		l.storeIn(sh, v, exp)
		l.record()
	}
	bump()
	if allocs := testing.AllocsPerRun(100, bump); allocs != 0 {
		t.Errorf("recording a version bump allocates %.0f objects, want 0", allocs)
	}
	before := j.records
	bump()
	if got := j.records - before; got != 1 {
		t.Errorf("a version bump wrote %d records, want 1", got)
	}
}

// TestInspectAllocs pins Inspect of a subscribed node at one allocation:
// the array behind Keys, Subscribers and PushTargets.
func TestInspectAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	cfg := DefaultConfig()
	cfg.Tree = topology.FromParents([]int{-1, 0, 1})
	cfg.Threshold = 1
	cfg.HopDelay = 0
	nw, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	for i := 0; i < cfg.Threshold+1; i++ {
		query(t, nw, 2, time.Second)
	}
	waitUntil(t, 2*time.Second, "node 2 to subscribe", func() bool {
		in, err := nw.Inspect(2, time.Second)
		return err == nil && in.Interested && in.HaveCopy
	})
	allocs := testing.AllocsPerRun(1000, func() {
		in, err := nw.Inspect(1, time.Second)
		if err != nil || len(in.Keys) != 1 || len(in.Subscribers) != 1 || len(in.PushTargets) != 1 {
			t.Fatalf("Inspect(1) = %+v, %v; want one key, subscriber and push target", in, err)
		}
	})
	if allocs > 1 {
		t.Errorf("Inspect allocates %.0f objects, want at most 1", allocs)
	}
}

// TestInspectSlicesDoNotAlias checks that the three lists Inspect carves
// out of one array are independent: appending to one never writes into
// the next.
func TestInspectSlicesDoNotAlias(t *testing.T) {
	n := bareNode(topology.FromParents([]int{-1, 0, 1, 1}), 1, nil)
	l := n.lanes[0]
	sh := l.shard(0)
	for _, id := range []int{1, 2, 3} {
		sh.st.AdoptSubscriber(id)
	}
	in := l.info(0)
	subs := append([]int(nil), in.Subscribers...)
	targets := append([]int(nil), in.PushTargets...)
	_ = append(in.Keys, -1, -1, -1, -1)
	_ = append(in.Subscribers, -1, -1)
	if !slices.Equal(in.Subscribers, subs) || !slices.Equal(in.PushTargets, targets) {
		t.Fatalf("appending to Keys or Subscribers changed them: Subscribers %v (want %v), PushTargets %v (want %v)",
			in.Subscribers, subs, in.PushTargets, targets)
	}
	if !slices.Equal(in.Keys, []int{0}) || !slices.Equal(subs, []int{1, 2, 3}) || !slices.Equal(targets, []int{2, 3}) {
		t.Fatalf("Keys %v, Subscribers %v, PushTargets %v; want [0], [1 2 3] and [2 3]", in.Keys, subs, targets)
	}
}

// TestPushForwardAllocs pins apply-and-forward of a push on a branch node
// (ack, dedup, cache refresh, one tracked push per target, flush) at zero
// allocations amortised.
func TestPushForwardAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	n := bareNode(topology.FromParents([]int{-1, 0, 1, 1}), 1, nil)
	l := n.lanes[0]
	sh := l.shard(0)
	for _, id := range []int{1, 2, 3} { // itself and both children: a branch node
		sh.st.AdoptSubscriber(id)
	}
	inUse := proto.InUse()
	var seq int64
	push := func() {
		seq++
		m := proto.NewMessage()
		m.Kind, m.To, m.Origin = proto.KindPush, 1, 0
		m.Seq, m.Version = seq, seq
		m.Expiry = nsToUnix(time.Now().Add(time.Minute).UnixNano())
		l.handleMsg(m, false)
		l.flush()
	}
	for i := 0; i < 2*dedupWindow; i++ { // fill the dedup window and the freelists
		push()
	}
	if allocs := testing.AllocsPerRun(1000, push); allocs != 0 {
		t.Errorf("apply-and-forward of a push allocates %.0f objects, want 0", allocs)
	}
	if v, _ := sh.cache.load(); v != seq || len(l.unacked) != 2 {
		t.Fatalf("after %d pushes: cached version %d, %d unacked; want %d and 2", seq, v, len(l.unacked), seq)
	}
	if got := proto.InUse(); got != inUse {
		t.Errorf("pooled messages in use moved %d -> %d", inUse, got)
	}
}

// TestMembershipFluxAllocs pins tree maintenance through a virtual-path
// node at zero allocations amortised: children subscribe, make node 1 a
// branch point, substitute and unsubscribe, each message arriving through
// handleMsg, its upstream action leaving through flush and the parent's
// ack settling it.
func TestMembershipFluxAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	n := bareNode(topology.FromParents([]int{-1, 0, 1, 1}), 1, nil)
	l := n.lanes[0]
	sh := l.shard(0)
	inUse := proto.InUse()
	var seq int64
	step := func(kind proto.Kind, from, subject, old, new int, emits bool) {
		seq++
		m := proto.NewMessage()
		m.Kind, m.To, m.Origin, m.Seq = kind, 1, from, seq
		m.Subject, m.Old, m.New = subject, old, new
		l.handleMsg(m, false)
		l.flush()
		if !emits {
			return
		}
		if len(l.unacked) != 1 {
			t.Fatalf("%v from %d: %d unacked upstream, want 1", kind, from, len(l.unacked))
		}
		ack := proto.NewMessage()
		ack.Kind, ack.To, ack.Origin = proto.KindAck, 1, 0
		ack.Seq, ack.Subject = l.relSeq, int(kind)
		l.handleMsg(ack, false)
	}
	flux := func() {
		step(proto.KindSubscribe, 2, 2, 0, 0, true)   // subscribe(2)
		step(proto.KindSubscribe, 3, 3, 0, 0, true)   // a branch point: substitute(2, 1)
		step(proto.KindSubstitute, 3, 0, 3, 7, false) // still a branch point
		step(proto.KindUnsubscribe, 3, 7, 0, 0, true) // leaves the tree: substitute(1, 2)
		step(proto.KindUnsubscribe, 2, 2, 0, 0, true) // empty: unsubscribe(2)
	}
	for i := 0; i < 2*dedupWindow; i++ { // fill the dedup window and the freelists
		flux()
	}
	if allocs := testing.AllocsPerRun(200, flux); allocs != 0 {
		t.Errorf("membership flux allocates %.0f objects, want 0", allocs)
	}
	if sh.st.Len() != 0 || len(l.unacked) != 0 {
		t.Fatalf("after the flux: list %v, %d unacked; want empty and 0", sh.st.Subscribers(), len(l.unacked))
	}
	if got := proto.InUse(); got != inUse {
		t.Errorf("pooled messages in use moved %d -> %d", inUse, got)
	}
}

// TestConcurrentHotKeyReads has eight goroutines query one hot (node, key)
// — mostly inline hits — while the authority republishes every 60 ms and
// the test crashes and recovers the node, takes it out of and back into
// the key's tree, and fails the replicated authority over.
func TestConcurrentHotKeyReads(t *testing.T) {
	//   0 - {1, 2, 3, 4};  1 - 5, 2 - 6, 3 - 7, 4 - {8, 9}
	const hot, key = 4, 1 // a child of the root outside the replica set
	cfg := DefaultConfig()
	cfg.Tree = topology.FromParents([]int{-1, 0, 0, 0, 0, 1, 2, 3, 4, 4})
	cfg.Replicas = 3
	cfg.Keys = 2
	cfg.ShardLoops = 2
	cfg.Threshold = 1
	cfg.HopDelay = 0
	cfg.TTL = 80 * time.Millisecond
	cfg.Lead = 20 * time.Millisecond
	cfg.KeepAliveEvery = 8 * time.Millisecond
	cfg.DeadAfter = 40 * time.Millisecond
	cfg.RootAnnounceEvery = 20 * time.Millisecond
	inUse := proto.InUse()
	nw, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	h := nw.Key(key)

	// issued counts the queries a lane or the inline path took on: every
	// one of them, answered or timed out, is one Stats.Queries.
	var issued atomic.Int64
	ask := func() (QueryResult, error) {
		r, err := h.Query(hot, 20*time.Millisecond)
		if err == nil || errors.Is(err, ErrTimeout) {
			issued.Add(1)
		}
		return r, err
	}
	waitUntil(t, 3*time.Second, "the hot node to hit inline", func() bool {
		r, err := ask()
		return err == nil && r.Local
	})

	// down is odd exactly while the test holds the hot node crashed: a
	// query that starts and ends inside one odd value ran against a dead
	// node from start to finish.
	var down atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				d0, t0 := down.Load(), time.Now()
				r, err := ask()
				if err == nil {
					if d0%2 == 1 && down.Load() == d0 {
						t.Errorf("goroutine %d: dead node answered %+v", g, r)
						return
					}
					if r.Version < last {
						t.Errorf("goroutine %d: resolved version %d after %d", g, r.Version, last)
						return
					}
					last = r.Version
					// If the copy that answered is still the published one,
					// its expiry is on hand: it must not have passed before
					// the query began.
					if sh := nw.node(hot).laneForKey(key).lookup(key); r.Local && sh != nil && !sh.root.Load() {
						if v, exp := sh.cache.load(); v == r.Version && exp != 0 && exp <= t0.UnixNano() {
							t.Errorf("goroutine %d: hit on version %d, expired %v before the query",
								g, v, t0.Sub(time.Unix(0, exp)))
							return
						}
					}
				}
				time.Sleep(100 * time.Microsecond)
			}
		}(g)
	}

	pause := func() { time.Sleep(cfg.TTL / 4) }
	for i := 0; i < 3; i++ {
		nw.Fail(hot)
		down.Add(1)
		pause()
		down.Add(1)
		nw.Recover(hot)
		pause()
		if err := h.Leave(hot); err != nil {
			t.Error(err)
		}
		pause()
		if err := h.Join(hot); err != nil {
			t.Error(err)
		}
		pause()
	}
	nw.Fail(0)
	waitUntil(t, 5*time.Second, "a new authority", func() bool { return nw.RootID() != 0 })
	time.Sleep(2 * cfg.TTL)
	nw.Recover(0)
	time.Sleep(2 * cfg.TTL)
	close(stop)
	wg.Wait()

	// Inspect drains each lane's control queue behind the last query.
	for k := 0; k < cfg.Keys; k++ {
		if _, err := nw.Key(k).Inspect(hot, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	s := nw.Stats()
	if s.Queries != issued.Load() {
		t.Errorf("Stats.Queries = %d, queries issued = %d", s.Queries, issued.Load())
	}
	if s.LocalHits > s.Queries || s.LocalHits == 0 {
		t.Errorf("Stats.LocalHits = %d of %d queries", s.LocalHits, s.Queries)
	}
	nw.Stop()
	waitUntil(t, 2*time.Second, "pooled messages to balance", func() bool { return proto.InUse() == inUse })
}

// TestInlineHitsCountForInterest checks that hits served off the lane feed
// the interest policy exactly as lane-served ones, on a node driven by hand
// so that interval boundaries fall where the test puts them. Figure 3 (A):
// hit refuses — without counting — until the node is subscribed, and the
// (Threshold+1)-th query of an interval, through the lane, emits the one
// subscribe. Figure 3 (D): more than Threshold inline hits per interval keep
// the node subscribed across five boundaries; Threshold of them do not.
func TestInlineHitsCountForInterest(t *testing.T) {
	for _, threshold := range []int{1, 2} {
		tr := &sinkTransport{}
		n := bareNode(topology.FromParents([]int{-1, 0}), 1, nil)
		n.nw.tr = tr
		n.nw.cfg.Threshold = threshold
		n.nw.cfg.RootAnnounceEvery = 0 // no root path to expire under a hand-made clock
		ttl := n.nw.cfg.TTL
		l := n.lanes[0]
		sh := l.shard(0)
		now := time.Now()
		sh.intervalStart = now
		l.storeIn(sh, 7, now.Add(100*ttl).UnixNano())
		boundary := func() {
			now = now.Add(ttl)
			// The parent is alive and acknowledges everything: repair is
			// not what this test is about.
			n.sawParentAck(now)
			for seq, e := range l.unacked {
				l.settle(seq, e.to)
			}
			l.tick(now)
			l.flush()
		}
		inlineHits := func(k int) {
			t.Helper()
			for i := 0; i < k; i++ {
				if v, ok := n.hit(0, now); !ok || v != 7 {
					t.Fatalf("threshold %d: inline hit = %d, %v; want version 7", threshold, v, ok)
				}
			}
		}

		for q := 1; q <= threshold+1; q++ {
			if _, ok := n.hit(0, now); ok {
				t.Fatalf("threshold %d: query %d was served inline on an unsubscribed node", threshold, q)
			}
			if got := sh.count.Load(); got != int64(q-1) {
				t.Fatalf("threshold %d: a refused inline hit was counted: count %d before query %d", threshold, got, q)
			}
			if got := n.nw.stats.subscribes.Load(); got != 0 {
				t.Fatalf("threshold %d: %d subscribes before query %d", threshold, got, q)
			}
			w := getWaiter()
			l.control(ctrlMsg{kind: cQuery, key: 0, w: w})
			if !w.wait(time.Second) || !w.res.Local || w.res.Version != 7 {
				t.Fatalf("threshold %d: lane query %d = %+v", threshold, q, w.res)
			}
			putWaiter(w)
		}
		l.flush()
		if got := n.nw.stats.subscribes.Load(); got != 1 || tr.kinds[proto.KindSubscribe] != 1 {
			t.Fatalf("threshold %d: query %d made %d subscribes (%d sent), want 1",
				threshold, threshold+1, got, tr.kinds[proto.KindSubscribe])
		}
		inlineHits(1) // subscribed now: the same query is served off the lane
		if q, h := n.nw.stats.queries.Load(), n.nw.stats.localHits.Load(); q != int64(threshold+2) || h != q {
			t.Fatalf("threshold %d: %d queries and %d local hits after %d answered", threshold, q, h, threshold+2)
		}

		boundary()
		for i := 0; i < 5; i++ {
			inlineHits(threshold + 1)
			boundary()
			if !sh.st.Interested() || !sh.interested.Load() {
				t.Fatalf("threshold %d: lost interest at boundary %d after %d inline hits", threshold, i+1, threshold+1)
			}
		}
		inlineHits(threshold)
		boundary()
		if sh.st.Interested() || sh.interested.Load() || tr.kinds[proto.KindUnsubscribe] != 1 {
			t.Fatalf("threshold %d: still subscribed after an interval of %d inline hits (%d unsubscribes sent)",
				threshold, threshold, tr.kinds[proto.KindUnsubscribe])
		}
		if _, ok := n.hit(0, now); ok {
			t.Fatalf("threshold %d: served inline after losing interest", threshold)
		}
		if got := n.nw.stats.subscribes.Load(); got != 1 {
			t.Fatalf("threshold %d: %d subscribes in all, want 1", threshold, got)
		}
	}
}
