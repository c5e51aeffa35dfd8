package chaos

import (
	"fmt"
	"strings"
	"time"

	"dup/internal/faults"
	"dup/internal/live"
	"dup/internal/proto"
	"dup/internal/store"
	"dup/internal/transport"
)

// Invariant is one checked property and its verdict.
type Invariant struct {
	Name   string
	OK     bool
	Detail string
}

// Report is the outcome of a chaos run. For a passing run its String is a
// pure function of the configuration: same seed, same report, bytes for
// bytes — which is what makes a failing seed a reproducible bug report.
// Members and Epoch are the verdict-time roster: the invariants audit the
// cluster the churn left behind, not the initial one.
type Report struct {
	Seed       uint64
	Nodes      int
	Steps      int
	Churn      int
	Members    int
	Epoch      uint64
	Events     []Event
	Invariants []Invariant
	Passed     bool
	// Quorum and Replicas describe the replicated-authority scenario;
	// they appear in the header only when Quorum is set, so default
	// reports stay byte-identical to the pre-replica harness.
	Quorum   bool
	Replicas int
	// RootChurn marks the stale-root-path scenario; like Quorum it adds a
	// header token only when set, so default reports stay byte-identical.
	RootChurn bool
	// Reconfig marks the online-reconfiguration scenario (a replica-set
	// member killed forever and replaced); it follows the same gated-token
	// convention as Quorum and RootChurn.
	Reconfig bool
	// GiveUps is the cluster-wide reliable-delivery give-up count sampled
	// right after the schedule settles. Not part of String — the count is
	// timing-dependent — but the rootchurn test compares it against an
	// announce-off baseline of the same schedule.
	GiveUps int64
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d nodes=%d steps=%d churn=%d members=%d epoch=%d",
		r.Seed, r.Nodes, r.Steps, r.Churn, r.Members, r.Epoch)
	if r.Quorum {
		fmt.Fprintf(&b, " replicas=%d quorum", r.Replicas)
	}
	if r.RootChurn {
		b.WriteString(" rootchurn")
	}
	if r.Reconfig {
		fmt.Fprintf(&b, " replicas=%d reconfig", r.Replicas)
	}
	b.WriteString("\n")
	for _, e := range r.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	for _, iv := range r.Invariants {
		verdict := "ok"
		if !iv.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "invariant %-16s %-4s %s\n", iv.Name, verdict, iv.Detail)
	}
	if r.Passed {
		b.WriteString("PASS\n")
	} else {
		b.WriteString("FAIL\n")
	}
	return b.String()
}

// harness is one booted chaos cluster: a shared in-process fabric, one
// single-node live.Network per peer, each behind its own fault wrapper so
// every node's links can be hurt independently. The maps are keyed by
// node id because the roster changes mid-run: joins add entries, leaves
// remove them. Each node journals to its own store.Mem so a reboot event
// can recover the state a real process would have read from disk.
type harness struct {
	cfg    Config
	lcfg   live.Config
	fabric *transport.Chan
	wraps  map[int]*faults.Transport
	nets   map[int]*live.Network
	mems   map[int]*store.Mem
	dir    *live.Directory
	hot    []int
	down   map[int]bool
	rr     int
	opErr  error

	// Quorum-mode monotonicity audit: the highest version each query
	// site has resolved per key, and the first observed regression. A
	// site's resolutions must never go backwards — version order matches
	// expiry order under a single exposure stream, and the quorum floor
	// preserves that across fail-over — so any dip is a protocol bug.
	mono    map[[2]int]int64
	monoBad string
}

// liveConfig is the protocol timing a chaos run uses: fast enough that a
// dozen steps exercise several TTL generations, slow enough that repair
// paths (keep-alive detection, retransmit deadlines) get room to work.
func liveConfig(cfg Config) live.Config {
	lc := live.Config{
		Nodes:          cfg.Nodes,
		MaxDegree:      cfg.MaxDegree,
		TTL:            250 * time.Millisecond,
		Lead:           50 * time.Millisecond,
		Threshold:      2,
		HopDelay:       200 * time.Microsecond,
		KeepAliveEvery: 25 * time.Millisecond,
		DeadAfter:      90 * time.Millisecond,
		Keys:           cfg.Keys,
		Replicas:       cfg.Replicas,
		Seed:           cfg.Seed,
	}
	if cfg.RootChurn && !cfg.noAnnounce {
		// The soft-state tree beacon, scaled to the chaos clock: the path
		// expiry sits past DeadAfter (the keep-alive detector keeps first
		// claim on a dead parent) and inside the scripted partition hold,
		// so stale paths must expire while the faults are still live.
		lc.RootAnnounceEvery = 40 * time.Millisecond
		lc.RootExpireAfter = 200 * time.Millisecond
	}
	if cfg.Reconfig {
		// The permanent-failure horizon, scaled to the chaos clock: past
		// DeadAfter (a restartable crash must not trigger a replacement)
		// but short enough that a member killed a third of the way in is
		// declared gone and replaced well before the verdict.
		lc.PermanentAfter = 150 * time.Millisecond
	}
	return lc
}

// rootChurnHold is how many steps a rootchurn partition is held: at the
// default 60ms cadence that is 300ms, past the 200ms path expiry above.
const rootChurnHold = 5

func newHarness(cfg Config) (*harness, error) {
	lcfg := liveConfig(cfg)
	tree := lcfg.BuildTree()
	lcfg.Tree = tree
	h := &harness{
		cfg:    cfg,
		lcfg:   lcfg,
		fabric: transport.NewChan(transport.ChanConfig{HopDelay: lcfg.HopDelay, Seed: cfg.Seed}),
		wraps:  map[int]*faults.Transport{},
		nets:   map[int]*live.Network{},
		mems:   map[int]*store.Mem{},
		dir:    live.NewMemDirectory(tree),
		down:   map[int]bool{},
	}
	if cfg.Quorum || cfg.Reconfig {
		h.mono = map[[2]int]int64{}
	}
	for id := 0; id < cfg.Nodes; id++ {
		if err := h.spawn(id, []int{id}); err != nil {
			h.shutdown()
			return nil, err
		}
	}
	// The three highest initial ids sit deepest in a generated tree:
	// keeping them hot makes authority pushes cross the most links. The
	// schedule protects them (and node 0) from ever leaving.
	h.hot = []int{cfg.Nodes - 1, cfg.Nodes - 2, cfg.Nodes - 3}
	return h, nil
}

// spawn boots one node's Network behind a fresh fault wrapper and memory
// journal. hosts is []int{id} at startup and nil for joiners, which enter
// the cluster through Network.Join afterwards.
func (h *harness) spawn(id int, hosts []int) error {
	h.mems[id] = store.NewMem()
	h.wraps[id] = faults.Wrap(h.fabric, faults.Config{Seed: h.cfg.Seed + uint64(id)})
	nw, err := live.StartWith(h.lcfg, live.Options{
		Transport: h.wraps[id],
		Directory: h.dir,
		Hosts:     hosts,
		Journal:   h.mems[id],
	})
	if err != nil {
		return err
	}
	h.nets[id] = nw
	return nil
}

// fail records the first harness-level error; Run surfaces it instead of
// a report, because a schedule op that cannot be applied is a bug in the
// harness, not a protocol failure.
func (h *harness) fail(err error) {
	if h.opErr == nil {
		h.opErr = err
	}
}

// shutdown stops every network (closing its wrapper) and the shared fabric.
func (h *harness) shutdown() {
	for _, nw := range h.nets {
		if nw != nil {
			nw.Stop()
		}
	}
	h.fabric.Close()
}

// warmup makes the hot nodes cross the interest threshold and subscribe
// before any fault is injected.
func (h *harness) warmup() {
	for _, id := range h.hot {
		for i := 0; i < h.lcfg.Threshold+2; i++ {
			r, err := h.nets[id].Query(id, 500*time.Millisecond)
			h.sample(id, 0, r, err)
		}
	}
}

// apply plays one schedule event against the cluster.
func (h *harness) apply(e Event) {
	switch e.Op {
	case OpPartition:
		h.wraps[e.A].Block(e.B)
		h.wraps[e.B].Block(e.A)
	case OpHeal:
		h.wraps[e.A].Unblock(e.B)
		h.wraps[e.B].Unblock(e.A)
	case OpCrash:
		h.wraps[e.A].Crash()
		h.down[e.A] = true
	case OpRestart:
		h.wraps[e.A].Restart()
		delete(h.down, e.A)
	case OpKill:
		h.nets[e.A].Fail(e.A)
		h.down[e.A] = true
	case OpRevive:
		h.nets[e.A].Recover(e.A)
		delete(h.down, e.A)
	case OpLoss:
		h.wraps[e.A].SetLoss(float64(e.Pct) / 100)
	case OpCalm:
		h.wraps[e.A].SetLoss(0)
	case OpJoin:
		if err := h.spawn(e.A, nil); err != nil {
			h.fail(err)
			return
		}
		if err := h.nets[e.A].Join(e.A); err != nil {
			h.fail(err)
		}
	case OpLeave:
		nw := h.nets[e.A]
		if err := nw.Leave(e.A, 500*time.Millisecond); err != nil {
			h.fail(err)
		}
		nw.Stop()
		delete(h.nets, e.A)
		delete(h.wraps, e.A)
		delete(h.mems, e.A)
	case OpReboot:
		if err := h.nets[e.A].Reboot(e.A, h.mems[e.A].States(e.A)); err != nil {
			h.fail(err)
		}
	case OpKillForever:
		// Permanent: the wrapper refuses any later Restart, and the node is
		// marked dead in the directory so the tree re-homes around it. The
		// entry stays in h.down for good — the verdict-time checks skip it.
		h.wraps[e.A].KillForever()
		h.nets[e.A].Fail(e.A)
		h.down[e.A] = true
	}
}

// play runs the schedule: each step applies its events, issues the step's
// queries and waits StepEvery. Query errors are expected mid-fault and
// ignored; the invariants judge the end state, not the turbulence.
func (h *harness) play(events []Event) {
	byStep := map[int][]Event{}
	for _, e := range events {
		byStep[e.Step] = append(byStep[e.Step], e)
	}
	for step := 0; step <= h.cfg.Steps; step++ {
		for _, e := range byStep[step] {
			h.apply(e)
		}
		h.queries()
		time.Sleep(h.cfg.StepEvery)
	}
}

// queries keeps the hot nodes above the interest threshold and spreads
// QueriesPerStep extra queries round-robin over the current membership —
// joiners start receiving queries the step after they appear, departed
// nodes drop out of the rotation. With several keys the round-robin
// queries rotate deterministically over the key space too, so every keyed
// tree carries traffic.
func (h *harness) queries() {
	for _, id := range h.hot {
		if !h.down[id] {
			r, err := h.nets[id].Query(id, 25*time.Millisecond)
			h.sample(id, 0, r, err)
		}
	}
	members := h.dir.Members()
	for i := 0; i < h.cfg.QueriesPerStep && len(members) > 0; i++ {
		h.rr = (h.rr + 1) % len(members)
		id := members[h.rr]
		key := h.rr % h.cfg.Keys
		if nw := h.nets[id]; nw != nil && !h.down[id] {
			r, err := nw.Key(key).Query(id, 25*time.Millisecond)
			h.sample(id, key, r, err)
		}
	}
}

// sample feeds one query outcome into the quorum-mode monotonicity
// audit: a site that resolves a version below one it already resolved
// has witnessed a regression. Errors (mid-fault timeouts) carry no
// version and are ignored; outside quorum mode sampling is off.
func (h *harness) sample(id, key int, r live.QueryResult, err error) {
	if h.mono == nil || err != nil {
		return
	}
	site := [2]int{id, key}
	if prev, ok := h.mono[site]; ok && r.Version < prev {
		if h.monoBad == "" {
			h.monoBad = fmt.Sprintf("node %d resolved key %d at version %d after version %d",
				id, key, r.Version, prev)
		}
		return
	}
	h.mono[site] = r.Version
}

// checkConvergence asserts that, with the faults healed, every current
// member resolves queries to at least the authority's version within a
// bounded time. Membership is read from the directory at verdict time:
// joiners must converge like founding members, departed nodes are not
// consulted. The authority role may have moved to a promoted successor
// during the run (case 5 of the III-C repair), so the check waits for a
// hosted authority before sampling its version.
func (h *harness) checkConvergence() (bool, string) {
	deadline := time.Now().Add(8 * h.lcfg.TTL)
	rootID := h.dir.RootID()
	for h.nets[rootID] == nil {
		if time.Now().After(deadline) {
			return false, "authority departed and no successor was promoted"
		}
		time.Sleep(20 * time.Millisecond)
		rootID = h.dir.RootID()
	}
	members := h.dir.Members()
	// Permanently killed members stay in the directory roster but can never
	// answer again; they are not expected to converge (only reconfig
	// schedules leave any behind at verdict time).
	checked := 0
	for _, id := range members {
		if !h.down[id] {
			checked++
		}
	}
	for key := 0; key < h.cfg.Keys; key++ {
		in, err := h.nets[rootID].Key(key).Inspect(rootID, time.Second)
		if err != nil {
			return false, "could not inspect the authority node"
		}
		v0 := in.Version
		for _, id := range members {
			if h.down[id] {
				continue
			}
			nw := h.nets[id]
			if nw == nil {
				return false, fmt.Sprintf("member %d has no running node", id)
			}
			for {
				r, err := nw.Key(key).Query(id, 200*time.Millisecond)
				h.sample(id, key, r, err)
				if err == nil && r.Version >= v0 {
					break
				}
				if time.Now().After(deadline) {
					if h.cfg.Keys > 1 {
						return false, fmt.Sprintf("node %d never reached the authority version for key %d", id, key)
					}
					return false, fmt.Sprintf("node %d never reached the authority version", id)
				}
			}
		}
	}
	if h.cfg.Keys > 1 {
		return true, fmt.Sprintf("all %d members reached the authority version on %d keys within 8 TTLs",
			checked, h.cfg.Keys)
	}
	return true, fmt.Sprintf("all %d members reached the authority version within 8 TTLs", checked)
}

// checkConsistency asserts the subscriber lists agree with the repaired
// tree: every list entry is a real node, and every node that believes it
// is subscribed is actually reached by authority pushes. The check polls,
// because graceful unsubscribes of cooling nodes are still in flight
// right after the run; the hot nodes are kept hot so their subscriptions
// must survive.
func (h *harness) checkConsistency() (bool, string) {
	deadline := time.Now().Add(8 * h.lcfg.TTL)
	detail := ""
	for {
		var ok bool
		ok, detail = h.treeConsistent()
		if ok {
			return true, "subscriber lists agree with the repaired tree"
		}
		if time.Now().After(deadline) {
			return false, detail
		}
		for _, id := range h.hot {
			h.nets[id].Query(id, 25*time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (h *harness) treeConsistent() (bool, string) {
	members := h.dir.Members()
	isMember := make(map[int]bool, len(members))
	for _, id := range members {
		isMember[id] = true
	}
	infos := make(map[int]live.NodeInfo, len(members))
	for _, id := range members {
		if h.down[id] {
			// Permanently killed: still on the roster, but there is nothing
			// left to inspect and no list of its own to audit.
			continue
		}
		nw := h.nets[id]
		if nw == nil {
			return false, fmt.Sprintf("member %d has no running node", id)
		}
		in, err := nw.Inspect(id, time.Second)
		if err != nil {
			return false, fmt.Sprintf("could not inspect node %d", id)
		}
		infos[id] = in
	}
	for _, id := range members {
		if h.down[id] {
			continue
		}
		in := infos[id]
		// A subscriber list may contain the node itself (that is what
		// "interested" means); push targets never do. Entries pointing at
		// departed nodes mean a leave's substitute repair never landed.
		for _, t := range in.Subscribers {
			if !isMember[t] {
				return false, fmt.Sprintf("node %d lists departed or bogus subscriber %d", id, t)
			}
		}
		for _, t := range in.PushTargets {
			if !isMember[t] || t == id {
				return false, fmt.Sprintf("node %d lists departed or bogus push target %d", id, t)
			}
		}
	}
	// Push reachability: breadth-first over push edges from the authority.
	root := h.dir.RootID()
	if !isMember[root] {
		return false, fmt.Sprintf("authority %d is not a member", root)
	}
	reached := map[int]bool{root: true}
	queue := []int{root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, t := range infos[id].PushTargets {
			if !reached[t] {
				reached[t] = true
				queue = append(queue, t)
			}
		}
	}
	for _, id := range members {
		if h.down[id] {
			continue
		}
		in := infos[id]
		if id == root || in.Dead || !in.Interested {
			continue
		}
		if !reached[id] {
			return false, fmt.Sprintf("interested node %d is not reached by pushes", id)
		}
	}
	return true, ""
}

// checkLeaks stops the cluster and asserts every pooled message came back.
func (h *harness) checkLeaks(base int64) (bool, string) {
	h.shutdown()
	deadline := time.Now().Add(3 * time.Second)
	for proto.InUse() > base {
		if time.Now().After(deadline) {
			return false, fmt.Sprintf("%d pooled messages never returned", proto.InUse()-base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true, "every pooled message was returned"
}

// Run plays one full chaos run and returns its report. The cluster is
// always torn down before returning.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	base := proto.InUse()
	events := Schedule(cfg)
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	h.warmup()
	h.play(events)
	time.Sleep(2 * h.lcfg.TTL) // settle: let repairs and final pushes land
	if h.opErr != nil {
		h.shutdown()
		return nil, h.opErr
	}

	rep := &Report{
		Seed: cfg.Seed, Nodes: cfg.Nodes, Steps: cfg.Steps, Churn: cfg.Churn,
		Members: len(h.dir.Members()), Epoch: h.dir.Epoch(), Events: events,
		Quorum: cfg.Quorum, Replicas: cfg.Replicas, RootChurn: cfg.RootChurn,
		Reconfig: cfg.Reconfig,
	}
	for _, nw := range h.nets {
		rep.GiveUps += nw.Stats().RetransmitGiveUps
	}
	add := func(name string, ok bool, detail string) {
		rep.Invariants = append(rep.Invariants, Invariant{Name: name, OK: ok, Detail: detail})
	}
	convOK, convDetail := h.checkConvergence()
	add("convergence", convOK, convDetail)
	monoOK := true
	if cfg.Quorum || cfg.Reconfig {
		var monoDetail string
		monoOK, monoDetail = h.checkMonotone()
		add("monotone-versions", monoOK, monoDetail)
	}
	reconfOK := true
	if cfg.Reconfig {
		var reconfDetail string
		reconfOK, reconfDetail = h.checkQuorumRestored()
		add("quorum-restored", reconfOK, reconfDetail)
	}
	staleOK := true
	if cfg.RootChurn && !cfg.noAnnounce {
		var staleDetail string
		staleOK, staleDetail = h.checkStaleExpiry()
		add("stale-expiry", staleOK, staleDetail)
	}
	treeOK, treeDetail := h.checkConsistency()
	add("tree-consistency", treeOK, treeDetail)
	leakOK, leakDetail := h.checkLeaks(base)
	add("no-leak", leakOK, leakDetail)
	rep.Passed = convOK && monoOK && reconfOK && staleOK && treeOK && leakOK
	return rep, nil
}

// checkQuorumRestored reports the reconfiguration verdict: the member the
// schedule killed forever was replaced — the config epoch advanced through
// the joint phase to a new stable set (one replacement is two epoch bumps),
// the set is back at full strength, nothing is left in flight, and no
// current member is past the permanent-failure horizon. The passing detail
// is constant so passing reports stay byte-identical.
func (h *harness) checkQuorumRestored() (bool, string) {
	deadline := time.Now().Add(8 * h.lcfg.TTL)
	var last live.Stats
	for {
		now := time.Now()
		var s live.Stats
		for id, nw := range h.nets {
			if h.down[id] {
				continue
			}
			st := nw.Stats()
			if st.QuorumMembers > 0 && (s.QuorumMembers == 0 || st.ConfigEpoch > s.ConfigEpoch) {
				s.ConfigEpoch, s.QuorumMembers = st.ConfigEpoch, st.QuorumMembers
			}
			if st.ReconfigInFlight {
				s.ReconfigInFlight = true
			}
			if st.PermSuspects > s.PermSuspects {
				s.PermSuspects = st.PermSuspects
			}
		}
		last = s
		if s.ConfigEpoch >= 2 && s.QuorumMembers == h.cfg.Replicas &&
			!s.ReconfigInFlight && s.PermSuspects == 0 {
			return true, "the dead member was replaced and the quorum returned to full strength"
		}
		if now.After(deadline) {
			return false, fmt.Sprintf("epoch=%d members=%d inflight=%v permsuspect=%d after 8 TTLs",
				last.ConfigEpoch, last.QuorumMembers, last.ReconfigInFlight, last.PermSuspects)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkStaleExpiry reports the rootchurn verdict: at least one node
// noticed its root sequence had stopped advancing — behind a parent that
// was alive and acking the whole time — and re-homed by expiry. The
// passing detail is constant so passing reports stay byte-identical;
// only the failing detail carries the count.
func (h *harness) checkStaleExpiry() (bool, string) {
	var n int64
	for _, nw := range h.nets {
		n += nw.Stats().RootExpiries
	}
	if n == 0 {
		return false, "no node ever expired a stale root path by sequence timeout"
	}
	return true, "stale root paths expired by sequence timeout and re-homed"
}

// checkMonotone reports the quorum-mode monotonicity verdict: across
// the partition, the kill and the fail-over, no query site ever
// resolved a version below one it had already resolved.
func (h *harness) checkMonotone() (bool, string) {
	if h.monoBad != "" {
		return false, h.monoBad
	}
	return true, "no query site ever resolved a version below one it had already resolved"
}
