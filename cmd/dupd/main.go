// Command dupd runs the hosted part of a DUP cluster as a daemon: the
// same protocol state machine the simulator and the in-process live
// network use, but over real TCP sockets via dup/internal/transport.
//
// Every process of a cluster must be started with the same -nodes,
// -degree, -seed and -shards so they derive the identical index search
// tree and route keyed traffic onto matching shard lanes; each
// process then hosts a disjoint subset of the node ids (-host) and knows
// where the others live (-peers). Node 0 is the authority for the index.
//
// A three-process loopback cluster of nine nodes:
//
//	dupd -listen 127.0.0.1:7070 -host 0,1,2 -authority \
//	     -peers '3=127.0.0.1:7071,4=127.0.0.1:7071,5=127.0.0.1:7071,6=127.0.0.1:7072,7=127.0.0.1:7072,8=127.0.0.1:7072'
//	dupd -listen 127.0.0.1:7071 -host 3,4,5 -peers '0=127.0.0.1:7070,...,8=127.0.0.1:7072'
//	dupd -listen 127.0.0.1:7072 -host 6,7,8 -peers '0=127.0.0.1:7070,...,5=127.0.0.1:7071' -query 8
//
// With -query the daemon issues periodic index queries at a hosted node
// and logs each result; with -stats it logs the network counters. It
// stops cleanly on SIGINT/SIGTERM or after -run elapses, and exits
// non-zero when the run ended because the transport died underneath it.
//
// With -state-dir the daemon journals every hosted node's protocol state
// (role, version, subscriber list) to an append-only log in that
// directory and, on startup, resumes whatever a previous incarnation
// recorded there: a restarted authority continues from its pre-crash
// index version instead of regressing to zero.
//
// With -replicas R nodes 0..R-1 form a quorum-replicated authority:
// the leaseholder's version stream is accepted by a majority before it
// is exposed, so SIGKILLing the leaseholder's process promotes a
// follower that serves at or above every version the old one ever
// answered with. Combine with -state-dir so a restarted quorum member
// rejoins with its durable accept log intact.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dup/internal/live"
	"dup/internal/store"
	"dup/internal/transport"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("dupd ")

	cfg := live.DefaultConfig()
	listen := flag.String("listen", "127.0.0.1:7070", "address to accept cluster traffic on")
	hostList := flag.String("host", "", "comma-separated node ids this daemon hosts (required)")
	peerList := flag.String("peers", "", "remote nodes as comma-separated id=host:port pairs")
	authority := flag.Bool("authority", false, "assert that this daemon hosts the authority node 0")
	flag.IntVar(&cfg.Nodes, "nodes", cfg.Nodes, "total cluster size n (identical on every process)")
	flag.IntVar(&cfg.MaxDegree, "degree", cfg.MaxDegree, "maximum node degree D (identical on every process)")
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "topology seed (identical on every process)")
	flag.DurationVar(&cfg.TTL, "ttl", cfg.TTL, "index version lifetime")
	flag.DurationVar(&cfg.Lead, "lead", cfg.Lead, "push lead before each expiry")
	flag.IntVar(&cfg.Threshold, "c", cfg.Threshold, "interest threshold c per TTL interval")
	flag.DurationVar(&cfg.KeepAliveEvery, "keepalive", cfg.KeepAliveEvery, "keep-alive period")
	flag.DurationVar(&cfg.DeadAfter, "deadafter", cfg.DeadAfter, "missed-ack window before a peer is declared failed")
	queryAt := flag.Int("query", -1, "issue periodic queries at this hosted node id (-1 disables)")
	queryEvery := flag.Duration("every", 500*time.Millisecond, "query period (with -query)")
	statsEvery := flag.Duration("stats", 0, "log network counters this often (0 disables)")
	runFor := flag.Duration("run", 0, "exit after this long (0 = until SIGINT/SIGTERM)")
	stateDir := flag.String("state-dir", "", "journal hosted nodes' state here and recover it on restart")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")
	flag.IntVar(&cfg.Keys, "keys", cfg.Keys, "keyed index trees per node at boot (0 means 1)")
	flag.IntVar(&cfg.ShardLoops, "shards", cfg.ShardLoops, "shard lanes per node, keys spread key mod L (identical on every process; 0 means 1)")
	flag.IntVar(&cfg.Replicas, "replicas", cfg.Replicas, "authority replication factor R: nodes 0..R-1 form the quorum (identical on every process; 0 or 1 disables)")
	flag.DurationVar(&cfg.PermanentAfter, "perm-after", cfg.PermanentAfter, "silence horizon before the leaseholder declares a quorum member gone for good and replaces it (0 disables; must exceed -deadafter)")
	flag.DurationVar(&cfg.RootAnnounceEvery, "announce-every", cfg.RootAnnounceEvery, "root sequence beacon period for the self-healing tree (0 disables)")
	flag.DurationVar(&cfg.RootExpireAfter, "announce-expire", cfg.RootExpireAfter, "root path staleness bound before a node re-homes by score (0 means 4x -announce-every)")
	flag.Parse()

	hosts, err := parseIDs(*hostList)
	if err != nil {
		return fail(fmt.Errorf("-host: %w", err))
	}
	if len(hosts) == 0 {
		return fail(fmt.Errorf("-host is required (which node ids does this daemon run?)"))
	}
	peers, err := parsePeers(*peerList)
	if err != nil {
		return fail(fmt.Errorf("-peers: %w", err))
	}
	hosted := make(map[int]bool, len(hosts))
	for _, id := range hosts {
		hosted[id] = true
	}
	if *authority != hosted[0] {
		return fail(fmt.Errorf("-authority=%v but -host %s: the authority is node 0", *authority, *hostList))
	}
	for id := range peers {
		if hosted[id] {
			delete(peers, id) // local ids never cross the socket
		}
	}

	// Profiling: pprof runs on its own listener so the protocol port stays
	// clean, and only when asked for.
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	// Durable state: open (or create) the journal and collect whatever a
	// previous incarnation recorded for the ids we are about to host —
	// one record per keyed index tree the node participated in.
	var st *store.Store
	var recovered map[int][]store.NodeState
	var recoveredReplicas map[int][]store.ReplicaState
	var recoveredConfigs map[int]store.ReplicaConfig
	if *stateDir != "" {
		st, err = store.Open(*stateDir)
		if err != nil {
			return fail(fmt.Errorf("-state-dir: %w", err))
		}
		recovered = map[int][]store.NodeState{}
		recoveredReplicas = map[int][]store.ReplicaState{}
		for _, id := range hosts {
			states := st.States(id)
			if len(states) == 0 {
				continue
			}
			recovered[id] = states
			ns := states[0]
			if ns.IsRoot {
				log.Printf("recovered node %d as authority at version %d (%d keys)", id, ns.Version, len(states))
			} else {
				log.Printf("recovered node %d (parent %d, %d subscribers, %d keys)", id, ns.Parent, len(ns.Subscribers), len(states))
			}
		}
		// Replica log state is recovered independently of protocol state:
		// a restarted quorum member must rejoin with everything it ever
		// durably accepted, or the quorum-intersection floor is unsound.
		for _, id := range hosts {
			rs := st.ReplicaStates(id)
			if len(rs) == 0 {
				continue
			}
			recoveredReplicas[id] = rs
			log.Printf("recovered replica log for node %d (%d keys, term %d)", id, len(rs), rs[0].Term)
		}
		// Config records are the membership ground truth: a member that
		// rebooted mid-reconfiguration must resume in the exact epoch (joint
		// or stable) its disk last agreed to, never the compiled-in seed set.
		recoveredConfigs = map[int]store.ReplicaConfig{}
		for _, id := range hosts {
			rc, ok := st.ReplicaConfig(id)
			if !ok {
				continue
			}
			recoveredConfigs[id] = rc
			phase := "stable"
			if rc.Joint {
				phase = "joint"
			}
			log.Printf("recovered replica config for node %d (epoch %d, %s, members %v)", id, rc.Epoch, phase, rc.New)
		}
	}

	tr, err := transport.NewTCP(transport.TCPConfig{
		Listen: *listen,
		Peers:  peers,
		Seed:   cfg.Seed + uint64(hosts[0]) + 1,
		Logf:   log.Printf,
	})
	if err != nil {
		return fail(err)
	}
	// No global liveness oracle exists across processes, so repairs rely on
	// each node's own keep-alive suspicions.
	dir := live.NewStaticDirectory(cfg.BuildTree())
	opts := live.Options{Transport: tr, Directory: dir, Hosts: hosts, Recovered: recovered,
		RecoveredReplicas: recoveredReplicas, RecoveredConfigs: recoveredConfigs}
	if st != nil {
		opts.Journal = st
	}
	nw, err := live.StartWith(cfg, opts)
	if err != nil {
		tr.Close()
		return fail(err)
	}
	log.Printf("hosting %v of %d nodes on %s (authority=%v)", hosts, nw.Nodes(), tr.Addr(), hosted[0])

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	var deadline <-chan time.Time
	if *runFor > 0 {
		deadline = time.After(*runFor)
	}
	queryTick, statsTick := ticker(*queryAt >= 0, *queryEvery), ticker(*statsEvery > 0, *statsEvery)
	// Surface authority changes: fail-over is this daemon's most
	// consequential event, and scripts assert on these lines.
	rootTick, lastRoot := ticker(true, 100*time.Millisecond), nw.RootID()

	code := 0
	for running := true; running; {
		select {
		case sig := <-stop:
			log.Printf("caught %v, shutting down", sig)
			running = false
		case <-deadline:
			log.Printf("run time elapsed, shutting down")
			running = false
		case <-tr.Done():
			log.Printf("transport died: %v", tr.Err())
			running = false
			code = 1
		case <-queryTick:
			r, err := nw.Query(*queryAt, 2*time.Second)
			if err != nil {
				log.Printf("query node=%d failed: %v", *queryAt, err)
				break
			}
			log.Printf("query node=%d resolved version=%d hops=%d local=%v", *queryAt, r.Version, r.Hops, r.Local)
		case <-statsTick:
			logStats("stats", nw.Stats())
		case <-rootTick:
			if r := nw.RootID(); r != lastRoot {
				log.Printf("authority changed: node %d -> node %d", lastRoot, r)
				lastRoot = r
			}
		}
	}
	// Shutdown order matters: stop the protocol first (its nodes write
	// their last journal records as they drain), flush the final stats and
	// close the state log while the directory is still answering, then
	// release the directory.
	nw.Stop()
	logStats("final", nw.Stats())
	if st != nil {
		if err := st.Close(); err != nil {
			log.Printf("state journal close: %v", err)
			code = 1
		}
	}
	dir.Close()
	return code
}

// logStats logs one counters line, including the delivery-guarantee
// counters (retransmissions, acks, suppressed duplicates, give-ups), the
// soft-state tree beacon counters, and — when a hosted node currently
// leads a replica quorum — the replication lag and the lease reserve
// headroom left before exposure would block on quorum acknowledgement.
// When a hosted node carries a replica group the quorum-health fields
// follow: config epoch, current member count, members suspected gone for
// good, and whether a reconfiguration is in flight. Receive-path
// pressure rides along (inbox refusals plus the drained-burst max/mean),
// so saturation — -shards undersized for the inbound rate — is
// diagnosable from the log alone. The line is append-only:
// scripts grep its existing fields.
func logStats(prefix string, s live.Stats) {
	line := fmt.Sprintf("%s queries=%d local=%d pushes=%d subscribes=%d substitutes=%d keepalives=%d drops=%d retrans=%d acks=%d dups=%d giveups=%d announces=%d expiries=%d inboxdrops=%d burstmax=%d burstmean=%.1f",
		prefix, s.Queries, s.LocalHits, s.Pushes, s.Subscribes, s.Substitutes, s.KeepAlives,
		s.Drops, s.Retransmits, s.Acks, s.DupSuppressed, s.RetransmitGiveUps,
		s.RootAnnounces, s.RootExpiries, s.InboxDrops, s.InboxBurstMax, s.InboxBurstMean)
	if s.ReplicaLag != 0 || s.ReserveHeadroom != 0 {
		line += fmt.Sprintf(" lag=%d headroom=%d", s.ReplicaLag, s.ReserveHeadroom)
	}
	if s.QuorumMembers > 0 {
		line += fmt.Sprintf(" epoch=%d members=%d permsuspect=%d reconfig=%v",
			s.ConfigEpoch, s.QuorumMembers, s.PermSuspects, s.ReconfigInFlight)
	}
	log.Print(line)
}

// ticker returns a ticking channel when enabled, else a nil channel that
// never fires (so the select arm is simply inert).
func ticker(enabled bool, every time.Duration) <-chan time.Time {
	if !enabled {
		return nil
	}
	return time.Tick(every)
}

// parseIDs parses a comma-separated id list like "0,1,2".
func parseIDs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var ids []int
	seen := map[int]bool{}
	for _, f := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad node id %q", f)
		}
		if id < 0 {
			return nil, fmt.Errorf("negative node id %d", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("node id %d listed twice", id)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// parsePeers parses "id=host:port" pairs: "3=127.0.0.1:7071,4=127.0.0.1:7071".
func parsePeers(s string) (map[int]string, error) {
	peers := map[int]string{}
	if strings.TrimSpace(s) == "" {
		return peers, nil
	}
	for _, f := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(f), "=")
		if !ok || addr == "" {
			return nil, fmt.Errorf("want id=host:port, got %q", f)
		}
		n, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad node id in %q", f)
		}
		if old, dup := peers[n]; dup && old != addr {
			return nil, fmt.Errorf("node %d mapped to both %s and %s", n, old, addr)
		}
		peers[n] = addr
	}
	return peers, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dupd:", err)
	return 1
}
