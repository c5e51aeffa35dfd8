package main

import (
	"fmt"
	"sort"
	"time"

	"dup/internal/live"
)

// probe watches one (node, key) copy for fresh versions.
type probe struct {
	node, key int
	h         *live.KeyHandle
	version   int64
	expiry    time.Time // of the copy last seen: the next refresh is due at expiry-Lead
}

// probeGroup is the probes sharing one (Network, key) push counter. The
// counter moves exactly when some hosted node takes delivery of a push for
// the key, so it says when looking at the group's nodes can pay off — at
// the cost of one atomic load, with no message into any node.
type probeGroup struct {
	h      *live.KeyHandle
	pushes int64
	retry  bool // an Inspect failed: look again without waiting for the counter
	probes []*probe
}

// observation is one resolved version, kept only by traced runs to close
// each version's span chain.
type observation struct {
	node, key int
	version   int64
	at        time.Time
}

// probeResult is one window's push-to-resolve tally.
type probeResult struct {
	resolveMS []float64 // publish -> subscriber's own copy shows the version, ms
	expected  int64     // versions the probed copies should have shown
	skipped   int64     // versions a copy jumped over: not seen before their successor
	regressed int64     // a copy's version went backwards: a correctness failure
	seen      []observation
}

// prober measures push-to-resolve delay from the subscriber side only.
// The authority stamps expiry = now + TTL when it bumps a version, so the
// publish time of whatever version a copy shows is its Expiry - TTL: the
// authority is never polled. One goroutine sleeps until the earliest
// refresh is due (Expiry - Lead), then watches the per-key push counters
// every pollEvery and inspects a group's nodes only when its counter moved.
type prober struct {
	cfg    live.Config
	groups []*probeGroup
	keep   bool // record observations (traced runs)
}

const (
	pollEvery = 50 * time.Microsecond
	// probeKeys is how many keys each probed node is watched on.
	probeKeys = 4
	// probeNodes is how many of the deepest nodes are watched.
	probeNodes = 16
)

// probeKeySet spreads probeKeys keys over the key range and the lanes.
func probeKeySet(keys, lanes int) []int {
	out := make([]int, probeKeys)
	for j := range out {
		out[j] = j*(keys/probeKeys) + j%lanes
	}
	return out
}

func newProber(c *cluster, keep bool) *prober {
	p := &prober{cfg: c.cfg, keep: keep}
	byNetKey := map[[2]int]*probeGroup{}
	for _, key := range probeKeySet(c.spec.keys, c.spec.lanes) {
		for _, node := range c.deepest(probeNodes) {
			ni := c.netOf[node]
			g := byNetKey[[2]int{ni, key}]
			if g == nil {
				g = &probeGroup{h: c.nets[ni].Key(key)}
				byNetKey[[2]int{ni, key}] = g
				p.groups = append(p.groups, g)
			}
			g.probes = append(g.probes, &probe{node: node, key: key, h: g.h})
		}
	}
	return p
}

// sync reads every probed copy once, so the first measured refresh has a
// known predecessor. It fails when a probed node holds no pushed copy:
// warm-up did not finish.
func (p *prober) sync() error {
	for _, g := range p.groups {
		g.pushes = g.h.Stats().Pushes
		for _, pr := range g.probes {
			info, err := pr.h.Inspect(pr.node, time.Second)
			if err != nil {
				return fmt.Errorf("probe node %d key %d: %w", pr.node, pr.key, err)
			}
			if !info.HaveCopy || !info.Interested {
				return fmt.Errorf("probe node %d key %d holds no subscribed copy after warm-up", pr.node, pr.key)
			}
			pr.version, pr.expiry = info.Version, info.Expiry
		}
	}
	return nil
}

// run probes until stop closes.
func (p *prober) run(stop <-chan struct{}) *probeResult {
	res := &probeResult{}
	lead, ttl := p.cfg.Lead, p.cfg.TTL
	for {
		// Sleep until the earliest refresh is due.
		var next time.Time
		for _, g := range p.groups {
			for _, pr := range g.probes {
				if due := pr.expiry.Add(-lead); next.IsZero() || due.Before(next) {
					next = due
				}
			}
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-stop:
				sort.Float64s(res.resolveMS)
				return res
			case <-time.After(d):
			}
		}
		// Watch until every copy that is due has refreshed (or expired).
		for {
			select {
			case <-stop:
				sort.Float64s(res.resolveMS)
				return res
			default:
			}
			now := time.Now()
			waiting := false
			for _, g := range p.groups {
				due := false
				for _, pr := range g.probes {
					due = due || !now.Before(pr.expiry.Add(-lead))
				}
				if !due {
					continue
				}
				waiting = true
				c := g.h.Stats().Pushes
				if c == g.pushes && !g.retry {
					continue
				}
				g.pushes, g.retry = c, false
				for _, pr := range g.probes {
					if now.Before(pr.expiry.Add(-lead)) {
						continue
					}
					info, err := pr.h.Inspect(pr.node, 100*time.Millisecond)
					g.retry = g.retry || err != nil
					switch {
					case err == nil && info.HaveCopy && info.Version > pr.version:
						at := time.Now()
						res.expected += info.Version - pr.version
						res.skipped += info.Version - pr.version - 1
						res.resolveMS = append(res.resolveMS, float64(at.Sub(info.Expiry.Add(-ttl)))/1e6)
						if p.keep {
							res.seen = append(res.seen, observation{pr.node, pr.key, info.Version, at})
						}
						pr.version, pr.expiry = info.Version, info.Expiry
					case err == nil && info.HaveCopy && info.Version < pr.version:
						res.regressed++
					}
				}
			}
			if !waiting {
				break
			}
			sleepUntil(now.Add(pollEvery))
		}
	}
}
