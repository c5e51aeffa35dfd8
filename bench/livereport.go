package main

import (
	"fmt"
	"os"
	"slices"
)

// runLive runs one live workload: opt.epochs fresh boots, each measured
// for opt.window. In a traced run the last epoch boots through the tracing
// wrappers; end-to-end metrics always come from the untraced epochs. (With
// -trace 1 -epochs 1, a quick loop, the traced epoch stands in for both.)
//
// An epoch the environment disturbed is discarded and repeated, at most
// maxRepeats times per run: steal over the limit, a warm-up that did not
// converge, or a tree that re-homed, lost a root path or gave up a send
// with no fault injected — with DeadAfter 150 ms, any 150 ms freeze of
// the process does that. Past the repeats the epoch is kept and its
// failures stand.
func runLive(w *liveWorkload, opt options) (*result, error) {
	res := newResult(w.name, opt.seed)
	res.Epochs, res.WindowS, res.Traced = opt.epochs, opt.window.Seconds(), opt.traced

	var plain []*epoch
	var traced *epoch
	var tr *tracer
	discarded := 0
	for i := 0; i < opt.epochs; i++ {
		tracing := opt.traced && i == opt.epochs-1
		for {
			if tracing {
				tr = newTracer(w)
			}
			e, err := runEpoch(w, opt, opt.seed*64+uint64(i), tr)
			why := ""
			switch {
			case err != nil:
				why = err.Error()
			case stealRatio(e.before, e.after) > stealLimit:
				why = fmt.Sprintf("steal ratio %.3f > %.2f", stealRatio(e.before, e.after), stealLimit)
			case e.disturbed:
				why = e.failures[0]
			}
			if why != "" && discarded < maxRepeats {
				discarded++
				fmt.Fprintf(os.Stderr, "bench: %s epoch %d discarded: %s\n", w.name, i, why)
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("epoch %d: %w", i, err)
			}
			res.Noisy = res.Noisy || stealRatio(e.before, e.after) > stealLimit
			if tracing {
				traced = e
			} else {
				plain = append(plain, e)
			}
			break
		}
	}
	res.set("driver.epochs_discarded", float64(discarded))
	if traced != nil && len(plain) == 0 {
		plain = []*epoch{traced}
	}
	summarize(res, w, plain)
	if traced != nil {
		if plain[0] != traced {
			for _, f := range traced.failures {
				res.fail("traced epoch: %s", f)
			}
		}
		if err := tr.report(res, w, traced, plain, opt.outDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// summarize turns the untraced epochs into metrics: timings as the median
// over epochs of the per-epoch percentile; counts, CPU and allocations
// pooled over epochs.
func summarize(res *result, w *liveWorkload, eps []*epoch) {
	var (
		setup, failover, steal   []float64
		resolve, miss, hit, late [][]float64
		ops, frames              int64
		cpuUS, mallocs, secs     float64
		offered, done, bad       int64
		retries                  int64
		expected, badProbe       int64
		hops                     int64
		reparented               int
		inUse                    int64
	)
	d := eps[0].stats // pooled delta; per-epoch gauges keep the worst
	for i, e := range eps {
		for _, f := range e.failures {
			res.fail("epoch %d: %s", i, f)
		}
		setup = append(setup, e.setup.Seconds())
		steal = append(steal, stealRatio(e.before, e.after))
		miss = append(miss, e.load.missMS)
		hit = append(hit, e.load.hitUS)
		late = append(late, e.load.lateUS)
		ops += e.ops(w)
		frames += e.frames
		cpuUS += float64(e.cpu().Microseconds())
		mallocs += float64(e.after.mallocs - e.before.mallocs)
		secs += e.after.at.Sub(e.before.at).Seconds()
		offered += e.load.offered
		done += e.load.done
		bad += e.load.failed + e.load.refused
		retries += e.load.retries
		hops += e.load.hops
		reparented += e.reparented
		inUse += e.inUseEnd
		if e.probe != nil {
			resolve = append(resolve, e.probe.resolveMS)
			expected += e.probe.expected
			badProbe += e.probe.skipped
		}
		if w.failover {
			failover = append(failover, e.failoverMS)
		}
		if i > 0 {
			d = statsSum(d, e.stats)
		}
	}
	if ops == 0 {
		res.fail("no %s completed in any window", opName(w))
		ops = 1
	}

	res.set("setup_s", medianOf(setup))
	if w.probed {
		res.set("push_resolve_p50_ms", epochPercentiles(resolve, 0.5))
		res.set("live.push_resolve_p99_ms", epochPercentiles(resolve, 0.99))
	} else {
		res.set("query_miss_p50_ms", epochPercentiles(miss, 0.5))
		res.set("live.query_miss_p99_ms", epochPercentiles(miss, 0.99))
		res.set("query_hops_mean", ratio(float64(hops), float64(done)))
	}
	res.set("msgs_per_query", msgsPerQuery(d))
	if w.spec.tcp && w.probed {
		res.set("frames_per_push", ratio(float64(frames), float64(d.Pushes)))
	}
	res.set("cpu_us_per_op", cpuUS/float64(ops))
	res.set("allocs_per_op", mallocs/float64(ops))
	res.Attempted = offered + expected
	res.Failed = bad + badProbe
	res.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	if res.Failed > 0 {
		var q, rf int64
		for _, e := range eps {
			q, rf = q+e.load.failed, rf+e.load.refused
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"failed: %d queries unanswered after %v of retries, %d refused by the worker queue, %d probed versions skipped", q, queryBudget, rf, badProbe))
	}
	if w.failover {
		res.set("failover_p50_ms", medianOf(failover))
	}

	res.set("driver.offered_qps", float64(offered)/secs)
	res.set("driver.achieved_qps", float64(done)/secs)
	res.set("driver.late_p50_us", epochPercentiles(late, 0.5))
	res.set("driver.late_p99_us", epochPercentiles(late, 0.99))
	res.set("driver.steal_ratio", slices.Max(steal))
	res.set("driver.query_retries", float64(retries))

	pushes := float64(d.Pushes)
	res.set("live.local_hit_ratio", ratio(float64(d.LocalHits), float64(d.Queries)))
	res.set("live.query_local_p50_us", epochPercentiles(hit, 0.5))
	res.set("live.acks_per_push", ratio(float64(d.Acks), pushes))
	res.set("live.retransmits_per_kpush", ratio(1000*float64(d.Retransmits), pushes))
	res.set("live.dup_suppressed_per_kpush", ratio(1000*float64(d.DupSuppressed), pushes))
	res.set("live.giveups", float64(d.RetransmitGiveUps))
	res.set("live.inbox_burst_mean", d.InboxBurstMean)
	res.set("live.inbox_drops", float64(d.InboxDrops))
	res.set("live.keepalives_per_s", float64(d.KeepAlives)/secs)
	res.set("live.root_announces_per_s", float64(d.RootAnnounces)/secs)
	res.set("live.root_expiries", float64(d.RootExpiries))
	res.set("live.reparented_nodes", float64(reparented))
	res.set("live.subscribes_per_s", float64(d.Subscribes)/secs)
	res.set("live.substitutes_per_s", float64(d.Substitutes)/secs)
	res.set("live.pushes_per_s", pushes/secs)
	if w.spec.replicas > 1 {
		res.set("live.replica_lag", float64(d.ReplicaLag))
		res.set("live.reserve_headroom", float64(d.ReserveHeadroom))
	}
	res.set("transport.drops", float64(d.Drops))
	res.set("proto.in_use_end", float64(inUse))
}

func opName(w *liveWorkload) string {
	if w.probed {
		return "pushes"
	}
	return "queries"
}
