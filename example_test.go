package dup_test

import (
	"fmt"
	"strings"

	"dup"
)

// Compare the three schemes of the paper under one deterministic workload.
func ExampleCompare() {
	cfg := dup.DefaultConfig()
	cfg.Nodes = 256 // small network so the example runs instantly
	cfg.TTL = 600
	cfg.Lead = 10
	cfg.Duration = 3000
	cfg.Warmup = 600
	cfg.Lambda = 5
	cfg.Seed = 1

	results, err := dup.Compare(cfg) // PCX, CUP, DUP
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Println(r.Scheme)
	}
	best := results[len(results)-1]
	fmt.Println("DUP cheapest:", best.MeanCost < results[0].MeanCost)
	// Output:
	// PCX
	// CUP
	// DUP
	// DUP cheapest: true
}

// Regenerate one of the paper's artifacts. ExperimentOptions also selects
// replication, CSV output and a cancellation context.
func ExampleRunExperimentWith() {
	var b strings.Builder
	opts := dup.ExperimentOptions{Scale: dup.QuickScale, Seed: 1}
	if err := dup.RunExperimentWith(&b, "table1", opts); err != nil {
		panic(err)
	}
	fmt.Println(strings.Contains(b.String(), "Table I"))
	// Output:
	// true
}

// Drive the Figure 3 state machine directly: node 5 subscribes, the root
// learns about it, and a push targets it.
func ExampleNewNodeState() {
	root := dup.NewNodeState(0, true)
	n5 := dup.NewNodeState(5, false)

	actions := n5.BecomeInterested()
	fmt.Println("node 5 emits:", actions[0])

	root.HandleSubscribe(5)
	fmt.Println("root pushes to:", root.PushTargets())
	// Output:
	// node 5 emits: subscribe(5)
	// root pushes to: [5]
}

// Publish events across a DUP dissemination tree.
func ExampleNewPubSub() {
	p, err := dup.NewPubSub(64, 1)
	if err != nil {
		panic(err)
	}
	nodes := p.Nodes()
	p.Subscribe(nodes[10], "alerts")
	p.Subscribe(nodes[40], "alerts")

	d, err := p.Publish("alerts", "cpu high")
	if err != nil {
		panic(err)
	}
	fmt.Println("subscribers reached:", d.Subscribers)
	fmt.Println("DUP cheaper than SCRIBE:", d.Hops <= d.ScribeHops)
	// Output:
	// subscribers reached: 2
	// DUP cheaper than SCRIBE: true
}

// Work with one topic through its handle: name it once, then subscribe,
// publish and read inboxes without repeating the topic string.
func ExampleNewPubSub_topicHandle() {
	p, err := dup.NewPubSub(64, 1)
	if err != nil {
		panic(err)
	}
	nodes := p.Nodes()
	alerts := p.Topic("alerts") // a dup.PubSubTopic handle
	alerts.Subscribe(nodes[10])
	alerts.Subscribe(nodes[40])

	d, err := alerts.Publish("cpu high")
	if err != nil {
		panic(err)
	}
	fmt.Println("topic:", alerts.Name())
	fmt.Println("subscribers reached:", d.Subscribers)
	fmt.Println("node 10 inbox:", len(alerts.Inbox(nodes[10])))
	// Output:
	// topic: alerts
	// subscribers reached: 2
	// node 10 inbox: 1
}

// Resolve content through the multi-key directory.
func ExampleNewDirectory() {
	cfg := dup.DefaultDirectoryConfig()
	cfg.Nodes = 64
	d, err := dup.NewDirectory(cfg)
	if err != nil {
		panic(err)
	}
	d.Register("movie.avi", "host-9", 0)

	r, err := d.Lookup(d.Nodes()[30], "movie.avi", 5)
	if err != nil {
		panic(err)
	}
	fmt.Println("value:", r.Value)
	// Output:
	// value: host-9
}
