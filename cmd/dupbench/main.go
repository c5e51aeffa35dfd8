// Command dupbench regenerates the paper's evaluation artifacts: every
// table and figure from Section IV, plus the ablations and extensions
// listed in DESIGN.md.
//
// Examples:
//
//	dupbench -list                     # what can be reproduced
//	dupbench -experiment fig4          # one figure, quick scale
//	dupbench -all                      # the whole suite, quick scale
//	dupbench -all -scale full          # the paper's 180000 s runs
//
// An interrupt (Ctrl-C) cancels the in-flight simulations and exits;
// experiment output already written stays on stdout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"dup"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	id := flag.String("experiment", "", "experiment id to run (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	scaleName := flag.String("scale", "quick", "simulation scale: quick (5 TTL cycles) or full (paper's 180000 s)")
	seed := flag.Uint64("seed", 1, "base random seed")
	replicas := flag.Int("replicas", 1, "independent replications per configuration (across-run means reported)")
	csv := flag.Bool("csv", false, "emit CSV rows instead of aligned tables")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *list {
		for _, eid := range dup.ExperimentIDs() {
			title, _ := dup.ExperimentTitle(eid)
			fmt.Printf("%-22s %s\n", eid, title)
		}
		return
	}

	var scale dup.ExperimentScale
	switch *scaleName {
	case "quick":
		scale = dup.QuickScale
	case "full":
		scale = dup.FullScale
	default:
		fail(fmt.Errorf("unknown scale %q (want quick or full)", *scaleName))
	}

	ids := []string{}
	switch {
	case *all:
		ids = dup.ExperimentIDs()
	case *id != "":
		ids = append(ids, *id)
	default:
		fail(fmt.Errorf("nothing to do: pass -experiment <id>, -all or -list"))
	}

	opts := dup.ExperimentOptions{
		Scale: scale, Seed: *seed, Replicas: *replicas, CSV: *csv, Context: ctx,
	}
	for _, eid := range ids {
		start := time.Now()
		if err := dup.RunExperimentWith(os.Stdout, eid, opts); err != nil {
			if errors.Is(err, context.Canceled) {
				fail(fmt.Errorf("%s: interrupted", eid))
			}
			fail(fmt.Errorf("%s: %w", eid, err))
		}
		fmt.Printf("\n[%s completed in %v at %s scale, %d replica(s)]\n",
			eid, time.Since(start).Round(time.Millisecond), scale, max(*replicas, 1))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dupbench:", err)
	os.Exit(1)
}
