// Package dup is a from-scratch reproduction of "DUP: Dynamic-tree Based
// Update Propagation in Peer-to-Peer Networks" (Yin & Cao, ICDE 2005).
//
// In a structured peer-to-peer network every key has an authority node
// that maintains its (key, value) index; queries route along an index
// search tree toward that node and indices are cached with a TTL along the
// way. DUP maintains a dynamic update propagation tree containing only the
// nodes that are interested in an index (or are branch points between
// them) and pushes fresh index versions directly between tree neighbours,
// skipping the uninterested chains that the CUP baseline pays for
// hop-by-hop.
//
// The package exposes three layers:
//
//   - Simulation: Run and Compare (and their RunContext / CompareContext
//     forms, plus RunReplicated for seed-replicated aggregates) execute
//     the paper's discrete-event evaluation for any Config and scheme,
//     reporting the paper's two metrics (average query latency in hops and
//     average query cost in message hops per query).
//   - Protocol: NodeState is the pure per-node DUP state machine of the
//     paper's Figure 3, reusable in any transport.
//   - Experiments: Experiments and RunExperimentWith regenerate every
//     table and figure from the paper's Section IV.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// reproductions.
package dup

import (
	"context"
	"fmt"
	"io"

	"dup/internal/core"
	"dup/internal/experiments"
	"dup/internal/scheme"
	"dup/internal/scheme/cup"
	"dup/internal/scheme/dupscheme"
	"dup/internal/sim"
)

// Scheme selects an index maintenance scheme.
type Scheme string

// The available schemes.
const (
	// PCX is Path Caching with eXpiration: passive TTL caching only.
	PCX Scheme = "pcx"
	// CUP is Controlled Update Propagation: hop-by-hop pushes down the
	// index search tree toward interested nodes.
	CUP Scheme = "cup"
	// CUPCutoff is the CUP variant whose pushes stop at the first node
	// that is not interested itself (Section II-B's criticism).
	CUPCutoff Scheme = "cup-cutoff"
	// DUP is the paper's contribution: a dynamic update propagation tree
	// with direct pushes between tree neighbours.
	DUP Scheme = "dup"
	// DUPHopByHop is the ablation with direct pushes disabled.
	DUPHopByHop Scheme = "dup-hopbyhop"
)

// Schemes returns all selectable schemes.
func Schemes() []Scheme {
	return []Scheme{PCX, CUP, CUPCutoff, DUP, DUPHopByHop}
}

// unknownScheme is the shared error for every path that rejects a scheme
// name — parsing, text unmarshalling and construction — so flag parsing and
// JSON decoding report identical, equally helpful messages.
func unknownScheme(s string) error {
	return fmt.Errorf("dup: unknown scheme %q (want one of %v)", s, Schemes())
}

// ParseScheme converts a string such as "dup" into a Scheme.
func ParseScheme(s string) (Scheme, error) {
	for _, k := range Schemes() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", unknownScheme(s)
}

// String returns the scheme's canonical lower-case name, the same string
// ParseScheme accepts.
func (s Scheme) String() string { return string(s) }

// MarshalText implements encoding.TextMarshaler, so a Scheme round-trips
// through JSON and text-based flag values. Marshalling an unknown scheme is
// an error, keeping the invariant that every serialised scheme can be
// parsed back.
func (s Scheme) MarshalText() ([]byte, error) {
	if _, err := ParseScheme(string(s)); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// UnmarshalText implements encoding.TextUnmarshaler; it accepts exactly the
// names ParseScheme accepts.
func (s *Scheme) UnmarshalText(text []byte) error {
	k, err := ParseScheme(string(text))
	if err != nil {
		return err
	}
	*s = k
	return nil
}

// build constructs the internal scheme implementation.
func (s Scheme) build() (scheme.Scheme, error) {
	switch s {
	case PCX:
		return scheme.NewPCX(), nil
	case CUP:
		return cup.New(), nil
	case CUPCutoff:
		return cup.NewCutoff(), nil
	case DUP:
		return dupscheme.New(), nil
	case DUPHopByHop:
		return dupscheme.NewHopByHop(), nil
	}
	return nil, unknownScheme(string(s))
}

// Config re-exports the simulator configuration; see sim.Config for field
// documentation. Zero values are invalid — start from DefaultConfig.
type Config = sim.Config

// Result re-exports the simulation result.
type Result = sim.Result

// DefaultConfig returns the paper's Table I defaults (4096 nodes, degree
// 4, λ = 1 query/s, θ = 1.2, TTL 60 min, push lead 60 s, threshold c = 6,
// 180000 simulated seconds).
func DefaultConfig() Config { return sim.Default() }

// Run simulates one scheme under cfg and returns the measured result.
//
// Note: PCX has no push schedule; for faithful comparisons give it
// Lead = 0 (Compare does this automatically).
func Run(cfg Config, s Scheme) (*Result, error) {
	return RunContext(context.Background(), cfg, s)
}

// RunContext is Run under a context. The simulator checks ctx every few
// thousand dispatched events, so cancellation lands within milliseconds
// even on full-scale configurations; the error then wraps ctx.Err() and the
// partial result is discarded.
func RunContext(ctx context.Context, cfg Config, s Scheme) (*Result, error) {
	impl, err := s.build()
	if err != nil {
		return nil, err
	}
	return sim.RunContext(ctx, cfg, impl)
}

// Compare runs several schemes under the same configuration and returns
// their results in order. The PCX baseline automatically runs with
// Lead = 0.
func Compare(cfg Config, schemes ...Scheme) ([]*Result, error) {
	return CompareContext(context.Background(), cfg, schemes...)
}

// CompareContext is Compare under a context; the first cancelled run aborts
// the comparison.
func CompareContext(ctx context.Context, cfg Config, schemes ...Scheme) ([]*Result, error) {
	if len(schemes) == 0 {
		schemes = []Scheme{PCX, CUP, DUP}
	}
	out := make([]*Result, 0, len(schemes))
	for _, s := range schemes {
		c := cfg
		if s == PCX {
			c.Lead = 0
		}
		r, err := RunContext(ctx, c, s)
		if err != nil {
			return nil, fmt.Errorf("dup: %s: %w", s, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Replicated aggregates several independent replications (same
// configuration, different seeds) of one scheme; see sim.Replicated for
// the accessor set (MeanLatency, LatencyCI95, MeanCost, CostCI95, ...).
type Replicated = sim.Replicated

// RunReplicated executes replicas independent runs of scheme s with seeds
// cfg.Seed, cfg.Seed+1, ... and returns the across-run aggregate, whose
// CI95 accessors quantify run-to-run (topology and workload) variation.
func RunReplicated(cfg Config, s Scheme, replicas int) (*Replicated, error) {
	return RunReplicatedContext(context.Background(), cfg, s, replicas)
}

// RunReplicatedContext is RunReplicated under a context; cancellation stops
// the current replica mid-run and discards the partial aggregate.
func RunReplicatedContext(ctx context.Context, cfg Config, s Scheme, replicas int) (*Replicated, error) {
	if _, err := s.build(); err != nil {
		return nil, err
	}
	return sim.RunReplicatedContext(ctx, cfg, func() scheme.Scheme {
		impl, err := s.build()
		if err != nil {
			// Unreachable: s was validated above and build is pure.
			panic(err)
		}
		return impl
	}, replicas)
}

// NodeState is the pure DUP protocol state machine for one node (the
// paper's Figure 3); see dup/internal/core for the full API. It is
// re-exported so that downstream systems can embed the protocol in their
// own transports, as the live-network example does.
type NodeState = core.State

// NewNodeState returns the protocol state for a node. isRoot marks the
// authority node.
func NewNodeState(self int, isRoot bool) *NodeState {
	return core.NewState(self, isRoot)
}

// ExperimentScale selects quick (5 TTL cycles) or full (the paper's
// 180000 s) experiment runs.
type ExperimentScale = experiments.Scale

// Experiment scales.
const (
	QuickScale = experiments.Quick
	FullScale  = experiments.Full
)

// ExperimentOptions selects how an experiment runs: scale, base seed,
// replica count, and CSV output.
type ExperimentOptions = experiments.Options

// ExperimentIDs lists the reproducible tables, figures and ablations.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperimentWith regenerates one table or figure, writing the
// paper-shaped rows to w at the scale, seed, replica count and output
// format opts selects.
func RunExperimentWith(w io.Writer, id string, opts ExperimentOptions) error {
	e, ok := experiments.ByID(id)
	if !ok {
		return fmt.Errorf("dup: unknown experiment %q (want one of %v)", id, experiments.IDs())
	}
	return e.Run(w, opts)
}

// ExperimentTitle returns the human-readable title for an experiment id.
func ExperimentTitle(id string) (string, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return "", fmt.Errorf("dup: unknown experiment %q", id)
	}
	return e.Title, nil
}
