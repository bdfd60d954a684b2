package experiments

import (
	"context"
	"fmt"
	"sort"
)

// Config carries the workload scale plus the keyword-graph and index
// settings threaded down from cmd/experiments.
type Config struct {
	// Scale shrinks workloads; 1.0 is the paper's parameters.
	Scale Scale
	// MemBudget bounds the pair-counting tables in bytes; 0 = default.
	MemBudget int
	// IndexBackend restricts the diskindex experiment to one keyword
	// index backend ("mem" or "disk"); empty runs both.
	IndexBackend string
	// IndexMemBudget bounds the disk index backend's block cache in
	// bytes; 0 = default.
	IndexMemBudget int

	// ctx cancels long experiment pipelines; set via RunContext.
	ctx context.Context
}

// Context returns the run's cancellation context (never nil).
func (c Config) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Runner regenerates one paper artifact for the given configuration.
type Runner func(Config) (*Table, error)

// scaled adapts the solver-side experiments, which only depend on the
// workload scale, to the Runner signature.
func scaled(f func(Scale) (*Table, error)) Runner {
	return func(cfg Config) (*Table, error) { return f(cfg.Scale) }
}

// registry maps experiment ids to runners.
var registry = map[string]Runner{
	"table1":       Table1,
	"fig6":         Fig6,
	"qualitative":  Qualitative,
	"clustergraph": ClusterGraph,
	"diskindex":    DiskIndexExp,
	"table3":       scaled(Table3),
	"fig7":         scaled(Fig7),
	"fig8":         scaled(Fig8),
	"fig9":         scaled(Fig9),
	"fig10":        scaled(Fig10),
	"fig11":        scaled(Fig11),
	"fig12":        scaled(Fig12),
	"fig13":        scaled(Fig13),
	"fig14":        scaled(Fig14),
	"ksens":        scaled(KSensitivity),
	"memory":       scaled(Memory),
}

// IDs returns the known experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id at the given scale with default
// pipeline knobs.
func Run(id string, scale Scale) (*Table, error) {
	return RunConfig(id, Config{Scale: scale})
}

// RunConfig executes one experiment by id.
func RunConfig(id string, cfg Config) (*Table, error) {
	return RunContext(context.Background(), id, cfg)
}

// RunContext executes one experiment by id under a cancellation
// context (Ctrl-C in cmd/experiments aborts the pipeline stages that
// poll it).
func RunContext(ctx context.Context, id string, cfg Config) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return nil, fmt.Errorf("experiments: scale must be in (0,1], got %g", float64(cfg.Scale))
	}
	cfg.ctx = ctx
	return r(cfg)
}
