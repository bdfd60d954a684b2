// Command experiments regenerates the tables and figures of the
// paper's evaluation (Section 5). Each experiment prints the rows or
// series the paper reports; absolute numbers differ (synthetic data,
// different hardware and runtime) but the shapes — who wins, by what
// factor, where the crossovers fall — reproduce.
//
// Usage:
//
//	experiments -exp table3            # one experiment at default scale
//	experiments -exp all -scale 1.0    # the full suite at paper scale
//	experiments -exp table1 -membudget 4096  # force the spill path
//	experiments -exp clustergraph      # Section 4.1 quadratic vs simjoin
//	experiments -list                  # list experiment ids
//
// -membudget governs the keyword-graph build only; the stable-cluster
// solver experiments (table3, fig7–14) run the paper's sequential
// algorithms.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id, or 'all'")
	scale := flag.Float64("scale", 0.25, "workload scale in (0,1]; 1.0 = the paper's parameters")
	memBudget := flag.Int("membudget", 0, "pair-table memory budget in bytes before the table spills; 0 = default (256 MiB)")
	indexBackend := flag.String("index", "", "diskindex experiment: restrict to one backend (mem or disk); empty runs both")
	indexCache := flag.Int("indexcache", 0, "diskindex experiment: disk block-cache budget in bytes; 0 = default")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	cfg := experiments.Config{
		Scale:          experiments.Scale(*scale),
		MemBudget:      *memBudget,
		IndexBackend:   *indexBackend,
		IndexMemBudget: *indexCache,
	}
	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	// Ctrl-C cancels the pipeline stages that poll the context
	// (keyword-graph builds, disk segment builds, extsort merges).
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	start := time.Now()
	for _, id := range ids {
		t, err := experiments.RunContext(ctx, strings.TrimSpace(id), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
	}
	fmt.Printf("total: %s (scale %.2f)\n", time.Since(start).Round(time.Millisecond), *scale)
}
