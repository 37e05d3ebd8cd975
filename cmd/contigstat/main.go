// Command contigstat runs a workload under a chosen policy and dumps
// its contiguous mappings — the pagemap (native) / VMI (virtualized)
// inspection the paper's methodology describes. Useful for eyeballing
// how a policy lays a footprint out physically.
//
// Usage:
//
//	contigstat -workload xsbench -policy ca
//	contigstat -workload bt -policy ca -virtual -top 20
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// run is the whole tool behind an exit code, so tests can drive it and
// assert on output. Exit codes: 0 clean, 1 run failure, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("contigstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "pagerank", "svm|pagerank|hashjoin|xsbench|bt")
		policy  = fs.String("policy", "ca", "default|thp|ca|eager|ideal|ingens|ranger (-virtual: default|thp|ca|eager|ideal; a VM runs no daemons)")
		virtual = fs.Bool("virtual", false, "run inside a VM (policy applied in both dimensions)")
		top     = fs.Int("top", 16, "print the N largest mappings")
		seed    = fs.Int64("seed", 1, "workload seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	w := workloads.ByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	var env *workloads.Env
	var err error
	if *virtual {
		var sys *core.VirtualSystem
		sys, err = core.NewVirtualSystem(core.VirtualConfig{Host: core.Config{Policy: *policy}})
		if err == nil {
			env = sys.NewEnv()
		}
	} else {
		var sys *core.NativeSystem
		sys, err = core.NewNativeSystem(core.Config{Policy: *policy})
		if err == nil {
			env = sys.NewEnv()
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := core.Setup(env, w, *seed); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep := core.Contiguity(env)
	kind := "native"
	if *virtual {
		kind = "2D (gVA->hPA)"
	}
	fmt.Fprintf(stdout, "%s / %s: %d %s mappings over %d MiB\n",
		w.Name(), *policy, len(rep.Mappings), kind, rep.TotalPages*4096>>20)
	fmt.Fprintf(stdout, "coverage: top-32 %.3f, top-128 %.3f; 99%% of footprint in %d mappings\n",
		rep.Cov32, rep.Cov128, rep.Maps99)
	sorted := append([]metrics.Mapping(nil), rep.Mappings...)
	metrics.SortBySize(sorted)
	n := *top
	if n > len(sorted) {
		n = len(sorted)
	}
	fmt.Fprintf(stdout, "%-18s %-14s %-12s %s\n", "VA", "PA", "pages", "size")
	for _, m := range sorted[:n] {
		fmt.Fprintf(stdout, "0x%-16x 0x%-12x %-12d %d MiB\n",
			uint64(m.VA), uint64(m.PA), m.Pages, m.Pages*4096>>20)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
