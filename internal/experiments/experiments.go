// Package experiments contains one driver per table and figure of the
// paper's evaluation (§VI). Each driver builds the machines, runs the
// workloads under the configurations the paper compares, and returns a
// Table of the same rows/series the paper reports. The cmd/reproduce
// binary and the repository-root benchmarks call into these drivers.
//
// Scaling: footprints, machine size, and TLB reach are all ~1/512 of
// the paper's testbed (see DESIGN.md §5), so the *shape* of every
// result — who wins, by what factor, where behaviour breaks — is the
// comparison target, not absolute values. EXPERIMENTS.md records
// paper-vs-measured for each driver.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/osim"
	"repro/internal/virt"
	"repro/internal/workloads"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			// Ragged rows can be wider than the header; cells beyond
			// the last header column render unpadded.
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// --- configurations ---

// PolicyName selects one of the paper's memory-management
// configurations for native runs.
type PolicyName string

// The compared configurations (§VI-A).
const (
	PolicyTHP    PolicyName = "thp"    // default paging with THP
	PolicyIngens PolicyName = "ingens" // async utilisation-gated promotion
	PolicyCA     PolicyName = "ca"     // contiguity-aware paging
	PolicyEager  PolicyName = "eager"  // pre-allocation
	PolicyRanger PolicyName = "ranger" // async defragmentation
	PolicyIdeal  PolicyName = "ideal"  // offline best-fit bound
)

// AllPolicies lists the Fig. 7 comparison set in presentation order.
func AllPolicies() []PolicyName {
	return []PolicyName{PolicyTHP, PolicyIngens, PolicyCA, PolicyEager, PolicyRanger, PolicyIdeal}
}

// newNativeKernel boots core's host under the named policy (one
// zone of both host zones' memory when numaOff) and attaches the
// tracer.
func newNativeKernel(pr Params, p PolicyName, numaOff bool) (*osim.Kernel, []workloads.Daemon) {
	c := core.Config{Policy: string(p)}
	if numaOff {
		c.ZonesMiB = []int{2 * core.HostZoneMiB}
	}
	sys, err := core.NewNativeSystem(c)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	sys.Kernel.SetTracer(pr.Tracer)
	return sys.Kernel, sys.Daemons
}

// newVM boots core's host and VM under pol in both dimensions (as the
// paper does), levels deep (0: 4), and attaches the tracer.
func newVM(pr Params, pol PolicyName, levels int) (*virt.VM, error) {
	sys, err := core.NewVirtualSystem(core.VirtualConfig{
		Host:   core.Config{Policy: string(pol)},
		Levels: levels,
	})
	if err != nil {
		return nil, err
	}
	sys.VM.SetTracer(pr.Tracer)
	return sys.VM, nil
}

// workloadNames returns the five paper workload names in order.
func workloadNames() []string {
	out := make([]string, 0, 5)
	for _, w := range workloads.All() {
		out = append(out, w.Name())
	}
	return out
}

func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func pct(x float64) string { return fmt.Sprintf("%.2f%%", x*100) }
