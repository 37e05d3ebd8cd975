// Package core assembles systems: it owns the table of the paper's
// memory-management configurations (§VI-A: policy name -> placement,
// sorted MAX_ORDER lists, daemon) and the evaluation machine fixtures
// (DESIGN.md §5: the 2x640 MiB host, the 2x384 MiB VM, one boot block
// per zone), and builds ready kernels, native systems, and VMs from
// them. It also exposes the operations users need on a built system:
// run workloads, inspect contiguity, and emulate the translation
// hardware (SpOT, vRMM, DS).
//
// The paper's two contributions sit underneath:
//
//   - CA paging: osim.CAPolicy plus the contigmap substrate
//     (select Policy: "ca");
//   - SpOT: hw/spot, driven through Simulate.
//
// What builds through core, so that a policy name and a machine mean
// the same thing everywhere:
//
//   - the experiment drivers (and so cmd/reproduce and cmd/agingsim):
//     every host through NewNativeSystem, every VM through
//     NewVirtualSystem, and every aging shard kernel through NewKernel;
//   - cmd/contigstat, cmd/fragmeter, cmd/spotsim, and the examples,
//     which also run Setup, Contiguity, and Simulate on what they boot;
//   - the differential checker (internal/check) and the replay engine
//     (internal/tracein, cmd/memsimd) only resolve policy names through
//     Placement; they size and build their own machines and kernels.
package core

import (
	"fmt"

	"repro/internal/hw/walker"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/metrics"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/virt"
	"repro/internal/workloads"
)

// Machine fixtures (DESIGN.md §5): the paper's 2-socket host and its VM,
// scaled ~1/512.
const (
	// HostZoneMiB is the size of each of the host's two NUMA zones.
	HostZoneMiB = 640
	// guestZoneMiB is the size of each of the VM's two guest NUMA
	// zones; the guest's physical memory is their sum.
	guestZoneMiB = 384
	// bootReserveBlocks is how many MAX_ORDER blocks every booted
	// machine pins at each zone base (kernel image, memmap, firmware).
	bootReserveBlocks = 1
)

// policy is one row of the configuration table.
type policy struct {
	// placement builds a fresh placement. The table holds constructors,
	// not instances: IdealPolicy keeps its plans behind a pointer, so a
	// shared instance would leak plans across kernels.
	placement func() osim.Placement
	// sorted keeps the machine's MAX_ORDER free lists sorted, as the
	// paper's CA prototype does for its next-fit search.
	sorted bool
	// daemon, when set, builds the background daemon the policy runs.
	daemon func(*osim.Kernel) workloads.Daemon
}

func defaultPlacement() osim.Placement { return osim.DefaultPolicy{} }

// policies is the configuration table; "thp" is another name for
// "default", and "ingens" and "ranger" are default placement plus
// their daemon.
var policies = map[string]policy{
	"default": {placement: defaultPlacement},
	"thp":     {placement: defaultPlacement},
	"ca":      {placement: func() osim.Placement { return osim.CAPolicy{} }, sorted: true},
	"eager":   {placement: func() osim.Placement { return osim.EagerPolicy{} }},
	"ideal":   {placement: func() osim.Placement { return osim.NewIdealPolicy() }},
	"ingens": {placement: defaultPlacement,
		daemon: func(k *osim.Kernel) workloads.Daemon { return daemon.NewIngens(k) }},
	"ranger": {placement: defaultPlacement,
		daemon: func(k *osim.Kernel) workloads.Daemon { return daemon.NewRanger(k) }},
}

// lookup resolves a policy name; empty means "default".
func lookup(name string) (policy, error) {
	if name == "" {
		name = "default"
	}
	p, ok := policies[name]
	if !ok {
		return policy{}, fmt.Errorf("core: unknown policy %q", name)
	}
	return p, nil
}

// kernel builds a kernel over m under p, with p's daemon attached.
func (p policy) kernel(m *zone.Machine) (*osim.Kernel, []workloads.Daemon) {
	k := osim.NewKernel(m, p.placement())
	if p.daemon == nil {
		return k, nil
	}
	return k, []workloads.Daemon{p.daemon(k)}
}

// Placement resolves a policy that runs no daemon — "default" (or
// "thp", or empty), "ca", "eager", "ideal" — to a fresh placement and
// whether its machine keeps MAX_ORDER free lists sorted. It rejects
// "ingens" and "ranger", whose behaviour is their daemon: a VM polls
// none, in either dimension.
func Placement(name string) (osim.Placement, bool, error) {
	p, err := lookup(name)
	if err != nil {
		return nil, false, err
	}
	if p.daemon != nil {
		return nil, false, fmt.Errorf("core: policy %q needs a daemon, and a VM runs no daemons", name)
	}
	return p.placement(), p.sorted, nil
}

// NewKernel builds a kernel over m under the named policy (any name
// Placement accepts, plus "ingens" and "ranger") together with the
// policy's daemons. It reserves nothing: a whole machine is booted by
// NewNativeSystem, and kernels over zone views share the reservation
// their parent kernel made. The caller sorts m's MAX_ORDER lists.
func NewKernel(m *zone.Machine, name string) (*osim.Kernel, []workloads.Daemon, error) {
	p, err := lookup(name)
	if err != nil {
		return nil, nil, err
	}
	k, ds := p.kernel(m)
	return k, ds, nil
}

// Config describes one memory-management system (a kernel).
type Config struct {
	// ZonesMiB lists NUMA-zone sizes in MiB. Default: the host's two
	// HostZoneMiB zones. Each is rounded up to MAX_ORDER blocks.
	ZonesMiB []int
	// Policy selects the configuration: "default" (alias "thp"),
	// "ca", "eager", "ideal", "ingens", "ranger". Default "default".
	Policy string
}

// zonesPages converts zone sizes in MiB to page counts, each rounded
// up to whole MAX_ORDER blocks.
func zonesPages(zonesMiB []int) []uint64 {
	out := make([]uint64, len(zonesMiB))
	for i, m := range zonesMiB {
		pages := uint64(m) << 20 / addr.PageSize
		out[i] = (pages + addr.MaxOrderPages - 1) &^ uint64(addr.MaxOrderPages-1)
	}
	return out
}

// machine builds the configured zones, with sorted MAX_ORDER free
// lists when the policy wants them.
func (c Config) machine(sorted bool) *zone.Machine {
	zonesMiB := c.ZonesMiB
	if len(zonesMiB) == 0 {
		zonesMiB = []int{HostZoneMiB, HostZoneMiB}
	}
	return zone.NewMachine(zone.Config{ZonePages: zonesPages(zonesMiB), SortedMaxOrder: sorted})
}

// NativeSystem is a bare-metal machine running one kernel.
type NativeSystem struct {
	Kernel  *osim.Kernel
	Daemons []workloads.Daemon
}

// NewNativeSystem boots a native system: the machine, the policy's
// kernel and daemons, and the boot reservation at each zone base.
func NewNativeSystem(c Config) (*NativeSystem, error) {
	p, err := lookup(c.Policy)
	if err != nil {
		return nil, err
	}
	k, ds := p.kernel(c.machine(p.sorted))
	k.BootReserve(bootReserveBlocks)
	return &NativeSystem{Kernel: k, Daemons: ds}, nil
}

// NewEnv starts a process and returns its workload environment.
func (s *NativeSystem) NewEnv() *workloads.Env {
	env := workloads.NewNativeEnv(s.Kernel, 0)
	env.Daemons = s.Daemons
	return env
}

// VirtualSystem is a host kernel running one VM with a guest kernel —
// the nested-paging setup the paper evaluates.
type VirtualSystem struct {
	VM   *virt.VM
	Host *osim.Kernel
}

// VirtualConfig describes the two-dimensional setup. The VM is the
// fixture: two guestZoneMiB guest zones, with one boot block each.
// Neither dimension runs a daemon, so both policies must be ones
// Placement accepts.
type VirtualConfig struct {
	// Host configures the hypervisor-side kernel.
	Host Config
	// GuestPolicy is the guest kernel's policy (default: the host's).
	GuestPolicy string
	// Levels is the page-table depth in both dimensions: 4 (the
	// default, when zero) or 5 (LA57). It reaches the host kernel
	// before the VM's backing process exists.
	Levels int
}

// NewVirtualSystem boots a host and a VM.
func NewVirtualSystem(c VirtualConfig) (*VirtualSystem, error) {
	guestPolicy := c.GuestPolicy
	if guestPolicy == "" {
		guestPolicy = c.Host.Policy
	}
	hostPlacement, hostSorted, err := Placement(c.Host.Policy)
	if err != nil {
		return nil, err
	}
	guestPlacement, guestSorted, err := Placement(guestPolicy)
	if err != nil {
		return nil, err
	}
	host := osim.NewKernel(c.Host.machine(hostSorted), hostPlacement)
	host.BootReserve(bootReserveBlocks)
	if c.Levels != 0 {
		host.PageTableLevels = c.Levels
	}
	vm, err := virt.New(host, virt.Config{
		MemBytes:         2 * guestZoneMiB << 20,
		GuestZones:       zonesPages([]int{guestZoneMiB, guestZoneMiB}),
		GuestPolicy:      guestPlacement,
		GuestSorted:      guestSorted,
		GuestBootReserve: bootReserveBlocks,
	})
	if err != nil {
		return nil, err
	}
	if c.Levels != 0 {
		vm.Guest.PageTableLevels = c.Levels
	}
	return &VirtualSystem{VM: vm, Host: host}, nil
}

// NewEnv starts a guest process and returns its environment.
func (s *VirtualSystem) NewEnv() *workloads.Env {
	return workloads.NewVirtEnv(s.VM, 0)
}

// ContigReport summarises a process's contiguous mappings.
type ContigReport struct {
	Mappings      []metrics.Mapping
	Cov32, Cov128 float64
	Maps99        int
	TotalPages    uint64
}

func report(ms []metrics.Mapping) ContigReport {
	return ContigReport{
		Mappings:   ms,
		Cov32:      metrics.CoverageTopN(ms, 32),
		Cov128:     metrics.CoverageTopN(ms, 128),
		Maps99:     metrics.MappingsFor(ms, 0.99),
		TotalPages: metrics.TotalPages(ms),
	}
}

// Contiguity inspects an environment's mappings: native page-table
// extents for native systems, composed 2D (gVA→hPA) extents inside a
// VM — the paper's pagemap/VMI measurement.
func Contiguity(env *workloads.Env) ContigReport {
	return report(env.Mappings())
}

// TranslationReport is the outcome of a hardware-emulation run.
type TranslationReport struct {
	Result sim.Result
	// BaselineOverhead is the paging overhead (nested or native walk
	// cycles over ideal cycles) — what Fig. 13's 4K/THP bars show.
	BaselineOverhead float64
	// SpotOverhead, RMMOverhead, DSOverhead are the residual overheads
	// of the three translation schemes.
	SpotOverhead, RMMOverhead, DSOverhead float64
	// Correct/Mispredict/NoPrediction are SpOT's outcome fractions.
	Correct, Mispredict, NoPrediction float64
}

// Simulate drives n accesses of the workload's measured phase through
// the TLB and all translation schemes (the workload must already be
// Setup in env).
func Simulate(env *workloads.Env, w workloads.Workload, seed int64, n uint64, cfg sim.Config) (TranslationReport, error) {
	cfg.EnableSchemes = true
	res, err := sim.Run(env, w.Stream(newRand(seed), n), cfg)
	if err != nil {
		return TranslationReport{}, err
	}
	total := float64(res.Misses)
	if total == 0 {
		total = 1
	}
	return TranslationReport{
		Result:           res,
		BaselineOverhead: perfmodel.PagingOverhead(res),
		SpotOverhead:     perfmodel.SpotOverhead(res),
		RMMOverhead:      perfmodel.RMMOverhead(res),
		DSOverhead:       perfmodel.DSOverhead(res, walker.DefaultCosts().Nested4K4K),
		Correct:          float64(res.SpotCorrect) / total,
		Mispredict:       float64(res.SpotMispredict) / total,
		NoPrediction:     float64(res.SpotNoPred) / total,
	}, nil
}
