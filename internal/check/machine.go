package check

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/hw/tlb"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/osim/vma"
	"repro/internal/virt"
	"repro/internal/workloads"
)

// Placement policy names for Config.Policy.
const (
	PolicyDefault = "default"
	PolicyCA      = "ca"
	PolicyEager   = "eager"
)

// Machine geometry and driver bounds. Small on purpose: a few dozen
// MAX_ORDER blocks keep full audits cheap enough to run every
// CheckEvery ops under -race, while fragmentation, OOM-adjacent
// pressure, and cross-zone fallback all still occur. The exported
// bounds are the trace replay engine's (internal/tracein) too, so both
// consumers of one trace clamp it into the same regime.
const (
	defaultCheckEvery = 128
	maxProcs          = 4
	NativeZoneBlocks  = 8    // native zone size, MAX_ORDER blocks
	MinVMAPages       = 8    // smallest mmap
	MaxVMAPages       = 1024 // largest mmap
	MaxRangePages     = 512  // longest range touch
	BudgetPct         = 45   // footprint cap, % of machine pages
	MaxHogSets        = 2    // outstanding hog pin sets
	TLBEntries        = 64
	TLBWays           = 8
	TLBBurst          = 32 // accesses per TLB burst
)

// Config selects a Machine variant. The zero value is a native machine
// with the default policy, no daemons, seed 0.
type Config struct {
	// Nested runs the op stream inside a VM: ops drive guest processes,
	// with host backing faulted through the nested (2D) path, and both
	// the guest and host kernels audited.
	Nested bool
	// Policy is the placement policy under test: PolicyDefault,
	// PolicyCA (with sorted MAX_ORDER lists, as the experiments run
	// it), or PolicyEager. Empty means PolicyDefault.
	Policy string
	// Daemons attaches Ingens (THP off, async promotion) and Ranger to
	// the kernel under test, polled on every touch like the experiment
	// environments do.
	Daemons bool
	// Seed makes the run deterministic: op parameter expansion, random
	// op generation, and hog placement all derive from it.
	Seed uint64
	// CheckEvery is the full-consistency period in ops (checkAll on
	// every process plus Audit on every kernel); 0 means 128. Cheap
	// per-op checks run regardless.
	CheckEvery int
}

// RunStats counts what a run actually exercised, so tests can assert a
// sequence was not vacuously green.
type RunStats struct {
	Ops         int
	Skipped     int // ops that found nothing to do (no VMA, budget, …)
	OOMs        int // ops that hit osim.ErrOOM (tolerated)
	Resyncs     int // full oracle rebuilds after daemon page movement
	TLBAccesses uint64
	TLBMisses   uint64
}

// machProc is one process under test with its oracle and live VMAs.
type machProc struct {
	env    *workloads.Env
	oracle *ptOracle
	vmas   []*vma.VMA
	forked bool
}

// Machine is the stateful differential driver: it applies decoded ops
// to a real kernel (native or nested) and keeps the reference models in
// lockstep, failing on the first divergence. Deterministic per Config.
type Machine struct {
	cfg     Config
	kern    *osim.Kernel // kernel under test (guest kernel when nested)
	vm      *virt.VM     // nil when native
	procs   []*machProc
	daemons []workloads.Daemon
	ingens  *daemon.Ingens

	hogs [][]workloads.HogExtent // outstanding hog pins
	// hogRng is reseeded per OpHog, drawing what a fresh
	// rand.NewSource of the same seed would.
	hogRng *rand.Rand

	tlb     *tlb.TLB
	reftlb  *RefTLB
	hotVAs  []addr.VirtAddr // fixed hot set: ≤ Ways distinct (tag, size)
	hotHuge []bool

	budgetPages    uint64
	lastHostMapped uint64
	steps          int

	Stats RunStats
}

// PlacementFor resolves a Config.Policy name — PolicyDefault (or
// empty), PolicyCA, PolicyEager — through core's policy table to a
// fresh placement plus whether the machine's MAX_ORDER free lists
// should be sorted. Exported so the trace-replay engine
// (internal/tracein) builds its shard kernels from the exact same
// policy vocabulary the differential machine is checked under.
func PlacementFor(name string) (osim.Placement, bool, error) {
	switch name {
	case "", PolicyDefault, PolicyCA, PolicyEager:
		return core.Placement(name)
	}
	return nil, false, fmt.Errorf("check: unknown policy %q", name)
}

// NewMachine builds the machine, kernels, reference models, and the
// initial process.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = defaultCheckEvery
	}
	pol, sorted, err := PlacementFor(cfg.Policy)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, hogRng: rand.New(workloads.NewSource(0))}
	if cfg.Nested {
		hostM := zone.NewMachine(zone.Config{
			ZonePages: []uint64{10 * addr.MaxOrderPages, 10 * addr.MaxOrderPages},
		})
		host := osim.NewKernel(hostM, osim.DefaultPolicy{})
		host.BootReserve(1)
		vm, err := virt.New(host, virt.Config{
			MemBytes:         8 * addr.MaxOrderPages * addr.PageSize,
			GuestZones:       []uint64{4 * addr.MaxOrderPages, 4 * addr.MaxOrderPages},
			GuestPolicy:      pol,
			GuestSorted:      sorted,
			GuestBootReserve: 1,
		})
		if err != nil {
			return nil, err
		}
		m.vm, m.kern = vm, vm.Guest
	} else {
		zm := zone.NewMachine(zone.Config{
			ZonePages:      []uint64{NativeZoneBlocks * addr.MaxOrderPages, NativeZoneBlocks * addr.MaxOrderPages},
			SortedMaxOrder: sorted,
		})
		m.kern = osim.NewKernel(zm, pol)
		m.kern.BootReserve(1)
	}
	if cfg.Daemons {
		m.ingens = daemon.NewIngens(m.kern)
		m.daemons = append(m.daemons, m.ingens, daemon.NewRanger(m.kern))
	}
	m.budgetPages = m.kern.Machine.TotalPages() * BudgetPct / 100

	m.tlb = tlb.New(TLBEntries, TLBWays)
	m.reftlb = NewRefTLB(m.tlb.Entries())
	// Fix the hot access set once: exactly Ways distinct (tag, size)
	// pairs, so no TLB set ever exceeds its associativity and the
	// set-associative/fully-associative agreement theorem applies for
	// the whole run (see RefTLB).
	hr := &prng{s: cfg.Seed ^ 0x0abcdef123456789}
	seen := make(map[uint64]bool)
	for len(m.hotVAs) < m.tlb.Ways() {
		tag := hr.next() % (1 << 24)
		huge := hr.next()%4 == 0
		key := tag << 1
		if huge {
			key |= 1
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		if huge {
			m.hotVAs = append(m.hotVAs, addr.VirtAddr(tag<<addr.HugeShift))
		} else {
			m.hotVAs = append(m.hotVAs, addr.VirtAddr(tag<<addr.PageShift))
		}
		m.hotHuge = append(m.hotHuge, huge)
	}

	m.addProc(m.kern.NewProcess(0), false)
	return m, nil
}

func (m *Machine) addProc(p *osim.Process, forked bool) *machProc {
	mp := &machProc{
		env:    &workloads.Env{Kernel: m.kern, Proc: p, VM: m.vm, Daemons: m.daemons},
		oracle: newPTOracle(),
		forked: forked,
	}
	m.procs = append(m.procs, mp)
	return mp
}

func (m *Machine) pick(r *prng) *machProc {
	return m.procs[r.intn(uint64(len(m.procs)))]
}

func pickVMA(mp *machProc, r *prng) *vma.VMA {
	if len(mp.vmas) == 0 {
		return nil
	}
	return mp.vmas[r.intn(uint64(len(mp.vmas)))]
}

// outstanding is the total VMA footprint in pages across processes; the
// driver keeps it under budgetPages so OOM stays an exercised edge, not
// the steady state.
func (m *Machine) outstanding() uint64 {
	var n uint64
	for _, mp := range m.procs {
		for _, v := range mp.vmas {
			n += v.Pages()
		}
	}
	return n
}

// hugeClip widens [va, va+pages*4K) to huge-page boundaries — the
// region a fault, CoW copy, or THP mapping may have perturbed — clipped
// to the VMA.
func hugeClip(v *vma.VMA, va addr.VirtAddr, pages uint64) (addr.VirtAddr, uint64) {
	start := va.HugeDown()
	if start < v.Start {
		start = v.Start
	}
	end := va.Add(pages * addr.PageSize).HugeUp()
	if end > v.End {
		end = v.End
	}
	return start, uint64(end-start) / addr.PageSize
}

// tolerate returns nil for the errors an op stream legitimately
// produces (memory exhaustion), counting them; anything else is a bug.
func (m *Machine) tolerate(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, osim.ErrOOM) {
		m.Stats.OOMs++
		return nil
	}
	return err
}

// Apply runs one op against the kernel and the reference models, then
// cross-checks. The oracle trails the SUT: the op's perturbed range is
// re-read afterwards, and the checks assert internal consistency plus
// stability of everything the op had no business changing.
func (m *Machine) Apply(op Op) error {
	m.steps++
	m.Stats.Ops++
	r := newPRNG(op, m.cfg.Seed)
	movedBefore := m.kern.Stats.Promotions + m.kern.Stats.Migrations

	var touched *machProc
	var touchedVA addr.VirtAddr
	var touchedPages uint64

	switch op.Kind {
	case OpMMap:
		mp := m.pick(r)
		pages := MinVMAPages + r.intn(MaxVMAPages-MinVMAPages+1)
		if m.outstanding()+pages > m.budgetPages {
			m.Stats.Skipped++
			break
		}
		v, err := mp.env.MMap(pages * addr.PageSize)
		if err != nil {
			if err := m.tolerate(err); err != nil {
				return fmt.Errorf("mmap: %w", err)
			}
			break
		}
		mp.vmas = append(mp.vmas, v)
		touched, touchedVA, touchedPages = mp, v.Start, v.Pages()

	case OpTouch:
		mp := m.pick(r)
		v := pickVMA(mp, r)
		if v == nil {
			m.Stats.Skipped++
			break
		}
		va := v.Start.Add(r.intn(v.Pages()) * addr.PageSize)
		if err := m.tolerate(mp.env.Touch(va, r.next()%2 == 0)); err != nil {
			return fmt.Errorf("touch %s: %w", va, err)
		}
		touched = mp
		touchedVA, touchedPages = hugeClip(v, va, 1)

	case OpTouchRange:
		mp := m.pick(r)
		v := pickVMA(mp, r)
		if v == nil {
			m.Stats.Skipped++
			break
		}
		startPage := r.intn(v.Pages())
		n := 1 + r.intn(min(v.Pages()-startPage, MaxRangePages))
		va := v.Start.Add(startPage * addr.PageSize)
		if err := m.tolerate(mp.env.PopulateRange(v, va, n*addr.PageSize)); err != nil {
			return fmt.Errorf("touch-range %s+%d: %w", va, n, err)
		}
		touched = mp
		touchedVA, touchedPages = hugeClip(v, va, n)

	case OpUnmap:
		mp := m.pick(r)
		v := pickVMA(mp, r)
		if v == nil {
			m.Stats.Skipped++
			break
		}
		touched, touchedVA, touchedPages = mp, v.Start, v.Pages()
		mp.env.Proc.MUnmap(v)
		if i := slices.Index(mp.vmas, v); i >= 0 {
			mp.vmas = slices.Delete(mp.vmas, i, i+1)
		}

	case OpFork:
		if len(m.procs) >= maxProcs {
			// At the cap, exercise teardown instead: exit the oldest
			// forked child.
			idx := -1
			for i, mp := range m.procs {
				if mp.forked {
					idx = i
					break
				}
			}
			if idx < 0 {
				m.Stats.Skipped++
				break
			}
			mp := m.procs[idx]
			mp.env.Proc.Exit()
			m.procs = slices.Delete(m.procs, idx, idx+1)
			break
		}
		mp := m.pick(r)
		var parentPages uint64
		for _, v := range mp.vmas {
			parentPages += v.Pages()
		}
		if m.outstanding()+parentPages > m.budgetPages {
			m.Stats.Skipped++
			break
		}
		child := mp.env.Proc.Fork()
		cp := m.addProc(child, true)
		child.VMAs.Visit(func(v *vma.VMA) { cp.vmas = append(cp.vmas, v) })
		// Fork rewrites flags (CoW downgrade) in both address spaces:
		// rebuild both oracles, then assert the fork relationship —
		// same key sets, same physical pages (no copies yet).
		if err := mp.oracle.refreshAll(mp.env.Proc, m.vm); err != nil {
			return fmt.Errorf("fork parent refresh: %w", err)
		}
		if err := cp.oracle.refreshAll(child, m.vm); err != nil {
			return fmt.Errorf("fork child refresh: %w", err)
		}
		if err := mp.oracle.diffShared(cp.oracle); err != nil {
			return err
		}

	case OpHog:
		if len(m.hogs) >= MaxHogSets {
			m.Stats.Skipped++
			break
		}
		frac := float64(2+r.intn(9)) / 100
		m.hogRng.Seed(int64(r.next() >> 1))
		ext := workloads.Hog(m.kern.Machine, frac, m.hogRng)
		if len(ext) == 0 {
			m.Stats.Skipped++
			break
		}
		m.hogs = append(m.hogs, ext)

	case OpUnhog:
		if len(m.hogs) == 0 {
			m.Stats.Skipped++
			break
		}
		i := int(r.intn(uint64(len(m.hogs))))
		workloads.Unhog(m.kern.Machine, m.hogs[i])
		m.hogs = slices.Delete(m.hogs, i, i+1)

	case OpDaemonTick:
		workloads.SettleDaemons(m.kern, m.daemons, 1)

	case OpPromote:
		if m.ingens == nil {
			m.Stats.Skipped++
			break
		}
		m.ingens.Scan()

	case OpTLB:
		for i := 0; i < TLBBurst; i++ {
			if r.next()%64 == 0 {
				m.tlb.Flush()
				m.reftlb.Flush()
			}
			j := r.intn(uint64(len(m.hotVAs)))
			va := m.hotVAs[j].Add(r.intn(addr.PageSize))
			hit := m.tlb.Lookup(va)
			refHit := m.reftlb.Lookup(va)
			if hit != refHit {
				return fmt.Errorf("tlb: %s hit=%v but reference hit=%v", va, hit, refHit)
			}
			m.Stats.TLBAccesses++
			if !hit {
				m.Stats.TLBMisses++
				m.tlb.Insert(va, m.hotHuge[j])
				m.reftlb.Insert(va, m.hotHuge[j])
			}
		}

	default:
		return fmt.Errorf("check: unknown op kind %d", op.Kind)
	}

	// Daemons may have fired on any touch path and moved pages under
	// every process; the movement counters say whether the incremental
	// refresh is enough or the oracles must be rebuilt.
	if m.kern.Stats.Promotions+m.kern.Stats.Migrations != movedBefore {
		m.Stats.Resyncs++
		for _, mp := range m.procs {
			if err := mp.oracle.refreshAll(mp.env.Proc, m.vm); err != nil {
				return fmt.Errorf("resync process %d: %w", mp.env.Proc.ID, err)
			}
		}
	} else if touched != nil {
		if err := touched.oracle.refreshRange(touched.env.Proc, m.vm, touchedVA, touchedPages); err != nil {
			return fmt.Errorf("refresh process %d: %w", touched.env.Proc.ID, err)
		}
	}

	// Cheap per-op checks: accounting identities and PA stability of
	// sampled pages the op had no reason to move.
	for _, mp := range m.procs {
		if got, want := mp.env.Proc.PT.MappedPages(), mp.env.Proc.RSSPages; got != want {
			return fmt.Errorf("process %d: page table maps %d pages, RSS charges %d", mp.env.Proc.ID, got, want)
		}
	}
	if err := m.sampleStable(r); err != nil {
		return err
	}
	if m.steps%m.cfg.CheckEvery == 0 {
		return m.CheckAll()
	}
	return nil
}

// sampleStable spot-checks a few deterministically chosen pages per
// process against the oracle (PA and masked flags unchanged).
func (m *Machine) sampleStable(r *prng) error {
	for _, mp := range m.procs {
		if len(mp.vmas) == 0 {
			continue
		}
		vas := make([]addr.VirtAddr, 0, 4)
		for i := 0; i < 4; i++ {
			v := mp.vmas[r.intn(uint64(len(mp.vmas)))]
			vas = append(vas, v.Start.Add(r.intn(v.Pages())*addr.PageSize))
		}
		if err := mp.oracle.checkStable(mp.env.Proc, vas); err != nil {
			return fmt.Errorf("process %d: %w", mp.env.Proc.ID, err)
		}
	}
	return nil
}

// CheckAll runs every oracle's full diff plus the deep cross-layer
// audit of each kernel. Called every CheckEvery ops and at the end of a
// run; also exported for tests that drive Apply directly.
func (m *Machine) CheckAll() error {
	for _, mp := range m.procs {
		if err := mp.oracle.checkAll(mp.env.Proc, m.vm); err != nil {
			return fmt.Errorf("process %d: %w", mp.env.Proc.ID, err)
		}
	}
	var pinned []Extent
	for _, set := range m.hogs {
		for _, e := range set {
			pinned = append(pinned, Extent{PFN: uint64(e.PFN), Pages: e.Pages})
		}
	}
	if err := Audit(m.kern, pinned); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if m.vm != nil {
		if err := Audit(m.vm.Host, nil); err != nil {
			return fmt.Errorf("host audit: %w", err)
		}
		// No host daemons and nothing unmaps guest backing: the host
		// mapping of guest memory only ever grows.
		if hm := m.vm.HostVMA().MappedPages; hm < m.lastHostMapped {
			return fmt.Errorf("host backing shrank: %d -> %d mapped pages", m.lastHostMapped, hm)
		} else {
			m.lastHostMapped = hm
		}
	}
	if m.tlb.Lookups() != m.Stats.TLBAccesses || m.tlb.Misses() != m.Stats.TLBMisses {
		return fmt.Errorf("tlb counters (%d lookups, %d misses) disagree with driver (%d, %d)",
			m.tlb.Lookups(), m.tlb.Misses(), m.Stats.TLBAccesses, m.Stats.TLBMisses)
	}
	return nil
}

// ApplyOps applies a decoded sequence and finishes with CheckAll.
func (m *Machine) ApplyOps(ops []Op) error {
	for i, op := range ops {
		if err := m.Apply(op); err != nil {
			return fmt.Errorf("op %d (%s A=%#x B=%#x C=%#x): %w", i, op.Kind, op.A, op.B, op.C, err)
		}
	}
	return m.CheckAll()
}

// opWeights shape RandomOp streams: touch-heavy with steady structural
// churn, mirroring how the experiments actually stress the kernel.
var opWeights = [numOpKinds]int{
	OpMMap:       12,
	OpTouch:      26,
	OpTouchRange: 15,
	OpUnmap:      8,
	OpFork:       5,
	OpHog:        3,
	OpUnhog:      3,
	OpDaemonTick: 7,
	OpPromote:    4,
	OpTLB:        17,
}

var opWeightSum = func() int {
	s := 0
	for _, w := range opWeights {
		s += w
	}
	return s
}()

// RandomOp draws one weighted op from rr.
func RandomOp(rr *rand.Rand) Op {
	n := rr.Intn(opWeightSum)
	k := OpKind(0)
	for ; k < numOpKinds; k++ {
		n -= opWeights[k]
		if n < 0 {
			break
		}
	}
	return Op{
		Kind: k,
		A:    rr.Uint64() & 0xfffff,
		B:    rr.Uint64() & 0xfffff,
		C:    rr.Uint64() & 0xfffff,
	}
}

// Run applies nops random ops seeded from the config and finishes with
// CheckAll.
func (m *Machine) Run(nops int) error {
	rr := rand.New(rand.NewSource(int64(m.cfg.Seed)))
	for i := 0; i < nops; i++ {
		op := RandomOp(rr)
		if err := m.Apply(op); err != nil {
			return fmt.Errorf("op %d (%s A=%#x B=%#x C=%#x): %w", i, op.Kind, op.A, op.B, op.C, err)
		}
	}
	return m.CheckAll()
}
