package check

import (
	"fmt"

	"repro/internal/hw/translation"
	"repro/internal/mem/addr"
)

// backendProbesPerOp is how many in-VMA virtual addresses the differ
// cross-checks against every backend after each op; probes of
// previously sampled (possibly since-unmapped) addresses and one
// guaranteed out-of-space probe ride along.
const (
	backendProbesPerOp = 4
	backendHistProbes  = 2  // re-probes of earlier sample addresses per op
	backendHistSize    = 64 // ring of remembered sample addresses
)

// backendSalt decorrelates the differ's address sampling from the
// parameter expansion Machine.Apply performs on the same op.
const backendSalt = 0xd1ffe12b_ac4e2d05

// backendState is one attached backend plus its counter mirror: the
// differ predicts exactly how each Lookup must move the counters and
// fails on any disagreement, which pins both self-consistency
// invariants (hits+misses == lookups, all three monotone).
type backendState struct {
	be   translation.Backend
	want translation.Counters
}

// BackendDiffer drives a Machine op stream and, after every op,
// cross-checks each attached translation backend against the flat
// page-table oracle of the machine's initial process:
//
//   - Resolve (the non-mutating probe) must agree with the oracle on
//     the physical address and mapped-ness of sampled pages — mapped
//     pages inside live VMAs, never-faulted pages, and an address no
//     VMA covers;
//   - the access protocol (Lookup → Translate → Insert) run on the
//     same addresses must return oracle-correct physical addresses on
//     every successful walk and move the hit/miss counters exactly as
//     observed, with hits+misses == lookups and no counter moving
//     backwards.
//
// Backends attach to the first process because it can never exit (only
// forked children are torn down at the process cap), so its page
// tables — and the observer subscriptions backends hang off them —
// live for the whole run.
type BackendDiffer struct {
	m        *Machine
	backends []*backendState
	detached bool

	// hist remembers recently probed addresses so later ops re-probe
	// them after the mappings underneath have churned. Without it the
	// probe set tracks the live VMAs and derived state that stales
	// *behind* an unmap — a range or segment still covering a dead
	// region — would go unobserved.
	hist    [backendHistSize]addr.VirtAddr
	histLen int
	histPos int

	// Probes and Drives count Resolve cross-checks and access-protocol
	// drives, so tests can assert a run was not vacuously green.
	Probes, Drives uint64
}

// NewBackendDiffer builds a Machine for cfg and attaches the named
// translation backends (all of them when names is empty) to its
// initial process, using the machine's own TLB geometry.
func NewBackendDiffer(cfg Config, names ...string) (*BackendDiffer, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		names = translation.Names()
	}
	d := &BackendDiffer{m: m}
	for _, n := range names {
		be, err := translation.New(n, m.procs[0].env, translation.Config{
			TLBEntries: tlbEntries,
			TLBWays:    tlbWays,
		})
		if err != nil {
			return nil, err
		}
		d.backends = append(d.backends, &backendState{be: be})
	}
	return d, nil
}

// Step applies one op to the machine (with all its own oracle checks)
// and then cross-checks every backend.
func (d *BackendDiffer) Step(op Op) error {
	if err := d.m.Apply(op); err != nil {
		return err
	}
	return d.crossCheck(op)
}

// Finish runs the machine's full end-of-stream check.
func (d *BackendDiffer) Finish() error { return d.m.CheckAll() }

// DetachInvalidation unhooks every backend from the page tables while
// the machine keeps mutating them — simulating an invalidation channel
// that silently drops events. Derived-state backends (hashed, rmm, ds)
// must then serve stale translations that the next crossCheck catches;
// the corruption test uses this to prove the differ is not vacuous.
// The paged backend is exempt from the divergence expectation: it
// subscribes to nothing and holds no derived translation state — every
// TLB miss walks the live tables — so it has nothing to go stale.
func (d *BackendDiffer) DetachInvalidation() {
	for _, s := range d.backends {
		s.be.Close()
	}
	d.detached = true
}

// sampleVAs picks the page-aligned probe set for one op: addresses
// inside live VMAs (mapped or never faulted, the PRNG does not care),
// a few addresses from earlier ops' samples — whose VMAs may be long
// gone — and one address far above anything the machine maps.
func (d *BackendDiffer) sampleVAs(r *prng) []addr.VirtAddr {
	mp := d.m.procs[0]
	vas := make([]addr.VirtAddr, 0, backendProbesPerOp+backendHistProbes+1)
	if len(mp.vmas) > 0 {
		for i := 0; i < backendProbesPerOp; i++ {
			v := mp.vmas[r.intn(uint64(len(mp.vmas)))]
			vas = append(vas, v.Start.Add(r.intn(v.Pages())*addr.PageSize))
		}
	}
	for i := 0; i < backendHistProbes && d.histLen > 0; i++ {
		vas = append(vas, d.hist[r.intn(uint64(d.histLen))])
	}
	for _, va := range vas[:min(len(vas), backendProbesPerOp)] {
		d.hist[d.histPos] = va
		d.histPos = (d.histPos + 1) % backendHistSize
		if d.histLen < backendHistSize {
			d.histLen++
		}
	}
	return append(vas, addr.VirtAddr(1)<<40)
}

// expected is the oracle's verdict for one page-aligned address: the
// physical address backends must serve, or mapped=false. In nested
// mode the composed host PA is the currency; a guest frame whose host
// backing appeared after the oracle's last refresh is upgraded lazily,
// exactly like checkAll does.
func (d *BackendDiffer) expected(va addr.VirtAddr) (addr.PhysAddr, bool) {
	mp := d.m.procs[0]
	e, ok := mp.oracle.entries[va.PageNumber()]
	if !ok {
		return 0, false
	}
	if d.m.vm == nil {
		return e.pa, true
	}
	if e.hpaOK {
		return e.hpa, true
	}
	hpa, hok := d.m.vm.TranslateFull(mp.env.Proc, va)
	if !hok {
		return 0, false
	}
	e.hpa, e.hpaOK = hpa, true
	mp.oracle.entries[va.PageNumber()] = e
	return hpa, true
}

// crossCheck runs the per-op backend checks described on BackendDiffer.
func (d *BackendDiffer) crossCheck(op Op) error {
	r := newPRNG(op, d.m.cfg.Seed^backendSalt)
	vas := d.sampleVAs(r)
	for _, s := range d.backends {
		be := s.be
		for _, va := range vas {
			wantPA, wantOK := d.expected(va)
			pa, _, ok := be.Resolve(va)
			if ok != wantOK {
				return fmt.Errorf("backend %s: Resolve(%s) ok=%v but oracle says mapped=%v",
					be.Name(), va, ok, wantOK)
			}
			if ok && pa != wantPA {
				return fmt.Errorf("backend %s: Resolve(%s) = %s but oracle says %s",
					be.Name(), va, pa, wantPA)
			}
			d.Probes++
		}
		for _, va := range vas {
			// Drive the access loop's protocol. A Lookup hit needs no
			// PA assertion of its own (the TLB caches presence, and may
			// even be stale-present after an unmap, like real hardware
			// without shootdowns — Resolve above is the PA observable);
			// a miss pays Translate, whose walk must match the oracle.
			s.want.Lookups++
			if be.Lookup(va) {
				s.want.Hits++
			} else {
				s.want.Misses++
				wantPA, wantOK := d.expected(va)
				w := be.Translate(va)
				if w.OK != wantOK {
					return fmt.Errorf("backend %s: Translate(%s) ok=%v but oracle says mapped=%v",
						be.Name(), va, w.OK, wantOK)
				}
				if w.OK {
					if w.HPA != wantPA {
						return fmt.Errorf("backend %s: Translate(%s) = %s but oracle says %s",
							be.Name(), va, w.HPA, wantPA)
					}
					be.Insert(va, w)
				}
			}
			d.Drives++
		}
		if r.next()%16 == 0 {
			be.Flush()
		}
		got := be.Counters()
		if got != s.want {
			return fmt.Errorf("backend %s: counters %+v, differ mirror %+v (op %s)",
				be.Name(), got, s.want, op.Kind)
		}
		if got.Hits+got.Misses != got.Lookups {
			return fmt.Errorf("backend %s: hits %d + misses %d != lookups %d",
				be.Name(), got.Hits, got.Misses, got.Lookups)
		}
	}
	return nil
}
