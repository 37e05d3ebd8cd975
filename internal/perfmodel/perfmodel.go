// Package perfmodel implements the paper's linear performance model
// (Table IV): every configuration's address-translation overhead is the
// cycles it spends (or would spend) in page walks relative to the ideal
// execution time with zero translation overhead, T_ideal = T_THP -
// C_THP. SpOT's overhead charges the full walk for no-predictions and
// walk + flush penalty for mispredictions; vRMM charges walks only for
// misses no range covers (the range-table walk is assumed hidden);
// Direct Segments charges walks only outside the segment.
//
// It also implements the Table VII estimation of unsafe load
// instructions (USLs) under speculative execution, and the Fig. 11
// software-runtime model that converts kernel-side logical time
// (migrations, faults, zeroing) into a normalized execution time.
package perfmodel

import "repro/internal/sim"

// Model constants.
const (
	// IdealCyclesPerAccess converts stream accesses to ideal cycles:
	// one modelled memory access stands for ~5 instructions at IPC≈1
	// (loads are ~20-30% of the instruction mix, paper Table VII).
	IdealCyclesPerAccess = 5.0

	// MispredictPenaltyCycles is the pipeline-flush cost added on top
	// of the walk for a wrong prediction (paper §V: 20 cycles).
	MispredictPenaltyCycles = 20.0

	// InstrPerAccess is the instruction count one access stands for.
	InstrPerAccess = 5.0

	// BranchResolveCycles is the branch-resolution latency used for the
	// Spectre USL estimate (paper: ~20 cycles).
	BranchResolveCycles = 20.0

	// BranchesPerInstr is the measured branch density (Table VII).
	BranchesPerInstr = 0.0587

	// LoadsPerCycle is the load issue rate used by both USL equations.
	LoadsPerCycle = 0.2

	// AppNsPerByte models application compute time per footprint byte
	// for the Fig. 11 software-overhead normalisation: big-memory runs
	// process each byte many times, so execution time scales with
	// footprint at ~8 ns/byte (≈ minutes at the paper's scale).
	AppNsPerByte = 8.0
)

// IdealCycles returns T_ideal for a stream of n accesses.
func IdealCycles(n uint64) float64 { return float64(n) * IdealCyclesPerAccess }

// PagingOverhead is O = C_walks / T_ideal for a baseline run (native
// 4K/THP or virtualized 4K/THP).
func PagingOverhead(r sim.Result) float64 {
	return r.WalkCycles / IdealCycles(r.Accesses)
}

// BackendOverhead is the cost-model hook for the pluggable translation
// backends (translation.Backend): each backend accumulates its own
// cycle currency in Result.WalkCycles — radix walks for paged, probe
// chains plus fill walks for hashed, uncovered fallbacks for rmm/ds —
// so overhead is uniformly C_backend / T_ideal. For the default paged
// backend this coincides with PagingOverhead.
func BackendOverhead(r sim.Result) float64 {
	return r.WalkCycles / IdealCycles(r.Accesses)
}

// SpotOverhead is O_SpOT: no-predictions expose the whole walk,
// mispredictions add the flush penalty on top, correct predictions are
// free (Table IV).
func SpotOverhead(r sim.Result) float64 {
	cycles := float64(r.SpotNoPred)*r.AvgWalkCycles +
		float64(r.SpotMispredict)*(r.AvgWalkCycles+MispredictPenaltyCycles)
	return cycles / IdealCycles(r.Accesses)
}

// RMMOverhead is O_vRMM: only misses with no covering range pay a walk.
func RMMOverhead(r sim.Result) float64 {
	return float64(r.RMMUncovered) * r.AvgWalkCycles / IdealCycles(r.Accesses)
}

// DSOverhead is O_DS: misses outside the dual direct segment pay the
// nested 4K walk cost (avg4K, from a v4K measurement or the walker's
// default).
func DSOverhead(r sim.Result, avg4K float64) float64 {
	return float64(r.DSMisses) * avg4K / IdealCycles(r.Accesses)
}

// USLEstimate is the Table VII computation.
type USLEstimate struct {
	BranchesPerInstrPct   float64
	DTLBMissesPerInstrPct float64
	SpectreUSLPct         float64 // unsafe loads per instruction, %
	SpOTUSLPct            float64
}

// EstimateUSL computes the unsafe-load estimates from a measured run:
//
//	Spectre USL = #branches × branch-resolution cycles × loads/cycle
//	SpOT USL    = #DTLB misses × page-walk cycles × loads/cycle
//
// both normalised per instruction.
func EstimateUSL(r sim.Result) USLEstimate {
	instr := float64(r.Accesses) * InstrPerAccess
	missesPerInstr := float64(r.Misses) / instr
	return USLEstimate{
		BranchesPerInstrPct:   BranchesPerInstr * 100,
		DTLBMissesPerInstrPct: missesPerInstr * 100,
		SpectreUSLPct:         BranchesPerInstr * BranchResolveCycles * LoadsPerCycle * 100,
		SpOTUSLPct:            missesPerInstr * r.AvgWalkCycles * LoadsPerCycle * 100,
	}
}

// SoftwareRuntime converts a workload's footprint plus the kernel-side
// logical time it consumed (fault service, zeroing, migrations,
// shootdowns) into a modelled wall-clock runtime in nanoseconds
// (Fig. 11): runtime = app compute + kernel time.
func SoftwareRuntime(footprintBytes, kernelNs uint64) float64 {
	return float64(footprintBytes)*AppNsPerByte + float64(kernelNs)
}

// NormalizedRuntime returns runtime(policy)/runtime(baseline).
func NormalizedRuntime(footprintBytes, policyKernelNs, baselineKernelNs uint64) float64 {
	return SoftwareRuntime(footprintBytes, policyKernelNs) /
		SoftwareRuntime(footprintBytes, baselineKernelNs)
}
