package cluster

import (
	"vscale/internal/core"
	"vscale/internal/scenario"
	"vscale/internal/sim"
)

// probeStat builds the hypothetical VMStat Algorithm 1 is probed with
// when placing a new VM: weighted per vCPU like every real domain, and
// assumed to compete at full throttle (consumption = the whole period
// on every pCPU), which keeps admission conservative — a releaser
// assumption would make every host look equally attractive.
func probeStat(vcpus, pcpus int, epoch sim.Time) core.VMStat {
	return core.VMStat{
		ID:          "!probe",
		Weight:      scenario.WeightPerVCPU * float64(vcpus),
		Consumption: sim.Time(int64(epoch) * int64(pcpus)),
		MaxVCPUs:    vcpus,
		UP:          vcpus == 1,
	}
}

// pickHost runs the paper's Algorithm 1 once per host with the new VM
// appended as a full-throttle competitor, and returns the index of the
// host whose probe gets the most CPU extendability — i.e. where the
// fair-share math says the newcomer (and, symmetrically, the
// incumbents) will be squeezed least.
//
// It is a pure function of published state, never of live hosts: each
// host's candidate set is its base-boundary snapshot (stats[i]) plus
// the router's staleness-correction probes (probes[i], VMs placed since
// that boundary), plus the newcomer's probe. Ties break toward fewer
// committed vCPUs (committed[i]+committedExtra[i], the snapshot value
// corrected for placements since), then the lower host index, so
// placement is deterministic. scratch holds the reusable buffers.
func pickHost(pcpus int, epoch sim.Time, stats, probes [][]core.VMStat, committed []int, committedExtra []int, vcpus int, scratch *placementScratch) int {
	best := 0
	bestExtend := sim.Time(-1)
	newProbe := probeStat(vcpus, pcpus, epoch)
	cand, res := scratch.cand, scratch.res
	for i := range probes {
		var base []core.VMStat
		var comm int
		if stats != nil {
			base = stats[i]
			comm = committed[i]
		}
		need := len(base) + len(probes[i]) + 1
		if cap(cand) < need {
			cand = make([]core.VMStat, 0, need*2)
		}
		cand = cand[:0]
		cand = append(cand, base...)
		cand = append(cand, probes[i]...)
		cand = append(cand, newProbe)
		res = core.ComputeExtendability(res[:0], cand, pcpus, epoch)
		extend := res[len(res)-1].Extend
		switch {
		case extend > bestExtend:
			best, bestExtend = i, extend
		case extend == bestExtend:
			var bestComm int
			if stats != nil {
				bestComm = committed[best]
			}
			if comm+committedExtra[i] < bestComm+committedExtra[best] {
				best = i
			}
		}
	}
	scratch.cand, scratch.res = cand, res
	return best
}

// placementScratch is pickHost's candidate and result buffers, reused
// across placements.
type placementScratch struct {
	cand []core.VMStat
	res  []core.Extendability
}
