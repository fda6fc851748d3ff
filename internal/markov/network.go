package markov

import (
	"math"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// ExpectedImagesPerCommit returns the expected number of checkpoint-
// image-equivalents that cross the network per committed work interval
// of length T at resource age, under the chain's own semantics:
//
//   - exactly one full image for the checkpoint that commits the
//     interval (whichever attempt succeeds);
//   - a partial image when the initial attempt fails during its
//     checkpoint phase (failure time τ ∈ (T, T+C] under F_age), with
//     expected fraction (E[τ|mid-checkpoint]−T)/C, where C is C(T)
//     when the model has a CostFn, as in At;
//   - one recovery transfer per retry leg — full if the (unconditional)
//     failure time exceeds R, otherwise the prorated fraction
//     PM(R)/R·(1/F(R))·F(R) = PM(R)/R — with E[retries] = P02/P21.
//
// Retry legs in the chain span L+R+T without an explicit checkpoint
// phase, so mid-checkpoint partials on retries are not modeled; the
// discrete-event simulator accounts them and the property tests bound
// the difference. This quantity is the analytic counterpart of the
// paper's Figure 4/Table 3 measurements: heavier-tailed models choose
// longer T, committing more work per image moved.
func (m Model) ExpectedImagesPerCommit(T, age float64) float64 {
	if T <= 0 {
		return math.Inf(1)
	}
	tr := m.At(T, age)
	if tr.P21 <= 0 {
		return math.Inf(1)
	}
	images := 1.0

	// Partial checkpoint on the initial attempt. Failure times within
	// (T, C(T)+T] under the age-conditioned law.
	if ckptC, _ := m.costAt(T); ckptC > 0 {
		cond := dist.NewConditional(m.Avail, age)
		sT, pmT := cond.At(T)
		sEnd, pmEnd := cond.At(ckptC + T)
		// F_t(C+T) − F_t(T), kept as a difference of CDFs: sT − sEnd
		// rounds differently, and testdata/gamma.golden pins this form.
		pMid := (1 - sEnd) - (1 - sT)
		if pMid > 1e-300 {
			eMid := (pmEnd - pmT) / pMid
			frac := (eMid - T) / ckptC
			if frac > 0 {
				images += pMid * math.Min(frac, 1)
			}
		}
	}

	// Recovery transfers over the expected retries.
	retries := tr.P02 / tr.P21
	perRetry := 1.0
	if m.Costs.R > 0 {
		perRetry = m.Avail.Survival(m.Costs.R) + m.Avail.PartialMoment(m.Costs.R)/m.Costs.R
	}
	images += retries * perRetry
	return images
}

// ExpectedBandwidthRate returns the expected long-run network rate in
// image-sizes per second of wall-clock time when checkpointing every
// T seconds at the given age: ExpectedImagesPerCommit / Γ. Multiply by
// the image size for MB/s.
func (m Model) ExpectedBandwidthRate(T, age float64) float64 {
	g := m.Gamma(T, age)
	if math.IsInf(g, 1) || g <= 0 {
		return math.Inf(1)
	}
	return m.ExpectedImagesPerCommit(T, age) / g
}
