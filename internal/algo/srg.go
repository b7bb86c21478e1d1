package algo

import (
	"fmt"
	"slices"

	"repro/internal/access"
	"repro/internal/state"
)

// SRG is the paper's SR/G Select (Figure 9): the Framework-NC selector
// parameterized by sorted-access depths H and a global random-access
// schedule Omega.
//
//   - SR ("sorted-then-random", Lemma 1): prefer a sorted access sa_i whose
//     last-seen score has not yet reached the suggested depth, i.e.
//     ell_i > h_i. Depths live in score space: h_i = 1 means "no sorted
//     access on p_i", h_i = 0 means "willing to drain the list".
//   - G ("global scheduling", adopted from MPro): when no sorted access is
//     below depth, probe the target object's next unevaluated predicate in
//     the fixed order Omega.
//
// Two pragmatic rules keep the selector total without affecting the
// configurations the optimizer compares: ties among eligible sorted
// accesses are broken by Omega order (deterministic), and if neither rule
// yields a legal access (e.g. depths reached but random access impossible
// on the remaining predicates), the first legal choice in Omega order is
// taken — the depths are guidance, never a source of nontermination.
type SRG struct {
	H     []float64 // depth thresholds, one per predicate, in [0,1]
	Omega []int     // permutation of predicate indices

	rank []int // rank[pred] = position in Omega, derived
}

// NewSRG validates and builds an SR/G selector for m predicates. A nil
// Omega defaults to index order.
func NewSRG(h []float64, omega []int) (*SRG, error) {
	s := &SRG{}
	if err := s.Reconfigure(h, omega); err != nil {
		return nil, err
	}
	return s, nil
}

// Reconfigure re-points the selector at a new (H, Omega) in place, under
// NewSRG's validation, reusing its backing arrays: the optimizer prices
// hundreds of configurations through one selector. The inputs are copied;
// a rejected configuration leaves the selector as it was.
func (s *SRG) Reconfigure(h []float64, omega []int) error {
	m := len(h)
	if m == 0 {
		return fmt.Errorf("algo: SRG requires at least one depth")
	}
	for i, x := range h {
		if x < 0 || x > 1 || x != x {
			return fmt.Errorf("algo: SRG depth h_%d = %v outside [0,1]", i+1, x)
		}
	}
	if omega != nil && len(omega) != m {
		return fmt.Errorf("algo: SRG schedule length %d != %d predicates", len(omega), m)
	}
	if !s.setRank(omega, m) {
		s.setRank(s.Omega, len(s.Omega))
		return fmt.Errorf("algo: SRG schedule %v is not a permutation of 0..%d", omega, m-1)
	}
	s.H = append(s.H[:0], h...)
	s.Omega = slices.Grow(s.Omega[:0], m)[:m]
	for pred, pos := range s.rank {
		s.Omega[pos] = pred
	}
	return nil
}

// setRank derives rank (the inverse of the schedule) for m predicates,
// nil meaning index order, and reports whether omega is a permutation of
// 0..m-1; on false rank is left partially written.
func (s *SRG) setRank(omega []int, m int) bool {
	s.rank = slices.Grow(s.rank[:0], m)[:m]
	for i := range s.rank {
		s.rank[i] = -1
	}
	for pos := range s.rank {
		pred := pos
		if omega != nil {
			pred = omega[pos]
		}
		if pred < 0 || pred >= m || s.rank[pred] != -1 {
			return false
		}
		s.rank[pred] = pos
	}
	return true
}

// Name describes the configuration.
func (s *SRG) Name() string { return fmt.Sprintf("SR/G(H=%v,Omega=%v)", s.H, s.Omega) }

// Choose implements Selector per Figure 9.
func (s *SRG) Choose(t *state.Table, sess *access.Session, target int, choices []Choice) Choice {
	best := -1
	// Rule 1: sorted access still above its depth, earliest in Omega.
	for idx, ch := range choices {
		if ch.Kind != access.SortedAccess {
			continue
		}
		if t.LastSeen(ch.Pred) > s.H[ch.Pred] {
			if best == -1 || s.rank[ch.Pred] < s.rank[choices[best].Pred] {
				best = idx
			}
		}
	}
	if best >= 0 {
		return choices[best]
	}
	// Rule 2: random access on the next unevaluated predicate by Omega.
	for idx, ch := range choices {
		if ch.Kind != access.RandomAccess {
			continue
		}
		if best == -1 || s.rank[ch.Pred] < s.rank[choices[best].Pred] {
			best = idx
		}
	}
	if best >= 0 {
		return choices[best]
	}
	// Fallback: any legal choice, earliest in Omega (forced deepening).
	best = 0
	for idx, ch := range choices[1:] {
		if s.rank[ch.Pred] < s.rank[choices[best].Pred] {
			best = idx + 1
		}
	}
	return choices[best]
}

// UpperSelector is the adaptive per-object probe selector of Algorithm
// Upper (Marian et al., the paper's probe-only reference alongside MPro):
// instead of a fixed global schedule it probes, for each task, the
// undetermined predicate with the greatest potential to shrink the
// object's maximal-possible score per unit of probe cost.
//
// The potential of predicate i is F-bar(u) minus the bound recomputed with
// p_i set to 0 — how far the bound could fall if the probe comes back
// worst-case — divided by cr_i. Sorted accesses are used only for the
// virtual unseen object (cheapest list first), matching Upper's probe-only
// setting while remaining total in mixed scenarios.
type UpperSelector struct {
	buf []float64
}

// Name identifies the selector.
func (u *UpperSelector) Name() string { return "Upper" }

// Choose implements Selector.
func (u *UpperSelector) Choose(t *state.Table, sess *access.Session, target int, choices []Choice) Choice {
	if target == state.UnseenID {
		best := 0
		for idx, ch := range choices[1:] {
			if sess.Costs(ch.Pred).Sorted < sess.Costs(choices[best].Pred).Sorted {
				best = idx + 1
			}
		}
		return choices[best]
	}
	m := t.M()
	if cap(u.buf) < m {
		u.buf = make([]float64, m)
	}
	buf := u.buf[:m]
	upper := func(zero int) float64 {
		for i := 0; i < m; i++ {
			switch {
			case i == zero:
				buf[i] = 0
			case t.Known(target, i):
				buf[i] = t.Value(target, i)
			default:
				buf[i] = t.LastSeen(i)
			}
		}
		return t.Func().Eval(buf)
	}
	base := t.Upper(target)
	bestIdx, bestGain := -1, -1.0
	for idx, ch := range choices {
		if ch.Kind != access.RandomAccess {
			continue
		}
		drop := base - upper(ch.Pred)
		cost := sess.Costs(ch.Pred).Random.Units()
		if cost <= 0 {
			cost = 1e-9 // free probes are always best
		}
		gain := drop / cost
		if gain > bestGain {
			bestGain, bestIdx = gain, idx
		}
	}
	if bestIdx >= 0 {
		return choices[bestIdx]
	}
	// No probe available: fall back to the cheapest sorted access.
	best := 0
	for idx, ch := range choices[1:] {
		if sess.Costs(ch.Pred).Sorted < sess.Costs(choices[best].Pred).Sorted {
			best = idx + 1
		}
	}
	return choices[best]
}
