package metric

import (
	"fmt"

	"ced/internal/core"
)

// ContextualHybrid returns a contextual metric that runs the exact cubic
// algorithm when |x|+|y| <= threshold and the quadratic heuristic
// otherwise. The §4.1 agreement study shows the heuristic is almost always
// exact, and its rare overshoots shrink with string length (the paper
// reports max gaps of 0.03 on short dictionary words vs 0.008 on long
// contours) — so spending the cubic cost only on short strings buys back
// most of the residual error at quadratic-ish average cost.
//
// A non-positive threshold defaults to 64.
func ContextualHybrid(threshold int) Metric {
	if threshold <= 0 {
		threshold = 64
	}
	return New("dC*", func(a, b []rune) float64 {
		if len(a)+len(b) <= threshold {
			return core.Distance(a, b)
		}
		return core.Heuristic(a, b)
	})
}

// ContextualWindowed returns the windowed contextual distance: exact dC's
// banded Algorithm 1 with the band's upper end also capped at dE + window
// (core.ComputeWindowed), a middle ground between the heuristic (window 0)
// and exact dC (any window that covers the band, at the latest
// |x|+|y|−dE). Its value is always sandwiched between dC and dC,h, and it
// never sweeps more than exact dC does. This addresses the §5 open problem
// about Algorithm 1's cubic complexity; see the windowed ablation bench
// for the accuracy/cost curve.
//
// A negative window is treated as 0.
func ContextualWindowed(window int) Metric {
	name := fmt.Sprintf("dC+%d", window)
	return New(name, func(a, b []rune) float64 {
		return core.Windowed(a, b, window)
	})
}
