package fleet

// reduce.go: folding gathered partials into one Answer.
//
// The reduce has three stages. First, a dead caller context short-circuits:
// it is the request's fault, not the fleet's (texts with no n-grams never
// get here — Ask answers them before the scatter). Second, the generation filter keeps the gather
// consistent: partials are grouped by the model generation that produced
// them and only the best-covered group survives (ties to the newer
// generation), so no answer ever mixes generations even while Swap is
// mid-roll. Third, the scheme-specific reduction scores what survived:
//
//   - ByWords: partials sum per class. Full coverage gives the exact
//     full-D distances, bit-identical to core.ClassMatrix.Nearest. Lost
//     partitions make the sum a d-sampled distance over the covered bits —
//     precisely the paper's d-sampling regime (§III-A1) — so the winner's
//     margin is certified with the cascaded searcher's hypergeometric
//     slack: the answer is Confident only if the margin survives widening
//     by 2·t*.
//   - ByClasses: partials concatenate. Covered classes keep exact
//     distances; lost partitions exclude their classes. The winner is
//     exact over the covered band but no certificate can speak for an
//     unseen class, so degraded ByClasses answers are never Confident.

import (
	"context"
	"errors"
	"math"

	"hdam/internal/core"
)

// coverageUnits is a partition's weight in the generation filter: the
// share of the model it covers (bits under ByWords, rows under ByClasses).
func (f *Fleet) coverageUnits(p int) int {
	if f.scheme == ByClasses {
		return f.parts[p].rhi - f.parts[p].rlo
	}
	return f.parts[p].bits
}

// reduce folds the gathered partials into one Answer.
func (f *Fleet) reduce(ctx context.Context, ps []partial) (Answer, error) {
	var firstErr error
	succ := ps[:0:0]
	for i := range ps {
		switch {
		case ps[i].err == nil:
			succ = append(succ, ps[i])
		case firstErr == nil:
			firstErr = ps[i].err
		}
	}
	if len(succ) == 0 {
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		f.noCoverage.Add(1)
		return Answer{}, errors.Join(ErrNoCoverage, firstErr)
	}

	// Generation filter: keep the best-covered generation, ties to newer.
	gen, bestCov := succ[0].gen, 0
	cov := make(map[uint64]int, 1)
	for _, pr := range succ {
		cov[pr.gen] += f.coverageUnits(pr.part)
	}
	for g, c := range cov {
		if c > bestCov || (c == bestCov && g > gen) {
			gen, bestCov = g, c
		}
	}
	kept := succ[:0]
	for _, pr := range succ {
		if pr.gen == gen {
			kept = append(kept, pr)
		}
	}
	if dropped := len(succ) - len(kept); dropped > 0 {
		f.genDropped.Add(uint64(dropped))
	}

	erasures := len(f.parts) - len(kept)
	var ans Answer
	if f.scheme == ByClasses {
		ans = f.reduceClasses(kept, erasures, gen)
	} else {
		ans = f.reduceWords(kept, erasures, gen)
	}
	f.answered.Add(1)
	if ans.Degraded {
		f.degraded.Add(1)
		f.erasures.Add(uint64(erasures))
	}
	return ans, nil
}

// reduceWords sums word-range partials into per-class distances: exact
// full-D distances at full coverage, d-sampled distances over the covered
// bits under erasures, certified by certSlack.
func (f *Fleet) reduceWords(kept []partial, erasures int, gen uint64) Answer {
	sum := make([]int, f.classes)
	bits := 0
	for _, pr := range kept {
		bits += f.parts[pr.part].bits
		for i, v := range pr.ds {
			sum[i] += v
		}
	}
	best, second := 0, bits+1
	for i := 1; i < len(sum); i++ {
		switch {
		case sum[i] < sum[best]:
			second = sum[best]
			best = i
		case sum[i] < second:
			second = sum[i]
		}
	}
	margin := second - sum[best]
	t := certSlack(bits, f.dim, f.classes, f.cfg.MaxFailProb)
	widened := margin - 2*t
	return Answer{
		Result:         core.Result{Index: best, Distance: sum[best]},
		Label:          f.labels[best],
		Gen:            gen,
		Degraded:       erasures > 0,
		Coverage:       float64(bits) / float64(f.dim),
		CoveredBits:    bits,
		CoveredClasses: f.classes,
		Erasures:       erasures,
		Margin:         margin,
		WidenedMargin:  widened,
		Confident:      widened > 0,
	}
}

// reduceClasses concatenates class-band partials: the winner is the exact
// nearest class among the covered bands, with the deterministic
// lowest-global-index tie-break (kept arrives in ascending partition — and
// therefore ascending global row — order).
func (f *Fleet) reduceClasses(kept []partial, erasures int, gen uint64) Answer {
	best, bestD, second := -1, f.dim+1, f.dim+1
	covered := 0
	for _, pr := range kept {
		rlo := f.parts[pr.part].rlo
		covered += len(pr.ds)
		for i, d := range pr.ds {
			switch {
			case d < bestD:
				second = bestD
				best, bestD = rlo+i, d
			case d < second:
				second = d
			}
		}
	}
	margin := second - bestD
	degraded := erasures > 0
	widened := margin
	if degraded {
		widened = 0 // no certificate can speak for an unseen class
	}
	return Answer{
		Result:         core.Result{Index: best, Distance: bestD},
		Label:          f.labels[best],
		Gen:            gen,
		Degraded:       degraded,
		Coverage:       float64(covered) / float64(f.classes),
		CoveredBits:    f.dim,
		CoveredClasses: covered,
		Erasures:       erasures,
		Margin:         margin,
		WidenedMargin:  widened,
		Confident:      widened > 0,
	}
}

// certSlack is the cascaded searcher's d-sampling certificate
// (assoc.Cascade) applied to erasure coverage: observing d of the D bits
// makes each surviving per-class distance a hypergeometric sample with
// worst-case variance σ² = d·¼·(D−d)/(D−1). Widening the winner's margin
// by 2·t*, with t* = ⌈Erfcinv(2ε/(C−1))·√(2σ²)⌉, bounds the probability
// that the unobserved bits would overturn the winner at ε (union bound
// over the C−1 losing classes, Gaussian tail). Full coverage (d = D) has
// zero variance and zero slack, which is how the healthy path's Confident
// reduces to Margin > 0.
func certSlack(d, dim, rows int, eps float64) int {
	if d >= dim || dim <= 1 || rows < 2 {
		return 0
	}
	sigma2 := float64(d) * 0.25 * float64(dim-d) / float64(dim-1)
	if sigma2 <= 0 {
		return 0
	}
	perRow := 2 * eps / float64(rows-1)
	if perRow >= 2 {
		return 0
	}
	return int(math.Ceil(math.Erfcinv(perRow) * math.Sqrt(2*sigma2)))
}
