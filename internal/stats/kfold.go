package stats

import (
	"fmt"

	"pmcpower/internal/rng"
)

// Fold is one train/test split produced by KFold. Indices refer to
// rows of the caller's dataset.
type Fold struct {
	Train []int
	Test  []int
}

// KFold splits n observations into k folds with random indexing (the
// paper's "10-fold cross validation with random indexing"). Every
// observation appears in exactly one test set; fold sizes differ by at
// most one. The shuffle is driven by the supplied deterministic
// generator.
//
// k flows in from CLI flags and experiment configs, so invalid values
// (k < 2, or more folds than observations) are reported as errors, not
// panics.
func KFold(n, k int, r *rng.Rand) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("stats: KFold needs k >= 2, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("stats: KFold with k=%d folds but only n=%d observations", k, n)
	}
	perm := r.Perm(n)

	folds := make([]Fold, k)
	// Distribute n = k*q + rem observations: the first rem folds get
	// one extra test element.
	q, rem := n/k, n%k
	pos := 0
	for f := 0; f < k; f++ {
		size := q
		if f < rem {
			size++
		}
		test := append([]int(nil), perm[pos:pos+size]...)
		pos += size
		train := make([]int, 0, n-size)
		for _, idx := range perm[:pos-size] {
			train = append(train, idx)
		}
		for _, idx := range perm[pos:] {
			train = append(train, idx)
		}
		folds[f] = Fold{Train: train, Test: test}
	}
	return folds, nil
}
