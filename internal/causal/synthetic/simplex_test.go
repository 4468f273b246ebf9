package synthetic

import (
	"fmt"
	"math"
	"testing"

	"sisyphus/internal/mathx"
)

// oracleSimplexWeights is simplexWeights as it was before its working
// vectors were preallocated, kept verbatim as the bit-identity oracle.
func oracleSimplexWeights(pre *mathx.Matrix, target mathx.Vector, maxIter int) mathx.Vector {
	n := pre.Cols
	w := make(mathx.Vector, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	resid := pre.MulVec(w).Sub(target) // A w − b
	preT := pre.T()
	for iter := 0; iter < maxIter; iter++ {
		grad := preT.MulVec(resid)
		// Linear minimization oracle over the simplex: the best vertex.
		j := 0
		for k := 1; k < n; k++ {
			if grad[k] < grad[j] {
				j = k
			}
		}
		// Direction d = e_j − w; step minimizes the quadratic along d.
		// A d = A e_j − A w = col_j − (resid + b) ... compute directly.
		ad := pre.Col(j).Sub(pre.MulVec(w))
		denom := ad.Dot(ad)
		if denom < 1e-18 {
			break
		}
		gamma := -resid.Dot(ad) / denom
		if gamma <= 0 {
			break // vertex already optimal along this direction
		}
		if gamma > 1 {
			gamma = 1
		}
		for k := range w {
			w[k] *= 1 - gamma
		}
		w[j] += gamma
		resid = resid.AddScaled(gamma, ad)
		if gamma < 1e-12 {
			break
		}
	}
	return w
}

// randomDesign draws a rows×cols donor matrix and a target near the donors'
// span, so the solver takes real steps before it stops.
func randomDesign(r *mathx.RNG, rows, cols int) (*mathx.Matrix, mathx.Vector) {
	pre := mathx.NewMatrix(rows, cols)
	for i := range pre.Data {
		pre.Data[i] = r.Normal(10, 3)
	}
	target := make(mathx.Vector, rows)
	for i := range target {
		target[i] = pre.At(i, r.Intn(cols)) + r.Normal(0, 1)
	}
	return pre, target
}

// TestSimplexWeightsBitIdentical: the allocation-free solver returns the
// oracle's weights to the bit, on random donor matrices and on the inputs
// that stop it early — a single donor and identical donor columns (no
// direction left: the denom < 1e-18 break), duplicated donors among
// others, and a target the uniform weights already fit exactly (the
// gamma <= 0 break).
func TestSimplexWeightsBitIdentical(t *testing.T) {
	r := mathx.NewRNG(17)
	type design struct {
		name   string
		pre    *mathx.Matrix
		target mathx.Vector
		// uniform marks the early-stopping inputs: the solver must stop
		// before its first step, leaving the starting weights.
		uniform bool
	}
	var cases []design
	for k := 0; k < 200; k++ {
		pre, target := randomDesign(r, 1+r.Intn(30), 1+r.Intn(20))
		cases = append(cases, design{name: fmt.Sprintf("random %d", k), pre: pre, target: target})
	}
	for k := 0; k < 20; k++ {
		rows, cols := 1+r.Intn(30), 2+r.Intn(10)
		pre, target := randomDesign(r, rows, cols)
		// Duplicate one donor over another.
		a, b := r.Intn(cols), r.Intn(cols)
		for i := 0; i < rows; i++ {
			pre.Set(i, b, pre.At(i, a))
		}
		cases = append(cases, design{name: fmt.Sprintf("duplicate donor %d", k), pre: pre, target: target})

		single, target1 := randomDesign(r, rows, 1)
		cases = append(cases, design{name: fmt.Sprintf("one donor %d", k), pre: single, target: target1, uniform: true})

		same := mathx.NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			x := r.Normal(10, 3)
			for j := 0; j < cols; j++ {
				same.Set(i, j, x)
			}
		}
		cases = append(cases, design{name: fmt.Sprintf("identical donors %d", k), pre: same, target: target, uniform: true})

		fit, _ := randomDesign(r, rows, cols)
		w0 := make(mathx.Vector, cols)
		for j := range w0 {
			w0[j] = 1 / float64(cols)
		}
		cases = append(cases, design{name: fmt.Sprintf("uniform fit exact %d", k), pre: fit, target: fit.MulVec(w0), uniform: true})
	}
	for _, c := range cases {
		for _, maxIter := range []int{1, 7, 200} {
			want := oracleSimplexWeights(c.pre, c.target, maxIter)
			got := simplexWeights(c.pre, c.target, maxIter)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s, maxIter %d: w[%d] = %v, oracle %v", c.name, maxIter, j, got[j], want[j])
				}
				if c.uniform && want[j] != 1/float64(len(want)) {
					t.Fatalf("%s: the oracle stepped away from uniform weights %v: the case lost its point", c.name, want)
				}
			}
		}
	}
}

// TestSimplexWeightsAllocations: a fit allocates its working vectors once,
// so the allocation count does not grow with the iteration budget.
func TestSimplexWeightsAllocations(t *testing.T) {
	pre, target := randomDesign(mathx.NewRNG(3), 24, 12)
	if w1, w := simplexWeights(pre, target, 1), simplexWeights(pre, target, 500); w1.Sub(w).Norm() == 0 {
		t.Fatal("500 iterations gave the one-iteration weights: the solver stopped early and the bound shows nothing")
	}
	short := testing.AllocsPerRun(20, func() { simplexWeights(pre, target, 1) })
	long := testing.AllocsPerRun(20, func() { simplexWeights(pre, target, 500) })
	// w, A w, the residual, the transpose (header and data), and the
	// gradient, A w and A d buffers.
	const bound = 8
	if short > bound || long > bound || long != short {
		t.Fatalf("simplexWeights allocates %v objects at maxIter 1 and %v at maxIter 500, want the same, at most %d", short, long, bound)
	}
}
