package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestVectorDotNormSum(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, -5, 6}
	if got := v.Dot(w); got != 1*4-2*5+3*6 {
		t.Fatalf("dot = %v", got)
	}
	if got := v.Norm(); !almostEqual(got, math.Sqrt(14), 1e-12) {
		t.Fatalf("norm = %v", got)
	}
	if got := v.Sum(); got != 6 {
		t.Fatalf("sum = %v", got)
	}
	if got := v.Mean(); got != 2 {
		t.Fatalf("mean = %v", got)
	}
}

func TestVectorMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorAddSubScale(t *testing.T) {
	v := Vector{1, 2}
	w := Vector{3, 4}
	if got := v.Add(w); got[0] != 4 || got[1] != 6 {
		t.Fatalf("add = %v", got)
	}
	if got := w.Sub(v); got[0] != 2 || got[1] != 2 {
		t.Fatalf("sub = %v", got)
	}
	u := v.Clone().Scale(2)
	if u[0] != 2 || u[1] != 4 {
		t.Fatalf("scale = %v", u)
	}
	if v[0] != 1 {
		t.Fatal("scale mutated the original via clone")
	}
	x := Vector{0, 0}.AddScaled(3, Vector{1, 2})
	if x[0] != 3 || x[1] != 6 {
		t.Fatalf("addScaled = %v", x)
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE(Vector{0, 0}, Vector{3, 4}); !almostEqual(got, math.Sqrt(12.5), 1e-12) {
		t.Fatalf("rmse = %v", got)
	}
	if !math.IsNaN(RMSE(Vector{}, Vector{})) {
		t.Fatal("rmse of empty should be NaN")
	}
}

func TestMatrixMul(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("mul[%d][%d] = %v want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatrixTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows := 1 + r.Intn(6)
		cols := 1 + r.Intn(6)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Normal(0, 1)
		}
		tt := m.T().T()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixMulVecAgainstMul(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows := 1 + r.Intn(5)
		cols := 1 + r.Intn(5)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Normal(0, 2)
		}
		v := make(Vector, cols)
		for i := range v {
			v[i] = r.Normal(0, 2)
		}
		got := m.MulVec(v)
		vm := NewMatrix(cols, 1)
		vm.SetCol(0, v)
		want := m.Mul(vm)
		for i := 0; i < rows; i++ {
			if !almostEqual(got[i], want.At(i, 0), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityIsMulNeutral(t *testing.T) {
	r := NewRNG(7)
	m := NewMatrix(4, 4)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	p := m.Mul(Identity(4))
	q := Identity(4).Mul(m)
	for i := range m.Data {
		if !almostEqual(p.Data[i], m.Data[i], 1e-12) || !almostEqual(q.Data[i], m.Data[i], 1e-12) {
			t.Fatal("identity not neutral")
		}
	}
}

func TestRowColRoundTrip(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if r := m.Row(1); r[0] != 4 || r[2] != 6 {
		t.Fatalf("row = %v", r)
	}
	if c := m.Col(2); c[0] != 3 || c[1] != 6 {
		t.Fatalf("col = %v", c)
	}
	m.SetRow(0, Vector{7, 8, 9})
	if m.At(0, 1) != 8 {
		t.Fatal("setRow failed")
	}
	m.SetCol(0, Vector{10, 11})
	if m.At(1, 0) != 11 {
		t.Fatal("setCol failed")
	}
}

func TestMatrixAddSubScaleNorms(t *testing.T) {
	a := MatrixFromRows([][]float64{{3, 0}, {0, 4}})
	b := MatrixFromRows([][]float64{{1, 1}, {1, 1}})
	if got := a.Add(b).At(0, 0); got != 4 {
		t.Fatalf("add = %v", got)
	}
	if got := a.Sub(b).At(1, 1); got != 3 {
		t.Fatalf("sub = %v", got)
	}
	if got := a.Scale(2).At(1, 1); got != 8 {
		t.Fatalf("scale = %v", got)
	}
	if got := a.FrobeniusNorm(); got != 5 {
		t.Fatalf("frobenius = %v", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("maxAbs = %v", got)
	}
}

func TestRaggedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	MatrixFromRows([][]float64{{1, 2}, {3}})
}

func TestMatrixMulVecIntoMatchesMulVec(t *testing.T) {
	r := NewRNG(11)
	m := NewMatrix(4, 3)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 2)
	}
	v := Vector{r.Normal(0, 1), r.Normal(0, 1), r.Normal(0, 1)}
	dst := make(Vector, 4)
	got := m.MulVecInto(dst, v)
	if &got[0] != &dst[0] {
		t.Fatal("MulVecInto did not return dst")
	}
	want := m.MulVec(v)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: MulVecInto %v, MulVec %v", i, got[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { m.MulVecInto(dst, v) }); allocs != 0 {
		t.Fatalf("MulVecInto allocates %v objects", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a dst of the wrong length was accepted")
		}
	}()
	m.MulVecInto(make(Vector, 3), v)
}
