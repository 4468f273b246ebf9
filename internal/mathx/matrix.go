package mathx

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with r rows and c columns.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mathx: invalid matrix dims %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// MatrixFromRows builds a matrix from a slice of equal-length rows.
func MatrixFromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mathx: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a copy of row i as a Vector.
func (m *Matrix) Row(i int) Vector {
	out := make(Vector, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Col returns a copy of column j as a Vector.
func (m *Matrix) Col(j int) Vector {
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v Vector) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mathx: setRow length %d into %d cols", len(v), m.Cols))
	}
	copy(m.Data[i*m.Cols:(i+1)*m.Cols], v)
}

// SetCol copies v into column j.
func (m *Matrix) SetCol(j int, v Vector) {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("mathx: setCol length %d into %d rows", len(v), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		m.Set(i, j, v[i])
	}
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product m * b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mathx: mul %dx%d by %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v Vector) Vector {
	return m.MulVecInto(make(Vector, m.Rows), v)
}

// MulVecInto writes the matrix-vector product m * v into dst, which must
// have m.Rows elements and must not alias v, and returns dst.
func (m *Matrix) MulVecInto(dst, v Vector) Vector {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("mathx: mulVec %dx%d by %d", m.Rows, m.Cols, len(v)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: mulVec %dx%d into %d", m.Rows, m.Cols, len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			s += x * v[j]
		}
		dst[i] = s
	}
	return dst
}

// Add returns m + b as a new matrix.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.mustSameShape(b, "add")
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out
}

// Sub returns m - b as a new matrix.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.mustSameShape(b, "sub")
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] -= b.Data[i]
	}
	return out
}

// Scale returns a*m as a new matrix.
func (m *Matrix) Scale(a float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= a
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, x := range m.Data {
		s += x * x
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element of m.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, x := range m.Data {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

func (m *Matrix) mustSameShape(b *Matrix, op string) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mathx: %s of %dx%d with %dx%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%9.4f", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
