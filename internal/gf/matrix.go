package gf

import "fmt"

// Matrix maintains rows over an arbitrary Field in row echelon form with
// incremental insertion, mirroring BitMatrix for general q. Pivot entries
// are normalized to 1 on insertion.
type Matrix struct {
	f    Field
	cols int
	rows []Vec
	lead []int
}

// NewMatrix returns an empty echelon matrix over f with the given column
// count.
func NewMatrix(f Field, cols int) *Matrix {
	if cols < 0 {
		panic("gf: negative Matrix column count")
	}
	return &Matrix{f: f, cols: cols}
}

// Rank returns the number of stored rows.
func (m *Matrix) Rank() int { return len(m.rows) }

// Row returns the i-th stored row. The returned slice is internal
// storage; callers must not modify it.
func (m *Matrix) Row(i int) Vec { return m.rows[i] }

// Reduce eliminates v against the stored rows and returns the freshly
// allocated remainder.
func (m *Matrix) Reduce(v Vec) Vec {
	if len(v) != m.cols {
		panic(fmt.Sprintf("gf: Matrix reduce of %d-vector against %d columns", len(v), m.cols))
	}
	r := v.Clone()
	for i, row := range m.rows {
		c := r[m.lead[i]]
		if c != 0 {
			// Pivot is normalized to 1, so subtract c*row.
			r.AddScaled(m.f, m.f.Neg(c), row)
		}
	}
	return r
}

// Insert reduces v and adds the remainder as a new (normalized) row if it
// is nonzero. It reports whether the rank grew.
func (m *Matrix) Insert(v Vec) bool {
	r := m.Reduce(v)
	lb := r.Leading()
	if lb < 0 {
		return false
	}
	r.Scale(m.f, m.f.Inv(r[lb]))
	pos := len(m.rows)
	for i, l := range m.lead {
		if lb < l {
			pos = i
			break
		}
	}
	m.rows = append(m.rows, nil)
	copy(m.rows[pos+1:], m.rows[pos:])
	m.rows[pos] = r
	m.lead = append(m.lead, 0)
	copy(m.lead[pos+1:], m.lead[pos:])
	m.lead[pos] = lb
	return true
}

// RREF back-eliminates to reduced row echelon form.
func (m *Matrix) RREF() {
	for i := len(m.rows) - 1; i >= 0; i-- {
		for j := 0; j < i; j++ {
			c := m.rows[j][m.lead[i]]
			if c != 0 {
				m.rows[j].AddScaled(m.f, m.f.Neg(c), m.rows[i])
			}
		}
	}
}

// UnitRow returns the row with pivot column c whose first prefix
// coordinates are zero except coordinate c (which is 1). Call RREF first.
func (m *Matrix) UnitRow(c, prefix int) (Vec, bool) {
	for i, l := range m.lead {
		if l != c {
			continue
		}
		row := m.rows[i]
		for j := 0; j < prefix; j++ {
			if j != c && row[j] != 0 {
				return nil, false
			}
		}
		return row, true
	}
	return nil, false
}

// SpansUnitPrefix reports whether the projection onto the first prefix
// columns has full rank prefix.
func (m *Matrix) SpansUnitPrefix(prefix int) bool {
	pivots := 0
	for _, l := range m.lead {
		if l < prefix {
			pivots++
		}
	}
	return pivots == prefix
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{
		f:    m.f,
		cols: m.cols,
		rows: make([]Vec, len(m.rows)),
		lead: make([]int, len(m.lead)),
	}
	for i, r := range m.rows {
		c.rows[i] = r.Clone()
	}
	copy(c.lead, m.lead)
	return c
}
