// Package nn is a from-scratch fully-connected neural network engine:
// dense layers with ReLU activations, mean-squared-error loss, the Adam
// optimizer, minibatch training with data-parallel gradient computation
// across CPU cores, per-layer freezing for transfer-learning
// fine-tuning (the paper's Case 2), and the model format (Save/Load).
// It implements exactly the model family the paper trains — small MLP
// regressors — with no external dependencies.
package nn

import (
	"errors"
	"fmt"
)

// Matrix is a dense row-major float64 matrix. Rows are samples
// throughout this package: X is (batch × features).
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, errors.New("nn: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// SliceRows returns a view (shared storage) of rows [lo, hi).
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}
